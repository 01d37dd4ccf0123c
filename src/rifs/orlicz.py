"""Orlicz functions from named families, their Young conjugates, the convex
modular, and the Luxemburg / Amemiya-form norms on step functions.

Families
    power(p, coef)        psi(u) = coef * |u|^p, p >= 1
    shifted_power(a, p)   psi(u) = max(0, |u| - a)^p, a > 0, p >= 1
    exp_minus_one         psi(u) = exp(|u|) - 1
    table(points)         convex piecewise-linear through (t, psi(t)) points,
                          origin prepended: at least one point with t > 0,
                          t strictly increasing, values nonnegative, slopes
                          nondecreasing; linear with the last slope beyond the
                          last point T, or psi = inf beyond T (inf_beyond),
                          which a table with no positive final slope requires

Every family is even, convex, continuous, vanishes at zero and tends to
infinity; construction validates this on the parameters.

``OrliczSpec.psi_many`` is the one implementation of psi (the scalar ``psi``
calls it), ``psi_inverse_many`` the one of its level sets, and
``slope_at_zero`` gives lim psi(s)/s at 0.  The modular and both norms
reduce a step function to its cells, a pair of arrays (widths, |values|),
and evaluate there.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import SchemaError
from .optimize import newton_level
from .step import StepFunction

_TINY = sys.float_info.min  # smallest normal float


@dataclass(frozen=True)
class OrliczSpec:
    family: str
    p: float | None = None
    coef: float = 1.0
    shift: float | None = None
    points: tuple[tuple[float, float], ...] | None = None
    inf_beyond: bool = False

    @classmethod
    def power(cls, p: float, coef: float = 1.0) -> "OrliczSpec":
        if not 1 <= p < math.inf:
            raise SchemaError("power family needs 1 <= p < inf (convexity)")
        if not 0 < coef < math.inf:
            raise SchemaError("power family needs 0 < coef < inf")
        return cls("power", p=float(p), coef=float(coef))

    @classmethod
    def shifted_power(cls, shift: float, p: float) -> "OrliczSpec":
        if not (0 < shift < math.inf and 1 <= p < math.inf):
            raise SchemaError("shifted_power needs 0 < shift < inf and 1 <= p < inf")
        return cls("shifted_power", p=float(p), shift=float(shift))

    @classmethod
    def exp_minus_one(cls) -> "OrliczSpec":
        return cls("exp_minus_one")

    @classmethod
    def table(cls, points, inf_beyond: bool = False) -> "OrliczSpec":
        """Piecewise-linear psi through (t, psi(t)) points, linear beyond the
        last point, or inf there when `inf_beyond`.

        (0, 0) is prepended unless given, and at least one point with t > 0
        must follow it. The t must be strictly increasing, the values
        nonnegative, and the slopes nondecreasing up to a relative 1e-9
        (convexity; `inf_beyond` does not lift this). A table whose final
        slope is not positive (under convexity, only an all-zero table) does
        not tend to infinity and needs `inf_beyond`. Any breach raises
        `SchemaError`.
        """
        pts = tuple((float(t), float(v)) for t, v in points)
        if not pts or pts[0] != (0.0, 0.0):
            pts = ((0.0, 0.0),) + pts
        if len(pts) < 2:
            raise SchemaError("table needs a point with t > 0")
        ts = [t for t, _ in pts]
        vs = [v for _, v in pts]
        if not all(t0 < t1 < math.inf for t0, t1 in zip(ts, ts[1:])):
            raise SchemaError("table points must have finite, strictly increasing t")
        if not all(0 <= v < math.inf for v in vs):
            raise SchemaError("table values must be finite and nonnegative")
        slopes = [(v1 - v0) / (t1 - t0) for (t0, v0), (t1, v1) in zip(pts, pts[1:])]
        # Relative: a slope recomputed from rounded points errs with its scale.
        if any(s1 < s0 - 1e-9 * s0 for s0, s1 in zip(slopes, slopes[1:])):
            raise SchemaError("table must be convex (nondecreasing slopes)")
        if not inf_beyond and slopes[-1] <= 0:
            raise SchemaError(
                "table must tend to infinity: positive final slope or inf_beyond")
        return cls("table", points=pts, inf_beyond=inf_beyond)

    @property
    def finite_valued(self) -> bool:
        return not (self.family == "table" and self.inf_beyond)

    @cached_property
    def _table(self) -> tuple[np.ndarray, np.ndarray, float]:
        """Breakpoints, values and last slope of the table family."""
        ts, vs = np.array(self.points).T
        return ts, vs, float((vs[-1] - vs[-2]) / (ts[-1] - ts[-2]))

    @cached_property
    def _kinks(self) -> tuple[np.ndarray, np.ndarray] | None:
        """Kinks t_k > 0 and slope increments d_k of a piecewise-linear psi, so
        that ``psi(t) = slope_at_zero * t + sum_k d_k * max(0, t - t_k)`` for
        t <= psi^-1(inf); None for a psi with curvature (the power family is
        linear only at p = 1, and its norms are closed forms)."""
        if self.family == "table":
            ts, vs, _ = self._table
            return ts[1:-1], np.diff(np.diff(vs) / np.diff(ts))
        if self.family == "shifted_power" and self.p == 1.0:
            return np.array([self.shift]), np.array([1.0])
        return None

    @property
    def slope_at_zero(self) -> float:
        """``lim psi(s)/s`` as s -> 0+ (convexity makes the ratio monotone)."""
        if self.family == "power":
            return self.coef if self.p == 1.0 else 0.0
        if self.family == "shifted_power":
            return 0.0
        if self.family == "exp_minus_one":
            return 1.0
        ts, vs, _ = self._table
        return float(vs[1] / ts[1])

    def psi(self, u: float) -> float:
        if math.isnan(u):
            raise SchemaError("psi needs a point u, got nan")
        return float(self.psi_many(u))

    def psi_many(self, us: np.ndarray) -> np.ndarray:
        """psi at every entry of ``us``; overflow maps to inf."""
        us = np.abs(np.asarray(us, dtype=float))
        with np.errstate(over="ignore"):
            if self.family == "power":
                return self.coef * us ** self.p
            if self.family == "shifted_power":
                return np.maximum(0.0, us - self.shift) ** self.p
            if self.family == "exp_minus_one":
                return np.expm1(us)
            ts, vs, last_slope = self._table
            beyond = math.inf if self.inf_beyond else vs[-1] + last_slope * (us - ts[-1])
            return np.where(us <= ts[-1], np.interp(us, ts, vs), beyond)

    def psi_slope_many(self, us: np.ndarray) -> np.ndarray:
        """The right derivative psi' at every u >= 0 in ``us``:
        ``coef p u^(p-1)``, ``p max(0, u - a)^(p-1)`` (1 from a on at p = 1),
        ``e^u``, and for a table the slope of the segment holding u (inf from
        the end of an inf_beyond table on).  Overflow maps to inf."""
        us = np.asarray(us, dtype=float)
        with np.errstate(over="ignore"):
            if self.family == "power":
                return self.coef * self.p * us ** (self.p - 1.0)
            if self.family == "exp_minus_one":
                return _smooth_terms(self, us, False)[1]
            if self.family == "shifted_power":
                # At p = 1, _smooth_terms' d^0 is 1 below the shift as well.
                return np.where(us < self.shift, 0.0, _smooth_terms(self, us, False)[1])
            ts, vs, last_slope = self._table
            slopes = np.append(np.diff(vs) / np.diff(ts),
                               math.inf if self.inf_beyond else last_slope)
            return slopes[ts.searchsorted(us, "right") - 1]

    def psi_inverse_many(self, us: np.ndarray) -> np.ndarray:
        """``sup { t >= 0 : psi(t) <= u }`` for every u >= 0 in ``us``: psi^-1(0)
        is a_psi, psi^-1(inf) is T for an inf_beyond table, else inf."""
        us = np.asarray(us, dtype=float)
        with np.errstate(over="ignore"):
            if self.family == "power":
                return (us / self.coef) ** (1.0 / self.p)
            if self.family == "shifted_power":
                return self.shift + us ** (1.0 / self.p)
            if self.family == "exp_minus_one":
                return np.log1p(us)
            # psi is strictly increasing from its last zero point on.
            ts, vs, last_slope = self._table
            k = int(np.flatnonzero(vs == 0.0)[-1])
            beyond = ts[-1] if self.inf_beyond else ts[-1] + (us - vs[-1]) / last_slope
            return np.where(us <= vs[-1], np.interp(us, vs[k:], ts[k:]), beyond)

    def to_json(self) -> dict:
        params: dict = {}
        if self.family == "power":
            params = {"p": self.p, "coef": self.coef}
        elif self.family == "shifted_power":
            params = {"a": self.shift, "p": self.p}
        elif self.family == "table":
            params = {"points": [list(pt) for pt in self.points],
                      "inf_beyond": self.inf_beyond}
        return {"family": self.family, "params": params}

    @classmethod
    def from_json(cls, obj: dict) -> "OrliczSpec":
        try:
            family = obj["family"]
            params = obj.get("params", {})
            if family == "power":
                return cls.power(params["p"], params.get("coef", 1.0))
            if family == "shifted_power":
                return cls.shifted_power(params["a"], params["p"])
            if family == "exp_minus_one":
                return cls.exp_minus_one()
            if family == "table":
                return cls.table(params["points"], params.get("inf_beyond", False))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise SchemaError(f"bad Orlicz JSON: {exc}") from exc
        raise SchemaError(f"unknown Orlicz family {family!r}")


def young_conjugate(psi: OrliczSpec, u: float) -> float:
    """``sup_(v>0) { |u| v - psi(v) }``, in closed form per family; inf when
    the supremum diverges.  u must be finite."""
    u = abs(u)
    if not u < math.inf:
        raise SchemaError("young_conjugate needs a finite u")
    if u == 0.0:
        return 0.0
    if psi.family == "power":
        if psi.p == 1.0:
            return 0.0 if u <= psi.coef else math.inf
        # stationarity: u = coef * p * v^(p-1)
        v = (u / (psi.coef * psi.p)) ** (1.0 / (psi.p - 1.0))
        return u * v - psi.coef * v ** psi.p
    if psi.family == "shifted_power":
        # v = a carries a*u; beyond it the power part adds its own conjugate.
        if psi.p == 1.0:
            return psi.shift * u if u <= 1.0 else math.inf
        return psi.shift * u + (psi.p - 1.0) * (u / psi.p) ** (psi.p / (psi.p - 1.0))
    if psi.family == "exp_minus_one":
        return u * math.log(u) - u + 1.0 if u > 1.0 else 0.0
    # A piecewise-linear psi attains the sup at a breakpoint, unless it is
    # linear to infinity with a slope below u.
    ts, vs, last_slope = psi._table
    if psi.finite_valued and u > last_slope:
        return math.inf
    return float(np.max(u * ts - vs))


def _cells(x: StepFunction) -> tuple[np.ndarray, np.ndarray]:
    """(widths, |values|) of the pieces of x, from its cached columns."""
    t0, t1, v = x._columns
    return t1 - t0, np.abs(v)


def _modular(widths: np.ndarray, mags: np.ndarray, psi: OrliczSpec) -> float:
    return float(np.dot(widths, psi.psi_many(mags)))


def _norm_on_cells(widths: np.ndarray, mags: np.ndarray, psi: OrliczSpec,
                   flavor: str) -> float:
    """Luxemburg (``flavor="luxemburg"``) or Amemiya-form (``"orlicz"``) norm
    of the function with absolute value ``mags[i]`` on a cell of width
    ``widths[i]``; 0 for the zero function.

    Both norms are homogeneous, so they are computed for ``unit = mags / top``
    (top = sup|x|) in the variable s and scaled back by top, whatever the
    scale of x.  With ``rho(s) = rho_psi(s * unit)``:

    Luxemburg: ``inf { lam > 0 : rho_psi(x / lam) <= 1 } = top / s`` for the
    largest s with ``rho(s) <= 1``.  The power family is a closed form.
    Otherwise s lies in ``[psi^-1(1 / w_total), psi^-1(1 / w_peak)]`` (w_peak:
    the width where |x| = top), a point when |x| takes one value, and then
    ``top / psi^-1(1 / w_total)`` is the answer.  A piecewise-linear psi is
    solved exactly on the segment between kinks of rho where it crosses 1
    (:func:`_luxemburg_kink_walk`), a smooth psi by Newton steps from the top
    of the bracket.  At a modular jump (psi = inf beyond T) s stops at T, so
    the result is the inf over the closed sublevel set.

    Amemiya: ``inf_(k>0) (1 + rho_psi(k x)) / k = top * inf_s h(s)`` with
    ``h(s) = (1 + rho(s)) / s``, over s <= psi^-1(inf).  h decreases while
    ``g(s) = s rho'(s) - rho(s)`` (= sum w psi*(psi'(s unit)), nondecreasing)
    is below 1 and increases after (Krasnosel'skii-Rutickii), so the minimum
    sits where g crosses 1, at psi^-1(inf), or is the limit as s -> inf.  The
    power family is a closed form, a piecewise-linear psi a walk over the kinks
    (:func:`_amemiya_kink_walk`), and a smooth psi a Newton solve of g = 1.
    """
    if flavor == "luxemburg" and psi.family == "power":
        return _power_luxemburg(widths, psi.coef, psi.p)(mags)
    if not mags.any():
        return 0.0
    top = float(mags.max())
    unit = mags / top
    if flavor != "luxemburg":
        return _amemiya(widths, unit, top, psi)[0]
    lo, hi = _luxemburg_bracket(widths, unit, psi)
    if not lo < hi:
        return top * (1.0 / lo)
    if psi._kinks is not None:
        return top / _luxemburg_kink_walk(widths, unit, psi, lo, hi)
    return top / _luxemburg_newton(widths, unit, psi, lo, hi)


def _homogeneous_root(top: float, p: float, total, unit_total) -> float:
    """The norm ``total() ** (1/p)`` of x, sup|x| = top (a float), whose p-th
    power ``total()`` is p-homogeneous: x as given while ``top ** p`` (tested
    first) and the total are normal finite floats and the attempt raises no
    OverflowError or FloatingPointError (a caller's errstate); else ``top *
    unit_total() ** (1/p)``, with the total of x / top.  0 for top = 0."""
    try:
        if _TINY <= top ** p < math.inf and _TINY <= (t := total()) < math.inf:
            return t ** (1.0 / p)
    except (OverflowError, FloatingPointError):
        pass
    return top * unit_total() ** (1.0 / p) if top else 0.0


def _power_luxemburg(widths: np.ndarray, coef: float, p: float):
    """``vals -> ||x||``, the Luxemburg norm of a power psi = coef |u|^p in
    closed form, ``(coef sum w |v|^p)^(1/p)``, for the function x with value
    ``vals[i]`` on a cell of width ``widths[i]``, bound to the widths and
    scaled by :func:`_homogeneous_root`.  For p = 2 the powers are ``v * v``,
    which is ``|v| ** 2`` exactly.  Written out rather than through psi_many:
    its errstate guard costs as much as the whole closed form, and hull line
    searches call this per step."""

    def total(v: np.ndarray) -> float:
        return coef * float(np.dot(widths, v * v if p == 2.0 else np.abs(v) ** p))

    def luxemburg(vals: np.ndarray) -> float:
        top = float(np.abs(vals).max(initial=0.0))
        return _homogeneous_root(top, p, lambda: total(vals), lambda: total(vals / top))

    return luxemburg


def _luxemburg_bracket(widths, unit, psi) -> tuple[float, float]:
    """The bracket [lo, hi] of the Luxemburg s, s_L, from
    ``w_peak psi(s) <= rho(s) <= w_total psi(s)``."""
    levels = np.array([1.0 / widths.sum(), 1.0 / widths[unit == 1.0].sum()])
    lo, hi = (float(s) for s in psi.psi_inverse_many(levels))
    return lo, hi


def _amemiya(widths, unit, top, psi) -> tuple[float, float]:
    """The Amemiya norm ``top * inf_s h(s)`` and an s where h is least (inf
    where the infimum is the limit as s -> inf)."""
    if psi.family == "power":
        # h(s) = 1/s + r s^(p-1) with r = rho(1): least at s^p = 1 / ((p-1) r),
        # and r itself, the limit as s -> inf, for p = 1.
        r = psi.coef * float(np.dot(widths, unit ** psi.p))
        if psi.p == 1.0:
            return top * r, math.inf
        q = psi.p - 1.0
        return top * (psi.p / q) * (q * r) ** (1.0 / psi.p), (q * r) ** (-1.0 / psi.p)
    if psi._kinks is not None:
        h, s = _amemiya_kink_walk(widths, unit, psi, float(psi.psi_inverse_many(math.inf)))
        return top * h, s
    # h(s) >= 1/s and h(s_L) = 2 / s_L put the minimum at s >= s_L / 2.
    lo, hi = _luxemburg_bracket(widths, unit, psi)
    h, s = _amemiya_newton(widths, unit, psi, 0.5 * lo, hi)
    return top * h, s


def _kink_segments(widths: np.ndarray, unit: np.ndarray, psi: OrliczSpec,
                   lo: float, hi: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """rho(s) = sum w psi(s unit) for a piecewise-linear psi, on (lo, hi).

    rho has a kink at each t_k / unit_i, where its slope rises by
    ``w_i unit_i d_k``.  Returns ``(starts, C, D)``: lo and then the kinks in
    (lo, hi) in increasing order, with ``rho(s) = C[j] s - D[j]`` from
    ``starts[j]`` up to the next start (or hi).  Kinks at or below lo are summed
    into ``C[0]`` and ``D[0]`` unsorted; those at or beyond hi are dropped.
    """
    ts, dslope = psi._kinks
    wu = widths * unit
    with np.errstate(divide="ignore", over="ignore"):  # past hi, where unit is 0 or tiny
        kinks = (ts / unit[:, None]).ravel()
    jumps = (wu[:, None] * dslope).ravel()
    below = kinks <= lo
    inside = (kinks < hi) & ~below
    k = kinks[inside]
    order = np.argsort(k)
    k, c = k[order], jumps[inside][order]
    starts = np.concatenate(([lo], k))
    slopes = np.cumsum(np.concatenate(
        ([psi.slope_at_zero * wu.sum() + jumps[below].sum()], c)))
    offsets = np.cumsum(np.concatenate(([np.dot(jumps[below], kinks[below])], c * k)))
    return starts, slopes, offsets


def _luxemburg_kink_walk(widths, unit, psi, lo, hi) -> float:
    """Largest s in [lo, hi] with rho(s) <= 1, for a piecewise-linear psi,
    where ``rho(lo) <= 1`` and rho(s) > 1 past hi (or psi = inf past hi)."""
    starts, slopes, offsets = _kink_segments(widths, unit, psi, lo, hi)
    # rho at each kink, from the segment that ends there: nondecreasing, so the
    # first value >= 1 names the segment where rho crosses 1.
    # C[j] > 0: lo > a_psi, so the kink where psi leaves 0 at |x| = top is
    # summed into C[0].  The root passes hi only where psi jumps to inf at
    # hi = T before rho reaches 1.
    j = int(np.searchsorted(slopes[:-1] * starts[1:] - offsets[:-1], 1.0))
    return min(float((1.0 + offsets[j]) / slopes[j]), hi)


def _amemiya_kink_walk(widths, unit, psi, end) -> tuple[float, float]:
    """``inf_(0 < s <= end) (1 + rho(s)) / s`` for a piecewise-linear psi, and
    the s where it is attained (inf for the limit).

    On segment j, ``h = C[j] + (1 - D[j]) / s`` and g = D[j], so h falls until
    the first kink with D >= 1 and rises after it.  With no such kink the
    infimum is h at end, or the limit C as s -> inf."""
    starts, slopes, offsets = _kink_segments(widths, unit, psi, 0.0, end)
    j = int(np.searchsorted(offsets, 1.0))  # >= 1, as D[0] = 0: no kink is <= 0
    if j < len(starts):
        s = float(starts[j])
    elif end < math.inf:
        s = end
    else:
        return float(slopes[-1]), math.inf
    # h evaluated from the segment ending at s, whose kinks all lie below s.
    return float(slopes[j - 1] + (1.0 - offsets[j - 1]) / s), s


def _smooth_terms(psi: OrliczSpec, v: np.ndarray, curvature: bool):
    """psi, psi' and (if ``curvature``) psi'' at v >= 0, for exp - 1 and
    shifted_power (psi' at p = 1 is 1 below the shift too, where
    ``OrliczSpec.psi_slope_many`` sets it to 0).  Callers ignore overflow: it
    maps to inf."""
    if psi.family == "exp_minus_one":
        f = np.expm1(v)
        return f, f + 1.0, f + 1.0
    d = np.maximum(0.0, v - psi.shift)
    dp = d ** (psi.p - 1.0)
    df = psi.p * dp
    if not curvature:
        return d * dp, df, None
    # psi'' = (p - 1) psi' / d, 0 below the shift.
    return d * dp, df, (psi.p - 1.0) * np.divide(df, d, out=np.zeros_like(d), where=d > 0.0)


def _luxemburg_newton(widths, unit, psi, lo, hi) -> float:
    """The s in [lo, hi] with rho(s) = 1 for a smooth psi, by Newton steps
    from hi; rho grows like a power of s - a_psi from a_psi on."""
    wu = widths * unit

    def level(s: float) -> tuple[float, float]:
        f, df, _ = _smooth_terms(psi, s * unit, False)
        return float(np.dot(widths, f)), float(np.dot(wu, df))

    with np.errstate(over="ignore"):
        return newton_level(level, float(psi.psi_inverse_many(0.0)), lo, hi, hi)


def _amemiya_newton(widths, unit, psi, lo, start) -> tuple[float, float]:
    """``inf_s h(s)`` for a smooth psi, by Newton steps on ``g(s) = 1`` (with
    ``g' = s rho''``) from ``start``, above ``lo``, and that root.

    Every value of g comes with rho, so h is known at each point visited.  The
    answer is the least of those, of h at the root, and of h(a_psi) = 1/a_psi:
    each bounds the infimum from above.  Where the root lies within rounding
    of a_psi (shifted_power on a wide support), h at the floats around it can
    exceed 1/a_psi, the limit of the fundamental function, by 1e-10.
    """
    wuu = widths * unit * unit
    a = float(psi.psi_inverse_many(0.0))  # rho = 0 on [0, a], so h(a) = 1 / a
    best = 1.0 / a if a > 0.0 else math.inf

    def level(s: float) -> tuple[float, float]:
        nonlocal best
        v = s * unit
        f, df, d2f = _smooth_terms(psi, v, True)
        best = min(best, (1.0 + float(np.dot(widths, f))) / s)
        return float(np.dot(widths, v * df - f)), s * float(np.dot(wuu, d2f))

    # A step far above the root may overflow psi, and g to inf - inf = NaN,
    # which the solver reads as above the level.
    with np.errstate(over="ignore", invalid="ignore"):
        root = newton_level(level, a, max(lo, a), math.inf, start)
        level(root)
    return best, root


def _luxemburg_subgradient(widths: np.ndarray, vals: np.ndarray, lam: float,
                           psi: OrliczSpec) -> np.ndarray:
    """A subgradient g of the Luxemburg norm at the cell values ``vals``, whose
    norm is lam > 0: ``N(u) >= lam + <g, u - vals>`` for every u.

    The unit ball is the level set rho <= 1.  At its boundary point
    ``vals / lam`` the cells give a normal ``d = w psi'(|vals| / lam) sign(vals)``
    (any one-sided slope at a kink of psi, sign(0) = 0), and Euler's identity
    ``<g, vals> = lam`` fixes the scale: ``g = lam d / <d, vals>``.  Where lam
    sits on a modular jump (psi = inf beyond T and rho stays <= 1 up to
    ``T vals / sup|vals|``, so lam = sup|vals| / T), the ball's face there is
    ``|u_k| <= T`` at an argmax cell k, and g is the sup-norm subgradient
    ``sign(vals_k) / T`` at k, 0 elsewhere.

    For a power psi, psi' is ``psi_slope_many``'s expression written out,
    without its errstate guard: ``coef w |v|^p <= 1`` on every cell at
    ``v = vals / lam``, so ``|v|^(p-1) <= (coef w)^((1-p)/p)`` overflows
    only where ``coef w`` lies below the smallest normal float.
    """
    mags = np.abs(vals)
    if not psi.finite_valued:
        end = float(psi.psi_inverse_many(math.inf))
        k = int(mags.argmax())
        if _modular(widths, end * (mags / mags[k]), psi) <= 1.0:
            g = np.zeros(len(vals))
            g[k] = np.sign(vals[k]) / end
            return g
    u = mags / lam
    if psi.family == "power":  # u ** 1.0 is u: skipped for p = 2
        slopes = psi.coef * psi.p * (u if psi.p == 2.0 else u ** (psi.p - 1.0))
    else:
        slopes = psi.psi_slope_many(u)
    d = widths * slopes * np.sign(vals)
    return (lam / float(np.dot(d, vals))) * d


def _amemiya_subgradient(widths: np.ndarray, vals: np.ndarray,
                         psi: OrliczSpec) -> np.ndarray | None:
    """A subgradient g of the Amemiya norm at the nonzero cell values ``vals``.

    The norm is the infimum over s of the perspective ``(1 + rho(s unit)) / k``,
    k = s / sup|vals|, which is jointly convex in (vals, 1/k); at the minimizing
    s, found here by the norm's own solve, the envelope theorem gives
    ``g = w h sign(vals)`` with h a slope of psi at ``u = s unit`` at which the
    derivative in 1/k, ``1 - (<w h, u> - rho(u))``, vanishes.  For a smooth psi
    h = psi'(u).  Where the solve's root leaves that derivative above 1e-12
    in size, g is None: joint convexity then puts the subgradient inequality
    off by up to that much of the larger norm.  This happens where the root
    lies within rounding of a_psi (shifted_power on a wide support), where
    psi' at the root is resolved to a few bits.  For a piecewise-linear psi,
    s sits at a kink of rho; the slopes inside the segments of rho on either
    side of it bracket that zero (they are read there because ``s unit``
    meets a breakpoint of psi only up to rounding), and h is the convex
    combination that hits it.  Where s sits
    at ``psi^-1(inf) = T`` the constraint ``k |vals_k| <= T`` binds at an
    argmax cell k, and its multiplier ``(1 - <w h, u> + rho(u)) / T`` (left
    slopes) adds to g_k.  Where the infimum is the limit s -> inf, h is psi's
    final slope.
    """
    mags = np.abs(vals)
    top = float(mags.max())
    unit = mags / top
    s = _amemiya(widths, unit, top, psi)[1]
    sign = np.sign(vals)
    if s == math.inf:
        return widths * psi.psi_slope_many(np.full(len(vals), math.inf)) * sign
    u = s * unit
    rho = _modular(widths, u, psi)
    if psi._kinks is None:
        left = right = widths * psi.psi_slope_many(u)
    else:
        end = float(psi.psi_inverse_many(math.inf))
        kinks = (psi._kinks[0] / unit[unit > 0.0, None]).ravel()
        below = kinks[kinks < s].max(initial=0.0)
        above = kinks[kinks > s].min(initial=min(2.0 * s, end))
        left = widths * psi.psi_slope_many(0.5 * (below + s) * unit)
        right = widths * psi.psi_slope_many(0.5 * (s + above) * unit)
    g_left = float(np.dot(left, u)) - rho
    if psi._kinks is None and abs(g_left - 1.0) > 1e-12:
        return None
    g_right = float(np.dot(right, u)) - rho
    if g_right == math.inf:
        g = left * sign
        k = int(unit.argmax())
        g[k] += max(0.0, 1.0 - g_left) / float(psi.psi_inverse_many(math.inf)) * sign[k]
        return g
    t = min(max((1.0 - g_left) / (g_right - g_left), 0.0), 1.0) if g_right > g_left else 0.0
    return (left + t * (right - left)) * sign


def modular(x: StepFunction, psi: OrliczSpec) -> float:
    """``rho_psi(x) = integral psi(x(t)) dt``, exact over the pieces (may be inf)."""
    return _modular(*_cells(x), psi)


def luxemburg_norm(x: StepFunction, psi: OrliczSpec) -> float:
    """``inf { lam > 0 : rho_psi(x / lam) <= 1 }``; 0 for x = 0."""
    return _norm_on_cells(*_cells(x), psi, "luxemburg")


def orlicz_norm(x: StepFunction, psi: OrliczSpec) -> float:
    """Amemiya form ``inf_(k>0) (1 + rho_psi(k x)) / k`` of the Orlicz norm."""
    return _norm_on_cells(*_cells(x), psi, "orlicz")

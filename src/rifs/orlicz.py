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
from .optimize import bisect_level, golden_section_min
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
        except (KeyError, TypeError) as exc:
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

    Luxemburg: ``inf { lam > 0 : rho(x / lam) <= 1 }``, in closed form for the
    power family and otherwise by one bisection in sigma = lam / sup|x| on a
    bracket from psi^-1, to a relative width of 1e-13; exact (a point bracket)
    when |x| takes one value.  At a modular jump (non-finite psi) the upper
    bracket is returned, i.e. the inf over the closed sublevel set.

    Amemiya: ``inf_(k>0) (1 + rho(k x)) / k``.  The objective is unimodal in k
    (rho is convex with rho(0) = 0), so an expanding bracket plus golden
    section converges; tolerance 1e-9.  The search runs in s = k sup|x|, so
    the bracket starts at k = 1 / sup|x| whatever the scale of x, clamped to
    psi's finite domain, s <= psi^-1(inf).
    """
    if flavor == "luxemburg" and psi.family == "power":
        # Inline rather than through psi_many: its errstate guard costs as much
        # as the whole closed form, and hull line searches call this per step.
        total = psi.coef * float(np.dot(widths, mags ** psi.p))
        if _TINY <= total < math.inf:
            return total ** (1.0 / psi.p)
        # |x|^p overflowed or underflowed (or x = 0): rescale by sup|x|.
        if not mags.any():
            return 0.0
        top = float(mags.max())
        total = psi.coef * float(np.dot(widths, (mags / top) ** psi.p))
        return top * total ** (1.0 / psi.p)
    if not mags.any():
        return 0.0
    top = float(mags.max())
    unit = mags / top
    if flavor == "luxemburg":
        # Homogeneity: ||x|| = top * sigma with rho(unit / sigma) = 1.  As
        # w_peak psi(1/sigma) <= rho(unit / sigma) <= w_total psi(1/sigma),
        # sigma lies in [1 / psi^-1(1 / w_peak), 1 / psi^-1(1 / w_total)].
        def rho(sigma: float) -> float:
            return _modular(widths, unit / sigma, psi)

        levels = np.array([1.0 / widths[unit == 1.0].sum(), 1.0 / widths.sum()])
        lo, hi = 1.0 / psi.psi_inverse_many(levels)
        return top * bisect_level(rho, lo, hi)

    def h(s: float) -> float:  # the Amemiya objective at k = s / top, over top
        return (1.0 + _modular(widths, s * unit, psi)) / s

    s_lo = s_hi = min(1.0, float(psi.psi_inverse_many(math.inf)))
    for _ in range(80):
        if h(s_lo / 2.0) >= h(s_lo):
            break
        s_lo /= 2.0
    for _ in range(80):
        if h(s_hi * 2.0) >= h(s_hi):
            break
        s_hi *= 2.0
    _, val = golden_section_min(h, s_lo / 2.0, s_hi * 2.0, tol=1e-9)
    return top * val


def modular(x: StepFunction, psi: OrliczSpec) -> float:
    """``rho_psi(x) = integral psi(x(t)) dt``, exact over the pieces (may be inf)."""
    return _modular(*_cells(x), psi)


def luxemburg_norm(x: StepFunction, psi: OrliczSpec) -> float:
    """``inf { lam > 0 : rho_psi(x / lam) <= 1 }``; 0 for x = 0."""
    # The power closed form tries |x|^p unscaled first; overflow there is
    # expected and handled, so it must not warn.
    with np.errstate(over="ignore"):
        return _norm_on_cells(*_cells(x), psi, "luxemburg")


def orlicz_norm(x: StepFunction, psi: OrliczSpec) -> float:
    """Amemiya form ``inf_(k>0) (1 + rho_psi(k x)) / k`` of the Orlicz norm."""
    return _norm_on_cells(*_cells(x), psi, "orlicz")

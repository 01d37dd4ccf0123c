"""The Lorentz norms over x* and x**, and :class:`SpaceHandle`, with one private
subclass per kind of space (Lorentz, Orlicz) holding its norms and phi.

Both Lorentz norms come from one pass over the pieces of x*.  On each piece
the integrand is ``(B + A/t)^p w(t)``: A = 0, B = 1 over x* (the result is
then scaled by (x*)^p), and over x** the segment of ``x** = B + A/t`` read
from ``maximal_curve``, the only code that derives x**.  Below
``ARRAY_MIN_PIECES`` pieces of x* the pass is the weight algebra's cell walk,
:func:`weights._cell_walk`, which W, W_p and both Lorentz subgradients share:
a closed form per cell where there is one, and one batched quadrature at
relative tolerance 1e-9 per cell for the rest.  From there up
:func:`_lorentz_cells` computes the same cells, to the walk's bits, on the
arrays of x* and of the curve's segments.  Beyond the support the norm over
x** adds the analytic tail ``A^p integral t^(-p) w``, convergent exactly when
the weight lies in D_p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import DivergentIntegralError, SchemaError, require_alpha, require_exponent
from .orlicz import (OrliczSpec, _amemiya_subgradient, _luxemburg_subgradient, _norm_on_cells,
                     _power_luxemburg, luxemburg_norm, orlicz_norm)
from .rearrange import MaximalCurve, maximal_curve, rearrange
from .step import ARRAY_MIN_PIECES, StepFunction, _settle, indicator
from .weights import (_BINOMIAL, WeightPiece, WeightSpec, _cell_walk, _quadrature, exponent_shift,
                      power_log_integral, require_D_p)


def _require_weight_domain(w: WeightSpec, alpha: float) -> None:
    if w.domain_end != alpha:
        raise SchemaError(
            f"weight covers (0, {w.domain_end}) but the space has alpha={alpha}"
        )


def _lorentz_integral(star: StepFunction, w: WeightSpec, p: float, curve: MaximalCurve | None,
                      quadrature: bool = False) -> float:
    """``integral (x*)^p w`` (given x**'s ``curve``, ``integral (x**)^p w``)
    over the support of x*.

    Each piece (t0, t1, v) of x* gives one segment of :func:`weights._cell_walk`:
    over x* (t0, t1) with A = 0, B = 1, its sum scaled by v^p; over x** the
    curve's segment ending at t1, with its A and B, all cells added in order.
    ``quadrature`` sends every cell to quadrature.  From ``ARRAY_MIN_PIECES``
    pieces of x* up, :func:`_lorentz_cells` computes the same cells on arrays.
    """
    if len(star.pieces) >= ARRAY_MIN_PIECES:
        return _lorentz_cells(star, w, p, curve, quadrature)
    total = 0.0
    if curve is None:
        lo, hi, v = zip(*star.pieces)
        for v_k, inc in zip(v, _cell_walk(w, p, 0.0, lo, hi, repeat(0.0), repeat(1.0))[1]):
            if math.isinf(inc):
                raise DivergentIntegralError("weight is not locally integrable near 0")
            total += v_k ** p * inc
        return total
    A, B = zip(*curve.coeffs)
    for part in _cell_walk(w, p, 0.0, curve.breakpoints, curve.breakpoints[1:], A, B, quadrature)[0]:
        total += part
    return total


def _powers(xs: np.ndarray, e: float) -> np.ndarray:
    """``x ** e`` at every x, by CPython's pow, whose last bit numpy's does
    not always match; xs itself for e = 1, where pow returns x."""
    if e == 1:
        return xs
    return np.fromiter(map(pow, xs.tolist(), repeat(e)), float, len(xs))


def _antiderivative(c: float, e: float, ts: np.ndarray) -> np.ndarray:
    """``c t^e / e`` (``log t`` for e = 0) at the ascending points ts, by
    CPython's pow and log; at t = 0 the walk's limit, 0 for e > 0 and -inf
    otherwise."""
    pts = ts.tolist()
    at_zero = pts[:1] == [0.0]
    if at_zero:
        pts = pts[1:]
    if e:
        out = c * np.fromiter(map(pow, pts, repeat(e)), float, len(pts)) / e
    else:
        out = np.fromiter(map(math.log, pts), float, len(pts))
    return np.concatenate(([0.0 if e > 0.0 else -math.inf], out)) if at_zero else out


def _differences(c: float, e: float, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The walk's closed-form term on the ascending cells (lo, hi):
    ``F(hi) - F(lo)`` for ``F = c t^e / e``, and ``c (log hi - log lo)`` for
    e = 0.  F is evaluated once per cut: a cell starting where the one before
    it ends takes that cell's upper value as its lower one."""
    F = _antiderivative(c, e, np.concatenate((lo[:1], hi)))
    diff = F[1:] - F[:-1]
    fresh = (lo[1:] != hi[:-1]).nonzero()[0]
    if len(fresh):
        fresh += 1
        diff[fresh] = F[1:][fresh] - _antiderivative(c, e, lo[fresh])
    return diff if e else c * diff


def _closed_forms(pc: WeightPiece, p: float, expansion: list[tuple[int, int, int]] | None,
                  over_curve: bool, lo: np.ndarray, hi: np.ndarray, A: np.ndarray, B: np.ndarray,
                  part: np.ndarray, left: np.ndarray) -> None:
    """The walk's closed forms on the cells (lo, hi) of the weight piece pc
    with c != 0, written into ``part``; ``left`` comes in as ``A != 0`` and
    keeps the cells that quadrature must take.

    On a log piece a cell with A = 0 is one weight integral.  On a power
    piece a cell with A = 0 is ``B^p (F(hi) - F(lo))``, and for integer p the
    binomial expansion takes the cells with A != 0.  Over x* (not
    ``over_curve``) B^p = 1.0 ** p is 1.0 and is left out, and a log cell
    with an infinite integral ends the pass, as it ends the walk.
    """
    zero = ~left
    if pc.b != 0.0:
        for k in zero.nonzero()[0].tolist():
            part[k] = float(B[k]) ** p * power_log_integral(pc.c, pc.a, pc.b, float(lo[k]), float(hi[k]))
            if not over_curve and math.isinf(part[k]):
                return
        return
    own = None  # F(hi) - F(lo) of exponent a + 1 on the cells with A = 0
    n_left = np.count_nonzero(left)
    if expansion and n_left:
        # The binomial expansion on the cells with A != 0, its terms added in
        # order; each term's differences cover every cell.
        rest = left.nonzero()[0]
        A_r, B_r = A[rest], B[rest]
        total = np.zeros(len(rest))
        for cb, nj, jj in expansion:
            diff = _differences(pc.c, (pc.a - jj) + 1.0, lo, hi)
            if jj == 0:
                own = diff[zero]
            coef = cb * (_powers(B_r, nj) if nj else 1.0) * (_powers(A_r, jj) if jj else 1.0)
            total += coef * diff[rest]
        part[rest] = total
        left[rest] = False
    if n_left < len(left):
        if own is None:
            own = (_differences(pc.c, pc.a + 1.0, lo, hi) if not n_left else
                   _differences(pc.c, pc.a + 1.0, lo[zero], hi[zero]))
        part[zero] = _powers(B[zero], p) * own if over_curve else own


def _lorentz_cells(star: StepFunction, w: WeightSpec, p: float, curve: MaximalCurve | None,
                   quadrature: bool) -> float:
    """The walk of :func:`_lorentz_integral` as one pass over the arrays of
    x*, to the walk's bits.

    The cells on one weight piece are a run of consecutive segments, the first
    and the last clipped to the piece, and run after run they come in the
    walk's order.  Only +, -, * and / run in numpy: each power and log goes
    through CPython's ``pow`` and ``math.log``, and every sum runs in the
    walk's order (``np.cumsum`` is sequential).  The cells left to quadrature
    reach it in the walk's order and number, because its batched sums depend
    on the shape of the batch.
    """
    t0, t1, v = star._columns
    over_curve = curve is not None
    lo, t1, A, B = curve._segments if over_curve else (t0, t1, np.zeros(len(v)), np.ones(len(v)))
    expansion = _BINOMIAL.get(p)
    runs = []  # over x**, per weight piece: its cells, their values, those left to quadrature
    inc = np.zeros(len(v))  # over x*, each segment's cells added up in order
    for pc in w.pieces:
        i0 = int(t1.searchsorted(pc.t0, side="right"))
        i1 = int(lo.searchsorted(pc.t1, side="left"))
        if i0 >= i1:
            continue
        cells = slice(i0, i1)
        cell_lo, cell_hi, cell_A, cell_B = lo[cells], t1[cells], A[cells], B[cells]
        if cell_lo[0] < pc.t0:
            cell_lo = np.concatenate(([pc.t0], cell_lo[1:]))
        if cell_hi[-1] > pc.t1:
            cell_hi = np.concatenate((cell_hi[:-1], [pc.t1]))
        part = np.zeros(i1 - i0)
        if quadrature or pc.c == 0.0:
            left = np.full(i1 - i0, quadrature)
        else:
            left = cell_A != 0.0
            _closed_forms(pc, p, expansion, over_curve, cell_lo, cell_hi, cell_A, cell_B, part, left)
        if over_curve:
            runs.append((cells, cell_lo, cell_hi, part, left, pc))
            continue
        # Over x* no cell is left to quadrature (A = 0), and the walk stops
        # at the first segment whose integral is infinite.
        inc[cells] += part
        if np.isinf(inc[cells]).any():
            raise DivergentIntegralError("weight is not locally integrable near 0")
    if not over_curve:
        return float(np.cumsum(np.concatenate(([0.0], _powers(v, p) * inc)))[-1])
    quad = []  # the cells left to quadrature, run by run: (values, where, columns)
    for cells, cell_lo, cell_hi, part, left, pc in runs:
        n = np.count_nonzero(left)
        if n:
            quad.append((part, left, (cell_lo[left], cell_hi[left], A[cells][left], B[cells][left],
                                      np.full(n, pc.c), np.full(n, pc.a), np.full(n, pc.b))))
    if quad:
        values = _quadrature(p, *map(np.concatenate, zip(*(cols for _, _, cols in quad))))
        at = 0
        for part, left, cols in quad:
            part[left] = values[at:at + len(cols[0])]
            at += len(cols[0])
    parts = np.concatenate([part for _, _, _, part, _, _ in runs])
    return float(np.cumsum(np.concatenate(([0.0], parts)))[-1])


def _gamma_slopes(w: WeightSpec, p: float, m: np.ndarray, widths: np.ndarray,
                  starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """``d integral (x**)^p w / d m_k``, divided by p, for the cells of values
    m > 0 laid out in the order given, cell k on ``(starts[k], ends[k])``.

    On cell k, ``x** = m_k + A_k / t`` with ``A_k`` the mass before it minus
    ``m_k starts[k]``, and raising m_k lifts the mass below t by ``t - starts[k]``
    inside the cell and by ``widths[k]`` after it; beyond the support x** is
    mass / t.  With ``P_k = integral over cell k of (x**)^(p-1) w`` and ``Q_k``
    the same of ``(x**)^(p-1) w / t``, the slope is
    ``P_k - starts[k] Q_k + widths[k] (sum_(j > k) Q_j + mass^(p-1) integral_end t^(-p) w)``.
    The first cell starts at 0, so its Q (often divergent there) is never needed.
    """
    before = np.concatenate(([0.0], np.cumsum(m * widths)))
    lo, hi, A, B = starts.tolist(), ends.tolist(), (before[:-1] - m * starts).tolist(), m.tolist()
    P = np.array(_cell_walk(w, p - 1.0, 0.0, lo, hi, A, B)[1])
    Q = np.array([0.0] + _cell_walk(w, p - 1.0, 1.0, lo[1:], hi[1:], A[1:], B[1:])[1])
    tail = float(before[-1]) ** (p - 1.0) * w.wp_tail_integral(p, float(ends[-1]))
    after = np.concatenate((np.cumsum(Q[::-1])[-2::-1], [0.0])) + tail
    return P - starts * Q + widths * after


def _homogeneous_root(x: StepFunction, p: float, integral) -> float:
    """``integral(x) ** (1/p)`` for a Lorentz integral of x.

    Both Lorentz norms are homogeneous: where (sup|x|)^p overflows a float,
    or the integral of x does, the norm is sup|x| times the one of
    x* / sup|x|.  The first test comes before any integration, so that no
    overflow reaches the batched quadrature.
    """
    star = rearrange(x)
    if not star.pieces:
        return 0.0
    sup = star.pieces[0][2]
    try:
        if math.isfinite(sup ** p):
            total = integral(x)
            if math.isfinite(total):
                return total ** (1.0 / p)
    except OverflowError:
        pass
    unit = _settle([(t0, t1, v / sup) for t0, t1, v in star.pieces], x.alpha, width_tol=0.0)
    return sup * integral(StepFunction(x.alpha, unit)) ** (1.0 / p)


def lambda_norm(x: StepFunction, p: float, w: WeightSpec) -> float:
    """``( integral (x*)^p w )^(1/p)``, exact per piece of x*."""
    require_exponent("lambda_norm", p)
    _require_weight_domain(w, x.alpha)
    return _homogeneous_root(x, p, lambda f: _lorentz_integral(rearrange(f), w, p, None))


def gamma_norm(x: StepFunction, p: float, w: WeightSpec, method: str = "auto") -> float:
    """``( integral (x**)^p w )^(1/p)``; requires w in D_p.

    ``method="quadrature"`` forces the adaptive path on every cell (used to
    cross-check the closed forms); the default is ``"auto"``.
    """
    require_exponent("gamma_norm", p)
    if method not in ("auto", "quadrature"):
        raise SchemaError(f"gamma_norm method must be 'auto' or 'quadrature', got {method!r}")
    _require_weight_domain(w, x.alpha)
    require_D_p(w, p, x.alpha)

    def integral(f: StepFunction) -> float:
        curve = maximal_curve(f)
        # The mass of f* is 0 exactly when every piece's is (they are >= 0).
        if curve.total_integral == 0.0:
            return 0.0
        total = _lorentz_integral(rearrange(f), w, p, curve, quadrature=method == "quadrature")
        # Beyond the support x** = (total mass)/t.
        tail = w.wp_tail_integral(p, curve.breakpoints[-1])
        if math.isinf(tail):
            raise DivergentIntegralError("gamma tail integral diverges (D_p violation)")
        return total + curve.total_integral ** p * tail

    return _homogeneous_root(x, p, integral)


def _phi_over_t_limit(pc: WeightPiece, p: float, at_zero: bool) -> float:
    """The limit of ``(W(t)/t^p)^(1/p)`` at 0, pc the first piece of w, or at
    infinity, pc its tail.  ``t^e``, e = a + 1 - p, decides; at e = 0, where
    a + 1 = p > 0 and ``W(t) = c t^p log(e+t)^b / (a+1) (1 + o(1))``, the log
    factor does, and it tends to 1 at 0.  At infinity a <= -1 leaves W
    bounded or a log power, and at 0 it makes W infinite: e < 0 gives both."""
    e, b = exponent_shift(pc.a, p) + 1.0, pc.b
    if at_zero:
        e, b = -e, 0.0
    if pc.c == 0.0 or e < 0.0 or (e == 0.0 and b < 0.0):
        return 0.0
    if e > 0.0 or b > 0.0:
        return math.inf
    return (pc.c / (pc.a + 1.0)) ** (1.0 / p)


@dataclass(frozen=True)
class SpaceHandle:
    """A space on (0, alpha); a private subclass per kind carries its behaviour."""

    alpha: float

    def __post_init__(self):
        require_alpha(self.alpha)

    @classmethod
    def lorentz_lambda(cls, p: float, w: WeightSpec, alpha: float = math.inf) -> "SpaceHandle":
        require_exponent("lorentz_lambda", p)
        _require_weight_domain(w, alpha)
        return _Lorentz(float(alpha), float(p), w, over_curve=False)

    @classmethod
    def lorentz_gamma(cls, p: float, w: WeightSpec, alpha: float = math.inf) -> "SpaceHandle":
        require_exponent("lorentz_gamma", p)
        _require_weight_domain(w, alpha)
        require_D_p(w, p, alpha)
        return _Lorentz(float(alpha), float(p), w, over_curve=True)

    @classmethod
    def orlicz_space(cls, psi: OrliczSpec, flavor: str = "luxemburg",
                     alpha: float = math.inf) -> "SpaceHandle":
        if flavor not in ("luxemburg", "orlicz"):
            raise SchemaError("Orlicz flavor must be 'luxemburg' or 'orlicz'")
        return _Orlicz(float(alpha), psi, flavor)

    def _cell_kernels(self, lo: np.ndarray, hi: np.ndarray):
        """``(norm, subgradient, gram)`` bound once to a table of cells, for
        the function f with value ``vals[k]`` on the cell ``(lo[k], hi[k])``.
        ``norm`` maps vals to ||f||; ``subgradient`` maps ``(vals, ||f||)`` to
        a subgradient g of the norm at f, ``||u|| >= ||f|| + <g, u - vals>``
        for every u (None where the space has none); ``gram`` holds the
        weights w with ``||f||^2 = sum_k w_k vals[k]^2`` where the norm is a
        Hilbert norm, and is None elsewhere.  Each kind supplies its own."""
        raise NotImplementedError

    def _json(self, kind: str, **rest) -> dict:
        return {"kind": kind, "alpha": "inf" if math.isinf(self.alpha) else "1", **rest}

    @classmethod
    def from_json(cls, obj: dict) -> "SpaceHandle":
        try:
            kind = obj["kind"]
            alpha = math.inf if obj.get("alpha", "inf") == "inf" else float(obj["alpha"])
            if kind in ("lorentz_lambda", "lorentz_gamma"):
                return getattr(cls, kind)(obj["p"], WeightSpec.from_json(obj["weight"]), alpha)
            if kind == "orlicz":
                return cls.orlicz_space(OrliczSpec.from_json(obj["orlicz"]),
                                        obj.get("flavor", "luxemburg"), alpha)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise SchemaError(f"bad space JSON: {exc}") from exc
        raise SchemaError(f"unknown space kind {kind!r}")


@dataclass(frozen=True)
class _Lorentz(SpaceHandle):
    """Lambda (over x*) or, with ``over_curve``, Gamma (over x**, w in D_p)."""

    p: float
    weight: WeightSpec
    over_curve: bool

    def _norm(self, x: StepFunction) -> float:
        return (gamma_norm if self.over_curve else lambda_norm)(x, self.p, self.weight)

    def _cell_kernels(self, lo: np.ndarray, hi: np.ndarray):
        """The norm on the cells (:meth:`SpaceHandle._cell_kernels`) goes
        through the step function with value ``vals[k]`` on cell k.  The
        subgradient is None where the norm is not known to be convex: p < 1,
        and Lambda over a weight that ``WeightSpec.nonincreasing`` does not
        confirm (Lambda is a norm exactly for a nonincreasing weight).  No
        Gram weights: the hull takes Lambda and Gamma as kinked
        (:attr:`_kinked`), not as Hilbert norms, even at a constant weight
        where Lambda_2 is L2.

        For the subgradient the cells are laid out as x* in a stable
        descending order of |vals|, cell k from ``tau_k`` on.  Read in that
        order, the function's x* and x** are a convex minorant of the norm,
        differentiable in |vals| and touching it at vals (at ties any such
        order does), so their gradient, with sign(0) = 0, is a subgradient.
        Lambda: ``g_k = N^(1-p) |v_k|^(p-1) sign(v_k) (W(tau_k + w_k) - W(tau_k))``;
        Gamma: ``g_k = N^(1-p) sign(v_k)`` times :func:`_gamma_slopes`.
        """
        cells = list(zip(lo.tolist(), hi.tolist()))

        def norm_of(vals: np.ndarray) -> float:
            return norm(self, StepFunction(self.alpha, tuple(
                (a, b, v) for (a, b), v in zip(cells, vals.tolist()) if v != 0.0)))

        p, w, over_curve = self.p, self.weight, self.over_curve
        if p < 1.0 or not (over_curve or w.nonincreasing()):
            return norm_of, None, None
        widths = hi - lo

        def subgradient(vals: np.ndarray, value: float) -> np.ndarray:
            mags = np.abs(vals)
            order = np.argsort(-mags, kind="stable")
            order = order[mags[order] > 0.0]
            m, wd = mags[order], widths[order]
            ends = np.cumsum(wd)
            starts = np.concatenate(([0.0], ends[:-1]))
            if over_curve:
                slopes = _gamma_slopes(w, p, m, wd, starts, ends)
            else:
                slopes = m ** (p - 1.0) * np.array(_cell_walk(
                    w, 0.0, 0.0, starts.tolist(), ends.tolist(), repeat(0.0), repeat(1.0))[1])
            g = np.zeros(len(vals))
            g[order] = value ** (1.0 - p) * slopes * np.sign(vals[order])
            return g

        return norm_of, subgradient, None

    # x* reorders the cells where two values of |f| tie, so both norms have
    # kinks there.
    _kinked = True

    def _phi(self, t: float) -> float:
        w = self.weight
        return (w.W(t) + w.Wp(self.p, t) if self.over_curve else w.W(t)) ** (1.0 / self.p)

    def _phi_infinity(self) -> float:
        winf = self.weight.W_infinity()
        return math.inf if math.isinf(winf) else winf ** (1.0 / self.p)

    def _l1_limit(self) -> float:
        # d = 0 over x**: under D_p, W(t)/t^p and W_p(t)/t^p vanish at infinity.
        # Over x*, phi(t)/t = (W(t)/t^p)^(1/p), and d is the smaller of its
        # limits at 0 and at infinity.
        if self.over_curve:
            return 0.0
        w, p = self.weight, self.p
        return min(_phi_over_t_limit(w.pieces[0], p, True), _phi_over_t_limit(w.tail, p, False))

    def describe(self) -> str:
        return f"{'Gamma' if self.over_curve else 'Lambda'}(p={self.p})"

    def to_json(self) -> dict:
        return self._json("lorentz_gamma" if self.over_curve else "lorentz_lambda",
                          p=self.p, weight=self.weight.to_json())


@dataclass(frozen=True)
class _Orlicz(SpaceHandle):
    """Orlicz space with the Luxemburg or (``flavor="orlicz"``) Amemiya norm."""

    orlicz: OrliczSpec
    flavor: str

    def _norm(self, x: StepFunction) -> float:
        return (luxemburg_norm if self.flavor == "luxemburg" else orlicz_norm)(x, self.orlicz)

    def _cell_kernels(self, lo: np.ndarray, hi: np.ndarray):
        """The norm, subgradient and Gram weights on the cells
        (:meth:`SpaceHandle._cell_kernels`), on the widths ``hi - lo``.

        The Luxemburg norm of a power psi is its closed form bound to the
        widths (:func:`orlicz._power_luxemburg`), every other norm
        :func:`orlicz._norm_on_cells`.  The subgradient is
        :func:`orlicz._luxemburg_subgradient` or
        :func:`orlicz._amemiya_subgradient`, whose None, for the Amemiya norm
        of a smooth psi, marks a solve that ends off the stationary point.
        The norm is a Hilbert norm for a power psi with p = 2, with the
        weights ``coef`` times the widths (Luxemburg) and 4 ``coef`` times
        them (Amemiya, twice the Luxemburg norm)."""
        widths, psi, flavor = hi - lo, self.orlicz, self.flavor
        luxemburg, power = flavor == "luxemburg", psi.family == "power"
        norm_of = (_power_luxemburg(widths, psi.coef, psi.p) if luxemburg and power else
                   lambda vals: _norm_on_cells(widths, np.abs(vals), psi, flavor))
        subgradient = ((lambda vals, value: _luxemburg_subgradient(widths, vals, value, psi))
                       if luxemburg else lambda vals, value: _amemiya_subgradient(widths, vals, psi))
        gram = ((psi.coef if luxemburg else 4.0 * psi.coef) * widths
                if power and psi.p == 2.0 else None)
        return norm_of, subgradient, gram

    @property
    def _kinked(self) -> bool:
        """Whether psi has a kink, and so both norms: at 0 (psi'(0) > 0, as
        for exp - 1 and power p = 1) or beyond it (a piecewise-linear psi:
        a table, or shifted_power with p = 1)."""
        return self.orlicz.slope_at_zero > 0.0 or self.orlicz._kinks is not None

    def _phi(self, t: float) -> float:
        return norm(self, indicator(0.0, t, 1.0, self.alpha))

    def _phi_infinity(self) -> float:
        a = float(self.orlicz.psi_inverse_many(0.0))  # a_psi
        # Both flavors tend to 1/a_psi: the Amemiya phi(t) <= 1/a_psi at k = a_psi
        # (Bennett-Sharpley, Interpolation of Operators, 1988, Ch. 4 Sec. 8).
        return math.inf if a == 0.0 else 1.0 / a

    def _l1_limit(self) -> float:
        # d equals lim_{s->0} psi(s)/s through s = psi^{-1}(1/t); the Amemiya
        # flavor is sandwiched in [d, 2d] and has the same sign.
        return self.orlicz.slope_at_zero

    def describe(self) -> str:
        return f"Orlicz({self.orlicz.family}, {self.flavor})"

    def to_json(self) -> dict:
        return self._json("orlicz", orlicz=self.orlicz.to_json(), flavor=self.flavor)


def norm(space: SpaceHandle, x: StepFunction) -> float:
    """Evaluate ``||x||`` in the given space."""
    if x.alpha != space.alpha:
        raise SchemaError("function and space live on different domains")
    return space._norm(x)


def fundamental_function(space: SpaceHandle, t: float) -> float:
    """``phi(t) = || chi_(0,t) ||``; analytic identities where available.

    For the x**-based Lorentz space this is ``(W(t) + W_p(t))^(1/p)``, for the
    x*-based one ``W(t)^(1/p)``; Orlicz spaces go through the norm evaluators.
    """
    if not (0.0 < t < space.alpha) and not (t == space.alpha == 1.0):
        raise SchemaError(f"fundamental_function needs 0 < t < alpha, got {t}")
    return space._phi(t)

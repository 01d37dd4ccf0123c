"""The Lorentz norms over x* and x**, and :class:`SpaceHandle`, with one private
subclass per kind of space (Lorentz, Orlicz) holding its norms and phi.

Both Lorentz norms come from one pass over the pieces of x* and the weight
pieces.  On each piece of x* the integrand is ``(B + A/t)^p w(t)``: A = 0,
B = 1 over x* (the result is then scaled by (x*)^p), and over x** the
segment of ``x** = B + A/t`` read from ``maximal_curve``, the only code that
derives x**.  A piece is cut into cells at the weight-piece starts inside it.
On a pure-power weight piece a cell is exact when A = 0, or for integer p up
to 12 through the binomial expansion; each antiderivative ``c t^e / e``
(``c log t`` for e = 0) is evaluated once per cut and is the next cell's
lower value.  A log piece with A = 0 is one ``power_log_integral`` call.
Every other cell goes to one batched ``integrate_cells`` call at relative
tolerance 1e-9 per cell.  Below ``ARRAY_MIN_PIECES`` pieces of x* the pass is
a forward walk over lists; from there up it runs on the arrays of x*, weight
piece by weight piece, with the walk's bits (over x**, on the segment
arrays the curve keeps from the same size up): numpy does only +, -, * and
/, and every power and log is CPython's.  Beyond the support the norm over x**
adds the analytic tail ``A^p integral t^(-p) w``, convergent exactly when
the weight lies in D_p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import DivergentIntegralError, SchemaError, require_alpha, require_exponent
from .orlicz import OrliczSpec, _norm_on_cells, luxemburg_norm, orlicz_norm
from .quadrature import integrate_cells
from .rearrange import MaximalCurve, maximal_curve, rearrange
from .step import ARRAY_MIN_PIECES, StepFunction, _settle, indicator
from .weights import (WeightPiece, WeightSpec, exponent_shift, power_log_integral,
                      require_D_p, tail_integral_diverges)

GAMMA_REL_TOL = 1e-9
# The terms (C(n, j), n - j, j) of the binomial expansion of (B + A/t)^n for
# each integer exponent n up to 12, those taken in closed form.
_BINOMIAL = {n: [(math.comb(n, j), n - j, j) for j in range(n + 1)] for n in range(1, 13)}


def _require_weight_domain(w: WeightSpec, alpha: float) -> None:
    if w.domain_end != alpha:
        raise SchemaError(
            f"weight covers (0, {w.domain_end}) but the space has alpha={alpha}"
        )


def _lorentz_integral(star: StepFunction, w: WeightSpec, p: float, curve: MaximalCurve | None,
                      quadrature: bool = False) -> float:
    """``integral (x*)^p w`` (given x**'s ``curve``, ``integral (x**)^p w``)
    over the support of x*.

    Each piece (t0, t1, v) of x* gives one segment where the integrand is
    ``(B + A/t)^p w(t)``.  Over x* the segment is (t0, t1) with A = 0, B = 1,
    and the integrals of its cells add up to its weight integral, scaled by
    v^p.  Over x** it is the curve's segment ending at t1, with its A and B,
    and all cells add up in order.  ``quadrature`` sends every cell to
    quadrature.  From ``ARRAY_MIN_PIECES`` pieces of x* up, where the curve
    keeps its segments as arrays, :func:`_lorentz_cells` computes the same
    cells on arrays.
    """
    if len(star.pieces) >= ARRAY_MIN_PIECES:
        return _lorentz_cells(star, w, p, curve, quadrature)
    over_curve = curve is not None
    expansion = _BINOMIAL.get(p)
    pieces = iter(w.pieces)
    nxt = 0.0  # end of the current weight piece
    # On a pure-power weight piece, ``low`` holds the antiderivative terms at
    # the cut ``at``: c t^e / e for the exponent e = a - j + 1 of each term j
    # used (log t where e = 0; its differences are scaled by c).  A cell
    # computes them at its upper end, which is the next cell's lower end.
    at = low = None
    total = 0.0
    parts: list[float] = []  # the cells over x**, in order
    quad = []  # (index in parts, lo, hi, A, B, c, a, b) of each cell left to quadrature
    for k, (t0, t1, v) in enumerate(star.pieces):
        lo, (A, B) = (curve.breakpoints[k], curve.coeffs[k]) if over_curve else (t0, (0.0, 1.0))
        inc = 0.0
        while True:
            while nxt <= lo:
                pc = next(pieces)
                nxt, c = pc.t1, pc.c
                exact = not quadrature and c != 0.0 and pc.b == 0.0  # closed forms apply
                e0, terms = pc.a + 1.0, None
                at = None
            hi = nxt if nxt < t1 else t1
            if exact and A == 0.0:
                if at == lo:
                    bottom = low[0]
                elif lo == 0.0:  # the limit at 0
                    bottom = 0.0 if e0 > 0.0 else -math.inf
                else:
                    bottom = c * lo ** e0 / e0 if e0 else math.log(lo)
                u = c * hi ** e0 / e0 if e0 else math.log(hi)
                part = B ** p * (u - bottom if e0 else c * (u - bottom))
                at, low = hi, [u]
            elif exact and expansion:
                if terms is None:
                    terms = [(cb, nj, j, (pc.a - j) + 1.0) for cb, nj, j in expansion]
                if at != lo or len(low) < len(terms):
                    low = ([0.0 if e > 0.0 else -math.inf for _, _, _, e in terms]
                           if lo == 0.0 else
                           [c * lo ** e / e if e else math.log(lo) for _, _, _, e in terms])
                part = 0.0
                high = []
                for cb, nj, j, e in terms:
                    coef = cb * B ** nj * A ** j
                    if e:
                        u = c * hi ** e / e
                        part += coef * (u - low[j])
                    else:
                        u = math.log(hi)
                        part += coef * (c * (u - low[j]))
                    high.append(u)
                at, low = hi, high
            elif not quadrature and c == 0.0:
                part = 0.0
            elif not quadrature and A == 0.0:  # a log piece
                part = B ** p * power_log_integral(c, pc.a, pc.b, lo, hi)
            else:
                quad.append((len(parts), lo, hi, A, B, c, pc.a, pc.b))
                part = 0.0
            if over_curve:
                parts.append(part)
            else:
                inc += part
            if hi == t1:
                break
            lo = hi
        if not over_curve:
            if math.isinf(inc):
                raise DivergentIntegralError("weight is not locally integrable near 0")
            total += v ** p * inc
    if quad:
        idx, *cols = zip(*quad)
        for i, part in zip(idx, _quadrature(p, *(np.array(col) for col in cols)).tolist()):
            parts[i] = part
    for part in parts:
        total += part
    return total


def _quadrature(p: float, lo: np.ndarray, hi: np.ndarray, A: np.ndarray, B: np.ndarray,
                c: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The integrals of ``(B + A/t)^p c t^a log(e+t)^b`` over the cells
    (lo, hi), in one batched call.  Where every b is 0 the log factor is left
    out, which changes no bit: its power is exactly 1."""
    if b.any():
        def f(ts: np.ndarray, k: np.ndarray) -> np.ndarray:
            return (B[k] + A[k] / ts) ** p * c[k] * ts ** a[k] * np.log(np.e + ts) ** b[k]
    else:
        def f(ts: np.ndarray, k: np.ndarray) -> np.ndarray:
            return (B[k] + A[k] / ts) ** p * c[k] * ts ** a[k]
    return integrate_cells(f, lo, hi, rel_tol=GAMMA_REL_TOL)


def _powers(xs: np.ndarray, e: float) -> np.ndarray:
    """``x ** e`` at every x, by CPython's pow, whose last bit numpy's does
    not always match."""
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


def _homogeneous_root(x: StepFunction, p: float, integral) -> float:
    """``integral(x) ** (1/p)`` for a Lorentz integral of x.

    Both Lorentz norms are homogeneous: where (sup|x|)^p overflows a float,
    or the integral of x does, the norm is sup|x| times the one of
    x* / sup|x|.  The first test comes before any integration, so that no
    overflow reaches the batched quadrature.
    """
    star = rearrange(x)
    sup = star.pieces[0][2] if star.pieces else 0.0
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

    def _cell_norm(self, lo: np.ndarray, hi: np.ndarray):
        cells = list(zip(lo.tolist(), hi.tolist()))  # vals -> norm of the step function formed
        return lambda vals: norm(self, StepFunction(self.alpha, tuple(
            (a, b, v) for (a, b), v in zip(cells, vals.tolist()) if v != 0.0)))

    def _phi(self, t: float) -> float:
        w = self.weight
        return (w.W(t) + w.Wp(self.p, t) if self.over_curve else w.W(t)) ** (1.0 / self.p)

    def _phi_infinity(self) -> float:
        winf = self.weight.W_infinity()
        return math.inf if math.isinf(winf) else winf ** (1.0 / self.p)

    def _l1_limit(self) -> float:
        # d = 0 over x**: under D_p, W(t)/t^p and W_p(t)/t^p vanish at infinity.
        # Over x*, d^p = lim W(t)/t^p from the tail exponents.
        tail = self.weight.tail
        if self.over_curve or tail.c == 0.0 or not tail_integral_diverges(tail.a, tail.b):
            return 0.0
        exp = exponent_shift(tail.a, self.p) + 1.0
        if exp > 0.0 or (exp == 0.0 and tail.b > 0.0):
            return math.inf
        if exp == 0.0 and tail.b == 0.0:
            return (tail.c / (tail.a + 1.0)) ** (1.0 / self.p)
        return 0.0

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

    def _cell_norm(self, lo: np.ndarray, hi: np.ndarray):
        widths, psi, flavor = hi - lo, self.orlicz, self.flavor
        return lambda vals: _norm_on_cells(widths, np.abs(vals), psi, flavor)

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

"""Symbolic weight algebra: finitely many pieces of the form
``c * t^a * log(e + t)^b`` partitioning ``(0, alpha)``.

Restricting weights to power-log pieces keeps every integral either in closed
form (b = 0) or decidable: divergence of improper integrals is settled by the
piece exponents, never by numeric integration.  Numeric quadrature is used
only to evaluate convergent b != 0 integrals, and :func:`power_log_integral`
maps their singular ends away first: a tail [s, inf) through t = s e^(w/q),
q > 0 its decay exponent, to the exp-sinh rule, and a piece from 0 with
a < 0 through t = hi u^(1/(a+1)) to a bounded integrand on [0, 1].  Each
leaves c times a factor outside the quadrature, so its relative error does
not depend on c.

W, W_inf, the W_p tails and the Lorentz list pass and subgradients take their
integrals through one pointer walk over ascending segments, :func:`_cell_walk`:
a closed form per cell where there is one, one batched quadrature for the rest.

Divergence rules for a tail piece ``c * t^a * log(e+t)^b`` (c > 0):
  * integral to infinity diverges  iff  a > -1, or a = -1 and b >= -1;
  * integral from 0 diverges       iff  a <= -1  (the log factor tends to 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import SchemaError, WeightDomainError, require_exponent
from .quadrature import integrate, integrate_cells, integrate_to_infinity

_EDGE_TOL = 1e-12
# Relative tolerance of the quadrature behind every b != 0 piece integral.
_REL_TOL = 1e-10
# The terms (C(n, j), n - j, j) of the binomial expansion of (B + A/t)^n for
# each integer exponent n up to 12, those taken in closed form.
_BINOMIAL = {n: [(math.comb(n, j), n - j, j) for j in range(n + 1)] for n in range(1, 13)}


def tail_integral_diverges(a: float, b: float) -> bool:
    """Does ``integral^inf t^a log(e+t)^b dt`` diverge?"""
    return a > -1.0 or (a == -1.0 and b >= -1.0)


def origin_integral_diverges(a: float) -> bool:
    """Does ``integral_0 t^a log(e+t)^b dt`` diverge?  (b is irrelevant at 0.)"""
    return a <= -1.0


def exponent_shift(a: float, p: float) -> float:
    """The exponent ``a - p`` of ``t^a t^(-p)``.

    Divergence switches at the integer -1, where float subtraction can land an
    ulp off: ``1.14 - 2.14`` is -1.0000000000000002.  The binary a and p each
    lie within half an ulp of the decimals they print as, so where the float
    difference lies within two ulps of the larger operand of an integer
    without being one, it is taken as the exact difference of those decimals.
    """
    d = a - p
    if 0.0 < min(d % 1.0, -d % 1.0) <= 2.0 * math.ulp(max(abs(a), abs(p))):
        return float(Fraction(repr(float(a))) - Fraction(repr(float(p))))
    return d


def _power_integral(c: float, e: float, lo: float, hi: float) -> float:
    """``integral_lo^hi c t^(e-1) dt`` from the antiderivative ``c t^e / e``
    (``c log t`` for e = 0), taken as its limit at lo = 0; hi may be inf if e < 0."""
    if lo == 0.0:
        low = 0.0 if e > 0.0 else -math.inf
    else:
        low = c * lo ** e / e if e else math.log(lo)
    return c * hi ** e / e - low if e else c * (math.log(hi) - low)


def power_log_integral(c: float, a: float, b: float, lo: float, hi: float) -> float:
    """``integral_lo^hi c t^a log(e+t)^b dt``; hi may be inf.  Returns inf on divergence."""
    if c == 0.0 or hi <= lo:
        return 0.0
    if lo == 0.0 and origin_integral_diverges(a):
        return math.inf
    if math.isinf(hi) and tail_integral_diverges(a, b):
        return math.inf
    if b == 0.0:
        return _power_integral(c, a + 1.0, lo, hi)

    if math.isinf(hi):
        # t = lo e^(w/q) with q the decay exponent, log(e + t) taken in logs.
        q = 1.0 if a == -1.0 else -(a + 1.0)
        shift = math.log(lo)

        def log_e_plus_t(ws: np.ndarray) -> np.ndarray:
            return np.logaddexp(1.0, shift + ws / q)

        if a == -1.0:
            # b < -1 here.  Split 1/t = 1/(e+t) + e/(t(e+t)): the first term is
            # the closed form in z = log(e+t), and the second becomes
            # log(e+t)^b e/(e+t) dw.
            z0 = math.log(math.e + lo)
            leading = z0 ** (b + 1.0) / (-(b + 1.0))

            def remainder(ws: np.ndarray) -> np.ndarray:
                z = log_e_plus_t(ws)
                return np.exp(b * np.log(z) + 1.0 - z)

            return c * (leading + integrate_to_infinity(remainder, rel_tol=_REL_TOL))

        # c t^a dt = c lo^(a+1)/q e^-w dw.
        def tail(ws: np.ndarray) -> np.ndarray:
            return np.exp(b * np.log(log_e_plus_t(ws)) - ws)

        return c * lo ** (a + 1.0) / q * integrate_to_infinity(tail, rel_tol=_REL_TOL)

    if lo == 0.0 and a < 0.0:
        # t = hi u^(1/(a+1)) turns c t^a dt into c hi^(a+1)/(a+1) du and leaves
        # a bounded integrand on [0, 1].
        r = 1.0 / (a + 1.0)

        def head(us: np.ndarray) -> np.ndarray:
            return np.log(np.e + hi * us ** r) ** b

        return c * hi ** (a + 1.0) / (a + 1.0) * integrate(head, 0.0, 1.0, rel_tol=_REL_TOL)

    def f(ts: np.ndarray) -> np.ndarray:
        return c * ts ** a * np.log(np.e + ts) ** b

    return integrate(f, lo, hi, rel_tol=_REL_TOL)


def _cell_integral(c: float, a: float, b: float, lo: float, hi: float, A: float, B: float,
                   p: float, expansion: list[tuple[int, int, int]] | None) -> float | None:
    """``integral_lo^hi (B + A/t)^p c t^a log(e+t)^b dt`` in closed form, or
    None where quadrature must take it.  With A = 0 (or p = 0) it is B^p
    times the weight integral; on a power piece (b = 0) with A != 0, the sum
    of the binomial expansion's terms for integer p up to 12."""
    if c == 0.0:
        return 0.0
    if A == 0.0 or p == 0.0:
        if b == 0.0:
            return B ** p * _power_integral(c, a + 1.0, lo, hi)
        return B ** p * power_log_integral(c, a, b, lo, hi)
    if b == 0.0 and expansion:
        part = 0.0
        for cb, nj, j in expansion:
            part += cb * B ** nj * A ** j * _power_integral(c, (a - j) + 1.0, lo, hi)
        return part
    return None


def _shared(v: np.ndarray, exponent: bool) -> float | np.ndarray:
    """v's one value where every cell shares it, else v.  A shared exponent
    -1, 0.5 or 2 stays an array: numpy takes those scalar powers by
    reciprocal, sqrt and square, whose last bit its array pow does not always
    match."""
    one = float(v[0])
    if (v == one).all() and not (exponent and one in (-1.0, 0.5, 2.0)):
        return one
    return v


def _quadrature(p: float, lo: np.ndarray, hi: np.ndarray, A: np.ndarray, B: np.ndarray,
                c: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The integrals of ``(B + A/t)^p c t^a log(e+t)^b`` over the cells
    (lo, hi), in one batched call at relative tolerance 1e-9 per cell; where
    every b is 0 the log factor, whose power is exactly 1, is left out.  A c,
    a or b that every cell shares enters as a scalar (see :func:`_shared`),
    which spares a gather per level and, for an exponent 1, a pow."""
    logs = b.any()
    c, a, b = _shared(c, False), _shared(a, True), _shared(b, True)

    def at(v: float | np.ndarray, k: np.ndarray) -> float | np.ndarray:
        return v[k] if isinstance(v, np.ndarray) else v

    if logs:
        def f(ts: np.ndarray, k: np.ndarray) -> np.ndarray:
            return (B[k] + A[k] / ts) ** p * at(c, k) * ts ** at(a, k) * np.log(np.e + ts) ** at(b, k)
    else:
        def f(ts: np.ndarray, k: np.ndarray) -> np.ndarray:
            return (B[k] + A[k] / ts) ** p * at(c, k) * ts ** at(a, k)
    return integrate_cells(f, lo, hi, rel_tol=1e-9)


def _cell_walk(w: WeightSpec, q: float, shift: float, lo: Iterable[float], hi: Iterable[float],
               A: Iterable[float], B: Iterable[float], quadrature: bool = False) -> tuple[list, list]:
    """The integrals of ``(B_k + A_k/t)^q t^(-shift) w(t)`` over the cells of
    each segment (lo_k, hi_k), clipped to w's domain, in order, and each
    segment's sum.  The weight-piece starts cut a segment into cells; the
    segments ascend, so the piece pointer only moves forward and n segments
    over m pieces cost O(n + m).  A cell takes :func:`_cell_integral` where it
    has a closed form.  The rest, or every cell with ``quadrature``, share one
    :func:`_quadrature` call, whose values go into the cells in place and are
    added to their segment after its closed forms.  A segment ends at a cell
    that makes its sum infinite."""
    expansion = _BINOMIAL.get(q)
    end, inf = w.domain_end, math.inf
    pieces = iter(w.pieces)
    nxt = 0.0  # end of the current weight piece
    cells: list[float] = []
    sums: list[float] = []
    quad = []  # (cell, segment, lo, hi, A, B, c, a, b) of each cell left to quadrature
    for t0, t1, a_k, b_k in zip(lo, hi, A, B):
        if t1 > end:
            t1 = end
        total = 0.0
        while t0 < t1 and total != inf:
            while nxt <= t0:
                pc = next(pieces)
                nxt = pc.t1
            e = exponent_shift(pc.a, shift) if shift else pc.a
            cut = nxt if nxt < t1 else t1
            part = None if quadrature else _cell_integral(pc.c, e, pc.b, t0, cut, a_k, b_k, q, expansion)
            if part is None:
                quad.append((len(cells), len(sums), t0, cut, a_k, b_k, pc.c, e, pc.b))
                part = 0.0
            cells.append(part)
            total += part
            t0 = cut
        sums.append(total)
    if quad:
        idx, seg, *cols = zip(*quad)
        for i, k, part in zip(idx, seg, _quadrature(q, *map(np.array, cols)).tolist()):
            cells[i] = part
            sums[k] += part
    return cells, sums


@dataclass(frozen=True)
class WeightPiece:
    t0: float
    t1: float  # may be inf on the last piece
    c: float
    a: float
    b: float


@dataclass(frozen=True)
class WeightSpec:
    """Nonnegative weight assembled from power-log pieces partitioning (0, end)."""

    pieces: tuple[WeightPiece, ...]

    @classmethod
    def make(cls, pieces: Iterable[Sequence[float]]) -> "WeightSpec":
        built = []
        cursor = 0.0
        for t0, t1, c, a, b in pieces:
            t0, c, a, b = float(t0), float(c), float(a), float(b)
            t1 = math.inf if t1 in ("inf", math.inf) else float(t1)
            if not abs(t0 - cursor) <= _EDGE_TOL * max(1.0, cursor):
                raise SchemaError("weight pieces must partition (0, end) contiguously")
            if not t0 < t1:
                raise SchemaError("weight piece must have t1 > t0")
            if not 0 <= c < math.inf:
                raise SchemaError("weight pieces need a finite c >= 0")
            if not (math.isfinite(a) and math.isfinite(b)):
                raise SchemaError("weight exponents a and b must be finite")
            built.append(WeightPiece(cursor, t1, c, a, b))
            cursor = t1
        if not built:
            raise SchemaError("weight needs at least one piece")
        return cls(tuple(built))

    @classmethod
    def constant(cls, c: float = 1.0, end: float = math.inf) -> "WeightSpec":
        return cls.make([(0.0, end, c, 0.0, 0.0)])

    @classmethod
    def power(cls, a: float, c: float = 1.0, end: float = math.inf) -> "WeightSpec":
        return cls.make([(0.0, end, c, a, 0.0)])

    @property
    def domain_end(self) -> float:
        return self.pieces[-1].t1

    @property
    def tail(self) -> WeightPiece:
        return self.pieces[-1]

    def value(self, t: float) -> float:
        if math.isnan(t):
            raise SchemaError("weight value needs a point t, got nan")
        for p in self.pieces:
            if p.t0 <= t < p.t1:
                return p.c * t ** p.a * math.log(math.e + t) ** p.b
        return 0.0

    def values(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        if np.isnan(ts).any():
            raise SchemaError("weight values need points t, got nan")
        out = np.zeros_like(ts)
        for p in self.pieces:
            mask = (ts >= p.t0) & (ts < p.t1)
            if mask.any():
                tm = ts[mask]
                out[mask] = p.c * tm ** p.a * np.log(np.e + tm) ** p.b
        return out

    def integral(self, lo: float, hi: float, p: float = 0.0) -> float:
        """``integral_lo^hi t^(-p) w(t) dt``, hi clipped to the domain end: 0.0
        for lo >= hi, inf when it diverges."""
        if math.isnan(lo) or math.isnan(hi):
            raise SchemaError("weight integral needs points lo and hi, got nan")
        if not math.isfinite(p):
            raise SchemaError(f"weight integral needs a finite exponent p, got {p}")
        return _cell_walk(self, 0.0, p, (lo,), (hi,), (0.0,), (1.0,))[1][0]

    def W(self, t: float) -> float:
        """``W(t) = integral_0^t w`` for 0 < t <= domain end; inf when w is not
        integrable at 0."""
        if not (0.0 < t <= self.domain_end):
            raise SchemaError(f"t={t} outside weight domain (0, {self.domain_end}]")
        return self.integral(0.0, t)

    def W_infinity(self) -> float:
        return self.integral(0.0, self.domain_end)

    def wp_tail_integral(self, p_exp: float, s: float) -> float:
        """``integral_s^end t^(-p) w(t) dt``; inf when the tail diverges."""
        return self.integral(s, self.domain_end, p_exp)

    def Wp(self, p_exp: float, s: float) -> float:
        """``W_p(s) = s^p * integral_s^end t^(-p) w`` for 0 < s < domain end
        (or s = end = 1); inf when divergent."""
        require_exponent("WeightSpec.Wp", p_exp)
        if not (0.0 < s < self.domain_end) and not (s == self.domain_end == 1.0):
            raise SchemaError(f"s={s} outside weight domain (0, {self.domain_end})")
        tail = self.wp_tail_integral(p_exp, s)
        return math.inf if math.isinf(tail) else s ** p_exp * tail

    def origin_wp_diverges(self, p_exp: float) -> bool:
        """Is ``integral_0^t w(s) s^(-p) ds`` infinite for every t > 0?"""
        first = self.pieces[0]
        return first.c > 0 and origin_integral_diverges(exponent_shift(first.a, p_exp))

    def nonincreasing(self) -> bool:
        """Is w known to be nonincreasing on its domain?  A piece
        ``c t^a log(e+t)^b`` is where a <= 0 and a + b <= 0: its log-derivative
        ``a/t + b/((e+t) log(e+t))`` is then at most ``(a + max(b, 0))/t``, as
        ``(e+t) log(e+t) > t``.  And no piece may start above where the piece
        before it ends."""
        if any(pc.c > 0.0 and not (pc.a <= 0.0 and pc.a + pc.b <= 0.0) for pc in self.pieces):
            return False

        def at(pc: WeightPiece, t: float) -> float:
            return pc.c * t ** pc.a * math.log(math.e + t) ** pc.b

        return all(at(prev, nxt.t0) >= at(nxt, nxt.t0)
                   for prev, nxt in zip(self.pieces, self.pieces[1:]))

    def flat_intervals(self) -> list[tuple[float, float]]:
        return [(p.t0, p.t1) for p in self.pieces if p.c == 0.0]

    def to_json(self) -> dict:
        return {
            "pieces": [
                {
                    "t0": p.t0,
                    "t1": "inf" if math.isinf(p.t1) else p.t1,
                    "c": p.c,
                    "a": p.a,
                    "b": p.b,
                }
                for p in self.pieces
            ]
        }

    @classmethod
    def from_json(cls, obj: dict) -> "WeightSpec":
        try:
            pieces = [(p["t0"], p["t1"], p["c"], p.get("a", 0.0), p.get("b", 0.0))
                      for p in obj["pieces"]]
            return cls.make(pieces)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise SchemaError(f"bad weight JSON: {exc}") from exc


def in_D_p(w: WeightSpec, p: float, alpha: float) -> bool:
    """Class D_p: W(s) and W_p(s) finite on (0, 1] if alpha = 1, on (0, inf) otherwise."""
    require_exponent("in_D_p", p)
    first = w.pieces[0]
    if first.c > 0 and origin_integral_diverges(first.a):
        return False
    if math.isinf(alpha):
        t = w.tail
        if (math.isinf(w.domain_end) and t.c > 0
                and tail_integral_diverges(exponent_shift(t.a, p), t.b)):
            return False
    return True


def require_D_p(w: WeightSpec, p: float, alpha: float) -> None:
    if not in_D_p(w, p, alpha):
        raise WeightDomainError(
            f"weight is not in class D_{p}: W or W_p diverges on (0, {alpha})"
        )

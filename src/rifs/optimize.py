"""Search primitives: line minimization, monotone root finding, and the
linear program of a matrix game.

:func:`brent_min` minimizes the hull objective along a simplex edge or a
pattern direction in the vertex run, the hull projection's fallback where its
cutting planes run out, as in a space with no subgradient, whose objective
need not be convex: golden section with parabolic interpolation (Brent,
*Algorithms for Minimization without Derivatives*, 1973, ch. 5) after a probe
at each end that a known interior value does not rule out.  The caller sets
its width; the hull projection floors it at sqrt(eps), as Brent's
``localmin`` does.
:func:`newton_level` solves ``F(s) = 1`` for a nondecreasing F by Newton
steps in log-log coordinates kept inside a bracket; the Luxemburg and Amemiya
norms of a smooth psi use it.
:class:`MatrixGame` solves ``min over the simplex of max_k (P theta)_k`` for a
payoff matrix P that grows a row at a time.  The hull projection's cutting
planes minimize their piecewise-linear model with it, and stop when an added
cut causes no pivot.
:class:`_MinNormPoint` is Wolfe's minimum-norm point of a convex hull given
by a Gram matrix, which the hull projection runs where the norm is a Hilbert
norm.

:func:`golden_section_min` (plain golden section) and :func:`bisect_level`
(monotone bisection) have no caller in the library: every Orlicz norm is now
a closed form, a walk over the kinks of a piecewise-linear psi, or one
:func:`newton_level`.  The benchmark's tracer wraps both by name, and the
tests also run :func:`golden_section_min`; only the tracer keeps
:func:`bisect_level`.  Both stop at a bracket width of
``tol * max(1, |a|, |b|)`` and ``1e-13 * b`` respectively.
"""

from __future__ import annotations

import math
from operator import mul
from typing import Callable

from .errors import SchemaError

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_CGOLD = 1.0 - _INVPHI  # golden-section step as a share of the longer side
_MAX_ITER = 400
_REL_WIDTH = 1e-13  # the stop of both bisect_level and newton_level
_LEVEL_TOL = 1e-10
# Sign and pivot tolerance on MatrixGame's scaled tableau, and Wolfe's test
# relative to the largest |p_i|^2.
_LP_TOL = 1e-12


def golden_section_min(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-10,
) -> tuple[float, float]:
    """Minimize a unimodal f on [lo, hi]; returns (argmin, min)."""
    a, b = float(lo), float(hi)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(_MAX_ITER):
        if b - a <= tol * max(1.0, abs(a), abs(b)):
            break
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    if fc <= fd:
        return c, fc
    return d, fd


def brent_min(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-10,
    known: tuple[float, float] | None = None,
) -> tuple[float, float]:
    """Minimize a convex f on [lo, hi]; returns (argmin, min).

    ``known`` is an optional ``(t, f(t))`` with lo <= t <= hi that is used
    instead of calling f at t.  First each end is probed: with
    ``h = tol * max(1, |lo|, |hi|)``, a finite ``f(lo) <= f(lo + h)`` puts the
    minimum of a convex f in [lo, lo + h], and lo itself is returned (the same
    at hi), so a minimum on the boundary comes back exactly.  Where ``known``
    lies strictly inside (lo, hi) and below f at an end, that end cannot be
    the minimum and its inner point is not probed.  Otherwise the
    bracket between the neighbours of the best probed point shrinks by Brent's
    steps to ``b - a <= tol * max(1, |a|, |b|)``.  A parabolic step is taken
    only through three finite values, so f may be +inf off its domain.
    Raises :class:`SchemaError` unless 0 < tol < inf and lo <= hi are finite.
    """
    if not (0 < tol < math.inf and -math.inf < lo <= hi < math.inf):
        raise SchemaError("brent_min requires 0 < tol < inf and finite lo <= hi")
    a, b = float(lo), float(hi)
    h = tol * max(1.0, abs(a), abs(b))
    seen: list[tuple[float, float]] = [known] if known is not None else []

    def at(t: float) -> float:
        for s, fs in seen:
            if s == t:
                return fs
        fs = f(t)
        seen.append((t, fs))
        return fs

    if b - a <= h:
        fa, fb = at(a), at(b)
        return (a, fa) if fa <= fb else (b, fb)
    ends = ((a, a + h), (b, b - h))
    if known is not None and known[0] == b:
        ends = ends[::-1]  # the known end costs one call to probe
    # An end above a known interior value is not the minimum of a convex f.
    cap = known[1] if known is not None and a < known[0] < b else math.inf
    for end, inner in ends:
        fe = at(end)
        if fe < math.inf and fe <= cap and fe <= at(inner):
            return end, fe

    # The best probed point, its neighbours as the bracket, and the next two
    # best points as Brent's w and v.  Fewer than three distinct points means
    # lo + h rounded onto hi: the bracket is already as narrow as the stop.
    seen.sort()
    if len(seen) < 3:
        return min(seen, key=lambda p: p[1])
    k = min(range(len(seen)), key=lambda i: seen[i][1])
    if k > 0:
        a = seen[k - 1][0]
    if k + 1 < len(seen):
        b = seen[k + 1][0]
    (x, fx), (w, fw), (v, fv) = sorted(seen, key=lambda p: p[1])[:3]
    d = e = b - a
    for _ in range(_MAX_ITER):
        h = tol * max(1.0, abs(a), abs(b))
        if b - a <= h:
            break
        tol1 = 0.25 * h
        m = 0.5 * (a + b)
        parabolic = False
        if abs(e) > tol1 and math.isfinite(fx) and math.isfinite(fw) and math.isfinite(fv):
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, d
            if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
                d = p / q
                u = x + d
                if u - a < 2.0 * tol1 or b - u < 2.0 * tol1:
                    d = tol1 if x < m else -tol1
                parabolic = True
        if not parabolic:
            e = (a - x) if x >= m else (b - x)
            d = _CGOLD * e
        if abs(d) >= tol1:
            u = x + d
        else:
            u = x + tol1 if d > 0.0 else x - tol1
        fu = f(u)
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return x, fx


def bisect_level(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Smallest argument with ``f <= 1`` for a nonincreasing f on 0 < lo < hi.

    Requires ``f(lo) > 1 >= f(hi)`` and stops at a bracket width of 1e-13
    relative to its upper end.  Returns the upper bracket, so for a map with a
    jump the result lands in the closed sublevel set.
    """
    a, b = float(lo), float(hi)
    for _ in range(_MAX_ITER):
        if b - a <= _REL_WIDTH * b:
            break
        m = 0.5 * (a + b)
        if f(m) <= 1.0:
            b = m
        else:
            a = m
    return b


def newton_level(
    f: Callable[[float], tuple[float, float]],
    origin: float,
    lo: float,
    hi: float,
    start: float,
) -> float:
    """The s in ``[lo, hi]`` (hi may be inf) with ``F(s) = 1``, for a
    nondecreasing F >= 0 that vanishes at ``origin <= lo``; ``f(s)`` returns
    ``(F(s), F'(s))``.

    Newton steps on log F against log(s - origin) from ``start``, so a power
    of s - origin is solved in one step and a start orders of magnitude off
    costs a few.  Each value narrows the bracket by its side of 1.  A step
    that would leave the bracket, that is not half the step before last, or
    that F = 0 forbids is replaced by the bracket's geometric midpoint about
    origin, or by doubling while hi is inf (the safeguard of Numerical
    Recipes' ``rtsafe``).  From above the level, an F convex in
    log(s - origin), such as a sum of powers of s - origin with positive
    coefficients, decreases monotonically onto it.  Stops when a step moves s
    by at most 1e-13 of it, when F is within 1e-10 of 1 (after that final step
    Newton's quadratic convergence leaves only rounding), or when the bracket
    is 1e-13 of s narrow.
    """
    a, b, s = float(lo), float(hi), float(start)
    last = before_last = math.inf  # the sizes of the last two steps
    for _ in range(_MAX_ITER):
        fs, slope = f(s)
        if fs < 1.0:
            a = s
        elif fs == 1.0:
            return s
        else:  # above, or NaN from an overflow far above the level
            b = s
        y = s - origin
        t = math.nan
        if fs > 0.0 and y * slope > 0.0:
            # The tangent of log F over log y; exp(709) is the float range.
            t = origin + y * math.exp(min(-fs * math.log(fs) / (y * slope), 709.0))
            if abs(t - s) <= _REL_WIDTH * s or abs(fs - 1.0) <= _LEVEL_TOL:
                return t
        # Bisect (in log y) when the step leaves the bracket or is not half the
        # one before last, as where F is nearly a step and Newton cycles.
        if not (a < t < b and abs(t - s) <= 0.5 * before_last):
            if b == math.inf:
                t = origin + 2.0 * y
            elif a > origin:
                t = origin + math.sqrt(a - origin) * math.sqrt(b - origin)
            else:
                t = origin + 0.5 * (b - origin)
        if b - a <= _REL_WIDTH * a:
            return t
        last, before_last = abs(t - s), last
        s = t
    return s


class MatrixGame:
    """``min over theta in the simplex of max_k (P theta)_k``, the rows of P
    given up front and then one at a time.

    The game is the LP ``max sum y  s.t.  (P/S + C) y <= 1, y >= 0``, whose
    optimum gives ``theta = y / sum y`` and the game value
    ``(1 / sum y - C) S``.  S is the power of two just above the first row's
    largest magnitude, so dividing by it is exact, and ``C = 1 - min(first
    row) / S`` makes that row at least 1 everywhere: the value of the scaled
    game is at least 1, rows added later only raise it, and the LP stays
    bounded.

    A Tucker tableau holds every variable (y, then the slack of each row) as
    a row: its value minus a combination of the current nonbasic variables,
    a nonbasic one being minus its unit row; row 0 is the objective.  y
    starts nonbasic and the slacks at 1.  The first rows are solved by primal
    simplex pivots.  An added row's slack ``1 - a.y`` is ``-a`` times the y
    rows plus 1, already in the nonbasic columns, and dual simplex pivots
    restore feasibility (the objective row stays optimal).  Both choose by
    Bland's rule, the least label among the eligible variables, so neither
    cycles.  A nonbasic y keeps its value exactly 0.0.
    """

    def __init__(self, rows):
        rows = [[float(v) for v in r] for r in rows]
        self.n = n = len(rows[0])
        self.scale = math.ldexp(1.0, math.frexp(max(map(abs, rows[0])))[1])
        self.shift = 1.0 - min(rows[0]) / self.scale
        # Row 0 is the objective sum y = 0 - sum (-1) y; then y, then the slacks.
        self.table = [[-1.0] * n + [0.0]]
        self.table += [[-1.0 if j == k else 0.0 for j in range(n)] + [0.0] for k in range(n)]
        self.table += [[v / self.scale + self.shift for v in r] + [1.0] for r in rows]
        self.nonbasic = list(range(1, n + 1))  # the row of the variable in each column
        self._primal()

    def add(self, row) -> bool:
        """Add a row; False when it causes no pivot, so the solution stands."""
        n, T = self.n, self.table
        a = [v / self.scale + self.shift for v in row]
        # The new slack 1 - a.y, with each y replaced by its row.
        new = [1.0 if j == n else 0.0 for j in range(n + 1)]
        for ak, yrow in zip(a, T[1:n + 1]):
            new = [x - ak * y for x, y in zip(new, yrow)]
        T.append(new)
        return self._dual() + self._primal() > 0

    def solution(self) -> tuple[list[float], float]:
        """``(theta, value)`` at the current basis."""
        y = [max(row[-1], 0.0) for row in self.table[1:self.n + 1]]
        total = sum(y)
        return [v / total for v in y], (1.0 / total - self.shift) * self.scale

    def _pivot(self, r: int, s: int) -> None:
        """The variable of column s enters the basis and that of row r leaves."""
        T = self.table
        p = T[r][s]
        prow = [v / p for v in T[r]]
        for i, row in enumerate(T):
            f = row[s]
            if f != 0.0 and i != r:
                new = [x - f * y for x, y in zip(row, prow)]
                new[s] = -f / p
                T[i] = new
        T[r] = [0.0] * (self.n + 1)
        T[r][s] = -1.0
        self.nonbasic[s] = r

    def _primal(self) -> int:
        """Pivots until no reduced cost is negative; the tableau is feasible."""
        pivots = 0
        T = self.table
        while True:
            cols = [j for j, c in enumerate(T[0][:-1]) if c < -_LP_TOL]
            if not cols:
                return pivots
            s = min(cols, key=self.nonbasic.__getitem__)
            best, r = math.inf, None
            for i in range(1, len(T)):
                c = T[i][s]
                if c > _LP_TOL and T[i][-1] / c < best:
                    best, r = T[i][-1] / c, i
            if r is None:  # unbounded: cannot happen while C holds
                return pivots
            self._pivot(r, s)
            pivots += 1

    def _dual(self) -> int:
        """Pivots until no variable is negative; the objective row is optimal."""
        pivots = 0
        T = self.table
        while True:
            r = next((i for i in range(1, len(T)) if T[i][-1] < -_LP_TOL), None)
            if r is None:
                return pivots
            row = T[r]
            best, s = math.inf, None
            for j in range(self.n):
                c = row[j]
                if c < -_LP_TOL:
                    q = T[0][j] / -c
                    if q < best or (q == best and self.nonbasic[j] < self.nonbasic[s]):
                        best, s = q, j
            if s is None:  # infeasible: cannot happen, y = 0 is feasible
                return pivots
            self._pivot(r, s)
            pivots += 1


def _affine_minimizer(G, S) -> list[float] | None:
    """The weights alpha, summing to 1, of the least-norm point of the affine
    hull of the points S (indices into the Gram matrix G).  At that point
    ``G_SS alpha = |X|^2 1``, so ``(1 1^T + G_SS) z = 1`` gives alpha as z over
    its sum; the matrix is ``[1 P]^T [1 P]``, positive definite exactly for
    affinely independent points, and solved by Cholesky.  None where a pivot
    comes out <= 0: S is affinely dependent to rounding."""
    L: list[list[float]] = []
    for i, si in enumerate(S):
        row: list[float] = []
        for j in range(i + 1):
            v = 1.0 + G[si][S[j]] - sum(map(mul, row, L[j] if j < i else row))
            if j < i:
                row.append(v / L[j][j])
            elif v > 0.0:
                row.append(math.sqrt(v))
            else:
                return None
        L.append(row)
    k = len(S)
    y: list[float] = []
    for i in range(k):
        y.append((1.0 - sum(map(mul, L[i], y))) / L[i][i])
    z = [0.0] * k
    for i in reversed(range(k)):
        z[i] = (y[i] - sum(L[m][i] * z[m] for m in range(i + 1, k))) / L[i][i]
    total = sum(z)
    return [v / total for v in z]


class _MinNormPoint:
    """The least-norm point of the convex hull of points p_i given by their
    Gram matrix ``G[i][j] = <p_i, p_j>`` (lists), one corral step at a time
    (Wolfe, *Math. Programming* 11, 1976).

    The corral S holds the points of positive weight ``lam`` (summing to 1),
    ``X = sum lam_s p_s``, and starts at the point ``start``.
    :meth:`entering` is Wolfe's test: the j least in ``<X, p_j>``, or None
    once ``|X|^2 - <X, p_j> <= 1e-12 max_i |p_i|^2`` (X is optimal to what G
    resolves), or, from rounding only, where j is already in S or the last
    step did not lower ``|X|^2``.  :meth:`add` puts j into S at weight 0 and
    runs the minor cycles: alpha is the affine minimizer of S, and while some
    ``alpha_s <= 0``, lam steps toward alpha until the first such weight is
    0.0 and its point leaves S.  Each step lowers ``|X|^2``, so a point never
    enters twice and the steps are finitely many.
    """

    def __init__(self, G, start: int):
        self.G = G
        self.corral, self.lam = [start], [1.0]
        self.tol = _LP_TOL * max(G[i][i] for i in range(len(G)))
        self.last = math.inf  # |X|^2 at the last test that let a point enter

    def entering(self) -> int | None:
        """The point to add next, or None where X is the minimum."""
        G, S, lam = self.G, self.corral, self.lam
        dots = [sum(map(mul, lam, column)) for column in zip(*(G[s] for s in S))]
        norm2 = sum(map(mul, lam, [dots[s] for s in S]))
        j = min(range(len(G)), key=dots.__getitem__)
        if norm2 - dots[j] <= self.tol or j in S or not norm2 < self.last:
            return None
        self.last = norm2
        return j

    def add(self, j: int) -> list[float]:
        """Adds the point j to the corral; returns every point's weight."""
        S, lam = self.corral + [j], self.lam + [0.0]
        while (alpha := _affine_minimizer(self.G, S)) is not None:
            if min(alpha) > 0.0:
                lam = alpha
                break
            # How far toward alpha each weight with alpha_s <= 0 reaches 0.
            ratios = [math.inf if a > 0.0 else l / (l - a) if l > 0.0 else 0.0
                      for l, a in zip(lam, alpha)]
            t = min(ratios)
            lam = [0.0 if r == t else l + t * (a - l) for l, a, r in zip(lam, alpha, ratios)]
            S, lam = [s for s, l in zip(S, lam) if l > 0.0], [l for l in lam if l > 0.0]
        self.corral, self.lam = [s for s, l in zip(S, lam) if l > 0.0], [l for l in lam if l > 0.0]
        weights = [0.0] * len(self.G)
        for s, l in zip(self.corral, self.lam):
            weights[s] = l
        return weights

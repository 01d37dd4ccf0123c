"""Scalar search primitives: line minimization and monotone root finding.

:func:`brent_min` minimizes the convex hull objective along a simplex edge:
golden section with parabolic interpolation (Brent, *Algorithms for
Minimization without Derivatives*, 1973, ch. 5) after a probe at each end.
:func:`newton_level` solves ``F(s) = 1`` for a nondecreasing F by Newton
steps in log-log coordinates kept inside a bracket; the Luxemburg and Amemiya
norms of a smooth psi use it.

:func:`golden_section_min` (plain golden section) and :func:`bisect_level`
(monotone bisection) have no caller in the library: every Orlicz norm is now
a closed form, a walk over the kinks of a piecewise-linear psi, or one
:func:`newton_level`.  They remain for the benchmark's tracer, which wraps
them by name, and for the tests.  Both stop at a bracket width of
``tol * max(1, |a|, |b|)`` and ``1e-13 * b`` respectively.
"""

from __future__ import annotations

import math
from typing import Callable

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_CGOLD = 1.0 - _INVPHI  # golden-section step as a share of the longer side
_MAX_ITER = 400
_REL_WIDTH = 1e-13  # the stop of both bisect_level and newton_level
_LEVEL_TOL = 1e-10


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
    at hi), so a minimum on the boundary comes back exactly.  Otherwise the
    bracket between the neighbours of the best probed point shrinks by Brent's
    steps to ``b - a <= tol * max(1, |a|, |b|)``.  A parabolic step is taken
    only through three finite values, so f may be +inf off its domain.
    """
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
    for end, inner in ends:
        fe = at(end)
        if fe < math.inf and fe <= at(inner):
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

"""Rearrangement layer: distribution function, decreasing rearrangement,
maximal function, Hardy-Littlewood-Polya domination, equimeasurability and
measure-preserving transport onto the rearrangement.

The maximal function of a step function is exactly representable: on each
interval between breakpoints of ``x*`` it has the form ``B + A/t`` (``B`` the
local level, ``A`` the accumulated integral offset), which makes domination
checks exact rather than sampled.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import SchemaError
from .step import ARRAY_MIN_PIECES, StepFunction, _settle, _settle_array


def distribution(x: StepFunction, lam: float) -> float:
    """Measure of ``{ |x| > lam }``; nonincreasing and right-continuous in lam."""
    if not lam >= 0:
        raise SchemaError("distribution requires lam >= 0")
    return sum(t1 - t0 for t0, t1, v in x.pieces if abs(v) > lam)


def _by_magnitude(x: StepFunction) -> list[tuple[float, float, float]]:
    """Nonzero pieces of |x|, largest value first, ties in source order."""
    nonzero = [(t0, t1, abs(v)) for t0, t1, v in x.pieces if v != 0.0]
    nonzero.sort(key=lambda p: (-p[2], p[0]))
    return nonzero


def rearrange(x: StepFunction) -> StepFunction:
    """Decreasing rearrangement x*: nonincreasing, nonnegative, left-packed.

    Ties between equal values are broken by source order; the result does not
    depend on the tie-break because only values and lengths matter.  Every
    piece of x keeps its length in x*, to one rounding, however narrow it is
    where x* lays it.

    x is immutable, so x* is computed once and kept on x: every later call
    returns the same object, which all callers share and must not alter.
    x* gets its own entry when it is rearranged in turn: laying its pieces
    end to end from 0 need not give back its breakpoints bit for bit.
    """
    star = x.__dict__.get("_star")
    if star is None:
        star = x.__dict__["_star"] = _rearranged(x)
    return star


def _rearranged(x: StepFunction) -> StepFunction:
    # Only a cell whose laid-out width rounds to 0 is dropped (width_tol=0):
    # the width rule of make depends on where a cell lies.
    if len(x.pieces) < ARRAY_MIN_PIECES:
        cells = []
        cursor = 0.0
        for t0, t1, v in _by_magnitude(x):
            length = t1 - t0
            cells.append((cursor, cursor + length, v))
            cursor += length
        return StepFunction(x.alpha, _settle(cells, x.alpha, width_tol=0.0))
    t0, t1, v = x._columns
    size = np.abs(v)
    # Pieces are in source order, so a stable sort keeps it among ties.
    order = np.argsort(-size, kind="stable")
    # A sequential cumulative sum: the same bits as ``cursor += length``.
    ends = np.cumsum((t1 - t0)[order])
    starts = np.concatenate(([0.0], ends[:-1]))
    return _settle_array(starts, ends, size[order], x.alpha, width_tol=0.0)


@dataclass(frozen=True)
class MaximalCurve:
    """Exact representation of ``x**(t) = (1/t) * integral_0^t x*``.

    ``breakpoints = (0, s_1, ..., s_m)``; ``coeffs[k] = (A_k, B_k)`` gives
    ``x**(t) = B_k + A_k / t`` on ``(s_k, s_{k+1})``, the last entry covering
    ``(s_m, inf)`` with ``B = 0``.  The curve is nonincreasing, continuous,
    and sits above ``x*`` pointwise.  A curve built on the arrays of x* keeps
    its segments ``(lo, hi, A, B)`` on ``(s_k, s_{k+1})``, k < m, as read-only
    arrays ``_segments``, shared like x*'s ``_columns``; they take no part in
    ``==``, ``hash`` or ``repr``.
    """

    breakpoints: tuple[float, ...]
    coeffs: tuple[tuple[float, float], ...]

    @property
    def value_at_zero(self) -> float:
        """Limit of x** as t -> 0+ (equals the top level of x*)."""
        return self.coeffs[0][1]

    @property
    def total_integral(self) -> float:
        """Integral of x* over the whole domain."""
        return self.coeffs[-1][0]

    def eval(self, t: float) -> float:
        if not t > 0:
            raise SchemaError("x** is defined for t > 0")
        k = bisect_left(self.breakpoints, t) - 1
        k = min(max(k, 0), len(self.coeffs) - 1)
        a, b = self.coeffs[k]
        return b + a / t

    def eval_many(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        if not np.all(ts > 0):
            raise SchemaError("x** is defined for t > 0")
        ks = np.clip(np.searchsorted(self.breakpoints, ts, side="left") - 1, 0, len(self.coeffs) - 1)
        arr = np.asarray(self.coeffs, dtype=float)
        return arr[ks, 1] + arr[ks, 0] / ts


def _eval_increasing(curve: MaximalCurve, ts: list[float]) -> list[float]:
    """``curve.eval`` at the increasing points ts > 0, by one forward pass: k
    counts the breakpoints below t, which is where ``eval`` bisects to."""
    bps, coeffs = curve.breakpoints, curve.coeffs
    n, k, out = len(bps), 0, []
    for t in ts:
        while k < n and bps[k] < t:
            k += 1
        a, b = coeffs[k - 1]
        out.append(b + a / t)
    return out


def maximal_curve(x: StepFunction) -> MaximalCurve:
    """x** of x.  Like x*, it is computed once and kept on x: every later call
    returns the same curve, which all callers share and must not alter."""
    curve = x.__dict__.get("_curve")
    if curve is None:
        curve = x.__dict__["_curve"] = _maximal(x)
    return curve


def _maximal(x: StepFunction) -> MaximalCurve:
    star = rearrange(x)
    if star.is_zero:
        return MaximalCurve((0.0,), ((0.0, 0.0),))
    if len(star.pieces) < ARRAY_MIN_PIECES:
        breakpoints = [0.0]
        coeffs = []
        acc = 0.0  # integral of x* up to the current breakpoint
        for t0, t1, v in star.pieces:
            coeffs.append((acc - v * t0, v))
            acc += v * (t1 - t0)
            breakpoints.append(t1)
        coeffs.append((acc, 0.0))
        return MaximalCurve(tuple(breakpoints), tuple(coeffs))
    t0, t1, v = star._columns
    # A sequential cumulative sum: the same bits as ``acc += ...``.  The
    # Gamma norm's array pass reads the segments kept here; it tests x*'s
    # size against the same threshold.
    acc = np.cumsum(np.concatenate(([0.0], v * (t1 - t0))))
    lo, A = np.concatenate(([0.0], t1[:-1])), acc[:-1] - v * t0
    curve = MaximalCurve((0.0, *t1.tolist()), (*zip(A.tolist(), v.tolist()), (float(acc[-1]), 0.0)))
    lo.flags.writeable = A.flags.writeable = False
    curve.__dict__["_segments"] = (lo, t1, A, v)
    return curve


def hlp_dominates(x: StepFunction, y: StepFunction, tol: float | None = None) -> bool:
    """Hardy-Littlewood-Polya relation ``x < y``: x**(t) <= y**(t) + tol for all t > 0.

    On each interval of the common breakpoint refinement the difference of the
    two curves is ``(B1-B2) + (A1-A2)/t``, monotone in t, so checking the
    refinement endpoints together with the t -> 0+ and t -> inf limits is
    exact.  Default tol is 1e-12 scaled by max(1, sup y**).
    """
    if x.alpha != y.alpha:
        raise SchemaError("operands live on different domains")
    cx, cy = maximal_curve(x), maximal_curve(y)
    if tol is None:
        tol = 1e-12 * max(1.0, cy.value_at_zero)
    if not 0 <= tol < math.inf:
        raise SchemaError("tol must be finite and >= 0")
    if cx.value_at_zero > cy.value_at_zero + tol:  # limit at t -> 0+
        return False
    # t -> inf: the difference tends to 0, dominated by tol >= 0.
    # One pass over the merged breakpoints: i and j count the breakpoints of
    # each curve below t, which is where ``eval`` would bisect to.
    sx, sy = cx.breakpoints, cy.breakpoints
    kx, ky = cx.coeffs, cy.coeffs
    nx, ny = len(sx), len(sy)
    i = j = 0
    for t in sorted(sx[1:] + sy[1:]):
        while i < nx and sx[i] < t:
            i += 1
        while j < ny and sy[j] < t:
            j += 1
        (ax, bx), (ay, by) = kx[i - 1], ky[j - 1]
        if bx + ax / t > by + ay / t + tol:
            return False
    return True


def equimeasurable(x: StepFunction, y: StepFunction) -> bool:
    """True iff x and y have identical distribution (canonical x* equal)."""
    return rearrange(x).approx_equal(rearrange(y))


@dataclass(frozen=True)
class TransportMap:
    """Measure-preserving map from supp(x) onto supp(x*), interval by interval.

    ``pairs`` lists ``((s0, s1), (d0, d1))`` with equal lengths: the affine
    increasing map of each source interval onto its target.
    """

    alpha: float
    pairs: tuple[tuple[tuple[float, float], tuple[float, float]], ...]

    @property
    def total_length(self) -> float:
        return sum(s1 - s0 for (s0, s1), _ in self.pairs)


def ryff_transport(x: StepFunction) -> TransportMap:
    """Transport sigma with ``x* o sigma = |x|`` a.e. on supp(x).

    The zero function has empty support and yields the empty map.
    """
    pairs = []
    cursor = 0.0
    for t0, t1, _ in _by_magnitude(x):
        length = t1 - t0
        pairs.append(((t0, t1), (cursor, cursor + length)))
        cursor += length
    return TransportMap(x.alpha, tuple(pairs))


def transport_pullback(tmap: TransportMap, g: StepFunction) -> StepFunction:
    """Compose ``g`` with the transport: returns ``g o sigma`` on the source side.

    With ``g = x*`` and ``sigma = ryff_transport(x)`` this reproduces ``|x|``
    exactly, which is the verification contract of the transport.  The walk
    over g for each target interval starts, by bisection, at the first piece
    of g ending after the interval starts, so n pairs and m pieces of g cost
    O((n+m) log m).
    """
    pieces = g.pieces
    ends = [t1 for _, t1, _ in pieces]
    out = []
    for (s0, s1), (d0, d1) in tmap.pairs:
        shift = s0 - d0
        for k in range(bisect_right(ends, d0), len(pieces)):
            t0, t1, v = pieces[k]
            if t0 >= d1:
                break
            lo, hi = max(t0, d0), min(t1, d1)
            if hi > lo:
                out.append((lo + shift, hi + shift, v))
    # The cells come in source order: make sorts them and applies its width rule there.
    return StepFunction.make(out, tmap.alpha)

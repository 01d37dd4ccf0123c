"""Finitely supported piecewise-constant functions on [0, alpha) and their
exact arithmetic.

A :class:`StepFunction` is the universal desk-scale representation of a
measurable function: finitely many half-open pieces ``[t0, t1)`` carrying a
constant value, implicit value 0 elsewhere.  The support always has finite
measure, so every integral below is finite and ``x*(inf) = 0`` holds by
construction.

Canonicalization happens at the boundary: :meth:`StepFunction.make` and
:meth:`StepFunction.from_json` validate, sort and settle outside input.
Internal results (``add``, ``maximum``, ``minimum``, ``scale``, ``absolute``
and the rearrangement) are already sorted and disjoint, so they skip
validation and sorting but go through the same settling rules: breakpoints
snap within the tolerance ``MERGE_TOL``, and adjacent pieces merge only when
their values are exactly equal.  A binary operation on n and m pieces is one
merged sweep over both breakpoint lists and costs O((n+m) log(n+m)).
``make``, the binary operations and the rearrangement on at least
``ARRAY_MIN_PIECES`` pieces settle in one array function, ``_settle_array``;
smaller ones stay on plain lists, where array set-up costs more than it
saves.  Both paths give bit-identical pieces.  Every canonicalization error
is raised by the list code: cells the array function might refuse go to
``_settle``, and input ``make`` might refuse goes to ``_canonical``.  A result
built on arrays keeps them as its ``_columns``.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .errors import SchemaError, require_alpha

MERGE_TOL = 1e-12

# Piece count (of both operands together, for binary operations; of x* for
# the Lorentz norms) from which make, the binary operations, the
# rearrangement and the Lorentz cell pass run on arrays.  Best of 15 timings
# on a shared 2-vCPU VM, list vs array path: ``add`` of 16 + 16 pieces 67 vs
# 80 us, of 32 + 32 132 vs 88 us; ``rearrange`` of 48 pieces 36 vs 44 us, of
# 64 52 vs 46 us; ``make`` of 64 pieces 120 vs 139 us, of 96 182 vs 152 us;
# the Lambda pass (p = 2, w = t^-1/2) on 64 pieces of x* 46 vs 64 us, on 128
# 89 vs 82 us; the Gamma pass on 64 pieces 144 vs 183 us (p = 2) and 174 vs
# 179 us (p = 1.5), on 96 219 vs 214 and 221 vs 192 us.  make and the Lorentz
# pass cross over between 64 and 128 pieces, and pay up to 1.4x just above
# the threshold.  One threshold near the crossovers, so that 1-5 piece inputs
# never pay for array set-up.
ARRAY_MIN_PIECES = 64

Piece = tuple[float, float, float]  # (t0, t1, value)

_start = operator.itemgetter(0)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= MERGE_TOL * max(1.0, abs(a), abs(b))


def _within_tol(lo: np.ndarray, hi: np.ndarray, tol: float = MERGE_TOL) -> np.ndarray:
    """``hi - lo <= tol * max(1, hi)`` elementwise: the width test of
    :func:`_settle`, and for ``0 <= lo <= hi`` the same floating-point
    operations as ``_close(lo, hi)``."""
    return hi - lo <= tol * np.maximum(hi, 1.0)


def _settle(cells: Iterable[Piece], alpha: float, width_tol: float = MERGE_TOL) -> tuple[Piece, ...]:
    """Canonical pieces from float cells ``(t0, t1, v)`` sorted by t0.

    A non-finite value or end raises.  An end past a finite alpha snaps to it
    within ``MERGE_TOL`` and raises beyond.  Cells of value 0 or of width at
    most ``width_tol * max(1, |t1|)`` are dropped.  A start within
    ``MERGE_TOL`` of the previous end snaps to it; one further left raises.
    """
    out: list[Piece] = []
    for t0, t1, v in cells:
        if not (math.isfinite(v) and math.isfinite(t1)):
            raise SchemaError("piece endpoints and values must be finite")
        if t1 > alpha:
            if not _close(t1, alpha):
                raise SchemaError(f"piece ends beyond alpha={alpha}: {t1}")
            t1 = alpha
        if v == 0.0 or t1 - t0 <= width_tol * max(1.0, abs(t1)):
            continue
        if out:
            pt0, pt1, pv = out[-1]
            if t0 == pt1 or _close(t0, pt1):
                t0 = pt1
                # Merging requires exactly equal values: merging nearly equal
                # ones would shift the distribution function at levels in
                # between, breaking exact equimeasurability.
                if v == pv:
                    out[-1] = (pt0, t1, v)
                    continue
            elif t0 < pt1:
                raise SchemaError(f"pieces overlap near t={t0}")
        out.append((t0, t1, v))
    return tuple(out)


def _settle_array(t0: np.ndarray, t1: np.ndarray, v: np.ndarray, alpha: float,
                  width_tol: float = MERGE_TOL) -> "StepFunction":
    """:func:`_settle` on arrays of cells sorted by start that start at or
    after 0, to its bits.  The result keeps the settled arrays as its
    ``_columns``.

    Cells that ``_settle`` might refuse (a non-finite end or value, an end
    beyond alpha by more than ``MERGE_TOL``, or kept cells that overlap by
    more) go to ``_settle`` itself, which raises its own error.
    """
    if np.isfinite(t1).all() and np.isfinite(v).all():
        beyond = t1 > alpha
        ends = np.where(beyond, alpha, t1) if beyond.any() else t1
        keep = (v != 0.0) & ~_within_tol(t0, ends, width_tol)
        k0, k1, kv = (t0, ends, v) if keep.all() else (t0[keep], ends[keep], v[keep])
        # Kept cells start at or after 0 and end after their start, so
        # _within_tol(a, b) is _close(a, b) where a < b and true where a >= b:
        # a start left of the previous end by more than MERGE_TOL overlaps,
        # and every other start within MERGE_TOL of it snaps to it.
        if _within_tol(alpha, t1[beyond]).all() and _within_tol(k0[1:], k1[:-1]).all():
            snap = _within_tol(k1[:-1], k0[1:])
            k0 = np.concatenate((k0[:1], np.where(snap, k1[:-1], k0[1:])))
            # Merging requires exactly equal values, as in _settle.
            new = kv[1:] != kv[:-1]
            new |= ~snap
            if not new.all():
                first = np.flatnonzero(np.concatenate(([True], new)))
                last = np.concatenate((first[1:], [len(kv)])) - 1
                k0, k1, kv = k0[first], k1[last], kv[first]
            out = StepFunction(alpha, tuple(zip(k0.tolist(), k1.tolist(), kv.tolist())))
            for column in (k0, k1, kv):
                column.flags.writeable = False
            out.__dict__["_columns"] = (k0, k1, kv)
            return out
    return StepFunction(alpha, _settle(zip(t0.tolist(), t1.tolist(), v.tolist()), alpha, width_tol))


def _canonical(pieces: Iterable[Sequence[float]], alpha: float) -> tuple[Piece, ...]:
    """Validate and sort pieces from outside the library, then settle them."""
    cells: list[Piece] = []
    for t0, t1, v in pieces:
        t0, t1, v = float(t0), float(t1), float(v)
        if not (math.isfinite(t0) and math.isfinite(t1)):
            raise SchemaError("piece endpoints and values must be finite")
        if t0 < 0 and _close(t0, 0.0):
            t0 = 0.0
        if t0 < 0:
            raise SchemaError(f"piece starts before 0: {t0}")
        cells.append((t0, t1, v))
    cells.sort(key=_start)
    return _settle(cells, alpha)


def _float_columns(pieces: Sequence[Sequence[float]]) -> list[np.ndarray] | None:
    """The pieces as float columns (t0, t1, v), or None where the list code
    must decide: a piece that is not three numbers, or a NaN, which numpy also
    makes of None."""
    try:
        columns = [np.fromiter(col, float, len(col)) for col in zip(*pieces, strict=True)]
    except (TypeError, ValueError, OverflowError):
        return None
    if len(columns) != 3 or np.isnan(columns).any():
        return None
    return columns


@dataclass(frozen=True)
class StepFunction:
    """Piecewise-constant function on ``[0, alpha)`` with ``alpha in {1, inf}``.

    Instances are immutable and canonical: pieces sorted, disjoint, nonzero,
    with adjacent equal values merged.  Construct through :meth:`make`.
    The one exception to make's width rule is the rearrangement x*: it keeps
    every piece of x, so a piece may lie where make would find it too narrow
    (``MERGE_TOL * max(1, t1)``).  Reading x* back through :meth:`from_json`,
    or an ``add``, ``maximum`` or ``minimum`` on it, settles at make's rule
    and drops such a piece again.
    What is derived from the pieces (``_columns``, and the x* and x** of the
    rearrangement layer) is kept on the instance once computed, or from its
    construction where that was on arrays; it takes no part in ``==``,
    ``hash``, ``repr`` or pickling.
    """

    alpha: float
    pieces: tuple[Piece, ...]

    @classmethod
    def make(cls, pieces: Iterable[Sequence[float]], alpha: float = math.inf) -> "StepFunction":
        alpha = float(alpha)
        require_alpha(alpha)
        if not isinstance(pieces, (list, tuple)):
            pieces = list(pieces)
        if len(pieces) >= ARRAY_MIN_PIECES:
            columns = _float_columns(pieces)
            if columns is not None:
                t0, t1, v = columns
                # Where _canonical would raise on the input, it does so below.
                if np.isfinite(t0).all() and np.isfinite(t1).all() and (t0 >= -MERGE_TOL).all():
                    # _close(t0, 0.0) for a finite start left of 0.
                    t0 = np.where(t0 < 0.0, 0.0, t0)
                    order = np.argsort(t0, kind="stable")
                    return _settle_array(t0[order], t1[order], v[order], alpha)
        return cls(alpha, _canonical(pieces, alpha))

    @classmethod
    def zero(cls, alpha: float = math.inf) -> "StepFunction":
        return cls.make((), alpha)

    @property
    def is_zero(self) -> bool:
        return not self.pieces

    @property
    def support_measure(self) -> float:
        return sum(t1 - t0 for t0, t1, _ in self.pieces)

    @property
    def support_end(self) -> float:
        return self.pieces[-1][1] if self.pieces else 0.0

    @cached_property
    def _columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The pieces as read-only float arrays (t0, t1, v), built once."""
        flat = np.fromiter(chain.from_iterable(self.pieces), float, 3 * len(self.pieces))
        flat.flags.writeable = False
        t0, t1, v = flat.reshape(-1, 3).T
        return t0, t1, v

    def __getstate__(self) -> dict:
        return {"alpha": self.alpha, "pieces": self.pieces}

    def value_at(self, t: float) -> float:
        if math.isnan(t):
            raise SchemaError("value_at needs a point t, got nan")
        # Canonical pieces are sorted and disjoint: only the last piece
        # starting at or before t can hold it.
        i = bisect_right(self.pieces, t, key=_start) - 1
        if i >= 0 and t < self.pieces[i][1]:
            return self.pieces[i][2]
        return 0.0

    def values(self, ts: np.ndarray) -> np.ndarray:
        """``value_at`` at every entry of ``ts``, by the same sorted-start lookup."""
        ts = np.asarray(ts, dtype=float)
        if not self.pieces:
            return np.zeros_like(ts)
        t0, t1, v = self._columns
        i = np.maximum(np.searchsorted(t0, ts, side="right") - 1, 0)
        return np.where((ts >= t0[i]) & (ts < t1[i]), v[i], 0.0)

    def breakpoints(self) -> list[float]:
        bps: list[float] = []
        for t0, t1, _ in self.pieces:
            bps.append(t0)
            bps.append(t1)
        return sorted(set(bps))

    def approx_equal(self, other: "StepFunction", tol: float = MERGE_TOL) -> bool:
        if self.alpha != other.alpha or len(self.pieces) != len(other.pieces):
            return False
        for (a0, a1, av), (b0, b1, bv) in zip(self.pieces, other.pieces):
            scale = max(1.0, abs(a0), abs(a1), abs(av))
            if abs(a0 - b0) > tol * scale or abs(a1 - b1) > tol * scale or abs(av - bv) > tol * scale:
                return False
        return True

    def to_json(self) -> dict:
        return {
            "alpha": "inf" if math.isinf(self.alpha) else "1",
            "pieces": [{"t0": t0, "t1": t1, "v": v} for t0, t1, v in self.pieces],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "StepFunction":
        try:
            alpha = math.inf if obj["alpha"] == "inf" else float(obj["alpha"])
            pieces = [(p["t0"], p["t1"], p["v"]) for p in obj["pieces"]]
            return cls.make(pieces, alpha)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise SchemaError(f"bad step-function JSON: {exc}") from exc


def indicator(t0: float, t1: float, value: float = 1.0, alpha: float = math.inf) -> StepFunction:
    """``value * chi_[t0, t1)`` as a StepFunction."""
    return StepFunction.make([(t0, t1, value)], alpha)


def _walk(pieces: Sequence[Piece], ts: Iterable[float]) -> list[float]:
    """Values at the nondecreasing points ts, by one forward pass over the pieces.

    The first piece ending after t is the only one that can hold it, which
    gives the same value as ``value_at``.
    """
    out = []
    i, n = 0, len(pieces)
    for t in ts:
        while i < n and pieces[i][1] <= t:
            i += 1
        out.append(pieces[i][2] if i < n and pieces[i][0] <= t else 0.0)
    return out


def _distinct_cuts(ts: np.ndarray) -> np.ndarray:
    """Sorted ts >= 0 less each entry within ``MERGE_TOL`` of the last one kept."""
    ts = ts[np.concatenate(([True], ts[1:] != ts[:-1]))]
    near = np.flatnonzero(_within_tol(ts[:-1], ts[1:])) + 1
    if len(near):
        # Only an entry close to its predecessor can go; whether it does
        # depends on the last entry kept, so these few are decided in order.
        keep = np.ones(len(ts), dtype=bool)
        for i in near.tolist():
            j = i - 1
            while not keep[j]:
                j -= 1
            keep[i] = not _close(float(ts[j]), float(ts[i]))
        ts = ts[keep]
    return ts


def _pointwise(x: StepFunction, y: StepFunction, op, op_array) -> StepFunction:
    """``op`` of x and y on each cell of their common breakpoint refinement.

    One merged sweep: both breakpoint lists are merged (a stable merge, so x
    comes first on ties), each breakpoint within ``MERGE_TOL`` of the last
    kept one is dropped, and each operand is read at the cell midpoints.
    """
    if x.alpha != y.alpha:
        raise SchemaError("operands live on different domains")
    if len(x.pieces) + len(y.pieces) < ARRAY_MIN_PIECES:
        cuts: list[float] = []
        for t in sorted([t for f in (x, y) for p in f.pieces for t in p[:2]]):
            if not cuts or not _close(cuts[-1], t):
                cuts.append(t)
        mids = [0.5 * (a + b) for a, b in zip(cuts, cuts[1:])]
        vals = map(op, _walk(x.pieces, mids), _walk(y.pieces, mids))
        return StepFunction(x.alpha, _settle(zip(cuts, cuts[1:], vals), x.alpha))
    edges = [np.stack(f._columns[:2], axis=1).ravel() for f in (x, y)]
    cuts = _distinct_cuts(np.sort(np.concatenate(edges), kind="stable"))
    lo, hi = cuts[:-1], cuts[1:]
    mids = 0.5 * (lo + hi)
    with np.errstate(over="ignore"):
        vals = op_array(x.values(mids), y.values(mids))
    return _settle_array(lo, hi, vals, x.alpha)


def add(x: StepFunction, y: StepFunction) -> StepFunction:
    return _pointwise(x, y, operator.add, np.add)


def scale(x: StepFunction, factor: float) -> StepFunction:
    if not math.isfinite(factor):
        raise SchemaError("scale factor must be finite")
    # float() as at make: a numpy factor would otherwise leave numpy scalars
    # in the pieces, and a float32 one would carry float32 into later sums.
    return StepFunction(x.alpha, _settle([(t0, t1, float(factor * v)) for t0, t1, v in x.pieces], x.alpha))


def absolute(x: StepFunction) -> StepFunction:
    return StepFunction(x.alpha, _settle([(t0, t1, abs(v)) for t0, t1, v in x.pieces], x.alpha))


def maximum(x: StepFunction, y: StepFunction) -> StepFunction:
    return _pointwise(x, y, max, np.maximum)


def minimum(x: StepFunction, y: StepFunction) -> StepFunction:
    return _pointwise(x, y, min, np.minimum)


_COMBINE = {"add": add, "scale": scale, "abs": absolute, "max": maximum, "min": minimum}


def combine(op: str, *args) -> StepFunction:
    """Dispatch piecewise algebra by name: add, scale, abs, max, min."""
    try:
        fn = _COMBINE[op]
    except KeyError:
        raise SchemaError(f"unknown combine op {op!r}") from None
    return fn(*args)

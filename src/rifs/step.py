"""Finitely supported piecewise-constant functions on [0, alpha) and their
exact arithmetic.

A :class:`StepFunction` is the universal desk-scale representation of a
measurable function: finitely many half-open pieces ``[t0, t1)`` carrying a
constant value, implicit value 0 elsewhere.  The support always has finite
measure, so every integral below is finite and ``x*(inf) = 0`` holds by
construction.

All arithmetic works on the common breakpoint refinement and is exact up to
the canonicalization tolerance ``MERGE_TOL`` used when merging breakpoints
and equal adjacent values.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Sequence

import numpy as np

from .errors import SchemaError

MERGE_TOL = 1e-12

Piece = tuple[float, float, float]  # (t0, t1, value)

_start = itemgetter(0)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= MERGE_TOL * max(1.0, abs(a), abs(b))


def _canonical(pieces: Iterable[Sequence[float]], alpha: float) -> tuple[Piece, ...]:
    cleaned: list[list[float]] = []
    for t0, t1, v in pieces:
        t0, t1, v = float(t0), float(t1), float(v)
        if not (math.isfinite(t0) and math.isfinite(t1) and math.isfinite(v)):
            raise SchemaError("piece endpoints and values must be finite")
        if t0 < 0 and _close(t0, 0.0):
            t0 = 0.0
        if t0 < 0:
            raise SchemaError(f"piece starts before 0: {t0}")
        if math.isfinite(alpha) and t1 > alpha:
            if not _close(t1, alpha):
                raise SchemaError(f"piece ends beyond alpha={alpha}: {t1}")
            t1 = alpha
        if t1 - t0 <= MERGE_TOL * max(1.0, abs(t1)):
            continue
        if v == 0.0:
            continue
        cleaned.append([t0, t1, v])
    cleaned.sort(key=lambda p: p[0])
    merged: list[list[float]] = []
    for t0, t1, v in cleaned:
        if merged:
            pt0, pt1, pv = merged[-1]
            if t0 < pt1 and not _close(t0, pt1):
                raise SchemaError(f"pieces overlap near t={t0}")
            if _close(t0, pt1):
                t0 = pt1
                # Merging requires exactly equal values: merging nearly equal
                # ones would shift the distribution function at levels in
                # between, breaking exact equimeasurability.
                if v == pv:
                    merged[-1][1] = t1
                    continue
        merged.append([t0, t1, v])
    return tuple((p[0], p[1], p[2]) for p in merged)


@dataclass(frozen=True)
class StepFunction:
    """Piecewise-constant function on ``[0, alpha)`` with ``alpha in {1, inf}``.

    Instances are immutable and canonical: pieces sorted, disjoint, nonzero,
    with adjacent equal values merged.  Construct through :meth:`make`.
    """

    alpha: float
    pieces: tuple[Piece, ...]

    @classmethod
    def make(cls, pieces: Iterable[Sequence[float]], alpha: float = math.inf) -> "StepFunction":
        alpha = float(alpha)
        if alpha not in (1.0, math.inf):
            raise SchemaError("alpha must be 1 or inf")
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

    @property
    def sup_abs(self) -> float:
        return max((abs(v) for _, _, v in self.pieces), default=0.0)

    def value_at(self, t: float) -> float:
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
        t0, t1, v = np.array(self.pieces).T
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
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"bad step-function JSON: {exc}") from exc
        return cls.make(pieces, alpha)


def indicator(t0: float, t1: float, value: float = 1.0, alpha: float = math.inf) -> StepFunction:
    """``value * chi_[t0, t1)`` as a StepFunction."""
    return StepFunction.make([(t0, t1, value)], alpha)


def _common_cells(x: StepFunction, y: StepFunction) -> list[tuple[float, float, float, float]]:
    """Cells (a, b, x-value, y-value) of the common breakpoint refinement."""
    bps = sorted(set(x.breakpoints()) | set(y.breakpoints()))
    dedup: list[float] = []
    for t in bps:
        if not dedup or not _close(dedup[-1], t):
            dedup.append(t)
    cells = []
    for a, b in zip(dedup, dedup[1:]):
        m = 0.5 * (a + b)
        cells.append((a, b, x.value_at(m), y.value_at(m)))
    return cells


def _check_same_domain(x: StepFunction, y: StepFunction) -> None:
    if x.alpha != y.alpha:
        raise SchemaError("operands live on different domains")


def add(x: StepFunction, y: StepFunction) -> StepFunction:
    _check_same_domain(x, y)
    return StepFunction.make(
        [(a, b, vx + vy) for a, b, vx, vy in _common_cells(x, y)], x.alpha
    )


def scale(x: StepFunction, factor: float) -> StepFunction:
    if not math.isfinite(factor):
        raise SchemaError("scale factor must be finite")
    return StepFunction.make([(t0, t1, factor * v) for t0, t1, v in x.pieces], x.alpha)


def absolute(x: StepFunction) -> StepFunction:
    return StepFunction.make([(t0, t1, abs(v)) for t0, t1, v in x.pieces], x.alpha)


def maximum(x: StepFunction, y: StepFunction) -> StepFunction:
    _check_same_domain(x, y)
    return StepFunction.make(
        [(a, b, max(vx, vy)) for a, b, vx, vy in _common_cells(x, y)], x.alpha
    )


def minimum(x: StepFunction, y: StepFunction) -> StepFunction:
    _check_same_domain(x, y)
    return StepFunction.make(
        [(a, b, min(vx, vy)) for a, b, vx, vy in _common_cells(x, y)], x.alpha
    )


_COMBINE = {"add": add, "scale": scale, "abs": absolute, "max": maximum, "min": minimum}


def combine(op: str, *args) -> StepFunction:
    """Dispatch piecewise algebra by name: add, scale, abs, max, min."""
    try:
        fn = _COMBINE[op]
    except KeyError:
        raise SchemaError(f"unknown combine op {op!r}") from None
    return fn(*args)

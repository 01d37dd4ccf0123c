"""Adaptive Gauss-Kronrod quadrature (G7/K15) on finite cells and the
exp-sinh rule on [0, inf), each with a hard cap.

The integrand must accept a numpy array and return one.  ``integrate_cells``
refines many cells at once, each on its own tolerance budget: the active
panels of all cells are evaluated in a single vectorized call per refinement
level.  A panel's error estimate is QUADPACK's, taken relative to the
panel's own value, so it does not depend on the integrand's scale.
``integrate`` is the one-cell case.  ``integrate_to_infinity`` takes
``integral_0^inf g`` for a g bounded at 0 that decays at least exponentially,
by the trapezoid rule after ``w = exp(pi/2 sinh u)``, halving the step until
two levels agree.  Exceeding a cap raises :class:`QuadratureCapError` rather
than returning a silently inaccurate value.
"""

from __future__ import annotations

import math
from functools import cache
from typing import Callable

import numpy as np

from .errors import QuadratureCapError

# 15-point Kronrod nodes with embedded 7-point Gauss weights.
_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
_WG = np.array([
    0.0, 0.129484966168870, 0.0, 0.279705391489277, 0.0,
    0.381830050505119, 0.0, 0.417959183673469, 0.0, 0.381830050505119,
    0.0, 0.279705391489277, 0.0, 0.129484966168870, 0.0,
])


def _panels(f, lo: np.ndarray, hi: np.ndarray,
            cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """K15 value and error estimate for each [lo_i, hi_i] panel of cell cells_i."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    ts = mid[:, None] + half[:, None] * _NODES[None, :]
    fs = f(ts, cells[:, None])
    k15 = half * (fs @ _WK)
    g7 = half * (fs @ _WG)
    diff = np.abs(k15 - g7)
    # QUADPACK's |K15| min(1, (200 diff / |K15|)^1.5), on the panel's own
    # magnitude.  Where 200 diff reaches |K15| (K15 = 0 included) the
    # estimate is the larger of the two, and a NaN stays NaN.
    mag = np.abs(k15)
    tight = 200.0 * diff < mag
    err = np.maximum(mag, diff)
    err[tight] = mag[tight] * (200.0 * diff[tight] / mag[tight]) ** 1.5
    return k15, err


def integrate_cells(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    lo,
    hi,
    rel_tol: float = 1e-9,
    max_subdiv: int = 10_000,
) -> np.ndarray:
    """Integrate f over every cell [lo_i, hi_i] to the requested relative tolerance.

    ``f(ts, cells)`` gets the nodes as one row of 15 per panel and the index
    of each panel's cell as a column, and returns f at every node.  Each cell
    refines on its own, by the rules of a lone run: its own tolerance budget,
    split rule and cap of ``max_subdiv`` panels; the panels of all unfinished
    cells share one call of f per refinement level.  A cell's value can still
    differ in its last bit from a lone run of that cell, because one matrix
    product per level sums the panels of all cells and the BLAS row sums
    depend on the matrix shape.  Empty cells (hi <= lo) integrate to 0.
    """
    lo = np.asarray(lo, dtype=float).ravel()
    hi = np.asarray(hi, dtype=float).ravel()
    n = len(lo)
    out = np.zeros(n)
    cells = np.flatnonzero(~(hi <= lo))
    if not len(cells):
        return out
    lo, hi = lo[cells], hi[cells]
    vals, errs = _panels(f, lo, hi, cells)
    while True:
        # Within a cell, panels keep the order a run of that cell alone gives
        # them, so its sums (sequential in bincount) are that run's sums.
        counts = np.bincount(cells, minlength=n)
        totals = np.bincount(cells, vals, n)
        err = np.bincount(cells, errs, n)
        # fmax gives a cell with a NaN total a zero budget rather than a NaN
        # one, so each of its panels with a positive estimate splits.
        budget = np.fmax(0.0, rel_tol * np.abs(totals))
        done = (err <= budget) | (err == 0.0)
        np.copyto(out, totals, where=done & (counts > 0))
        open_ = ~done
        worst = counts[open_]
        if not worst.size:
            return out
        if worst.max() >= max_subdiv:
            raise QuadratureCapError(
                f"quadrature did not reach tolerance within {max_subdiv} panels"
            )
        # Split every panel holding more than its prorated share of its cell's
        # budget.
        live = open_[cells]
        split = live & (errs > (budget / (2.0 * np.maximum(counts, 1)))[cells])
        if math.isnan(err.sum()):
            # Only a NaN estimate (err >= 0 otherwise, so the sum is NaN
            # exactly then) can leave an open cell with no panel above its
            # share; such a cell splits its worst panel.
            lacking = open_.copy()
            lacking[cells[split]] = False
            for c in np.flatnonzero(lacking):
                own = np.flatnonzero(cells == c)
                split[own[np.argmax(errs[own])]] = True
        keep = live ^ split
        lo_s, hi_s, cells_s = lo[split], hi[split], cells[split]
        mid = 0.5 * (lo_s + hi_s)
        new_lo = np.concatenate([lo_s, mid])
        new_hi = np.concatenate([mid, hi_s])
        new_cells = np.concatenate([cells_s, cells_s])
        new_vals, new_errs = _panels(f, new_lo, new_hi, new_cells)
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        cells = np.concatenate([cells[keep], new_cells])
        vals = np.concatenate([vals[keep], new_vals])
        errs = np.concatenate([errs[keep], new_errs])


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    rel_tol: float = 1e-9,
    max_subdiv: int = 10_000,
) -> float:
    """Integrate f over [a, b] to the requested relative tolerance."""
    return float(integrate_cells(lambda ts, cells: f(ts.ravel()).reshape(ts.shape), [a], [b],
                                 rel_tol=rel_tol, max_subdiv=max_subdiv)[0])


# The exp-sinh rule ``w = exp(pi/2 sinh u)``: the window in u, the first step
# and the number of halvings.  At u = -4, w is 2e-19 and dw/du 1e-17; at
# u = 2.5, w is 1.3e4, where e^-w is 0.0.
_ES_LO, _ES_HI, _ES_STEP, _ES_LEVELS = -4.0, 2.5, 0.5, 8


@cache
def _es_level(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The nodes w that level k of the exp-sinh rule adds, and their weights
    dw/du: every multiple of the first step in the window at k = 0, the odd
    multiples of ``step / 2^k`` after.  Built on first use and shared."""
    if k == 0:
        u = np.arange(_ES_LO, _ES_HI + 0.5 * _ES_STEP, _ES_STEP)
    else:
        u = _ES_LO + _ES_STEP / 2 ** k * np.arange(1, 2 ** k * (_ES_HI - _ES_LO) / _ES_STEP, 2)
    w = np.exp(0.5 * np.pi * np.sinh(u))
    dw = w * (0.5 * np.pi) * np.cosh(u)
    w.flags.writeable = dw.flags.writeable = False
    return w, dw


def integrate_to_infinity(g: Callable[[np.ndarray], np.ndarray], rel_tol: float = 1e-9) -> float:
    """``integral_0^inf g(w) dw`` for g bounded near 0 and decaying at least
    like a power of w times e^-w, by the exp-sinh rule.

    The trapezoid rule in u after ``w = exp(pi/2 sinh u)`` converges double
    exponentially.  Each level halves the step and evaluates only its new
    nodes, in one call of g.  The difference of two levels is the error of
    the coarser one; the finer one is returned once they agree to rel_tol/100,
    a margin that keeps the result well inside rel_tol where the levels'
    errors fall less than quadratically.  A run that does not agree within
    the level cap raises :class:`QuadratureCapError`.
    """
    step = _ES_STEP
    w, dw = _es_level(0)
    total = float(g(w) @ dw)
    prev = total * step
    for k in range(1, _ES_LEVELS + 1):
        step *= 0.5
        w, dw = _es_level(k)
        total += float(g(w) @ dw)
        value = total * step
        if abs(value - prev) <= 0.01 * rel_tol * abs(value):
            return value
        prev = value
    raise QuadratureCapError(
        f"exp-sinh quadrature did not reach tolerance within {_ES_LEVELS} halvings"
    )

"""Adaptive Gauss-Kronrod quadrature: batched cells against one-cell runs, the
subdivision cap, the scale-free error estimate, and the Gamma norm's forced
quadrature path; the exp-sinh rule's cap."""

import math

import numpy as np
import pytest

from rifs import QuadratureCapError, StepFunction, WeightSpec, gamma_norm, scale
from rifs.quadrature import integrate, integrate_cells, integrate_to_infinity

# (lo, hi, A, B, a, b) per cell of (B + A/t)^1.5 t^a log(e+t)^b: smooth cells,
# cells with an integrable singularity at 0 that need deep refinement, and an
# empty cell.
CELLS = [
    (0.0, 1.0, 0.0, 1.0, -0.9, 0.0),
    (0.5, 2.0, 0.3, 1.0, -0.5, 0.0),
    (0.0, 0.25, 0.0, 2.0, -0.5, 1.0),
    (2.0, 7.5, 2.0, 0.0, 0.2, -1.5),
    (1.0, 1.0, 1.0, 1.0, 0.0, 0.0),
    (1e-3, 40.0, 0.7, 0.1, -0.99, 2.0),
    (3.0, 3.5, 0.0, 4.0, 0.0, 0.0),
]


def _one(lo, hi, A, B, a, b):
    return lambda ts: (B + A / ts) ** 1.5 * ts ** a * np.log(np.e + ts) ** b


def _batched(cells):
    lo, hi, A, B, a, b = (np.array(col) for col in zip(*cells))

    def f(ts, k):
        return (B[k] + A[k] / ts) ** 1.5 * ts ** a[k] * np.log(np.e + ts) ** b[k]

    return f, lo, hi


def test_integrate_cells_matches_integrate_per_cell():
    f, lo, hi = _batched(CELLS)
    got = integrate_cells(f, lo, hi, rel_tol=1e-10)
    for cell, value in zip(CELLS, got):
        alone = integrate(_one(*cell), cell[0], cell[1], rel_tol=1e-10)
        assert value == pytest.approx(alone, rel=1e-14, abs=0.0)
    assert got[4] == 0.0


def test_cap_hit_by_one_hard_cell_among_easy_ones():
    easy = [(k, k + 1.0, 0.0, 1.0, 2.0, 0.0) for k in range(1, 6)]  # polynomials
    hard = (0.0, 1.0, 0.0, 1.0, -0.9, 0.0)
    f, lo, hi = _batched(easy)
    integrate_cells(f, lo, hi, max_subdiv=4)  # the easy cells alone converge
    f, lo, hi = _batched(easy[:2] + [hard] + easy[2:])
    with pytest.raises(QuadratureCapError):
        integrate_cells(f, lo, hi, max_subdiv=4)
    with pytest.raises(QuadratureCapError):
        integrate(_one(*hard), 0.0, 1.0, max_subdiv=4)


def test_nan_integrand_hits_the_cap():
    f, lo, hi = _batched([(1.0, 2.0, 0.0, 1.0, 0.0, 0.0), (2.0, 3.0, 0.0, 1.0, 0.0, 0.0)])

    def with_nan_cell(ts, k):
        return np.where(k == 1, np.nan, f(ts, k))

    with pytest.raises(QuadratureCapError):
        integrate_cells(with_nan_cell, lo, hi, max_subdiv=50)
    with pytest.raises(QuadratureCapError):
        integrate(lambda ts: np.full_like(ts, np.nan), 0.0, 1.0, max_subdiv=50)
    with pytest.raises(QuadratureCapError):
        integrate_to_infinity(lambda ws: np.full_like(ws, np.nan))


def test_endpoint_singularity_meets_the_tolerance():
    assert integrate(lambda ts: ts ** -0.9, 0.0, 1.0) == pytest.approx(10.0, rel=1e-9, abs=0.0)


def test_gamma_quadrature_does_not_depend_on_the_scale_of_x():
    # The error estimate is taken relative to each panel's value, so a tiny
    # x refines as x does.
    w = WeightSpec.power(-0.5)
    x = StepFunction.make([(0, 1, 3), (1.5, 2, 1), (2.2, 4, 0.5), (5, 5.5, 2)])
    for p in (1.5, 2.0):
        at_one = gamma_norm(x, p, w, method="quadrature")
        assert at_one == pytest.approx(gamma_norm(x, p, w), rel=1e-9)
        for c in (1e-20, 1e-60, 1e-100):
            assert gamma_norm(scale(x, c), p, w, method="quadrature") == pytest.approx(
                c * at_one, rel=1e-9, abs=0.0)


def test_gamma_forced_quadrature_agrees_with_closed_form():
    # Integer p on pure-power pieces has a closed form on every cell; the
    # forced path sends the same cells, zero-weight ones included, through
    # one batched quadrature.
    w = WeightSpec.make([(0, 0.7, 1.0, -0.5, 0.0), (0.7, 2.0, 0.0, 0.0, 0.0),
                         (2.0, math.inf, 2.0, -0.25, 0.0)])
    x = StepFunction.make([(0.0, 0.4, 3.0), (0.9, 2.6, -1.5), (3.0, 4.5, 0.25), (5.0, 5.1, 7.0)])
    for p in (1.0, 2.0, 3.0):
        assert gamma_norm(x, p, w, method="quadrature") == pytest.approx(
            gamma_norm(x, p, w), rel=5e-9)
    w1 = WeightSpec.make([(0, 0.5, 1.0, 0.5, 0.0), (0.5, 1.0, 3.0, -0.5, 0.0)])
    x1 = StepFunction.make([(0.0, 0.3, 1.0), (0.3, 0.8, 2.5)], alpha=1.0)
    assert gamma_norm(x1, 2.0, w1, method="quadrature") == pytest.approx(
        gamma_norm(x1, 2.0, w1), rel=5e-9)

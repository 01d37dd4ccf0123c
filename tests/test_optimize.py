"""Scalar line minimization: the probes at the ends, the evaluation count on a
smooth minimum, kinks, and objectives that are +inf off their domain."""

import math

import pytest

from rifs.optimize import brent_min, golden_section_min


def _counted(f):
    calls = []

    def g(t):
        calls.append(t)
        return f(t)

    return g, calls


@pytest.mark.parametrize("lo, hi, want", [(0.0, 1.0, 1.0), (-1.0, 1.0, -1.0),
                                          (-0.3, 0.7, 0.7), (0.25, 2.0, 0.25)])
def test_boundary_minimum_returns_the_end_exactly(lo, hi, want):
    f = (lambda t: (t - 3.0) ** 2) if want == hi else (lambda t: (t + 3.0) ** 2)
    t, val = brent_min(f, lo, hi)
    assert t == want
    assert val == f(want)


def test_known_end_value_is_not_recomputed():
    f, calls = _counted(lambda t: abs(t - 5.0))
    t, val = brent_min(f, -1.0, 0.0, known=(0.0, 5.0))
    assert (t, val) == (0.0, 5.0)
    assert calls == [-1e-10]


@pytest.mark.parametrize("c", [-0.7, -0.2, 0.0, 1e-12, 0.123456789, 0.3, 0.5, 0.999])
def test_quadratic_minimum_in_at_most_15_evaluations(c):
    f, calls = _counted(lambda t: (t - c) ** 2)
    t, _ = brent_min(f, -1.0, 1.0, tol=1e-10)
    assert abs(t - c) <= 1e-9
    assert len(calls) <= 15
    # The plain golden section needs about 49 calls for the same width.
    g, golden_calls = _counted(lambda t: (t - c) ** 2)
    golden_section_min(g, -1.0, 1.0, tol=1e-10)
    assert len(golden_calls) >= 45


@pytest.mark.parametrize("c", [-0.7, 0.0, 0.123456789, 0.3, 0.5, 0.999])
def test_kinked_minimum(c):
    t, val = brent_min(lambda t: abs(t - c), -1.0, 1.0, tol=1e-10)
    assert abs(t - c) <= 1e-9
    assert val == abs(t - c)


def test_infinite_beyond_the_domain_returns_a_finite_minimum():
    def f(t):
        return 1.0 / t if t <= 1.0 else math.inf

    for search in (brent_min, golden_section_min):
        t, val = search(f, 0.5, 2.0, tol=1e-10)
        assert math.isfinite(val)
        assert abs(t - 1.0) <= 1e-9
        assert abs(val - 1.0) <= 1e-9


def test_stopping_width_matches_golden_section():
    # A flat-bottomed objective: any point of [0.2, 0.4] is a minimizer, and
    # both searches end inside it.
    def f(t):
        return max(0.0, 0.2 - t, t - 0.4)

    for search in (brent_min, golden_section_min):
        t, val = search(f, -1.0, 1.0, tol=1e-10)
        assert 0.2 - 1e-9 <= t <= 0.4 + 1e-9
        assert val == 0.0


def test_interval_narrower_than_tolerance_returns_better_end():
    t, val = brent_min(lambda t: (t - 1.0) ** 2, 0.0, 1e-12, tol=1e-10)
    assert t == 1e-12
    assert val == (1e-12 - 1.0) ** 2

"""Scalar line minimization: the probes at the ends, the evaluation count on a
smooth minimum, kinks, and objectives that are +inf off their domain.  The
level solver: one step for a power, a few from a start far off, and its
safeguards where F is nearly a step, zero, or overflows.  The matrix game
against scipy's ``linprog``, a row at a time."""

import math

import numpy as np
import pytest

from rifs.optimize import MatrixGame, brent_min, golden_section_min, newton_level


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


def test_end_above_a_known_interior_value_gets_no_inner_probe():
    # f(0) = 1.09 lies below both f(-1) and f(1), so convexity already rules
    # out either end as the minimum: neither -1 + h nor 1 - h is probed.
    f, calls = _counted(lambda t: (t - 0.3) ** 2 + 1.0)
    t, val = brent_min(f, -1.0, 1.0, tol=1e-10, known=(0.0, f(0.0)))
    calls = calls[1:]  # the call that made known
    assert calls[:2] == [-1.0, 1.0]
    assert -1.0 + 1e-10 not in calls and 1.0 - 1e-10 not in calls
    assert abs(t - 0.3) <= 1e-9
    assert val == pytest.approx(1.0, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("want", [-1.0, 1.0])
def test_end_below_a_known_interior_value_is_probed_and_exact(want):
    # f(0) = 9 lies above f(want) = 4, so that end keeps both probes and comes
    # back exactly; the other end, f = 16, is ruled out by f(0).
    f, calls = _counted(lambda t: (t - 3.0 * want) ** 2)
    t, val = brent_min(f, -1.0, 1.0, tol=1e-10, known=(0.0, 9.0))
    assert (t, val) == (want, 4.0)
    assert want - want * 1e-10 in calls
    assert -want + want * 1e-10 not in calls


def test_end_at_a_known_interior_value_is_probed_and_exact():
    # f = max(0, t) is 0 both at -1 and at the known -0.5: the end at -1 is
    # not ruled out, so it is probed and returned exactly.
    f, calls = _counted(lambda t: max(0.0, t))
    t, val = brent_min(f, -1.0, 1.0, tol=1e-10, known=(-0.5, 0.0))
    assert (t, val) == (-1.0, 0.0)
    assert calls == [-1.0, -1.0 + 1e-10]


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


def _counted_level(F, dF):
    calls = []

    def f(s):
        calls.append(s)
        return F(s), dF(s)

    return f, calls


@pytest.mark.parametrize("origin, c, p", [(0.0, 3.0, 2.0), (0.5, 1e6, 1.5), (2.0, 1e-9, 6.0)])
def test_level_of_a_power_in_one_step(origin, c, p):
    f, calls = _counted_level(lambda s: c * (s - origin) ** p,
                              lambda s: c * p * (s - origin) ** (p - 1.0))
    root = origin + c ** (-1.0 / p)
    s = newton_level(f, origin, origin, math.inf, origin + 100.0 * (root - origin))
    assert s == pytest.approx(root, rel=1e-14, abs=0.0)
    assert len(calls) == 2  # the start, then the step's end to confirm


def test_level_from_far_below_with_no_upper_bracket():
    f, calls = _counted_level(math.expm1, math.exp)
    s = newton_level(f, 0.0, 0.0, math.inf, 1e-12)
    assert s == pytest.approx(math.log(2.0), rel=1e-14, abs=0.0)
    assert len(calls) <= 10


def test_level_of_a_near_step_is_bracketed_to_the_stop():
    # F jumps from about 0.9 to about 1.1 within 1e-9 of c: Newton alone would
    # cycle across the jump, so bisection closes the bracket.
    c = 0.7

    def F(s):
        return 0.9 + 0.2 / (1.0 + math.exp(-(s - c) * 1e10)) if abs(s - c) < 1e-8 else \
            (0.9 if s < c else 1.1) + 0.01 * (s - c)

    f, calls = _counted_level(F, lambda s: 0.01)
    s = newton_level(f, 0.0, 0.1, 2.0, 2.0)
    assert abs(s - c) <= 1e-12
    assert len(calls) <= 60


def test_level_past_a_zero_region_and_an_overflow():
    # F = 0 up to 1 (no Newton step from there) and NaN beyond 3 (an
    # overflow): both sides fall back to bisection.
    def F(s):
        return math.nan if s > 3.0 else 1e6 * max(0.0, s - 1.0) ** 2

    f, calls = _counted_level(F, lambda s: 2e6 * max(0.0, s - 1.0))
    s = newton_level(f, 0.0, 0.5, 10.0, 10.0)
    assert s == pytest.approx(1.001, rel=1e-13, abs=0.0)
    assert len(calls) <= 40


# ------------------------------------------------------------- matrix games

def _game_value(P):
    """``min over the simplex of max_k (P theta)_k`` by scipy's ``linprog``
    over (theta, z): minimize z subject to ``P theta <= z``.  HiGHS takes
    payoffs near 1 only, so P is scaled by a power of two, which is exact."""
    optimize = pytest.importorskip("scipy.optimize")
    unit = math.ldexp(1.0, math.frexp(float(np.abs(P).max()))[1])
    P = P / unit
    K, n = P.shape
    res = optimize.linprog(np.r_[np.zeros(n), 1.0], A_ub=np.c_[P, -np.ones(K)], b_ub=np.zeros(K),
                           A_eq=np.r_[np.ones(n), 0.0][None], b_eq=[1.0],
                           bounds=[(0.0, None)] * n + [(None, None)], method="highs")
    assert res.status == 0, res.message
    return res.fun * unit


def _games():
    """Random games with n = 2-12 and K = 1-40 over six decades, then
    degenerate ones: every row twice, constant rows, identical columns, a
    zero first row, and payoffs of 2^500 and 2^-500."""
    rng = np.random.default_rng(28)
    for k in range(40):
        n, K = int(rng.integers(2, 13)), int(rng.integers(1, 41))
        yield pytest.param(rng.normal(size=(K, n)) * 10.0 ** rng.uniform(-3.0, 3.0), id=f"random-{k}")
    P = rng.normal(size=(8, 5))
    yield pytest.param(np.repeat(P, 2, axis=0), id="duplicates")
    constant = P.copy()
    constant[::2] = rng.normal(size=(4, 1))
    yield pytest.param(constant, id="constant-rows")
    yield pytest.param(np.full((3, 4), 0.25), id="constant-game")
    columns = rng.normal(size=(12, 6))
    columns[:, 2] = columns[:, 4] = columns[:, 0]
    yield pytest.param(columns, id="identical-columns")
    yield pytest.param(np.vstack([np.zeros(4), rng.normal(size=(6, 4))]), id="zero-first-row")
    for k in (-500, 500):
        yield pytest.param(rng.normal(size=(10, 4)) * 2.0 ** k, id=f"scale-2^{k}")


@pytest.mark.parametrize("P", _games())
def test_matrix_game_matches_linprog_row_by_row(P):
    """After each added row the value agrees with linprog's to 1e-12 of the
    payoffs' magnitude (the value itself may be 0), theta lies on the
    simplex, and ``max_k (P theta)_k`` is the value.  A row added twice in a
    row causes no pivot the second time."""
    game = MatrixGame(P[:1])
    for k in range(1, len(P) + 1):
        if k > 1:
            pivoted = game.add(P[k - 1])
            if (P[k - 1] == P[k - 2]).all():
                assert not pivoted
        theta, value = game.solution()
        size = np.abs(P[:k]).max()
        assert abs(value - _game_value(P[:k])) <= 1e-12 * size
        assert min(theta) >= 0.0 and abs(sum(theta) - 1.0) <= 1e-12
        assert abs(max(P[:k] @ np.array(theta)) - value) <= 1e-12 * size

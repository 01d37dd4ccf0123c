"""Best-approximation machinery: finite projections, hull projections,
minimizing sequences, K-upper bounds, and the dominated-projection experiment.

Hull results are certified against exhaustive simplex grid search.
"""

import itertools
import math

import numpy as np
import pytest

from rifs import (
    CandidateSet,
    OrliczSpec,
    SchemaError,
    SpaceHandle,
    StepFunction,
    TrialConfig,
    WeightSpec,
    add,
    dominated_projection_experiment,
    indicator,
    k_upper_bound_check,
    minimizing_sequence,
    norm,
    project_finite,
    project_hull,
    random_step,
    rearrange,
    scale,
)

L2 = SpaceHandle.orlicz_space(OrliczSpec.power(2))


def _members(*fns, **kw):
    return CandidateSet.make(list(fns), **kw)


# -------------------------------------------------------------- candidate sets

def test_candidate_set_requires_nonempty():
    with pytest.raises(SchemaError):
        CandidateSet.make([])


def test_rearrangement_closed_validation():
    a = indicator(2, 3)  # rearranges to chi_[0,1)
    with pytest.raises(SchemaError):
        CandidateSet.make([a], rearrangement_closed=True)
    ok = CandidateSet.make([a, indicator(0, 1)], rearrangement_closed=True)
    assert ok.rearrangement_closed


# -------------------------------------------------------------- project_finite

def test_member_of_set_projects_to_itself():
    x = indicator(0, 1)
    r = project_finite(x, _members(x, indicator(0, 2)), L2)
    assert r.distance == 0.0
    assert r.minimizers[0].point == x


def test_tie_reported_for_both_members():
    # ||chi - 0|| = ||chi - 2 chi|| = 1 in the quadratic norm.
    r = project_finite(indicator(0, 1), _members(StepFunction.zero(), indicator(0, 1, 2.0)), L2)
    assert r.distance == pytest.approx(1.0)
    assert len(r.minimizers) == 2


def test_singleton_zero_gives_norm():
    x = StepFunction.make([(0, 1, 2.0), (3, 4, -1.0)])
    r = project_finite(x, _members(StepFunction.zero()), L2)
    assert r.distance == pytest.approx(norm(L2, x))


def test_project_finite_matches_bruteforce_min():
    cfg = TrialConfig(seed=53, trials=60)
    for trial in range(cfg.trials):
        x = random_step(cfg, trial, stream=0)
        members = [random_step(cfg, trial, stream=s) for s in (1, 2, 3)]
        r = project_finite(x, _members(*members), L2)
        brute = min(norm(L2, add(x, scale(a, -1.0))) for a in members)
        assert r.distance == brute
        assert len(r.minimizers) >= 1
        assert all(m.gap <= 1e-10 for m in r.minimizers)


# ---------------------------------------------------------------- project_hull

def test_hull_contains_target():
    A = _members(StepFunction.zero(), indicator(0, 1, 2.0), hull=True)
    r = project_hull(indicator(0, 1), A, L2)
    assert r.distance <= 1e-6


def test_hull_two_disjoint_cells_closed_form():
    # min over theta of sqrt(theta^2 + (1-theta)^2) = 1/sqrt(2) at theta = 1/2.
    A = _members(indicator(0, 1), indicator(1, 2), hull=True)
    r = project_hull(StepFunction.zero(), A, L2)
    assert r.distance == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-4)
    assert r.minimizers[0].coefficients[0] == pytest.approx(0.5, abs=1e-3)


def test_hull_never_beats_finite_members_but_never_loses():
    cfg = TrialConfig(seed=59, trials=25)
    for trial in range(cfg.trials):
        x = random_step(cfg, trial, stream=0)
        members = [random_step(cfg, trial, stream=s) for s in (1, 2, 3)]
        finite = project_finite(x, _members(*members), L2)
        hull = project_hull(x, _members(*members, hull=True), L2)
        assert hull.distance <= finite.distance + 1e-9


def _simplex_grid_oracle(x, members, space, resolution):
    """Exhaustive search over the discretized simplex (an upper bound)."""
    n = len(members)
    steps = int(round(1.0 / resolution))
    best = math.inf
    for combo in itertools.product(range(steps + 1), repeat=n - 1):
        if sum(combo) > steps:
            continue
        theta = [c / steps for c in combo]
        theta.append(1.0 - sum(theta))
        point = StepFunction.zero(x.alpha)
        for c, m in zip(theta, members):
            point = add(point, scale(m, c))
        best = min(best, norm(space, add(x, scale(point, -1.0))))
    return best


def test_hull_matches_grid_search_oracle():
    instances = [
        (StepFunction.zero(), [indicator(0, 1), indicator(1, 2)]),
        (indicator(0, 2), [indicator(0, 1, 2.0), indicator(1, 2, 2.0)]),
        (indicator(0, 1, 0.4), [StepFunction.zero(), indicator(0, 1, 2.0),
                                indicator(0.5, 1.5, 1.0)]),
    ]
    spaces = [L2, SpaceHandle.orlicz_space(OrliczSpec.exp_minus_one()),
              SpaceHandle.orlicz_space(OrliczSpec.power(3), flavor="orlicz"),
              SpaceHandle.lorentz_lambda(2.0, WeightSpec.power(-0.5)),
              SpaceHandle.lorentz_gamma(2.0, WeightSpec.power(-0.5))]
    for space in spaces:
        for x, members in instances:
            r = project_hull(x, _members(*members, hull=True), space)
            oracle = _simplex_grid_oracle(x, members, space,
                                          resolution=1e-3 if len(members) == 2 else 1e-2)
            assert r.distance <= oracle + 1e-9
            assert r.distance == pytest.approx(oracle, abs=1e-4 if len(members) == 2 else 1e-3)


def _l2_qp_distance(x, members):
    """min ||x - sum theta_i a_i||_2 over the simplex by SLSQP on the
    cell-weighted quadratic, on cells built from the public piece lists."""
    optimize = pytest.importorskip("scipy.optimize")
    edges = sorted({t for f in (x, *members) for piece in f.pieces for t in piece[:2]})
    mids = [0.5 * (a + b) for a, b in zip(edges, edges[1:])]
    widths = np.diff(edges)
    xv = np.array([x.value_at(t) for t in mids])
    M = np.array([[m.value_at(t) for t in mids] for m in members])
    G = (M * widths) @ M.T
    g = (M * widths) @ xv
    c = float(np.dot(widths * xv, xv))

    def fun(theta):
        return float(theta @ G @ theta - 2.0 * g @ theta + c)

    def jac(theta):
        return 2.0 * (G @ theta - g)

    n = len(members)
    res = optimize.minimize(
        fun, np.full(n, 1.0 / n), jac=jac, method="SLSQP", bounds=[(0.0, 1.0)] * n,
        constraints=[{"type": "eq", "fun": lambda t: t.sum() - 1.0,
                      "jac": lambda t: np.ones(n)}],
        options={"ftol": 1e-15, "maxiter": 1000})
    # Status 8 ("positive directional derivative") is SLSQP stopping at
    # rounding level, below what ftol = 1e-15 asks for.
    assert res.status in (0, 8), res.message
    assert res.x.min() >= -1e-12 and abs(res.x.sum() - 1.0) <= 1e-12
    return math.sqrt(max(fun(res.x), 0.0))


def test_l2_hull_matches_scipy_qp_oracle():
    for seed in range(200):
        cfg = TrialConfig(seed=seed, trials=1)
        x = random_step(cfg, 0, stream=0)
        members = [random_step(cfg, 0, stream=s) for s in range(1, 4 + seed % 4)]
        r = project_hull(x, _members(*members, hull=True), L2)
        d_qp = _l2_qp_distance(x, members)
        assert d_qp - 1e-9 <= r.distance <= d_qp + 1e-6 * max(1.0, d_qp), seed


def test_hull_optimum_on_a_face_gives_an_exact_zero_coefficient():
    # Moving mass from a_0 to a_1 always lowers the cost on [0, 1), so the
    # optimum has theta_0 = 0 and theta_1 = 0.04 / 1.04.
    A = _members(indicator(0, 1, 3.0), indicator(0, 1), indicator(1, 2, 0.2), hull=True)
    r = project_hull(StepFunction.zero(), A, L2)
    theta = r.minimizers[0].coefficients
    assert theta[0] == 0.0
    assert theta[1] == pytest.approx(0.04 / 1.04, abs=1e-6)
    assert r.distance == pytest.approx(0.2 / math.sqrt(1.04), abs=1e-9)


def test_hull_respects_member_cap():
    members = [indicator(i, i + 1) for i in range(13)]
    with pytest.raises(SchemaError):
        project_hull(StepFunction.zero(), _members(*members, hull=True), L2)


def test_hull_line_search_cap_raises_with_best_iterate():
    from rifs import NonConvergenceError

    A = _members(indicator(0, 1), indicator(1, 2), indicator(0, 2, 0.5), hull=True)
    with pytest.raises(NonConvergenceError) as exc:
        project_hull(StepFunction.zero(), A, L2, max_line_searches=1)
    theta, val = exc.value.best
    assert len(theta) == 3 and val >= 0.0


# --------------------------------------------------------- minimizing sequence

def test_minimizing_sequence_constant_for_finite_sets():
    x = indicator(0, 1)
    A = _members(StepFunction.zero(), indicator(0, 3))
    seq = minimizing_sequence(x, A, L2, 3)
    assert len(seq) == 3
    assert all(s == seq[0] for s in seq)
    assert norm(L2, seq[0]) == pytest.approx(project_finite(x, A, L2).distance)


def test_minimizing_sequence_gaps_decrease_on_hull():
    A = _members(indicator(0, 1), indicator(1, 2), hull=True)
    seq = minimizing_sequence(StepFunction.zero(), A, L2, 6)
    norms = [norm(L2, s) for s in seq]
    assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))
    assert norms[-1] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-4)


def test_minimizing_sequence_empty_for_zero_count():
    A = _members(indicator(0, 1))
    assert minimizing_sequence(StepFunction.zero(), A, L2, 0) == []


# --------------------------------------------------------------- K-upper bound

def test_k_upper_bound_reflexive_singleton():
    x = indicator(0, 2)
    assert k_upper_bound_check(x, _members(x))


def test_k_upper_bound_examples():
    A = _members(indicator(0, 2))
    assert k_upper_bound_check(indicator(0, 1, 2.0), A)
    assert not k_upper_bound_check(indicator(0, 1), A)


def test_k_upper_bound_sum_of_rearrangements():
    cfg = TrialConfig(seed=61, trials=30)
    for trial in range(cfg.trials):
        members = [random_step(cfg, trial, stream=s) for s in (0, 1, 2)]
        bound = StepFunction.zero()
        for m in members:
            bound = add(bound, rearrange(m))
        assert k_upper_bound_check(bound, _members(*members))


# ------------------------------------------------------------------ experiment

def test_experiment_valid_hypotheses():
    x = indicator(0, 2)
    A = CandidateSet.make([indicator(0, 1), StepFunction.zero()], rearrangement_closed=True)
    rep = dominated_projection_experiment(x, A, OrliczSpec.power(2), math.inf)
    assert rep.proximinal
    assert rep.hypotheses["koc"]["status"] == "holds"
    assert rep.hypotheses["set_dominated_by_x"]["holds"]
    assert rep.target_star == rearrange(x)


def test_experiment_reports_koc_failure_but_still_projects():
    x = indicator(0, 2)
    A = CandidateSet.make([indicator(0, 1)])
    rep = dominated_projection_experiment(x, A, OrliczSpec.exp_minus_one(), math.inf)
    assert rep.hypotheses["koc"]["status"] == "fails"
    assert rep.proximinal
    assert any("K-order-continuity" in n for n in rep.notes)


def test_experiment_flags_violating_member():
    x = indicator(0, 1)
    A = CandidateSet.make([indicator(0, 4, 3.0)])  # not dominated by x
    rep = dominated_projection_experiment(x, A, OrliczSpec.power(2), math.inf)
    assert not rep.hypotheses["set_dominated_by_x"]["holds"]
    assert rep.hypotheses["set_dominated_by_x"]["violating_members"] == [0]
    assert rep.hypotheses["x_dominated_by_set"]["holds"]


def test_experiment_over_hull():
    x = indicator(0, 2, 2.0)
    A = CandidateSet.make([indicator(0, 1), StepFunction.zero()],
                          hull=True, rearrangement_closed=True)
    rep = dominated_projection_experiment(x, A, OrliczSpec.power(2), math.inf)
    assert rep.proximinal
    # best hull point is the full member: dist = ||2 chi_[0,2) - chi_[0,1)||
    assert rep.projection.distance == pytest.approx(math.sqrt(5.0), abs=1e-5)

"""Best-approximation machinery: finite projections, hull projections,
minimizing sequences, K-upper bounds, and the dominated-projection experiment.

Hull results are certified against exhaustive simplex grid search.
"""

import itertools
import math
import warnings

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
from rifs import approx, optimize
from rifs.approx import _HullObjective
from rifs.step import MERGE_TOL

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


GRID_INSTANCES = [
    (StepFunction.zero(), [indicator(0, 1), indicator(1, 2)]),
    (indicator(0, 2), [indicator(0, 1, 2.0), indicator(1, 2, 2.0)]),
    (indicator(0, 1, 0.4), [StepFunction.zero(), indicator(0, 1, 2.0),
                            indicator(0.5, 1.5, 1.0)]),
]
GRID_SPACES = [L2, SpaceHandle.orlicz_space(OrliczSpec.exp_minus_one()),
               SpaceHandle.orlicz_space(OrliczSpec.power(3), flavor="orlicz"),
               SpaceHandle.lorentz_lambda(2.0, WeightSpec.power(-0.5)),
               SpaceHandle.lorentz_gamma(2.0, WeightSpec.power(-0.5))]


def test_hull_matches_grid_search_oracle():
    for space in GRID_SPACES:
        for x, members in GRID_INSTANCES:
            r = project_hull(x, _members(*members, hull=True), space)
            oracle = _simplex_grid_oracle(x, members, space,
                                          resolution=1e-3 if len(members) == 2 else 1e-2)
            assert r.distance <= oracle + 1e-9
            assert r.distance == pytest.approx(oracle, abs=1e-4 if len(members) == 2 else 1e-3)


# Pair descent stalls at kinks of the norm.  Two random 3-member instances
# where it ends above the hull minimum: exp - 1 (1.610487 against 1.600782 on
# the 0.01 grid) and Lambda p=2 (1.5e-4 above the 0.01 grid).
STALL_WITNESSES = [
    (SpaceHandle.orlicz_space(OrliczSpec.exp_minus_one()),
     [(0.15096884170052083, 1.5806950847236518, -1.2759700721321352)],
     [[(0.1958433755239143, 1.7942241558356984, 1.8357264177174668),
       (2.6885684043061353, 4.043710071260405, 1.838994403502361),
       (4.275885032655491, 5.170172677275486, -0.7675748476677283)],
      [(0.07323244928545947, 1.7834343075691614, -2.5660999494834584)],
      [(0.283992684658261, 0.5727619211743876, -2.0137763197031635),
       (1.4978436349655846, 2.693625362894309, 1.6690338904567799)]]),
    (SpaceHandle.lorentz_lambda(2.0, WeightSpec.power(-0.5)),
     [(0.667590262761236, 1.572336557285034, -1.1517760936726615),
      (1.77947856042797, 2.608353054497668, 1.7237327070138555),
      (3.0229626004372165, 3.4497665999697387, -2.4384864055910134)],
     [[(0.2502657003958084, 2.049261929770899, -2.288887968018228),
       (2.5528181223748154, 4.224584472457105, -2.8983914591787925)],
      [(0.9243955009220625, 1.4078684426911983, -0.2549063448916836),
       (1.7241385076705797, 2.9014846448321854, -2.043107681877765),
       (3.3474691113034454, 4.709952011585367, 0.3558036675788592)],
      [(0.643738228307911, 1.078350812785716, -0.11468733306289394),
       (2.0542462993128465, 3.8500986420066106, -2.05426969847348),
       (4.1685700076903816, 5.893407064666945, 1.996978868042298)]]),
]


def _gap_cases():
    for k, (space, x, members) in enumerate(STALL_WITNESSES):
        yield pytest.param(space, StepFunction.make(x), [StepFunction.make(m) for m in members],
                           id=f"stall-{k}")
    for space in GRID_SPACES:
        for k, (x, members) in enumerate(GRID_INSTANCES):
            yield pytest.param(space, x, members, id=f"grid-{space.describe()}-{k}")


@pytest.mark.parametrize("space, x, members", _gap_cases())
def test_hull_gap_bounds_the_excess_over_the_hull_minimum(space, x, members):
    """The reported gap is finite and bounds how far the distance lies above
    the least norm found on the simplex grid and on 500 Dirichlet samples
    (both upper bounds of the hull minimum), up to rounding: the sample norms
    go through ``norm`` on step functions, the projection through its cells."""
    r = project_hull(x, _members(*members, hull=True), space)
    gap = r.minimizers[0].gap
    assert math.isfinite(gap)
    best = _simplex_grid_oracle(x, members, space, resolution=1e-3 if len(members) == 2 else 1e-2)
    for theta in np.random.default_rng(11).dirichlet(np.ones(len(members)), 500):
        point = StepFunction.zero(x.alpha)
        for c, m in zip(theta, members):
            point = add(point, scale(m, float(c)))
        best = min(best, norm(space, add(x, scale(point, -1.0))))
    assert r.distance - best <= gap + 1e-12 * max(1.0, r.distance), (r.distance, best, gap)


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

    # The best vertex chi_[0,1) is not optimal (1/sqrt(3) at the barycenter),
    # so the vertex run needs more than one line search.
    A = _members(indicator(0, 1), indicator(1, 2), indicator(2, 3), hull=True)
    with pytest.raises(NonConvergenceError) as exc:
        project_hull(StepFunction.zero(), A, L2, max_line_searches=1)
    theta, val = exc.value.best
    assert len(theta) == 3 and val >= 0.0


def test_hull_certified_vertex_needs_no_line_search():
    # The best vertex 0.5 chi_[0,2) is already optimal (distance sqrt(0.5)):
    # its gap is 0, so the run stops before any search.
    A = _members(indicator(0, 1), indicator(1, 2), indicator(0, 2, 0.5), hull=True)
    r = project_hull(StepFunction.zero(), A, L2, max_line_searches=1)
    assert r.iterations == 0
    assert r.minimizers[0].gap == 0.0
    assert r.minimizers[0].coefficients == (0.0, 0.0, 1.0)
    assert r.distance == math.sqrt(0.5)


# ------------------------------------------------ the cutting-plane phase

def _sampled_minimum(x, members, space):
    """The least norm on the simplex grid and on 500 Dirichlet samples, an
    upper bound of the hull minimum."""
    best = _simplex_grid_oracle(x, members, space, resolution=1e-3 if len(members) == 2 else 1e-2)
    for theta in np.random.default_rng(11).dirichlet(np.ones(len(members)), 500):
        point = StepFunction.zero(x.alpha)
        for c, m in zip(theta, members):
            point = add(point, scale(m, float(c)))
        best = min(best, norm(space, add(x, scale(point, -1.0))))
    return best


@pytest.mark.parametrize("k", range(len(STALL_WITNESSES)))
def test_stall_witnesses_certify_within_tol_of_the_sampled_minimum(k):
    space, x, members = STALL_WITNESSES[k]
    x, members = StepFunction.make(x), [StepFunction.make(m) for m in members]
    r = project_hull(x, _members(*members, hull=True), space)
    assert r.minimizers[0].gap <= 1e-6
    assert r.distance <= _sampled_minimum(x, members, space) + 1e-6


def _l2_instance(seed, c=1.0, members=3):
    """An L2 request drawn from TrialConfig(seed), its target and members
    scaled by c."""
    cfg = TrialConfig(seed=seed, trials=1)
    x = scale(random_step(cfg, 0, stream=0), c)
    return x, _members(*(scale(random_step(cfg, 0, stream=s), c)
                         for s in range(1, members + 1)), hull=True)


# A kinked norm goes straight to the cutting-plane phase.  exp - 1's norm
# solves on |x| / sup|x|, so it stays homogeneous at 2^-500 and 2^500.
PHASE_SPACE = SpaceHandle.orlicz_space(OrliczSpec.exp_minus_one())


def _phase_instance(c=1.0):
    """The draw of TrialConfig seed 72, scaled by c: in PHASE_SPACE its phase
    takes 6 steps at tol = 1e-6."""
    return _l2_instance(72, c)


@pytest.fixture
def games(monkeypatch):
    """The MatrixGame of each hull request that enters the phase."""
    made = []

    class Recorded(approx.MatrixGame):
        def __init__(self, rows):
            super().__init__(rows)
            made.append(self)

    monkeypatch.setattr(approx, "MatrixGame", Recorded)
    return made


@pytest.mark.parametrize("k", [-500, -20, 20, 500])
def test_hull_phase_terminates_at_extreme_scales(k, games):
    """At c = 2^k the phase ends within 200 steps with a finite gap and no
    warning: by the certificate, or where tol is below what the scaled LP
    resolves, when a cut causes no pivot."""
    c = 2.0 ** k
    x, A = _phase_instance(c)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = project_hull(x, A, PHASE_SPACE, tol=1e-6 * min(1.0, c), max_line_searches=200)
    assert len(games) == 1
    assert math.isfinite(r.minimizers[0].gap)
    unscaled = project_hull(*_phase_instance(), PHASE_SPACE)
    assert r.distance == pytest.approx(c * unscaled.distance, rel=1e-6)


@pytest.mark.parametrize("space", [make(p, WeightSpec.power(-0.5)) for p in (2.0, 3.0) for make in
                                   (SpaceHandle.lorentz_lambda, SpaceHandle.lorentz_gamma)],
                         ids=lambda space: space.describe())
@pytest.mark.parametrize("k", [-1000, -600, 600])
def test_lorentz_hulls_certify_at_extreme_scales(space, k, games):
    """Lambda and Gamma hulls at c = 2^k certify with gap <= tol c and no
    warning, at c times the unscaled distance: their norms and subgradients
    take one scale rule.  The norms read 0.0 at 2^-600 (gap 0.0), and at
    2^600 the p = 3 hulls warned or raised OverflowError."""
    c = math.ldexp(1.0, k)
    for seed in (1, 5, 7):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = project_hull(*_l2_instance(seed, c), space, tol=1e-6 * c)
        assert r.minimizers[0].gap <= 1e-6 * c, seed
        unscaled = project_hull(*_l2_instance(seed), space)
        assert r.distance == pytest.approx(c * unscaled.distance, rel=1e-6, abs=0.0), seed
    assert len(games) == 6


def test_l2_overflowing_powers_do_not_warn():
    """|x|^2 overflows at 2^520: the power closed form rescales, and the hull
    request, like ``luxemburg_norm``, raises no warning."""
    x, A = _phase_instance(2.0 ** 520)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = project_hull(x, A, L2)
    assert math.isfinite(r.distance) and r.distance > 0.0


def test_hull_cap_inside_the_phase_raises_with_the_best_iterate(games):
    from rifs import NonConvergenceError

    x, A = _phase_instance()
    full = project_hull(x, A, PHASE_SPACE)
    assert len(games) == 1
    for cut_off in (1, 2, 3):
        with pytest.raises(NonConvergenceError) as exc:
            project_hull(x, A, PHASE_SPACE, max_line_searches=full.iterations - cut_off)
        # The steps the cap cut off are the trace's last entries.
        seen = full.certificate[:-cut_off]
        best = min(range(len(seen)), key=lambda i: (seen[i][1], i))
        assert exc.value.best == seen[best]


def test_minimizing_sequence_over_a_phase_request(games):
    x, A = _phase_instance()
    r = project_hull(x, A, PHASE_SPACE)
    assert len(games) == 1
    seq = minimizing_sequence(x, A, PHASE_SPACE, len(r.certificate))
    norms = [norm(PHASE_SPACE, s) for s in seq]
    assert all(a >= b for a, b in zip(norms, norms[1:]))
    assert norms[-1] == pytest.approx(r.distance, rel=1e-12)


def test_l2_hulls_certify_without_cutting_planes(games):
    """L2 hulls on 3 members take Wolfe's route: the minimum-norm point of
    their Gram matrix certifies each one, so none reaches the cutting planes."""
    entered = []
    for seed in range(60):
        r = project_hull(*_l2_instance(seed), L2)
        assert r.minimizers[0].gap <= 1e-6, seed
        if games:
            entered.append(seed)
            games.clear()
    assert entered == []


# Pattern searches run on smooth norms that are not Hilbert norms.
SMOOTH = SpaceHandle.orlicz_space(OrliczSpec.power(3))


def _direction_steps(certificate):
    """The trace entries that move more than two coefficients at once, which
    only a direction search does: a pair search moves two."""
    return [k for k in range(1, len(certificate))
            if sum(a != b for a, b in zip(certificate[k - 1][0], certificate[k][0])) > 2]


def test_direction_search_at_a_face_gives_an_exact_zero_coefficient(games):
    # Two direction searches stop at faces of the simplex.  The clip sets
    # each such coefficient to 0.0 rather than summing theta_i + t d_i at the
    # end t = -theta_i / d_i, which need not give 0.0.
    r = project_hull(*_l2_instance(183, members=5), SMOOTH)
    assert games == [] and r.minimizers[0].gap <= 1e-6
    at_face = 0
    for k in _direction_steps(r.certificate):
        before, after = r.certificate[k - 1][0], r.certificate[k][0]
        assert abs(math.fsum(after) - 1.0) <= 1e-12
        for b, a in zip(before, after):
            if b > 1e-12 >= abs(a):
                assert a == 0.0
                at_face += 1
    assert at_face >= 2


def test_hull_cap_on_a_direction_search_raises_with_the_best_iterate(monkeypatch):
    from rifs import NonConvergenceError

    x, A = _l2_instance(183, members=5)
    calls = []

    def counted(*args, **kw):
        calls.append(1)
        return optimize.brent_min(*args, **kw)

    monkeypatch.setattr(approx, "brent_min", counted)
    full = project_hull(x, A, SMOOTH)
    assert full.iterations == len(calls)
    bests = []
    for cap in range(full.iterations):
        with pytest.raises(NonConvergenceError) as exc:
            project_hull(x, A, SMOOTH, max_line_searches=cap)
        bests.append(exc.value.best)
    steps = [k for k in _direction_steps(full.certificate) if full.certificate[k] in bests]
    assert steps
    for k in steps:
        # The search that made entry k is number bests.index(entry k); the
        # cap one below it falls on that search.
        refused = bests[bests.index(full.certificate[k]) - 1]
        seen = full.certificate[:k]
        assert refused == seen[min(range(k), key=lambda i: (seen[i][1], i))]


# ------------------------------------------------ Wolfe's route for L2

def _certified_by_wolfe(x, members, games):
    """The L2 projection, checked to certify without cutting planes and to
    land within the QP oracle's distance."""
    r = project_hull(x, _members(*members, hull=True), L2)
    assert games == [] and r.minimizers[0].gap <= 1e-6
    d_qp = _l2_qp_distance(x, members)
    assert d_qp - 1e-9 <= r.distance <= d_qp + 1e-6 * max(1.0, d_qp)
    return r


def test_wolfe_route_with_duplicate_members(games):
    cfg = TrialConfig(seed=5, trials=1)
    x = random_step(cfg, 0, stream=0)
    a, b = random_step(cfg, 0, stream=1), random_step(cfg, 0, stream=2)
    r = _certified_by_wolfe(x, [a, b, a, b, a], games)
    assert math.fsum(r.minimizers[0].coefficients) == pytest.approx(1.0, abs=1e-12)


def test_wolfe_route_with_a_member_equal_to_the_target():
    x = StepFunction.make([(0, 1, 2.0), (1.5, 3, -1.0)])
    A = _members(indicator(0, 2), x, indicator(1, 4, 3.0), hull=True)
    r = project_hull(x, A, L2)
    assert r.distance == 0.0
    assert r.minimizers[0].gap == 0.0


def test_wolfe_route_with_three_collinear_members(games):
    # a, 2a and 3a lie on one line; x = 2.5 a + b with b off a's support
    # projects between 2a and 3a, so a itself gets an exact 0.0.
    a = indicator(0, 1)
    x = add(scale(a, 2.5), indicator(1, 2, 0.7))
    r = _certified_by_wolfe(x, [a, scale(a, 2.0), scale(a, 3.0)], games)
    theta = r.minimizers[0].coefficients
    assert theta[0] == 0.0
    assert theta[1:] == pytest.approx((0.5, 0.5), abs=1e-9)
    assert r.distance == pytest.approx(0.7, abs=1e-12)


def test_wolfe_route_at_the_member_cap_matches_the_qp_oracle(games):
    for seed in range(20):
        cfg = TrialConfig(seed=seed, trials=1)
        x = random_step(cfg, 0, stream=0)
        _certified_by_wolfe(x, [random_step(cfg, 0, stream=s) for s in range(1, 13)], games)


def test_amemiya_l2_hull_is_twice_the_luxemburg_one():
    """Amemiya's norm of power p = 2 is twice Luxemburg's: its Gram weights
    are 4 times theirs, the same after scaling by powers of two."""
    amemiya = SpaceHandle.orlicz_space(OrliczSpec.power(2), flavor="orlicz")
    for seed in range(30):
        x, A = _l2_instance(seed, members=4)
        lux, ame = project_hull(x, A, L2), project_hull(x, A, amemiya)
        assert ame.minimizers[0].coefficients == lux.minimizers[0].coefficients
        assert ame.distance == pytest.approx(2.0 * lux.distance, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("k", [-520, 520])
def test_wolfe_route_is_homogeneous_at_extreme_scales(k, games):
    """At c = 2^+-520 the squares in G would overflow or go subnormal: scaled
    by powers of two, the distance is c times the unscaled one."""
    c = 2.0 ** k
    for seed in range(20):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = project_hull(*_l2_instance(seed, c, members=5), L2, tol=1e-6 * c)
        unscaled = project_hull(*_l2_instance(seed, members=5), L2)
        assert r.distance == pytest.approx(c * unscaled.distance, rel=1e-12, abs=0.0)
    assert games == []


def test_hull_cap_on_corral_steps_raises_with_the_best_iterate(games):
    from rifs import NonConvergenceError

    x, A = _l2_instance(6, members=5)
    full = project_hull(x, A, L2)
    assert games == []
    # The start, then one entry per corral step.
    assert len(full.certificate) == full.iterations + 1 >= 4
    for cut_off in (1, 2, 3):
        with pytest.raises(NonConvergenceError) as exc:
            project_hull(x, A, L2, max_line_searches=full.iterations - cut_off)
        seen = full.certificate[:-cut_off]
        best = min(range(len(seen)), key=lambda i: (seen[i][1], i))
        assert exc.value.best == seen[best]


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


# ------------------------------------------------ the point from the cell table

def _combination_oracle(members, theta):
    """The minimizer point by step-function algebra: ``add(out, scale(a_i,
    theta_i))`` from zero over the nonzero coefficients."""
    out = StepFunction.zero(members[0].alpha)
    for coeff, m in zip(theta, members):
        if coeff != 0.0:
            out = add(out, scale(m, coeff))
    return out


def _random_function(rng, alpha):
    """1-3 pieces on [0, min(alpha, 6)) with values of either sign."""
    k = int(rng.integers(1, 4))
    ends = np.sort(rng.uniform(0.0, min(alpha, 6.0), 2 * k)).tolist()
    values = (rng.choice([-1.0, 1.0], k) * rng.uniform(0.1, 3.0, k)).tolist()
    return StepFunction.make(list(zip(ends[::2], ends[1::2], values)), alpha)


def _point_cases():
    """1-12 members on both domains, some with an empty target or a zero
    member, then an optimum on a face."""
    rng = np.random.default_rng(26)
    for k in range(36):
        alpha = math.inf if k % 2 else 1.0
        x = StepFunction.zero(alpha) if k % 8 < 2 else _random_function(rng, alpha)
        members = [_random_function(rng, alpha) for _ in range(1 + k % 12)]
        if k % 5 == 0:
            members[-1] = StepFunction.zero(alpha)
        yield x, members
    yield StepFunction.zero(), [indicator(0, 1, 3.0), indicator(0, 1), indicator(1, 2, 0.2)]


def _iterate_coefficients(result):
    """The coefficients minimizing_sequence keeps: those of the trace entries
    whose norm does not rise."""
    kept, best = [], math.inf
    for coeffs, val in result.certificate:
        if val <= best:
            best = val
            kept.append(coeffs)
    return kept


def test_hull_point_and_iterates_match_step_function_algebra():
    """The point settled from the cell table has the pieces of the add/scale
    chain, each iterate ``a_k - x`` those of ``add(point, scale(x, -1))``, and
    the table's values are those of ``StepFunction.values`` at the cell
    midpoints, bit for bit."""
    zero_coefficients = 0
    for x, members in _point_cases():
        space = L2 if x.alpha == math.inf else SpaceHandle.orlicz_space(OrliczSpec.power(2), alpha=1.0)
        A = _members(*members, hull=True)
        objective = _HullObjective(x, A.members, space)
        mids = 0.5 * (objective.lo + objective.hi)
        assert objective.xv.tobytes() == x.values(mids).tobytes()
        assert objective.member_vals.tobytes() == np.array(
            [m.values(mids) for m in members]).reshape(len(members), len(mids)).tobytes()
        r = project_hull(x, A, space)
        theta = r.minimizers[0].coefficients
        zero_coefficients += theta.count(0.0)
        assert r.minimizers[0].point == _combination_oracle(A.members, theta)
        chosen = _iterate_coefficients(r)[:4]
        seq = minimizing_sequence(x, A, space, len(chosen))
        assert seq == [add(_combination_oracle(A.members, c), scale(x, -1.0)) for c in chosen]
    assert zero_coefficients > 0


def test_hull_gap_after_another_point_matches_a_fresh_table():
    """The table keeps one residual, for the last point evaluated: a gap at
    an earlier point forms its own again and equals a fresh table's gap, cut
    included, bit for bit."""
    x = StepFunction.make([(0.0, 1.0, 1.0), (1.5, 3.0, -0.5)])
    members = (indicator(0, 2), indicator(0.5, 1.5, 2.0), StepFunction.make([(1, 3, -1.0)]))
    for space in (L2, SpaceHandle.orlicz_space(OrliczSpec.power(3)),
                  SpaceHandle.orlicz_space(OrliczSpec.power(2), "orlicz")):
        theta1, theta2 = [0.2, 0.3, 0.5], [0.5, 0.25, 0.25]
        objective = _HullObjective(x, members, space)
        val1, val2 = objective(theta1), objective(theta2)
        gap = objective.gap(theta1, val1)
        fresh = _HullObjective(x, members, space)
        assert (fresh(theta1), _HullObjective(x, members, space)(theta2)) == (val1, val2)
        assert gap.hex() == fresh.gap(theta1, val1).hex()
        assert objective.cuts == fresh.cuts


def test_hull_on_a_space_with_no_subgradient():
    """Lambda over w = t^0.5 on (0, 1), t^-2 beyond is no norm (w increases
    at first), so its cells have no subgradient: no cut exists and the gap
    is inf.  The search still ends at a point of the hull no worse than any
    vertex."""
    w = WeightSpec.make([(0, 1, 1, 0.5, 0), (1, "inf", 1, -2, 0)])
    space = SpaceHandle.lorentz_lambda(2.0, w)
    x = StepFunction.make([(0.0, 1.0, 1.0), (1.5, 3.0, -0.5)])
    A = _members(indicator(0, 2), indicator(0.5, 1.5, 2.0), StepFunction.make([(1, 3, -1.0)]),
                 hull=True)
    r = project_hull(x, A, space)
    best = r.minimizers[0]
    assert best.gap == math.inf
    assert all(r.distance <= norm(space, add(x, scale(m, -1.0))) for m in A.members)
    assert best.point == _combination_oracle(A.members, best.coefficients)


def test_hull_point_across_breakpoints_closer_than_merge_tol():
    """x's second piece starts 5e-13 before the members meet at 1, and make
    snaps it to x's first end.  The add/scale chain never sees x's cut and
    keeps 1; the cell table cuts at both, drops the sliver between them when
    it settles, and snaps the next cell to x's cut.  The two points agree to
    ``MERGE_TOL``, and so do the iterates."""
    cut = 1.0 - 0.5 * MERGE_TOL
    x = StepFunction.make([(0.0, cut, 1.0), (1.0, 2.0, 1.5)])
    A = _members(indicator(0, 1), indicator(1, 2, 2.0), hull=True)
    r = project_hull(x, A, L2)
    theta = r.minimizers[0].coefficients
    assert theta == pytest.approx((0.4, 0.6), abs=1e-6)
    oracle = _combination_oracle(A.members, theta)
    point = r.minimizers[0].point
    assert point != oracle and point.approx_equal(oracle)
    chosen = _iterate_coefficients(r)
    seq = minimizing_sequence(x, A, L2, len(chosen))
    for got, c in zip(seq, chosen):
        assert got.approx_equal(add(_combination_oracle(A.members, c), scale(x, -1.0)))


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

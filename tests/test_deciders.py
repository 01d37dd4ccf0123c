"""Decision criteria: Delta2, N-at-zero, K-order continuity, the fundamental
function cross-checks, reflexivity, approximative compactness, the RB_p
comparison, and the explicit associate/dual weight formulas."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rifs import (
    HypothesisNotMetError,
    OrliczSpec,
    SchemaError,
    SpaceHandle,
    WeightDomainError,
    WeightSpec,
    a_psi,
    a_psi_vs_phi_infty,
    embeds_in_L1,
    fundamental_function,
    fundamental_limits,
    gamma_approx_compact_decider,
    gamma_dual_weight,
    gamma_reflexive_decider,
    is_N_at_zero,
    is_delta2,
    lambda_associate_weight,
    orlicz_koc_decider,
    rbp_check,
)
from rifs.deciders import l1_embedding_limit, phi_infinity

INF = math.inf
POWER1 = OrliczSpec.power(1)
POWER2 = OrliczSpec.power(2)
EXP = OrliczSpec.exp_minus_one()
SHIFTED = OrliczSpec.shifted_power(1.0, 2.0)
W_HALF = WeightSpec.power(-0.5)


# ----------------------------------------------------------------------- a_psi

def test_a_psi_values():
    assert a_psi(POWER2) == 0.0
    assert a_psi(SHIFTED) == 1.0
    assert a_psi(EXP) == 0.0  # psi > 0 on (0, inf)
    assert a_psi(OrliczSpec.table([(1.0, 0.0), (2.0, 0.0), (3.0, 1.0)])) == 2.0


def test_exp_fundamental_function_unbounded():
    # a_psi = 0 exactly, so phi(inf) = inf and the cross-check agrees.
    space = SpaceHandle.orlicz_space(EXP)
    assert phi_infinity(space) == INF
    assert a_psi_vs_phi_infty(EXP).status == "holds"
    assert fundamental_limits(space)["phi_infinity_infinite"]


def test_phi_infinity_is_one_over_a_psi_in_both_flavors():
    # phi_Amemiya(t) <= 1/a_psi at k = a_psi and tends to it, as phi_Lux does.
    for psi, limit in ((OrliczSpec.table([(0.5, 0.0), (1.0, 1.0)]), 2.0), (SHIFTED, 1.0)):
        for flavor in ("luxemburg", "orlicz"):
            assert phi_infinity(SpaceHandle.orlicz_space(psi, flavor)) == limit


def test_a_psi_positive_iff_vanishing_region():
    for psi in (POWER1, POWER2, EXP):
        assert a_psi(psi) <= 1e-12


# --------------------------------------------------------------------- delta2

def test_delta2_power_holds_with_doubling_constant():
    v = is_delta2(OrliczSpec.power(3))
    assert v.holds and v.witness["K"] == 8.0


def test_delta2_exp_fails_with_large_u_witness():
    v = is_delta2(EXP)
    assert v.status == "fails"
    assert v.witness["u"] == 20.0
    assert v.witness["ratio"] == pytest.approx(math.expm1(40.0) / math.expm1(20.0), rel=1e-12)
    assert v.witness["ratio"] > 1e8


def test_delta2_shifted_power_fails_near_zero_set():
    v = is_delta2(SHIFTED)
    assert v.status == "fails" and v.witness["ratio"] > 1e6


def test_delta2_table_holds_with_exact_K():
    # psi(2u)/psi(u) peaks at u = 1: psi(2) = 1 + 29/9.
    v = is_delta2(OrliczSpec.table([(1.0, 1.0), (10.0, 30.0)]))
    assert v.status == "holds"
    assert v.witness["K"] == pytest.approx(38.0 / 9.0, rel=1e-12)


# Dyadic gaps and slopes keep every breakpoint value exact, so the table's
# own convexity check sees the slopes that were drawn.
convex_tables = st.tuples(
    st.lists(st.integers(1, 1600).map(lambda k: k / 16), min_size=1, max_size=6),  # gaps
    st.integers(1, 1600).map(lambda k: k / 16),                                # first slope
    st.lists(st.integers(0, 40).map(lambda k: k / 4), min_size=5, max_size=5),  # increments
)


@settings(max_examples=60, deadline=None)
@given(convex_tables)
def test_delta2_table_K_is_the_dense_grid_supremum(spec):
    gaps, slope, increments = spec
    points, t, v = [], 0.0, 0.0
    for gap, inc in zip(gaps, [0.0] + increments):
        slope += inc
        t, v = t + gap, v + slope * gap
        points.append((t, v))
    psi = OrliczSpec.table(points)
    K = is_delta2(psi).witness["K"]
    grid = np.geomspace(1e-6, 1e6, 200_001)
    ts = np.array([t for t, _ in points])
    candidates = np.concatenate([ts, 0.5 * ts])
    grid_ratio = psi.psi_many(2.0 * grid) / psi.psi_many(grid)
    cand_ratio = psi.psi_many(2.0 * candidates) / psi.psi_many(candidates)
    assert K >= grid_ratio.max() * (1.0 - 1e-12)
    assert K == pytest.approx(max(grid_ratio.max(), cand_ratio.max()), rel=1e-12)


@pytest.mark.parametrize("psi, u", [
    (OrliczSpec.table([(1.0, 0.0), (2.0, 5.0)]), 0.75),  # 0.75 a_psi
    (OrliczSpec.table([(1.0, 1.0), (2.0, 3.0), (4.0, 10.0)], inf_beyond=True), 4.0),  # T
])
def test_delta2_table_failure_witness(psi, u):
    v = is_delta2(psi)
    assert v.status == "fails"
    assert v.witness == {"u": u, "ratio": INF}


def test_delta2_table_with_zero_region_fails():
    v = is_delta2(OrliczSpec.table([(1.0, 0.0), (2.0, 5.0)]))
    assert v.status == "fails" and v.witness["ratio"] == INF


# ------------------------------------------------------------------ N-at-zero

def test_n_at_zero_power_split():
    assert is_N_at_zero(POWER2).holds
    v = is_N_at_zero(POWER1)
    assert v.status == "fails" and v.witness["ratio_limit"] == 1.0


def test_n_at_zero_shifted_and_exp():
    assert is_N_at_zero(SHIFTED).holds
    assert is_N_at_zero(EXP).status == "fails"


def test_n_at_zero_table_first_slope():
    assert is_N_at_zero(OrliczSpec.table([(1.0, 0.0), (2.0, 4.0)])).holds
    assert is_N_at_zero(OrliczSpec.table([(1.0, 0.5), (2.0, 4.0)])).status == "fails"


# ------------------------------------------------------------------------ KOC

def test_koc_table_of_verdicts():
    assert orlicz_koc_decider(POWER2, INF).holds
    v = orlicz_koc_decider(POWER1, INF)
    assert v.status == "fails" and v.witness["reason"] == "N-at-zero"
    assert orlicz_koc_decider(POWER1, 1.0).holds
    v = orlicz_koc_decider(EXP, INF)
    assert v.status == "fails" and v.witness["reason"] == "delta2"
    v = orlicz_koc_decider(EXP, 1.0)
    assert v.status == "fails" and v.witness["reason"] == "delta2"


def test_koc_power_family_sweep():
    for p in (1.1, 1.5, 2.0, 4.0, 8.0):
        assert orlicz_koc_decider(OrliczSpec.power(p), INF).holds


def test_koc_shifted_fails_via_delta2():
    v = orlicz_koc_decider(SHIFTED, 1.0)
    assert v.status == "fails" and v.witness["reason"] == "delta2"


def test_koc_decided_for_table():
    v = orlicz_koc_decider(OrliczSpec.table([(1.0, 1.0), (5.0, 9.0)]), 1.0)
    assert v.status == "holds"


# -------------------------------------------------------- a_psi vs phi(inf)

def test_a_psi_phi_agreement_power():
    v = a_psi_vs_phi_infty(POWER2)
    assert v.holds and v.probe_log["a_psi"] == 0.0


def test_a_psi_phi_agreement_shifted():
    v = a_psi_vs_phi_infty(SHIFTED)
    assert v.holds and v.probe_log["plateau_bound"] == 1.0


def test_a_psi_phi_inconclusive_on_slow_table():
    # a_psi = 1e-9 puts the plateau at 1e9, beyond the probe grid.
    psi = OrliczSpec.table([(1e-9, 0.0), (1.0, 1.0)])
    v = a_psi_vs_phi_infty(psi)
    assert v.status == "inconclusive"
    assert "exhausted" in v.probe_log


@pytest.mark.parametrize("psi", [
    *(OrliczSpec.power(p) for p in (11, 12, 50, 1e10)),
    EXP,
    OrliczSpec.table([(1.0, 0.5), (2.0, 4.0)]),
], ids=["power-11", "power-12", "power-50", "power-1e10", "exp", "table-slope-0.5"])
def test_a_psi_zero_means_phi_unbounded_for_every_growth(psi):
    # a_psi = psi^-1(0) = 0, so phi(t) = 1/psi^-1(1/t) -> inf however slowly
    # it grows on the sampled decades (power(1e10) rises by 1.8e-9 over them).
    v = a_psi_vs_phi_infty(psi)
    assert v.holds and v.probe_log["a_psi"] == 0.0
    assert "analytic" in v.probe_log and len(v.probe_log["grid"]) == 9


# -------------------------------------------------------------- L^1 embedding

def test_embeds_l1_gamma_never_under_dp():
    # Under D_p both W(t)/t^p and the W_p tail vanish, so d = 0 for every
    # admissible weight; the x**-based space never embeds in L^1.
    for w in (WeightSpec.constant(), W_HALF,
              WeightSpec.make([(0, 1, 1, -0.5, 0), (1, INF, 1, -2, 0)])):
        v = embeds_in_L1(SpaceHandle.lorentz_gamma(2.0, w))
        assert v.status == "fails" and v.witness["d"] == 0.0
        ratios = [r for _, r in v.probe_log["phi_over_t"]]
        assert all(a >= b - 1e-12 for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] < 0.01 * ratios[0] + 1e-12


def test_embeds_l1_orlicz_cases():
    assert embeds_in_L1(SpaceHandle.orlicz_space(POWER1)).holds          # it is L^1
    assert embeds_in_L1(SpaceHandle.orlicz_space(POWER2)).status == "fails"
    assert embeds_in_L1(SpaceHandle.orlicz_space(SHIFTED)).status == "fails"
    v = embeds_in_L1(SpaceHandle.orlicz_space(EXP))
    assert v.holds and v.witness["d"] == 1.0


def test_embeds_l1_lambda_tail_rule():
    # W(t) ~ t^2/2 for w = t: phi(t)/t -> (1/2)^(1/2) > 0.
    v = embeds_in_L1(SpaceHandle.lorentz_lambda(2.0, WeightSpec.power(1.0)))
    assert v.holds and v.witness["d"] == pytest.approx(math.sqrt(0.5))
    v = embeds_in_L1(SpaceHandle.lorentz_lambda(2.0, WeightSpec.constant()))
    assert v.status == "fails"


def test_lambda_l1_limit_on_the_boundary_tail_matches_phi_over_t():
    # w = t^(p-1) puts the tail exactly on exponent a + 1 - p = 0, where
    # phi(t)/t = (W(t)/t^p)^(1/p) = (1/p)^(1/p) at every t; the float
    # a + 1 - p misses 0 on 39 of these 299 two-decimal pairs.
    for k in range(101, 400):
        p, a = k / 100, (k - 100) / 100
        space = SpaceHandle.lorentz_lambda(p, WeightSpec.power(a))
        d = l1_embedding_limit(space)
        assert d == pytest.approx(fundamental_function(space, 1e8) / 1e8, rel=1e-12), (p, a)


def test_embeds_l1_lambda_reads_the_origin_too():
    """||chi_(0,t)||_1 / ||chi_(0,t)|| = t / phi(t) must stay bounded at both
    ends.  L^(1/2) (Lambda_(1/2) of w = 1) has phi(t)/t = t and Lambda_2 of
    w = t^1.5 has phi(t)/t = (2/5)^(1/2) t^(1/4): both tend to inf at inf and
    to 0 at 0, so neither embeds in L^1."""
    for p, w in ((0.5, WeightSpec.constant()), (2.0, WeightSpec.power(1.5))):
        space = SpaceHandle.lorentz_lambda(p, w)
        assert l1_embedding_limit(space) == 0.0, p
        v = embeds_in_L1(space)
        assert v.status == "fails" and v.witness == {"d": 0.0}, p
    # A head exponent a + 1 - p < 0 leaves the tail's limit: w = t^-0.5 on
    # (0, 1), then 1 beyond, in Lambda_1 has phi(t)/t -> 2/sqrt(t) at 0 and
    # 1 at inf.
    w = WeightSpec.make([(0, 1, 1, -0.5, 0), (1, INF, 1, 0, 0)])
    assert l1_embedding_limit(SpaceHandle.lorentz_lambda(1.0, w)) == 1.0
    # a + 1 - p = 0 at both ends: the smaller coefficient, here the head's.
    w = WeightSpec.make([(0, 1, 0.5, 0, 0), (1, INF, 1, 0, 0)])
    assert l1_embedding_limit(SpaceHandle.lorentz_lambda(1.0, w)) == 0.5


def test_embeds_l1_requires_infinite_domain():
    with pytest.raises(SchemaError):
        embeds_in_L1(SpaceHandle.orlicz_space(POWER1, alpha=1.0))


def test_associate_fundamental_in_probe_log():
    v = embeds_in_L1(SpaceHandle.lorentz_gamma(2.0, W_HALF))
    pairs = v.probe_log["associate_fundamental"]
    assert all(b > a for (_, a), (_, b) in zip(pairs, pairs[1:]))  # t/phi(t) grows


# ----------------------------------------------------------------- reflexivity

def test_reflexive_sqrt_weight_with_numeric_confirmation():
    v = gamma_reflexive_decider(2.0, W_HALF)
    assert v.holds
    assert v.probe_log["V_numeric_1_to_1e6"] > 1e3
    assert v.probe_log["V_tail"]["t_exponent"] == pytest.approx(0.5)


def test_reflexive_fails_on_integrable_tail():
    w = WeightSpec.make([(0, 1, 1, -0.5, 0), (1, INF, 1, -2, 0)])
    v = gamma_reflexive_decider(2.0, w)
    assert v.status == "fails" and v.witness["stage"] == "W-infinity"


def test_reflexive_inconclusive_when_prerequisite_fails():
    w = WeightSpec.make([(0, 1, 0, 0, 0), (1, INF, 1, -0.5, 0)])
    v = gamma_reflexive_decider(2.0, w)
    assert v.status == "inconclusive"
    assert not v.probe_log["prerequisite"]["holds"]


def test_reflexive_prerequisite_boundary_exponent():
    # a - p = -1 diverges at the origin (boundary case of the rule)
    w = WeightSpec.power(1.0, end=INF)  # a = 1, p = 2; fails D_p though
    with pytest.raises(WeightDomainError):
        gamma_reflexive_decider(2.0, w)
    w_log = WeightSpec.make([(0, INF, 1, 1.0, -2.0)])  # D_p ok via log correction
    v = gamma_reflexive_decider(2.0, w_log)
    assert v.holds


def test_reflexive_decides_the_boundary_tail_a_equal_p_minus_1():
    # a = p - 1 is in D_p for b < -1, and there v ~ t^-1 log^((-b-p)/(p-1)),
    # whose log exponent is >= -1: V diverges.  In floats 0.13 / 0.13 missed
    # -1 by two ulps and the verdict was "fails".
    w = WeightSpec.make([(0, 1, 1, -0.5, 0), (1, INF, 1, 0.13, -2)])
    v = gamma_reflexive_decider(1.13, w)
    assert v.holds
    assert v.probe_log["V_tail"]["t_exponent"] == -1.0
    assert v.probe_log["V_tail"]["log_exponent"] == pytest.approx((2.0 - 1.13) / 0.13)


def test_reflexive_numeric_probe_does_not_overflow_near_p_one():
    # p' - 1 = 100 at p = 1.01: t^(p'-1) and (W + W_p)^(p'+1) overflowed.
    w = WeightSpec.make([(0, 1, 1, -0.5, 0), (1, INF, 1, 0.01, -2)])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        v = gamma_reflexive_decider(1.01, w)
    assert v.holds
    assert math.isfinite(v.probe_log["V_numeric_1_to_1e6"])


def test_reflexive_numeric_probe_beyond_the_float_range_answers():
    """At p = 1.01 on this weight the integral of v over [1, 1e6] is about
    2^1162, past the largest float: the sample is taken in logs, so no
    overflow warning fires, and its log2 carries the size."""
    w = WeightSpec.make([(0, 2.88, 1.27, -0.04, 0), (2.88, INF, 1.63, -1.0, 1.29)])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        v = gamma_reflexive_decider(1.01, w)
    assert v.holds
    assert v.probe_log["V_numeric_1_to_1e6"] == INF
    assert 1024.0 < v.probe_log["log2_V_numeric_1_to_1e6"] < INF


def test_reflexive_log_tail_a_equal_minus_one():
    """Tail a = -1, b >= -1: W ~ log^(b+1) diverges and dominates W_p, so
    v ~ t^(p'-1) log^(b - (b+1) p'), here t^1 log^-1.5 at p = 2: V diverges."""
    w = WeightSpec.make([(0, 1, 1, -0.5, 0), (1, INF, 1, -1.0, -0.5)])
    v = gamma_reflexive_decider(2.0, w)
    assert v.holds
    assert v.probe_log["V_tail"] == {"t_exponent": 1.0, "log_exponent": -1.5, "diverges": True}


def test_reflexive_validates_p():
    with pytest.raises(SchemaError):
        gamma_reflexive_decider(1.0, W_HALF)


# --------------------------------------------------- approximative compactness

def test_approx_compact_strictly_increasing_weight():
    assert gamma_approx_compact_decider(2.0, W_HALF).holds


def test_approx_compact_flat_piece_witness():
    w = WeightSpec.make([(0, 1, 1, -0.5, 0), (1, 3, 0, 0, 0), (3, INF, 1, -0.5, 0)])
    v = gamma_approx_compact_decider(2.0, w)
    assert v.status == "fails" and v.witness["flat_interval"] == [1.0, 3.0]
    assert v.probe_log["reflexive"]["status"] == "holds"


def test_approx_compact_propagates_reflexivity_failure():
    w = WeightSpec.make([(0, 1, 1, -0.5, 0), (1, INF, 1, -2, 0)])
    v = gamma_approx_compact_decider(2.0, w)
    assert v.status == "fails" and v.witness["reason"] == "not-reflexive"


def test_approx_compact_implies_reflexive_on_battery():
    battery = [
        W_HALF,
        WeightSpec.constant(),
        WeightSpec.make([(0, 1, 1, -0.5, 0), (1, INF, 1, -2, 0)]),
        WeightSpec.make([(0, 1, 0, 0, 0), (1, INF, 1, -0.5, 0)]),
        WeightSpec.make([(0, 1, 1, -0.5, 0), (1, 3, 0, 0, 0), (3, INF, 1, -0.5, 0)]),
    ]
    for w in battery:
        ac = gamma_approx_compact_decider(2.0, w)
        if ac.holds:
            assert gamma_reflexive_decider(2.0, w).holds


# ------------------------------------------------------------ weight formulas

def test_associate_weight_unit():
    v = lambda_associate_weight(2.0, WeightSpec.constant())
    for t in np.geomspace(1e-5, 1e5, 40):
        assert v.value(float(t)) == pytest.approx(1.0, abs=1e-9)
    assert math.isinf(v.W_infinity())


def test_associate_weight_sqrt_law():
    # v(t) = (t / 2 sqrt(t))^2 * t^(-1/2) = sqrt(t) / 4
    v = lambda_associate_weight(2.0, W_HALF)
    for t in np.geomspace(1e-4, 1e4, 40):
        assert v.value(float(t)) == pytest.approx(math.sqrt(t) / 4.0, rel=1e-9)
    assert math.isinf(v.W_infinity())


def test_associate_weight_head_inside_a_first_piece_ending_at_the_grid_start():
    # On w's first piece (0, 1e-6), v = (t / 0.5 t)^2 * 0.5 = 2.  A head
    # sample at the grid start 1e-6 reads the second piece instead.
    w = WeightSpec.make([(0, 1e-6, 0.5, 0, 0), (1e-6, INF, 0.5, 0.25, 0)])
    v = lambda_associate_weight(2.0, w)
    for t in (1e-9, 7e-7):
        assert v.value(t) == pytest.approx(2.0, rel=1e-12)


def test_associate_weight_nonnegative_everywhere():
    w = WeightSpec.make([(0, 2, 1.0, -0.25, 0), (2, INF, 0.5, 0.25, 0)])
    v = lambda_associate_weight(2.0, w)
    ts = np.geomspace(1e-6, 1e6, 200)
    assert np.all(v.values(ts) >= 0.0)


def test_associate_weight_hypothesis_failures():
    with pytest.raises(HypothesisNotMetError):
        lambda_associate_weight(2.0, WeightSpec.make([(0, 1, 0, 0, 0), (1, INF, 1, 0, 0)]))
    with pytest.raises(HypothesisNotMetError):
        lambda_associate_weight(2.0, WeightSpec.make([(0, 1, 1, -0.5, 0), (1, INF, 1, -2, 0)]))


def test_associate_weight_refuses_a_zero_piece_below_any_probe_grid():
    # W = 0 on (0, 1e-9), so W(2t)/W(t) = inf on [5e-10, 1e-9).
    with pytest.raises(HypothesisNotMetError):
        lambda_associate_weight(2.0, WeightSpec.make([(0, 1e-9, 0, 0, 0), (1e-9, INF, 1, 0, 0)]))


# Weights of 1-3 pieces with breakpoints in 1e-11..1e3.  The first piece may
# vanish (c = 0) or fail to be integrable at 0 (a <= -1); only the last piece
# carries a log factor, which keeps the quadrature behind W to one piece.
doubling_weights = st.tuples(
    st.lists(st.integers(-11, 3), min_size=0, max_size=2, unique=True),  # log10 breakpoints
    st.lists(st.tuples(st.sampled_from([0.0, 0.5, 2.0]),                # c
                       st.integers(-6, 12).map(lambda k: k / 4)),       # a
             min_size=3, max_size=3),
    st.sampled_from([0.0, 0.0, -1.5, 1.0]),                             # b of the last piece
)


@settings(max_examples=30, deadline=None)
@given(doubling_weights)
@example(([-9], [(0.0, 0.0), (1.0, 0.0), (1.0, 0.0)], 0.0))
def test_doubling_rule_matches_dense_grid(spec):
    # ROADMAP item 10's gate.  On t_j = 1e-12 * 2^(j/2) up to 1e12, 2 t_j is
    # t_(j+2), so W(2t)/W(t) is read off one column of W.
    exps, shapes, b = spec
    cuts = [0.0, *(10.0 ** e for e in sorted(exps)), INF]
    bs = [0.0] * (len(cuts) - 2) + [b]
    w = WeightSpec.make([(lo, hi, c, a, b_) for lo, hi, (c, a), b_
                         in zip(cuts, cuts[1:], shapes, bs)])
    first = w.pieces[0]
    rule = first.c > 0 and first.a > -1.0
    Ws = [w.W(float(t)) for t in 1e-12 * 2.0 ** (np.arange(2 * 80 + 1) / 2.0)]
    assert all(0.0 < lo < INF for lo in Ws) == rule
    if not rule:
        with pytest.raises(HypothesisNotMetError, match="doubling"):
            lambda_associate_weight(2.0, w)
        return
    ratios = [hi / lo for lo, hi in zip(Ws, Ws[2:])]
    assert max(ratios) < INF
    # A log head is integrated by quadrature, whose error estimate is not
    # scale-invariant (ROADMAP item 4): W(1e-12) of 0.5 t^0.25 log(e+t)^b is
    # off by 1.3e-5 relative.  A power head is a closed form.
    rel = 1e-9 if first.b == 0.0 else 1e-4
    assert ratios[0] == pytest.approx(2.0 ** (first.a + 1.0), rel=rel)
    if b == 0.0:  # the associate weight tabulates W at 400 points
        if math.isinf(w.W_infinity()):
            assert lambda_associate_weight(2.0, w).pieces
        else:
            with pytest.raises(HypothesisNotMetError, match="W\\(inf\\)"):
                lambda_associate_weight(2.0, w)


# ------------------------------------------------------------------------ RB_p

def test_rbp_exact_ratios():
    v = rbp_check(2.0, W_HALF)
    assert v.holds and v.witness["A"] == pytest.approx(3.0, abs=1e-6)
    v = rbp_check(2.0, WeightSpec.constant())
    assert v.holds and v.witness["A"] == pytest.approx(1.0, abs=1e-6)


def test_rbp_verdict_does_not_depend_on_the_scale_of_w():
    """RB_p and A are the same for w and lambda w.  At c = 1e-320, W_p
    underflowed to 0 at t = 1e-8 ("W_p vanishes"); at c = 1e-310 A read
    3.1139."""
    ref = rbp_check(2.0, WeightSpec.make([(0, INF, 1.0, -0.5, 0)])).to_dict()
    assert ref["status"] == "holds"
    for j in range(-1074, 1001):
        got = rbp_check(2.0, WeightSpec.make([(0, INF, math.ldexp(1.0, j), -0.5, 0)]))
        assert got.status == ref["status"], j
        assert got.witness["A"].hex() == ref["witness"]["A"].hex(), j
    # c 2^1993 apart: no shift keeps both normal, and w is sampled as given.
    w = WeightSpec.make([(0, 1, 1e300, -0.5, 0), (1, INF, 1e-300, -0.5, 0)])
    assert rbp_check(2.0, w).status == "holds"


def test_rbp_constant_beyond_the_float_range_is_reported_in_logs():
    """w = 1e300 t^-1/2 on (0, 1) and 1e-300 t^-1/2 beyond: at t = 1,
    W = 2e300 and W_p = (2/3) 1e-300, so A = 3e600 overflows a float.  A
    holding verdict carries it as log2_A; where A is finite, log2_A is its
    log2."""
    w = WeightSpec.make([(0, 1, 1e300, -0.5, 0), (1, INF, 1e-300, -0.5, 0)])
    v = rbp_check(2.0, w)
    assert v.holds and v.witness["A"] == INF
    assert v.witness["log2_A"] == pytest.approx(600.0 * math.log2(10.0) + math.log2(3.0), rel=1e-12)
    v = rbp_check(2.0, W_HALF)
    assert v.witness["log2_A"] == math.log2(v.witness["A"])


def test_rbp_fails_when_weight_concentrates_near_zero():
    w = WeightSpec.make([(0, 1, 1, 0, 0), (1, INF, 0, 0, 0)])
    v = rbp_check(2.0, w)
    assert v.status == "fails" and v.witness["ratio"] == INF


def test_rbp_fails_on_borderline_tail():
    # a = -1 tail with W(inf) = inf: W grows like log while W_p stays bounded.
    w = WeightSpec.make([(0, 1, 1, -0.5, 0), (1, INF, 1, -1.0, 0)])
    v = rbp_check(2.0, w)
    assert v.status == "fails"


# ----------------------------------------------------------------- dual weight

def test_dual_weight_unit():
    v = gamma_dual_weight(2.0, WeightSpec.constant())
    for t in np.geomspace(1e-5, 1e5, 40):
        assert v.value(float(t)) == pytest.approx(1.0, abs=1e-6)
    assert math.isinf(v.W_infinity())


def test_dual_weight_sqrt_law():
    # inner integral (2/3) t^(-3/2); v = d/dt (3/2 t^(3/2))^... = (9/4) sqrt(t)
    v = gamma_dual_weight(2.0, W_HALF)
    for t in np.geomspace(1e-4, 1e4, 40):
        assert v.value(float(t)) == pytest.approx(2.25 * math.sqrt(t), rel=1e-6)


def test_dual_weight_matches_central_difference_oracle():
    # Oracle: central differences of g(t)^(-1/(p-1)) on a log grid.  Pure
    # power weights reproduce exactly; mixed weights go through the tabulated
    # power-piece representation, whose log-grid resolution bounds agreement.
    p = 2.0
    cases = [(WeightSpec.constant(), 1e-9), (W_HALF, 1e-9),
             (WeightSpec.make([(0, 1, 2.0, -0.5, 0), (1, INF, 1.0, -0.75, 0)]), 1e-3)]
    for w, rel in cases:
        v = gamma_dual_weight(p, w)

        def transformed(t):
            return w.wp_tail_integral(p, t) ** (-1.0 / (p - 1.0))

        boundaries = [pc.t0 for pc in w.pieces]
        for t in np.geomspace(1e-3, 1e3, 25):
            if any(abs(t - b) < 1e-3 * max(1.0, b) for b in boundaries):
                continue  # v jumps with w; the symmetric difference is ill-posed there
            h = t * 1e-4
            oracle = (transformed(t + h) - transformed(t - h)) / (2.0 * h)
            assert v.value(float(t)) == pytest.approx(oracle, rel=rel)


def test_dual_weight_v_infinity_confirmed():
    # V(t) = g(t)^(-1/(p-1)) exactly, and g -> 0 forces V(inf) = inf.
    for w in (WeightSpec.constant(), W_HALF):
        g_far = w.wp_tail_integral(2.0, 1e9)
        assert g_far ** (-1.0) > 1e6
        assert math.isinf(gamma_dual_weight(2.0, w).W_infinity())


def test_dual_weight_hypothesis_failures():
    with pytest.raises(HypothesisNotMetError):
        gamma_dual_weight(2.0, WeightSpec.make([(0, 1, 1, -0.5, 0), (1, INF, 1, -2, 0)]))
    # in D_p but the origin integral of w s^(-p) converges
    with pytest.raises(HypothesisNotMetError):
        gamma_dual_weight(2.0, WeightSpec.make([(0, 1, 1, 1.5, 0), (1, INF, 1, -0.5, 0)]))


@pytest.mark.parametrize("formula, tail_a", [(lambda_associate_weight, 0.25),
                                             (gamma_dual_weight, -0.5)])
def test_weight_formulas_accept_a_piece_start_at_a_decade(formula, tail_a):
    # geomspace gives 9.999999999999999e-06 beside the piece start 1e-5; the
    # sliver cell between them made the power fit divide by log(1) = 0.
    w = WeightSpec.make([(0, 1e-5, 0.5, 0, 0), (1e-5, INF, 0.5, tail_a, 0)])
    v = formula(2.0, w)
    assert all(pc.t1 > pc.t0 * (1.0 + 1e-9) for pc in v.pieces)
    for t in (1.3e-5, 3e-5, 1e-3):
        if formula is lambda_associate_weight:
            want = (t / w.W(t)) ** 2 * w.value(t)
        else:
            want = w.wp_tail_integral(2.0, t) ** -2 * t ** -2 * w.value(t)
        assert v.value(t) == pytest.approx(want, rel=1e-2)


def test_weight_formula_outputs_nonnegative():
    for w in (WeightSpec.constant(), W_HALF):
        for out in (lambda_associate_weight(2.0, w), gamma_dual_weight(2.0, w)):
            ts = np.geomspace(1e-6, 1e6, 120)
            assert np.all(out.values(ts) >= 0.0)

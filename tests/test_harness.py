"""Property harness: core suite, K-monotonicity, the shrinking-chain table,
fundamental limits, rotundity and strict-K-monotonicity probes, and witness
replayability."""

import math

import pytest

from rifs import (
    OrliczSpec,
    SchemaError,
    SpaceHandle,
    StepFunction,
    TrialConfig,
    WeightSpec,
    dukm_sequence_run,
    fundamental_limits,
    gamma_norm,
    hlp_dominates,
    random_step,
    rearrange,
    rotundity_probe,
    run_core_suite,
    run_kmono_suite,
    skm_probe,
)

INF = math.inf
W_HALF = WeightSpec.power(-0.5)
GAMMA_HALF = SpaceHandle.lorentz_gamma(2.0, W_HALF)
L1 = SpaceHandle.orlicz_space(OrliczSpec.power(1))
L2 = SpaceHandle.orlicz_space(OrliczSpec.power(2))
W_FLAT = WeightSpec.make([(0, 1, 1, -0.5, 0), (1, 3, 0, 0, 0), (3, INF, 1, -0.5, 0)])


def test_trial_config_validation():
    with pytest.raises(SchemaError):
        TrialConfig(trials=0)
    with pytest.raises(SchemaError):
        TrialConfig(value_range=(2.0, 1.0))


def test_random_step_deterministic_per_seed_and_trial():
    cfg = TrialConfig(seed=3, trials=1)
    assert random_step(cfg, 5) == random_step(cfg, 5)
    assert random_step(cfg, 5) != random_step(cfg, 6)
    assert random_step(TrialConfig(seed=4, trials=1), 5) != random_step(cfg, 5)


def test_random_step_alpha_one_fits_domain():
    cfg = TrialConfig(seed=5, trials=1, max_pieces=8)
    for trial in range(50):
        x = random_step(cfg, trial, alpha=1.0)
        assert x.support_end <= 1.0


# ------------------------------------------------------------------ core suite

def test_core_suite_clean():
    rep = run_core_suite(TrialConfig(seed=101, trials=300))
    assert rep.verdict == "no-violation-found"
    assert rep.trials == 300


def test_core_suite_single_trial():
    rep = run_core_suite(TrialConfig(seed=102, trials=1))
    assert rep.trials == 1 and rep.verdict == "no-violation-found"


def test_core_suite_gate_ten_thousand_trials():
    # Gate for the rearrangement core: zero violations at tolerance 1e-9.
    rep = run_core_suite(TrialConfig(seed=104, trials=10_000, tolerance=1e-9))
    assert rep.verdict == "no-violation-found"


def _corrupted_rearrange(x: StepFunction) -> StepFunction:
    """Self-test stub: drops the largest piece of the true rearrangement."""
    star = rearrange(x)
    if len(star.pieces) <= 1:
        return star
    return StepFunction.make(star.pieces[1:], star.alpha)


def test_core_suite_detects_planted_violation_with_replayable_witness():
    cfg = TrialConfig(seed=103, trials=50)
    rep = run_core_suite(cfg, rearrange_fn=_corrupted_rearrange)
    assert rep.verdict == "violation"
    wit = rep.violations[0]
    assert wit["seed"] == cfg.seed
    # Replay: the witness trial regenerates the same input deterministically.
    x = random_step(cfg, wit["trial"], stream=0)
    assert x.to_json() == wit["x"]
    again = run_core_suite(cfg, rearrange_fn=_corrupted_rearrange)
    assert again.violations[0] == wit
    # x* is kept on each function: the stub's violations neither hide behind
    # it nor carry over into a clean run of the same trials.
    assert run_core_suite(cfg).verdict == "no-violation-found"


# ----------------------------------------------------------------- kmono suite

@pytest.mark.parametrize("space", [
    GAMMA_HALF,
    SpaceHandle.lorentz_lambda(2.0, W_HALF),   # decreasing weight
    L2,
], ids=["gamma", "lambda-decreasing", "orlicz-power2"])
def test_kmono_no_violations(space):
    rep = run_kmono_suite(space, TrialConfig(seed=107, trials=200))
    assert rep.verdict == "no-violation-found"


# ------------------------------------------------------------------ dukm table

def test_dukm_l1_constant_identity():
    rows = dukm_sequence_run(L1, 20)
    for r in rows:
        assert r["norm_diff"] == pytest.approx(1.0, abs=1e-12)
        assert r["identity_gap"] <= 1e-12
        assert r["chain_ok"]


def test_dukm_gamma_quantity_decreases_to_zero():
    rows = dukm_sequence_run(GAMMA_HALF, 60)
    diffs = [r["norm_diff"] for r in rows]
    assert all(a > b for a, b in zip(diffs, diffs[1:]))
    assert diffs[-1] < diffs[0] / 5.0
    assert all(r["identity_gap"] <= 1e-9 for r in rows)


def test_dukm_single_row():
    rows = dukm_sequence_run(L1, 1)
    assert len(rows) == 1 and rows[0]["chain_ok"]


def test_dukm_requires_infinite_domain():
    with pytest.raises(SchemaError):
        dukm_sequence_run(SpaceHandle.orlicz_space(OrliczSpec.power(1), alpha=1.0), 3)


# ---------------------------------------------------------- fundamental limits

def test_limits_gamma_unit_weight():
    rep = fundamental_limits(SpaceHandle.lorentz_gamma(2.0, WeightSpec.constant()))
    assert rep["phi_infinity_infinite"]
    assert rep["d_limit"] == 0.0
    assert rep["embeds_L1"]["status"] == "fails"


def test_limits_l1():
    rep = fundamental_limits(L1)
    assert rep["phi_infinity_infinite"]
    assert rep["d_limit"] == 1.0
    assert rep["embeds_L1"]["status"] == "holds"


def test_limits_shifted_power_bounded_phi():
    rep = fundamental_limits(SpaceHandle.orlicz_space(OrliczSpec.shifted_power(1.0, 2.0)))
    assert not rep["phi_infinity_infinite"]
    assert rep["phi_infinity"] == pytest.approx(1.0)


# ------------------------------------------------------------- rotundity probe

def test_rotundity_l2_no_violation():
    rep = rotundity_probe(L2, 6, TrialConfig(seed=109, trials=150))
    assert rep.verdict == "no-violation-found"


def test_rotundity_l1_seeded_violation():
    rep = rotundity_probe(L1, 6, TrialConfig(seed=109, trials=1000))
    assert rep.verdict == "violation"
    assert rep.violations[0]["origin"] == "seed-disjoint-cells"
    assert rep.violations[0]["sum_norm"] >= 2.0 - 1e-9


def test_rotundity_sup_norm_table_violation():
    sup_space = SpaceHandle.orlicz_space(OrliczSpec.table([(1.0, 0.0)], inf_beyond=True))
    rep = rotundity_probe(sup_space, 6, TrialConfig(seed=109, trials=300))
    assert rep.verdict == "violation"


# ------------------------------------------------------------------- skm probe

def test_skm_flat_weight_seeded_pair():
    space = SpaceHandle.lorentz_gamma(2.0, W_FLAT)
    rep = skm_probe(space, TrialConfig(seed=113, trials=20))
    assert rep.verdict == "violation"
    wit = next(v for v in rep.violations if v["origin"].startswith("seed-flat-weight"))
    x = StepFunction.from_json(wit["x"])
    y = StepFunction.from_json(wit["y"])
    assert hlp_dominates(x, y)
    assert not rearrange(x).approx_equal(rearrange(y))
    assert gamma_norm(x, 2.0, W_FLAT) == pytest.approx(gamma_norm(y, 2.0, W_FLAT), abs=1e-9)


def test_skm_strict_weight_no_random_violation():
    rep = skm_probe(GAMMA_HALF, TrialConfig(seed=113, trials=500))
    assert rep.verdict == "no-violation-found"


def test_skm_l1_violation_via_equal_mass_seed():
    rep = skm_probe(L1, TrialConfig(seed=113, trials=10))
    assert rep.verdict == "violation"
    assert any(v["origin"] == "seed-equal-mass" for v in rep.violations)

"""Orlicz machinery: Young conjugate, modular, Luxemburg and Amemiya norms.

The Amemiya-form norm is cross-validated against a brute-force discretized
version of the dual-pairing supremum, which is an independent lower bound.
"""

import itertools
import math
import warnings

import numpy as np
import pytest

from rifs import (
    OrliczSpec,
    SchemaError,
    StepFunction,
    TrialConfig,
    indicator,
    luxemburg_norm,
    modular,
    orlicz_norm,
    random_step,
    rearrange,
    young_conjugate,
)


# -------------------------------------------------------------- construction

def test_power_requires_convexity():
    with pytest.raises(SchemaError):
        OrliczSpec.power(0.5)


def test_table_requires_convexity():
    with pytest.raises(SchemaError):
        OrliczSpec.table([(1.0, 2.0), (2.0, 2.5)])  # slopes decrease


def test_table_must_tend_to_infinity():
    # With the origin prepended and slopes nondecreasing, the only convex
    # table whose final slope is not positive is the all-zero one.
    with pytest.raises(SchemaError, match="tend to infinity"):
        OrliczSpec.table([(1.0, 0.0), (2.0, 0.0)])  # bounded, no inf_beyond
    psi = OrliczSpec.table([(1.0, 0.0), (2.0, 0.0)], inf_beyond=True)
    assert psi.psi(0.0) == 0.0 and psi.psi(2.0) == 0.0
    assert psi.psi(2.5) == math.inf
    # inf_beyond does not lift the convexity check: slopes 1 then 0.
    with pytest.raises(SchemaError, match="convex"):
        OrliczSpec.table([(1.0, 1.0), (2.0, 1.0)], inf_beyond=True)


def test_table_needs_a_point_beyond_the_origin():
    # psi = inf on all of (0, inf) would leave L^psi = {0}.
    for points in ([], [(0.0, 0.0)]):
        for inf_beyond in (False, True):
            with pytest.raises(SchemaError, match="t > 0"):
                OrliczSpec.table(points, inf_beyond=inf_beyond)


def test_table_prepends_origin_and_interpolates():
    psi = OrliczSpec.table([(1.0, 0.0), (2.0, 3.0)])
    assert psi.psi(0.5) == 0.0
    assert psi.psi(1.5) == pytest.approx(1.5)
    assert psi.psi(4.0) == pytest.approx(9.0)  # linear extension


def test_table_inf_beyond():
    psi = OrliczSpec.table([(1.0, 0.0)], inf_beyond=True)
    assert psi.psi(0.9) == 0.0
    assert math.isinf(psi.psi(1.1))
    assert not psi.finite_valued


def test_psi_even():
    for psi in (OrliczSpec.power(2), OrliczSpec.shifted_power(1, 2),
                OrliczSpec.exp_minus_one()):
        for u in (0.3, 1.7, 4.0):
            assert psi.psi(-u) == psi.psi(u)


# ------------------------------------------------------------ young conjugate

def test_young_self_conjugate_family():
    psi = OrliczSpec.power(2, 0.5)  # psi(t) = t^2 / 2
    assert young_conjugate(psi, 1.0) == pytest.approx(0.5, abs=1e-10)


def test_young_power_stationarity_formula():
    # For psi(t) = |t|^p / p the conjugate is |u|^p' / p'.
    for p in (1.5, 2.0, 3.0):
        psi = OrliczSpec.power(p, 1.0 / p)
        pp = p / (p - 1.0)
        for u in (0.5, 1.0, 2.5):
            assert young_conjugate(psi, u) == pytest.approx(u ** pp / pp, rel=1e-9)


def test_young_at_zero():
    assert young_conjugate(OrliczSpec.exp_minus_one(), 0.0) == 0.0


def test_young_linear_psi_diverges():
    psi = OrliczSpec.power(1)  # psi(t) = |t|
    assert young_conjugate(psi, 0.5) == 0.0
    assert math.isinf(young_conjugate(psi, 2.0))


def test_young_exp_closed_form():
    # conjugate of e^v - 1 is u log u - u + 1 for u >= 1.
    psi = OrliczSpec.exp_minus_one()
    for u in (1.5, 3.0, 10.0):
        assert young_conjugate(psi, u) == pytest.approx(u * math.log(u) - u + 1.0, rel=1e-8)


@pytest.mark.parametrize("psi,u,exact", [
    (OrliczSpec.table([(1.0, 1.0), (2.0, 3.0)]), 1.5, 0.5),
    (OrliczSpec.table([(1.0, 1.0), (2.0, 3.0)]), 2.0, 1.0),
    (OrliczSpec.table([(1.0, 1.0), (2.0, 3.0)]), 2.5, math.inf),
    (OrliczSpec.table([(1.0, 1.0), (2.0, 3.0)], inf_beyond=True), 5.0, 7.0),
    (OrliczSpec.shifted_power(1.0, 2.0), 3.0, 5.25),
    (OrliczSpec.shifted_power(1.0, 1.0), 0.5, 0.5),
    (OrliczSpec.shifted_power(1.0, 1.0), 2.0, math.inf),
    (OrliczSpec.exp_minus_one(), math.e, 1.0),
    (OrliczSpec.exp_minus_one(), 0.5, 0.0),
])
def test_young_conjugate_exact_values(psi, u, exact):
    # The sup of u v - psi(v) sits at a table breakpoint, at v = a + (u/p)^(1/(p-1))
    # for the shifted power and at v = log u for exp - 1.
    assert young_conjugate(psi, u) == exact


def test_young_numeric_matches_grid_sup():
    psi = OrliczSpec.shifted_power(1.0, 2.0)
    vs = np.linspace(0.0, 50.0, 200001)
    for u in (0.5, 1.0, 3.0):
        grid_sup = np.max(u * vs - psi.psi_many(vs))
        assert young_conjugate(psi, u) >= grid_sup - 1e-9
        assert young_conjugate(psi, u) == pytest.approx(grid_sup, rel=1e-6)


# ----------------------------------------------------------------- modular

def test_modular_examples():
    p2 = OrliczSpec.power(2)
    assert modular(indicator(0, 4), p2) == 4.0
    assert modular(StepFunction.zero(), p2) == 0.0
    x = StepFunction.make([(0, 1, 2.0), (1, 3, 1.0)])
    assert modular(x, p2) == 6.0


def test_modular_infinite_for_non_finite_psi():
    psi = OrliczSpec.table([(1.0, 0.0)], inf_beyond=True)
    assert math.isinf(modular(indicator(0, 1, 2.0), psi))


# ------------------------------------------------------------ luxemburg norm

def test_luxemburg_power_is_lp():
    assert luxemburg_norm(indicator(0, 4), OrliczSpec.power(2)) == pytest.approx(2.0)


def test_luxemburg_zero():
    assert luxemburg_norm(StepFunction.zero(), OrliczSpec.power(2)) == 0.0


def test_luxemburg_shifted_power_closed_form():
    # inf { lam : max(0, 1/lam - 1)^2 <= 1 } = 1/2
    psi = OrliczSpec.shifted_power(1.0, 2.0)
    assert luxemburg_norm(indicator(0, 1), psi) == pytest.approx(0.5, abs=1e-9)


def test_luxemburg_power_matches_direct_lp_oracle():
    cfg = TrialConfig(seed=7, trials=60)
    for p in (1.0, 2.0, 4.0):
        psi = OrliczSpec.power(p)
        for trial in range(cfg.trials):
            x = random_step(cfg, trial)
            direct = sum((t1 - t0) * abs(v) ** p for t0, t1, v in x.pieces) ** (1.0 / p)
            assert luxemburg_norm(x, psi) == pytest.approx(direct, abs=1e-9)


def test_luxemburg_generic_bisection_agrees_with_power_shortcut():
    # Same psi expressed as a table reroutes through the bisection path.
    table_l1 = OrliczSpec.table([(1.0, 1.0), (100.0, 100.0)])
    cfg = TrialConfig(seed=9, trials=30, value_range=(0.1, 2.0))
    for trial in range(cfg.trials):
        x = random_step(cfg, trial)
        assert luxemburg_norm(x, table_l1) == pytest.approx(
            luxemburg_norm(x, OrliczSpec.power(1)), abs=1e-8)


def test_luxemburg_sup_norm_via_inf_table():
    psi = OrliczSpec.table([(1.0, 0.0)], inf_beyond=True)
    x = StepFunction.make([(0, 1, 2.0), (1, 2, -3.0)])
    assert luxemburg_norm(x, psi) == pytest.approx(3.0, abs=1e-9)


def test_luxemburg_rearrangement_invariant():
    cfg = TrialConfig(seed=13, trials=40)
    psi = OrliczSpec.shifted_power(0.5, 2.0)
    for trial in range(cfg.trials):
        x = random_step(cfg, trial)
        assert luxemburg_norm(x, psi) == pytest.approx(
            luxemburg_norm(rearrange(x), psi), abs=1e-9)


# --------------------------------------------------------------- orlicz norm

def test_orlicz_zero():
    assert orlicz_norm(StepFunction.zero(), OrliczSpec.power(2)) == 0.0


def test_orlicz_power2_indicator():
    # min over k of (1 + k^2)/k = 2 at k = 1.
    assert orlicz_norm(indicator(0, 1), OrliczSpec.power(2)) == pytest.approx(2.0, abs=1e-6)


def test_orlicz_sandwich():
    # ||x||_Lux <= ||x||_Orl <= 2 ||x||_Lux for every Young function; the
    # inf_beyond tables meet values of x up to three times their last point.
    cfg = TrialConfig(seed=17, trials=60, value_range=(0.1, 6.0))
    for psi in (OrliczSpec.power(2), OrliczSpec.shifted_power(0.5, 2.0),
                OrliczSpec.exp_minus_one(), OrliczSpec.table([(1.0, 1.0), (2.0, 3.0)]),
                OrliczSpec.table([(1.0, 1.0), (2.0, 3.0)], inf_beyond=True),
                OrliczSpec.table([(1.0, 0.0)], inf_beyond=True)):
        for trial in range(cfg.trials):
            x = random_step(cfg, trial)
            lux = luxemburg_norm(x, psi)
            orl = orlicz_norm(x, psi)
            assert lux - 1e-9 <= orl <= 2.0 * lux + 1e-9


def test_orlicz_norm_beyond_last_table_point():
    # (1 + psi(5k))/k is 1/k + 5 on (0, 0.2], 10 on [0.2, 0.4], inf beyond.
    psi = OrliczSpec.table([(1.0, 1.0), (2.0, 3.0)], inf_beyond=True)
    assert orlicz_norm(indicator(0, 1, 5.0), psi) == pytest.approx(10.0, rel=1e-9)


@pytest.mark.parametrize("scale", [1e-200, 1e-30, 1e30, 1e200])
def test_norms_scale_with_extreme_values(scale):
    # Both norms are homogeneous: c * chi_[0,1) has c times the norm of chi_[0,1),
    # min_s (1 + psi(s)) / s in the Amemiya form (2, e and 2 below) and
    # 1 / psi^(-1)(1) in the Luxemburg form (1 and 2^(1/3) for the powers,
    # 1 / ln 2 for exp - 1, 1 for the table), with no overflow warning on the
    # way.
    x = indicator(0, 1, scale)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for psi, amemiya in ((OrliczSpec.power(2), 2.0), (OrliczSpec.exp_minus_one(), math.e),
                             (OrliczSpec.table([(1.0, 1.0), (2.0, 3.0)], inf_beyond=True), 2.0)):
            assert orlicz_norm(x, psi) == pytest.approx(amemiya * scale, rel=1e-9, abs=0.0)
        assert luxemburg_norm(x, OrliczSpec.power(2)) == pytest.approx(scale, rel=1e-12, abs=0.0)
        assert luxemburg_norm(x, OrliczSpec.power(3, 2.0)) == pytest.approx(
            2.0 ** (1.0 / 3.0) * scale, rel=1e-12, abs=0.0)
        assert luxemburg_norm(x, OrliczSpec.exp_minus_one()) == pytest.approx(
            scale / math.log(2.0), rel=1e-12, abs=0.0)
        assert luxemburg_norm(x, OrliczSpec.table([(1.0, 1.0), (2.0, 3.0)], inf_beyond=True)) \
            == pytest.approx(scale, rel=1e-12, abs=0.0)


def _dual_sup_oracle(x, psi, grid_max, n_grid):
    """Brute-force sup of integral x*y over cell-constant y with rho_Y(y) <= 1.

    The optimal y aligns with the cells of x, so enumerating a value grid per
    cell yields a certified lower bound for the dual-pairing norm.  For the
    quadratic family the conjugate is 2-homogeneous in y, so any trial can be
    rescaled onto the constraint boundary by 1/sqrt(cost) and stays feasible.
    """
    assert psi.family == "power" and psi.p == 2.0
    cells = [(t1 - t0, abs(v)) for t0, t1, v in x.pieces]
    values = np.linspace(0.0, grid_max, n_grid)
    conj = {v: young_conjugate(psi, v) for v in values}
    best = 0.0
    for combo in itertools.product(values, repeat=len(cells)):
        cost = sum(length * conj[u] for (length, _), u in zip(cells, combo))
        if cost == 0.0:
            continue
        pairing = sum(length * v * u for (length, v), u in zip(cells, combo))
        best = max(best, pairing / max(1.0, math.sqrt(cost)))
    return best


def test_orlicz_matches_discretized_dual_sup():
    psi = OrliczSpec.power(2)
    instances = [
        indicator(0, 1),
        StepFunction.make([(0, 1, 2.0), (1, 2, 1.0)]),
        StepFunction.make([(0, 0.5, 1.0), (0.5, 1.5, 3.0), (2.0, 2.5, 0.5)]),
    ]
    for x in instances:
        lower = _dual_sup_oracle(x, psi, grid_max=4.0, n_grid=81)
        amemiya = orlicz_norm(x, psi)
        assert lower <= amemiya + 1e-9
        assert amemiya == pytest.approx(lower, abs=1e-3)


def test_orlicz_json_round_trip():
    for psi in (OrliczSpec.power(2.5, 1.5), OrliczSpec.shifted_power(1.0, 2.0),
                OrliczSpec.exp_minus_one(),
                OrliczSpec.table([(1.0, 0.0), (2.0, 1.0)], inf_beyond=True)):
        assert OrliczSpec.from_json(psi.to_json()) == psi

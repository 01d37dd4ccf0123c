"""Orlicz machinery: Young conjugate, modular, Luxemburg and Amemiya norms.

The Amemiya-form norm is cross-validated against a brute-force discretized
version of the dual-pairing supremum, which is an independent lower bound.
"""

import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rifs import (
    OrliczSpec,
    SchemaError,
    SpaceHandle,
    StepFunction,
    TrialConfig,
    fundamental_function,
    indicator,
    luxemburg_norm,
    modular,
    orlicz_norm,
    random_step,
    rearrange,
    young_conjugate,
)
from rifs.deciders import phi_infinity


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


def test_table_convexity_check_is_relative_to_the_slopes():
    # Slope 3 on both segments; recomputed from the rounded points the second
    # is 3 - 1.4e-12, below an absolute 1e-12 but not a relative 1e-9.
    psi = OrliczSpec.table([(64.0, 192.0), (64.01, 192.03)])
    assert psi.psi(32.0) == 96.0
    with pytest.raises(SchemaError, match="convex"):
        OrliczSpec.table([(64.0, 192.0), (64.01, 192.0299)])  # slope 2.99
    with pytest.raises(SchemaError, match="convex"):
        OrliczSpec.table([(1e-6, 1e-6), (2e-6, 1.9e-6)])  # slopes 1 then 0.9


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


# ------------------------------------------------------------------ psi^-1

@st.composite
def dyadic_tables(draw):
    """Convex dyadic table points, possibly with a zero region, and inf_beyond.

    Returns (points, inf_beyond).  Dyadic gaps and slopes keep every value
    exact; an all-zero table comes with inf_beyond, as the constructor needs.
    """
    gaps = draw(st.lists(st.integers(1, 64).map(lambda k: k / 8), min_size=1, max_size=5))
    inf_beyond = draw(st.booleans())
    zeros = draw(st.integers(0, len(gaps) if inf_beyond else len(gaps) - 1))
    slope = draw(st.integers(1, 64).map(lambda k: k / 8))
    points, t, v = [], 0.0, 0.0
    for i, gap in enumerate(gaps):
        if i > zeros:
            slope += draw(st.integers(0, 32).map(lambda k: k / 4))
        t, v = t + gap, v + (slope * gap if i >= zeros else 0.0)
        points.append((t, v))
    return points, inf_beyond


orlicz_specs = st.one_of(
    st.builds(OrliczSpec.power, st.floats(1.0, 6.0), st.floats(0.1, 10.0)),
    st.builds(OrliczSpec.shifted_power, st.floats(0.1, 5.0), st.floats(1.0, 6.0)),
    st.just(OrliczSpec.exp_minus_one()),
    dyadic_tables().map(lambda spec: OrliczSpec.table(*spec)),
)


@settings(max_examples=300, deadline=None)
@given(orlicz_specs, st.one_of(st.just(0.0), st.floats(0.0, 1e6, allow_subnormal=False)))
def test_psi_inverse_is_the_top_of_the_sublevel_set(psi, u):
    t = float(psi.psi_inverse_many(u))
    # psi(t) <= u up to the rounding of t, and psi exceeds u just above t.
    assert psi.psi(t * (1.0 - 1e-12)) <= u
    assert psi.psi(t * (1.0 + 1e-12) if t > 0.0 else 1e-12) > u


@settings(max_examples=100, deadline=None)
@given(dyadic_tables())
def test_psi_inverse_at_zero_and_infinity_for_tables(spec):
    points, inf_beyond = spec
    psi = OrliczSpec.table(points, inf_beyond)
    last_zero = max([0.0] + [t for t, v in points if v == 0.0])
    assert psi.psi_inverse_many(0.0) == last_zero
    assert psi.psi_inverse_many(math.inf) == (points[-1][0] if inf_beyond else math.inf)


def test_psi_inverse_at_zero_and_infinity_per_family():
    assert OrliczSpec.power(2).psi_inverse_many(0.0) == 0.0
    assert OrliczSpec.shifted_power(1.0, 2.0).psi_inverse_many(0.0) == 1.0
    assert OrliczSpec.exp_minus_one().psi_inverse_many(0.0) == 0.0
    assert OrliczSpec.table([(1.0, 0.0), (2.0, 0.0), (3.0, 1.0)]).psi_inverse_many(0.0) == 2.0
    for psi in (OrliczSpec.power(2), OrliczSpec.shifted_power(1.0, 2.0),
                OrliczSpec.exp_minus_one(), OrliczSpec.table([(1.0, 1.0)])):
        assert psi.psi_inverse_many(math.inf) == math.inf
    assert OrliczSpec.table([(1.0, 1.0), (4.0, 10.0)], inf_beyond=True).psi_inverse_many(math.inf) == 4.0


BISECTED_FAMILIES = {
    "shifted_power": OrliczSpec.shifted_power(1.0, 2.0),
    "exp_minus_one": OrliczSpec.exp_minus_one(),
    "table": OrliczSpec.table([(1.0, 1.0), (2.0, 3.0), (4.0, 10.0)]),
    "table-zero-region": OrliczSpec.table([(1.0, 0.0), (2.0, 0.0), (3.0, 1.0), (5.0, 6.0)]),
    "table-inf-beyond": OrliczSpec.table([(1.0, 1.0), (2.0, 3.0), (4.0, 10.0)], inf_beyond=True),
    "table-all-zero": OrliczSpec.table([(2.0, 0.0)], inf_beyond=True),
}


@pytest.mark.parametrize("t", [10.0 ** k for k in range(-3, 9)])
@pytest.mark.parametrize("psi", BISECTED_FAMILIES.values(), ids=BISECTED_FAMILIES.keys())
def test_luxemburg_fundamental_function_is_exactly_one_over_psi_inverse(psi, t):
    # One magnitude closes the bracket: no bisection step, no rounding beyond
    # that of 1 / psi^-1(1/t).
    phi = fundamental_function(SpaceHandle.orlicz_space(psi), t)
    assert phi == 1.0 / float(psi.psi_inverse_many(1.0 / t))


def test_luxemburg_fundamental_function_exp_at_one_is_one_over_log_two():
    phi = fundamental_function(SpaceHandle.orlicz_space(OrliczSpec.exp_minus_one()), 1.0)
    assert phi == 1.0 / math.log(2.0)


# ------------------------------------------------- rational Luxemburg oracle

def _rational_luxemburg(points, inf_beyond, cells) -> Fraction:
    """Exact Luxemburg norm of a step function with cells (width, |value|).

    The floats are exact rationals and rho(s |x|) = sum w psi(s m) is
    piecewise linear in s with kinks at t_j / m, so 1 / sup { s : rho <= 1 }
    is found on the segment between kinks where rho crosses 1.
    """
    pts = [(Fraction(0), Fraction(0))] + [(Fraction(t), Fraction(v)) for t, v in points]
    big_t = pts[-1][0]
    last_slope = (pts[-1][1] - pts[-2][1]) / (pts[-1][0] - pts[-2][0])
    cells = [(Fraction(w), Fraction(m)) for w, m in cells]

    def psi(u):
        if u > big_t:
            return pts[-1][1] + last_slope * (u - big_t)
        for (t0, v0), (t1, v1) in zip(pts, pts[1:]):
            if u <= t1:
                return v0 + (v1 - v0) * (u - t0) / (t1 - t0)

    def rho(s):
        return sum(w * psi(s * m) for w, m in cells)

    s_end = big_t / max(m for _, m in cells)  # rho = inf beyond it if inf_beyond
    kinks = sorted({t / m for t, _ in pts[1:] for _, m in cells} | {s_end})
    if inf_beyond:
        kinks = [s for s in kinks if s <= s_end]
    else:  # linear beyond the last kink: extend until rho passes 1
        while rho(kinks[-1]) < 1:
            kinks.append(2 * kinks[-1])
    s0, r0 = Fraction(0), Fraction(0)
    for s1 in kinks:
        r1 = rho(s1)
        if r1 >= 1:
            return 1 / (s0 + (1 - r0) * (s1 - s0) / (r1 - r0))
        s0, r0 = s1, r1
    return 1 / s0  # inf_beyond and rho(s_end) < 1: the sup-norm constraint binds


dyadic_cells = st.lists(st.tuples(st.integers(1, 32).map(lambda k: k / 8),
                                  st.integers(-32, 32).filter(bool).map(lambda k: k / 8)),
                        min_size=1, max_size=8)


def _contiguous(cells) -> StepFunction:
    pieces, t = [], 0.0
    for width, value in cells:
        pieces.append((t, t + width, value))
        t += width
    return StepFunction.make(pieces)


@settings(max_examples=200, deadline=None)
@given(dyadic_tables(), dyadic_cells)
def test_luxemburg_table_matches_rational_oracle(spec, cells):
    points, inf_beyond = spec
    psi = OrliczSpec.table(points, inf_beyond)
    exact = _rational_luxemburg(points, inf_beyond, [(w, abs(v)) for w, v in cells])
    got = luxemburg_norm(_contiguous(cells), psi)
    assert abs(Fraction(got) - exact) <= Fraction(1e-12) * exact


@settings(max_examples=200, deadline=None)
@given(dyadic_tables(), dyadic_cells, st.integers(1, 32).map(lambda k: k / 8))
def test_luxemburg_table_one_magnitude_is_the_closed_form(spec, cells, m):
    # |x| = m on the whole support: the bracket is a point, so the norm is
    # m / psi^-1(1 / width) with no bisection, within a few ulps of the oracle.
    points, inf_beyond = spec
    psi = OrliczSpec.table(points, inf_beyond)
    width = sum(w for w, _ in cells)
    exact = _rational_luxemburg(points, inf_beyond, [(width, m)])
    got = luxemburg_norm(_contiguous([(w, math.copysign(m, v)) for w, v in cells]), psi)
    assert got == m * (1.0 / float(psi.psi_inverse_many(1.0 / width)))
    assert abs(Fraction(got) - exact) <= Fraction(2.0 ** -50) * exact


@pytest.mark.parametrize("points, inf_beyond, m, width", [
    ([(1.0, 1.0), (2.0, 4.0), (4.0, 16.0)], False, 3.0, 1.0),     # psi^-1(1) = 1
    ([(1.0, 1.0), (2.0, 4.0), (4.0, 16.0)], False, 3.0, 0.25),    # psi^-1(4) = 2
    ([(1.0, 1.0), (2.0, 4.0), (4.0, 16.0)], False, 5.0, 0.0625),  # psi^-1(16) = 4
    ([(1.0, 1.0), (2.0, 4.0), (4.0, 16.0)], True, 5.0, 0.03125),  # capped at T = 4
    ([(1.0, 0.0), (2.0, 1.0)], False, 0.75, 1.0),                 # psi^-1(1) = 2
])
def test_luxemburg_table_one_magnitude_matches_oracle_exactly(points, inf_beyond, m, width):
    got = luxemburg_norm(indicator(0.0, width, m), OrliczSpec.table(points, inf_beyond))
    assert Fraction(got) == _rational_luxemburg(points, inf_beyond, [(width, m)])


# ------------------------------------------- Amemiya fundamental function

# phi(t) = inf_s (1 + t psi(s)) / s <= 1 / a_psi, the value at s = a_psi.  A
# golden-section search overshot it: shifted_power(1, 2) read 1 + 4.7e-11 at
# t = 1e12, and the zero-region table 2 + 9.3e-11 at t = 1e8.
AMEMIYA_FAMILIES = {
    "power": OrliczSpec.power(2),
    "power-linear": OrliczSpec.power(1, 2.0),
    "shifted_power": OrliczSpec.shifted_power(1, 2),
    "shifted_power-linear": OrliczSpec.shifted_power(1, 1),
    "shifted_power-steep": OrliczSpec.shifted_power(0.5, 1.5),
    "exp_minus_one": OrliczSpec.exp_minus_one(),
    "table": OrliczSpec.table([(1.0, 1.0), (2.0, 3.0), (4.0, 10.0)]),
    "table-zero-region": OrliczSpec.table([(0.5, 0.0), (1.0, 1.0)]),
    "table-inf-beyond": OrliczSpec.table([(1.0, 1.0), (2.0, 3.0)], inf_beyond=True),
    "table-all-zero": OrliczSpec.table([(2.0, 0.0)], inf_beyond=True),
}


@pytest.mark.parametrize("psi", AMEMIYA_FAMILIES.values(), ids=AMEMIYA_FAMILIES.keys())
def test_amemiya_fundamental_function_never_exceeds_one_over_a_psi(psi):
    space = SpaceHandle.orlicz_space(psi, "orlicz")
    limit = phi_infinity(space)
    for k in range(13):
        assert fundamental_function(space, 10.0 ** k) <= limit


@settings(max_examples=150, deadline=None)
@given(orlicz_specs)
def test_amemiya_fundamental_function_never_exceeds_its_limit_for_any_spec(psi):
    space = SpaceHandle.orlicz_space(psi, "orlicz")
    limit = phi_infinity(space)
    for k in range(13):
        assert fundamental_function(space, 10.0 ** k) <= limit


# --------------------------------------------------- rational Amemiya oracle

def _rational_amemiya(points, inf_beyond, cells) -> Fraction:
    """Exact Amemiya norm ``inf_(s>0) (1 + rho(s |x|)) / s`` of a step function
    with cells (width, |value|), for a table psi.

    rho(s |x|) is piecewise linear in s, so h(s) = (1 + rho) / s is monotone
    between its kinks t_j / m.  The infimum is the least of h at the kinks, h
    at s_end = T / max m when psi = inf beyond T, and otherwise the limit of h
    as s -> inf: the final slope of psi times the integral of |x|.
    """
    pts = [(Fraction(0), Fraction(0))] + [(Fraction(t), Fraction(v)) for t, v in points]
    big_t = pts[-1][0]
    last_slope = (pts[-1][1] - pts[-2][1]) / (pts[-1][0] - pts[-2][0])
    cells = [(Fraction(w), Fraction(m)) for w, m in cells]

    def psi(u):
        if u > big_t:
            return pts[-1][1] + last_slope * (u - big_t)
        for (t0, v0), (t1, v1) in zip(pts, pts[1:]):
            if u <= t1:
                return v0 + (v1 - v0) * (u - t0) / (t1 - t0)

    def h(s):
        return (1 + sum(w * psi(s * m) for w, m in cells)) / s

    s_end = big_t / max(m for _, m in cells)
    kinks = {t / m for t, _ in pts[1:] for _, m in cells}
    if inf_beyond:
        return min(h(s) for s in kinks | {s_end} if s <= s_end)
    return min([h(s) for s in kinks] + [last_slope * sum(w * m for w, m in cells)])


@settings(max_examples=200, deadline=None)
@given(dyadic_tables(), dyadic_cells)
def test_amemiya_table_matches_rational_oracle(spec, cells):
    points, inf_beyond = spec
    psi = OrliczSpec.table(points, inf_beyond)
    exact = _rational_amemiya(points, inf_beyond, [(w, abs(v)) for w, v in cells])
    got = orlicz_norm(_contiguous(cells), psi)
    assert abs(Fraction(got) - exact) <= Fraction(1e-12) * exact


# ------------------------------------------------ scipy oracles, smooth psi

SMOOTH_FAMILIES = {
    "exp_minus_one": (OrliczSpec.exp_minus_one(), np.expm1),
    "shifted_power-1.5": (OrliczSpec.shifted_power(0.5, 1.5),
                          lambda u: np.maximum(0.0, u - 0.5) ** 1.5),
    "shifted_power-2": (OrliczSpec.shifted_power(0.5, 2.0),
                        lambda u: np.maximum(0.0, u - 0.5) ** 2.0),
    "shifted_power-3": (OrliczSpec.shifted_power(0.5, 3.0),
                        lambda u: np.maximum(0.0, u - 0.5) ** 3.0),
}


@pytest.mark.parametrize("psi, psi_of", SMOOTH_FAMILIES.values(), ids=SMOOTH_FAMILIES.keys())
def test_smooth_orlicz_norms_match_scipy_oracles(psi, psi_of):
    # Luxemburg: scipy brentq on lam -> rho(x / lam) - 1.  Amemiya: scipy's
    # bounded minimize_scalar of (1 + rho(k x)) / k over log k, at xtol 1e-12;
    # its value is flat at the minimum, so it is far closer than its argmin.
    optimize = pytest.importorskip("scipy.optimize")
    cfg = TrialConfig(seed=23, trials=25, value_range=(0.1, 6.0))
    for trial in range(cfg.trials):
        x = random_step(cfg, trial)
        widths = np.array([t1 - t0 for t0, t1, _ in x.pieces])
        mags = np.array([abs(v) for _, _, v in x.pieces])

        def rho(k):
            return float(np.sum(widths * psi_of(k * mags)))

        lo = hi = 1.0
        while rho(1.0 / hi) > 1.0:
            hi *= 2.0
        while rho(1.0 / lo) <= 1.0:
            lo /= 2.0
        lux = optimize.brentq(lambda lam: rho(1.0 / lam) - 1.0, lo, hi,
                              xtol=1e-16 * hi, rtol=4 * np.finfo(float).eps, maxiter=500)
        assert luxemburg_norm(x, psi) == pytest.approx(lux, rel=1e-12, abs=0.0)

        res = optimize.minimize_scalar(lambda q: (1.0 + rho(math.exp(q))) / math.exp(q),
                                       bounds=(math.log(0.01 / lux), math.log(100.0 / lux)),
                                       method="bounded", options={"xatol": 1e-12})
        assert orlicz_norm(x, psi) == pytest.approx(float(res.fun), rel=1e-10, abs=0.0)

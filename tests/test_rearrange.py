"""Rearrangement layer: distribution, x*, x**, domination, transport.

Derived expectations are computed by independent oracles: descending sort of
refinement cells for x*, piecewise-linear interpolation of the running
integral for x**, dense-grid comparison for domination.
"""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rifs import (
    MaximalCurve,
    OrliczSpec,
    SchemaError,
    StepFunction,
    TrialConfig,
    WeightSpec,
    absolute,
    add,
    distribution,
    equimeasurable,
    gamma_norm,
    hlp_dominates,
    indicator,
    lambda_norm,
    luxemburg_norm,
    maximal_curve,
    orlicz_norm,
    random_step,
    rearrange,
    ryff_transport,
    scale,
    transport_pullback,
)
from rifs.rearrange import _eval_increasing
from rifs.step import ARRAY_MIN_PIECES, MERGE_TOL

# Piece counts reaching both sides of the list/array threshold.
SIZES = (5, 2 * ARRAY_MIN_PIECES)


def two_block():
    return StepFunction.make([(1, 2, 3.0), (4, 6, 1.0)])


def _rearrange_reference(x):
    """x* by the per-piece loop: sort by (-|v|, t0), lay the pieces end to end
    from 0, canonicalize."""
    out, cursor = [], 0.0
    for t0, t1, v in sorted(x.pieces, key=lambda p: (-abs(p[2]), p[0])):
        length = t1 - t0
        out.append((cursor, cursor + length, abs(v)))
        cursor += length
    return StepFunction.make(out, x.alpha)


def _curve_reference(x, star=None):
    """(breakpoints, coeffs) of x** by the running-integral loop over x*
    (``star``, or else the reference x*)."""
    star = _rearrange_reference(x) if star is None else star
    if star.is_zero:
        return (0.0,), ((0.0, 0.0),)
    breakpoints, coeffs, acc = [0.0], [], 0.0
    for t0, t1, v in star.pieces:
        coeffs.append((acc - v * t0, v))
        acc += v * (t1 - t0)
        breakpoints.append(t1)
    coeffs.append((acc, 0.0))
    return tuple(breakpoints), tuple(coeffs)


def _hlp_reference(x, y, tol):
    """The domination verdict by bisection ``eval`` at every breakpoint."""
    cx, cy = maximal_curve(x), maximal_curve(y)
    points = sorted({t for t in cx.breakpoints + cy.breakpoints if t > 0.0})
    return (cx.value_at_zero <= cy.value_at_zero + tol
            and all(cx.eval(t) <= cy.eval(t) + tol for t in points))


def _pullback_reference(tmap, g):
    """g o sigma by the nested loop over every (pair, piece of g)."""
    out = []
    for (s0, s1), (d0, d1) in tmap.pairs:
        shift = s0 - d0
        for t0, t1, v in g.pieces:
            lo, hi = max(t0, d0), min(t1, d1)
            if hi - lo > MERGE_TOL * max(1.0, abs(hi)):
                out.append((lo + shift, hi + shift, v))
    return StepFunction.make(out, tmap.alpha)


# ---------------------------------------------------------------- distribution

def test_distribution_indicator():
    assert distribution(indicator(0, 2), 0.5) == 2.0


def test_distribution_zero_function():
    z = StepFunction.zero()
    for lam in (0.0, 1.0, 7.5):
        assert distribution(z, lam) == 0.0


def test_distribution_two_block():
    # Oracle: only the |v| = 3 piece exceeds lam = 2; its length is 1.
    assert distribution(two_block(), 2.0) == 1.0


def test_distribution_rejects_negative_lambda():
    for lam in (-0.1, math.nan):
        with pytest.raises(SchemaError):
            distribution(indicator(0, 1), lam)


def test_distribution_nonincreasing_and_matches_rearrangement():
    cfg = TrialConfig(seed=11, trials=50)
    for trial in range(cfg.trials):
        x = random_step(cfg, trial)
        star = rearrange(x)
        lams = sorted({abs(v) for _, _, v in x.pieces} | {0.0})
        vals = [distribution(x, lam) for lam in lams]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        for lam in lams + [0.5 * (a + b) for a, b in zip(lams, lams[1:])]:
            dx, ds = distribution(x, lam), distribution(star, lam)
            # re-laying pieces from 0 moves the measure sum by at most an ulp
            assert dx == pytest.approx(ds, rel=1e-12, abs=1e-12)


# ------------------------------------------------------------------- rearrange

def test_rearrange_two_block():
    assert rearrange(two_block()).pieces == ((0.0, 1.0, 3.0), (1.0, 3.0, 1.0))


def test_rearrange_fixed_point_on_decreasing_left_packed():
    x = StepFunction.make([(0, 1, 3.0), (1, 3, 1.0)])
    assert rearrange(x) == x


def test_rearrange_of_negative_piece():
    assert rearrange(StepFunction.make([(0, 1, -2.0)])).pieces == ((0.0, 1.0, 2.0),)


def test_rearrange_matches_descending_sort_oracle():
    rng = np.random.default_rng(5)
    for trial in range(100):
        n = int(rng.integers(1, 9 if trial % 2 else 2 * ARRAY_MIN_PIECES))
        # Half the trials draw from a few levels, so that values tie.
        values = rng.uniform(-4, 4, n) if trial % 4 < 2 else rng.choice([-2.0, -0.5, 0.5, 3.0], n)
        h = float(rng.uniform(0.2, 1.5))
        x = StepFunction.make([(i * h, (i + 1) * h, v) for i, v in enumerate(values) if v != 0])
        expected_vals = sorted(np.abs(values[values != 0]), reverse=True)
        expected = StepFunction.make(
            [(i * h, (i + 1) * h, v) for i, v in enumerate(expected_vals)])
        assert rearrange(x).approx_equal(expected)
        assert rearrange(x).pieces == _rearrange_reference(x).pieces


@pytest.mark.parametrize("n", [1, ARRAY_MIN_PIECES])
def test_rearrange_keeps_a_narrow_piece_that_make_kept(n):
    # make keeps [0, 1.5e-12): its width exceeds MERGE_TOL there.  In x* it
    # lies at t = 100, where the width rule of make would drop it, and x* lost
    # its measure.  One n is on each side of the list/array threshold.
    step = 100.0 / n
    x = StepFunction.make([(0, 1.5e-12, 1.0)]
                          + [(1 + i * step, 1 + (i + 1) * step, 2.0 + i) for i in range(n)])
    star = rearrange(x)
    assert len(star.pieces) == n + 1 == len(x.pieces)
    for lam in (0.0, 0.5, 1.0, 1.5, 2.0, 2.5):
        assert distribution(star, lam) == pytest.approx(distribution(x, lam), rel=2**-52, abs=0)


@pytest.mark.parametrize("n", [9, 100])
def test_rearrange_snaps_drift_past_alpha_one(n):
    # Pieces [i/n, (i+1)/n) with increasing values: x* lays them end to end in
    # reverse, and for these n the float cursor ends just past 1.  One n is
    # on each side of the list/array threshold.
    assert 9 < ARRAY_MIN_PIECES <= 100
    x = StepFunction.make([(i / n, (i + 1) / n, i + 1.0) for i in range(n)], alpha=1.0)
    cursor = 0.0
    for t0, t1, _ in reversed(x.pieces):
        cursor += t1 - t0
    assert cursor > 1.0
    star = rearrange(x)
    assert star.pieces[-1][1] == 1.0
    assert star.pieces == _rearrange_reference(x).pieces


# ---------------------------------------------------------------- maximal curve

def test_maximal_indicator():
    c = maximal_curve(indicator(0, 1))
    assert c.eval(0.5) == 1.0
    assert c.eval(1.0) == 1.0
    assert c.eval(4.0) == 0.25


def test_maximal_two_levels_at_two():
    c = maximal_curve(StepFunction.make([(0, 1, 2.0), (1, 2, 1.0)]))
    assert c.eval(2.0) == pytest.approx(1.5, abs=1e-15)


def test_maximal_zero():
    c = maximal_curve(StepFunction.zero())
    assert c.eval(1.0) == 0.0 and c.total_integral == 0.0


def _starstar_oracle(x, ts):
    """Independent x** evaluation: running-integral interpolation of x*."""
    star = rearrange(x)
    knots = [0.0]
    integrals = [0.0]
    acc = 0.0
    for t0, t1, v in star.pieces:
        acc += v * (t1 - t0)
        knots.append(t1)
        integrals.append(acc)
    return np.interp(ts, knots, integrals, right=acc) / ts


def test_maximal_matches_integral_oracle():
    for max_pieces in SIZES:
        cfg = TrialConfig(seed=21, trials=60, max_pieces=max_pieces)
        for trial in range(cfg.trials):
            x = random_step(cfg, trial)
            c = maximal_curve(x)
            ts = np.geomspace(1e-3, 50.0, 200)
            assert np.allclose(c.eval_many(ts), _starstar_oracle(x, ts), rtol=1e-12, atol=1e-12)
            assert (c.breakpoints, c.coeffs) == _curve_reference(x)


def test_eval_increasing_matches_eval():
    # One forward pass gives eval's bits at increasing points: on the
    # breakpoints, between them and past the support.
    for max_pieces in SIZES:
        cfg = TrialConfig(seed=23, trials=40, max_pieces=max_pieces)
        for trial in range(cfg.trials):
            c = maximal_curve(random_step(cfg, trial))
            ts = sorted(set(c.breakpoints[1:]) | set(np.geomspace(1e-3, 500.0, 50).tolist()))
            assert _eval_increasing(c, ts) == [c.eval(t) for t in ts]
    zero = maximal_curve(StepFunction.zero())
    assert _eval_increasing(zero, [0.5, 2.0]) == [zero.eval(0.5), zero.eval(2.0)]


@st.composite
def long_functions(draw):
    """64-200 pieces on (0, 1) or (0, inf).  Some values repeat, so that x*
    merges their pieces, and a few leading pieces are 1.5e-12 wide, which
    make keeps near 0 and x* keeps wherever it lays them."""
    alpha = draw(st.sampled_from([1.0, math.inf]))
    n = draw(st.integers(ARRAY_MIN_PIECES, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    narrow = draw(st.integers(0, 3))
    values = rng.uniform(0.1, 4.0, n - narrow) * rng.choice([-1.0, 1.0], n - narrow)
    repeated = rng.choice(n - narrow, draw(st.integers(0, n // 4)), replace=False)
    values[repeated] = rng.choice(values[:3], len(repeated))
    pieces = [(k * 1e-11, k * 1e-11 + 1.5e-12, 0.01 * (k + 1)) for k in range(narrow)]
    unit = 0.9 / n if alpha == 1.0 else 1.0
    cursor = 1e-9
    for v in values:
        length = unit * float(rng.uniform(0.05, 1.0))
        pieces.append((cursor, cursor + length, float(v)))
        cursor += length + unit * float(rng.choice([0.0, 0.1]))
    return StepFunction.make(pieces, alpha)


@settings(deadline=None, max_examples=150)
@given(long_functions())
def test_maximal_curve_on_arrays_matches_the_loop_bit_for_bit(x):
    star, curve = rearrange(x), maximal_curve(x)
    assert repr(curve) == repr(MaximalCurve(*_curve_reference(x, star)))
    segments = curve.__dict__.get("_segments")
    assert (segments is not None) == (len(star.pieces) >= ARRAY_MIN_PIECES)
    if segments is not None:
        lo, hi, A, B = segments
        assert lo.tolist() == list(curve.breakpoints[:-1])
        assert hi.tolist() == list(curve.breakpoints[1:])
        assert list(zip(A.tolist(), B.tolist())) == list(curve.coeffs[:-1])
        assert not any(column.flags.writeable for column in segments)


def test_maximal_laws_star_below_monotone_continuous():
    cfg = TrialConfig(seed=31, trials=100)
    for trial in range(cfg.trials):
        x = random_step(cfg, trial)
        c = maximal_curve(x)
        star = rearrange(x)
        for t0, t1, v in star.pieces:
            mid = 0.5 * (t0 + t1)
            if mid > 0:
                assert v <= c.eval(mid) + 1e-12
        assert all(a >= -1e-12 for a, _ in c.coeffs)  # nonincreasing per interval
        for k in range(len(c.breakpoints) - 1):
            s = c.breakpoints[k + 1]
            left = c.coeffs[k][1] + c.coeffs[k][0] / s
            right = c.coeffs[k + 1][1] + c.coeffs[k + 1][0] / s
            assert left == pytest.approx(right, rel=1e-12, abs=1e-12)


# ------------------------------------------------------------------ domination

def test_hlp_reflexive():
    x = two_block()
    assert hlp_dominates(x, x)


def test_hlp_wide_flat_below_tall_narrow():
    assert hlp_dominates(indicator(0, 2), indicator(0, 1, 2.0))


def test_hlp_rejects_smaller_mass():
    # x**(2) = 1 while y**(2) = 1/2.
    assert not hlp_dominates(indicator(0, 2), indicator(0, 1))


def test_hlp_agrees_with_dense_grid_oracle():
    for max_pieces in SIZES:
        cfg = TrialConfig(seed=41, trials=150, max_pieces=max_pieces)
        for trial in range(cfg.trials):
            x = random_step(cfg, trial, stream=0)
            y = random_step(cfg, trial, stream=1)
            ts = np.geomspace(1e-4, 200.0, 4000)
            gap = np.max(_starstar_oracle(x, ts) - _starstar_oracle(y, ts))
            assert hlp_dominates(x, y, tol=1e-9) == (gap <= 1e-9)
            for a, b in ((x, y), (y, x), (x, add(x, y))):
                for tol in (0.0, 1e-9):
                    assert hlp_dominates(a, b, tol=tol) == _hlp_reference(a, b, tol)


def test_hlp_rejects_nan_tolerance():
    x = indicator(0, 1, 1e308)
    with pytest.raises(SchemaError):
        hlp_dominates(x, scale(x, 1e-308), tol=math.nan)


def test_hlp_transitive_on_constructed_chains():
    cfg = TrialConfig(seed=51, trials=80)
    for trial in range(cfg.trials):
        a = rearrange(random_step(cfg, trial, stream=0))
        b = add(a, rearrange(random_step(cfg, trial, stream=1)))
        c = add(b, rearrange(random_step(cfg, trial, stream=2)))
        assert hlp_dominates(a, b) and hlp_dominates(b, c)
        assert hlp_dominates(a, c)


def test_subadditivity_of_maximal_function():
    cfg = TrialConfig(seed=61, trials=100)
    for trial in range(cfg.trials):
        x = random_step(cfg, trial, stream=0)
        y = random_step(cfg, trial, stream=1)
        cs = maximal_curve(add(x, y))
        cx, cy = maximal_curve(x), maximal_curve(y)
        pts = sorted({t for t in cs.breakpoints + cx.breakpoints + cy.breakpoints if t > 0})
        for t in pts:
            assert cs.eval(t) <= cx.eval(t) + cy.eval(t) + 1e-9


# ------------------------------------------------------------- equimeasurable

def test_equimeasurable_translate():
    x = two_block()
    shifted = StepFunction.make([(t0 + 2.5, t1 + 2.5, v) for t0, t1, v in x.pieces])
    assert equimeasurable(x, shifted)


def test_equimeasurable_different_heights():
    assert not equimeasurable(indicator(0, 1), indicator(0, 1, 2.0))


def test_equimeasurable_split_vs_block():
    split = StepFunction.make([(0, 1, 1.0), (2, 3, 1.0)])
    assert equimeasurable(split, indicator(0, 2))


# ------------------------------------------------------------------- transport

def test_ryff_identity_on_left_packed_decreasing():
    x = StepFunction.make([(0, 1, 3.0), (1, 3, 1.0)])
    t = ryff_transport(x)
    assert t.pairs == (((0.0, 1.0), (0.0, 1.0)), ((1.0, 3.0), (1.0, 3.0)))


def test_ryff_two_block_targets():
    t = ryff_transport(two_block())
    assert t.pairs == (((1.0, 2.0), (0.0, 1.0)), ((4.0, 6.0), (1.0, 3.0)))


def test_ryff_zero_function_empty_map():
    assert ryff_transport(StepFunction.zero()).pairs == ()


def test_ryff_roundtrip_reproduces_abs():
    for max_pieces in SIZES:
        cfg = TrialConfig(seed=71, trials=120, max_pieces=max_pieces)
        for trial in range(cfg.trials):
            x = random_step(cfg, trial)
            sigma = ryff_transport(x)
            assert sigma.total_length == pytest.approx(x.support_measure, rel=1e-12)
            pulled = transport_pullback(sigma, rearrange(x))
            assert pulled.approx_equal(absolute(x))
            assert pulled.pieces == _pullback_reference(sigma, rearrange(x)).pieces
            y = random_step(cfg, trial, stream=1)
            assert transport_pullback(sigma, y).pieces == _pullback_reference(sigma, y).pieces


def test_pullback_keeps_a_narrow_piece_that_make_kept():
    # In x* the 1.5e-12-wide piece lies at t = 100, where the width rule of
    # make would drop it; pulled back to t = 0 it is as wide as make kept it.
    x = StepFunction.make([(0, 1.5e-12, 1.0), (1, 101, 2.0)])
    pulled = transport_pullback(ryff_transport(x), rearrange(x))
    assert pulled.approx_equal(absolute(x))
    assert distribution(pulled, 0.5) == distribution(absolute(x), 0.5)


def test_sum_dominated_by_rearranged_sum():
    cfg = TrialConfig(seed=81, trials=100)
    for trial in range(cfg.trials):
        x = random_step(cfg, trial, stream=0)
        ys = [random_step(cfg, trial, stream=s) for s in (1, 2)]
        lhs = x
        rhs = rearrange(x)
        for y in ys:
            lhs = add(lhs, y)
            rhs = add(rhs, rearrange(y))
        assert hlp_dominates(lhs, rhs, tol=1e-9)


def test_scale_interacts_with_rearrangement():
    x = two_block()
    assert rearrange(scale(x, -2.0)).approx_equal(scale(rearrange(x), 2.0))


# ------------------------------------------------------ fuzzed invariants

step_functions = st.builds(
    lambda raw: StepFunction.make(_disjointify(raw)),
    st.lists(st.tuples(st.floats(0.0, 10.0), st.floats(0.01, 4.0),
                       st.floats(-8.0, 8.0, allow_nan=False)),
             min_size=0, max_size=6),
)


def _disjointify(raw):
    pieces, cursor = [], 0.0
    for gap, length, v in raw:
        cursor += gap
        pieces.append((cursor, cursor + length, v))
        cursor += length
    return pieces


@given(step_functions)
def test_fuzz_rearrangement_is_monotone_and_measure_preserving(x):
    star = rearrange(x)
    vals = [v for _, _, v in star.pieces]
    assert all(v > 0 for v in vals)
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    for lam in {abs(v) for _, _, v in x.pieces} | {0.0}:
        assert distribution(star, lam) == pytest.approx(
            distribution(x, lam), rel=1e-12, abs=1e-12)


@given(step_functions)
def test_fuzz_star_sits_below_its_running_average(x):
    curve = maximal_curve(x)
    star = rearrange(x)
    for s in curve.breakpoints[1:]:
        assert star.value_at(s) <= curve.eval(s) + 1e-12
    assert hlp_dominates(x, x)


@given(step_functions, step_functions)
def test_fuzz_maximal_function_subadditive(x, y):
    cs, cx, cy = maximal_curve(add(x, y)), maximal_curve(x), maximal_curve(y)
    for t in {t for t in cs.breakpoints + cx.breakpoints + cy.breakpoints if t > 0}:
        assert cs.eval(t) <= cx.eval(t) + cy.eval(t) + 1e-9


# ------------------------------------------------- x* and x** kept on x

def _sized(n, seed):
    """n pieces with gaps, tied and negative values, on (0, inf)."""
    rng = np.random.default_rng(seed)
    values = rng.choice([-2.0, -0.5, 0.5, 1.5, 3.0], n) if seed % 2 else rng.uniform(-4, 4, n)
    pieces, cursor = [], 0.0
    for v in values:
        cursor += float(rng.choice([0.0, 0.3]))
        length = float(rng.uniform(0.01, 1.5))
        pieces.append((cursor, cursor + length, float(v)))
        cursor += length
    return StepFunction.make(pieces)


sized_functions = st.builds(
    _sized,
    st.one_of(st.integers(1, 8), st.integers(ARRAY_MIN_PIECES, 2 * ARRAY_MIN_PIECES)),
    st.integers(0, 2**32 - 1),
)

LOG_TAIL = WeightSpec.make([(0, 1, 1, -0.5, 0), (1, math.inf, 1, -0.5, 1)])
DERIVED = {
    "lambda log weight": lambda f: lambda_norm(f, 2.0, LOG_TAIL),
    "gamma p=1.5": lambda f: gamma_norm(f, 1.5, WeightSpec.power(-0.5)),
    "gamma log weight": lambda f: gamma_norm(f, 2.0, LOG_TAIL),
    "luxemburg exp": lambda f: luxemburg_norm(f, OrliczSpec.exp_minus_one()),
    "amemiya power 3": lambda f: orlicz_norm(f, OrliczSpec.power(3.0)),
}


@pytest.mark.parametrize("n", SIZES)
def test_rearrange_and_maximal_curve_are_computed_once(n):
    x = _sized(n, 3)
    assert rearrange(x) is rearrange(x)
    assert maximal_curve(x) is maximal_curve(x)
    assert rearrange(rearrange(x)) is rearrange(rearrange(x))


@settings(deadline=None, max_examples=40)
@given(sized_functions, sized_functions)
def test_memoized_results_match_a_fresh_computation_bit_for_bit(x, y):
    def fresh(f):
        return StepFunction(f.alpha, f.pieces)

    star, curve = rearrange(x), maximal_curve(x)
    star_again = rearrange(star)
    maximal_curve(y)
    # Every call below on x and y reads the kept x* and x**.
    assert rearrange(x) is star and maximal_curve(x) is curve
    assert star.pieces == rearrange(fresh(x)).pieces
    assert curve == maximal_curve(fresh(x))
    assert rearrange(star) is star_again
    assert star_again.pieces == rearrange(fresh(rearrange(fresh(x)))).pieces
    assert hlp_dominates(x, y) == hlp_dominates(fresh(x), fresh(y))
    assert hlp_dominates(y, x) == hlp_dominates(fresh(y), fresh(x))
    for name, value in DERIVED.items():
        assert value(x).hex() == value(fresh(x)).hex(), name


@pytest.mark.parametrize("n", SIZES)
def test_kept_results_leave_equality_hash_repr_json_and_pickle_alone(n):
    x = _sized(n, 8)
    twin = StepFunction(x.alpha, x.pieces)
    before = (hash(x), repr(x), x.to_json(), pickle.dumps(x))
    rearrange(rearrange(x))
    maximal_curve(x)
    x._columns
    assert x == twin and twin == x
    assert (hash(x), repr(x), x.to_json(), pickle.dumps(x)) == before
    back = pickle.loads(pickle.dumps(x))
    assert back == x
    assert rearrange(back) == rearrange(x) and maximal_curve(back) == maximal_curve(x)

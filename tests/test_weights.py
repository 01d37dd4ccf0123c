"""Weight algebra: W, W_p, D_p membership, tail rules.

Closed forms and quadrature are cross-checked against scipy.integrate.quad,
which shares no code with the piece-integral machinery.
"""

import math
from itertools import repeat

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from rifs import SchemaError, StepFunction, WeightSpec, in_D_p, maximal_curve, rearrange
from rifs.weights import _cell_arrays, _cell_walk, _differences, _power_integral, power_log_integral

INF = math.inf


def test_W_constant_weight():
    assert WeightSpec.constant().W(3.0) == 3.0


def test_W_inverse_sqrt():
    # W(t) = 2 sqrt(t)
    assert WeightSpec.power(-0.5).W(4.0) == pytest.approx(4.0, rel=1e-12)


def test_W_infinity_tail_rule():
    assert math.isinf(WeightSpec.constant().W_infinity())
    assert WeightSpec.make([(0, 1, 1, 0, 0), (1, INF, 1, -2, 0)]).W_infinity() \
        == pytest.approx(2.0, rel=1e-12)
    # log corrections: a = -1 diverges for b >= -1, converges for b < -1
    assert math.isinf(WeightSpec.make([(0, 1, 1, 0, 0), (1, INF, 1, -1, -1)]).W_infinity())
    assert math.isfinite(WeightSpec.make([(0, 1, 1, 0, 0), (1, INF, 1, -1, -2)]).W_infinity())


def test_W_diverges_at_origin():
    assert math.isinf(WeightSpec.power(-2.0).W(1.0))


def test_Wp_constant_weight():
    # s^2 * integral_s^inf t^-2 dt = s
    assert WeightSpec.constant().Wp(2.0, 1.0) == pytest.approx(1.0, rel=1e-12)
    assert WeightSpec.constant().Wp(2.0, 3.0) == pytest.approx(3.0, rel=1e-12)


def test_Wp_inverse_sqrt():
    assert WeightSpec.power(-0.5).Wp(2.0, 1.0) == pytest.approx(2.0 / 3.0, rel=1e-12)


def test_Wp_divergence_signalled():
    assert math.isinf(WeightSpec.power(2.0).Wp(2.0, 1.0))


def test_Wp_alpha_one_domain():
    w = WeightSpec.constant(end=1.0)
    # s^2 * integral_s^1 t^-2 dt = s - s^2
    assert w.Wp(2.0, 0.5) == pytest.approx(0.25, rel=1e-12)


def test_D_p_boundary_decided_on_exact_exponents():
    # a - p is exactly -1 in decimals, but 1.14 - 2.14 and 1.18 - 2.18 are
    # -1 - 2^-52 in floats and 0.14 - 1.14 is -1 + 2^-53: the tail integral
    # of t^(a-p) diverges and the origin one too.
    assert not in_D_p(WeightSpec.power(1.14), 2.14, INF)
    assert WeightSpec.power(0.14).origin_wp_diverges(1.14)
    assert math.isinf(WeightSpec.power(1.18).Wp(2.18, 1.0))
    assert math.isinf(WeightSpec.make([(0, INF, 1, 1.14, 0.5)]).Wp(2.14, 1.0))


def test_in_D_p_examples():
    assert in_D_p(WeightSpec.constant(), 2.0, INF)
    assert not in_D_p(WeightSpec.power(-2.0), 2.0, INF)  # W blows up at 0
    assert not in_D_p(WeightSpec.power(2.0), 2.0, INF)   # W_p tail diverges
    assert in_D_p(WeightSpec.power(2.0), 2.0, 1.0)       # finite domain saves the tail
    # boundary a - p = -1 diverges, log correction b < -1 converges
    assert not in_D_p(WeightSpec.power(1.0), 2.0, INF)
    assert in_D_p(WeightSpec.make([(0, INF, 1, 1.0, -2.0)]), 2.0, INF)


def test_domain_validation():
    with pytest.raises(SchemaError):
        WeightSpec.constant(end=1.0).W(2.0)
    with pytest.raises(SchemaError):
        WeightSpec.make([(0.5, 1.0, 1, 0, 0)])  # does not start at 0


def test_weight_value_and_vectorized_agree():
    w = WeightSpec.make([(0, 1, 2.0, -0.5, 0), (1, 4, 1.0, 1.0, 1.5), (4, INF, 0.5, -3.0, 2.0)])
    ts = np.geomspace(0.01, 50, 40)
    assert np.allclose(w.values(ts), [w.value(float(t)) for t in ts], rtol=1e-14)


@pytest.mark.parametrize("c,a,b,lo,hi", [
    (1.0, 0.0, 0.0, 0.0, 3.0),
    (2.0, -0.5, 0.0, 0.0, 4.0),
    (1.0, 1.5, 0.0, 0.5, 7.0),
    (1.0, -1.0, 0.0, 0.5, 7.0),
    (1.5, 0.5, 2.0, 0.0, 5.0),
    (1.0, -0.5, -1.0, 0.0, 2.0),
    (0.7, 2.0, 1.0, 1.0, 9.0),
])
def test_piece_integral_matches_scipy(c, a, b, lo, hi):
    from rifs.weights import power_log_integral

    def f(t):
        return c * t ** a * math.log(math.e + t) ** b

    expected, _ = quad(f, lo, hi, limit=200)
    assert power_log_integral(c, a, b, lo, hi) == pytest.approx(expected, rel=1e-8)


@pytest.mark.parametrize("c,a,b,lo", [
    (1.0, -2.0, 0.0, 1.0),
    (1.0, -2.0, 1.0, 0.5),
    (2.0, -1.5, -1.0, 2.0),
])
def test_tail_integral_matches_scipy(c, a, b, lo):
    from rifs.weights import power_log_integral

    def f(t):
        return c * t ** a * math.log(math.e + t) ** b

    expected, _ = quad(f, lo, math.inf, limit=400)
    assert power_log_integral(c, a, b, lo, math.inf) == pytest.approx(expected, rel=1e-7)


def test_tail_integral_log_boundary_case():
    # a = -1, b < -1 decays too slowly for naive quadrature; the oracle uses
    # the substitution z = log(e+t), under which the integrand is benign.
    import mpmath as mp
    from rifs.weights import power_log_integral

    mp.mp.dps = 30
    z0 = mp.log(mp.e + 3)
    expected = float(mp.quad(lambda z: z ** -2 * (1 + mp.e / (mp.exp(z) - mp.e)),
                             [z0, mp.inf]))
    mine = power_log_integral(1.0, -1.0, -2.0, 3.0, math.inf)
    assert mine == pytest.approx(expected, rel=1e-8)


def test_W_matches_scipy_on_multi_piece_log_weight():
    w = WeightSpec.make([(0, 2, 1.0, -0.25, 1.0), (2, INF, 3.0, -2.0, -1.0)])
    for t in (0.5, 1.5, 2.0, 6.0):
        expected, _ = quad(lambda s: w.value(s), 0.0, t, points=[2.0] if t > 2 else None, limit=200)
        assert w.W(t) == pytest.approx(expected, rel=1e-8)
    wp_expected, _ = quad(lambda s: w.value(s) / s ** 2, 1.0, math.inf, limit=400)
    assert w.wp_tail_integral(2.0, 1.0) == pytest.approx(wp_expected, rel=1e-7)


# Windows in x for tails taken on t = s e^x: scipy's default map of [s, inf)
# is itself off by 3.5e-8 on the W_p tail below.
X_WINDOWS = [0.0] + [2.0 ** k for k in range(11)] + [INF]


def _tail_reference(c, a, b, s):
    """``integral_s^inf c t^a log(e+t)^b dt`` by scipy on t = s e^x, window by window."""
    ls = math.log(s)

    def g(x):
        return math.exp((a + 1.0) * (ls + x)) * np.logaddexp(1.0, ls + x) ** b

    return c * math.fsum(quad(g, x0, x1, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                         for x0, x1 in zip(X_WINDOWS, X_WINDOWS[1:]))


def _head_reference(c, a, b, hi):
    """``integral_0^hi c t^a log(e+t)^b dt`` for -1 < a < 0, by scipy on t = hi u^(1/(a+1))."""
    r = 1.0 / (a + 1.0)
    mapped, _ = quad(lambda u: math.log(math.e + hi * u ** r) ** b, 0.0, 1.0,
                     epsabs=0.0, epsrel=1e-13, limit=200, points=[0.9, 0.95, 0.99])
    return c * hi ** (a + 1.0) / (a + 1.0) * mapped


@pytest.mark.parametrize("c,a,b,s", [
    (1.0, -1.05, -0.5, 3000.0),  # a slow tail
    (1e-12, -3.0, -2.0, 3000.0),  # a small one
])
def test_log_tail_matches_mapped_reference(c, a, b, s):
    assert power_log_integral(c, a, b, s, INF) == pytest.approx(
        _tail_reference(c, a, b, s), rel=1e-12, abs=0.0)


def test_wp_tail_on_the_log_tail_weight_matches_mapped_reference():
    w = WeightSpec.make([(0, 1, 1.0, -0.5, 0.0), (1, INF, 1.0, -0.5, 1.0)])
    assert w.wp_tail_integral(2.0, 3000.0) == pytest.approx(
        _tail_reference(1.0, -2.5, 1.0, 3000.0), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("c", [1.0, 1e-12, 1e-20])
def test_log_head_matches_mapped_reference(c):
    assert power_log_integral(c, -0.7, 1.3, 0.0, 1.0) == pytest.approx(
        _head_reference(c, -0.7, 1.3, 1.0), rel=1e-12, abs=0.0)


def test_W_on_a_head_close_to_the_origin_divergence():
    # t^-0.99 log(e+t)^-1.5 from 0: the mapped integrand rises like u^100.
    w = WeightSpec.make([(0, 1, 1.0, -0.99, -1.5), (1, INF, 1.0, -3.0, 0.0)])
    for t in (0.5, 1.0):
        assert w.W(t) == pytest.approx(_head_reference(1.0, -0.99, -1.5, t), rel=1e-12, abs=0.0)


@settings(deadline=None, max_examples=60)
@given(st.sampled_from([(-0.7, 1.3, 0.0, 1.0), (-0.99, -1.5, 0.0, 0.5), (0.5, 2.0, 0.3, 4.0),
                        (-2.5, 1.0, 3000.0, INF), (-1.05, -0.5, 1.5, INF), (-1.0, -2.0, 3.0, INF)]),
       st.floats(0.1, 10.0), st.integers(-300, 300))
def test_piece_integral_scales_with_c(piece, c, k):
    a, b, lo, hi = piece
    base = power_log_integral(c, a, b, lo, hi)
    assert power_log_integral(math.ldexp(c, k), a, b, lo, hi) == pytest.approx(
        math.ldexp(base, k), rel=1e-12, abs=0.0)


def test_origin_wp_divergence_rule():
    assert WeightSpec.power(-0.5).origin_wp_diverges(2.0)     # a - p = -2.5
    assert not WeightSpec.power(1.5).origin_wp_diverges(2.0)  # a - p = -0.5
    w_zero = WeightSpec.make([(0, 1, 0, 0, 0), (1, INF, 1, -0.5, 0)])
    assert not w_zero.origin_wp_diverges(2.0)


def test_flat_interval_reporting():
    w = WeightSpec.make([(0, 1, 1, -0.5, 0), (1, 3, 0, 0, 0), (3, INF, 1, -0.5, 0)])
    assert w.flat_intervals() == [(1.0, 3.0)]
    assert not WeightSpec.power(-0.5).flat_intervals()


def test_weight_json_round_trip():
    w = WeightSpec.make([(0, 1, 2.0, -0.5, 0), (1, INF, 1.0, -2.0, 1.0)])
    again = WeightSpec.from_json(w.to_json())
    assert again == w


# ------------------------------------------- one interval integral, by reference

def _W_reference(w, t):
    total = 0.0
    for p in w.pieces:
        if p.t0 >= t:
            break
        part = power_log_integral(p.c, p.a, p.b, p.t0, min(t, p.t1))
        if math.isinf(part):
            return math.inf
        total += part
    return total


def _W_infinity_reference(w):
    total = 0.0
    for p in w.pieces:
        part = power_log_integral(p.c, p.a, p.b, p.t0, p.t1)
        if math.isinf(part):
            return math.inf
        total += part
    return total


def _wp_tail_reference(w, p_exp, s):
    total = 0.0
    for p in w.pieces:
        if p.t1 <= s:
            continue
        part = power_log_integral(p.c, p.a - p_exp, p.b, max(s, p.t0), p.t1)
        if math.isinf(part):
            return math.inf
        total += part
    return total


@st.composite
def weights_and_points(draw):
    """A weight of 1-5 pieces on (0, 1) or (0, inf), with c = 0 pieces, log
    pieces and a = -1 among the draws, plus points inside its domain."""
    end = draw(st.sampled_from([1.0, INF]))
    n = draw(st.integers(1, 5))
    top = 1.0 if end == 1.0 else 10.0
    cuts = draw(st.lists(st.floats(0.01, 0.99 * top), min_size=n - 1, max_size=n - 1,
                         unique=True))
    edges = [0.0] + sorted(cuts) + [end]
    pieces = [(t0, t1,
               draw(st.sampled_from([0.0, 0.5, 1.0, 2.5])),
               draw(st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.7, 1.5])),
               draw(st.sampled_from([0.0, 0.0, -2.0, -1.0, 1.0])))
              for t0, t1 in zip(edges, edges[1:])]
    points = draw(st.lists(st.floats(1e-3, top), min_size=1, max_size=4)) + edges[1:-1]
    return WeightSpec.make(pieces), points


@settings(deadline=None, max_examples=60)
@given(weights_and_points(), st.sampled_from([1.0, 1.5, 2.0, 3.0]))
def test_weight_integrals_match_per_loop_reference(drawn, p):
    # W, W_infinity and W_p all run through WeightSpec.integral; each must give
    # the bits of its own loop over the pieces.
    w, points = drawn
    assert w.W_infinity() == _W_infinity_reference(w)
    for t in points:
        assert w.W(t) == _W_reference(w, t)
        tail = _wp_tail_reference(w, p, t)
        assert w.wp_tail_integral(p, t) == tail
        assert w.Wp(p, t) == (math.inf if math.isinf(tail) else t ** p * tail)


# ------------------------------------------------ the b = 0 closed form, pinned

def _closed_form_reference(c, a, lo, hi):
    """The b = 0 antiderivative difference written out: ``c (log hi - log lo)``
    for a = -1, else ``c t^(a+1) / (a+1)`` at hi (0 at inf) minus at lo (0 at 0)."""
    if a == -1.0:
        return c * (math.log(hi) - math.log(lo))
    e = a + 1.0
    upper = 0.0 if math.isinf(hi) else c * hi ** e / e
    lower = 0.0 if lo == 0.0 else c * lo ** e / e
    return upper - lower


def _closed_form_cells():
    rng = np.random.default_rng(2024)
    cells = []
    for _ in range(400):
        c = float(10.0 ** rng.uniform(-3, 3))
        lo, hi = sorted(float(t) for t in 10.0 ** rng.uniform(-3, 3, 2))
        a = float(rng.choice([rng.uniform(-3, 3), -2.0, -1.0, -0.5, 0.0, 1.0, 2.0]))
        cells.append((c, a, lo, hi))  # a finite cell
        cells.append((c, -1.0, lo, hi))
        cells.append((c, float(rng.uniform(-0.99, 3)), 0.0, hi))  # from the origin
        cells.append((c, float(rng.uniform(-4, -1.01)), lo, INF))  # a convergent tail
    return cells


def test_power_closed_form_matches_written_out_reference():
    # The Lorentz walk and power_log_integral share one closed form; pin its
    # bits against the formulas spelled out here, independent of that code.
    for c, a, lo, hi in _closed_form_cells():
        got = power_log_integral(c, a, 0.0, lo, hi)
        assert got.hex() == _closed_form_reference(c, a, lo, hi).hex(), (c, a, lo, hi)


# ------------------------------------------------- the walk's array twin

LOG_TAIL = WeightSpec.make([(0, 1, 1.0, -0.5, 0.0), (1, INF, 1.0, -0.5, 1.0)])


def _hexes(values) -> list[str]:
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("w", [WeightSpec.power(-0.5), LOG_TAIL], ids=["power", "log-tail"])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_cell_arrays_match_the_cell_walk_bit_for_bit(w, p):
    # A 1000-piece x: the segments of x* (Lambda) and of x** (Gamma) go
    # through the array twin and through the list walk.
    rng = np.random.default_rng(12345)
    ends = np.cumsum(rng.uniform(0.1, 2.0, 1000))
    x = StepFunction.make(zip(np.concatenate(([0.0], ends[:-1])).tolist(), ends.tolist(),
                              rng.uniform(-3.0, 3.0, 1000).tolist()))
    t0, t1, _ = rearrange(x)._columns
    assert len(t0) == 1000
    cells, sums = _cell_arrays(w, p, t0, t1)
    walk_cells, walk_sums = _cell_walk(w, p, 0.0, t0.tolist(), t1.tolist(), repeat(0.0), repeat(1.0))
    assert _hexes(cells) == _hexes(walk_cells)
    assert _hexes(sums) == _hexes(walk_sums)
    lo, hi, A, B = maximal_curve(x)._segments
    cells, sums = _cell_arrays(w, p, lo, hi, A, B)
    assert sums is None
    assert _hexes(cells) == _hexes(_cell_walk(w, p, 0.0, lo.tolist(), hi.tolist(), A.tolist(),
                                              B.tolist())[0])


@pytest.mark.parametrize("e", [2.0, 1.5, 0.5, 0.0, -0.5, -1.5])
def test_differences_on_cells_with_gaps_match_the_power_integral_bit_for_bit(e):
    # Cells from 0, some starting where the one before ends and some after a
    # gap, whose lower antiderivative value is evaluated on its own.
    rng = np.random.default_rng(7)
    lo, hi, t = [], [], 0.0
    for width, gap in zip(rng.uniform(0.05, 2.0, 300), rng.choice([0.0, 0.0, 0.7], 300)):
        t += float(gap) if lo else 0.0
        lo.append(t)
        t += float(width)
        hi.append(t)
    lo, hi = np.array(lo), np.array(hi)
    assert (lo[1:] != hi[:-1]).any() and (lo[1:] == hi[:-1]).any()
    want = [_power_integral(0.8, e, a, b) for a, b in zip(lo.tolist(), hi.tolist())]
    assert _hexes(_differences(0.8, e, lo, hi)) == _hexes(want)


def test_integral_clips_hi_to_a_finite_domain_end():
    # A weight on (0, 1) ending in a log piece: integrals past the end stop there.
    w = WeightSpec.make([(0, 0.5, 1.0, -0.5, 0.0), (0.5, 1, 2.0, 0.0, 1.0)])
    for p in (0.0, 2.0):
        within = w.integral(0.2, 1.0, p)
        assert within > 0.0
        assert w.integral(0.2, 5.0, p) == within
        assert w.integral(0.2, INF, p) == within
        assert w.integral(1.5, 3.0, p) == 0.0
    assert w.integral(0.2, 5.0) == pytest.approx(
        quad(lambda t: t ** -0.5 if t < 0.5 else 2.0 * math.log(math.e + t), 0.2, 1.0,
             points=[0.5])[0], rel=1e-10)

"""Norm evaluators: Lorentz over x* and x**, dispatch, fundamental functions.

The x**-norm is checked against scipy quadrature of the curve itself, an
entirely separate path from the piece-integral machinery.
"""

import math
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import quad

from rifs import (
    DivergentIntegralError,
    OrliczSpec,
    QuadratureCapError,
    SchemaError,
    SpaceHandle,
    StepFunction,
    TrialConfig,
    WeightDomainError,
    WeightSpec,
    add,
    fundamental_function,
    gamma_norm,
    hlp_dominates,
    in_D_p,
    indicator,
    lambda_norm,
    maximal_curve,
    norm,
    random_step,
    rearrange,
    scale,
)
from rifs import orlicz
from rifs.quadrature import integrate_cells
from rifs.step import ARRAY_MIN_PIECES
from rifs.weights import power_log_integral

INF = math.inf
W_CONST = WeightSpec.constant()
W_HALF = WeightSpec.power(-0.5)


# ----------------------------------------------------------------- lambda norm

def test_lambda_norm_is_classical_lp_for_unit_weight():
    cfg = TrialConfig(seed=23, trials=40)
    for trial in range(cfg.trials):
        x = random_step(cfg, trial)
        direct = sum((t1 - t0) * abs(v) ** 2 for t0, t1, v in x.pieces) ** 0.5
        assert lambda_norm(x, 2.0, W_CONST) == pytest.approx(direct, rel=1e-12)


def test_lambda_norm_sqrt_weight_indicator():
    assert lambda_norm(indicator(0, 1), 2.0, W_HALF) == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_lambda_norm_zero():
    assert lambda_norm(StepFunction.zero(), 2.0, W_HALF) == 0.0


def test_lambda_norm_divergence_signalled():
    with pytest.raises(DivergentIntegralError):
        lambda_norm(indicator(0, 1), 2.0, WeightSpec.power(-2.0))


# ------------------------------------------------------------------ gamma norm

def test_gamma_indicator_identity_unit_weight():
    # ||chi_(0,t)||^p = W(t) + W_p(t)
    for p in (1.5, 2.0, 3.0):
        for t in (0.5, 1.0, 4.0):
            expected = (W_CONST.W(t) + W_CONST.Wp(p, t)) ** (1.0 / p)
            assert gamma_norm(indicator(0, t), p, W_CONST) == pytest.approx(expected, rel=1e-9)


def test_gamma_zero():
    assert gamma_norm(StepFunction.zero(), 2.0, W_CONST) == 0.0


@pytest.mark.parametrize("pieces, width", [
    ([(0, 1e-3, 1e-320), (2, 2.5, 1e-320)], 0.501),  # a subnormal mass
    ([(0, 1e-5, 1e-320)], 1e-5),  # a mass that rounds to 0
])
def test_gamma_of_a_function_with_a_vanishing_mass_is_positive(pieces, width):
    # x* = c chi_(0, width) with c = 1e-320: Gamma^2 = c^2 (W + W_p)(width) =
    # c^2 (8/3) width^(1/2), a norm of 1.374e-320 and 9.2e-322, within one
    # subnormal step.
    expected = math.sqrt(8.0 / 3.0) * width ** 0.25 * 1e-320
    got = gamma_norm(StepFunction.make(pieces), 2.0, W_HALF)
    assert got > 0.0 and got == pytest.approx(expected, rel=0.0, abs=2.0 ** -1074)


# The norms of c * chi_(0,1) for w = t^-1/2: Lambda^p = 2 c^p, and Gamma^p =
# c^p (2 + integral_1^inf t^(-p - 1/2)) = c^p (2 + 1 / (p - 1/2)).
_UNIT_NORMS = {("lambda", 2.0): math.sqrt(2.0), ("gamma", 2.0): math.sqrt(8.0 / 3.0),
               ("lambda", 3.0): 2.0 ** (1.0 / 3.0), ("gamma", 3.0): 2.4 ** (1.0 / 3.0)}
_OVERFLOW_CASES = [(c, p, kind, method) for c in (1e200, 1e300) for p in (2.0, 3.0)
                   for kind, method in (("lambda", None), ("gamma", "auto"), ("gamma", "quadrature"))]
_OVERFLOW_CASES += [(1e154, 2.0, "lambda", None), (1e154, 2.0, "gamma", "auto")]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("c, p, kind, method", _OVERFLOW_CASES)
def test_lorentz_norms_of_large_values_do_not_overflow(c, p, kind, method):
    # Both norms are homogeneous; c^p, or the integral, overflowing a float
    # is no reason for an OverflowError or an inf.
    x = indicator(0.0, 1.0, c)
    got = lambda_norm(x, p, W_HALF) if kind == "lambda" else gamma_norm(x, p, W_HALF, method)
    rel = 1e-9 if method == "quadrature" else 1e-12
    assert got == pytest.approx(c * _UNIT_NORMS[kind, p], rel=rel)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("c, p, kind, method", [
    (c, p, kind, method) for c in (1e-200, 1e-160) for p in (2.0, 3.0)
    for kind, method in (("lambda", None), ("gamma", "auto"), ("gamma", "quadrature"))])
def test_lorentz_norms_of_small_values_do_not_underflow(c, p, kind, method):
    # c^p underflowed: both norms were 0.0 at c = 1e-200, and Lambda / c read
    # 1.4142057 at c = 1e-160.
    x = indicator(0.0, 1.0, c)
    got = lambda_norm(x, p, W_HALF) if kind == "lambda" else gamma_norm(x, p, W_HALF, method)
    rel = 1e-9 if method == "quadrature" else 1e-12
    assert got == pytest.approx(c * _UNIT_NORMS[kind, p], rel=rel, abs=0.0)


# The log-tail weight of the norms-large benchmark workload.
W_LOG = WeightSpec.make([(0, 1, 1, -0.5, 0), (1, "inf", 1, -0.5, 1)])
_SCALES = range(-1000, 1001, 50)
# Gamma by quadrature also runs the band of scales where (x**)^p t^(-1/2) left
# the float range at the nodes near 0 for the first x below, while sup|c x|^p
# did not: that overflow must go to the rescale too.
_QUADRATURE_BAND = {1.5: range(655, 686), 2.0: range(495, 516), 3.0: range(325, 346)}
_HOMOGENEOUS_NORMS = [
    (f"{name}-p{p}-{wname}", (lambda f, p=p, w=w, nf=nf: nf(f, p, w)), 1e-12, _SCALES)
    for name, nf in (("lambda", lambda_norm), ("gamma", gamma_norm)) for p in (1.5, 2.0, 3.0)
    for wname, w in (("half", W_HALF), ("log", W_LOG))
] + [
    (f"gamma-quadrature-p{p}-{wname}", (lambda f, p=p, w=w: gamma_norm(f, p, w, "quadrature")),
     1e-9, sorted({*_SCALES, *_QUADRATURE_BAND[p]}))
    for p in (1.5, 2.0, 3.0) for wname, w in (("half", W_HALF), ("log", W_LOG))
] + [
    (f"{flavor}-{psi.family}{psi.p or ''}",
     (lambda f, space=SpaceHandle.orlicz_space(psi, flavor): norm(space, f)), 1e-12, _SCALES)
    for flavor in ("luxemburg", "orlicz")
    for psi in (OrliczSpec.power(1.5), OrliczSpec.power(3.0), OrliczSpec.exp_minus_one(),
                OrliczSpec.table([(1, 1), (2, 3)]))
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, norm_of, rel, ks", _HOMOGENEOUS_NORMS,
                         ids=[entry[0] for entry in _HOMOGENEOUS_NORMS])
def test_norms_are_homogeneous_at_every_scale(name, norm_of, rel, ks):
    """``||c x|| = c ||x||`` for c = 2^k, which scales the values of x
    exactly: one scale rule serves every norm from k = -1000 to 1000."""
    rng = np.random.default_rng(43)
    xs = [StepFunction.make([(0.3, 1.2, 2.0), (1.5, 2.0, 0.7)])]
    for _ in range(4):
        n = int(rng.integers(1, 6))
        edges = np.cumsum(rng.uniform(0.05, 2.0, 2 * n))
        values = rng.uniform(0.1, 3.0, n) * rng.choice([-1.0, 1.0], n)
        xs.append(StepFunction.make(list(zip(edges[::2], edges[1::2], values))))
    for x in xs:
        base = norm_of(x)
        for k in ks:
            c = math.ldexp(1.0, k)
            assert norm_of(scale(x, c)) == pytest.approx(c * base, rel=rel, abs=0.0), (x, k)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("norm_of", [lambda_norm, gamma_norm])
def test_lorentz_norms_scale_by_a_large_factor(norm_of):
    x = StepFunction.make([(k + 0.25 * (k % 3), k + 1.0, (1.0 + k % 7) * (-1.0) ** k)
                           for k in range(200)])
    assert norm_of(scale(x, 1e200), 2.0, W_HALF) == pytest.approx(1e200 * norm_of(x, 2.0, W_HALF),
                                                                  rel=1e-12)


def test_gamma_rejects_non_dp_weight():
    with pytest.raises(WeightDomainError):
        gamma_norm(indicator(0, 1), 2.0, WeightSpec.power(2.0))


def test_gamma_dominates_lambda():
    cfg = TrialConfig(seed=29, trials=50)
    for trial in range(cfg.trials):
        x = random_step(cfg, trial)
        assert gamma_norm(x, 2.0, W_HALF) >= lambda_norm(x, 2.0, W_HALF) - 1e-9


def _gamma_scipy_oracle(x, p, w):
    """Independent evaluation: scipy quadrature of (x**)^p w piece by piece."""
    curve = maximal_curve(x)
    end = curve.breakpoints[-1]
    cuts = sorted(set(curve.breakpoints) | {pc.t0 for pc in w.pieces if 0 < pc.t0 < end})
    total = 0.0
    for lo, hi in zip(cuts, cuts[1:]):
        val, _ = quad(lambda t: curve.eval(t) ** p * w.value(t), lo, hi, limit=200)
        total += val
    tail, _ = quad(lambda t: (curve.total_integral / t) ** p * w.value(t),
                   end, math.inf, limit=400)
    return (total + tail) ** (1.0 / p)


def test_gamma_norm_matches_scipy_oracle():
    cfg = TrialConfig(seed=31, trials=20)
    for p, w in ((2.0, W_HALF), (1.5, W_HALF), (3.0, W_CONST), (2.5, W_CONST)):
        for trial in range(8):
            x = random_step(cfg, trial)
            assert gamma_norm(x, p, w) == pytest.approx(
                _gamma_scipy_oracle(x, p, w), rel=1e-7)


def test_gamma_closed_form_agrees_with_forced_quadrature():
    cfg = TrialConfig(seed=37, trials=25)
    for trial in range(cfg.trials):
        x = random_step(cfg, trial)
        # the quadrature path itself carries rel_tol 1e-9 per cell
        assert gamma_norm(x, 2.0, W_HALF) == pytest.approx(
            gamma_norm(x, 2.0, W_HALF, method="quadrature"), rel=5e-9)


W_ZERO_MIDDLE = WeightSpec.make([(0, 0.6, 1.0, -0.5, 0), (0.6, 1.7, 0.0, 0, 0),
                                 (1.7, INF, 2.0, -0.5, 0)])


@pytest.mark.parametrize("w, p, alpha", [
    # The binomial term j with e = a - j + 1 = 0 integrates to c*log(hi/lo):
    # j = 1 for a constant weight, j = 2 for a t^1 piece.
    (W_CONST, 2.0, INF),
    (WeightSpec.power(1.0, end=1.0), 2.0, 1.0),
    (W_ZERO_MIDDLE, 2.0, INF),
    (W_ZERO_MIDDLE, 3.0, INF),
])
def test_gamma_closed_form_branches_agree_with_forced_quadrature(w, p, alpha):
    cfg = TrialConfig(seed=53, trials=15)
    for trial in range(cfg.trials):
        x = random_step(cfg, trial, alpha=alpha)
        assert gamma_norm(x, p, w) == pytest.approx(
            gamma_norm(x, p, w, method="quadrature"), rel=5e-9)


def test_gamma_closed_form_with_weight_start_inside_a_piece_agrees_with_forced_quadrature():
    # x* is 3 on (0, 1.5) and 1 on (1.5, 4): the weight starts 0.4 and 2.2
    # fall inside its pieces, so each piece of x** is cut into cells.
    w = WeightSpec.make([(0, 0.4, 1.0, -0.5, 0), (0.4, 2.2, 0.5, 0.0, 0), (2.2, INF, 1.0, -1.5, 0)])
    x = StepFunction.make([(0, 2.5, 1.0), (3, 4.5, -3.0)])
    assert [t1 for _, t1, _ in rearrange(x).pieces] == [1.5, 4.0]
    for p in (1.0, 2.0, 3.0):
        assert gamma_norm(x, p, w) == pytest.approx(
            gamma_norm(x, p, w, method="quadrature"), rel=5e-9)


def test_gamma_norm_with_log_weight_piece():
    w = WeightSpec.make([(0, 1, 1.0, -0.5, 1.0), (1, INF, 1.0, -2.0, -1.0)])
    x = StepFunction.make([(0, 1, 2.0), (1, 3, 1.0)])
    assert gamma_norm(x, 2.0, w) == pytest.approx(_gamma_scipy_oracle(x, 2.0, w), rel=1e-7)


def test_gamma_alpha_one_domain():
    w1 = WeightSpec.constant(end=1.0)
    x = indicator(0, 0.5, 1.0, alpha=1.0)
    expected = (w1.W(0.5) + w1.Wp(2.0, 0.5)) ** 0.5
    assert gamma_norm(x, 2.0, w1) == pytest.approx(expected, rel=1e-9)


def test_gamma_k_monotone_under_domination():
    cfg = TrialConfig(seed=41, trials=60)
    for trial in range(cfg.trials):
        x = random_step(cfg, trial, stream=0)
        bump = rearrange(random_step(cfg, trial, stream=1))
        y = add(rearrange(x), bump)
        assert hlp_dominates(x, y)
        assert gamma_norm(x, 2.0, W_HALF) <= gamma_norm(y, 2.0, W_HALF) + 1e-9


# ------------------------------------------------------------- space handles

def test_norm_dispatch_and_domain_check():
    g = SpaceHandle.lorentz_gamma(2.0, W_HALF)
    assert norm(g, indicator(0, 1)) == pytest.approx(gamma_norm(indicator(0, 1), 2.0, W_HALF))
    with pytest.raises(SchemaError):
        norm(g, indicator(0, 1, alpha=1.0))


def test_gamma_handle_rejects_bad_weight():
    with pytest.raises(WeightDomainError):
        SpaceHandle.lorentz_gamma(2.0, WeightSpec.power(2.0))


def test_orlicz_flavor_dispatch():
    from rifs import luxemburg_norm, orlicz_norm

    psi = OrliczSpec.power(2)
    x = StepFunction.make([(0, 1, 2.0), (2, 3, 1.0)])
    lux_handle = SpaceHandle.orlicz_space(psi, "luxemburg")
    orl_handle = SpaceHandle.orlicz_space(psi, "orlicz")
    assert norm(lux_handle, x) == pytest.approx(luxemburg_norm(x, psi))
    assert norm(orl_handle, x) == pytest.approx(orlicz_norm(x, psi))
    assert fundamental_function(orl_handle, 1.0) == pytest.approx(2.0, abs=1e-6)


def test_space_json_round_trip():
    spaces = [
        SpaceHandle.lorentz_lambda(2.0, W_HALF),
        SpaceHandle.lorentz_gamma(1.5, W_CONST),
        SpaceHandle.orlicz_space(OrliczSpec.power(2), "orlicz"),
        SpaceHandle.orlicz_space(OrliczSpec.exp_minus_one(), "luxemburg", 1.0),
    ]
    for s in spaces:
        assert SpaceHandle.from_json(s.to_json()) == s


def test_describe_names_each_kind():
    # These strings name the probe reports (kmono[...], skm[...],
    # rotundity[...]) and fundamental_limits["space"].
    assert SpaceHandle.lorentz_lambda(2.0, W_HALF).describe() == "Lambda(p=2.0)"
    assert SpaceHandle.lorentz_gamma(1.5, W_CONST).describe() == "Gamma(p=1.5)"
    assert (SpaceHandle.orlicz_space(OrliczSpec.exp_minus_one()).describe()
            == "Orlicz(exp_minus_one, luxemburg)")
    assert (SpaceHandle.orlicz_space(OrliczSpec.power(2), "orlicz", 1.0).describe()
            == "Orlicz(power, orlicz)")


# ------------------------------------------------------------- norm axioms

@pytest.fixture(scope="module")
def battery():
    return [
        SpaceHandle.lorentz_lambda(2.0, W_HALF),
        SpaceHandle.lorentz_gamma(2.0, W_HALF),
        SpaceHandle.orlicz_space(OrliczSpec.power(2)),
        SpaceHandle.orlicz_space(OrliczSpec.shifted_power(1.0, 2.0)),
    ]


def test_triangle_inequality_and_homogeneity(battery):
    cfg = TrialConfig(seed=43, trials=25)
    for space in battery:
        for trial in range(cfg.trials):
            x = random_step(cfg, trial, stream=0)
            y = random_step(cfg, trial, stream=1)
            nx, ny = norm(space, x), norm(space, y)
            assert norm(space, add(x, y)) <= nx + ny + 1e-8
            assert norm(space, scale(x, -2.5)) == pytest.approx(2.5 * nx, rel=1e-8, abs=1e-10)


def test_symmetry_equimeasurable_equal_norm(battery):
    cfg = TrialConfig(seed=47, trials=25)
    for space in battery:
        for trial in range(cfg.trials):
            x = random_step(cfg, trial)
            shifted = StepFunction.make([(t0 + 3.25, t1 + 3.25, v) for t0, t1, v in x.pieces])
            assert norm(space, x) == pytest.approx(norm(space, shifted), rel=1e-9, abs=1e-12)


# ----------------------------------------------------- fundamental functions

def test_fundamental_gamma_unit_weight():
    g = SpaceHandle.lorentz_gamma(2.0, W_CONST)
    assert fundamental_function(g, 1.0) == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_fundamental_orlicz_power():
    for p in (1.0, 2.0, 3.0):
        s = SpaceHandle.orlicz_space(OrliczSpec.power(p))
        for t in (0.25, 1.0, 9.0):
            assert fundamental_function(s, t) == pytest.approx(t ** (1.0 / p), rel=1e-9)


def test_fundamental_vanishes_at_zero(battery):
    # phi(t) -> 0 as t -> 0+, though the decay rate varies by space
    for space in battery:
        phis = [fundamental_function(space, t) for t in (1e-2, 1e-5, 1e-8)]
        assert all(a > b for a, b in zip(phis, phis[1:]))
        assert phis[-1] < phis[0] / 10.0 and phis[-1] < 0.05


def test_fundamental_quasiconcave(battery):
    ts = np.geomspace(1e-3, 1e3, 25)
    for space in battery:
        phis = np.array([fundamental_function(space, float(t)) for t in ts])
        assert np.all(np.diff(phis) >= -1e-12)          # nondecreasing
        assert np.all(np.diff(phis / ts) <= 1e-12)      # phi(t)/t nonincreasing


def test_fundamental_matches_norm_of_indicator(battery):
    for space in battery:
        for t in (0.5, 2.0, 7.0):
            assert fundamental_function(space, t) == pytest.approx(
                norm(space, indicator(0, t)), rel=1e-9)


# ----------------------------------------- one cell walk, by per-cell reference

def _lambda_reference(x, p, w):
    """One weight integral per piece of x*."""
    star = rearrange(x)
    if star.is_zero:
        return 0.0
    total = 0.0
    for t0, t1, v in star.pieces:
        inc = w.integral(t0, t1)
        if math.isinf(inc):
            raise DivergentIntegralError("weight is not locally integrable near 0")
        total += v ** p * inc
    return total ** (1.0 / p)


def _closed_form_cell_reference(A, B, p, piece, lo, hi):
    """One cell of x** in closed form, or None when it needs quadrature."""
    if piece.c == 0.0 or hi <= lo:
        return 0.0
    if A == 0.0:
        return B ** p * power_log_integral(piece.c, piece.a, piece.b, lo, hi)
    if piece.b == 0.0 and p == round(p) and 1 <= p <= 12:
        n = int(round(p))
        total = 0.0
        for j in range(n + 1):
            total += (
                math.comb(n, j) * B ** (n - j) * A ** j
                * power_log_integral(piece.c, piece.a - j, 0.0, lo, hi)
            )
        return total
    return None


def _gamma_reference(x, p, w, method="auto"):
    """Each cell of x** on its own, bisected into the curve and the weight."""
    if not in_D_p(w, p, x.alpha):
        raise WeightDomainError("weight is not in class D_p")
    curve = maximal_curve(x)
    if curve.total_integral == 0.0:
        return 0.0
    support_end = curve.breakpoints[-1]
    starts = [pc.t0 for pc in w.pieces]
    cuts = sorted(set(curve.breakpoints) | {t for t in starts if 0.0 < t < support_end})
    last = len(curve.coeffs) - 1
    parts = []
    cells = []
    for lo, hi in zip(cuts, cuts[1:]):
        A, B = curve.coeffs[min(bisect_right(curve.breakpoints, lo) - 1, last)]
        pc = w.pieces[bisect_right(starts, lo) - 1]
        part = None if method == "quadrature" else _closed_form_cell_reference(A, B, p, pc, lo, hi)
        if part is None:
            cells.append((len(parts), lo, hi, A, B, pc.c, pc.a, pc.b))
            part = 0.0
        parts.append(part)
    if cells:
        idx, lo, hi, A, B, c, a, b = (np.array(col) for col in zip(*cells))

        def f(ts, k):
            return (B[k] + A[k] / ts) ** p * c[k] * ts ** a[k] * np.log(np.e + ts) ** b[k]

        for i, part in zip(idx, integrate_cells(f, lo, hi, rel_tol=1e-9)):
            parts[i] = float(part)
    total = 0.0
    for part in parts:
        total += part
    tail = w.wp_tail_integral(p, support_end)
    if math.isinf(tail):
        raise DivergentIntegralError("gamma tail integral diverges (D_p violation)")
    total += curve.total_integral ** p * tail
    return total ** (1.0 / p)


def _outcome(norm_fn, *args):
    """The result's bits, or the error raised."""
    try:
        return norm_fn(*args).hex()
    except (DivergentIntegralError, WeightDomainError, QuadratureCapError) as exc:
        return type(exc).__name__


@st.composite
def functions_and_weights(draw):
    """x of 1-6 or of 64-160 pieces on (0, 1) or (0, inf) and a weight of 1-4
    pieces, with c = 0 pieces, log pieces, a = -1 and starts that fall on
    breakpoints of x* or inside its pieces.  The long x mostly have distinct
    values, so that x* reaches ``ARRAY_MIN_PIECES`` pieces."""
    alpha = draw(st.sampled_from([1.0, INF]))
    n = draw(st.one_of(st.integers(1, 6), st.integers(ARRAY_MIN_PIECES, 160)))
    top, unit = (0.97, 0.36 / max(n, 6)) if alpha == 1.0 else (10.0, 1.0)
    pieces = []
    cursor = 0.0
    for i in range(n):
        cursor += unit * draw(st.sampled_from([0.0, 0.0, 0.3, 1.0]))
        length = unit * draw(st.floats(0.05, 1.5))
        value = draw(st.sampled_from([0.0, 0.25, -0.5, 1.0, 1.5, -2.0, 3.0]))
        if n > 6:
            value *= 1.0 + i / n
        pieces.append((cursor, cursor + length, value))
        cursor += length
    x = StepFunction.make(pieces, alpha)
    star_ends = [t1 for _, t1, _ in rearrange(x).pieces][:-1]
    starts = st.floats(0.01, top)
    if star_ends:
        starts = st.one_of(starts, st.sampled_from(star_ends))
    cuts = sorted(draw(st.lists(starts, max_size=3, unique=True)))
    bounds = [0.0] + cuts + [alpha]
    pieces = [(t0, t1,
               draw(st.sampled_from([0.0, 0.5, 1.0, 2.5])),
               draw(st.sampled_from([-2.0, -1.0, -0.5, 0.0, 1.0, 1.5])),
               draw(st.sampled_from([0.0, 0.0, 0.0, -2.0, 1.0])))
              for t0, t1 in zip(bounds, bounds[1:])]
    return x, WeightSpec.make(pieces)


@settings(deadline=None, max_examples=240)
@given(functions_and_weights(), st.sampled_from([1.0, 1.5, 2.0, 3.0, 7.0]))
def test_lorentz_norms_match_per_cell_reference(drawn, p):
    # The cell walk must give the bits of the per-cell loops it replaced.
    x, w = drawn
    assert _outcome(lambda_norm, x, p, w) == _outcome(_lambda_reference, x, p, w)
    for method in ("auto", "quadrature"):
        assert _outcome(gamma_norm, x, p, w, method) == _outcome(_gamma_reference, x, p, w, method)


def test_gamma_rejects_weight_on_the_exact_D_p_boundary():
    # The tail exponent 1.14 - 2.14 is -1 exactly in decimals, so W_p diverges.
    with pytest.raises(WeightDomainError):
        gamma_norm(indicator(0, 1), 2.14, WeightSpec.power(1.14))


# -------------------------------------------------------- cell subgradients

# A nonincreasing weight in D_p: its starts cut cells, and its log piece sends
# cells to batched quadrature.  W_LOG_TAIL ends in a log piece instead, whose
# tail integral the exp-sinh rule takes.
W_CUT = WeightSpec.make([(0, 0.7, 1, -0.5, 0), (0.7, 2, 0.8, -0.5, -1), (2, "inf", 0.5, -0.5, 0)])
W_LOG_TAIL = WeightSpec.make([(0, 0.7, 1, -0.5, 0), (0.7, 2, 0.8, -0.5, 0), (2, "inf", 0.8, -0.5, -1)])
SUBGRADIENT_SPACES = [
    SpaceHandle.orlicz_space(OrliczSpec.power(2)),
    SpaceHandle.orlicz_space(OrliczSpec.exp_minus_one()),
    SpaceHandle.orlicz_space(OrliczSpec.table([(1, 1), (2, 3)], inf_beyond=True)),
    SpaceHandle.orlicz_space(OrliczSpec.table([(1, 1), (2, 3)], inf_beyond=True), flavor="orlicz"),
    SpaceHandle.orlicz_space(OrliczSpec.power(3), flavor="orlicz"),
    SpaceHandle.orlicz_space(OrliczSpec.exp_minus_one(), flavor="orlicz"),
    SpaceHandle.orlicz_space(OrliczSpec.shifted_power(1.0, 2.0), flavor="orlicz"),
    # Both take the Amemiya infimum as s -> inf (psi linear beyond its last point).
    SpaceHandle.orlicz_space(OrliczSpec.power(1), flavor="orlicz"),
    SpaceHandle.orlicz_space(OrliczSpec.table([(1, 0.5)]), flavor="orlicz"),
] + [make(p, w) for make in (SpaceHandle.lorentz_lambda, SpaceHandle.lorentz_gamma)
     for p in (1.5, 2.0, 3.0) for w in (WeightSpec.power(-0.5), W_CUT)] + [
    make(p, W_LOG_TAIL) for make in (SpaceHandle.lorentz_lambda, SpaceHandle.lorentz_gamma)
    for p in (1.5, 2.0)]


@st.composite
def cell_vectors(draw):
    """Contiguous cells from 0 with a vector v on them that has at least one
    nonzero value and may have zero cells and ties, and three more vectors u."""
    n = draw(st.integers(1, 6))
    widths = draw(st.lists(st.floats(0.05, 2.0), min_size=n, max_size=n))
    v = draw(st.lists(st.floats(0.01, 3.0) | st.floats(-3.0, -0.01), min_size=n, max_size=n))
    cell = st.integers(0, n - 1)
    for _ in range(draw(st.integers(0, 2))):  # ties in |v|
        v[draw(cell)] = draw(st.sampled_from([1.0, -1.0])) * v[draw(cell)]
    for _ in range(draw(st.integers(0, 2))):
        v[draw(cell)] = 0.0
    assume(any(v))
    us = draw(st.lists(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n), min_size=3, max_size=3))
    edges = np.concatenate(([0.0], np.cumsum(widths)))
    return edges[:-1], edges[1:], np.array(v), [np.array(u) for u in us]


@settings(deadline=None, max_examples=600)
@given(st.sampled_from(SUBGRADIENT_SPACES), cell_vectors())
def test_cell_subgradient_is_a_subgradient(space, drawn):
    """``N(u) >= N(v) + <g, u - v>`` for the subgradient g at v, with u drawn,
    0, 2v, -v and v with each cell's sign flipped.  Where v has no zero cell,
    no two values of |v| lie within 0.1% of each other and psi has no kink,
    the norm is differentiable around v and g must match its central
    differences."""
    lo, hi, v, us = drawn
    norm_of, subgradient, _ = space._cell_kernels(lo, hi)
    value = norm_of(v)
    g = subgradient(v, value)
    for u in us + [0.0 * v, 2.0 * v, -v] + [np.where(np.arange(len(v)) == k, -v, v) for k in range(len(v))]:
        nu = norm_of(u)
        assert nu >= value + float(np.dot(g, u - v)) - 1e-12 * max(1.0, nu), (u, nu)
    mags = np.sort(np.abs(v))
    kinked = getattr(space, "orlicz", None) is not None and space.orlicz._kinks is not None
    if kinked or mags[0] == 0.0 or (np.diff(mags) <= 1e-3 * mags[1:]).any():
        return
    h = 1e-4 * np.abs(v)  # a step of each cell's own scale, far inside any tie
    numeric = np.array([(norm_of(v + e) - norm_of(v - e)) / (2.0 * hk) for hk, e in zip(h, np.diag(h))])
    assert np.allclose(g, numeric, rtol=1e-6, atol=1e-6 * np.abs(numeric).max()), (g, numeric)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("space", SUBGRADIENT_SPACES, ids=lambda space: space.describe())
def test_cell_subgradient_does_not_change_with_the_scale(space):
    """Every norm here is homogeneous, so its subgradient at c v is the one
    at v: within 1e-12 relative at c = 2^±600 and 2^±900, with no warning."""
    rng = np.random.default_rng(47)
    for _ in range(5):
        n = int(rng.integers(1, 7))
        edges = np.concatenate(([0.0], np.cumsum(rng.uniform(0.05, 2.0, n))))
        v = rng.uniform(0.01, 3.0, n) * rng.choice([-1.0, 0.0, 1.0], n)
        v[int(rng.integers(n))] = 1.5
        norm_of, subgradient, _ = space._cell_kernels(edges[:-1], edges[1:])
        g = subgradient(v, norm_of(v))
        for k in (-900, -600, 600, 900):
            cv = np.ldexp(v, k)
            gc = subgradient(cv, norm_of(cv))
            if g is None:
                assert gc is None, k
            else:
                assert np.abs(gc - g).max() <= 1e-12 * np.abs(g).max(), (v, k, g, gc)


def test_gamma_subgradient_on_a_log_tail_near_a_zero_cell():
    # u differs from v = (0, 1) only by 5.8e-47 on the first cell, so N(u) and
    # N(v) are one integral split at two support ends, 3 and 2: the log-tail
    # integrals from each must agree to the test's 1e-12.
    lo, hi = np.array([0.0, 1.0]), np.array([1.0, 3.0])
    v, u = np.array([0.0, 1.0]), np.array([5.8e-47, 1.0])
    for p in (1.5, 2.0):
        space = SpaceHandle.lorentz_gamma(p, W_LOG_TAIL)
        norm_of, subgradient, _ = space._cell_kernels(lo, hi)
        value = norm_of(v)
        g = subgradient(v, value)
        nu = norm_of(u)
        assert nu >= value + float(np.dot(g, u - v)) - 1e-12 * max(1.0, nu), p


def test_amemiya_subgradient_is_none_where_the_solve_misses_the_stationary_point():
    """shifted_power(1, p) on a cell of width W puts the Amemiya root within
    about W^(-1/(p-1)) of a_psi = 1, where psi' is resolved to a few bits:
    from W = 1e9 on, g at the root is off by up to 11% of the norm.  There
    the subgradient is None; wherever it is given, it stays sound."""
    v = np.array([1.0, 0.5])
    for p in (2.0, 3.0):
        space = SpaceHandle.orlicz_space(OrliczSpec.shifted_power(1.0, p), flavor="orlicz")
        for width in (1e3, 1e6, 1e9, 1e12, 1e15):
            lo, hi = np.array([0.0, width]), np.array([width, width + 1.0])
            norm_of, subgradient, _ = space._cell_kernels(lo, hi)
            value = norm_of(v)
            g = subgradient(v, value)
            if width >= 1e9:
                assert g is None, (p, width)
            elif g is not None:
                # u = 0 and u = 2v: by homogeneity <g, v> = N(v) on the nose.
                assert abs(float(np.dot(g, v)) - value) <= 1e-12 * value, (p, width)


def test_power_cell_kernels_match_the_norm_on_cells_bit_for_bit():
    """The power family's cell norm, bound once to a table, is
    ``_norm_on_cells`` of the widths and |v|, and its Luxemburg subgradient is
    ``lam d / <d, v>`` with ``d = w psi'(|v| / lam) sign(v)``, bit for bit.
    The scales 2^-600 and 2^600 take the closed form's rescale fallback."""
    rng = np.random.default_rng(33)
    for p in (1.0, 1.5, 2.0, 3.0):
        for coef in (1.0, 0.3):
            psi = OrliczSpec.power(p, coef)
            for flavor in ("luxemburg", "orlicz"):
                space = SpaceHandle.orlicz_space(psi, flavor)
                for _ in range(20):
                    n = int(rng.integers(1, 26))
                    edges = np.concatenate(([0.0], np.cumsum(rng.uniform(0.01, 2.0, n))))
                    lo, hi = edges[:-1], edges[1:]
                    v = rng.uniform(0.1, 3.0, n) * rng.choice([-1.0, 0.0, 1.0], n)
                    v[int(rng.integers(n))] = 1.5
                    norm_of, subgradient, _ = space._cell_kernels(lo, hi)
                    for k in (-600, 0, 600):
                        vals = np.ldexp(v, k)
                        # The guard project_hull holds: |v|^p may overflow.
                        with np.errstate(over="ignore", divide="raise", invalid="raise"):
                            value = norm_of(vals)
                            assert value == orlicz._norm_on_cells(hi - lo, np.abs(vals), psi, flavor)
                            if flavor != "luxemburg":
                                continue
                            g = subgradient(vals, value)
                            d = (hi - lo) * psi.psi_slope_many(np.abs(vals) / value) * np.sign(vals)
                        assert math.isfinite(value) and value > 0.0, (p, coef, k)
                        assert g.tobytes() == ((value / float(np.dot(d, vals))) * d).tobytes()


def test_cell_subgradient_is_none_where_the_norm_is_not_known_convex():
    lo, hi = np.array([0.0, 1.0]), np.array([1.0, 3.0])
    half = WeightSpec.power(-0.5)
    assert SpaceHandle.lorentz_lambda(0.5, half)._cell_kernels(lo, hi)[1] is None
    assert SpaceHandle.lorentz_gamma(0.5, WeightSpec.power(-0.8))._cell_kernels(lo, hi)[1] is None
    # t^(1/2) increases, so Lambda over it is no norm; a step up at t = 1 likewise.
    assert SpaceHandle.lorentz_lambda(2.0, WeightSpec.power(0.5))._cell_kernels(lo, hi)[1] is None
    step_up = WeightSpec.make([(0, 1, 1, -0.5, 0), (1, "inf", 2, -0.5, 0)])
    assert SpaceHandle.lorentz_lambda(2.0, step_up)._cell_kernels(lo, hi)[1] is None
    assert SpaceHandle.lorentz_gamma(2.0, WeightSpec.power(0.5, end=1.0), alpha=1.0) \
        ._cell_kernels(lo, hi)[1] is not None

"""Parameter validation: a NaN, infinite or out-of-range parameter raises
SchemaError where it enters (constructors and raw-parameter entry points),
instead of becoming a silent NaN or inf result, a probe that finds nothing,
or a non-rifs exception."""

import math

import pytest

from rifs import (
    CandidateSet,
    OrliczSpec,
    SchemaError,
    SpaceHandle,
    StepFunction,
    TrialConfig,
    WeightSpec,
    dukm_sequence_run,
    gamma_norm,
    hlp_dominates,
    in_D_p,
    indicator,
    k_upper_bound_check,
    lambda_norm,
    luxemburg_norm,
    maximal_curve,
    minimizing_sequence,
    norm,
    project_hull,
    rotundity_probe,
    young_conjugate,
)
from rifs.optimize import brent_min

NAN, INF = math.nan, math.inf
X = indicator(0.0, 1.0, 2.0)
X2 = StepFunction.make([(0, 1, 2.0), (2, 3, 1.0)])
W = WeightSpec.power(-0.5)


def _bowl(t):
    return (t - 0.3) ** 2 + 1.0


ROWS = {
    "power-p-nan": lambda: luxemburg_norm(X, OrliczSpec.power(NAN)),
    "power-p-inf": lambda: luxemburg_norm(X, OrliczSpec.power(INF)),
    "power-coef-nan": lambda: luxemburg_norm(X, OrliczSpec.power(2, coef=NAN)),
    "shifted-power-shift-nan": lambda: OrliczSpec.shifted_power(NAN, 2),
    "table-value-nan": lambda: OrliczSpec.table([(1, NAN)]),
    "weight-c-nan": lambda: WeightSpec.make([(0, INF, NAN, -0.5, 0)]),
    "weight-a-nan": lambda: lambda_norm(X, 2, WeightSpec.make([(0, INF, 1, NAN, 0)])),
    "lambda-norm-p-nan": lambda: lambda_norm(X, NAN, W),
    "lambda-space-p-nan": lambda: norm(SpaceHandle.lorentz_lambda(NAN, W), X),
    "gamma-space-p-nan": lambda: SpaceHandle.lorentz_gamma(NAN, W),
    "in-D-p-nan": lambda: in_D_p(W, NAN, INF),
    "weight-Wp-p-nan": lambda: W.Wp(NAN, 1.0),
    "gamma-norm-p-nan": lambda: gamma_norm(X, NAN, W),
    "gamma-norm-p-inf": lambda: gamma_norm(X, INF, W),
    "gamma-norm-method-exact": lambda: gamma_norm(X, 2, W, method="exact"),
    "hull-tol-nan": lambda: project_hull(
        StepFunction.zero(),
        CandidateSet.make([indicator(0, 1), indicator(1, 2)], hull=True),
        SpaceHandle.orlicz_space(OrliczSpec.power(2)), tol=NAN),
    "hull-tol-inf": lambda: project_hull(
        StepFunction.zero(),
        CandidateSet.make([indicator(0, 1), indicator(1, 2)], hull=True),
        SpaceHandle.orlicz_space(OrliczSpec.power(2)), tol=INF),
    "hull-max-line-searches-nan": lambda: project_hull(
        StepFunction.zero(),
        CandidateSet.make([indicator(0, 1), indicator(1, 2)], hull=True),
        SpaceHandle.orlicz_space(OrliczSpec.power(2)), max_line_searches=NAN),
    "minimizing-sequence-n-fractional": lambda: minimizing_sequence(
        StepFunction.zero(), CandidateSet.make([indicator(0, 1), indicator(1, 2)], hull=True),
        SpaceHandle.orlicz_space(OrliczSpec.power(2)), 2.5),
    "minimizing-sequence-n-nan": lambda: minimizing_sequence(
        StepFunction.zero(), CandidateSet.make([indicator(0, 1), indicator(1, 2)], hull=True),
        SpaceHandle.orlicz_space(OrliczSpec.power(2)), NAN),
    "minimizing-sequence-n-inf": lambda: minimizing_sequence(
        StepFunction.zero(), CandidateSet.make([indicator(0, 1), indicator(1, 2)], hull=True),
        SpaceHandle.orlicz_space(OrliczSpec.power(2)), INF),
    "minimizing-sequence-n-negative": lambda: minimizing_sequence(
        StepFunction.zero(), CandidateSet.make([indicator(0, 1)]),
        SpaceHandle.orlicz_space(OrliczSpec.power(2)), -1),
    "hull-members-different-domain": lambda: project_hull(
        indicator(0, 1),
        CandidateSet.make([StepFunction.make([(0, 0.5, 1.0)], 1.0),
                           StepFunction.make([(0.5, 1, 2.0)], 1.0)], hull=True),
        SpaceHandle.orlicz_space(OrliczSpec.power(2))),
    "trial-seed-negative": lambda: TrialConfig(seed=-1),
    "trial-seed-fractional": lambda: TrialConfig(seed=1.5),
    "trial-trials-fractional": lambda: TrialConfig(trials=2.5),
    "trial-max-pieces-fractional": lambda: TrialConfig(max_pieces=2.5),
    "dukm-n-max-zero": lambda: dukm_sequence_run(SpaceHandle.orlicz_space(OrliczSpec.power(1)), 0),
    "trial-tolerance-nan": lambda: TrialConfig(tolerance=NAN),
    "trial-tolerance-negative": lambda: TrialConfig(tolerance=-1.0),
    "trial-value-range-inf": lambda: TrialConfig(value_range=(0.1, INF)),
    "trial-length-range-inf": lambda: TrialConfig(length_range=(0.05, INF)),
    "orlicz-space-alpha-nan": lambda: SpaceHandle.orlicz_space(OrliczSpec.power(2), alpha=NAN),
    "orlicz-space-alpha-2": lambda: SpaceHandle.orlicz_space(OrliczSpec.power(2), alpha=2.0),
    "lambda-space-alpha-2": lambda: SpaceHandle.lorentz_lambda(
        2, WeightSpec.make([(0, 2, 1, -0.5, 0)]), alpha=2.0),
    "young-conjugate-nan-power": lambda: young_conjugate(OrliczSpec.power(2), NAN),
    "young-conjugate-nan-table": lambda: young_conjugate(OrliczSpec.table([(1, 1), (2, 3)]), NAN),
    "value-at-nan": lambda: X.value_at(NAN),
    "maximal-curve-eval-nan": lambda: maximal_curve(X).eval(NAN),
    "maximal-curve-eval-many-negative": lambda: maximal_curve(X2).eval_many([-1.0]),
    "maximal-curve-eval-many-zero": lambda: maximal_curve(X2).eval_many([0.0]),
    "maximal-curve-eval-many-nan": lambda: maximal_curve(X2).eval_many([NAN]),
    "values-nan": lambda: X2.values([0.5, NAN]),
    "weight-value-nan": lambda: W.value(NAN),
    "weight-values-nan": lambda: W.values([0.5, NAN]),
    "weight-W-nan": lambda: W.W(NAN),
    "weight-integral-hi-nan": lambda: W.integral(0.0, NAN),
    "weight-integral-lo-nan": lambda: W.integral(NAN, 1.0),
    "weight-wp-tail-integral-nan": lambda: W.wp_tail_integral(2.0, NAN),
    "weight-Wp-s-nan": lambda: W.Wp(2.0, NAN),
    # Each of these returned a number: 1.0, inf, nan, 0.0 and nan.
    "weight-W-beyond-domain": lambda: WeightSpec.constant(end=1.0).W(2.0),
    "weight-Wp-s-zero": lambda: W.Wp(2.0, 0.0),
    "weight-integral-p-nan": lambda: W.integral(1.0, 2.0, NAN),
    "weight-integral-p-inf": lambda: W.integral(1.0, 2.0, INF),
    "weight-wp-tail-integral-p-nan": lambda: W.wp_tail_integral(NAN, 1.0),
    # True for 1 against 2 on (0, 1) at tol = nan; x unequal to itself at tol < 0.
    "approx-equal-tol-nan": lambda: indicator(0, 1).approx_equal(indicator(0, 1, 2.0), tol=NAN),
    "approx-equal-tol-negative": lambda: X.approx_equal(X, tol=-1.0),
    # numpy's TypeError from np.eye.
    "rotundity-dim-grid-fractional": lambda: rotundity_probe(
        SpaceHandle.orlicz_space(OrliczSpec.power(2)), 2.5, TrialConfig(trials=1)),
    "rotundity-dim-grid-nan": lambda: rotundity_probe(
        SpaceHandle.orlicz_space(OrliczSpec.power(2)), NAN, TrialConfig(trials=1)),
    "psi-power-nan": lambda: OrliczSpec.power(2).psi(NAN),
    "psi-table-nan": lambda: OrliczSpec.table([(1, 1), (2, 3)]).psi(NAN),
    # f = (t - 0.3)^2 + 1 on [0, 1]: each of these returned (0.0, 1.09).
    "brent-min-tol-zero": lambda: brent_min(_bowl, 0.0, 1.0, tol=0.0),
    "brent-min-tol-negative": lambda: brent_min(_bowl, 0.0, 1.0, tol=-1.0),
    "brent-min-tol-inf": lambda: brent_min(_bowl, 0.0, 1.0, tol=INF),
    "brent-min-tol-nan": lambda: brent_min(_bowl, 0.0, 1.0, tol=NAN),
    "brent-min-reversed": lambda: brent_min(lambda t: (t - 0.3) ** 2, 1.0, 0.0),
    "dominates-tol-inf": lambda: hlp_dominates(indicator(0, 1, 2.0), indicator(0, 1), tol=INF),
    "dominates-different-domains": lambda: hlp_dominates(
        StepFunction.make([(0, 0.5, 1.0)], 1.0), StepFunction.make([(0, 2, 1.0)])),
    "k-upper-bound-different-domains": lambda: k_upper_bound_check(
        StepFunction.make([(0, 2, 1.0)]),
        CandidateSet.make([StepFunction.make([(0, 0.5, 1.0)], 1.0)])),
}


@pytest.mark.parametrize("call", ROWS.values(), ids=ROWS.keys())
def test_non_finite_parameter_raises_schema_error(call):
    with pytest.raises(SchemaError):
        call()


# ------------------------------------------------- malformed values in JSON

# Values of the wrong kind where JSON holds a number; the integer is too
# large for a float.
MALFORMED = {"string": "x", "null": None, "list": [1], "object": {}, "huge-integer": 10 ** 400}
STEP_JSON = {"alpha": "inf", "pieces": [{"t0": 0, "t1": 1, "v": 1}]}
WEIGHT_JSON = {"pieces": [{"t0": 0, "t1": "inf", "c": 1, "a": -0.5, "b": 0}]}


def _with(obj, path, value):
    """A copy of the JSON obj with the entry at path (keys and indices) set to value."""
    if not path:
        return value
    head, *rest = path
    out = list(obj) if isinstance(obj, list) else dict(obj)
    out[head] = _with(obj[head], rest, value)
    return out


def _malformed_json_rows():
    """(reader, JSON) with one numeric field replaced by a value from
    ``MALFORMED``, or an Orlicz table with points of the wrong shape."""
    readers = [
        (StepFunction.from_json, STEP_JSON, [("alpha",)] + [("pieces", 0, f) for f in ("t0", "t1", "v")]),
        (WeightSpec.from_json, WEIGHT_JSON, [("pieces", 0, f) for f in ("t0", "t1", "c", "a", "b")]),
        (OrliczSpec.from_json, {"family": "power", "params": {"p": 2, "coef": 1}},
         [("params", "p"), ("params", "coef")]),
        (OrliczSpec.from_json, {"family": "shifted_power", "params": {"a": 1, "p": 2}},
         [("params", "a"), ("params", "p")]),
        (OrliczSpec.from_json, {"family": "table", "params": {"points": [[1, 2]]}},
         [("params", "points", 0, 0), ("params", "points", 0, 1)]),
        (SpaceHandle.from_json, {"kind": "lorentz_gamma", "alpha": "inf", "p": 2, "weight": WEIGHT_JSON},
         [("alpha",), ("p",)]),
        (SpaceHandle.from_json, {"kind": "orlicz", "alpha": "inf",
                                 "orlicz": {"family": "power", "params": {"p": 2}}}, [("alpha",)]),
    ]
    for reader, obj, paths in readers:
        for path in paths:
            for kind, bad in MALFORMED.items():
                yield pytest.param(reader, _with(obj, path, bad),
                                   id=f"{reader.__qualname__}-{'.'.join(map(str, path))}-{kind}")
    for points in ([[1, 2, 3]], [["a", 1]], [[1]]):
        yield pytest.param(OrliczSpec.from_json, {"family": "table", "params": {"points": points}},
                           id=f"table-points-{points!r}")


@pytest.mark.parametrize("reader, obj", _malformed_json_rows())
def test_malformed_json_value_raises_schema_error(reader, obj):
    with pytest.raises(SchemaError):
        reader(obj)

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
    gamma_norm,
    in_D_p,
    indicator,
    lambda_norm,
    luxemburg_norm,
    maximal_curve,
    norm,
    project_hull,
    weight_Wp,
    young_conjugate,
)

NAN, INF = math.nan, math.inf
X = indicator(0.0, 1.0, 2.0)
X2 = StepFunction.make([(0, 1, 2.0), (2, 3, 1.0)])
W = WeightSpec.power(-0.5)

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
    "weight-Wp-p-nan": lambda: weight_Wp(W, NAN, 1.0),
    "gamma-norm-p-nan": lambda: gamma_norm(X, NAN, W),
    "gamma-norm-p-inf": lambda: gamma_norm(X, INF, W),
    "gamma-norm-method-exact": lambda: gamma_norm(X, 2, W, method="exact"),
    "hull-tol-nan": lambda: project_hull(
        StepFunction.zero(),
        CandidateSet.make([indicator(0, 1), indicator(1, 2)], hull=True),
        SpaceHandle.orlicz_space(OrliczSpec.power(2)), tol=NAN),
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

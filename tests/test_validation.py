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
    norm,
    project_hull,
    weight_Wp,
    young_conjugate,
)

NAN, INF = math.nan, math.inf
X = indicator(0.0, 1.0, 2.0)
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
}


@pytest.mark.parametrize("call", ROWS.values(), ids=ROWS.keys())
def test_non_finite_parameter_raises_schema_error(call):
    with pytest.raises(SchemaError):
        call()

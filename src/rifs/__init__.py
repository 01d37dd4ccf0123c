"""Numerical toolkit for rearrangement-invariant function spaces.

Step-function arithmetic, decreasing rearrangements, maximal functions and
Hardy-Littlewood-Polya domination; Lorentz and Orlicz norm evaluators over a
symbolic weight algebra; executable decision criteria (Delta2, K-order
continuity, reflexivity, approximative compactness, L^1 embedding); a best
dominated-approximation solver; and a randomized property harness.
"""

from .approx import (
    CandidateSet,
    ExperimentReport,
    ProjectionResult,
    dominated_projection_experiment,
    k_upper_bound_check,
    minimizing_sequence,
    project_finite,
    project_hull,
)
from .deciders import (
    Verdict,
    a_psi,
    a_psi_vs_phi_infty,
    embeds_in_L1,
    gamma_approx_compact_decider,
    gamma_dual_weight,
    gamma_reflexive_decider,
    is_N_at_zero,
    is_delta2,
    lambda_associate_weight,
    orlicz_koc_decider,
    rbp_check,
)
from .errors import (
    DivergentIntegralError,
    HypothesisNotMetError,
    NonConvergenceError,
    QuadratureCapError,
    RifsError,
    SchemaError,
    WeightDomainError,
)
from .harness import (
    ProbeReport,
    TrialConfig,
    dukm_sequence_run,
    fundamental_limits,
    random_step,
    rotundity_probe,
    run_core_suite,
    run_kmono_suite,
    skm_probe,
)
from .orlicz import OrliczSpec, luxemburg_norm, modular, orlicz_norm, young_conjugate
from .rearrange import (
    MaximalCurve,
    TransportMap,
    distribution,
    equimeasurable,
    hlp_dominates,
    maximal_curve,
    rearrange,
    ryff_transport,
    transport_pullback,
)
from .spaces import SpaceHandle, fundamental_function, gamma_norm, lambda_norm, norm
from .step import StepFunction, absolute, add, indicator, maximum, minimum, scale
from .weights import WeightSpec, in_D_p

__version__ = "0.1.0"

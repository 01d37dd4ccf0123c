"""Exception hierarchy shared by all modules.

Every error carries a short machine-readable ``code`` so the CLI can emit a
stable error JSON on stderr.
"""

from __future__ import annotations

import math
from numbers import Integral


class RifsError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "error"


class SchemaError(RifsError):
    """Malformed or inconsistent input (JSON schemas, domain mismatches)."""

    code = "schema"


class DivergentIntegralError(RifsError):
    """An integral required to be finite diverges."""

    code = "divergent-integral"


class WeightDomainError(RifsError):
    """Weight fails a class condition (e.g. the D_p requirement)."""

    code = "weight-domain"


class QuadratureCapError(RifsError):
    """Adaptive quadrature exceeded its hard subdivision cap."""

    code = "quadrature-cap"


class NonConvergenceError(RifsError):
    """Iterative solver hit its iteration cap; ``best`` holds the last iterate."""

    code = "non-convergence"

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best


class HypothesisNotMetError(RifsError):
    """An operation's mathematical hypotheses fail for the given input."""

    code = "hypothesis-not-met"


def require_exponent(name: str, p: float) -> None:
    """Raise SchemaError unless 0 < p < inf (the chained test is False for NaN)."""
    if not 0 < p < math.inf:
        raise SchemaError(f"{name} requires 0 < p < inf")


def _require_count(name: str, n, least: int) -> None:
    """Raise SchemaError unless n is an integer (numpy's too) and n >= least."""
    if not (isinstance(n, Integral) and n >= least):
        raise SchemaError(f"{name} must be an integer >= {least}, got {n!r}")


def require_alpha(alpha: float) -> None:
    """Raise SchemaError unless the domain end alpha is 1 or inf."""
    if alpha not in (1.0, math.inf):
        raise SchemaError("alpha must be 1 or inf")

"""Norm evaluators for the Lorentz spaces built from x* and x**, Orlicz norms,
and fundamental functions, all behind a tagged :class:`SpaceHandle`.

The Lorentz norm over x* is exact: the integrand is a constant power times
the weight on each piece, so the analytic antiderivatives of the weight
algebra apply.  The norm over x** integrates ``(B + A/t)^p w(t)`` per
refinement cell: in closed form for integer p with pure-power pieces, by
adaptive quadrature (relative tolerance 1e-9 per cell, all cells of one norm
in one batched ``integrate_cells`` call) otherwise, plus the analytic
tail ``A^p integral t^(-p) w`` beyond the support, convergent exactly when
the weight lies in D_p.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import DivergentIntegralError, SchemaError, require_alpha, require_exponent
from .orlicz import OrliczSpec, luxemburg_norm, orlicz_norm
from .quadrature import integrate_cells
from .rearrange import maximal_curve, rearrange
from .step import StepFunction, indicator
from .weights import WeightSpec, power_log_integral, require_D_p

GAMMA_REL_TOL = 1e-9

LORENTZ_LAMBDA = "lorentz_lambda"
LORENTZ_GAMMA = "lorentz_gamma"
ORLICZ = "orlicz"


def _require_weight_domain(w: WeightSpec, alpha: float) -> None:
    if w.domain_end != alpha:
        raise SchemaError(
            f"weight covers (0, {w.domain_end}) but the space has alpha={alpha}"
        )


def lambda_norm(x: StepFunction, p: float, w: WeightSpec) -> float:
    """``( integral (x*)^p w )^(1/p)``, exact per piece of x*."""
    require_exponent("lambda_norm", p)
    _require_weight_domain(w, x.alpha)
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


def _closed_form_cell(A: float, B: float, p: float, piece, lo: float, hi: float) -> float | None:
    """``integral_lo^hi (B + A/t)^p w(t) dt`` over one refinement cell in
    closed form, or None when the cell needs quadrature."""
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


def gamma_norm(x: StepFunction, p: float, w: WeightSpec, method: str = "auto") -> float:
    """``( integral (x**)^p w )^(1/p)``; requires w in D_p.

    ``method="quadrature"`` forces the adaptive path on every cell (used to
    cross-check the closed forms).
    """
    require_exponent("gamma_norm", p)
    _require_weight_domain(w, x.alpha)
    require_D_p(w, p, x.alpha)
    curve = maximal_curve(x)
    if curve.total_integral == 0.0:
        return 0.0
    support_end = curve.breakpoints[-1]
    starts = [pc.t0 for pc in w.pieces]
    cuts = sorted(set(curve.breakpoints) | {t for t in starts if 0.0 < t < support_end})
    last = len(curve.coeffs) - 1
    parts: list[float] = []
    quad = []  # (index in parts, lo, hi, A, B, c, a, b) of each cell left to quadrature
    for lo, hi in zip(cuts, cuts[1:]):
        A, B = curve.coeffs[min(bisect_right(curve.breakpoints, lo) - 1, last)]
        pc = w.pieces[bisect_right(starts, lo) - 1]
        part = None if method == "quadrature" else _closed_form_cell(A, B, p, pc, lo, hi)
        if part is None:
            quad.append((len(parts), lo, hi, A, B, pc.c, pc.a, pc.b))
            part = 0.0
        parts.append(part)
    if quad:
        idx, lo, hi, A, B, c, a, b = (np.array(col) for col in zip(*quad))

        def f(ts: np.ndarray, k: np.ndarray) -> np.ndarray:
            return (B[k] + A[k] / ts) ** p * c[k] * ts ** a[k] * np.log(np.e + ts) ** b[k]

        for i, part in zip(idx, integrate_cells(f, lo, hi, rel_tol=GAMMA_REL_TOL)):
            parts[i] = float(part)
    total = 0.0
    for part in parts:
        total += part
    # Beyond the support x** = (total mass)/t.
    mass = curve.total_integral
    tail = w.wp_tail_integral(p, support_end)
    if math.isinf(tail):
        raise DivergentIntegralError("gamma tail integral diverges (D_p violation)")
    total += mass ** p * tail
    return total ** (1.0 / p)


@dataclass(frozen=True)
class SpaceHandle:
    """Tagged norm evaluator: Lorentz over x*, Lorentz over x**, or Orlicz."""

    kind: str
    alpha: float
    p: float | None = None
    weight: WeightSpec | None = None
    orlicz: OrliczSpec | None = None
    flavor: str | None = None

    def __post_init__(self):
        require_alpha(self.alpha)

    @classmethod
    def lorentz_lambda(cls, p: float, w: WeightSpec, alpha: float = math.inf) -> "SpaceHandle":
        require_exponent("lorentz_lambda", p)
        _require_weight_domain(w, alpha)
        return cls(LORENTZ_LAMBDA, float(alpha), p=float(p), weight=w)

    @classmethod
    def lorentz_gamma(cls, p: float, w: WeightSpec, alpha: float = math.inf) -> "SpaceHandle":
        require_exponent("lorentz_gamma", p)
        _require_weight_domain(w, alpha)
        require_D_p(w, p, alpha)
        return cls(LORENTZ_GAMMA, float(alpha), p=float(p), weight=w)

    @classmethod
    def orlicz_space(cls, psi: OrliczSpec, flavor: str = "luxemburg",
                     alpha: float = math.inf) -> "SpaceHandle":
        if flavor not in ("luxemburg", "orlicz"):
            raise SchemaError("Orlicz flavor must be 'luxemburg' or 'orlicz'")
        return cls(ORLICZ, float(alpha), orlicz=psi, flavor=flavor)

    def describe(self) -> str:
        if self.kind == LORENTZ_LAMBDA:
            return f"Lambda(p={self.p})"
        if self.kind == LORENTZ_GAMMA:
            return f"Gamma(p={self.p})"
        return f"Orlicz({self.orlicz.family}, {self.flavor})"

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind, "alpha": "inf" if math.isinf(self.alpha) else "1"}
        if self.kind in (LORENTZ_LAMBDA, LORENTZ_GAMMA):
            out["p"] = self.p
            out["weight"] = self.weight.to_json()
        else:
            out["orlicz"] = self.orlicz.to_json()
            out["flavor"] = self.flavor
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "SpaceHandle":
        try:
            kind = obj["kind"]
            alpha = math.inf if obj.get("alpha", "inf") == "inf" else float(obj["alpha"])
            if kind == LORENTZ_LAMBDA:
                return cls.lorentz_lambda(obj["p"], WeightSpec.from_json(obj["weight"]), alpha)
            if kind == LORENTZ_GAMMA:
                return cls.lorentz_gamma(obj["p"], WeightSpec.from_json(obj["weight"]), alpha)
            if kind == ORLICZ:
                return cls.orlicz_space(OrliczSpec.from_json(obj["orlicz"]),
                                        obj.get("flavor", "luxemburg"), alpha)
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"bad space JSON: {exc}") from exc
        raise SchemaError(f"unknown space kind {kind!r}")


def norm(space: SpaceHandle, x: StepFunction) -> float:
    """Evaluate ``||x||`` in the given space."""
    if x.alpha != space.alpha:
        raise SchemaError("function and space live on different domains")
    if space.kind == LORENTZ_LAMBDA:
        return lambda_norm(x, space.p, space.weight)
    if space.kind == LORENTZ_GAMMA:
        return gamma_norm(x, space.p, space.weight)
    if space.flavor == "luxemburg":
        return luxemburg_norm(x, space.orlicz)
    return orlicz_norm(x, space.orlicz)


def fundamental_function(space: SpaceHandle, t: float) -> float:
    """``phi(t) = || chi_(0,t) ||``; analytic identities where available.

    For the x**-based Lorentz space this is ``(W(t) + W_p(t))^(1/p)``, for the
    x*-based one ``W(t)^(1/p)``; Orlicz spaces go through the norm evaluators.
    """
    if not (0.0 < t < space.alpha) and not (t == space.alpha == 1.0):
        raise SchemaError(f"fundamental_function needs 0 < t < alpha, got {t}")
    if space.kind == LORENTZ_GAMMA:
        return (space.weight.W(t) + space.weight.Wp(space.p, t)) ** (1.0 / space.p)
    if space.kind == LORENTZ_LAMBDA:
        return space.weight.W(t) ** (1.0 / space.p)
    return norm(space, indicator(0.0, t, 1.0, space.alpha))

"""Norm evaluators for the Lorentz spaces built from x* and x**, Orlicz norms,
and fundamental functions, all behind a tagged :class:`SpaceHandle`.

Both Lorentz norms come from one forward walk over the pieces of x* and the
weight pieces.  On each piece of x* the integrand is ``(B + A/t)^p w(t)``:
A = 0, B = 1 over x* (the result is then scaled by (x*)^p), and
``x** = B + A/t`` over x**.  A piece is cut into cells at the weight-piece
starts inside it.  On a pure-power weight piece a cell is exact when A = 0,
or for integer p up to 12 through the binomial expansion; each antiderivative
``c t^e / e`` (``c log t`` for e = 0) is evaluated once per cut and is the
next cell's lower value.  A log piece with A = 0 is one ``power_log_integral``
call.  Every other cell goes to one batched ``integrate_cells`` call at
relative tolerance 1e-9 per cell.  Beyond the support the norm over x** adds
the analytic tail ``A^p integral t^(-p) w``, convergent exactly when the
weight lies in D_p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergentIntegralError, SchemaError, require_alpha, require_exponent
from .orlicz import OrliczSpec, luxemburg_norm, orlicz_norm
from .quadrature import integrate_cells
from .rearrange import rearrange
from .step import StepFunction, indicator
from .weights import WeightSpec, power_log_integral, require_D_p

GAMMA_REL_TOL = 1e-9
# The terms (C(n, j), n - j, j) of the binomial expansion of (B + A/t)^n for
# each integer exponent n up to 12, those taken in closed form.
_BINOMIAL = {n: [(math.comb(n, j), n - j, j) for j in range(n + 1)] for n in range(1, 13)}

LORENTZ_LAMBDA = "lorentz_lambda"
LORENTZ_GAMMA = "lorentz_gamma"
ORLICZ = "orlicz"


def _require_weight_domain(w: WeightSpec, alpha: float) -> None:
    if w.domain_end != alpha:
        raise SchemaError(
            f"weight covers (0, {w.domain_end}) but the space has alpha={alpha}"
        )


def _lorentz_integral(star, w: WeightSpec, p: float, over_curve: bool,
                      quadrature: bool = False) -> tuple[float, float]:
    """``integral (x*)^p w`` (with ``over_curve``, ``integral (x**)^p w``)
    over the support of x*, from the pieces ``star`` of x*, and the mass of x*.

    Each piece (t0, t1, v) of x* gives one segment where the integrand is
    ``(B + A/t)^p w(t)``.  Over x* the segment is (t0, t1) with A = 0, B = 1,
    and the integrals of its cells add up to its weight integral, scaled by
    v^p.  Over x** it runs from the previous piece's end to t1 with B = v and
    A = (mass before the piece) - v t0, as in ``maximal_curve``, and all cells
    add up in order.  ``quadrature`` sends every cell to quadrature.
    """
    expansion = _BINOMIAL.get(p)
    pieces = iter(w.pieces)
    nxt = 0.0  # end of the current weight piece
    # On a pure-power weight piece, ``low`` holds the antiderivative terms at
    # the cut ``at``: c t^e / e for the exponent e = a - j + 1 of each term j
    # used (log t where e = 0; its differences are scaled by c).  A cell
    # computes them at its upper end, which is the next cell's lower end.
    at = low = None
    total = mass = end = 0.0
    parts: list[float] = []  # the cells over x**, in order
    quad = []  # (index in parts, lo, hi, A, B, c, a, b) of each cell left to quadrature
    for t0, t1, v in star:
        if over_curve:
            lo, A, B = end, mass - v * t0, v
            mass += v * (t1 - t0)
        else:
            lo, A, B = t0, 0.0, 1.0
        end = t1
        inc = 0.0
        while True:
            while nxt <= lo:
                pc = next(pieces)
                nxt, c = pc.t1, pc.c
                exact = not quadrature and c != 0.0 and pc.b == 0.0  # closed forms apply
                e0, terms = pc.a + 1.0, None
                at = None
            hi = nxt if nxt < end else end
            if exact and A == 0.0:
                if at == lo:
                    bottom = low[0]
                elif lo == 0.0:  # the limit at 0
                    bottom = 0.0 if e0 > 0.0 else -math.inf
                else:
                    bottom = c * lo ** e0 / e0 if e0 else math.log(lo)
                u = c * hi ** e0 / e0 if e0 else math.log(hi)
                part = B ** p * (u - bottom if e0 else c * (u - bottom))
                at, low = hi, [u]
            elif exact and expansion:
                if terms is None:
                    terms = [(cb, nj, j, (pc.a - j) + 1.0) for cb, nj, j in expansion]
                if at != lo or len(low) < len(terms):
                    low = ([0.0 if e > 0.0 else -math.inf for _, _, _, e in terms]
                           if lo == 0.0 else
                           [c * lo ** e / e if e else math.log(lo) for _, _, _, e in terms])
                part = 0.0
                high = []
                for cb, nj, j, e in terms:
                    coef = cb * B ** nj * A ** j
                    if e:
                        u = c * hi ** e / e
                        part += coef * (u - low[j])
                    else:
                        u = math.log(hi)
                        part += coef * (c * (u - low[j]))
                    high.append(u)
                at, low = hi, high
            elif not quadrature and c == 0.0:
                part = 0.0
            elif not quadrature and A == 0.0:  # a log piece
                part = B ** p * power_log_integral(c, pc.a, pc.b, lo, hi)
            else:
                quad.append((len(parts), lo, hi, A, B, c, pc.a, pc.b))
                part = 0.0
            if over_curve:
                parts.append(part)
            else:
                inc += part
            if hi == end:
                break
            lo = hi
        if not over_curve:
            if math.isinf(inc):
                raise DivergentIntegralError("weight is not locally integrable near 0")
            total += v ** p * inc
    if quad:
        idx, *cols = zip(*quad)
        lo, hi, A, B, c, a, b = (np.array(col) for col in cols)

        def f(ts: np.ndarray, k: np.ndarray) -> np.ndarray:
            return (B[k] + A[k] / ts) ** p * c[k] * ts ** a[k] * np.log(np.e + ts) ** b[k]

        for i, part in zip(idx, integrate_cells(f, lo, hi, rel_tol=GAMMA_REL_TOL).tolist()):
            parts[i] = part
    for part in parts:
        total += part
    return total, mass


def lambda_norm(x: StepFunction, p: float, w: WeightSpec) -> float:
    """``( integral (x*)^p w )^(1/p)``, exact per piece of x*."""
    require_exponent("lambda_norm", p)
    _require_weight_domain(w, x.alpha)
    total, _ = _lorentz_integral(rearrange(x).pieces, w, p, over_curve=False)
    return total ** (1.0 / p)


def gamma_norm(x: StepFunction, p: float, w: WeightSpec, method: str = "auto") -> float:
    """``( integral (x**)^p w )^(1/p)``; requires w in D_p.

    ``method="quadrature"`` forces the adaptive path on every cell (used to
    cross-check the closed forms).
    """
    require_exponent("gamma_norm", p)
    _require_weight_domain(w, x.alpha)
    require_D_p(w, p, x.alpha)
    star = rearrange(x).pieces
    # The mass of x* is 0 exactly when every piece's is (they are >= 0).
    if not any(v * (t1 - t0) for t0, t1, v in star):
        return 0.0
    total, mass = _lorentz_integral(star, w, p, over_curve=True,
                                    quadrature=method == "quadrature")
    # Beyond the support x** = (total mass)/t.
    tail = w.wp_tail_integral(p, star[-1][1])
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

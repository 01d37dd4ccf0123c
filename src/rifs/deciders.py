"""Executable decision criteria: Delta2 and N-function-at-zero for Orlicz
functions, K-order continuity of the Orlicz space, reflexivity and
approximative compactness of the x**-based Lorentz space, the L^1 embedding
test via the fundamental function, and the two explicit associate/dual
weight formulas.

Every decider returns a :class:`Verdict`: status, a witness for failure, and
the probe log it examined.  Exact, from exponents and closed forms: Delta2,
N at zero, KOC, phi(inf) = inf when a_psi = 0, the L^1 limit d of phi(t)/t,
the divergence of W and W_p integrals, and doubling of W.  Still sampled: the
plateau 1/a_psi > 0 of phi on 1e0..1e8 (else inconclusive), A of RB_p on
1e-8..1e8, the dual weight's boundary head exponent.  Logged samples (phi/t,
V on [1, 1e6]) decide nothing."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import HypothesisNotMetError, SchemaError
from .orlicz import OrliczSpec
from .spaces import SpaceHandle, fundamental_function
from .weights import (WeightSpec, exponent_shift, origin_integral_diverges, require_D_p,
                      tail_integral_diverges)

HOLDS = "holds"
FAILS = "fails"
INCONCLUSIVE = "inconclusive"

# Geometric probe grid: 17 points per decade across 1e-8 .. 1e8.
PROBE_GRID = np.geomspace(1e-8, 1e8, 16 * 17 + 1)


@dataclass(frozen=True)
class Verdict:
    """Outcome of a semi-decidable check.

    ``fails`` always carries a witness (value or location); ``inconclusive``
    records the exhausted probe range in the log.  ``witness`` may also carry
    a payload on ``holds`` (e.g. an observed constant).
    """

    status: str
    witness: dict | None = None
    probe_log: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.status not in (HOLDS, FAILS, INCONCLUSIVE):
            raise SchemaError(f"bad verdict status {self.status!r}")
        if self.status == FAILS and self.witness is None:
            raise SchemaError("a failing verdict must carry a witness")

    @property
    def holds(self) -> bool:
        return self.status == HOLDS

    def to_dict(self) -> dict:
        return {"status": self.status, "witness": self.witness, "probe_log": self.probe_log}


# ---------------------------------------------------------------------------
# Orlicz-function parameters


def a_psi(psi: OrliczSpec) -> float:
    """``sup { t > 0 : psi(t) = 0 }``, which is psi^-1(0)."""
    return float(psi.psi_inverse_many(0.0))


def is_delta2(psi: OrliczSpec) -> Verdict:
    """Does ``psi(2u) <= K psi(u)`` hold for some K and all u?

    Analytic for every family.  A table fails when psi vanishes near 0 or is
    inf beyond its last breakpoint T.  Otherwise psi(u) and psi(2u) are both
    linear between consecutive points of {t_i} and {t_i / 2}, so the ratio is
    monotone there; it equals 2 near 0 and tends to 2 at infinity.  At t_i / 2
    only psi(2u) bends, upward, so the ratio's slope jumps up and no maximum
    sits there: K = max(2, max_i psi(2 t_i) / psi(t_i)) is exact.
    """
    if psi.family == "power":
        return Verdict(HOLDS, witness={"K": 2.0 ** psi.p},
                       probe_log={"analytic": "psi(2u) = 2^p psi(u)"})
    if psi.family == "shifted_power":
        u = psi.shift * (1.0 + 1e-6)
        ratio = psi.psi(2.0 * u) / psi.psi(u)
        return Verdict(FAILS, witness={"u": u, "ratio": ratio},
                       probe_log={"analytic": "ratio blows up as u approaches the zero set"})
    if psi.family == "exp_minus_one":
        u = 20.0
        ratio = psi.psi(2.0 * u) / psi.psi(u)
        return Verdict(FAILS, witness={"u": u, "ratio": ratio},
                       probe_log={"analytic": "ratio ~ exp(u) is unbounded"})
    a = a_psi(psi)
    if a > 0.0:
        return Verdict(FAILS, witness={"u": 0.75 * a, "ratio": math.inf},
                       probe_log={"analytic": "psi(u) = 0 < psi(2u) for a_psi / 2 < u <= a_psi"})
    ts = np.array(psi.points[1:])[:, 0]
    if psi.inf_beyond:
        return Verdict(FAILS, witness={"u": float(ts[-1]), "ratio": math.inf},
                       probe_log={"analytic": "psi(2T) = inf > psi(T) at the last breakpoint T"})
    K = max(2.0, float(np.max(psi.psi_many(2.0 * ts) / psi.psi_many(ts))))
    return Verdict(HOLDS, witness={"K": K},
                   probe_log={"analytic": "max of 2 and psi(2 t_i) / psi(t_i) at the t_i"})


def is_N_at_zero(psi: OrliczSpec) -> Verdict:
    """Does ``psi(t)/t -> 0`` as t -> 0?  (Convexity makes the ratio monotone.)"""
    limit = psi.slope_at_zero
    log = {"analytic": f"psi(t)/t -> {limit} for the {psi.family} family"}
    if limit == 0.0:
        return Verdict(HOLDS, probe_log=log)
    return Verdict(FAILS, witness={"ratio_limit": limit}, probe_log=log)


def orlicz_koc_decider(psi: OrliczSpec, alpha: float) -> Verdict:
    """K-order continuity of the Orlicz space (joint with phi(inf) = inf when
    alpha = inf): Delta2, plus N-function-at-zero on the infinite domain."""
    d2 = is_delta2(psi)
    log = {"delta2": d2.to_dict()}
    if d2.status == FAILS:
        return Verdict(FAILS, witness={"reason": "delta2", **(d2.witness or {})}, probe_log=log)
    if math.isinf(alpha):
        nz = is_N_at_zero(psi)
        log["N_at_zero"] = nz.to_dict()
        if nz.status == FAILS:
            return Verdict(FAILS, witness={"reason": "N-at-zero", **(nz.witness or {})},
                           probe_log=log)
    return Verdict(HOLDS, probe_log=log)


def a_psi_vs_phi_infty(psi: OrliczSpec) -> Verdict:
    """Cross-check ``a_psi = 0  iff  phi(inf) = inf`` on the infinite domain.

    The Luxemburg phi is ``1 / psi^-1(1/t)`` exactly.  When a_psi = psi^-1(0)
    is 0, psi^-1(u) -> 0 as u -> 0, so phi(inf) = inf: analytic, no sample
    decides it.  When a_psi > 0 the plateau 1/a_psi is certified only once
    phi, sampled on t = 10^0 .. 10^8, reaches it.
    """
    ts, phis = phi_decades(SpaceHandle.orlicz_space(psi, "luxemburg", math.inf))
    a = a_psi(psi)
    log = {"a_psi": a, "grid": list(zip(ts, phis))}
    if a == 0.0:
        return Verdict(HOLDS, probe_log={
            **log, "analytic": "phi(t) = 1/psi^-1(1/t) -> 1/psi^-1(0) = 1/a_psi = inf"})
    log["plateau_bound"] = bound = 1.0 / a
    if phis[-1] >= 0.999 * bound:
        return Verdict(HOLDS, probe_log=log)
    return Verdict(INCONCLUSIVE, probe_log={
        **log, "exhausted": "phi has not reached its plateau by t = 1e8"})


# ---------------------------------------------------------------------------
# L^1 embedding via the fundamental function


def phi_decades(space: SpaceHandle) -> tuple[list[float], list[float]]:
    """``t = 10^0 .. 10^8`` and ``phi(t)`` there: the one phi sample of the probes."""
    ts = [10.0 ** k for k in range(9)]
    return ts, [fundamental_function(space, t) for t in ts]


def l1_embedding_limit(space: SpaceHandle) -> float:
    """Analytic ``d``, the smaller of the limits of ``phi(t)/t`` as t -> 0 and
    as t -> inf (alpha = inf only); on a concave phi it is the one at inf."""
    return space._l1_limit()


def embeds_in_L1(space: SpaceHandle) -> Verdict:
    """Is the space continuously embedded in L^1[0, inf)?

    Embedded iff ``d > 0``, d the smaller limit of phi(t)/t at 0 and at inf
    (:func:`l1_embedding_limit`): ``||chi_(0,t)||_1 / ||chi_(0,t)|| = t/phi(t)``
    must stay bounded at both ends.  The probe log carries phi(t)/t samples
    and the associate-side fundamental function t/phi(t).
    """
    if not math.isinf(space.alpha):
        raise SchemaError("embeds_in_L1 applies to alpha = inf")
    return _embedding_verdict(l1_embedding_limit(space), *phi_decades(space))


def _embedding_verdict(d: float, ts: list[float], phis: list[float]) -> Verdict:
    """The L^1 embedding verdict from d and a sample (ts, phis) of phi."""
    log = {
        "d_limit": d,
        "phi_over_t": [(t, phi / t) for t, phi in zip(ts, phis)],
        "associate_fundamental": [(t, t / phi if phi > 0 else math.inf)
                                  for t, phi in zip(ts, phis)],
    }
    if d > 0.0:
        return Verdict(HOLDS, witness={"d": d}, probe_log=log)
    return Verdict(FAILS, witness={"d": 0.0}, probe_log=log)


def phi_infinity(space: SpaceHandle) -> float:
    """``lim phi(t)`` as t -> inf: inf or the finite limit."""
    if not math.isinf(space.alpha):
        raise SchemaError("phi_infinity applies to alpha = inf")
    return space._phi_infinity()


# ---------------------------------------------------------------------------
# Reflexivity and approximative compactness of the x**-based Lorentz space


def _require_p_and_infinite_domain(name: str, p: float, w: WeightSpec) -> None:
    """The common hypotheses of the Lorentz deciders: 1 < p < inf, w on (0, inf)."""
    if not (1.0 < p < math.inf):
        raise SchemaError(f"{name} requires 1 < p < inf")
    if not math.isinf(w.domain_end):
        raise SchemaError(f"{name} applies to weights on (0, inf)")


def gamma_reflexive_decider(p: float, w: WeightSpec) -> Verdict:
    """Three-stage reflexivity criterion on [0, inf) for 1 < p < inf.

    Stage 1 (prerequisite): ``integral_0^t w(s) s^(-p) ds = inf`` for all t;
    violated inputs land outside the criterion's hypotheses and return
    ``inconclusive``.  Stage 2: ``W(inf) = inf`` by the tail rule.  Stage 3:
    ``V(inf) = inf`` for ``v(t) = t^(p'-1) W W_p / (W + W_p)^(p'+1)``,
    decided from the tail exponents and corroborated by a numeric integral
    on [1, 1e6].
    """
    _require_p_and_infinite_domain("gamma_reflexive_decider", p, w)
    require_D_p(w, p, math.inf)
    log: dict = {}

    first = w.pieces[0]
    prerequisite = w.origin_wp_diverges(p)
    log["prerequisite"] = {
        "holds": prerequisite,
        "first_piece": {"c": first.c, "a": first.a, "b": first.b},
        "rule": "diverges iff c > 0 and a - p <= -1",
    }
    if not prerequisite:
        return Verdict(INCONCLUSIVE, probe_log={
            **log,
            "exhausted": "lemma prerequisite integral_0 w s^-p = inf not met; "
                         "criterion does not apply",
        })

    winf = w.W_infinity()
    log["W_infinity"] = winf
    if not math.isinf(winf):
        return Verdict(FAILS, witness={"stage": "W-infinity", "W_infinity": winf},
                       probe_log=log)

    tail = w.tail
    pp = p / (p - 1.0)
    if exponent_shift(tail.a, p) == -1.0:
        # a = p - 1, in D_p only with b < -1: W_p ~ t^p log^(b+1) dominates
        # W ~ t^p log^b, and v ~ W W_p^(-p') ~ t^-1 log^((-b-p)/(p-1)).
        v_exp = -1.0
        v_log_exp = (-tail.b - p) / (p - 1.0)
    elif tail.a > -1.0:
        v_exp = -tail.a / (p - 1.0)
        v_log_exp = -tail.b / (p - 1.0)
    else:  # tail.a == -1 with b >= -1 (W must diverge): W dominates W_p
        v_exp = pp - 1.0
        v_log_exp = tail.b - (tail.b + 1.0) * pp
    v_diverges = tail_integral_diverges(v_exp, v_log_exp)
    log["V_tail"] = {"t_exponent": v_exp, "log_exponent": v_log_exp,
                     "diverges": v_diverges}

    ts = np.geomspace(1.0, 1e6, 103)
    Ws = np.array([w.W(float(t)) for t in ts])
    Wps = np.array([w.Wp(p, float(t)) for t in ts])
    # v = (t/(W+W_p))^(p'-1) r (1-r) with r = W/(W+W_p): no factor overflows
    # where v itself does not.
    r = Ws / (Ws + Wps)
    vs = (ts / (Ws + Wps)) ** (pp - 1.0) * r * (1.0 - r)
    log["V_numeric_1_to_1e6"] = float(np.sum(0.5 * (vs[1:] + vs[:-1]) * np.diff(ts)))

    if not v_diverges:
        return Verdict(FAILS, witness={"stage": "V-infinity", **log["V_tail"]},
                       probe_log=log)
    return Verdict(HOLDS, probe_log=log)


def gamma_approx_compact_decider(p: float, w: WeightSpec) -> Verdict:
    """Approximative compactness: reflexive plus W strictly increasing.

    Within the weight algebra "W strictly increasing" is exactly "no piece
    has c = 0".
    """
    _require_p_and_infinite_domain("gamma_approx_compact_decider", p, w)
    flat = w.flat_intervals()
    refl = gamma_reflexive_decider(p, w)
    log = {"reflexive": refl.to_dict(), "flat_intervals": flat}
    if flat:
        return Verdict(FAILS, witness={"flat_interval": list(flat[0])}, probe_log=log)
    if refl.status == FAILS:
        return Verdict(FAILS, witness={"reason": "not-reflexive", **(refl.witness or {})},
                       probe_log=log)
    if refl.status == INCONCLUSIVE:
        return Verdict(INCONCLUSIVE, probe_log={
            **log, "exhausted": "reflexivity criterion inconclusive"})
    return Verdict(HOLDS, probe_log=log)


# ---------------------------------------------------------------------------
# The two explicit weight formulas


def _fit_power_pieces(v_of, boundaries: list[float], head_at: float, head_exp: float,
                      tail_exp: float, tail_log_exp: float) -> WeightSpec:
    """Tabulate a positive function as power pieces on a log grid.

    Interior pieces interpolate ``c t^a`` through two interior samples (exact
    when the function is a pure power there); the head and tail exponents are
    supplied analytically and only their coefficients are fitted, from one
    sample each at ``head_at`` and at the last grid point.  A piece start of w
    there misreads the tail (Lambda associate of 0.5, then 0.5 t^0.25 from 1e6,
    at p = 2: 48.06 instead of 0.131) until exact germs (ROADMAP item 14) come.
    """
    pieces = []
    g0 = boundaries[0]
    head_sample = v_of(head_at)
    head_c = head_sample / head_at ** head_exp if head_sample > 0 else 0.0
    pieces.append((0.0, g0, head_c, head_exp, 0.0))
    for lo, hi in zip(boundaries, boundaries[1:]):
        m1 = lo * (hi / lo) ** 0.25
        m2 = lo * (hi / lo) ** 0.75
        v1, v2 = v_of(m1), v_of(m2)
        if v1 <= 0.0 or v2 <= 0.0:
            pieces.append((lo, hi, 0.0, 0.0, 0.0))
            continue
        a = math.log(v2 / v1) / math.log(m2 / m1)
        c = v1 / m1 ** a
        pieces.append((lo, hi, c, a, 0.0))
    g_last = boundaries[-1]
    v_last = v_of(g_last)
    log_last = math.log(math.e + g_last) ** tail_log_exp
    tail_c = v_last / (g_last ** tail_exp * log_last) if v_last > 0 else 0.0
    pieces.append((g_last, math.inf, tail_c, tail_exp, tail_log_exp))
    return WeightSpec.make(pieces)


def _log_grid_with_boundaries(w: WeightSpec, lo: float, hi: float) -> list[float]:
    """17 points per decade across [lo, hi]; each piece start of w inside
    replaces a grid point within rounding of it, which would leave a sliver."""
    decades = int(round(math.log10(hi / lo)))
    starts = [pc.t0 for pc in w.pieces if lo < pc.t0 < hi]
    grid = [g for g in np.geomspace(lo, hi, 17 * decades + 1).tolist()
            if all(abs(g - s) > 1e-9 * s for s in starts)]
    return sorted(grid + starts)


def lambda_associate_weight(p: float, w: WeightSpec) -> WeightSpec:
    """Associate weight ``v(t) = (t / W(t))^p' w(t)`` of the x*-based space.

    Hypotheses (checked): W doubling and W(inf) = inf.  The result is a
    tabulated power-piece weight whose head and tail exponents come from the
    first and last pieces of w; V(inf) = inf is readable from its tail.

    Exact doubling rule: sup W(2t)/W(t) < inf iff the first piece
    c t^a0 log(e+t)^b0 has c > 0 and a0 > -1.  If c = 0, W = 0 near 0 and
    the ratio is 0/0 or inf there; if a0 <= -1, W = inf.  Otherwise W is
    finite, continuous and positive, and the ratio tends to 2^(a0+1) at 0
    and to 2^(a+1) (tail a > -1) or 1 (W constant or a power of log) at inf.
    """
    _require_p_and_infinite_domain("lambda_associate_weight", p, w)
    pp = p / (p - 1.0)
    first = w.pieces[0]
    if first.c == 0.0 or origin_integral_diverges(first.a):
        raise HypothesisNotMetError(
            "W is not doubling: the first piece of w needs c > 0 and a > -1")
    if not math.isinf(w.W_infinity()):
        raise HypothesisNotMetError("W(inf) must be infinite")

    def v_of(t: float) -> float:
        return (t / w.W(t)) ** pp * w.value(t)

    tail = w.tail
    head_exp = first.a * (1.0 - pp)
    tail_exp = tail.a * (1.0 - pp)
    tail_log_exp = tail.b * (1.0 - pp)
    boundaries = _log_grid_with_boundaries(w, 1e-6, 1e6)
    # The head sample lies inside w's first piece, where v is an exact power (b = 0).
    return _fit_power_pieces(v_of, boundaries, 0.5 * min(1e-6, first.t1), head_exp,
                             tail_exp, tail_log_exp)


def rbp_check(p: float, w: WeightSpec) -> Verdict:
    """Does ``W(t) <= A * W_p(t)`` hold for some A and all t > 0?

    Grid sup of W/W_p plus the origin and tail limits from the exponents;
    a diverging tail ratio fails with the witness location.
    """
    _require_p_and_infinite_domain("rbp_check", p, w)
    require_D_p(w, p, math.inf)
    # RB_p and A do not change under w -> lambda w: sample on w scaled by the
    # power of two that brings its largest c into [0.5, 1), so that W and W_p
    # neither underflow nor overflow where w's own scale would make them.
    # Where that would flush a smaller c to 0, w is sampled as given.
    shift = -math.frexp(max(pc.c for pc in w.pieces))[1]
    if all(math.ldexp(pc.c, shift) > 0.0 for pc in w.pieces if pc.c > 0.0):
        w = WeightSpec.make([(pc.t0, pc.t1, math.ldexp(pc.c, shift), pc.a, pc.b)
                             for pc in w.pieces])
    tail = w.tail
    log: dict = {"grid": [float(PROBE_GRID[0]), float(PROBE_GRID[-1]), len(PROBE_GRID)]}

    if tail.c == 0.0:
        t_wit = tail.t0 * 2.0
        return Verdict(FAILS, witness={"t": t_wit, "ratio": math.inf,
                                       "reason": "w vanishes beyond the last piece, W_p -> 0"},
                       probe_log=log)
    if tail.a > -1.0:
        tail_limit = (p - tail.a - 1.0) / (tail.a + 1.0)
        log["tail_limit"] = tail_limit
    else:
        # W tends to a constant or a log power while W_p decays: ratio blows up.
        worst = float(PROBE_GRID[-1])
        ratio = w.W(worst) / w.Wp(p, worst)
        return Verdict(FAILS, witness={"t": worst, "ratio": ratio,
                                       "reason": "tail exponent a <= -1 makes W/W_p unbounded"},
                       probe_log=log)

    sup_ratio, sup_t = 0.0, None
    for t in PROBE_GRID:
        t = float(t)
        denom = w.Wp(p, t)
        if denom == 0.0:
            return Verdict(FAILS, witness={"t": t, "ratio": math.inf,
                                           "reason": "W_p vanishes"},
                           probe_log=log)
        ratio = w.W(t) / denom
        if ratio > sup_ratio:
            sup_ratio, sup_t = ratio, t
    if w.origin_wp_diverges(p):
        first = w.pieces[0]
        log["origin_limit"] = (p - first.a - 1.0) / (first.a + 1.0)
    A = max(sup_ratio, log.get("tail_limit", 0.0), log.get("origin_limit", 0.0))
    log["grid_sup"] = {"ratio": sup_ratio, "t": sup_t}
    return Verdict(HOLDS, witness={"A": A}, probe_log=log)


def gamma_dual_weight(p: float, w: WeightSpec) -> WeightSpec:
    """Dual-space weight ``v = d/dt (integral_t^inf w(s) s^(-p) ds)^(-1/(p-1))``.

    Hypotheses (checked): W(inf) = inf, the origin integral of w s^(-p)
    diverges, and the RB_p comparison holds.  The derivative is exact:
    with ``g(t) = integral_t^inf w s^(-p)``, ``g' = -t^(-p) w(t)``, so
    ``v = g^(-p/(p-1)) t^(-p) w(t) / (p-1)`` pointwise.
    """
    _require_p_and_infinite_domain("gamma_dual_weight", p, w)
    require_D_p(w, p, math.inf)
    if not math.isinf(w.W_infinity()):
        raise HypothesisNotMetError("W(inf) must be infinite")
    if not w.origin_wp_diverges(p):
        raise HypothesisNotMetError("integral_0^1 w(s) s^(-p) ds must diverge")
    rbp = rbp_check(p, w)
    if not rbp.holds:
        raise HypothesisNotMetError(f"RB_p condition fails: {rbp.witness}")

    def v_of(t: float) -> float:
        g = w.wp_tail_integral(p, t)
        if g <= 0.0:
            return 0.0
        return g ** (-p / (p - 1.0)) * t ** (-p) * w.value(t) / (p - 1.0)

    first, tail = w.pieces[0], w.tail
    if first.c > 0 and exponent_shift(first.a, p) < -1.0:
        head_exp = -first.a / (p - 1.0)
    else:
        # Boundary case: fit the head exponent empirically from two samples.
        m1, m2 = 2.5e-7, 5e-7
        head_exp = math.log(v_of(m2) / v_of(m1)) / math.log(m2 / m1)
    tail_exp = -tail.a / (p - 1.0)
    tail_log_exp = -tail.b / (p - 1.0)
    boundaries = _log_grid_with_boundaries(w, 1e-6, 1e6)
    return _fit_power_pieces(v_of, boundaries, boundaries[0], head_exp, tail_exp, tail_log_exp)

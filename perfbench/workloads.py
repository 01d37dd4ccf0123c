"""The benchmark's workloads.

Each workload turns ``(seed, request index)`` into plain inputs (piece lists,
exponents, specs), sends one request at a time to ``rifs`` (closed loop, one
client) and checks every output against an oracle from ``oracles.py`` as
soon as its request returns.  ``make_input`` and ``check`` run outside the
timed region; ``request`` is the timed call.  A run sends ``per_second``
requests per second of ``--seconds``: a fixed count per run length, sized so
that the runner's ``passes`` passes take about four fifths of the run on a
2-vCPU machine.  Fewer distinct requests and more passes suit short requests
(more samples of each, so the fastest is near the machine's floor); longer
requests need more distinct requests to average out what a seed draws.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# Library functions are called as ``rifs.<name>`` so that the tracer, which
# rebinds them in every rifs module, sees the benchmark's own calls too.
import rifs
from rifs import (
    CandidateSet,
    OrliczSpec,
    SpaceHandle,
    StepFunction,
    TrialConfig,
    WeightDomainError,
    WeightSpec,
)

INF = math.inf
HALF = WeightSpec.power(-0.5)
WARMUP_INDEX = 2 ** 40  # request indices at and above this are warm-up only


def load_oracles():
    """The oracles and scipy; imported on first use, so that set-up probes,
    which time the library's own set-up, never load them."""
    import oracles

    return oracles


def _rng(seed: int, stream: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream, i])


def random_pieces(rng: np.random.Generator, n: int, max_len: float = 1.0,
                  min_len: float = 0.01) -> list[tuple[float, float, float]]:
    """n pieces: lengths uniform in [min_len, max_len], gaps uniform in
    [0, 1], |values| uniform in [0.1, 3] with random signs."""
    lengths = rng.uniform(min_len, max_len, n)
    gaps = rng.uniform(0.0, 1.0, n)
    values = rng.uniform(0.1, 3.0, n) * rng.choice([-1.0, 1.0], n)
    starts = np.cumsum(gaps) + np.concatenate([[0.0], np.cumsum(lengths)[:-1]])
    return [(float(t0), float(t0 + ln), float(v)) for t0, ln, v in zip(starts, lengths, values)]


class Workload:
    name = ""
    stream = 0
    per_second = 1.0  # distinct requests per second of run length
    passes = 6  # times each request is sent; its latency is the fastest

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.tiny = tiny

    def warmup(self) -> None:
        """First-call costs (lazy batteries, numpy dispatch), paid in set-up."""
        for k in range(2):
            self.request(self.make_input(WARMUP_INDEX + k))

    def make_input(self, i: int):
        raise NotImplementedError

    def request(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> list[str]:
        """Oracle verdict: an empty list means the output is correct."""
        raise NotImplementedError


# ------------------------------------------------------------------ core-small

class CoreSmall(Workload):
    """One request is one ``run_core_suite`` trial at the default TrialConfig."""

    name = "core-small"
    stream = 1
    per_second = 36.0
    passes = 18

    def make_input(self, i: int) -> TrialConfig:
        # run_core_suite always starts at trial 0, so each request gets its own
        # TrialConfig seed derived from (seed, i).
        sub = int(np.random.SeedSequence([self.seed, self.stream, i]).generate_state(1)[0])
        return TrialConfig(seed=sub, trials=1)

    def warmup(self) -> None:
        rifs.run_core_suite(TrialConfig(seed=0, trials=3))  # fills the lazy norm battery

    def request(self, cfg: TrialConfig):
        return rifs.run_core_suite(cfg)

    def check(self, cfg, report) -> list[str]:
        if report.trials != 1:
            return [f"ran {report.trials} trials, expected 1"]
        return [f"violation {v['check']}" for v in report.violations]


# ----------------------------------------------------------------- norms-large

TABLE_POINTS = ((0.001, 0.0005), (0.002, 0.0015), (0.004, 0.0045), (0.008, 0.0125))
LOG_TAIL = ((0.0, 1.0, 1.0, -0.5, 0.0), (1.0, INF, 1.0, -0.5, 1.0))


class NormsLarge(Workload):
    """Two n-piece functions through make, add, maximum, rearrange,
    maximal_curve and hlp_dominates, then seven norm paths on each."""

    name = "norms-large"
    stream = 2
    per_second = 0.1

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed, tiny)
        self.n = 20 if tiny else 1000
        self.spaces = {
            "lambda_p2": SpaceHandle.lorentz_lambda(2.0, HALF),
            "gamma_p2": SpaceHandle.lorentz_gamma(2.0, HALF),
            "gamma_p1.5": SpaceHandle.lorentz_gamma(1.5, HALF),
            "gamma_p2_log": SpaceHandle.lorentz_gamma(2.0, WeightSpec.make(LOG_TAIL)),
            "luxemburg_exp": SpaceHandle.orlicz_space(OrliczSpec.exp_minus_one()),
            "luxemburg_table": SpaceHandle.orlicz_space(OrliczSpec.table(TABLE_POINTS)),
            "amemiya_p3": SpaceHandle.orlicz_space(OrliczSpec.power(3.0), flavor="orlicz"),
        }

    def warmup(self) -> None:
        rng = _rng(self.seed, self.stream, WARMUP_INDEX)
        self.request((random_pieces(rng, 20), random_pieces(rng, 20)))

    def make_input(self, i: int):
        rng = _rng(self.seed, self.stream, i)
        return random_pieces(rng, self.n), random_pieces(rng, self.n)

    def request(self, inp):
        xp, yp = inp
        x = StepFunction.make(xp)
        y = StepFunction.make(yp)
        out = {
            "add": rifs.add(x, y).pieces,
            "maximum": rifs.maximum(x, y).pieces,
            "rearrange": rifs.rearrange(x).pieces,
            "maximal_curve": rifs.maximal_curve(y),
            "hlp_dominates": rifs.hlp_dominates(x, y),
        }
        out["norms"] = [{key: rifs.norm(space, f) for key, space in self.spaces.items()}
                        for f in (x, y)]
        return out

    def check(self, inp, out) -> list[str]:
        O = load_oracles()
        xp, yp = inp
        bad = []
        lo, hi, (xv, yv) = O.common_cells(xp, yp)
        mids = 0.5 * (lo + hi)
        for key, want in (("add", xv + yv), ("maximum", np.maximum(xv, yv))):
            got = O.values_at(out[key], mids)
            if not np.allclose(got, want, rtol=1e-12, atol=1e-12):
                bad.append(f"{key} differs from pointwise evaluation")
        T, v = O.star_of(xp)
        got = np.asarray(out["rearrange"], dtype=float).reshape(-1, 3)
        if (got.shape[0] != len(T) or not np.allclose(got[:, 1], T, rtol=1e-12)
                or not np.array_equal(got[:, 2], v)):
            bad.append("rearrange differs from sorted lengths and values")
        curve = out["maximal_curve"]
        breakpoints, coeffs = np.array(curve.breakpoints), np.array(curve.coeffs)
        Ty, vy = O.star_of(yp)
        ts = breakpoints[1:]
        got_ss = coeffs[:-1, 1] + coeffs[:-1, 0] / ts
        if len(ts) != len(Ty) or not np.allclose(got_ss, O.F_at(Ty, vy, ts) / ts, rtol=1e-11):
            bad.append("maximal_curve differs from integral of y*")
        want_dom = O.hlp_dominates(xp, yp)
        if want_dom is not None and out["hlp_dominates"] != want_dom:
            bad.append("hlp_dominates verdict differs")
        for f, got_norms in zip((xp, yp), out["norms"]):
            for key, want in self.reference_norms(f).items():
                rel, abs_tol = NORM_TOLERANCE[key]
                if not O.rel_close(got_norms[key], want, rel, abs_tol):
                    bad.append(f"{key}: {got_norms[key]!r} vs oracle {want!r}")
        return bad

    @staticmethod
    def reference_norms(f) -> dict[str, float]:
        O = load_oracles()
        half = [(0.0, INF, 1.0, -0.5, 0.0)]
        return {
            "lambda_p2": O.lambda_norm(f, 2.0, 1.0, -0.5),
            "gamma_p2": O.gamma_norm(f, 2.0, half),
            "gamma_p1.5": O.gamma_norm(f, 1.5, half),
            "gamma_p2_log": O.gamma_norm(f, 2.0, LOG_TAIL),
            "luxemburg_exp": O.luxemburg_norm(f, O.psi_exp),
            "luxemburg_table": O.luxemburg_norm(f, lambda u: O.psi_table(TABLE_POINTS, u)),
            "amemiya_p3": O.amemiya_power_norm(f, 3.0),
        }


# (relative, absolute) tolerance per norm path.  Closed forms are exact up to
# summation order; the x** quadrature states relative 1e-9 per cell
# (spaces.GAMMA_REL_TOL); the Luxemburg bisection stops at an absolute bracket
# of 1e-10 (orlicz.luxemburg_norm); the Amemiya golden section stops at a
# relative bracket of 1e-9 in k, which the flat minimum turns into far less
# in value.
NORM_TOLERANCE = {
    "lambda_p2": (1e-11, 0.0),
    "gamma_p2": (1e-11, 0.0),
    "gamma_p1.5": (1e-9, 0.0),
    "gamma_p2_log": (1e-9, 0.0),
    "luxemburg_exp": (1e-12, 1e-10),
    "luxemburg_table": (1e-12, 1e-10),
    "amemiya_p3": (1e-9, 0.0),
}


# ----------------------------------------------------------------------- hulls

HULL_SPACES = {
    "L2": SpaceHandle.orlicz_space(OrliczSpec.power(2.0)),
    "lambda_p2": SpaceHandle.lorentz_lambda(2.0, HALF),
    "gamma_p2": SpaceHandle.lorentz_gamma(2.0, HALF),
    "luxemburg_exp": SpaceHandle.orlicz_space(OrliczSpec.exp_minus_one()),
}
HULL_SAMPLES = 200


class Hull6(Workload):
    """One request is ``project_hull`` of a 1-3 piece target onto the convex
    hull of 6 members of 1-3 pieces, the space rotating with the index."""

    name = "hull-6"
    stream = 3
    per_second = 0.125
    members = 6
    rotation = ("L2", "lambda_p2", "gamma_p2", "luxemburg_exp")

    def warmup(self) -> None:
        x = StepFunction.make([(0.0, 1.0, 1.0)])
        A = CandidateSet.make([StepFunction.make([(0.5, 1.5, 2.0)]), x.zero()], hull=True)
        for key in self.rotation:
            rifs.project_hull(x, A, HULL_SPACES[key])

    def make_input(self, i: int):
        rng = _rng(self.seed, self.stream, i)
        key = self.rotation[i % len(self.rotation)]
        funcs = [random_pieces(rng, int(rng.integers(1, 4)), max_len=2.0, min_len=0.05)
                 for _ in range(self.members + 1)]
        return key, funcs[0], funcs[1:], i

    def request(self, inp):
        key, xp, members, _ = inp
        x = StepFunction.make(xp)
        A = CandidateSet.make([StepFunction.make(m) for m in members], hull=True)
        return rifs.project_hull(x, A, HULL_SPACES[key])

    def check(self, inp, result) -> list[str]:
        O = load_oracles()
        key, xp, members, i = inp
        d = result.distance
        theta = np.array(result.minimizers[0].coefficients)
        point_pieces = result.minimizers[0].point.pieces
        lo, hi, vals = O.common_cells(xp, *members)
        xv, M = vals[0], np.array(vals[1:])
        bad = []
        if theta.min() < -1e-12 or abs(theta.sum() - 1.0) > 1e-9:
            bad.append(f"coefficients leave the simplex: {theta.tolist()}")
        mids = 0.5 * (lo + hi)
        point = O.values_at(point_pieces, mids)
        if not np.allclose(point, theta @ M, rtol=1e-9, atol=1e-12):
            bad.append("minimizer point is not the stated combination")
        norm_of = hull_norm(key, lo, hi)
        reproduced = norm_of(xv - theta @ M)
        if not O.rel_close(d, reproduced, 1e-8, 1e-10):
            bad.append(f"distance {d!r} but norm(x - point) = {reproduced!r}")
        rng = _rng(self.seed, 100 + self.stream, i)
        thetas = np.vstack([np.eye(len(members)), rng.dirichlet(np.ones(len(members)), HULL_SAMPLES)])
        best = min(norm_of(xv - t @ M) for t in thetas)
        if d > best + 1e-6 * max(1.0, best):
            bad.append(f"distance {d!r} above a vertex or simplex sample {best!r}")
        return bad


class Hull6L2(Hull6):
    """hull-6 restricted to L^2, where requests are short and many."""

    name = "hull-6-l2"
    stream = 4
    per_second = 2.0
    passes = 8
    rotation = ("L2",)


class Hull3L2(Hull6L2):
    """hull-6-l2 with 3 members: about 7 ms a request instead of 45 ms, so a
    run holds enough distinct requests that what a seed draws averages out
    and enough passes that the fastest is near the machine's floor."""

    name = "hull-3-l2"
    stream = 6
    per_second = 5.0
    passes = 18
    members = 3


def hull_norm(key: str, lo: np.ndarray, hi: np.ndarray):
    """Independent norm of a function given by its values on fixed cells."""
    O = load_oracles()
    widths = hi - lo

    def pieces(vals):
        keep = vals != 0.0
        return np.column_stack([lo[keep], hi[keep], vals[keep]])

    if key == "L2":
        return lambda vals: float(np.sqrt(np.sum(widths * vals * vals)))
    if key == "lambda_p2":
        return lambda vals: O.lambda_norm(pieces(vals), 2.0, 1.0, -0.5)
    if key == "gamma_p2":
        return lambda vals: O.gamma_norm(pieces(vals), 2.0, [(0.0, INF, 1.0, -0.5, 0.0)])
    return lambda vals: O.luxemburg_norm(pieces(vals), O.psi_exp)


# -------------------------------------------------------------------- deciders

def _dec(rng: np.random.Generator, lo: int, hi: int) -> Fraction:
    """A two-decimal number in [lo/100, hi/100], as a user would type it."""
    return Fraction(int(rng.integers(lo, hi + 1)), 100)


class Deciders(Workload):
    """One request is a weight, an exponent p and an Orlicz function run
    through ``SpaceHandle.lorentz_gamma`` and every verdict-returning
    criterion of ``rifs.deciders``."""

    name = "deciders"
    stream = 5
    per_second = 1.2

    def warmup(self) -> None:
        half = [(Fraction(0), INF, Fraction(1), Fraction(-1, 2), Fraction(0))]
        for orlicz in ({"family": "power", "params": {"p": 2.0}},
                       {"family": "table", "params": {"points": [[1.0, 0.5], [2.0, 2.0]]}}):
            self.request((Fraction(2), half, orlicz))

    def make_input(self, i: int):
        rng = _rng(self.seed, self.stream, i)
        p = _dec(rng, 101, 399)
        # Every other request puts the tail exponent on the D_p boundary a = p - 1.
        a = p - 1 if i % 2 == 0 else _dec(rng, -99, 299)
        shape = int(rng.integers(0, 3))
        c = _dec(rng, 50, 200)
        if shape == 0:  # pure power
            weight = [(Fraction(0), INF, c, a, Fraction(0))]
        else:
            t1 = _dec(rng, 50, 300)
            head = (Fraction(0), t1, _dec(rng, 50, 200), _dec(rng, -99, 150), Fraction(0))
            if shape == 1:  # power head, power-log tail
                weight = [head, (t1, INF, c, a, _dec(rng, -300, 200))]
            else:  # power head, flat c = 0 piece, power tail
                t2 = t1 + _dec(rng, 10, 200)
                weight = [head, (t1, t2, Fraction(0), Fraction(0), Fraction(0)),
                          (t2, INF, c, a, Fraction(0))]
        return p, weight, self._orlicz(rng)

    @staticmethod
    def _orlicz(rng: np.random.Generator) -> dict:
        family = ("power", "shifted_power", "exp_minus_one", "table")[int(rng.integers(0, 4))]
        if family == "power":
            return {"family": family, "params": {"p": float(_dec(rng, 100, 400)),
                                                 "coef": float(_dec(rng, 10, 300))}}
        if family == "shifted_power":
            return {"family": family, "params": {"a": float(_dec(rng, 10, 200)),
                                                 "p": float(_dec(rng, 100, 400))}}
        if family == "exp_minus_one":
            return {"family": family, "params": {}}
        k = int(rng.integers(2, 6))
        slopes = sorted(_dec(rng, 0, 300) for _ in range(k))
        slopes[-1] = max(slopes[-1], Fraction(1, 100))
        t, v, points = Fraction(0), Fraction(0), []
        for s in slopes:
            step = _dec(rng, 10, 200)
            t, v = t + step, v + s * step
            points.append([float(t), float(v)])
        return {"family": family, "params": {"points": points}}

    def request(self, inp):
        p, weight, orlicz = inp
        pf = float(p)
        w = WeightSpec.make([(float(t0), t1 if t1 == INF else float(t1), float(c), float(a),
                              float(b)) for t0, t1, c, a, b in weight])
        psi = OrliczSpec.from_json(orlicz)
        verdicts = {
            "is_delta2": rifs.is_delta2(psi).status,
            "is_N_at_zero": rifs.is_N_at_zero(psi).status,
            "orlicz_koc_decider": rifs.orlicz_koc_decider(psi, INF).status,
            "a_psi_vs_phi_infty": rifs.a_psi_vs_phi_infty(psi).status,
            "embeds_in_L1": rifs.embeds_in_L1(SpaceHandle.orlicz_space(psi)).status,
        }
        try:
            space = SpaceHandle.lorentz_gamma(pf, w)
        except WeightDomainError:
            return {"in_D_p": False, "verdicts": verdicts}
        verdicts["gamma_embeds_in_L1"] = rifs.embeds_in_L1(space).status
        verdicts["gamma_reflexive_decider"] = rifs.gamma_reflexive_decider(pf, w).status
        verdicts["gamma_approx_compact_decider"] = rifs.gamma_approx_compact_decider(pf, w).status
        verdicts["rbp_check"] = rifs.rbp_check(pf, w).status
        return {"in_D_p": True, "verdicts": verdicts}

    def check(self, inp, out) -> list[str]:
        p, weight, _ = inp
        want = load_oracles().in_D_p(weight, p)
        if out["in_D_p"] != want:
            a, b = weight[-1][3], weight[-1][4]
            return [f"D_p membership {out['in_D_p']} but exactly {want} "
                    f"(p={p}, tail a={a}, b={b})"]
        return []


WORKLOADS = {cls.name: cls for cls in (CoreSmall, NormsLarge, Hull3L2, Hull6, Hull6L2, Deciders)}

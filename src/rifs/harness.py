"""Randomized property suites and proof-level reproductions at desk scale:
core rearrangement laws, K-monotonicity, the shrinking two-sequence chain
construction, fundamental-function limits, and finite-dimensional rotundity
and strict-K-monotonicity probes.

Probes report "no-violation-found", never "property holds": a finite search
cannot certify a universally quantified statement.  Every violation witness
is replayable: trial inputs are a pure function of (seed, trial index).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .deciders import _embedding_verdict, l1_embedding_limit, phi_decades, phi_infinity
from .errors import SchemaError, _require_count
from .orlicz import OrliczSpec
from .rearrange import (_eval_increasing, distribution, equimeasurable, hlp_dominates, maximal_curve,
                        rearrange)
from .spaces import SpaceHandle, _Lorentz, fundamental_function, norm
from .step import StepFunction, _walk, add, indicator, scale
from .weights import WeightSpec


@dataclass(frozen=True)
class TrialConfig:
    seed: int = 0
    trials: int = 1000
    max_pieces: int = 5
    value_range: tuple[float, float] = (0.1, 3.0)
    length_range: tuple[float, float] = (0.05, 2.0)
    tolerance: float = 1e-9

    def __post_init__(self):
        _require_count("trials", self.trials, 1)
        _require_count("max_pieces", self.max_pieces, 1)
        _require_count("seed", self.seed, 0)
        if not (0 < self.value_range[0] < self.value_range[1] < math.inf):
            raise SchemaError("value_range must be a finite positive interval")
        if not (0 < self.length_range[0] < self.length_range[1] < math.inf):
            raise SchemaError("length_range must be a finite positive interval")
        if not 0 <= self.tolerance < math.inf:
            raise SchemaError("tolerance must be finite and nonnegative")


@dataclass(frozen=True)
class ProbeReport:
    name: str
    trials: int
    violations: tuple[dict, ...]
    probe_log: dict = field(default_factory=dict)

    @property
    def verdict(self) -> str:
        return "violation" if self.violations else "no-violation-found"

    def to_dict(self) -> dict:
        return {"name": self.name, "trials": self.trials,
                "verdict": self.verdict, "violations": list(self.violations),
                "probe_log": self.probe_log}


def _rng(cfg: TrialConfig, trial: int, stream: int = 0) -> np.random.Generator:
    key = [cfg.seed, trial, stream]
    # numpy reads each entry below 2**32 as that one uint32 word, so the array
    # seeds the same stream as the list and skips its per-entry coercion.
    if (cfg.seed | trial | stream) >> 32 == 0:
        key = np.array(key, np.uint32)
    return np.random.default_rng(key)


def random_step(cfg: TrialConfig, trial: int, stream: int = 0,
                alpha: float = math.inf, nonneg: bool = False) -> StepFunction:
    """Deterministic random step function for (seed, trial, stream).

    Piece count uniform in [1, max_pieces], lengths log-uniform in
    length_range, values uniform in value_range with random signs, gaps
    uniform in [0, 1]; for alpha = 1 the layout is rescaled into [0, 0.97].
    """
    rng = _rng(cfg, trial, stream)
    n = int(rng.integers(1, cfg.max_pieces + 1))
    lo, hi = cfg.length_range
    lengths = np.exp(rng.uniform(math.log(lo), math.log(hi), n)).tolist()
    gaps = rng.uniform(0.0, 1.0, n).tolist()
    values = rng.uniform(cfg.value_range[0], cfg.value_range[1], n).tolist()
    if not nonneg:
        # choice([-1.0, 1.0], n) draws these indices, from the same state;
        # -v is v * -1.0 to the bit.
        values = [v if k else -v for v, k in zip(values, rng.integers(0, 2, n).tolist())]
    pieces = []
    cursor = 0.0
    for g, length, v in zip(gaps, lengths, values):
        cursor += g
        pieces.append((cursor, cursor + length, v))
        cursor += length
    if alpha == 1.0 and cursor > 0.97:
        f = 0.97 / cursor
        pieces = [(t0 * f, t1 * f, v) for t0, t1, v in pieces]
    return StepFunction.make(pieces, alpha)


def _shuffled_partner(cfg: TrialConfig, trial: int, x: StepFunction) -> StepFunction:
    """Equimeasurable partner: same lengths and values, fresh layout."""
    rng = _rng(cfg, trial, stream=7)
    n = len(x.pieces)
    order = rng.permutation(n).tolist()
    # One call draws the gaps one by one, as n calls of one draw would.
    gaps = rng.uniform(0.0, 1.0, n).tolist()
    pieces = []
    cursor = 0.0
    for idx, g in zip(order, gaps):
        t0, t1, v = x.pieces[idx]
        cursor += g
        pieces.append((cursor, cursor + (t1 - t0), v))
        cursor += t1 - t0
    if x.alpha == 1.0 and cursor > 0.99:
        f = 0.99 / cursor
        pieces = [(a * f, b * f, v) for a, b, v in pieces]
    return StepFunction.make(pieces, x.alpha)


_CORE_NORM_BATTERY: list[SpaceHandle] = []


def _core_battery() -> list[SpaceHandle]:
    if not _CORE_NORM_BATTERY:
        w = WeightSpec.power(-0.5)
        _CORE_NORM_BATTERY.extend([
            SpaceHandle.lorentz_lambda(2.0, w),
            SpaceHandle.lorentz_gamma(2.0, w),
            SpaceHandle.orlicz_space(OrliczSpec.power(2.0)),
        ])
    return _CORE_NORM_BATTERY


def run_core_suite(cfg: TrialConfig,
                   rearrange_fn: Callable[[StepFunction], StepFunction] | None = None
                   ) -> ProbeReport:
    """Per trial: rearrangement laws, maximal-function laws, subadditivity,
    the sum-domination consequence, norm symmetry, and domination order laws.

    ``rearrange_fn`` exists for harness self-tests: injecting a corrupted
    rearrangement must surface as a violation with a replayable witness.
    """
    tol = cfg.tolerance
    violations = []

    def record(trial: int, check: str, detail: dict, x: StepFunction):
        violations.append({"trial": trial, "check": check, "detail": detail,
                           "x": x.to_json(), "seed": cfg.seed})

    for trial in range(cfg.trials):
        x = random_step(cfg, trial, stream=0)
        y = random_step(cfg, trial, stream=1)
        y2 = random_step(cfg, trial, stream=2)
        xs, ys, y2s = rearrange(x), rearrange(y), rearrange(y2)

        star = xs if rearrange_fn is None else rearrange_fn(x)
        vals = [v for _, _, v in star.pieces]
        if any(v < 0 for v in vals) or any(a < b for a, b in zip(vals, vals[1:])):
            record(trial, "rearrange-monotone-nonneg", {"star": star.to_json()}, x)
        lam_grid = sorted({abs(v) for _, _, v in x.pieces} | {0.0})
        lam_grid += [0.5 * (a + b) for a, b in zip(lam_grid, lam_grid[1:])]
        for lam in lam_grid:
            dx, ds = distribution(x, lam), distribution(star, lam)
            if abs(dx - ds) > 1e-12 * max(1.0, dx):
                record(trial, "distribution-preserved", {"lam": lam, "dx": dx, "ds": ds}, x)
                break

        curve = maximal_curve(x)
        ends = curve.breakpoints[1:]
        for s, below, above in zip(ends, _walk(xs.pieces, ends), _eval_increasing(curve, ends)):
            if below > above + tol:
                record(trial, "star-below-starstar", {"t": s}, x)
                break
        if any(a < -tol for a, _ in curve.coeffs):
            record(trial, "starstar-nonincreasing", {"coeffs": list(curve.coeffs)}, x)
        for k in range(len(curve.breakpoints) - 1):
            s = curve.breakpoints[k + 1]
            left = curve.coeffs[k][1] + curve.coeffs[k][0] / s
            right = curve.coeffs[k + 1][1] + curve.coeffs[k + 1][0] / s
            if abs(left - right) > 1e-9 * max(1.0, abs(left)):
                record(trial, "starstar-continuous", {"s": s, "left": left, "right": right}, x)
                break

        xy = add(x, y)
        cs, cx, cy = maximal_curve(xy), curve, maximal_curve(y)
        points = sorted({t for t in cs.breakpoints + cx.breakpoints + cy.breakpoints if t > 0})
        for t, s, a, b in zip(points, *(_eval_increasing(c, points) for c in (cs, cx, cy))):
            if s > a + b + tol:
                record(trial, "starstar-subadditive", {"t": t}, x)
                break

        b = add(xs, ys)
        c = add(b, y2s)
        if not hlp_dominates(add(xy, y2), c, tol=tol):
            record(trial, "sum-dominated-by-star-sum", {}, x)

        partner = _shuffled_partner(cfg, trial, x)
        if not equimeasurable(x, partner):
            record(trial, "equimeasurable-partner", {"partner": partner.to_json()}, x)
        else:
            for space in _core_battery():
                nx, npart = norm(space, x), norm(space, partner)
                if abs(nx - npart) > 1e-9 * max(1.0, nx):
                    record(trial, "norm-symmetry",
                           {"space": space.describe(), "nx": nx, "ny": npart}, x)

        if not hlp_dominates(x, x):
            record(trial, "hlp-reflexive", {}, x)
        if hlp_dominates(xs, b) and hlp_dominates(b, c) and not hlp_dominates(xs, c, tol=tol):
            record(trial, "hlp-transitive", {}, x)

    return ProbeReport("core-suite", cfg.trials, tuple(violations))


def run_kmono_suite(space: SpaceHandle, cfg: TrialConfig) -> ProbeReport:
    """Draw x, then y with y** >= x** by construction; assert norm monotone."""
    violations = []
    for trial in range(cfg.trials):
        x = random_step(cfg, trial, stream=0, alpha=space.alpha)
        bump = random_step(cfg, trial, stream=1, alpha=space.alpha, nonneg=True)
        y = add(rearrange(x), rearrange(bump))
        nx, ny = norm(space, x), norm(space, y)
        if nx > ny + cfg.tolerance:
            violations.append({"trial": trial, "nx": nx, "ny": ny,
                               "x": x.to_json(), "y": y.to_json(), "seed": cfg.seed})
    return ProbeReport(f"kmono[{space.describe()}]", cfg.trials, tuple(violations))


def dukm_sequence_run(space: SpaceHandle, n_max: int) -> list[dict]:
    """Tabulate the shrinking chain x_n = (1/2n) chi_[0,2n), y_n = (1/n) chi_[0,n).

    Each row verifies x_(n+1) < x_n < y_n exactly and the identity
    ``||y_n* - x_n*|| = phi(2n)/(2n)``.
    """
    if not math.isinf(space.alpha):
        raise SchemaError("the chain construction needs alpha = inf")
    _require_count("n_max", n_max, 1)
    rows = []
    chain = [indicator(0.0, 2.0 * n, 1.0 / (2.0 * n)) for n in range(1, n_max + 2)]
    for n, (x_n, x_next) in enumerate(zip(chain, chain[1:]), start=1):
        y_n = indicator(0.0, float(n), 1.0 / n)
        diff = add(y_n, scale(x_n, -1.0))
        norm_diff = norm(space, diff)
        phi_ratio = fundamental_function(space, 2.0 * n) / (2.0 * n)
        rows.append({
            "n": n,
            "norm_x": norm(space, x_n),
            "norm_y": norm(space, y_n),
            "norm_diff": norm_diff,
            "phi_over_2n": phi_ratio,
            "identity_gap": abs(norm_diff - phi_ratio),
            "chain_ok": hlp_dominates(x_next, x_n) and hlp_dominates(x_n, y_n),
        })
    return rows


def fundamental_limits(space: SpaceHandle) -> dict:
    """Divergence verdicts for phi(inf) and the L^1 limit d of phi(t)/t on [0, inf)."""
    if not math.isinf(space.alpha):
        raise SchemaError("fundamental_limits applies to alpha = inf")
    ts, phis = phi_decades(space)
    pinf = phi_infinity(space)
    d = l1_embedding_limit(space)
    return {
        "space": space.describe(),
        "phi_infinity": pinf,
        "phi_infinity_infinite": math.isinf(pinf),
        "d_limit": d,
        "embeds_L1": _embedding_verdict(d, ts, phis).to_dict(),
        "grid": [(t, phi, phi / t) for t, phi in zip(ts, phis)],
    }


def rotundity_probe(space: SpaceHandle, dim_grid: int, cfg: TrialConfig) -> ProbeReport:
    """Search the unit sphere of the grid-restricted space for a flat segment:
    x != y, ||x|| = ||y|| = 1, ||x + y|| >= 2 - tolerance.

    Deterministic seed pairs (disjoint and nested indicators) run before the
    random search; a local hill climb then refines the best random pair.
    A grid vector's norm is the space's cell-table norm bound once to the
    grid, the kernel the hull projection uses (``SpaceHandle._cell_kernels``).
    """
    _require_count("dim_grid", dim_grid, 2)
    h = 1.0 / dim_grid if space.alpha == 1.0 else 1.0
    edges = np.arange(dim_grid + 1) * h  # the grid cells (i h, (i + 1) h)
    nrm = space._cell_kernels(edges[:-1], edges[1:])[0]
    tol = cfg.tolerance
    violations = []

    def flat_pair(u: np.ndarray, v: np.ndarray):
        """``(||u/||u|| + v/||v|| ||, u/||u||, v/||v||)``, or None when a norm is
        0 or inf or the normalized pair is too close to count as x != y."""
        nu, nv = nrm(u), nrm(v)
        if nu <= 0 or nv <= 0 or math.isinf(nu) or math.isinf(nv):
            return None
        un, vn = u / nu, v / nv
        if np.max(np.abs(un - vn)) < 0.05:
            return None
        return nrm(un + vn), un, vn

    def record(origin: str, s: float, un: np.ndarray, vn: np.ndarray) -> None:
        violations.append({"origin": origin, "x": un.tolist(), "y": vn.tolist(),
                           "sum_norm": s, "seed": cfg.seed})

    e = np.eye(dim_grid)
    seeds = [
        (e[0], e[1], "seed-disjoint-cells"),
        (e[0] + e[1], e[0], "seed-nested"),
        (np.ones(dim_grid), e[0], "seed-full-vs-cell"),
    ]
    for u, v, tag in seeds:
        pair = flat_pair(u, v)
        if pair is not None and pair[0] >= 2.0 - tol:
            record(tag, *pair)

    best = None
    for trial in range(cfg.trials):
        if violations:
            break
        rng = _rng(cfg, trial, stream=11)
        pair = flat_pair(rng.uniform(-1.0, 1.0, dim_grid), rng.uniform(-1.0, 1.0, dim_grid))
        if pair is None:
            continue
        if pair[0] >= 2.0 - tol:
            record(f"random-trial-{trial}", *pair)
            break
        if best is None or pair[0] > best[0]:
            best = pair

    if not violations and best is not None:
        rng = _rng(cfg, 0, stream=13)
        s, un, vn = best
        for step in range(200):
            scale_step = 0.3 * 0.98 ** step
            pair = flat_pair(un + rng.normal(0.0, scale_step, dim_grid),
                             vn + rng.normal(0.0, scale_step, dim_grid))
            if pair is None:
                continue
            if pair[0] > s:
                s, un, vn = pair
            if s >= 2.0 - tol:
                record("hill-climb", s, un, vn)
                break

    log = {"dim_grid": dim_grid, "cell_length": h,
           "best_sum_norm": None if not violations and best is None else
           (violations[0]["sum_norm"] if violations else best[0])}
    return ProbeReport(f"rotundity[{space.describe()}]", cfg.trials,
                       tuple(violations), log)


def _flat_weight_seed_pairs(space: SpaceHandle) -> list[tuple[StepFunction, StepFunction, str]]:
    pairs = []
    if isinstance(space, _Lorentz):
        for (u0, u1) in space.weight.flat_intervals():
            if math.isinf(u1):
                continue
            mid = 0.5 * (u0 + u1)
            y = indicator(0.0, mid, 1.0, space.alpha)
            if u0 == 0.0:
                x = indicator(0.0, u1, 0.5, space.alpha)
            else:
                x = add(indicator(0.0, u0, 1.0, space.alpha),
                        indicator(u0, u1, 0.5, space.alpha))
            pairs.append((x, y, f"seed-flat-weight-[{u0},{u1})"))
    # The classical L^1 pair: equal mass, different rearrangements; on (0, 1)
    # the same pair scaled by a quarter in length, to fit the domain.
    end = 2.0 if math.isinf(space.alpha) else 0.5
    pairs.append((indicator(0.0, end, 1.0, space.alpha),
                  indicator(0.0, 0.5 * end, 2.0, space.alpha), "seed-equal-mass"))
    return pairs


def skm_probe(space: SpaceHandle, cfg: TrialConfig) -> ProbeReport:
    """Search for x < y with x* != y* and equal norms (a strict-K-monotonicity
    violation witness).

    Seeded families run first: the flat-weight construction for either
    Lorentz space with a vanishing weight piece, and the classical equal-mass
    pair that works in L^1.  Random trials then mix a rearranged draw with its
    average over the support, which always sits below it in the K-order.
    """
    tol = cfg.tolerance
    violations = []

    def check_pair(x: StepFunction, y: StepFunction, origin: str) -> None:
        if not hlp_dominates(x, y):
            return
        if rearrange(x).approx_equal(rearrange(y), tol=1e-9):
            return
        nx, ny = norm(space, x), norm(space, y)
        if abs(nx - ny) <= tol:
            violations.append({"origin": origin, "norm_x": nx, "norm_y": ny,
                               "x": x.to_json(), "y": y.to_json(), "seed": cfg.seed})

    for x, y, tag in _flat_weight_seed_pairs(space):
        check_pair(x, y, tag)

    for trial in range(cfg.trials):
        rng = _rng(cfg, trial, stream=17)
        y = rearrange(random_step(cfg, trial, stream=0, alpha=space.alpha))
        if len(y.pieces) < 2:
            continue
        length = y.support_end
        mass = sum((t1 - t0) * v for t0, t1, v in y.pieces)
        avg = indicator(0.0, length, mass / length, space.alpha)
        s = float(rng.uniform(0.2, 0.8))
        x = add(scale(y, 1.0 - s), scale(avg, s))
        check_pair(x, y, f"random-trial-{trial}")

    return ProbeReport(f"skm[{space.describe()}]", cfg.trials, tuple(violations))

"""Best-approximation machinery over finite candidate sets and their convex
hulls: nearest-point sets, distances, minimizing sequences, K-upper bounds,
and the dominated-approximation experiment combining the hypothesis checks
with an actual projection.

Desk-scale scope: candidate sets are finite lists of step functions; the
hull case optimizes a convex objective over the probability simplex on one
table: the common cells of the target and the members, their values there,
and the point settled from those values.  Every space takes one order of
stages, each only while the request is uncertified: Wolfe's minimum-norm
point on the cells' Gram matrix where the norm is a Hilbert norm (*Math.
Programming* 11, 1976), Kelley's cutting planes from every vertex's cut
(*J. SIAM* 8, 1960), and where the cuts run out a vertex run of
coordinate-pair descent with Powell's pattern searches (*Comput. J.* 7,
1964), whose line searches (:func:`optimize.brent_min`) return a boundary
optimum exactly, followed by the cutting planes again.  A result carries its
own certificate, a bound on how far the distance lies above the hull
minimum: the Frank-Wolfe gap for a subgradient of the norm that each space
supplies (Jaggi, ICML 2013), or ``best - minimum`` of Kelley's
piecewise-linear model built from those subgradients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .deciders import orlicz_koc_decider
from .errors import NonConvergenceError, SchemaError, _require_count
from .optimize import MatrixGame, _MinNormPoint, brent_min
from .orlicz import OrliczSpec
from .rearrange import hlp_dominates, rearrange
from .spaces import SpaceHandle, norm
from .step import StepFunction, _settle, _walk, add, scale

TIE_TOL = 1e-10


@dataclass(frozen=True)
class CandidateSet:
    """Finite candidate set, optionally optimized over its convex hull.

    ``rearrangement_closed`` asserts that each member's decreasing
    rearrangement is again a member; it is validated at construction.
    """

    members: tuple[StepFunction, ...]
    hull: bool = False
    rearrangement_closed: bool = False

    @classmethod
    def make(cls, members, hull: bool = False,
             rearrangement_closed: bool = False) -> "CandidateSet":
        members = tuple(members)
        if not members:
            raise SchemaError("candidate set must be nonempty")
        if len({m.alpha for m in members}) != 1:
            raise SchemaError("candidate set mixes domains")
        if rearrangement_closed:
            for m in members:
                star = rearrange(m)
                if not any(star.approx_equal(other) for other in members):
                    raise SchemaError(
                        "rearrangement_closed asserted but a member's rearrangement is missing"
                    )
        return cls(members, hull, rearrangement_closed)

    @classmethod
    def from_json(cls, obj: dict) -> "CandidateSet":
        try:
            members = [StepFunction.from_json(m) for m in obj["members"]]
            return cls.make(members, bool(obj.get("hull", False)),
                            bool(obj.get("rearrangement_closed", False)))
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"bad candidate-set JSON: {exc}") from exc

    def to_json(self) -> dict:
        return {"members": [m.to_json() for m in self.members],
                "hull": self.hull, "rearrangement_closed": self.rearrangement_closed}


@dataclass(frozen=True)
class Minimizer:
    coefficients: tuple[float, ...]
    point: StepFunction
    gap: float


@dataclass(frozen=True)
class ProjectionResult:
    distance: float
    minimizers: tuple[Minimizer, ...]
    iterations: int
    certificate: tuple[tuple[tuple[float, ...], float], ...]  # (coeffs, norm) trace

    def to_json(self) -> dict:
        return {
            "distance": self.distance,
            "minimizers": [
                {"coefficients": list(m.coefficients),
                 "point": m.point.to_json(), "gap": m.gap}
                for m in self.minimizers
            ],
            "iterations": self.iterations,
            "certificate": [{"coefficients": list(c), "norm": v}
                            for c, v in self.certificate],
        }


class _HullObjective:
    """``theta -> || x - sum theta_i a_i ||`` on the common cells of x and the
    members: the one table a hull request works on, which owns the cells, the
    values on them and the point settled from them.  The space binds its
    kernels to the cells once (``SpaceHandle._cell_kernels``): every
    evaluation goes through ``residual_norm``, the space's norm of the
    function with value ``vals[k]`` on cell k, every cut and gap through
    ``subgradient``, the space's subgradient there (None where the space has
    none), and ``gram`` holds its Hilbert weights (None where it is not a
    Hilbert norm).

    Each point theta costs one residual ``x - theta . M``, shared by its
    value, gap and cut: ``last`` keeps the last theta evaluated with its
    residual, matched by identity, so it lives as long as the request."""

    def __init__(self, x: StepFunction, members: tuple[StepFunction, ...],
                 space: SpaceHandle):
        if x.alpha != space.alpha:
            raise SchemaError("function and space live on different domains")
        if any(m.alpha != x.alpha for m in members):
            raise SchemaError("operands live on different domains")
        edges = sorted({t for f in (x, *members) for p in f.pieces for t in p[:2]})
        mids = [0.5 * (a + b) for a, b in zip(edges, edges[1:])]
        self.alpha = x.alpha
        table = np.array(edges)
        self.lo, self.hi = table[:-1], table[1:]
        self.residual_norm, self.subgradient, self.gram = space._cell_kernels(self.lo, self.hi)
        # One forward walk per function gives the values of ``values(mids)``.
        vals = np.array([_walk(f.pieces, mids) for f in (x, *members)])
        self.xv, self.member_vals = vals[0], vals[1:]
        self.cuts: list[tuple[tuple[float, ...], float, list[float]]] = []
        self.last = (None, None)

    def point(self, theta) -> StepFunction:
        """``sum theta_i a_i`` settled from the cells.  Each cell sums
        ``theta_i a_i`` from 0.0 in member order over the nonzero
        coefficients, the arithmetic of ``out = add(out, scale(a_i, theta_i))``."""
        terms = (c * m for c, m in zip(theta, self.member_vals) if c != 0.0)
        vals = sum(terms, np.zeros(len(self.lo)))
        cells = zip(self.lo.tolist(), self.hi.tolist(), vals.tolist())
        return StepFunction(self.alpha, _settle(cells, self.alpha))

    def residual(self, theta) -> np.ndarray:
        """``x - sum theta_i a_i`` on the common cells, formed once for the
        last theta (see ``last``)."""
        last, r = self.last
        if theta is not last:
            r = self.xv - np.asarray(theta) @ self.member_vals
            self.last = theta, r
        return r

    def __call__(self, theta) -> float:
        return self.residual_norm(self.residual(theta))

    def cut(self, theta, val: float):
        """``e = M g``, g the norm's subgradient at the residual (0 at a zero
        one), so that ``f(theta') >= val + <e, theta - theta'>``; kept in
        ``cuts``.  None where the space has no subgradient there."""
        if val == 0.0:
            e = [0.0] * len(theta)
        elif self.subgradient is None or (g := self.subgradient(self.residual(theta), val)) is None:
            return None
        else:
            e = (self.member_vals @ g).tolist()
        self.cuts.append((tuple(theta), val, e))
        return e

    def gap(self, theta, val: float) -> float:
        """The Frank-Wolfe gap ``<d, theta> - min_i d_i`` at theta, whose
        objective value is val, for the subgradient ``d = -e`` of the
        objective (:meth:`cut`).  By convexity it bounds ``val - min over the
        simplex``.  0 at a zero residual, inf where the space has no
        subgradient (there) or it does not come out finite."""
        e = self.cut(theta, val)
        if e is None:
            return math.inf
        gap = max(e) - sum(t * ei for t, ei in zip(theta, e))
        return max(gap, 0.0) if math.isfinite(gap) else math.inf


def _cut_row(theta, val: float, e) -> list[float] | None:
    """The cut at theta on each vertex i, ``val + <e, theta> - e_i``; None
    where there is no cut (e is None) or it does not come out finite."""
    if e is None:
        return None
    base = val + sum(t * ei for t, ei in zip(theta, e))
    row = [base - ei for ei in e]
    return row if all(map(math.isfinite, row)) else None


def project_finite(x: StepFunction, A: CandidateSet, space: SpaceHandle) -> ProjectionResult:
    """Exact nearest-point set over the members; ties within 1e-10 all reported."""
    if A.hull:
        raise SchemaError("project_finite expects hull = false")
    distances = [norm(space, add(x, scale(a, -1.0))) for a in A.members]
    best = min(distances)
    minimizers = []
    certificate = []
    for i, (a, d) in enumerate(zip(A.members, distances)):
        coeffs = tuple(1.0 if j == i else 0.0 for j in range(len(A.members)))
        certificate.append((coeffs, d))
        if d - best <= TIE_TOL:
            minimizers.append(Minimizer(coeffs, a, d - best))
    return ProjectionResult(best, tuple(minimizers), len(A.members), tuple(certificate))


def project_hull(x: StepFunction, A: CandidateSet, space: SpaceHandle,
                 tol: float = 1e-6, max_line_searches: int = 100_000) -> ProjectionResult:
    """Minimize ``|| x - sum theta_i a_i ||`` over the probability simplex.

    One :class:`_HullObjective` owns the cells, the values on them, the vertex
    values and the minimizer point, settled from the cells.  The run starts
    at the best vertex and takes the Frank-Wolfe gap there
    (:meth:`_HullObjective.gap`), a bound on the excess over the hull minimum.
    Then every space takes the same stages, each only while the gap is above
    tol.

    1. Wolfe, where ``_HullObjective.gram`` is set (an Orlicz power psi with
       p = 2).  The objective's square is a quadratic over the simplex, with
       the Gram matrix ``G = D diag(w) D^T`` of the rows ``D = a_i - x`` on
       the cells, each scaled by a power of two so that G neither overflows
       nor goes subnormal.  Wolfe's minimum-norm point
       (:class:`optimize._MinNormPoint`) solves it from the best vertex in
       finitely many corral steps, and each iterate's norm is evaluated on
       the cells; members off the final corral get exactly 0.0.  The best
       iterate is certified by the library's gap there, never by G.
    2. Cutting planes.  The cut of every vertex, whose value is known, and
       every gap's cut are rows of the model ``max_k cut_k``; each step
       minimizes it over the simplex (:class:`optimize.MatrixGame`),
       evaluates the objective and its cut there, and keeps the best
       iterate.  The phase stops when ``best - model minimum <= tol``, when
       a new cut causes no pivot (the model can no longer move), or where
       the best vertex or the model's minimizer has no cut.
    3. The vertex run, where the cuts ran out: coordinate-pair descent from
       the best iterate.  Each line search moves theta along a direction d
       with sum 0, clipped to the simplex: the residual
       ``r0 = x - theta . M`` is formed once, each trial is
       ``r0 - t (d . M)``, and :func:`optimize.brent_min` minimizes to a
       width of ``max(1e-3 tol, 2**-26)``, reusing the known value at t = 0:
       within sqrt(eps) = 2**-26 of a nonzero minimum, values agree to
       rounding.  An optimum at a clip's end is returned exactly, and a
       coefficient driven to 0 is exactly 0.0.  A pass searches each edge
       ``d = e_i - e_j``, and the run stops when a pass improves by less
       than tol.  Otherwise a search along its pattern
       ``theta_end - theta_start`` follows, and the next pass ends with a
       search along that pattern, so its own pattern is conjugate to it
       (Powell, 1964).  The gap is taken at the end.
    4. The cutting planes again, on the same model, with the run's cut.

    ``Minimizer.gap`` is the smaller of the last gap and
    ``best - model minimum``: at most tol when certified, inf where the space
    has no subgradient.  ``iterations`` counts corral steps, line searches
    (those a probe ends too) and cutting-plane steps; ``max_line_searches``
    caps it and raises :class:`NonConvergenceError` with the best iterate.
    ``certificate`` holds the start, then each step's iterate in order: the
    corral steps', the points the cutting planes evaluated, and the vertex
    run's improving steps.
    """
    if not 0 < tol < math.inf:
        raise SchemaError("project_hull requires 0 < tol < inf")
    _require_count("max_line_searches", max_line_searches, 0)
    members = A.members
    n = len(members)
    if n > 12:
        raise SchemaError("hull projection is desk-scale: at most 12 members")

    objective = _HullObjective(x, members, space)
    M = objective.member_vals
    line_tol = max(1e-3 * tol, 2.0 ** -26)
    # theta @ M at a vertex is the member's row exactly, so the rows of R are
    # the vertices' residuals.
    R = objective.xv - M
    vertex_vals = [objective.residual_norm(r) for r in R]
    best_vertex = min(range(n), key=lambda i: vertex_vals[i])
    theta, val = [0.0] * n, vertex_vals[best_vertex]
    theta[best_vertex] = 1.0
    objective.last = theta, R[best_vertex]
    trace = [(tuple(theta), val)]
    searches = 0
    game, taken = None, 0  # the cutting planes' model, and how many cuts it has read

    def step() -> None:
        """Counts one step against the cap."""
        nonlocal searches
        if searches >= max_line_searches:
            raise NonConvergenceError(
                "hull projection exceeded the line-search cap", best=(tuple(theta), val))
        searches += 1

    def visit(point) -> float:
        """One step to point: its value joins the trace, and the best
        iterate is kept."""
        nonlocal theta, val
        step()
        point_val = objective(point)
        trace.append((tuple(point), point_val))
        if point_val < val:
            theta, val = point, point_val
        return point_val

    def search(d, step_vals) -> float:
        """One line search along theta + t d, clipped to the simplex: d
        lists (i, d_i) with d_i != 0 and sum 0, and step_vals is d @ M.
        Returns the improvement."""
        nonlocal theta, val
        lo, hi = -math.inf, math.inf
        for i, di in d:
            if di > 0.0:
                lo = max(lo, -theta[i] / di)
            else:
                hi = min(hi, -theta[i] / di)
        if not 1e-15 < hi - lo < math.inf:
            return 0.0
        step()
        r0 = objective.residual(theta)
        t, new_val = brent_min(lambda t: objective.residual_norm(r0 - t * step_vals),
                               lo, hi, tol=line_tol, known=(0.0, val))
        if not new_val < val - 1e-15:
            return 0.0
        theta = list(theta)
        for i, di in d:  # a coefficient the clip drives to its end is exactly 0.0
            theta[i] = 0.0 if t == -theta[i] / di else theta[i] + t * di
        improved, val = val - new_val, new_val
        trace.append((tuple(theta), val))
        return improved

    def planes() -> None:
        """Cutting planes while the gap is above tol, on the cuts taken
        since the last call; every vertex's cut seeds the first game."""
        nonlocal gap, game, taken
        if game is None and tol < gap < math.inf:
            # The best vertex's cut came with its gap.
            for i, (vertex_val, r) in enumerate(zip(vertex_vals, R)):
                if i != best_vertex:
                    vertex = [0.0] * n
                    vertex[i] = 1.0
                    objective.last = vertex, r
                    objective.cut(vertex, vertex_val)
        rows = [row for cut in objective.cuts[taken:] if (row := _cut_row(*cut))] if gap > tol else []
        if game is None:
            if not rows:
                return
            game, moved = MatrixGame(rows), True
        else:
            moved = any([game.add(row) for row in rows])  # every row joins the game
        while True:
            point, lower = game.solution()
            if val - lower <= tol or not moved:
                break
            point_val = visit(point)
            row = _cut_row(point, point_val, objective.cut(point, point_val))
            moved = row is not None and game.add(row)
        taken = len(objective.cuts)
        gap = min(gap, max(val - lower, 0.0))

    gap = objective.gap(theta, val)
    if gap > tol and objective.gram is not None:
        # G = D diag(w) D^T for D = M - x = -R: negating both factors of each
        # product leaves G's bits.  Powers of two keep its entries normal
        # whatever the scale of x.
        rows = np.ldexp(R, -math.frexp(np.abs(R).max())[1])
        gram = np.ldexp(objective.gram, -math.frexp(objective.gram.max())[1])
        wolfe = _MinNormPoint(((rows * gram) @ rows.T).tolist(), best_vertex)
        while (j := wolfe.entering()) is not None:
            visit(wolfe.add(j))
        gap = objective.gap(theta, val)
    planes()
    if gap > tol:
        edges = [(((i, 1.0), (j, -1.0)), M[i] - M[j]) for i in range(n) for j in range(i + 1, n)]
        pattern = None
        while True:
            start = theta
            improved = sum(search(*edge) for edge in edges)
            if pattern is not None:
                improved += search(*pattern)
            if improved < tol:
                break
            # Powell's pattern: two line minima along the last pattern span a
            # direction conjugate to it.
            d = [b - a for a, b in zip(start, theta)]
            pattern = ([(i, di) for i, di in enumerate(d) if di], np.array(d) @ M)
            search(*pattern)
        gap = objective.gap(theta, val)
        planes()

    minimizer = Minimizer(tuple(theta), objective.point(theta), gap)
    return ProjectionResult(val, (minimizer,), searches, tuple(trace))


def minimizing_sequence(x: StepFunction, A: CandidateSet, space: SpaceHandle,
                        n: int, tol: float = 1e-6) -> list[StepFunction]:
    """First n iterates ``a_k - x`` along the optimizer trajectory, with
    norms nonincreasing toward dist(x, A).  n must be an integer >= 0."""
    _require_count("n", n, 0)
    if n == 0:
        return []
    if A.hull:
        result = project_hull(x, A, space, tol=tol)
        # a_k - x is the combination with x as a last member at -1.0: each
        # cell adds -1.0 * x, which is subtracting x exactly.
        objective = _HullObjective(x, (*A.members, x), space)
        snapshots = []
        best = math.inf
        for coeffs, val in result.certificate:
            if val <= best:
                best = val
                snapshots.append(coeffs)
        chosen = snapshots[:n]
        while len(chosen) < n:
            chosen.append(snapshots[-1])
        return [objective.point((*c, -1.0)) for c in chosen]
    result = project_finite(x, A, space)
    best_point = result.minimizers[0].point
    return [add(best_point, scale(x, -1.0)) for _ in range(n)]


def k_upper_bound_check(a: StepFunction, A: CandidateSet) -> bool:
    """Is ``a`` a K-upper bound of the set, i.e. every member below it under <?"""
    return all(hlp_dominates(member, a) for member in A.members)


@dataclass(frozen=True)
class ExperimentReport:
    hypotheses: dict
    projection: ProjectionResult
    proximinal: bool
    target_star: StepFunction
    notes: tuple[str, ...] = field(default_factory=tuple)

    def to_json(self) -> dict:
        return {
            "hypotheses": self.hypotheses,
            "projection": self.projection.to_json(),
            "proximinal": self.proximinal,
            "target_star": self.target_star.to_json(),
            "notes": list(self.notes),
        }


def dominated_projection_experiment(x: StepFunction, A: CandidateSet,
                                    psi: OrliczSpec, alpha: float) -> ExperimentReport:
    """Check the dominated-approximation hypotheses, then project x* onto A.

    The statements alternate between "the set sits below x" and "x sits below
    the set" in the literature, so both directions are checked and reported.
    At desk scale the projection always succeeds; the value of the experiment
    is the joint hypothesis/conclusion report.
    """
    koc = orlicz_koc_decider(psi, alpha)
    below = [i for i, a in enumerate(A.members) if not hlp_dominates(a, x)]
    above = [i for i, a in enumerate(A.members) if not hlp_dominates(x, a)]
    hypotheses = {
        "rearrangement_closed": A.rearrangement_closed,
        "koc": koc.to_dict(),
        "set_dominated_by_x": {"holds": not below, "violating_members": below},
        "x_dominated_by_set": {"holds": not above, "violating_members": above},
    }
    space = SpaceHandle.orlicz_space(psi, "luxemburg", alpha)
    x_star = rearrange(x)
    projection = (project_hull if A.hull else project_finite)(x_star, A, space)
    notes = []
    if not koc.holds:
        notes.append("K-order-continuity hypothesis fails; projection computed anyway")
    if below and above:
        notes.append("neither domination direction holds for every member")
    return ExperimentReport(hypotheses, projection, len(projection.minimizers) >= 1,
                            x_star, tuple(notes))

"""Command-line front end: one binary, subcommand style, JSON in / JSON or
CSV out.  Infinity is encoded as the string "inf" throughout; numeric output
uses shortest round-trip decimals.

Exit codes: 0 success, 1 domain errors (machine-readable JSON on stderr),
2 usage errors.
"""

from __future__ import annotations

import json
import math
import os
import sys
from functools import wraps

import click
import numpy as np

from . import harness
from .approx import CandidateSet, project_finite, project_hull
from .deciders import (
    embeds_in_L1,
    gamma_approx_compact_decider,
    gamma_reflexive_decider,
    is_delta2,
    orlicz_koc_decider,
    rbp_check,
)
from .errors import RifsError, SchemaError
from .orlicz import OrliczSpec
from .rearrange import hlp_dominates, maximal_curve, rearrange
from .spaces import SpaceHandle, fundamental_function, norm
from .step import StepFunction
from .weights import WeightSpec


def _jsonable(obj):
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        if math.isnan(obj):
            return "nan"
        return obj
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return _jsonable(float(obj))
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    return str(obj)


def _emit(obj) -> None:
    click.echo(json.dumps(_jsonable(obj)))


def _load_json(arg: str) -> dict:
    text = arg
    if not arg.lstrip().startswith(("{", "[")):
        try:
            with open(arg, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise SchemaError(f"cannot read {arg}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"malformed JSON: {exc}") from exc


def _domain_errors(fn):
    @wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except RifsError as exc:
            click.echo(json.dumps({"error": exc.code, "message": str(exc)}), err=True)
            sys.exit(1)
    return wrapper


def _default_seed() -> int:
    raw = os.environ.get("RIFS_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise click.BadParameter(f"RIFS_SEED must be an integer, got {raw!r}") from None


def emit_curve(x: StepFunction, what: str, grid: list[float]) -> str:
    """Two-column CSV sampling x* or x** on the grid (exact at grid points)."""
    if not grid:
        raise SchemaError("empty grid rejected")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise SchemaError("grid must be strictly increasing")
    lines = ["t,value"]
    if what == "star":
        star = rearrange(x)
        for t in grid:
            lines.append(f"{t!r},{star.value_at(t)!r}")
    elif what == "starstar":
        curve = maximal_curve(x)
        for t in grid:
            if t <= 0:
                raise SchemaError("x** needs t > 0 on the grid")
            lines.append(f"{t!r},{curve.eval(t)!r}")
    else:
        raise SchemaError(f"unknown curve kind {what!r}")
    return "\n".join(lines) + "\n"


@click.group()
def main():
    """Rearrangement-invariant function space toolkit."""


@main.command("rearrange")
@click.option("--in", "infile", required=True, help="step function (path or inline JSON)")
@_domain_errors
def rearrange_cmd(infile):
    """Decreasing rearrangement of a step function."""
    x = StepFunction.from_json(_load_json(infile))
    _emit(rearrange(x).to_json())


@main.command("maximal")
@click.option("--in", "infile", required=True, help="step function (path or inline JSON)")
@click.option("--what", type=click.Choice(["star", "starstar"]), default="starstar")
@click.option("--grid", required=True, help="comma-separated strictly increasing t values")
@_domain_errors
def maximal_cmd(infile, what, grid):
    """Sample x* or x** on a grid as CSV."""
    x = StepFunction.from_json(_load_json(infile))
    try:
        ts = [float(s) for s in grid.split(",") if s.strip()]
    except ValueError as exc:
        raise SchemaError(f"bad grid: {exc}") from exc
    click.echo(emit_curve(x, what, ts), nl=False)


@main.command("dominates")
@click.option("--x", "xfile", required=True)
@click.option("--y", "yfile", required=True)
@click.option("--tol", type=float, default=None)
@_domain_errors
def dominates_cmd(xfile, yfile, tol):
    """Hardy-Littlewood-Polya domination check x < y."""
    x = StepFunction.from_json(_load_json(xfile))
    y = StepFunction.from_json(_load_json(yfile))
    _emit({"dominates": hlp_dominates(x, y, tol)})


@main.command("norm")
@click.option("--space", "spacefile", required=True)
@click.option("--in", "infile", required=True)
@_domain_errors
def norm_cmd(spacefile, infile):
    """Norm of a step function in a space."""
    space = SpaceHandle.from_json(_load_json(spacefile))
    x = StepFunction.from_json(_load_json(infile))
    _emit({"norm": norm(space, x)})


@main.command("fundamental")
@click.option("--space", "spacefile", required=True)
@click.option("--t", type=float, required=True)
@_domain_errors
def fundamental_cmd(spacefile, t):
    """Fundamental function phi(t) of a space."""
    space = SpaceHandle.from_json(_load_json(spacefile))
    _emit({"t": t, "phi": fundamental_function(space, t)})


@main.command("check")
@click.argument("what", type=click.Choice(
    ["reflexive", "approx-compact", "koc", "embeds-l1", "rbp", "delta2"]))
@click.option("--p", type=float, default=None)
@click.option("--weight", "weightfile", default=None)
@click.option("--orlicz", "orliczfile", default=None)
@click.option("--space", "spacefile", default=None)
@click.option("--alpha", type=click.Choice(["1", "inf"]), default="inf")
@_domain_errors
def check_cmd(what, p, weightfile, orliczfile, spacefile, alpha):
    """Run a named decision criterion, emitting a verdict JSON."""
    alpha_val = math.inf if alpha == "inf" else 1.0
    if what in ("reflexive", "approx-compact", "rbp"):
        if p is None or weightfile is None:
            raise SchemaError(f"check {what} needs --p and --weight")
        w = WeightSpec.from_json(_load_json(weightfile))
        fn = {"reflexive": gamma_reflexive_decider,
              "approx-compact": gamma_approx_compact_decider,
              "rbp": rbp_check}[what]
        _emit(fn(p, w).to_dict())
    elif what in ("koc", "delta2"):
        if orliczfile is None:
            raise SchemaError(f"check {what} needs --orlicz")
        psi = OrliczSpec.from_json(_load_json(orliczfile))
        verdict = orlicz_koc_decider(psi, alpha_val) if what == "koc" else is_delta2(psi)
        _emit(verdict.to_dict())
    else:  # embeds-l1
        if spacefile is None:
            raise SchemaError("check embeds-l1 needs --space")
        space = SpaceHandle.from_json(_load_json(spacefile))
        _emit(embeds_in_L1(space).to_dict())


@main.command("project")
@click.option("--space", "spacefile", required=True)
@click.option("--target", "targetfile", required=True)
@click.option("--candidates", "candfile", required=True)
@click.option("--hull", is_flag=True, default=False)
@click.option("--tol", type=float, default=1e-6)
@click.option("--trace-csv", "tracecsv", default=None, help="write the minimizing trace as CSV")
@_domain_errors
def project_cmd(spacefile, targetfile, candfile, hull, tol, tracecsv):
    """Best approximation of the target from the candidate set."""
    space = SpaceHandle.from_json(_load_json(spacefile))
    x = StepFunction.from_json(_load_json(targetfile))
    cands = CandidateSet.from_json(_load_json(candfile))
    if hull and not cands.hull:
        cands = CandidateSet.make(cands.members, hull=True,
                                  rearrangement_closed=cands.rearrangement_closed)
    result = project_hull(x, cands, space, tol=tol) if cands.hull \
        else project_finite(x, cands, space)
    if tracecsv:
        with open(tracecsv, "w", encoding="utf-8") as fh:
            fh.write("step,norm\n")
            for i, (_, val) in enumerate(result.certificate):
                fh.write(f"{i},{val!r}\n")
    _emit(result.to_json())


@main.command("verify")
@click.argument("suite", type=click.Choice(
    ["core", "kmono", "dukm", "limits", "rotundity", "skm"]))
@click.option("--space", "spacefile", default=None)
@click.option("--seed", type=int, default=_default_seed)
@click.option("--trials", type=int, default=1000)
@click.option("--nmax", type=int, default=50, help="chain length for the dukm table")
@click.option("--dim", type=int, default=6, help="grid dimension for the rotundity probe")
@click.option("--csv", "csvfile", default=None, help="write the dukm table as CSV")
@_domain_errors
def verify_cmd(suite, spacefile, seed, trials, nmax, dim, csvfile):
    """Run a property suite and emit its report as JSON."""
    cfg = harness.TrialConfig(seed=seed, trials=trials)
    space = None
    if spacefile is not None:
        space = SpaceHandle.from_json(_load_json(spacefile))
    if suite == "core":
        _emit(harness.run_core_suite(cfg).to_dict())
        return
    if space is None:
        raise SchemaError(f"verify {suite} needs --space")
    if suite == "kmono":
        _emit(harness.run_kmono_suite(space, cfg).to_dict())
    elif suite == "dukm":
        rows = harness.dukm_sequence_run(space, nmax)
        if csvfile:
            with open(csvfile, "w", encoding="utf-8") as fh:
                fh.write("n,norm_x,norm_y,norm_diff,phi_over_2n,identity_gap,chain_ok\n")
                for r in rows:
                    fh.write(f"{r['n']},{r['norm_x']!r},{r['norm_y']!r},"
                             f"{r['norm_diff']!r},{r['phi_over_2n']!r},"
                             f"{r['identity_gap']!r},{r['chain_ok']}\n")
        _emit({"rows": rows})
    elif suite == "limits":
        _emit(harness.fundamental_limits(space))
    elif suite == "rotundity":
        _emit(harness.rotundity_probe(space, dim, cfg).to_dict())
    else:
        _emit(harness.skm_probe(space, cfg).to_dict())


if __name__ == "__main__":
    main()

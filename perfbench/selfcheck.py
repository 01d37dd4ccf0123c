#!/usr/bin/env python3
"""Self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

1. A tiny run of every workload, untraced and traced, must print a JSON
   result with exactly the keys correct, attempted, failed and metrics, and
   every metric that ``BENCHMARK.json`` names, each with its unit.
2. The oracles must flag deliberately corrupted answers: a bad
   ``rearrange_fn`` injected into ``run_core_suite``, each norm perturbed by
   1e-6 relative, a hull distance perturbed by 1e-6 relative and a flipped
   D_p verdict.  Otherwise ``failed`` would count nothing.

Exits 0 when every check passes.
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PERTURB = 1.0 + 1e-6


def tiny_run(workload: str, trace: int, spec: dict) -> list[str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        problems.append(f"attempted = {result['attempted']!r}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    if list(result["metrics"]) != [m["name"] for m in wanted]:
        problems.append("metric names differ from BENCHMARK.json")
    for m in wanted:
        got = result["metrics"].get(m["name"], {})
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{m['name']}: {got}")
    gated = {w["name"] for w in spec["workloads"]}
    if workload in gated and not result["correct"]:
        problems.append(f"{result['failed']} of {result['attempted']} outputs failed their oracle")
    return problems


def corruption_checks() -> list[str]:
    import numpy as np
    import rifs
    import workloads as W

    problems = []

    core = W.CoreSmall(0)
    flagged = 0
    for i in range(20):
        cfg = core.make_input(i)
        report = rifs.run_core_suite(cfg, rearrange_fn=lambda x: x)
        flagged += bool(core.check(cfg, report))
    if flagged == 0:
        problems.append("core-small: identity rearrange_fn was never flagged")
    print(f"  core-small: identity rearrange_fn flagged in {flagged} of 20 requests")

    norms = W.NormsLarge(0, tiny=True)
    inp = norms.make_input(0)
    out = norms.request(inp)
    if norms.check(inp, out):
        problems.append(f"norms-large: clean output flagged: {norms.check(inp, out)}")
    for key in norms.spaces:
        bad = {**out, "norms": [{**out["norms"][0], key: out["norms"][0][key] * PERTURB},
                                out["norms"][1]]}
        if not norms.check(inp, bad):
            problems.append(f"norms-large: {key} perturbed by 1e-6 not flagged")
    bad_add = np.array(out["add"])
    bad_add[0, 2] *= PERTURB
    if not norms.check(inp, {**out, "add": bad_add}):
        problems.append("norms-large: perturbed add output not flagged")
    print(f"  norms-large: {len(norms.spaces)} perturbed norms and a perturbed sum checked")

    for hull in (W.Hull3L2(0), W.Hull6(0), W.Hull6L2(0)):
        for i in range(len(hull.rotation)):
            inp = hull.make_input(i)
            result = hull.request(inp)
            if hull.check(inp, result):
                problems.append(f"{hull.name}: clean output flagged: {hull.check(inp, result)}")
            bad = dataclasses.replace(result, distance=result.distance * PERTURB)
            if not hull.check(inp, bad):
                problems.append(f"{hull.name}: distance perturbed by 1e-6 not flagged ({inp[0]})")
        print(f"  {hull.name}: perturbed distances checked in {len(hull.rotation)} spaces")

    dec = W.Deciders(0)
    for i in range(8):
        inp = dec.make_input(i)
        out = dec.request(inp)
        exact = W.load_oracles().in_D_p(inp[1], inp[0])
        if not dec.check(inp, {**out, "in_D_p": not exact}):
            problems.append(f"deciders: flipped D_p verdict not flagged on request {i}")
    print("  deciders: flipped D_p verdicts checked on 8 requests")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    problems = []
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            found = tiny_run(workload, trace, spec)
            print(f"tiny run {workload} trace {trace}: {'ok' if not found else found}")
            problems += [f"{workload} trace {trace}: {p}" for p in found]
    print("oracles against corrupted answers:")
    problems += corruption_checks()
    for p in problems:
        print(f"FAIL {p}")
    print("self-check passed" if not problems else f"self-check failed: {len(problems)} problems")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())

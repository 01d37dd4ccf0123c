#!/usr/bin/env python3
"""Benchmark runner for rifs: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload core-small --seed 1 --seconds 30 --trace 0

Run from the repository root; the library is imported from ``src/`` beside
this directory, never from an installed copy.  A run sends a fixed number of
requests, the workload's ``per_second`` times ``--seconds``, so every run of
a seed repeats the same work; it sends them the workload's ``passes`` times,
taking turns on each CPU the process may use, and each request's latency is
its fastest pass.  With ``--trace 0`` the run reports the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` untraced and
traced passes alternate and it reports the per-layer metrics plus
``trace_overhead_ratio``.  Every output is checked against an independent
oracle as soon as its request returns, outside the latency window.  The last
line of stdout is the JSON result; ``perfbench/spec.json`` describes the
workloads.
"""

import os

# One thread for every BLAS/OpenMP pool: the client is single-threaded and
# the machine is small.  Set before numpy loads; set-up probes inherit it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 11
PROBE_TIMEOUT_S = 60
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it
TRACE_PASSES = 6  # a traced run alternates three untraced and three traced passes
RSS_SHARE = 10  # the memory probe serves the first 1/RSS_SHARE of a run's requests
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else [0]


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec() -> dict:
    try:
        with open(ROOT / "BENCHMARK.json") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")


def import_workloads():
    """Import rifs from ``src/`` of this checkout, then the workloads."""
    if not (SRC / "rifs" / "__init__.py").is_file():
        fail(f"no rifs sources at {SRC / 'rifs'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import rifs

    if Path(rifs.__file__).resolve().parent != (SRC / "rifs").resolve():
        fail(f"imported rifs from {rifs.__file__}, not from {SRC}")
    import workloads

    return workloads


def probe(workload: str, seed: int, tiny: bool, rss_requests: int = 0) -> tuple[float, float]:
    """Spawn a fresh interpreter that sets up, reports ready, then serves
    requests 0 .. rss_requests - 1 unchecked.  Returns (seconds from spawn
    to first request ready, its peak resident set in MB).  Set-up covers
    interpreter start, ``import rifs``, spec building and warm-up; the
    oracles and scipy are not loaded."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe", str(rss_requests),
           "--workload", workload, "--seed", str(seed)] + (["--tiny"] if tiny else [])
    start = perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        watchdog = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            line = proc.stdout.readline()
            ready = perf_counter()
            rest = proc.stdout.read().split()
            proc.wait()
        finally:
            watchdog.cancel()
    if proc.returncode != 0 or line.strip() != "ready" or len(rest) != 1:
        fail(f"set-up probe failed with exit code {proc.returncode}")
    return ready - start, float(rest[0])


def peak_rss_mb() -> float:
    """This process's peak resident set in MB.  Linux keeps ``ru_maxrss``
    across exec, so a probe would inherit its parent's peak; ``VmHWM`` starts
    afresh with the new program."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def serve_probe(wl, count: int) -> None:
    print("ready", flush=True)
    for i in range(count):
        wl.request(wl.make_input(i))
    print(peak_rss_mb())


def pin(cpus: set[int]) -> None:
    """Restrict this process, and the interpreters it starts, to ``cpus``."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, cpus)


def run_pass(wl, count: int, tracer=None):
    """One closed-loop pass over requests 0 .. count - 1: request i + 1 is
    sent only after request i has returned and its output has been checked.
    The check runs outside the latency window and keeps nothing.
    Returns (latencies, [(request index, problems)] of failed outputs)."""
    latencies, failures = [], []
    for i in range(count):
        inp = wl.make_input(i)
        if tracer is not None:
            tracer.request = i
        start = perf_counter()
        try:
            out = wl.request(inp)
        except Exception as exc:  # a failed request is counted, not fatal
            out = exc
        latencies.append(perf_counter() - start)
        if isinstance(out, Exception):
            problems = [f"raised {type(out).__name__}: {out}"]
        else:
            problems = wl.check(inp, out)
        if problems:
            failures.append((i, problems))
    if tracer is not None:
        tracer.requests += count
    return latencies, failures


def measure(wl, count: int, tracer=None):
    """Passes over the same ``count`` requests; a request's latency is its
    fastest pass.  Other tenants of the machine slow one vCPU at a time, by
    up to 2x and for seconds to minutes, so the passes take turns on the
    CPUs this process may use, each pinned to one CPU and warmed up there
    first.  With a tracer, untraced and traced passes alternate and each
    pair shares a CPU, so both see the same requests and the same machine.
    Returns ({tracer or None: latencies}, failures, attempted)."""
    if tracer is None:
        modes, per_cpu = [None] * wl.passes, 1
    else:
        modes, per_cpu = [None, tracer] * (TRACE_PASSES // 2), 2
    best, failures = {}, []
    try:
        for k, mode in enumerate(modes):
            pin({CPUS[(k // per_cpu) % len(CPUS)]})
            wl.warmup()
            gc.collect()
            with tracing.installed(mode) if mode else contextlib.nullcontext():
                latencies, failed = run_pass(wl, count, mode)
            prev = best.get(mode, latencies)
            best[mode] = [min(pair) for pair in zip(prev, latencies)]
            failures += failed
    finally:
        pin(set(CPUS))
    return best, failures, count * len(modes)


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least TAIL_BEYOND samples
    above it, never below the median: (value, percentile, samples beyond)."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(n - TAIL_BEYOND - 1, n // 2)
    return ordered[k], 100.0 * (k + 1) / n, n - k - 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest input sizes, for the self-check")
    ap.add_argument("--probe", type=int, default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    spec = load_spec()
    workloads = import_workloads()
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload](args.seed, args.tiny)
    wl.warmup()
    if args.probe is not None:
        serve_probe(wl, args.probe)
        return 0
    count = max(1, round(wl.per_second * args.seconds))
    if args.trace == 0:
        rss_requests = max(1, count // RSS_SHARE)
        probes = []
        for k in range(SETUP_PROBES):  # a probe inherits the CPU it is pinned to
            pin({CPUS[k % len(CPUS)]})
            probes.append(probe(args.workload, args.seed, args.tiny,
                                rss_requests if k == 0 else 0))
        pin(set(CPUS))
    workloads.load_oracles()  # scipy loads here, before any request is timed
    tracer = tracing.Tracer() if args.trace else None
    best, failures, attempted = measure(wl, count, tracer)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    notes = {}
    if args.trace == 0:
        latencies = best[None]
        tail_value, tail_pct, beyond = tail(latencies)
        metrics = {
            "throughput_per_s": len(latencies) / sum(latencies),
            "latency_p50_ms": 1e3 * statistics.median(latencies),
            "latency_tail_ms": 1e3 * tail_value,
            "setup_s": statistics.median(s for s, _ in probes),
            "peak_rss_mb": probes[0][1],
        }
        notes["latency_tail_ms"] = (f"p{tail_pct:.2f}, {beyond} of {len(latencies)} "
                                    "samples beyond")
        notes["setup_s"] = f"median of {SETUP_PROBES} fresh interpreters"
        notes["peak_rss_mb"] = f"fresh interpreter, set-up and the first {rss_requests} requests"
        names = [m["name"] for m in spec["end_to_end"]]
    else:
        metrics = tracer.metrics()
        metrics["trace_overhead_ratio"] = sum(best[None]) / sum(best[tracer])
        notes["trace_overhead_ratio"] = f"untraced over traced time of the same {count} requests"
        TRACE_DIR.mkdir(exist_ok=True)
        span_file = TRACE_DIR / f"spans-{args.workload}-seed{args.seed}.csv"
        kept = tracer.write(span_file)
        notes["spans"] = f"{kept} spans written to {span_file.relative_to(ROOT)}"
        names = [m["name"] for m in spec["per_layer"]]

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  requests {count}  executions {attempted}")
    for name in names:
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<44} {metrics[name]:.6g} {units[name]}{note}")
    print(f"  {'failed_ratio':<44} {len(failures) / attempted:.6g} ratio  "
          f"({len(failures)} of {attempted} request executions failed their oracle)")
    if "spans" in notes:
        print(f"  {notes['spans']}")
    for i, problems in list(dict(failures).items())[:5]:
        print(f"  request {i}: {'; '.join(problems[:3])}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

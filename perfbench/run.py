"""Run one benchmark workload in this process and print its result.

    python3 perfbench/run.py --workload pg-analysis --seed 1 --seconds 18 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` next to this directory, never from an installed copy, and the run
fails (exit 2, no result) when that source is missing.

The workload repeats rounds of its fixed requests until ``--seconds`` have
passed (at least one round).  With ``--trace 0`` the last line of stdout is
the end-to-end result; with ``--trace 1`` the first half of the time runs
untraced, then the package's layer boundaries are wrapped (see
``tracing.py``), the set-up is repeated and rounds run traced for the other
half, and the last line carries the per-layer metrics.  The line before it
is a ``{"detail": ...}`` object: environment, computed sizes, the
determinism fingerprint, every failed check and the per-workload metrics.
Spans of a traced run are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from time import perf_counter

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 5

# The set-up probe: a fresh interpreter that imports the package, builds the
# workload's matroid, enumerates its index and prints the seconds since the
# parent started it.  Both sides read the system-wide CLOCK_MONOTONIC.
SETUP_PROBE = ("import sys, time; sys.path[:0] = sys.argv[1:3]; import workloads; "
               "workloads.make(sys.argv[3], 0, sys.argv[4] == '1').setup(); "
               "print(time.clock_gettime(time.CLOCK_MONOTONIC) - float(sys.argv[5]))")

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB",
                    "throughput_per_s": "1/s", "p50_ms": "ms"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes; figures are not comparable with full runs")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be nonnegative")
    return args


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    with open("/proc/self/maps", encoding="utf-8") as handle:
        libs = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def cpu_model():
    with open("/proc/cpuinfo", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or None


def environment(loadavg) -> dict:
    import numpy as np
    return {"nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas_threads": blas_threads(), "cpu": cpu_model(), "loadavg_start": loadavg}


def setup_probe(name: str, tiny: bool) -> float:
    """Start-to-ready time of one fresh set-up probe.  The probe reports its
    own time because a wait with a timeout polls, which would round the
    parent's measurement up to 50 ms steps."""
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    probe = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC), str(BENCH), name,
                            "1" if tiny else "0", repr(start)], check=True, timeout=120,
                           stdin=subprocess.DEVNULL, capture_output=True, text=True)
    return float(probe.stdout.split()[-1])


def run_rounds(workload, checks, timer, budget: float, fingerprints: list) -> list[float]:
    """Rounds until ``budget`` wall seconds have passed (at least one); each
    round's fingerprint must equal the first one's.  Returns each round's
    time: the sum of its requests' reference seconds."""
    times = []
    start = perf_counter()
    while True:
        first = len(timer.samples)
        fingerprint = workload.round(checks, timer)
        times.append(sum(t for _, _, _, t in timer.samples[first:]))
        if fingerprints:
            checks.true("determinism.round", fingerprint == fingerprints[0],
                        f"round {len(fingerprints)} differs from round 0")
        fingerprints.append(fingerprint)
        if perf_counter() - start >= budget:
            return times


def traced_run(args, workload, checks, timer, fingerprints) -> tuple[dict, dict]:
    import tracing
    import workloads
    untraced = run_rounds(workload, checks, timer, args.seconds / 2, fingerprints)
    tracer = tracing.Tracer()
    restore = tracer.install()
    try:
        workload.setup()
        tracer.phase = "round"
        traced = run_rounds(workload, checks, timer, args.seconds / 2, fingerprints)
    finally:
        restore()
    counted = {}
    candidates = {}
    for span in tracer.spans:
        if span["name"] == "montecarlo.estimate":
            a = span["attrs"]
            key = (tuple(a["probs"]), a["k"], a["n_trials"], a["seed"], a["chunk"])
            if key not in counted:
                counted[key] = workloads.mc_counts(a["probs"], *key[1:])
            candidates[span["id"]], distinct = counted[key]
            checks.equal("trace.mc_oracle_calls", span["oracle_calls"], distinct)
    overhead = median(traced) - median(untraced)
    metrics = tracing.layer_metrics(tracer.spans, len(traced), overhead, candidates)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.write(path)
    detail = {"untraced_round_s": untraced, "traced_round_s": traced,
              "spans": len(tracer.spans), "trace_file": str(path.relative_to(BENCH.parent))}
    return {k: {"value": v, "unit": tracing.unit(k)} for k, v in metrics.items()}, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "matroid_sampling" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    loadavg = os.getloadavg()
    # Single-threaded BLAS, inherited by the set-up probes.  No workload
    # multiplies anything larger than 31 x 31, but a 2-thread OpenBLAS pool
    # made numpy's import in each probe take 0.065-0.166 s instead of
    # 0.063-0.094 s, depending on whether the other core was free.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path[:0] = [str(SRC), str(BENCH)]
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workload = workloads.make(args.workload, args.seed, args.tiny)
    setup = workloads.Timer()
    if not args.trace:
        for _ in range(SETUP_REPEATS):
            setup.call("setup", 1, setup_probe, args.workload, args.tiny)
    workload.setup()
    checks = workloads.Checks()
    timer = workloads.Timer()
    fingerprints: list = []
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, "env": environment(loadavg)}

    if args.trace:
        metrics, detail["tracing"] = traced_run(args, workload, checks, timer, fingerprints)
    else:
        rounds = run_rounds(workload, checks, timer, args.seconds, fingerprints)
        headline = workload.headline(timer)
        values = {"setup_s": median(setup.times()), "run_s": median(rounds),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                  "throughput_per_s": headline["throughput_per_s"],
                  "p50_ms": headline["p50_ms"]}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        detail.update(round_s=rounds, requests={**setup.summary(), **timer.summary()},
                      workload_metrics=headline["named"])

    failed = len(checks.failed)
    detail.update(
        sizes=workload.sizes(), fingerprint=fingerprints[0],
        checks={"attempted": checks.attempted, "failed": failed,
                "fail_ratio": {"value": failed / checks.attempted, "failed": failed,
                               "attempted": checks.attempted},
                "failures": checks.failed[:20]})
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": checks.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

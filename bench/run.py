"""keysec benchmark: one workload per run, one JSON result line.

Usage, from the repository root:

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: rng_uniformity, pa_sweep, key_estimation, cli_cold (see
bench/README.md).  The run performs a fixed number of operations,
whole rounds of the workload's operation cycle, derived from --seconds
and the workload's nominal cost, so every run of a workload performs the
same calls.  With --trace 0 it prints the end-to-end metrics; with
--trace 1 it prints every per-layer metric and writes them, with the
trace summary, to bench/out/trace-<workload>-seed<n>.json.  Every
operation's outputs are checked against independent computations; an
operation whose check fails counts as failed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = {"rng_uniformity": ("workloads", "RngUniformity"),
             "pa_sweep": ("workloads", "PaSweep"),
             "key_estimation": ("workloads", "KeyEstimation"),
             "cli_cold": ("cli_cold", "CliCold")}
SETUP_SAMPLES = 5
TAIL_BEYOND = 10   # the tail is the highest percentile with 10 samples beyond
MIN_TAIL_OPS = 40  # fewer operations than this give no tail
# Operations of the other workloads run in a traced run, so that every
# traced run reports every per-layer metric.
SHORT_TRACE_ROUNDS = {"rng_uniformity": 3, "pa_sweep": 2,
                      "key_estimation": 3, "cli_cold": 3}


def pin_environment() -> None:
    """One BLAS thread, and the source tree importable in child processes."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = "1"
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))


def n_ops(workload, seconds: int) -> int:
    wanted = max(seconds * 1e3 / workload.nominal_ms, MIN_TAIL_OPS)
    return math.ceil(wanted / workload.round_len) * workload.round_len


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with ten samples beyond."""
    ordered = sorted(samples)
    k = len(ordered) - TAIL_BEYOND - 1
    return 100.0 * (k + 1) / len(ordered), ordered[k]


def workload_class(name: str):
    module, cls = WORKLOADS[name]
    return getattr(importlib.import_module(module), cls)


def attempt(what: str, fn, *args):
    """``fn(*args)``, or None if it raises; what raised is reported on
    stderr and counts as a failed operation."""
    try:
        return fn(*args)
    except Exception as exc:
        print(f"{what} raised {exc!r}", file=sys.stderr)
        return None


def warm_up(w) -> None:
    """One untimed operation.  If it raises, the timed operations fail too
    and are counted there."""
    attempt("warm-up operation", w.op, 0)


def setup_probe(name: str, seed: int, workdir: Path) -> float:
    """Import keysec, build the inputs and run one warm-up operation.

    The benchmark's own modules are imported before the clock starts.
    """
    importlib.import_module("oracles")
    importlib.import_module("tracing")
    t0 = time.perf_counter()
    warm_up(workload_class(name)(seed, workdir))
    return time.perf_counter() - t0


def child(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, cwd=ROOT, check=True)


def setup_seconds(name: str, seed: int) -> list[float]:
    # An untimed import first, so that compiling bytecode in a fresh
    # checkout is not counted as set-up.
    child(["-c", "import keysec"])
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = child([str(Path(__file__)), "--setup-probe", "--workload",
                      name, "--seed", str(seed)])
        samples.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return samples


def timed_op(w, i: int, tr, records: list) -> float:
    """Run operation ``i``, append its record (None if the operation or
    its record raised), and return its duration in seconds."""
    start = time.perf_counter()
    out = attempt(f"operation {i}", w.op, i, tr)
    elapsed = time.perf_counter() - start
    records.append(None if out is None else
                   attempt(f"record of operation {i}", w.record, i, out))
    return elapsed


def failed_ops(w, records: list) -> set[int]:
    """Operations without a record, or whose record fails its check."""
    return {i for i, rec in enumerate(records)
            if rec is None
            or not attempt(f"check of operation {i}", w.check, i, rec)}


def measure(w, count: int) -> tuple[list[float], list]:
    from tracing import NO_TRACE
    records = []
    times = [timed_op(w, i, NO_TRACE, records) for i in range(count)]
    return times, records


def traced(owner, seed: int, count: int, workdir: Path):
    """Per-layer figures: the owner's full run plus short runs of the rest.

    Returns the figures, the median traced operation time (spans on,
    probes excluded) and the records of the owner's operations.
    """
    from tracing import Tracer
    tr = Tracer()
    records = []
    for i in range(count):
        tr.begin_op()
        tr.add("op.ms", timed_op(owner, i, tr, records) * 1e3)
        owner.probe(i, tr, i < owner.round_len)
    metrics = {name: {"value": tr.median(name), "unit": unit}
               for name, unit in owner.layer_metrics}
    for name in WORKLOADS:
        if name == owner.name:
            continue
        other = workload_class(name)(seed, workdir / name)
        warm_up(other)
        sub = Tracer()
        for i in range(SHORT_TRACE_ROUNDS[name] * other.round_len):
            sub.begin_op()
            if name != "cli_cold":  # its layers are all probes
                timed_op(other, i, sub, [])
            other.probe(i, sub, i < other.round_len)
        metrics.update({n: {"value": sub.median(n), "unit": unit}
                        for n, unit in other.layer_metrics})
        del other
    return metrics, tr.median("op.ms"), records


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "keysec" / "__init__.py").is_file():
        print(f"error: keysec sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be >= 1", file=sys.stderr)
        return 2
    pin_environment()
    workdir = OUT_DIR / f"work-{os.getpid()}"
    try:
        if args.setup_probe:
            seconds = setup_probe(args.workload, args.seed, workdir)
            print(json.dumps({"setup_s": seconds}))
            return 0
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir: Path) -> int:
    setup = [] if args.trace else setup_seconds(args.workload, args.seed)
    w = workload_class(args.workload)(args.seed, workdir)
    warm_up(w)
    count = n_ops(w, args.seconds)
    if args.trace:
        metrics, op_p50_ms, records = traced(w, args.seed, count, workdir)
    else:
        times, records = measure(w, count)
    failed = failed_ops(w, records)
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "operations": count, "traced_op_p50_ms": op_p50_ms,
            "metrics": metrics}, indent=1))
        print(f"{args.workload}: traced {count} operations, "
              f"{len(failed)} failed, traced op p50 {op_p50_ms:.3f} ms; "
              f"per-layer figures in {path.relative_to(ROOT)}")
    else:
        if hasattr(w, "peak_rss_mb"):
            peak = w.peak_rss_mb(records)
        else:
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        pct, tail_s = tail(times)
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "ops_per_s": {"value": count / math.fsum(times), "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(times) * 1e3,
                          "unit": "ms"},
            "op_tail_ms": {"value": tail_s * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": peak, "unit": "MB"},
        }
        print(f"{args.workload}: {count} operations, {len(failed)} failed; "
              f"tail is p{pct:.1f} ({TAIL_BEYOND} samples beyond); "
              f"setup samples {', '.join(f'{s:.3f}' for s in setup)} s")
    for i in sorted(failed)[:5]:
        print(f"failed operation {i}: {records[i]!r:.400}")
    print(json.dumps({"correct": not failed, "attempted": count,
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

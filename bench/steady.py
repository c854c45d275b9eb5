"""Steadiness check: two independent sets of benchmark runs of the same code.

Usage, from the repository root:

    python3 bench/steady.py [--runs 10] [--sets 2] [--workloads a,b]

Each set runs every workload ``--runs`` times, one run at a time, each
with another seed.  For every end-to-end metric and workload it prints
the median, the quartiles and their distance as a share of the median
(the spread), and whether the spread stays within the metric's bound in
BENCHMARK.json (``setup_s`` is exempt from the spread test).  With two
sets it also reports whether the second set's median is worse than the
first's, and whether the two medians agree: that they differ, in either
direction, by at most the bound.  It also reports whether the share of
failed operations is the same.  All runs are written to
bench/out/steadiness-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEED_BASE = 1000  # set s, run r uses seed SEED_BASE + 100 * s + r


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    cmd[0] = sys.executable if cmd[0] in ("python", "python3") else cmd[0]
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{done.returncode}: {done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["seed"], result["wall_s"] = seed, wall
    return result


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median}


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse the second median is, as a share of the first."""
    change = (second - first) / first
    return change if better == "lower" else -change


def report(spec: dict, sets: list[dict]) -> bool:
    ok = True
    for workload in sets[0]:
        print(f"\n{workload}")
        for s, runs in enumerate(sets):
            shares = {(r["failed"], r["attempted"]) for r in runs[workload]}
            walls = [r["wall_s"] for r in runs[workload]]
            print(f"  set {s + 1}: {len(runs[workload])} runs, "
                  f"failed/attempted {sorted(shares)}, "
                  f"run wall {min(walls):.1f}-{max(walls):.1f} s")
        if len(sets) == 2:
            share = [{r["failed"] / r["attempted"] for r in runs[workload]}
                     for runs in sets]
            same = len(share[0] | share[1]) == 1
            ok &= same
            print(f"  failed share equal across sets: {same}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            cells = []
            medians = []
            for runs in sets:
                st = summary([r["metrics"][name]["value"]
                              for r in runs[workload]])
                medians.append(st["median"])
                steady = name == "setup_s" or st["spread"] <= bound
                ok &= steady
                cells.append(f"{st['median']:10.4f} [{st['q1']:.4f}, "
                             f"{st['q3']:.4f}] spread {st['spread']:6.3f}"
                             f"{'' if steady else ' OVER'}")
            line = f"  {name:12s} bound {bound:.2f} | " + " | ".join(cells)
            if len(sets) == 2:
                worse = worse_by(*medians, metric["better"])
                agree = abs(worse) <= bound
                ok &= agree
                line += f" | set 2 worse by {worse:+.3f}" + (
                    "" if agree else " OVER BOUND")
            print(line)
    return ok


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=2)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args(argv)
    sets = []
    for s in range(args.sets):
        runs = {}
        for workload in args.workloads.split(","):
            runs[workload] = []
            for r in range(args.runs):
                seed = SEED_BASE + 100 * s + r
                runs[workload].append(run_once(spec, workload, seed))
                print(f"set {s + 1} {workload} seed {seed}: "
                      f"{json.dumps(runs[workload][-1]['metrics'])}",
                      flush=True)
        sets.append(runs)
    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    path = out / time.strftime("steadiness-%Y%m%dT%H%M%S.json", time.gmtime())
    path.write_text(json.dumps({"run_seconds": spec["run_seconds"],
                                "sets": sets}, indent=1))
    print(f"runs written to {path.relative_to(ROOT)}")
    ok = report(spec, sets)
    print("\nsteady: all spreads and set-to-set changes within bounds"
          if ok else "\nNOT steady: see OVER above")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

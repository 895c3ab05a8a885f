#!/usr/bin/env python3
"""Record a baseline: run every workload of BENCHMARK.json on a set of
seeds, report each end-to-end metric's median and quartile spread, run
the held-out seed and one traced run beside them, and write it all with
the environment to a JSON file.

Run from the repository root, for example:

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

The spread of a metric is (q3 - q1) / median over the seeds, with the
quartiles of ``statistics.quantiles(values, n=4)``. A spread at or above
a third of the metric's bound is flagged and makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# Recorded apart, so that later claims can be checked on a seed not used
# while writing them.
HELD_OUT_SEED = 1001
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "LRDFORECAST_THREADS")


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "thread_env": {v: os.environ.get(v, "unset (default)") for v in THREAD_VARS},
        "commit": commit,
    }


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(command, workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{' '.join(argv)}: outputs incorrect")
    return result


def summarise(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", default="1-10", help="'1-10' or '1,2,5'")
    p.add_argument("--out", default=None, help="JSON file to write")
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    seeds = parse_seeds(args.seeds)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    doc = {"environment": environment(), "run_seconds": seconds, "seeds": seeds,
           "held_out_seed": HELD_OUT_SEED, "workloads": {}}
    steady = True
    for name in names:
        runs = []
        for seed in seeds:
            r = run_once(bench["command"], name, seed, seconds, 0)
            runs.append({"seed": seed, "metrics": {k: v["value"] for k, v in r["metrics"].items()},
                         "attempted": r["attempted"], "failed": r["failed"]})
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v:.4g}" for k, v in runs[-1]["metrics"].items()), flush=True)
        entry = {"runs": runs, "summary": {}}
        for metric, bound in bounds.items():
            s = summarise([r["metrics"][metric] for r in runs])
            entry["summary"][metric] = s
            flag = ""
            if s["spread"] >= bound / 3:
                flag = f"  <-- spread at or above bound/3 = {bound / 3:.3f}"
                steady = False
            print(f"  {name} {metric}: median {s['median']:.5g}, spread {s['spread']:.4f}{flag}")
        r = run_once(bench["command"], name, HELD_OUT_SEED, seconds, 0)
        entry["held_out"] = {k: v["value"] for k, v in r["metrics"].items()}
        r = run_once(bench["command"], name, seeds[0], seconds, 1)
        entry["traced"] = {"seed": seeds[0],
                           "metrics": {k: v["value"] for k, v in r["metrics"].items()}}
        doc["workloads"][name] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    print("steady" if steady else "NOT steady: some spread is at or above a third of its bound")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

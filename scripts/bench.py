#!/usr/bin/env python3
"""Record the benchmark's numbers for the checked-out commit in ``BENCH_<label>.json``.

    python3 scripts/bench.py --label baseline

For each workload in ``BENCHMARK.json`` it runs ``perfbench/run.py`` three
times untraced and three times traced, all on seed 1 and for the
``run_seconds`` that ``BENCHMARK.json`` sets, and keeps the JSON object on
the last line of each run.  The file holds, per workload, the median and the
range of every untraced end-to-end metric, the median of every traced
per-layer metric (one traced pass swings by more than many changes move
it), and the failed and attempted operation counts; plus the host (nproc, Python and NumPy versions,
BLAS vendor) and the git SHA of the code measured, with ``-dirty`` appended
when the working tree holds uncommitted changes.  Compare two files only
when they were written on the same host.
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

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
RUNS = 3
TRACED_RUNS = 3
SEED = 1


def _last_json_line(args: list[str]) -> dict:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=ROOT,
                          capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench/run.py {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _blas_vendor() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        return "unknown"


def _git_sha() -> str:
    """HEAD's SHA, with ``-dirty`` appended when the working tree differs from it."""
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, check=False)
    if proc.returncode != 0:
        return "unknown"
    status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, capture_output=True,
                            text=True, check=False)
    return proc.stdout.strip() + ("-dirty" if status.returncode != 0 or status.stdout.strip() else "")


def bench_workload(name: str, seconds: float) -> dict:
    common = ["--workload", name, "--seed", str(SEED), "--seconds", str(seconds)]
    untraced = []
    for k in range(RUNS):
        untraced.append(_last_json_line([*common, "--trace", "0"]))
        print(f"{name}: untraced run {k + 1}/{RUNS}: wall_ref_s "
              f"{untraced[-1]['metrics']['wall_ref_s']['value']:.3f}", flush=True)
    traced = []
    for k in range(TRACED_RUNS):
        traced.append(_last_json_line([*common, "--trace", "1"]))
        print(f"{name}: traced run {k + 1}/{TRACED_RUNS} done", flush=True)
    end_to_end = {}
    for metric, entry in untraced[0]["metrics"].items():
        values = [run["metrics"][metric]["value"] for run in untraced]
        end_to_end[metric] = {"median": statistics.median(values), "min": min(values),
                              "max": max(values), "unit": entry["unit"]}
    runs_all = [*untraced, *traced]
    return {
        "seed": SEED,
        "untraced_runs": RUNS,
        "traced_runs": TRACED_RUNS,
        "correct": all(run["correct"] for run in runs_all),
        "attempted": sum(run["attempted"] for run in runs_all),
        "failed": sum(run["failed"] for run in runs_all),
        "end_to_end": end_to_end,
        "per_layer": {metric: statistics.median(run["metrics"][metric]["value"] for run in traced)
                      for metric in traced[0]["metrics"]},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label", required=True, help="output goes to BENCH_<label>.json")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]

    result = {
        "label": args.label,
        "git_sha": _git_sha(),
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "numpy": np.__version__, "blas": _blas_vendor()},
        "command": f"python3 perfbench/run.py --workload W --seed {SEED} --seconds {seconds} "
                   "--trace 0|1",
        "seconds": seconds,
        "workloads": {w["name"]: bench_workload(w["name"], seconds) for w in spec["workloads"]},
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

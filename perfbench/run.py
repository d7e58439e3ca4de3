#!/usr/bin/env python3
"""Benchmark for fedal: paired random / s_al / f_al runs on three workloads.

    python3 perfbench/run.py --workload trend --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --workload trend --seed 1 --seconds 32 --trace 1

Run it from the repository root; it imports fedal from ``src/`` next to this
directory and nowhere else.  ``--trace 0`` repeats whole passes of the
workload for about ``--seconds`` seconds (at least one) and reports the
end-to-end metrics, with medians over the passes; pass times are taken at
reference speed, against a kernel sampled during the pass (``pacer.py``).
``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Pass CSVs, span dumps and
result JSON go to ``perfbench/out/``.
"""

import os

# One BLAS/OpenMP thread, set before NumPy loads: the process then runs one
# compute thread, and fedal's output does not depend on the thread count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 7          # fresh interpreters whose set-up times give setup_s
MIN_SELF_COVERAGE = 0.95  # traced self times must add up to this share of the wall time


@dataclass
class PassResult:
    wall_s: float
    ref_s: float | None  # wall_s without the pacer's samples, at reference speed
    csv_sha: str
    attempted: int
    failed_ops: set
    strategy_s: dict
    build_s: float  # inside harness.build_world
    acc: dict
    problems: list  # (op or None, message)
    tracer: object  # the pass's Tracer when traced, else None


def run_pass(workload, seed: int, traced: bool, csv_path: Path, paced: bool = False) -> PassResult:
    import checks
    from pacer import Pacer
    from tracing import Tracer

    tracer = Tracer(traced)
    pacer = Pacer() if paced else None
    problems, completed = [], False
    csv_path.unlink(missing_ok=True)
    with tracer, pacer or contextlib.nullcontext():
        start = time.perf_counter()
        try:
            report = workload.execute(seed, csv_path, tracer)
            completed = True
        except Exception:
            if not tracer.problems:  # otherwise the failing run already recorded it
                problems.append((None, "pass raised:\n" + traceback.format_exc()))
        wall = time.perf_counter() - start
    problems += tracer.problems
    ops = workload.ops(seed)
    data = csv_path.read_bytes() if completed else b""
    if completed:
        problems += checks.result_csv(data.decode("utf-8"), workload.expectation(seed, tracer))
        problems += workload.check_result(seed, report, tracer)
    done = {op for op in ops if op in tracer.ops and tracer.ops[op].logs is not None}
    failed = {op for op in ops if op not in done} | {op for op, _ in problems if op in ops}
    strategy_s = {s: sum(tracer.ops[op].seconds for op in done if op[0] == s)
                  for s in workload.strategies}
    build_s = sum(end - start for name, start, end, _ in tracer.spans
                  if name == "harness.build_world")
    ref_s = None if pacer is None else (wall - pacer.busy(start, start + wall)) * pacer.speed()
    acc = {}
    for s in workload.strategies:
        values = [log.test_accuracy for op in done if op[0] == s for log in tracer.ops[op].logs]
        acc[s] = statistics.fmean(values) if values else 0.0
    return PassResult(wall, ref_s, hashlib.sha256(data).hexdigest(), len(ops), failed,
                      strategy_s, build_s, acc, problems, tracer if traced else None)


def probe_setup_seconds(name: str, seed: int) -> float:
    """Median set-up time at reference speed over fresh interpreters (import,
    configs, worlds); each interpreter samples the kernel right after set-up."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def _thread_count() -> int | None:
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def _declared_names(key: str) -> list[str] | None:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    return [m["name"] for m in spec.get(key, [])]


def untraced(workload, seed: int, seconds: float):
    """End-to-end metrics: whole passes for about ``seconds``, medians over passes."""
    setup_s = probe_setup_seconds(workload.name, seed)
    passes = []
    started = time.perf_counter()
    while True:
        path = OUT / f"{workload.name}-seed{seed}-pass{len(passes) + 1}.csv"
        passes.append(run_pass(workload, seed, False, path, paced=True))
        if time.perf_counter() - started + passes[-1].wall_s > seconds:
            break
    problems = [p for result in passes for p in result.problems]
    if len({p.csv_sha for p in passes}) != 1 or len({tuple(p.acc.items()) for p in passes}) != 1:
        problems.append((None, "passes of one invocation wrote different CSVs"))
    metrics = {
        "wall_ref_s": (statistics.median(p.ref_s for p in passes), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    for s in workload.strategies:
        metrics[f"acc.{s}"] = (passes[0].acc[s], "fraction")
    print(f"{workload.name} seed {seed}: {len(passes)} untraced pass(es), "
          f"csv sha256 {passes[0].csv_sha[:16]}, set-up {setup_s:.3f} s")
    for k, p in enumerate(passes, start=1):
        times = ", ".join(f"{s} {t:.3f} s" for s, t in p.strategy_s.items())
        print(f"  pass {k}: wall {p.wall_s:.3f} s ({times}; build_world {p.build_s:.3f} s), "
              f"{p.ref_s:.3f} s at reference speed")
    return passes, metrics, problems


def traced(workload, seed: int):
    """Per-layer metrics from one traced pass, next to one untraced pass."""
    import tracing

    base = run_pass(workload, seed, False, OUT / f"{workload.name}-seed{seed}-untraced.csv")
    result = run_pass(workload, seed, True, OUT / f"{workload.name}-seed{seed}-traced.csv")
    problems = base.problems + result.problems
    if result.csv_sha != base.csv_sha:
        problems.append((None, "the traced pass wrote a different CSV from the untraced one"))
    tracer = result.tracer
    totals = tracer.layer_totals()
    check_s = tracer.check_seconds()
    wall = result.wall_s - check_s
    self_sum = sum(entry["self_s"] for entry in totals.values())
    overhead = wall - base.wall_s
    print(f"{workload.name} seed {seed}: untraced wall {base.wall_s:.3f} s, traced wall "
          f"{wall:.3f} s without {check_s:.3f} s of checks, tracing overhead {overhead:+.3f} s "
          f"({overhead / base.wall_s:+.1%}); self times add up to {self_sum:.3f} s "
          f"({self_sum / wall:.1%} of the traced wall)")
    if not MIN_SELF_COVERAGE <= self_sum / wall <= 1.0 + 1e-9:
        problems.append((None, f"self times cover {self_sum / wall:.1%} of the traced wall"))
    print(f"{'function':<38} {'calls':>8} {'s':>10} {'self_s':>10}")
    for name, entry in sorted(totals.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{name:<38} {entry['calls']:>8} {entry['s']:>10.4f} {entry['self_s']:>10.4f}")
    for name, value in sorted(tracer.counters.items()):
        print(f"{name:<38} {value:>8}")
    values = dict(tracer.counters)
    for function, entry in totals.items():
        values.update({f"{function}.{stat}": value for stat, value in entry.items()})
    for record in tracer.ops.values():
        key = f"orchestrator.run_strategy.{record.strategy}.s"
        values[key] = values.get(key, 0.0) + record.seconds
    metrics = {name: (values.get(name, 0), unit) for name, unit in tracing.per_layer_metrics()}
    dump = {
        "workload": workload.name, "seed": seed,
        "untraced_wall_s": base.wall_s, "traced_wall_s": wall, "check_s": check_s,
        "overhead_s": overhead, "self_s_sum": self_sum, "layers": totals,
        "counters": dict(tracer.counters),
        "spans": tracer.spans,  # [function, start, end, parent span index]
    }
    (OUT / f"{workload.name}-seed{seed}-spans.json").write_text(json.dumps(dump), encoding="utf-8")
    return [base, result], metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help="internal: time one set-up of the workload and print it")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "fedal" / "__init__.py").is_file():
        print(f"error: no fedal package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.probe_setup:
        start = time.perf_counter()
        import fedal  # noqa: F401
        import workloads
        workloads.make(args.workload).setup(args.seed)
        seconds = time.perf_counter() - start
        import pacer
        print(seconds * pacer.reference_speed())
        return 0

    import fedal
    if SRC not in Path(fedal.__file__).resolve().parents:
        print(f"error: fedal was imported from {fedal.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    try:
        workload = workloads.make(args.workload)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    if args.trace:
        passes, metrics, problems = traced(workload, args.seed)
        declared = _declared_names("per_layer")
    else:
        passes, metrics, problems = untraced(workload, args.seed, args.seconds)
        declared = _declared_names("end_to_end")
    if declared != list(metrics):
        problems.append((None, f"metrics {list(metrics)} do not match BENCHMARK.json {declared}"))
    threads = _thread_count()
    if threads is not None and threads > (os.cpu_count() or 1):
        problems.append((None, f"{threads} threads on {os.cpu_count()} cores"))

    for op, message in problems:
        print(f"problem ({'workload' if op is None else op}): {message}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>14.6f} {unit}")
    result = {
        "correct": not any(op is None for op, _ in problems),
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(len(p.failed_ops) for p in passes),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    line = json.dumps(result)
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        line + "\n", encoding="utf-8")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads: each one pairs random, s_al and f_al runs.

* ``trend`` calls ``fedal.benchmarks.run_trend_benchmark`` on one seed: the
  fixed entropy / full-batch setting, plus its independent-learning
  evaluation and full-budget reference.  Training does almost all the work.
* ``paper_pool`` and ``skew_minibatch`` run ``fedal.harness.run_experiment``
  on the YAML configs in ``configs/``, one run per strategy, the way
  ``fedal run`` does.

A workload's inputs come only from the seed it is given.  An operation is one
(strategy, seed) annotation run.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from fedal import benchmarks, config, harness
from fedal.harness import ResultRow, ResultTable

CONFIG_DIR = Path(__file__).resolve().parent / "configs"


@dataclass(frozen=True)
class CsvExpectation:
    """What one pass's CSV must hold, derived from the config and the runs."""

    ops: dict            # (strategy, seed) -> value of the CSV repeat column
    logs: dict           # (strategy, seed) -> round logs returned by run_strategy
    rounds: int
    quota_sum: int       # labels bought per round over all clients
    train_size: int
    classes: int
    initial_fraction: float
    initial_slack: float  # per-client rounding of the seed-label count
    summary: bool         # whether mean/std rows follow the per-run rows


def _expectation(cfg, ops, tracer, summary) -> CsvExpectation:
    logs = {op: tracer.ops[op].logs for op in ops if op in tracer.ops and tracer.ops[op].logs}
    return CsvExpectation(
        ops=ops, logs=logs, rounds=cfg.rounds,
        quota_sum=sum(b // cfg.rounds for b in cfg.budgets),
        train_size=cfg.dataset.train_size, classes=cfg.dataset.classes,
        initial_fraction=cfg.initial_label_fraction,
        initial_slack=0.5 * cfg.partition.client_count / cfg.dataset.train_size,
        summary=summary,
    )


class Trend:
    name = "trend"
    strategies = benchmarks.AL_STRATEGIES

    def ops(self, seed: int) -> dict:
        return {(strategy, seed): seed for strategy in self.strategies}

    def setup(self, seed: int) -> None:
        for strategy in (*self.strategies, "random"):  # the last one is the full-budget world
            harness.build_world(benchmarks.benchmark_config(strategy), seed)

    def execute(self, seed: int, csv_path: Path, tracer):
        report = benchmarks.run_trend_benchmark([seed])
        rows = []
        for strategy in self.strategies:
            record = tracer.ops[(strategy, seed)]
            scorer = harness.scorer_label(benchmarks.benchmark_config(strategy))
            rows += [ResultRow(strategy, scorer, log.round_index, seed,
                               sum(log.labeled_counts) / record.dataset.size, log.test_accuracy)
                     for log in record.logs]
        harness.emit_csv(ResultTable(tuple(rows), ()), csv_path)
        return report

    def expectation(self, seed: int, tracer) -> CsvExpectation:
        return _expectation(benchmarks.benchmark_config("random"), self.ops(seed), tracer,
                            summary=False)

    def check_result(self, seed: int, report, tracer) -> list:
        """The trend report agrees with the runs it summarizes."""
        problems = []
        classes = benchmarks.benchmark_config("random").dataset.classes
        for strategy in self.strategies:
            op = (strategy, seed)
            curve = [log.test_accuracy for log in tracer.ops[op].logs]
            if report.curves[strategy][seed] != curve:
                problems.append((op, "trend report curve differs from the logged accuracies"))
            window = sum(curve[k - 1] for k in report.window) / len(report.window)
            if abs(report.window_mean[strategy] - window) > 1e-12:
                problems.append((op, f"window mean {report.window_mean[strategy]} != {window}"))
            if not 1.0 / classes < report.il_mean[strategy] <= 1.0:
                problems.append((op, f"independent-learning accuracy {report.il_mean[strategy]}"))
        if not 1.0 / classes < report.full_budget_mean <= 1.0:
            problems.append((None, f"full-budget accuracy {report.full_budget_mean}"))
        return problems


class ConfigWorkload:
    """One ``run_experiment`` per (strategy, scorer) over a YAML config."""

    def __init__(self, name: str, strategies):
        self.name = name
        self.pairs = tuple(strategies)
        self.strategies = tuple(s for s, _ in self.pairs)
        self.text = (CONFIG_DIR / f"{name}.yaml").read_text(encoding="utf-8")

    def _config(self, strategy: str, scorer: str, seed: int):
        return config.parse_config(self.text, {"al": {"strategy": strategy, "scorer": scorer},
                                               "run": {"seed": seed}})

    def ops(self, seed: int) -> dict:
        repeats = self._config(*self.pairs[0], seed).repeats
        return {(strategy, seed + r): r for strategy in self.strategies
                for r in range(1, repeats + 1)}

    def setup(self, seed: int) -> None:
        for strategy, scorer in self.pairs:
            cfg = self._config(strategy, scorer, seed)
            for repeat in range(1, cfg.repeats + 1):
                harness.build_world(cfg, cfg.base_seed + repeat)

    def execute(self, seed: int, csv_path: Path, tracer):
        tables = [harness.run_experiment(self._config(strategy, scorer, seed))
                  for strategy, scorer in self.pairs]
        merged = ResultTable(tuple(r for t in tables for r in t.rows),
                             tuple(r for t in tables for r in t.summary))
        harness.emit_csv(merged, csv_path)
        return None

    def expectation(self, seed: int, tracer) -> CsvExpectation:
        return _expectation(self._config(*self.pairs[0], seed), self.ops(seed), tracer,
                            summary=True)

    def check_result(self, seed: int, report, tracer) -> list:
        return []


NAMES = ("trend", "paper_pool", "skew_minibatch")


def make(name: str):
    if name == "trend":
        return Trend()
    if name == "paper_pool":
        return ConfigWorkload(name, [("random", "random"), ("s_al", "entropy"), ("f_al", "coreset")])
    if name == "skew_minibatch":
        return ConfigWorkload(name, [("random", "random"), ("s_al", "mc_dropout"),
                                     ("f_al", "discrepancy")])
    raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")

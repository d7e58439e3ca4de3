"""Spans around calls into fedal's modules, recorded from outside the package.

Each traced function is wrapped at the module attribute its callers look up
at call time.  ``orchestrator.py`` does ``from .fed import fedavg``, so the
wrapper for ``fed.fedavg`` goes on ``fedal.orchestrator.fedavg``; ``fed.py``
calls ``nn.grad`` through the module, so that wrapper goes on ``fedal.nn``.
Nothing under ``src/`` is edited, and :meth:`Tracer.__exit__` puts every
original back.

A span is ``[metric, start, end, parent]`` kept in memory.  Self time is a
span's duration minus the durations of its direct children.  Correctness
checks run inside ``check`` spans, so their cost never lands in a traced
function's self time and can be taken off the traced wall time.
"""

from __future__ import annotations

import importlib
import inspect
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass

import checks
from fedal.orchestrator import STRATEGIES

CHECK = "check"


@dataclass(frozen=True)
class Target:
    metric: str                           # "<module>.<function>" of the defining module
    bindings: tuple[tuple[str, str], ...]  # (module, attribute) pairs that callers look up


def _t(metric, *bindings):
    return Target(metric, tuple(b.split(":") for b in bindings))


TARGETS = (
    _t("nn.grad", "fedal.nn:grad"),
    _t("nn.loss", "fedal.nn:loss"),
    _t("nn.forward", "fedal.nn:forward"),
    _t("nn.hidden_features", "fedal.nn:hidden_features"),
    _t("fed.fedavg", "fedal.orchestrator:fedavg"),
    _t("fed.independent_train", "fedal.orchestrator:independent_train"),
    _t("fed.weighted_average", "fedal.fed:weighted_average"),
    _t("fed.evaluate", "fedal.orchestrator:evaluate"),
    _t("strategies.score_entropy", "fedal.orchestrator:score_entropy"),
    _t("strategies.score_mc_dropout", "fedal.orchestrator:score_mc_dropout"),
    _t("strategies.score_discrepancy", "fedal.orchestrator:score_discrepancy"),
    _t("strategies.select_top_b", "fedal.orchestrator:select_top_b"),
    _t("strategies.coreset_greedy", "fedal.orchestrator:coreset_greedy"),
    _t("strategies.train_discrepancy_heads", "fedal.orchestrator:train_discrepancy_heads"),
    _t("data.gather", "fedal.fed:gather", "fedal.orchestrator:gather"),
    _t("data.annotate", "fedal.orchestrator:annotate"),
    _t("data.synth_blobs", "fedal.harness:synth_blobs"),
    _t("data.partition", "fedal.harness:partition"),
    _t("data.seed_initial_labels", "fedal.harness:seed_initial_labels"),
    _t("seeding.rng_for", "fedal.fed:rng_for", "fedal.orchestrator:rng_for", "fedal.harness:rng_for"),
    _t("orchestrator.run_strategy", "fedal.harness:run_strategy", "fedal.benchmarks:run_strategy"),
    _t("orchestrator.run_independent_eval", "fedal.benchmarks:run_independent_eval"),
    _t("orchestrator.run_full_budget", "fedal.benchmarks:run_full_budget"),
    _t("harness.build_world", "fedal.harness:build_world", "fedal.benchmarks:build_world"),
    _t("harness.run_experiment", "fedal.harness:run_experiment"),
    _t("harness.emit_csv", "fedal.harness:emit_csv"),
    _t("config.parse_config", "fedal.config:parse_config"),
    _t("benchmarks.run_trend_benchmark", "fedal.benchmarks:run_trend_benchmark"),
)

# The untraced run wraps only these: whole strategy runs and world building.
COARSE = ("orchestrator.run_strategy", "harness.build_world")

SELF_TIMED = ("fed.fedavg", "fed.independent_train", "orchestrator.run_strategy")

# Work counters recorded in the traced run, by the function that reports them.
COUNTERS = {
    "fed.fedavg": ("iters", "capped_runs"),
    "fed.independent_train": ("iters", "capped_runs"),
    "strategies.select_top_b": ("candidates",),
    "strategies.coreset_greedy": ("picks",),
    "data.gather": ("rows",),
    "data.annotate": ("labels",),
}


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for target in TARGETS:
        out.append((f"{target.metric}.calls", "count"))
        out.append((f"{target.metric}.s", "s"))
        if target.metric in SELF_TIMED:
            out.append((f"{target.metric}.self_s", "s"))
        if target.metric == "orchestrator.run_strategy":
            out += [(f"{target.metric}.{s}.s", "s") for s in STRATEGIES]
        for counter in COUNTERS.get(target.metric, ()):
            out.append((f"{target.metric}.{counter}", "count"))
    return out


@dataclass
class OpRecord:
    """One (strategy, seed) annotation run as seen at the run_strategy boundary."""

    strategy: str
    seed: int
    logs: list | None = None
    dataset: object = None
    pools: list | None = None
    seconds: float = 0.0


class Tracer:
    """Wraps the chosen targets on entry, restores them on exit.

    ``traced=False`` wraps only :data:`COARSE` and runs no checks: that is the
    untraced run that measures the end-to-end metrics.
    """

    def __init__(self, traced: bool):
        self.traced = traced
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.ops: dict[tuple[str, int], OpRecord] = {}
        self.current_op: tuple[str, int] | None = None
        self.problems: list[tuple[tuple[str, int] | None, str]] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def __enter__(self):
        for target in TARGETS:
            if not self.traced and target.metric not in COARSE:
                continue
            layer, name = target.metric.split(".")
            original = getattr(importlib.import_module(f"fedal.{layer}"), name)
            for module_name, attr in target.bindings:
                module = importlib.import_module(module_name)
                bound = getattr(module, attr)
                if bound is not original:
                    raise RuntimeError(f"{module_name}.{attr} is not fedal.{target.metric}; "
                                       "the benchmark's wrapping no longer matches the code")
                self._restore.append((module, attr, bound))
                setattr(module, attr, self._wrap(original, target.metric))
        return self

    def __exit__(self, *exc):
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)
        return False

    def _wrap(self, fn, metric):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        before = _BEFORE.get(metric) if self.traced else None
        after = _AFTER.get(metric) if self.traced else None
        signature = inspect.signature(fn)
        if metric == "orchestrator.run_strategy":
            return self._wrap_run_strategy(fn, signature)

        def wrapper(*args, **kwargs):
            if before is not None:
                self._check(before, signature, args, kwargs, None)
            index = len(spans)
            spans.append([metric, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = clock()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span = spans[index]
                span[1] = start
                span[2] = end
            if after is not None:
                self._check(after, signature, args, kwargs, return_value)
            return return_value

        return wrapper

    def _wrap_run_strategy(self, fn, signature):
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs).arguments
            key = (bound["strategy"], int(bound["seed"]))
            record = self.ops[key] = OpRecord(*key)
            outer, self.current_op = self.current_op, key
            index = len(self.spans)
            self.spans.append(["orchestrator.run_strategy", 0.0, 0.0,
                               self.stack[-1] if self.stack else -1])
            self.stack.append(index)
            start = clock()
            try:
                logs = fn(*args, **kwargs)
            except Exception:
                self.problems.append((key, "raised:\n" + traceback.format_exc()))
                raise
            finally:
                end = clock()
                self.stack.pop()
                self.spans[index][1:3] = [start, end]
                self.current_op = outer
            record.seconds = end - start
            record.logs, record.dataset, record.pools = logs, bound["dataset"], bound["pools"]
            return logs

        return wrapper

    # -- checks and counters -----------------------------------------------

    def _check(self, hook, signature, args, kwargs, return_value):
        index = len(self.spans)
        self.spans.append([CHECK, 0.0, 0.0, self.stack[-1] if self.stack else -1])
        start = time.perf_counter()
        try:
            message = hook(self, _Args(signature, args, kwargs), return_value)
        except Exception:
            message = "check raised:\n" + traceback.format_exc()
        self.spans[index][1:3] = [start, time.perf_counter()]
        if message:
            self.problems.append((self.current_op, message))

    # -- report --------------------------------------------------------------

    def check_seconds(self) -> float:
        return sum(end - start for name, start, end, _ in self.spans if name == CHECK)

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per metric: calls, inclusive seconds and self seconds (checks excluded)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {t.metric: {"calls": 0, "s": 0.0, "self_s": 0.0} for t in TARGETS}
        for (name, start, end, _), inner in zip(self.spans, child):
            if name == CHECK:
                continue
            entry = totals[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - inner
        return totals


class _Args:
    """Name -> value view of one call's arguments, without binding the call."""

    def __init__(self, signature, args, kwargs):
        self._signature, self._args, self._kwargs = signature, args, kwargs

    def __getitem__(self, name):
        if name in self._kwargs:
            return self._kwargs[name]
        parameter = self._signature.parameters[name]
        position = list(self._signature.parameters).index(name)
        if position < len(self._args):
            return self._args[position]
        return parameter.default


def _count_training(metric):
    def hook(tracer, a, report):
        cfg = a["cfg"]
        tracer.counters[f"{metric}.iters"] += report.global_iters_used
        if (report.global_iters_used == cfg.max_global_iters
                and report.loss_trace[-1] >= cfg.stop_loss_threshold):
            tracer.counters[f"{metric}.capped_runs"] += 1
    return hook


def _top_b(tracer, a, chosen):
    candidates = a["candidates"]
    tracer.counters["strategies.select_top_b.candidates"] += len(candidates)
    return checks.top_b(candidates, a["b"], chosen)


def _coreset(tracer, a, picks):
    tracer.counters["strategies.coreset_greedy.picks"] += len(picks)
    return checks.coreset(a["labeled_feats"], a["unlabeled_feats"], a["b"], a["indices"], picks)


def _gather(tracer, a, _):
    tracer.counters["data.gather.rows"] += len(a["indices"])


def _annotate_before(tracer, a, _):
    return checks.annotation(a["pools"], a["client"], a["selected"])


def _annotate_after(tracer, a, labels):
    tracer.counters["data.annotate.labels"] += len(labels)


def _score_range(high):
    def hook(tracer, a, scores):
        return checks.score_range(scores, high(a["model"]))
    return hook


_BEFORE = {"data.annotate": _annotate_before}
_AFTER = {
    "fed.fedavg": _count_training("fed.fedavg"),
    "fed.independent_train": _count_training("fed.independent_train"),
    "fed.weighted_average": lambda tracer, a, out: checks.weighted_average(
        a["param_vectors"], a["sample_counts"], out),
    "fed.evaluate": lambda tracer, a, acc: checks.evaluation(a["model"], a["test"], acc),
    "strategies.score_entropy": _score_range(checks.entropy_ceiling),
    "strategies.score_mc_dropout": _score_range(checks.entropy_ceiling),
    "strategies.score_discrepancy": _score_range(lambda model: 2.0),
    "strategies.select_top_b": _top_b,
    "strategies.coreset_greedy": _coreset,
    "data.gather": _gather,
    "data.annotate": _annotate_after,
}

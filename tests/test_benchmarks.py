"""Formatting and plumbing of the trend-benchmark report (no training here)."""

import importlib
from pathlib import Path

import numpy as np
import pytest

from fedal import benchmarks, harness, orchestrator
from fedal.benchmarks import (AL_STRATEGIES, TrendReport, benchmark_config, format_report, paired_difference,
                              run_trend_benchmark)
from fedal.config import parse_config
from fedal.errors import ConfigError


def _report(**extra):
    report = TrendReport(seeds=(1, 2), window=(2, 3, 4), full_budget_mean=0.95)
    report.curves = {s: {1: [0.5, 0.6, 0.7, 0.8, 0.9]} for s in AL_STRATEGIES}
    report.window_mean = {"random": 0.70, "s_al": 0.71, "f_al": 0.72}
    report.round1_mean = {"random": 0.50, "s_al": 0.51, "f_al": 0.52}
    for key, value in extra.items():
        setattr(report, key, value)
    return report


def test_margin_is_a_window_mean_difference():
    report = _report()
    assert np.isclose(report.margin("f_al", "random"), 0.02)
    assert np.isclose(report.margin("s_al", "random"), 0.01)


def test_format_report_with_all_sections():
    report = _report(il_mean={"random": 0.6, "s_al": 0.62, "f_al": 0.58})
    text = format_report(report)
    assert "f_al - s_al   (global): +0.0100" in text
    assert "s_al - f_al   (local IL): +0.0400" in text
    assert "0.9500" in text


def _curve(window_acc):
    """Five rounds whose window rounds 2-4 all read ``window_acc``; rounds 1 and 5 lie outside it."""
    return [0.1, window_acc, window_acc, window_acc, 0.9]


def test_paired_difference_matches_a_hand_computed_case():
    better = {3: _curve(0.50), 1: _curve(0.61), 2: _curve(0.84)}
    worse = {1: _curve(0.60), 2: _curve(0.80), 3: _curve(0.52)}
    paired = paired_difference(better, worse, (2, 3, 4))
    # Differences 0.01, 0.04 and -0.02 in the first curve's seed order (3, 1, 2): mean 0.01,
    # sample std sqrt((0.03^2 + 0^2 + 0.03^2) / 2) = 0.03, so se = 0.03 / sqrt(3).
    assert paired.diffs == pytest.approx((-0.02, 0.01, 0.04))
    assert np.mean(paired.diffs) == pytest.approx(0.01)
    assert paired.se == pytest.approx(0.03 / np.sqrt(3))
    assert paired.negative == 1
    assert np.isnan(paired_difference({1: _curve(0.5)}, {1: _curve(0.4)}, (2, 3, 4)).se)


def test_paired_difference_needs_the_same_seeds_on_both_sides():
    with pytest.raises(ConfigError, match=r"^seeds: "):
        paired_difference({1: _curve(0.5), 2: _curve(0.5)}, {1: _curve(0.5)}, (2, 3, 4))
    with pytest.raises(ConfigError, match=r"^seeds: "):
        paired_difference({}, {}, (2, 3, 4))


def test_format_report_gives_each_margin_its_paired_spread():
    report = _report(il_mean={"random": 0.6, "s_al": 0.62, "f_al": 0.58}, seeds=(1, 2, 3))
    report.curves = {"f_al": {1: _curve(0.61), 2: _curve(0.84), 3: _curve(0.50)},
                     "s_al": {1: _curve(0.60), 2: _curve(0.80), 3: _curve(0.52)},
                     "random": {1: _curve(0.60), 2: _curve(0.80), 3: _curve(0.52)}}
    report.window_mean = {"f_al": 0.65, "s_al": 0.64, "random": 0.64}
    text = format_report(report)
    assert "f_al - s_al   (global): +0.0100  se 0.0173  negative 1/3  per seed +0.0100 +0.0400 -0.0200" in text
    assert "s_al - random (global): +0.0000  se 0.0000  negative 0/3  per seed +0.0000 +0.0000 +0.0000" in text


@pytest.mark.parametrize("seeds", [(), [1.5], [1, 2, 1], [True], [-1], ["1"], [np.int64(2), 2],
                                   iter([1, 2, 1]), 5])
def test_bad_seed_lists_are_rejected_before_any_run(seeds, monkeypatch):
    monkeypatch.setattr(benchmarks, "build_world", pytest.fail)
    with pytest.raises(ConfigError, match=r"^seeds: "):
        run_trend_benchmark(seeds)


class _FirstWorld(Exception):
    pass


def test_seeds_from_an_iterator_are_read_once(monkeypatch):
    def first_world(cfg, seed):
        raise _FirstWorld(seed)

    monkeypatch.setattr(benchmarks, "build_world", first_world)
    with pytest.raises(_FirstWorld, match="^2$"):
        run_trend_benchmark(iter([2, 1]))


def test_benchmark_config_splits_the_budget_evenly():
    cfg = benchmark_config("f_al")
    assert cfg.strategy == "f_al"
    assert cfg.budgets == (150, 150, 150)
    assert sum(cfg.budgets) == 450
    assert cfg.fl == cfg.independent


def test_perfbench_tracer_bindings_resolve(monkeypatch):
    # perfbench/tracing.py wraps fedal functions at the module attributes
    # their callers bind; entering the tracer fails if a rename or a moved
    # import leaves one of those bindings pointing elsewhere.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracing = importlib.import_module("tracing")
    original = orchestrator.fedavg
    with tracing.Tracer(traced=True):
        assert orchestrator.fedavg is not original
    assert orchestrator.fedavg is original


_TRACED_WORLD = """
dataset: {{kind: blobs, train_size: 240, test_size: 60, classes: 3, spread: 0.6}}
partition: {{clients: 3}}
model: {{hidden: [6], activation: tanh, dropout: 0.2}}
al: {{strategy: {strategy}, scorer: {scorer}, budget: 12, rounds: 2, initial_label_fraction: 0.1}}
fl: {{lr: 0.3, minibatch_size: 8, max_global_iters: 5}}
independent: {{lr: 0.3, minibatch_size: 8, max_global_iters: 5}}
run: {{repeats: 1, seed: 2}}
"""


def test_perfbench_hooks_accept_every_traced_call(monkeypatch):
    # Under the traced benchmark every wrapped fedal call also runs a hook
    # that reads the call's arguments by name (select_top_b's candidates,
    # coreset_greedy's indices, ...) and checks its result.  One run of each
    # strategy and scorer kind on a tiny world exercises all of those hooks,
    # so a signature or argument change that breaks one fails here.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracing = importlib.import_module("tracing")
    runs = [("random", "random"), ("s_al", "entropy"), ("f_al", "coreset"),
            ("s_al", "mc_dropout"), ("f_al", "discrepancy"), ("full_budget", "entropy")]
    with tracing.Tracer(traced=True) as tracer:
        for strategy, scorer in runs:
            harness.run_experiment(parse_config(_TRACED_WORLD.format(strategy=strategy, scorer=scorer)))
    assert tracer.problems == []
    for counter in ("strategies.select_top_b.candidates", "strategies.coreset_greedy.picks",
                    "data.annotate.labels", "fed.fedavg.iters", "fed.independent_train.iters"):
        assert tracer.counters[counter] > 0, counter
    # A binding that the code routes around would read 0 calls instead of failing a check.
    for metric, totals in tracer.layer_totals().items():
        if metric.split(".")[0] in ("fed", "strategies", "data"):
            assert totals["calls"] > 0, metric

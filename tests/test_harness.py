"""Tests for the experiment harness: world building, repeats, the CSV format."""

import numpy as np
import pytest
import yaml

from fedal import harness
from fedal.config import parse_config
from fedal.errors import ConfigError
from fedal.harness import (
    CSV_HEADER,
    ResultRow,
    ResultTable,
    build_world,
    emit_csv,
    run_experiment,
    scorer_label,
)

BASE = """
dataset:
  kind: blobs
  train_size: 80
  test_size: 40
  classes: 3
  spread: 0.6
partition:
  clients: 2
model:
  hidden: [4]
al:
  strategy: {strategy}
  scorer: {scorer}
  budget: 8
  rounds: 2
  initial_label_fraction: 0.2
fl:
  lr: 0.3
  stop_loss_threshold: 0.05
  max_global_iters: 10
run:
  repeats: {repeats}
  seed: 11
"""


def _cfg(strategy="random", scorer="entropy", repeats=1, extra=""):
    text = BASE.format(strategy=strategy, scorer=scorer, repeats=repeats)
    if extra:  # each section of ``extra`` replaces the base section of that name
        text = yaml.safe_dump(yaml.safe_load(text) | yaml.safe_load(extra))
    return parse_config(text)


# -- world building -----------------------------------------------------------

def test_build_world_is_deterministic_per_seed():
    cfg = _cfg()
    train_a, test_a, pools_a, arch_a = build_world(cfg, 5)
    train_b, test_b, pools_b, arch_b = build_world(cfg, 5)
    train_c, _, _, _ = build_world(cfg, 6)
    assert np.array_equal(train_a.features, train_b.features)
    assert np.array_equal(test_a.features, test_b.features)
    assert [p.labeled for p in pools_a] == [p.labeled for p in pools_b]
    assert arch_a == arch_b
    assert not np.array_equal(train_a.features, train_c.features)


def test_build_world_ignores_strategy_fields():
    # paired strategy comparisons rely on all strategies seeing the same world
    worlds = [build_world(_cfg(strategy=s, scorer=sc), 3)
              for s, sc in (("random", "random"), ("s_al", "entropy"), ("f_al", "coreset"))]
    reference_train = worlds[0][0]
    reference_pools = worlds[0][2]
    for train, _, pools, _ in worlds[1:]:
        assert np.array_equal(train.features, reference_train.features)
        assert [p.labeled for p in pools] == [p.labeled for p in reference_pools]


def test_build_world_arch_follows_data_and_model_spec():
    cfg = _cfg(extra="model:\n  hidden: [7, 5]\n  activation: tanh\n")
    _, _, _, arch = build_world(cfg, 0)
    assert arch.layer_sizes == (2, 7, 5, 3)
    assert arch.activation == "tanh"


def test_run_experiment_fails_fast_on_oversized_budgets(monkeypatch):
    worlds = []

    def recording_build_world(cfg, run_seed):
        worlds.append(build_world(cfg, run_seed))
        return worlds[-1]

    monkeypatch.setattr(harness, "build_world", recording_build_world)
    cfg = _cfg(extra="al:\n  strategy: random\n  budget: 200\n  rounds: 2\n")
    with pytest.raises(ConfigError, match="exceeds"):
        run_experiment(cfg)
    (_, _, pools, _), = worlds
    assert all(p.history == {} for p in pools)  # raised before any pool was annotated


def test_run_experiment_produces_one_log_per_round():
    runs = []
    table = run_experiment(_cfg(), progress=lambda repeat, logs: runs.append(logs))
    (logs,) = runs
    assert len(logs) == len(table.rows) == 2
    for log, row in zip(logs, table.rows):  # the fraction's denominator is the 80-point train set
        assert row.labeled_fraction == sum(log.labeled_counts) / 80
    runs.clear()
    run_experiment(_cfg(strategy="full_budget"), progress=lambda repeat, logs: runs.append(logs))
    (logs_fb,) = runs
    assert len(logs_fb) == 1


# -- experiment assembly ----------------------------------------------------------

def test_run_experiment_emits_rows_per_round_and_repeat():
    table = run_experiment(_cfg(repeats=3))
    assert len(table.rows) == 3 * 2
    assert sorted({row.repeat for row in table.rows}) == [1, 2, 3]
    assert {row.strategy for row in table.rows} == {"random"}
    assert {row.scorer for row in table.rows} == {"random"}
    assert len(table.summary) == 2 * 2  # mean+std per round


def test_run_experiment_labeled_fraction_tracks_the_quota():
    cfg = _cfg(repeats=2)
    table = run_experiment(cfg)
    # shards of 40 rows, 20% initially labeled, 4 per round across clients
    for row in table.rows:
        expected = (16 + row.round_index * 4) / 80
        assert row.labeled_fraction == pytest.approx(expected, abs=1e-12)


def test_run_experiment_summary_is_the_arithmetic_mean_and_population_std():
    table = run_experiment(_cfg(repeats=3))
    for round_index in (1, 2):
        group = [r.test_accuracy for r in table.rows if r.round_index == round_index]
        mean = next(s for s in table.summary
                    if s.round_index == round_index and s.repeat == "mean")
        std = next(s for s in table.summary
                   if s.round_index == round_index and s.repeat == "std")
        assert mean.test_accuracy == pytest.approx(float(np.mean(group)), abs=1e-15)
        assert std.test_accuracy == pytest.approx(float(np.std(group)), abs=1e-15)


def test_run_experiment_is_reproducible():
    a = run_experiment(_cfg(repeats=2))
    b = run_experiment(_cfg(repeats=2))
    assert a == b


def test_scorer_label_normalizes_scorerless_strategies():
    assert scorer_label(_cfg(strategy="random", scorer="coreset")) == "random"
    assert scorer_label(_cfg(strategy="full_budget")) == "none"
    assert scorer_label(_cfg(strategy="s_al", scorer="coreset")) == "coreset"


# -- CSV contract -------------------------------------------------------------------

def test_csv_header_is_the_documented_contract():
    assert CSV_HEADER == "strategy,scorer,round,repeat,labeled_fraction,test_accuracy"


def test_emit_csv_is_byte_stable_with_one_lf_line_per_row(tmp_path):
    table = run_experiment(_cfg(repeats=2))
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    emit_csv(table, first)
    emit_csv(table, second)
    assert first.read_bytes() == second.read_bytes()
    assert b"\r" not in first.read_bytes()
    assert len(first.read_text().splitlines()) == 1 + len(table.rows) + len(table.summary)


def test_emit_csv_writes_sorted_rows_regardless_of_input_order(tmp_path):
    rows = (
        ResultRow("s_al", "entropy", 2, 2, 0.5, 0.9),
        ResultRow("s_al", "entropy", 1, 1, 0.25, 0.8),
        ResultRow("random", "random", 1, 1, 0.25, 0.7),
        ResultRow("s_al", "entropy", 1, 2, 0.25, 0.85),
    )
    summary = (ResultRow("s_al", "entropy", 1, "std", 0.25, 0.025),
               ResultRow("s_al", "entropy", 1, "mean", 0.25, 0.825))
    path = tmp_path / "sorted.csv"
    emit_csv(ResultTable(rows=rows, summary=summary), path)
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1].startswith("random,random,1,1,")
    assert lines[2].startswith("s_al,entropy,1,1,")
    assert lines[3].startswith("s_al,entropy,1,2,")
    assert lines[4].startswith("s_al,entropy,1,mean,")
    assert lines[5].startswith("s_al,entropy,1,std,")
    assert lines[6].startswith("s_al,entropy,2,2,")


def test_emit_csv_empty_table_is_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv(ResultTable(rows=(), summary=()), path)
    assert path.read_text() == CSV_HEADER + "\n"


def test_csv_values_use_six_decimals(tmp_path):
    path = tmp_path / "f.csv"
    emit_csv(ResultTable(rows=(ResultRow("random", "random", 1, 1, 1 / 3, 2 / 3),), summary=()), path)
    assert path.read_text().splitlines()[1] == "random,random,1,1,0.333333,0.666667"

"""Whole-pipeline properties of ``run_experiment`` over small random configs.

Each example builds a tiny blob config (1-5 clients, iid or label-skewed
shards, hidden layers or none, one to three rounds) and per-client budgets
drawn against the actual pool sizes: some zero, some that exhaust the pool.
Every (strategy, scorer) pair the CLI accepts gets its own examples.
"""

import tempfile
from pathlib import Path
from unittest import mock

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from fedal import harness
from fedal.config import parse_config
from fedal.harness import build_world, emit_csv, run_experiment
from fedal.strategies import SCORER_KINDS

MODEL_SCORERS = tuple(kind for kind in SCORER_KINDS if kind != "random")
PAIRS = [("random", "random"), ("full_budget", "entropy")] + [
    (strategy, scorer) for strategy in ("s_al", "f_al") for scorer in MODEL_SCORERS
]
TRAIN = {"lr": 0.5, "stop_loss_threshold": 0.05, "max_global_iters": 4}


@st.composite
def worlds(draw, strategy, scorer):
    clients = draw(st.integers(1, 5))
    classes = draw(st.integers(2, 3))
    skew = draw(st.booleans())
    partition = {"clients": clients, "mode": "label_skew" if skew else "iid_disjoint"}
    if skew:
        partition["classes_per_client"] = -(-classes // clients)  # enough owners for every class
    return {
        "dataset": {"kind": "blobs", "train_size": clients * draw(st.integers(8, 14)),
                    "test_size": 12, "classes": classes, "spread": 0.6},
        "partition": partition,
        "model": {"hidden": draw(st.sampled_from([[], [4]])),
                  "dropout": draw(st.sampled_from([0.0, 0.3]))},
        "al": {"strategy": strategy, "scorer": scorer, "budgets": [0] * clients,
               "rounds": draw(st.integers(1, 3)),
               "initial_label_fraction": draw(st.sampled_from([0.25, 0.5]))},
        "fl": TRAIN,
        "independent": TRAIN,
        "run": {"repeats": draw(st.integers(1, 2)), "seed": draw(st.integers(0, 50))},
    }


def _budgets(data, cfg) -> list[int]:
    """Per-client budgets from zero up to the whole pool, as multiples of the round count."""
    _, _, pools, _ = build_world(cfg, cfg.base_seed + 1)
    return [cfg.rounds * data.draw(st.sampled_from([0, len(p.unlabeled) // cfg.rounds])
                                   | st.integers(0, len(p.unlabeled) // cfg.rounds))
            for p in pools]


@pytest.mark.parametrize("strategy,scorer", PAIRS)
@settings(max_examples=20)
@given(data=st.data())
def test_pipeline_keeps_pools_quotas_and_bytes(strategy, scorer, data):
    text = yaml.safe_dump(data.draw(worlds(strategy, scorer)))
    budgets = _budgets(data, parse_config(text))
    cfg = parse_config(text, {"al": {"budgets": budgets}})

    runs = []
    real_run_strategy = harness.run_strategy

    def recording_run_strategy(*args):
        logs = real_run_strategy(*args)
        runs.append((args[3], logs))  # (pools, round logs)
        return logs

    with tempfile.TemporaryDirectory() as tmp:
        first, second = (Path(tmp) / name for name in ("a.csv", "b.csv"))
        with mock.patch.object(harness, "run_strategy", recording_run_strategy):
            emit_csv(run_experiment(cfg), first)
        emit_csv(run_experiment(cfg), second)
        assert first.read_bytes() == second.read_bytes()

    assert len(runs) == cfg.repeats
    quotas = [b // cfg.rounds for b in budgets]
    for pools, logs in runs:
        for pool in pools:
            assert not set(pool.labeled) & set(pool.unlabeled)
            assert sorted(pool.labeled + pool.unlabeled) == list(pool.shard)
        counts = [len(p.labeled) - sum(len(v) for v in p.history.values()) for p in pools]
        if strategy == "full_budget":
            assert [log.labeled_counts for log in logs] == [tuple(len(p.shard) for p in pools)]
            continue
        assert len(logs) == cfg.rounds
        for log in logs:
            counts = [c + q for c, q in zip(counts, quotas)]
            assert list(log.labeled_counts) == counts

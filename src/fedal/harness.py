"""Repeat-aware experiment driver and the CSV result table.

A run with ``repeats=R`` executes the configured strategy for seeds
``base_seed + 1 .. base_seed + R``.  Dataset synthesis, partitioning and the
initial labels depend only on the per-repeat seed, never on the strategy, so
different strategies at the same base seed see identical starting pools
(paired comparisons).  Results serialize to a fixed CSV schema:

    strategy,scorer,round,repeat,labeled_fraction,test_accuracy

with floats at six decimals, rows sorted by (strategy, scorer, round,
repeat), and per-round mean/std summary rows (``repeat`` = ``mean``/``std``)
after the per-repeat rows.  Identical configs produce byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig, al_config
from .data import Dataset, load_external, partition, seed_initial_labels, synth_blobs
from .errors import ConfigError
from .nn import MlpArchitecture
from .orchestrator import RoundLog, run_strategy
from .seeding import rng_for

CSV_HEADER = "strategy,scorer,round,repeat,labeled_fraction,test_accuracy"


@dataclass(frozen=True)
class ResultRow:
    """One CSV row: a repeat's round (``repeat`` an int) or a summary (``"mean"``/``"std"``)."""

    strategy: str
    scorer: str
    round_index: int
    repeat: int | str
    labeled_fraction: float
    test_accuracy: float


@dataclass(frozen=True)
class ResultTable:
    rows: tuple[ResultRow, ...]      # per-repeat rows
    summary: tuple[ResultRow, ...]   # mean/std rows


def scorer_label(cfg: ExperimentConfig) -> str:
    """Scorer name recorded in results; normalized for scorer-less strategies."""
    if cfg.strategy == "random":
        return "random"
    if cfg.strategy == "full_budget":
        return "none"
    return cfg.scorer.kind


def build_world(cfg: ExperimentConfig, run_seed: int):
    """(train, test, pools, arch) for one repeat; depends only on (cfg data keys, seed)."""
    ds = cfg.dataset
    if ds.kind == "blobs":
        try:  # the arguments passed DatasetSpec's checks, but a drawn point may still overflow
            train = synth_blobs(ds.train_size, ds.classes, ds.dim, ds.spread,
                                rng_for(run_seed, "data-train"),
                                layout=ds.layout, elongation=ds.elongation)
            test = synth_blobs(ds.test_size, ds.classes, ds.dim, ds.spread,
                               rng_for(run_seed, "data-test"),
                               layout=ds.layout, elongation=ds.elongation)
        except ConfigError as exc:
            raise ConfigError(f"dataset.{exc}") from None
    else:
        train = load_external(ds.path, ds.kind, labels_path=ds.labels_path)
        test = load_external(ds.test_path, ds.kind, labels_path=ds.test_labels_path)
        if train.dim != test.dim:
            raise ConfigError(f"train dim {train.dim} != test dim {test.dim}")
        if train.class_count != test.class_count:
            raise ConfigError(f"train classes {train.class_count} != test classes {test.class_count}")
    pools = partition(train, cfg.partition, rng_for(run_seed, "partition"))
    seed_initial_labels(pools, cfg.initial_label_fraction, rng_for(run_seed, "init-labels"))
    arch = MlpArchitecture(
        layer_sizes=(train.dim, *cfg.model.hidden, train.class_count),
        activation=cfg.model.activation,
        dropout_rate=cfg.model.dropout,
    )
    return train, test, pools, arch


def run_once(cfg: ExperimentConfig, run_seed: int) -> tuple[list[RoundLog], Dataset]:
    """One full strategy run at one seed; returns the round logs and train set."""
    train, test, pools, arch = build_world(cfg, run_seed)
    logs = run_strategy(cfg.strategy, train, test, pools, arch, al_config(cfg), cfg.fl, run_seed)
    return logs, train


def run_experiment(cfg: ExperimentConfig, progress=None) -> ResultTable:
    """Run all repeats and assemble the result table (per-run rows + summaries)."""
    strategy = cfg.strategy
    scorer = scorer_label(cfg)
    rows: list[ResultRow] = []
    for repeat in range(1, cfg.repeats + 1):
        run_seed = cfg.base_seed + repeat
        logs, train = run_once(cfg, run_seed)
        for log in logs:
            rows.append(ResultRow(
                strategy=strategy,
                scorer=scorer,
                round_index=log.round_index,
                repeat=repeat,
                labeled_fraction=sum(log.labeled_counts) / train.size,
                test_accuracy=log.test_accuracy,
            ))
        if progress is not None:
            progress(repeat, logs)

    summaries: list[ResultRow] = []
    by_round: dict[int, list[ResultRow]] = {}
    for row in rows:
        by_round.setdefault(row.round_index, []).append(row)
    for round_index in sorted(by_round):
        group = by_round[round_index]
        acc = np.array([r.test_accuracy for r in group])
        frac = np.array([r.labeled_fraction for r in group])
        for stat, value in (("mean", float(acc.mean())), ("std", float(acc.std()))):
            summaries.append(ResultRow(
                strategy=strategy,
                scorer=scorer,
                round_index=round_index,
                repeat=stat,
                labeled_fraction=float(frac.mean()),
                test_accuracy=value,
            ))
    return ResultTable(rows=tuple(rows), summary=tuple(summaries))


def _sort_key(row: ResultRow):
    # Per-repeat rows (int repeat) before the mean/std rows of the same round.
    return (row.strategy, row.scorer, row.round_index, isinstance(row.repeat, str), row.repeat)


def emit_csv(table: ResultTable, path) -> None:
    """Write the table with the fixed header, 6-decimal floats, sorted rows."""
    records = sorted((*table.rows, *table.summary), key=_sort_key)
    lines = [CSV_HEADER]
    for rec in records:
        lines.append(
            f"{rec.strategy},{rec.scorer},{rec.round_index},{rec.repeat},"
            f"{rec.labeled_fraction:.6f},{rec.test_accuracy:.6f}"
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")

"""Desk-scale benchmark comparing the annotation strategies under paired seeds.

The fixed setting: 8 Gaussian classes in 2-D (3000 train / 1000 test),
3 clients with equal iid shards, 10% initial labels, 5 annotation rounds of
30 picks per client, a 2-32-8 relu MLP, entropy scoring for the two
model-based strategies.  Every strategy at a given seed sees the identical
dataset, partition and initial labels, so differences come from the
selections alone.

The blob layout is ``line`` with a strong elongation: thin parallel bands
whose shared boundaries are long relative to the number of labels.  That
keeps the learning curve unsaturated at 10-25% labels, which is what gives
annotation choices something to improve; with isotropic round blobs the
task saturates near 300 labels and every strategy ties.  Training gets a
high rate and a 600-iteration cap, because the entropy map of an
undertrained scorer is mostly noise and its selections then lose to
uniform coverage.  Training does not converge, though: every run stops at
that cap before its loss reaches the 0.03 threshold (a traced seed counts
17 of 17 FedAvg runs and 24 of 24 independent runs stopped by the cap).

Reported directions (means over seeds, accuracy window = rounds 2-4):
the federated strategy should not lose to the separate one, which should
not lose to random, on global test accuracy; the opposite ordering tends
to hold for per-client independent training on the selected labels.  The
margins are fractions of a percentage point at this scale -- what is
checked is the sign, not the size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import DatasetSpec, ExperimentConfig, ModelSpec, al_config
from .data import PartitionSpec
from .errors import ConfigError, is_count
from .fed import FedConfig
from .harness import build_world
from .nn import LrSchedule
from .orchestrator import STRATEGIES as AL_STRATEGIES
from .orchestrator import run_full_budget, run_independent_eval, run_strategy
from .strategies import ScorerSpec


# The accuracy orderings the benchmark reports, each as (better, worse).
PAIRED_ORDERINGS = (("f_al", "s_al"), ("s_al", "random"), ("f_al", "random"))


def benchmark_config(strategy: str) -> ExperimentConfig:
    """The fixed benchmark setting, parameterized only by strategy."""
    train = FedConfig(schedule=LrSchedule(1.0, 0.997), minibatch_size=None,
                      stop_loss_threshold=0.03, max_global_iters=600)
    return ExperimentConfig(
        dataset=DatasetSpec(kind="blobs", train_size=3000, test_size=1000,
                            classes=8, dim=2, spread=0.2,
                            layout="line", elongation=16.0),
        partition=PartitionSpec(client_count=3, mode="iid_disjoint"),
        model=ModelSpec(hidden=(32,), activation="relu", dropout=0.0),
        strategy=strategy,
        scorer=ScorerSpec("entropy"),
        rounds=5,
        budgets=(150,) * 3,
        initial_label_fraction=0.1,
        fl=train,
        independent=train,
        repeats=1,
        base_seed=0,
        out_path="benchmark.csv",
    )


@dataclass
class TrendReport:
    """Benchmark outcome: per-strategy accuracy curves and window means."""

    seeds: tuple[int, ...]
    window: tuple[int, ...]
    full_budget_mean: float
    # strategy -> seed -> per-round accuracies
    curves: dict[str, dict[int, list[float]]] = field(default_factory=dict)
    window_mean: dict[str, float] = field(default_factory=dict)
    round1_mean: dict[str, float] = field(default_factory=dict)
    # strategy -> mean per-client independent-training accuracy (final pools)
    il_mean: dict[str, float] = field(default_factory=dict)

    def margin(self, better: str, worse: str) -> float:
        return self.window_mean[better] - self.window_mean[worse]


@dataclass(frozen=True)
class PairedDifference:
    """Per-seed differences of window accuracy between two strategies, and their summary."""

    diffs: tuple[float, ...]  # one per seed, in the first curve's seed order
    se: float  # paired standard error: sample std / sqrt(seed count); NaN for one seed
    negative: int  # seeds with a difference below zero


def _window_mean(accs, window) -> float:
    return float(np.mean([accs[k - 1] for k in window]))


def paired_difference(better: dict[int, list[float]], worse: dict[int, list[float]], window) -> PairedDifference:
    """``better - worse`` in mean accuracy over the 1-based rounds in ``window``, seed by seed.

    Each argument maps a seed to that strategy's per-round accuracies; both
    must hold the same seeds, so that every difference is paired.
    """
    if not better or set(better) != set(worse):
        raise ConfigError(f"seeds: both curves need the same seeds, got {sorted(better)} and {sorted(worse)}")
    diffs = np.array([_window_mean(better[s], window) - _window_mean(worse[s], window) for s in better])
    se = float(diffs.std(ddof=1) / np.sqrt(diffs.size)) if diffs.size > 1 else float("nan")
    return PairedDifference(tuple(diffs.tolist()), se, int((diffs < 0).sum()))


def run_trend_benchmark(seeds) -> TrendReport:
    """Run all strategies over paired ``seeds``, distinct ints >= 0, and aggregate the trends."""
    try:
        seeds = tuple(seeds)
    except TypeError:
        raise ConfigError(f"seeds: need one or more distinct ints >= 0, got {seeds!r}") from None
    if not (len(seeds) > 0 and all(is_count(s, minimum=0) for s in seeds) and len(set(seeds)) == len(seeds)):
        raise ConfigError(f"seeds: need one or more distinct ints >= 0, got {list(seeds)}")
    seeds = tuple(int(s) for s in seeds)
    curves: dict[str, dict[int, list[float]]] = {s: {} for s in AL_STRATEGIES}
    il_scores: dict[str, list[float]] = {s: [] for s in AL_STRATEGIES}
    full_scores: list[float] = []

    for seed in seeds:
        for strategy in AL_STRATEGIES:
            cfg = benchmark_config(strategy)
            train, test, pools, arch = build_world(cfg, seed)
            logs = run_strategy(strategy, train, test, pools, arch, al_config(cfg), cfg.fl, seed)
            curves[strategy][seed] = [log.test_accuracy for log in logs]
            il_scores[strategy].append(run_independent_eval(train, test, pools, arch, cfg.independent, seed))
        cfg = benchmark_config("random")
        train, test, pools, arch = build_world(cfg, seed)
        log = run_full_budget(train, test, pools, arch, cfg.fl, seed)
        full_scores.append(log.test_accuracy)

    report = TrendReport(seeds=seeds, window=(2, 3, 4),
                         full_budget_mean=float(np.mean(full_scores)), curves=curves)
    for strategy in AL_STRATEGIES:
        per_seed = report.curves[strategy]
        window_vals = [_window_mean(accs, report.window) for accs in per_seed.values()]
        report.window_mean[strategy] = float(np.mean(window_vals))
        report.round1_mean[strategy] = float(np.mean([accs[0] for accs in per_seed.values()]))
        report.il_mean[strategy] = float(np.mean(il_scores[strategy]))
    return report


def format_report(report: TrendReport) -> str:
    lines = [
        f"seeds: {list(report.seeds)}   accuracy window: rounds {list(report.window)}",
        "",
        f"{'strategy':<10} {'round-1 acc':>12} {'window acc':>12} {'IL acc':>10}",
    ]
    for strategy in AL_STRATEGIES:
        lines.append(
            f"{strategy:<10} {report.round1_mean[strategy]:>12.4f} "
            f"{report.window_mean[strategy]:>12.4f} {report.il_mean[strategy]:>10.4f}"
        )
    lines.append(f"{'full':<10} {'-':>12} {report.full_budget_mean:>12.4f} {'-':>10}")
    lines.append("")
    for better, worse in PAIRED_ORDERINGS:
        paired = paired_difference(report.curves[better], report.curves[worse], report.window)
        lines.append(f"{better + ' - ' + worse:<13} (global): {report.margin(better, worse):+.4f}"
                     f"  se {paired.se:.4f}  negative {paired.negative}/{len(paired.diffs)}  per seed "
                     + " ".join(f"{d:+.4f}" for d in paired.diffs))
    lines.append(f"s_al - f_al   (local IL): {report.il_mean['s_al'] - report.il_mean['f_al']:+.4f}")
    return "\n".join(lines)

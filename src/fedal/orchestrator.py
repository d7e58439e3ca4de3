"""Round-based annotation over federated clients: one loop for every strategy.

Each round goes the same way: get each client's scoring model, let every
client score and annotate its own quota, then retrain the main task model
from scratch (same seeded init every round) on the post-annotation pools
and evaluate it on the shared test set; that accuracy is what the round's
log records.  The strategies differ only in where the scoring model comes
from:

* ``random``  - none; every client annotates a uniform random quota.
* ``s_al``    - every client trains its own auxiliary scoring model on its
  own labeled pool (independent training).
* ``f_al``    - one scoring model trained jointly with FedAvg and shared
  by every client.  For the model-based scorers other than the two-head
  one this is the task model itself: the model logged in round k is
  exactly the scoring model of round k+1 (both are the FedAvg model of the
  current labeled sets), so each round trains a single model.

Clients only ever score and annotate their own pools; nothing in the
pipeline materializes a cross-client union of labeled data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import nn
from .data import ClientPools, Dataset, annotate, gather
from .errors import BudgetError, ConfigError, InvalidStateError, is_count
from .fed import FedConfig, FedRunReport, evaluate, fedavg, independent_train
from .nn import MlpArchitecture, Model
from .seeding import rng_for
from .strategies import (
    ScorerSpec,
    coreset_greedy,
    score_discrepancy,
    score_entropy,
    score_mc_dropout,
    select_top_b,
    train_discrepancy_heads,
)

STRATEGIES = ("random", "s_al", "f_al")
HARNESS_STRATEGIES = (*STRATEGIES, "full_budget")


@dataclass(frozen=True)
class ALConfig:
    """Annotation-loop settings: rounds, per-client budgets, scorer, aux training.

    Every error names the offending field (``rounds``, ``budgets[i]``).
    """

    rounds: int
    budgets: tuple[int, ...]
    scorer: ScorerSpec
    aux_train: FedConfig

    def __post_init__(self):
        if not is_count(self.rounds):
            raise ConfigError(f"rounds: must be an int >= 1, got {self.rounds}")
        budgets = tuple(self.budgets)
        for client, budget in enumerate(budgets):
            if not is_count(budget, minimum=0):
                rule = "be >= 0" if is_count(budget, minimum=-math.inf) else "be an int"
                raise ConfigError(f"budgets[{client}]: must {rule}, got {budget!r}")
            if budget % self.rounds != 0:
                raise ConfigError(
                    f"budgets[{client}]: budget {budget} is not divisible by rounds={self.rounds}; "
                    "the per-round quota budget/rounds must be an integer"
                )
        object.__setattr__(self, "budgets", tuple(int(b) for b in budgets))

    @property
    def quotas(self) -> tuple[int, ...]:
        return tuple(b // self.rounds for b in self.budgets)


@dataclass(frozen=True)
class RoundLog:
    """What happened in one annotation round."""

    round_index: int
    labeled_counts: tuple[int, ...]
    test_accuracy: float


def check_scorer(strategy: str, scorer: ScorerSpec) -> None:
    """The strategy is known; s_al and f_al pick by a model's scores, so not the random scorer."""
    if strategy not in HARNESS_STRATEGIES:
        raise ConfigError(f"strategy: unknown strategy {strategy!r}; expected one of {HARNESS_STRATEGIES}")
    if strategy in ("s_al", "f_al") and scorer.kind == "random":
        raise ConfigError(f"scorer: strategy {strategy!r} needs a model-based scorer, not 'random'")


def _validate_run(pools: list[ClientPools], al_cfg: ALConfig) -> None:
    if len(al_cfg.budgets) != len(pools):
        raise ConfigError(f"{len(al_cfg.budgets)} budgets for {len(pools)} clients")
    for pool, budget in zip(pools, al_cfg.budgets):
        if budget > pool.unlabeled_count:
            raise BudgetError(
                f"client {pool.client_id}: budget {budget} exceeds unlabeled pool size {pool.unlabeled_count}"
            )


def _init(arch: MlpArchitecture, seed, tag: str) -> Model:
    """The seeded starting model of every training run tagged ``tag`` ("task", "twohead")."""
    return Model(arch, nn.init_params(arch, rng_for(seed, "init", tag)))


def _train_task_model(dataset: Dataset, pools: list[ClientPools], arch: MlpArchitecture,
                      fed_cfg: FedConfig, seed) -> FedRunReport:
    return fedavg(dataset, pools, _init(arch, seed, "task"), fed_cfg, (seed, "train-task"))


def _score_pool(pool: ClientPools, dataset: Dataset, scorer: ScorerSpec, model: Model | None,
                quota: int, rng) -> list[int]:
    """Select ``quota`` indices from one client's unlabeled pool."""
    if quota == 0:
        return []
    idx = pool.unlabeled_rows
    feats = dataset.features[idx]
    if scorer.kind == "coreset":
        if not pool.labeled_count:
            raise InvalidStateError(f"client {pool.client_id}: core-set needs labeled points")
        labeled_feats, _ = gather(dataset, pool.labeled_rows)
        labeled_emb = nn.hidden_features(model, labeled_feats)
        pool_emb = nn.hidden_features(model, feats)
        return sorted(coreset_greedy(labeled_emb, pool_emb, quota, indices=idx))
    if scorer.kind == "random":
        scores = rng.random(len(idx))
    elif scorer.kind == "entropy":
        scores = score_entropy(model, feats)
    elif scorer.kind == "mc_dropout":
        scores = score_mc_dropout(model, feats, scorer.mc_passes, rng)
    else:
        scores = score_discrepancy(model, feats)
    return select_top_b(np.rec.fromarrays([idx, scores], names="index,score"), quota)


def _scoring_models(strategy: str, dataset: Dataset, pools: list[ClientPools],
                    arch: MlpArchitecture, al_cfg: ALConfig, seed: int,
                    task_model: Model | None) -> dict[int, Model]:
    """This round's scoring model for each client with a quota; auxiliary models start fresh."""
    clients = [client for client, quota in enumerate(al_cfg.quotas) if quota]
    scorer = al_cfg.scorer
    if strategy == "random" or not clients:
        return {}
    if strategy == "f_al" and not scorer.needs_two_heads:
        return dict.fromkeys(clients, task_model)
    if scorer.needs_two_heads:
        # Read at call time, so a wrapper set on this module's binding sees every call.
        init, local_fn = _init(replace(arch, head_count=2), seed, "twohead"), train_discrepancy_heads
    else:
        init, local_fn = _init(arch, seed, "task"), None
    if strategy == "f_al":
        report = fedavg(dataset, pools, init, al_cfg.aux_train, (seed, "train-twohead"),
                        local_fn=local_fn)
        return dict.fromkeys(clients, report.final_model)
    stream = (seed, "independent-twohead") if local_fn else (seed, "train-aux", "independent")
    return {client: independent_train(dataset, pools, client, init, al_cfg.aux_train, stream,
                                      local_fn=local_fn).final_model
            for client in clients}


def run_full_budget(dataset: Dataset, test: Dataset, pools: list[ClientPools],
                    arch: MlpArchitecture, fed_cfg: FedConfig, seed: int) -> RoundLog:
    """Upper-bound reference: one random round that labels every pool entirely."""
    al_cfg = ALConfig(rounds=1, budgets=tuple(p.unlabeled_count for p in pools),
                      scorer=ScorerSpec("random"), aux_train=fed_cfg)
    return run_strategy("random", dataset, test, pools, arch, al_cfg, fed_cfg, seed)[0]


def run_strategy(strategy: str, dataset: Dataset, test: Dataset, pools: list[ClientPools],
                 arch: MlpArchitecture, al_cfg: ALConfig, fed_cfg: FedConfig, seed: int) -> list[RoundLog]:
    """One full annotation run of ``strategy``; ``full_budget`` is a single round."""
    if strategy == "full_budget":
        return [run_full_budget(dataset, test, pools, arch, fed_cfg, seed)]
    check_scorer(strategy, al_cfg.scorer)
    if strategy == "random":
        al_cfg = replace(al_cfg, scorer=ScorerSpec("random"))
    _validate_run(pools, al_cfg)
    quotas = al_cfg.quotas
    task_model = None
    if strategy == "f_al" and not al_cfg.scorer.needs_two_heads:
        # Round 1 scores with the task model of the initial labels.
        task_model = _train_task_model(dataset, pools, arch, fed_cfg, seed).final_model
    logs: list[RoundLog] = []
    for round_index in range(1, al_cfg.rounds + 1):
        models = _scoring_models(strategy, dataset, pools, arch, al_cfg, seed, task_model)
        selections = []
        for client, pool in enumerate(pools):
            rng = rng_for(seed, "select", round_index, client)
            selections.append(_score_pool(pool, dataset, al_cfg.scorer, models.get(client),
                                          quotas[client], rng))
        for client, chosen in enumerate(selections):
            annotate(pools, client, chosen, round_index, dataset)
        task_model = _train_task_model(dataset, pools, arch, fed_cfg, seed).final_model
        logs.append(RoundLog(round_index, tuple(p.labeled_count for p in pools),
                             evaluate(task_model, test)))
    return logs


def run_independent_eval(dataset: Dataset, test: Dataset, pools: list[ClientPools],
                         arch: MlpArchitecture, aux_cfg: FedConfig, seed: int) -> float:
    """Mean test accuracy of per-client independent training on the shared test set."""
    accuracies: list[float] = []
    init = _init(arch, seed, "task")
    for client in range(len(pools)):
        report = independent_train(dataset, pools, client, init, aux_cfg,
                                   (seed, "il-eval", "independent"))
        accuracies.append(evaluate(report.final_model, test))
    return float(np.mean(accuracies))

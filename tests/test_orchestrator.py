"""Tests for the annotation-round orchestration layer."""

import numpy as np
import pytest

from fedal import nn as nn_module
from fedal import orchestrator
from fedal.data import ClientPools, Dataset
from fedal.errors import BudgetError, ConfigError, InvalidStateError
from fedal.fed import FedConfig, evaluate, fedavg, independent_train
from fedal.nn import LrSchedule, MlpArchitecture, Model
from fedal.orchestrator import (
    ALConfig,
    _init,
    _score_pool,
    _train_task_model,
    run_full_budget,
    run_independent_eval,
    run_strategy,
)
from fedal.strategies import ScorerSpec

QUICK_FL = FedConfig(schedule=LrSchedule(0.4, 0.99), stop_loss_threshold=0.05,
                     max_global_iters=25)


def _al(rounds, budgets, scorer="entropy", aux=QUICK_FL):
    return ALConfig(rounds=rounds, budgets=budgets, scorer=ScorerSpec(scorer), aux_train=aux)


# -- configuration -------------------------------------------------------------

def test_al_config_computes_per_round_quotas():
    cfg = _al(2, (4, 8))
    assert cfg.quotas == (2, 4)


@pytest.mark.parametrize(
    "kwargs,fragment",
    [
        ({"rounds": 0, "budgets": (4,)}, "rounds"),
        ({"rounds": 2, "budgets": (7,)}, "not divisible"),
        ({"rounds": 2, "budgets": (-2,)}, ">= 0"),
        ({"rounds": True, "budgets": (4,)}, "^rounds: "),  # a bool is an int to Python, not a count
        ({"rounds": 1, "budgets": (2.7, 2)}, r"^budgets\[0\]: must be an int, got 2.7"),  # not truncated
        ({"rounds": 1, "budgets": (2, True)}, r"^budgets\[1\]: must be an int, got True"),
        ({"rounds": 1, "budgets": (2, 2.0)}, r"^budgets\[1\]: "),
    ],
)
def test_al_config_validation(kwargs, fragment):
    base = {"scorer": ScorerSpec("entropy"), "aux_train": QUICK_FL}
    base.update(kwargs)
    with pytest.raises(ConfigError, match=fragment):
        ALConfig(**base)


def test_model_based_strategies_reject_the_random_scorer(world_factory):
    train, test, pools, arch = world_factory(clients=2, n=40)
    for strategy in ("s_al", "f_al"):
        with pytest.raises(ConfigError, match="model-based"):
            run_strategy(strategy, train, test, pools, arch, _al(1, (1, 1), scorer="random"),
                         QUICK_FL, 0)
    assert all(p.history == {} for p in pools)
    # fine for the baseline
    run_strategy("random", train, test, pools, arch, _al(1, (1, 1), scorer="random"), QUICK_FL, 0)


def test_run_validation_catches_mismatched_budgets_and_oversized_budgets(world_factory):
    train, test, pools, arch = world_factory(clients=2, n=40)
    with pytest.raises(ConfigError, match="budgets"):
        run_strategy("random", train, test, pools, arch, _al(1, (2,)), QUICK_FL, 0)
    with pytest.raises(BudgetError, match="exceeds"):
        run_strategy("random", train, test, pools, arch, _al(1, (2, 1000)), QUICK_FL, 0)


# -- quota bookkeeping -----------------------------------------------------------

def test_each_round_labels_exactly_the_per_round_quota(world_factory):
    train, test, pools, arch = world_factory(clients=2, n=60, initial_fraction=0.2)
    initial = [len(p.labeled) for p in pools]
    logs = run_strategy("random", train, test, pools, arch, _al(3, (6, 6)), QUICK_FL, 5)
    assert len(logs) == 3
    for k, log in enumerate(logs, start=1):
        assert log.round_index == k
        assert log.labeled_counts == tuple(init + k * 2 for init in initial)
        assert len(pools[0].history[k]) == 2
    for pool in pools:
        assert sorted(pool.labeled + pool.unlabeled) == list(pool.shard)
        assert not set(pool.labeled) & set(pool.unlabeled)


def test_zero_quotas_train_no_scoring_model(world_factory, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("trained a scoring model although no client has a quota")

    fedavg_calls = []

    def task_fedavg_only(dataset, pools, init, cfg, seed, local_fn=None):
        if local_fn is not None:
            forbidden()
        fedavg_calls.append(seed)
        return fedavg(dataset, pools, init, cfg, seed)

    monkeypatch.setattr(orchestrator, "train_discrepancy_heads", forbidden)
    monkeypatch.setattr(orchestrator, "independent_train", forbidden)
    monkeypatch.setattr(orchestrator, "fedavg", task_fedavg_only)
    for strategy in ("s_al", "f_al"):
        fedavg_calls.clear()
        train, test, pools, arch = world_factory(clients=2, n=40)
        run_strategy(strategy, train, test, pools, arch, _al(2, (0, 0), scorer="discrepancy"),
                     QUICK_FL, 1)
        assert fedavg_calls == [(1, "train-task")] * 2  # one task model per round, nothing else


def test_zero_budget_rounds_leave_accuracy_frozen(world_factory):
    train, test, pools, arch = world_factory(clients=2, n=40)
    logs = run_strategy("random", train, test, pools, arch, _al(3, (0, 0)), QUICK_FL, 2)
    assert len({log.test_accuracy for log in logs}) == 1
    assert len({log.labeled_counts for log in logs}) == 1
    assert all(p.history == {} for p in pools)


def test_single_round_random_with_full_quota_equals_full_budget(world_factory):
    train, test, pools_a, arch = world_factory(clients=2, n=60, initial_fraction=0.2, seed=3)
    _, _, pools_b, _ = world_factory(clients=2, n=60, initial_fraction=0.2, seed=3)
    budgets = tuple(len(p.unlabeled) for p in pools_a)
    logs = run_strategy("random", train, test, pools_a, arch, _al(1, budgets), QUICK_FL, 9)
    reference = run_full_budget(train, test, pools_b, arch, QUICK_FL, seed=9)
    assert logs[0].test_accuracy == reference.test_accuracy
    assert logs[0].labeled_counts == reference.labeled_counts
    assert all(p.unlabeled == [] for p in pools_a)


# -- strategy equivalences ----------------------------------------------------------

def test_single_client_separate_and_federated_annotation_agree(world_factory):
    results = {}
    for strategy in ("s_al", "f_al"):
        train, test, pools, arch = world_factory(clients=1, n=50, initial_fraction=0.2, seed=8)
        al_cfg = _al(2, (10,))
        logs = run_strategy(strategy, train, test, pools, arch, al_cfg, QUICK_FL, 13)
        results[strategy] = ([log.test_accuracy for log in logs], pools[0].history)
    assert results["s_al"] == results["f_al"]


def _mirrored_world():
    rng = np.random.default_rng(4)
    half = np.vstack([
        rng.normal(size=(15, 2)) * 0.6 + [-1.5, 0.0],
        rng.normal(size=(15, 2)) * 0.6 + [1.5, 0.0],
    ])
    half_labels = np.array([0] * 15 + [1] * 15)
    train = Dataset(np.vstack([half, half]), np.tile(half_labels, 2), 2)
    test = Dataset(half[:10], half_labels[:10], 2)
    pools = [
        ClientPools(client_id=0, unlabeled=list(range(4, 30)), labeled=[0, 1, 2, 3]),
        ClientPools(client_id=1, unlabeled=list(range(34, 60)), labeled=[30, 31, 32, 33]),
    ]
    return train, test, pools


def test_federated_annotation_on_mirrored_shards_reduces_to_separate_annotation():
    # Two clients holding byte-identical copies of the same rows: averaging
    # their identical local updates reproduces local training exactly, so the
    # shared scoring model, every selection, and every accuracy must match.
    arch = MlpArchitecture((2, 6, 2))
    fl = FedConfig(schedule=LrSchedule(0.4, 0.995), stop_loss_threshold=0.05,
                   max_global_iters=50)
    train, test, sal_pools = _mirrored_world()
    sal_logs = run_strategy("s_al", train, test, sal_pools, arch, _al(2, (4, 4), aux=fl), fl,
                            seed=11)
    _, _, fal_pools = _mirrored_world()
    fal_logs = run_strategy("f_al", train, test, fal_pools, arch, _al(2, (4, 4), aux=fl), fl,
                            seed=11)
    for m in range(2):
        assert sal_pools[m].history == fal_pools[m].history
    for k in (1, 2):
        mirrored = [i - 30 for i in sal_pools[1].history[k]]
        assert mirrored == sal_pools[0].history[k]
    assert [l.test_accuracy for l in sal_logs] == [l.test_accuracy for l in fal_logs]


def test_entropy_annotation_prefers_the_boundary_point():
    # The pool holds a duplicate of an already-labeled point (confidently
    # classified, near-zero entropy) and a point on the class boundary.
    feats = np.array([
        [-2.0, 0.0], [2.0, 0.0], [-2.0, 0.5], [2.0, 0.5],
        [-2.0, 0.0],   # duplicate of row 0
        [0.0, 0.25],   # between the classes
    ])
    labels = np.array([0, 1, 0, 1, 0, 0])
    train = Dataset(feats, labels, 2)
    test = Dataset(feats[:4], labels[:4], 2)
    arch = MlpArchitecture((2, 8, 2))
    fl = FedConfig(schedule=LrSchedule(0.5, 0.999), stop_loss_threshold=0.05,
                   max_global_iters=300)
    pools = [ClientPools(client_id=0, unlabeled=[4, 5], labeled=[0, 1, 2, 3])]
    run_strategy("s_al", train, test, pools, arch, _al(1, (1,), aux=fl), fl, seed=3)
    assert pools[0].history[1] == [5]


def test_an_uninformative_model_falls_back_to_low_indices(world_factory):
    train, _, pools, arch = world_factory(clients=1, n=40)
    model = Model(arch, np.zeros(arch.param_count))
    chosen = _score_pool(pools[0], train, ScorerSpec("entropy"), model, 4, rng=None)
    assert chosen == sorted(pools[0].unlabeled)[:4]  # all scores tie



def test_a_diverged_task_model_stops_federated_annotation_before_any_label(world_factory,
                                                                          monkeypatch):
    # NaN parameters give a NaN training loss, and the task model's run refuses it before any
    # selection (selection itself refuses NaN scores: see test_strategies).
    monkeypatch.setattr(nn_module, "init_params", lambda arch, seed: np.full(arch.param_count, np.nan))
    train, test, pools, arch = world_factory(clients=2, n=60, initial_fraction=0.2)
    with pytest.raises(InvalidStateError, match=r"^run \(3, 'train-task'\) on clients \[0, 1\] diverged: "
                                                r"the loss after iteration 1 \(rate 0\.4\) is nan"):
        run_strategy("f_al", train, test, pools, arch, _al(1, (4, 4)), QUICK_FL, 3)
    assert all(p.history == {} for p in pools)

# -- federated annotation internals ---------------------------------------------------

def test_federated_annotation_scores_every_client_with_identical_parameters(world_factory,
                                                                           monkeypatch):
    scored, iters = [], []

    def spy_score_pool(pool, dataset, scorer, model, quota, rng):
        scored.append((pool.client_id, model.params.copy()))
        return _score_pool(pool, dataset, scorer, model, quota, rng)

    def spy_fedavg(*args, **kwargs):
        report = fedavg(*args, **kwargs)
        iters.append(report.global_iters_used)
        return report

    monkeypatch.setattr(orchestrator, "_score_pool", spy_score_pool)
    monkeypatch.setattr(orchestrator, "fedavg", spy_fedavg)
    train, test, pools, arch = world_factory(clients=3, n=90, initial_fraction=0.2)
    run_strategy("f_al", train, test, pools, arch, _al(2, (6, 6, 6)), QUICK_FL, 4)
    assert len(scored) == 2 * 3
    for first in range(0, len(scored), 3):
        round_calls = scored[first:first + 3]
        assert [client for client, _ in round_calls] == [0, 1, 2]
        assert all(np.array_equal(params, round_calls[0][1]) for _, params in round_calls)
    assert iters and all(n >= 1 for n in iters)


def test_no_computation_ever_touches_rows_outside_one_client(world_factory):
    accesses: list[set[int]] = []
    tracked: list[np.ndarray] = []

    class Recorder(np.ndarray):
        def __getitem__(self, item):
            # record only row lookups on the shared feature matrix itself,
            # not on per-client copies (those are renumbered from zero)
            if (
                any(self is t for t in tracked)
                and isinstance(item, np.ndarray)
                and item.ndim == 1
                and item.dtype.kind in "iu"
            ):
                accesses.append({int(v) for v in item})
            return super().__getitem__(item)

    runs = [
        ("s_al", "coreset"),
        ("f_al", "entropy"),
        ("f_al", "discrepancy"),
    ]
    for strategy, scorer in runs:
        train, test, pools, arch = world_factory(clients=3, n=90, initial_fraction=0.2)
        shards = [set(int(i) for i in p.shard) for p in pools]
        view = train.features.view(Recorder)
        tracked.append(view)
        object.__setattr__(train, "features", view)
        al_cfg = _al(2, (4, 4, 4), scorer=scorer)
        run_strategy(strategy, train, test, pools, arch, al_cfg, QUICK_FL, 1)
        assert accesses
        for idx_set in accesses:
            assert any(idx_set <= shard for shard in shards), (strategy, scorer)
        accesses.clear()


def test_coreset_scoring_requires_labeled_anchors(world_factory):
    train, _, pools, arch = world_factory(clients=1, n=40)
    bare = ClientPools(client_id=0, unlabeled=list(pools[0].shard), labeled=[])
    model = Model(arch, np.zeros(arch.param_count))
    with pytest.raises(InvalidStateError):
        _score_pool(bare, train, ScorerSpec("coreset"), model, 2, rng=None)


def test_mc_dropout_annotation_runs_end_to_end(world_factory):
    train, test, pools, arch = world_factory(clients=2, n=60, initial_fraction=0.2,
                                             dropout=0.2)
    logs = run_strategy("s_al", train, test, pools, arch, _al(1, (4, 4), scorer="mc_dropout"),
                        QUICK_FL, 7)
    assert len(logs) == 1
    assert all(len(p.history[1]) == 4 for p in pools)


# -- dispatch and reconstruction ---------------------------------------------------------

def test_run_strategy_dispatches_full_budget_to_a_single_round(world_factory):
    train, test, pools, arch = world_factory(clients=2, n=40)
    logs = run_strategy("full_budget", train, test, pools, arch,
                        _al(1, (0, 0)), QUICK_FL, 3)
    assert len(logs) == 1
    assert all(p.unlabeled == [] for p in pools)
    with pytest.raises(ConfigError, match="unknown strategy"):
        run_strategy("oracle", train, test, pools, arch,
                     _al(1, (0, 0)), QUICK_FL, 3)


def test_independent_eval_with_one_client_matches_global_evaluation(world_factory):
    train, test, pools, arch = world_factory(clients=1, n=50, initial_fraction=0.3)
    mean = run_independent_eval(train, test, pools, arch, QUICK_FL, seed=5)
    report = _train_task_model(train, pools, arch, QUICK_FL, 5)
    # one client: the federated task model IS that client's local model and
    # full-batch training ignores the rng stream, so the accuracies coincide
    assert mean == evaluate(report.final_model, test)


def test_independent_eval_is_the_mean_of_one_accuracy_per_client(world_factory):
    train, test, pools, arch = world_factory(clients=3, n=90, initial_fraction=0.2)
    mean = run_independent_eval(train, test, pools, arch, QUICK_FL, seed=2)
    init = _init(arch, 2, "task")
    accs = [evaluate(independent_train(train, pools, client, init, QUICK_FL, (2, "il-eval", "independent"))
                     .final_model, test) for client in range(3)]
    assert type(mean) is float
    assert mean == float(np.mean(accs))


def test_task_init_is_deterministic(world_factory):
    _, _, _, arch = world_factory()
    assert np.array_equal(_init(arch, 5, "task").params, _init(arch, 5, "task").params)
    assert not np.array_equal(_init(arch, 5, "task").params, _init(arch, 6, "task").params)
    assert not np.array_equal(_init(arch, 5, "task").params, _init(arch, 5, "twohead").params)

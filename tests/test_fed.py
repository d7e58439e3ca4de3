"""Tests for FedAvg, per-client training, aggregation, and evaluation."""

import concurrent.futures
import re
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fedal import fed as fed_module
from fedal import harness
from fedal import nn as nn_module
from fedal.config import parse_config_file
from fedal.data import ClientPools, Dataset, gather, synth_blobs
from fedal.errors import ConfigError, EmptyInputError, InvalidStateError, ShapeError
from fedal.fed import (
    FedConfig,
    evaluate,
    fedavg,
    independent_train,
    weighted_average,
)
from fedal.nn import LrSchedule, MlpArchitecture, Model, grad, init_params, loss
from fedal.seeding import rng_for
from fedal.strategies import train_discrepancy_heads

from conftest import descend


def _dataset(n=12, classes=2, seed=0):
    return synth_blobs(n, classes, 2, 0.8, seed=seed)


def _full_pools(n, clients=1):
    """All rows labeled, split contiguously across ``clients``."""
    chunks = np.array_split(np.arange(n), clients)
    return [
        ClientPools(client_id=i, unlabeled=[], labeled=[int(v) for v in chunk])
        for i, chunk in enumerate(chunks)
    ]


def _init(arch, seed=3):
    return Model(arch, init_params(arch, seed))


def _plain_update(model, feats, labels, lr, cfg, rng):
    """fed._local_update on a freshly checked pair: one client's plain local update."""
    x, y = nn_module.labeled_batch(model.arch, feats, labels)
    return fed_module._local_update(nn_module.Workspace(model.arch), model.params, x, y, lr, cfg, rng)


# -- weighted averaging --------------------------------------------------------

def test_weighted_average_worked_examples():
    mid = weighted_average([np.array([0.0, 2.0]), np.array([2.0, 0.0])], (1, 1))
    assert np.array_equal(mid, np.array([1.0, 1.0]))
    skew = weighted_average([np.array([0.0]), np.array([4.0])], (1, 3))
    assert np.array_equal(skew, np.array([3.0]))


def test_weighted_average_single_vector_is_identity():
    v = np.array([0.3, -1.7, 2.5])
    assert np.array_equal(weighted_average([v], [5]), v)


def test_weighted_average_of_identical_vectors_is_exact():
    v = np.random.default_rng(0).normal(size=9)
    out = weighted_average([v, v, v], [3, 1, 4])
    assert np.array_equal(out, v)


def test_weighted_average_is_stable_under_shuffle_and_resort():
    rng = np.random.default_rng(1)
    vectors = [rng.normal(size=6) for _ in range(4)]
    counts = [3, 1, 4, 2]
    base = weighted_average(vectors, counts)
    order = [2, 0, 3, 1]
    tagged = sorted(((vectors[i], counts[i], i) for i in order), key=lambda t: t[2])
    again = weighted_average([t[0] for t in tagged], [t[1] for t in tagged])
    assert np.array_equal(base, again)


def test_weighted_average_validation():
    with pytest.raises(EmptyInputError):
        weighted_average([], [])
    with pytest.raises(ShapeError):
        weighted_average([np.zeros(2), np.zeros(3)], [1, 1])
    with pytest.raises(ShapeError):
        weighted_average([np.zeros(2)], [1, 2])
    with pytest.raises(ConfigError):
        weighted_average([np.zeros(2), np.zeros(2)], [1, 0])
    # A bool, a fraction or a numeric string is not a count, though float() would take each.
    for counts, named in (([True, 2], r"\[0\]: .* True"), ([1, 1.5], r"\[1\]: .* 1\.5"),
                          (["1", 2], r"\[0\]: .* '1'")):
        with pytest.raises(ConfigError, match=r"^sample_counts" + named + "$"):
            weighted_average([np.ones(2), np.zeros(2)], counts)
    assert np.array_equal(weighted_average([np.ones(2), np.zeros(2)], [np.int64(1), np.int32(3)]),
                          [0.25, 0.25])


@given(
    seed=st.integers(0, 10_000),
    m=st.integers(1, 6),
    dim=st.integers(1, 8),
)
def test_weighted_average_stays_inside_the_coordinate_envelope(seed, m, dim):
    rng = np.random.default_rng(seed)
    vectors = [rng.normal(scale=1e3, size=dim) for _ in range(m)]
    counts = [int(c) for c in rng.integers(1, 500, size=m)]
    avg = weighted_average(vectors, counts)
    stacked = np.stack(vectors)
    assert np.all(avg >= stacked.min(axis=0))
    assert np.all(avg <= stacked.max(axis=0))


def _reference_weighted_average(vectors, counts):
    """weighted_average's combination and clamp as they were written with np.stack and np.clip."""
    total = sum(counts)
    acc = np.zeros_like(vectors[0])
    for vec, count in zip(vectors, counts):
        acc += count * vec
    acc /= total
    stacked = np.stack(vectors)
    return np.clip(acc, stacked.min(axis=0), stacked.max(axis=0))


@given(
    seed=st.integers(0, 10_000),
    m=st.integers(1, 5),
    dim=st.integers(1, 40),
)
def test_weighted_average_equals_the_stack_and_clip_reference_bit_for_bit(seed, m, dim):
    # Few distinct values, signed zeros among them, so ties and clamps at the envelope are common.
    rng = np.random.default_rng(seed)
    values = np.array([0.0, -0.0, 0.1, 1 / 3, -2.5, 7.0, 5e-324, -5e-324, -1e300])
    vectors = [rng.choice(values, size=dim) for _ in range(m)]
    counts = [int(c) for c in rng.integers(1, 500, size=m)]
    got = weighted_average(vectors, counts)
    assert got.tobytes() == _reference_weighted_average(vectors, counts).tobytes()


# -- local updates ---------------------------------------------------------------

def test_local_update_one_full_batch_epoch_is_one_sgd_step():
    ds = _dataset()
    arch = MlpArchitecture((2, 4, 2))
    model = _init(arch)
    feats, labels = gather(ds, list(range(ds.size)))
    cfg = FedConfig(schedule=LrSchedule(0.3))
    updated, start_loss = _plain_update(model, feats, labels, 0.3, cfg, rng=None)
    manual = descend(model.params, grad(model, feats, labels), 0.3)
    assert np.array_equal(updated, manual)
    assert start_loss == loss(model, feats, labels)


@pytest.mark.parametrize("heads", [1, 2])  # two heads: with unlabeled rows, a pool of 6 that minibatches draw from
@pytest.mark.parametrize("minibatch,dropout", [(4, 0.0), (None, 0.2), (12, 0.0), (None, 0.0)])
def test_local_update_reads_the_loss_only_from_a_deterministic_full_batch(minibatch, dropout, heads):
    ds = _dataset(18)
    arch = MlpArchitecture((2, 4, 2), dropout_rate=dropout, head_count=heads)
    model = _init(arch)
    feats, labels = gather(ds, list(range(12)))
    x, y = nn_module.labeled_batch(arch, feats, labels)
    unlabeled = ds.features[12:] if heads == 2 else None
    cfg = FedConfig(schedule=LrSchedule(0.3), minibatch_size=minibatch)
    _, start_loss = fed_module._local_update(nn_module.Workspace(arch), model.params, x, y, 0.3, cfg,
                                             np.random.default_rng(0), unlabeled)
    if dropout == 0.0 and (minibatch is None or minibatch >= len(labels)):  # one batch of every row
        assert np.float64(start_loss).tobytes() == np.float64(loss(model, feats, labels)).tobytes()
    else:
        assert start_loss is None


def test_local_update_epochs_chain():
    ds = _dataset()
    arch = MlpArchitecture((2, 4, 2))
    model = _init(arch)
    feats, labels = gather(ds, list(range(ds.size)))
    two = FedConfig(schedule=LrSchedule(0.3), local_epochs=2)
    one = FedConfig(schedule=LrSchedule(0.3), local_epochs=1)
    chained, _ = _plain_update(
        Model(arch, _plain_update(model, feats, labels, 0.3, one, None)[0]),
        feats, labels, 0.3, one, None,
    )
    assert np.array_equal(_plain_update(model, feats, labels, 0.3, two, None)[0], chained)


def test_local_update_zero_rate_is_an_identity():
    ds = _dataset()
    arch = MlpArchitecture((2, 3, 2))
    model = _init(arch)
    feats, labels = gather(ds, list(range(ds.size)))
    cfg = FedConfig(schedule=LrSchedule(0.3))
    assert np.array_equal(_plain_update(model, feats, labels, 0.0, cfg, None)[0], model.params)


def test_local_update_is_pure():
    ds = _dataset()
    arch = MlpArchitecture((2, 4, 2))
    model = _init(arch)
    feats, labels = gather(ds, list(range(ds.size)))
    cfg = FedConfig(schedule=LrSchedule(0.2), minibatch_size=4)
    a, _ = _plain_update(model, feats, labels, 0.2, cfg, np.random.default_rng(5))
    b, _ = _plain_update(model, feats, labels, 0.2, cfg, np.random.default_rng(5))
    assert np.array_equal(a, b)
    assert np.array_equal(model.params, _init(arch).params)  # input untouched


def _reference_update(model, feats, labels, lr, cfg, rng):
    """A plain local update from the public checked nn.loss and nn.grad only."""
    n = len(labels)
    size = cfg.minibatch_size
    draws = model.arch.dropout_rate > 0 or (size is not None and size < n)
    start_loss = None if draws else loss(model, feats, labels)
    params = model.params
    for _ in range(cfg.local_epochs):
        if size is None or size >= n:
            batches = [np.arange(n)]
        else:
            perm = rng.permutation(n)
            batches = [perm[i:i + size] for i in range(0, n, size)]
        for batch in batches:
            params = descend(params, grad(Model(model.arch, params), feats[batch], labels[batch], rng), lr)
    return params, start_loss


@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("hidden", [(), (5,), (5, 4)])
@pytest.mark.parametrize("heads", [1, 2])
@pytest.mark.parametrize("dropout", [0.0, 0.2])
@pytest.mark.parametrize("minibatch", [None, 4])
def test_local_update_equals_the_public_checked_loop_bit_for_bit(activation, hidden, heads, dropout,
                                                                 minibatch):
    ds = _dataset(13, classes=3, seed=len(hidden) + heads)
    arch = MlpArchitecture((2, *hidden, 3), activation=activation, dropout_rate=dropout,
                           head_count=heads)
    model = Model(arch, init_params(arch, 7) * 3.0)
    feats, labels = gather(ds, list(range(ds.size)))
    cfg = FedConfig(schedule=LrSchedule(0.4), local_epochs=2, minibatch_size=minibatch)
    params, start_loss = _plain_update(model, feats, labels, 0.4, cfg, np.random.default_rng(3))
    expected, expected_loss = _reference_update(model, feats, labels, 0.4, cfg,
                                                np.random.default_rng(3))
    assert params.tobytes() == expected.tobytes()
    assert start_loss == expected_loss
    if expected_loss is not None:
        assert np.float64(start_loss).tobytes() == np.float64(expected_loss).tobytes()


# -- fedavg ----------------------------------------------------------------------

def test_fedavg_single_client_is_plain_gradient_descent():
    ds = _dataset(12)
    pools = _full_pools(12, clients=1)
    arch = MlpArchitecture((2, 5, 2))
    init = _init(arch)
    cfg = FedConfig(schedule=LrSchedule(0.3, 0.99), stop_loss_threshold=1e-12,
                    max_global_iters=20)
    report = fedavg(ds, pools, init, cfg, seed=7)
    feats, labels = gather(ds, pools[0].labeled)
    params = init.params
    for t in range(1, 21):
        params = descend(params, grad(Model(arch, params), feats, labels), cfg.schedule.lr(t))
    assert report.global_iters_used == 20
    assert np.array_equal(report.final_model.params, params)


def test_fedavg_mirrored_shards_match_a_single_client():
    base = _dataset(10, seed=2)
    doubled = Dataset(np.vstack([base.features] * 2), np.tile(base.labels, 2), base.class_count)
    arch = MlpArchitecture((2, 4, 2))
    init = _init(arch)
    cfg = FedConfig(schedule=LrSchedule(0.4, 0.995), stop_loss_threshold=0.05,
                    max_global_iters=40)
    two = [
        ClientPools(client_id=0, unlabeled=[], labeled=list(range(10))),
        ClientPools(client_id=1, unlabeled=[], labeled=list(range(10, 20))),
    ]
    one = [ClientPools(client_id=0, unlabeled=[], labeled=list(range(10)))]
    report_two = fedavg(doubled, two, init, cfg, seed=5)
    report_one = fedavg(doubled, one, init, cfg, seed=5)
    assert np.array_equal(report_two.final_model.params, report_one.final_model.params)
    assert report_two.loss_trace == report_one.loss_trace
    assert report_two.global_iters_used == report_one.global_iters_used


def test_fedavg_stops_after_one_iteration_when_threshold_is_met():
    ds = _dataset(10)
    cfg = FedConfig(schedule=LrSchedule(0.1), stop_loss_threshold=1e9,
                    max_global_iters=50)
    report = fedavg(ds, _full_pools(10), _init(MlpArchitecture((2, 2))), cfg, seed=0)
    assert report.global_iters_used == 1
    assert len(report.loss_trace) == 1


def test_fedavg_trace_matches_iterations_used():
    ds = _dataset(20)
    cfg = FedConfig(schedule=LrSchedule(0.5), stop_loss_threshold=0.2, max_global_iters=200)
    report = fedavg(ds, _full_pools(20, 2), _init(MlpArchitecture((2, 6, 2))), cfg, seed=1)
    assert len(report.loss_trace) == report.global_iters_used
    assert report.loss_trace[-1] < 0.2 or report.global_iters_used == 200
    assert all(np.isfinite(v) for v in report.loss_trace)


def _global_loss(ds, pools, model):
    """Sample-weighted mean over the clients of ``loss`` at ``model``, in client order."""
    parts = [gather(ds, p.labeled) for p in pools if p.labeled]
    total = float(sum(len(y) for _, y in parts))
    value = 0.0
    for feats, labels in parts:
        value += (len(labels) / total) * loss(model, feats, labels)
    return value


def _supervised_fn(ws, params, x, y, lr, cfg, rng, unlabeled):
    """A ``local_fn`` that ignores the unlabeled rows: the plain local update of its group."""
    return fed_module._local_update(ws, params, x, y, lr, cfg, rng)


TRAIN_MODES = {
    "full-batch": ({}, {}),
    "minibatch-dropout": ({"dropout_rate": 0.2}, {"minibatch_size": 4}),
    "local_fn": ({}, {"local_fn": _supervised_fn}),
}


@pytest.mark.parametrize("mode", sorted(TRAIN_MODES))
@pytest.mark.parametrize("threshold", [1e-9, 0.4])
def test_fedavg_trace_ends_with_the_returned_models_loss(mode, threshold):
    arch_kwargs, run_kwargs = TRAIN_MODES[mode]
    local_fn = run_kwargs.get("local_fn")
    ds = _dataset(21, seed=3)
    pools = _full_pools(21, clients=2)
    arch = MlpArchitecture((2, 6, 2), **arch_kwargs)
    cfg = FedConfig(schedule=LrSchedule(0.5, 0.99), minibatch_size=run_kwargs.get("minibatch_size"),
                    stop_loss_threshold=threshold, max_global_iters=60)
    report = fedavg(ds, pools, _init(arch), cfg, seed=2, local_fn=local_fn)
    assert len(report.loss_trace) == report.global_iters_used
    assert report.loss_trace[-1] == _global_loss(ds, pools, report.final_model)
    if threshold < 1e-3:
        assert report.global_iters_used == cfg.max_global_iters
    else:  # stopped early, on a model below the threshold
        assert report.global_iters_used < cfg.max_global_iters
        assert _global_loss(ds, pools, report.final_model) < threshold
        assert all(value >= threshold for value in report.loss_trace[:-1])


@pytest.mark.parametrize("mode", sorted(TRAIN_MODES))
def test_independent_train_stops_on_a_model_below_the_threshold(mode):
    arch_kwargs, run_kwargs = TRAIN_MODES[mode]
    ds = _dataset(21, seed=3)
    pools = _full_pools(21, clients=2)
    cfg = FedConfig(schedule=LrSchedule(0.5, 0.99), minibatch_size=run_kwargs.get("minibatch_size"),
                    stop_loss_threshold=0.4, max_global_iters=60)
    report = independent_train(ds, pools, 1, _init(MlpArchitecture((2, 6, 2), **arch_kwargs)), cfg,
                               seed=2, local_fn=run_kwargs.get("local_fn"))
    feats, labels = gather(ds, pools[1].labeled)
    assert report.global_iters_used < cfg.max_global_iters
    assert report.loss_trace[-1] == loss(report.final_model, feats, labels) < 0.4


@pytest.mark.parametrize("mode,minibatch,draws", [
    ("full-batch", None, False),
    ("full-batch", 6, False),  # one batch of each client's 6 rows
    ("full-batch", 5, True),
    ("minibatch-dropout", 4, True),
    ("local_fn", None, True),
])
def test_fedavg_builds_local_streams_only_when_the_update_can_draw(mode, minibatch, draws,
                                                                   monkeypatch):
    arch_kwargs, run_kwargs = TRAIN_MODES[mode]
    built = []

    def spy(*key):
        built.append(key)
        return rng_for(*key)

    monkeypatch.setattr(fed_module, "rng_for", spy)
    cfg = FedConfig(schedule=LrSchedule(0.3), minibatch_size=minibatch, stop_loss_threshold=1e-9,
                    max_global_iters=3)
    fedavg(_dataset(12), _full_pools(12, clients=2), _init(MlpArchitecture((2, 3, 2), **arch_kwargs)),
           cfg, seed=8, local_fn=run_kwargs.get("local_fn"))
    expected = [(8, "local", m, t) for t in (1, 2, 3) for m in (0, 1)]
    assert built == (expected if draws else [])


def _counting(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper that counts its calls."""
    calls = []
    real = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


@pytest.mark.parametrize("mode", ["full-batch", "minibatch-dropout"])
def test_fedavg_checks_each_clients_labels_once_per_run(mode, monkeypatch):
    arch_kwargs, run_kwargs = TRAIN_MODES[mode]
    checks = _counting(monkeypatch, nn_module, "labeled_batch")
    averages = _counting(monkeypatch, fed_module, "weighted_average")
    cfg = FedConfig(schedule=LrSchedule(0.3), minibatch_size=run_kwargs.get("minibatch_size"),
                    stop_loss_threshold=1e-9, max_global_iters=5)
    report = fedavg(_dataset(15), _full_pools(15, clients=3),
                    _init(MlpArchitecture((2, 3, 2), **arch_kwargs)), cfg, seed=4)
    assert report.global_iters_used == 5
    assert len(checks) == 3  # one per client, not one per client and iteration
    assert len(averages) == 5  # the traced seam still runs once per iteration


@pytest.mark.parametrize("threshold", [1e-9, 0.4])
def test_fedavg_averages_each_kept_update_and_a_single_client_never(threshold, monkeypatch):
    averages = _counting(monkeypatch, fed_module, "weighted_average")
    ds, init = _dataset(21, seed=3), _init(MlpArchitecture((2, 6, 2)))
    cfg = FedConfig(schedule=LrSchedule(0.5, 0.99), stop_loss_threshold=threshold, max_global_iters=60)
    report = fedavg(ds, _full_pools(21, clients=2), init, cfg, seed=2)
    assert (report.global_iters_used == 60) == (threshold < 1e-3)  # the cap, else the threshold
    assert len(averages) == report.global_iters_used  # the update dropped at a stop is not averaged
    averages.clear()
    fedavg(ds, _full_pools(21), init, cfg, seed=2)
    independent_train(ds, _full_pools(21, clients=2), 1, init, cfg, seed=2)
    assert averages == []  # one client's update is the new model as it stands


@pytest.mark.parametrize("bad,message", [
    (2.5, "^labels must be integers$"),
    (2, r"^labels must lie in \[0, 2\), got range \[0, 2\]$"),
])
def test_bad_labels_in_one_pool_fail_before_any_update(bad, message, monkeypatch):
    real_gather = fed_module.gather

    def corrupting_gather(dataset, indices):
        feats, labels = real_gather(dataset, indices)
        if 11 in indices:  # the last client's pool
            labels = labels.astype(np.float64)
            labels[-1] = bad
        return feats, labels

    monkeypatch.setattr(fed_module, "gather", corrupting_gather)
    steps = _counting(monkeypatch, nn_module, "_grad")
    ds, pools = _dataset(12), _full_pools(12, clients=3)
    model = _init(MlpArchitecture((2, 3, 2)))
    cfg = FedConfig(schedule=LrSchedule(0.3), max_global_iters=3)
    with pytest.raises(ShapeError, match=message):
        fedavg(ds, pools, model, cfg, seed=0)
    with pytest.raises(ShapeError, match=message):
        independent_train(ds, pools, 2, model, cfg, seed=0)
    assert steps == []
    independent_train(ds, pools, 0, model, cfg, seed=0)  # a clean pool still trains
    assert steps


@pytest.mark.parametrize("runner", ["fedavg", "independent_train"])
def test_local_fn_gets_its_groups_unlabeled_feature_rows_and_no_labels(runner, monkeypatch):
    ds = _dataset(12)
    pools = [ClientPools(client_id=0, unlabeled=[1, 4, 5], labeled=[0, 2, 3]),
             ClientPools(client_id=1, unlabeled=[6, 9, 11], labeled=[7, 8, 10])]
    seen = []

    def spy(ws, params, x, y, lr, cfg, rng, unlabeled):
        seen.append(unlabeled)
        return _supervised_fn(ws, params, x, y, lr, cfg, rng, unlabeled)

    gathered = _counting(monkeypatch, fed_module, "gather")
    cfg = FedConfig(schedule=LrSchedule(0.3), stop_loss_threshold=1e-9, max_global_iters=2)
    init = _init(MlpArchitecture((2, 3, 2)))
    if runner == "fedavg":
        fedavg(ds, pools, init, cfg, seed=0, local_fn=spy)
        clients = [0, 1]
    else:
        independent_train(ds, pools, 1, init, cfg, seed=0, local_fn=spy)
        clients = [1]
    assert len(seen) == 2  # once per group and iteration: one group here, a stack's pools as a list
    for got in seen:
        got = got if runner == "fedavg" else [got]
        assert len(got) == len(clients)
        for pool, m in zip(got, clients):
            rows = ds.features[pools[m].unlabeled]
            assert isinstance(pool, np.ndarray) and pool.dtype == np.float64
            assert pool.shape == rows.shape == (3, 2)
            assert np.array_equal(pool, rows)
    # Only labeled rows go through gather, the seam that also hands out labels.
    assert [list(indices) for _, indices in gathered] == [pools[m].labeled for m in clients]


def test_fedavg_requires_some_labeled_data():
    ds = _dataset(8)
    pools = [ClientPools(client_id=0, unlabeled=list(range(8)), labeled=[])]
    cfg = FedConfig(schedule=LrSchedule(0.1))
    with pytest.raises(InvalidStateError):
        fedavg(ds, pools, _init(MlpArchitecture((2, 2))), cfg, seed=0)


def test_fedavg_skips_clients_without_labels():
    ds = _dataset(12)
    labeled = ClientPools(client_id=0, unlabeled=[], labeled=list(range(6)))
    idle = ClientPools(client_id=1, unlabeled=list(range(6, 12)), labeled=[])
    solo = ClientPools(client_id=0, unlabeled=[], labeled=list(range(6)))
    cfg = FedConfig(schedule=LrSchedule(0.3), stop_loss_threshold=0.05, max_global_iters=30)
    init = _init(MlpArchitecture((2, 4, 2)))
    with_idle = fedavg(ds, [labeled, idle], init, cfg, seed=4)
    alone = fedavg(ds, [solo], init, cfg, seed=4)
    assert np.array_equal(with_idle.final_model.params, alone.final_model.params)
    assert with_idle.loss_trace == alone.loss_trace


def test_fedavg_is_deterministic_with_minibatches():
    ds = _dataset(16)
    cfg = FedConfig(schedule=LrSchedule(0.2), minibatch_size=4,
                    stop_loss_threshold=1e-6, max_global_iters=10)
    init = _init(MlpArchitecture((2, 4, 2)))
    a = fedavg(ds, _full_pools(16, 2), init, cfg, seed=9)
    b = fedavg(ds, _full_pools(16, 2), init, cfg, seed=9)
    c = fedavg(ds, _full_pools(16, 2), init, cfg, seed=10)
    assert np.array_equal(a.final_model.params, b.final_model.params)
    assert not np.array_equal(a.final_model.params, c.final_model.params)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"local_epochs": 0},
        {"minibatch_size": 0},
        {"stop_loss_threshold": 0.0},
        {"stop_loss_threshold": float("nan")},
        {"max_global_iters": 0},
        {"stop_loss_threshold": float("inf")},
        {"stop_loss_threshold": True},  # a bool is a number to Python, but not a threshold
        {"stop_loss_threshold": "1e-3"},
        {"minibatch_size": True},  # a bool is an int to Python, but not a batch size
        {"local_epochs": True},
        {"max_global_iters": True},
    ],
)
def test_fed_config_validation(kwargs):
    field = next(iter(kwargs))
    with pytest.raises(ConfigError, match=f"^{field}: "):
        FedConfig(schedule=LrSchedule(0.1), **kwargs)


def _reference_two_head_update(model, feats, labels, unlabeled, lr, cfg, rng):
    """A two-head local update from nn.grad and a single-model nn._discrepancy_grad, one client at a time."""
    arch, params = model.arch, model.params
    n, pool, size = len(labels), len(unlabeled), cfg.minibatch_size
    for _ in range(cfg.local_epochs):
        if size is None or size >= n:
            batches = [np.arange(n)]
        else:
            perm = rng.permutation(n)
            batches = [perm[i:i + size] for i in range(0, n, size)]
        u_perm = rng.permutation(pool) if size is not None and size < pool else None
        for step, batch in enumerate(batches):
            g = grad(Model(arch, params), feats[batch], labels[batch], rng)
            if pool:
                rows = unlabeled
                if u_perm is not None:
                    rows = unlabeled[u_perm[np.arange(step * size, (step + 1) * size) % pool]]
                g = g + nn_module._discrepancy_grad(nn_module.Workspace(arch), params, rows)
            params = descend(params, g, lr)
    return params, None


def _reference_train(ds, pools, init, cfg, stream, two_heads=False):
    """fed._train's contract as a per-client loop of a reference update, nn.loss and weighted_average.

    Returns (params, loss trace, stopped_by).
    """
    arch = init.arch
    clients = [(p.client_id, *gather(ds, p.labeled), ds.features[p.unlabeled]) for p in pools if p.labeled]
    counts = [len(labels) for _, _, labels, _ in clients]
    weights = [count / float(sum(counts)) for count in counts]
    params, trace = init.params.copy(), []
    for t in range(1, cfg.max_global_iters + 1):
        updated, total = [], 0.0
        for (client_id, feats, labels, unlabeled), weight in zip(clients, weights):
            model, lr = Model(arch, params), cfg.schedule.lr(t)
            if two_heads:
                new, start_loss = _reference_two_head_update(model, feats, labels, unlabeled, lr, cfg,
                                                             stream(client_id, t))
            else:
                new, start_loss = _reference_update(model, feats, labels, lr, cfg, stream(client_id, t))
            updated.append(new)
            total += weight * (loss(model, feats, labels) if start_loss is None else start_loss)
        if t > 1:
            trace.append(total)
            if total < cfg.stop_loss_threshold:
                break
        params = updated[0] if len(updated) == 1 else weighted_average(updated, counts)
    else:
        total = 0.0
        for (_, feats, labels, _), weight in zip(clients, weights):
            total += weight * loss(Model(arch, params), feats, labels)
        trace.append(total)
    return params, tuple(trace), "threshold" if trace[-1] < cfg.stop_loss_threshold else "cap"


# name: (architecture kwargs, FedConfig kwargs, labeled counts per client; 0 is a client without labels)
STACKED_CASES = {
    "full-batch": ({}, {}, (6, 6, 6)),
    "minibatch-dropout": ({"dropout_rate": 0.2}, {"minibatch_size": 4}, (6, 6, 6)),
    "two-epochs": ({"dropout_rate": 0.2}, {"local_epochs": 2, "minibatch_size": 4}, (6, 6, 6)),
    "two-heads": ({"head_count": 2, "activation": "tanh"}, {"minibatch_size": 4}, (6, 6, 6)),
    "two-groups": ({"dropout_rate": 0.2}, {"minibatch_size": 4}, (5, 7, 0, 5)),
    "one-client": ({"dropout_rate": 0.2}, {"minibatch_size": 4}, (7,)),
}


def _counted_pools(counts):
    """Client m holds ``counts[m]`` labeled rows, taken in order, and one unlabeled row."""
    pools, start = [], 0
    for client, count in enumerate(counts):
        pools.append(ClientPools(client_id=client, unlabeled=[start + count],
                                 labeled=list(range(start, start + count))))
        start += count + 1
    return pools


def _assert_same_run(report, reference):
    params, trace, stopped_by = reference
    assert report.final_model.params.tobytes() == params.tobytes()
    assert [np.float64(v).tobytes() for v in report.loss_trace] == [np.float64(v).tobytes() for v in trace]
    assert report.global_iters_used == len(trace)
    assert report.stopped_by == stopped_by


@pytest.mark.parametrize("case", sorted(STACKED_CASES))
@pytest.mark.parametrize("threshold", [1e-9, 0.3])  # the cap, then mostly early stops
@pytest.mark.parametrize("iters", [1, 8])  # at a cap of one the cap's loss pass follows the first update
def test_fedavg_and_independent_training_equal_a_per_client_loop_byte_for_byte(case, threshold, iters,
                                                                               monkeypatch):
    arch_kwargs, cfg_kwargs, counts = STACKED_CASES[case]
    pools = _counted_pools(counts)
    ds = _dataset(sum(counts) + len(counts), classes=3, seed=len(counts))
    arch = MlpArchitecture((2, 5, 3), **arch_kwargs)
    init = Model(arch, init_params(arch, 4) * 2.0)
    cfg = FedConfig(schedule=LrSchedule(0.5, 0.95), stop_loss_threshold=threshold, max_global_iters=iters,
                    **cfg_kwargs)
    built = _counting(monkeypatch, nn_module, "Workspace")
    report = fedavg(ds, pools, init, cfg, seed=6)
    assert len(built) == len({count for count in counts if count})  # one workspace per group
    _assert_same_run(report, _reference_train(ds, pools, init, cfg, lambda m, t: rng_for(6, "local", m, t)))
    for client in (m for m, count in enumerate(counts) if count):
        built.clear()
        report = independent_train(ds, pools, client, init, cfg, seed=6)
        assert len(built) == 1
        stream = rng_for(6, client)
        _assert_same_run(report, _reference_train(ds, [pools[client]], init, cfg, lambda m, t: stream))


# name: (architecture kwargs, FedConfig kwargs, labeled and unlabeled counts per client, groups)
TWO_HEAD_CASES = {
    "minibatch-dropout": ({"dropout_rate": 0.2}, {"minibatch_size": 16}, (20, 20, 20), (30, 25, 40), 1),
    "full-batch-pools-differ": ({}, {}, (6, 6, 0, 6, 7), (4, 5, 3, 4, 4), 3),
    "pool-within-a-minibatch": ({"dropout_rate": 0.2}, {"minibatch_size": 4}, (6, 6, 6), (9, 4, 9), 2),
    "empty-pool": ({"dropout_rate": 0.2}, {"minibatch_size": 4}, (6, 6, 6), (9, 0, 9), 2),
    "two-epochs": ({"dropout_rate": 0.2}, {"local_epochs": 2, "minibatch_size": 4}, (6, 6, 6), (9, 7, 5), 1),
}


def _two_head_pools(labeled, unlabeled):
    """Client m holds ``labeled[m]`` labeled rows, then ``unlabeled[m]`` unlabeled rows, taken in order."""
    pools, start = [], 0
    for client, (count, pool) in enumerate(zip(labeled, unlabeled)):
        pools.append(ClientPools(client_id=client, labeled=list(range(start, start + count)),
                                 unlabeled=list(range(start + count, start + count + pool))))
        start += count + pool
    return pools


@pytest.mark.parametrize("case", sorted(TWO_HEAD_CASES))
@pytest.mark.parametrize("threshold", [1e-9, 0.55])  # the cap, then some early stops
def test_two_head_runs_equal_a_per_client_loop_byte_for_byte(case, threshold, monkeypatch):
    arch_kwargs, cfg_kwargs, labeled, unlabeled, group_count = TWO_HEAD_CASES[case]
    pools = _two_head_pools(labeled, unlabeled)
    ds = _dataset(sum(labeled) + sum(unlabeled), classes=3, seed=len(labeled))
    arch = MlpArchitecture((2, 5, 3), activation="tanh", head_count=2, **arch_kwargs)
    init = Model(arch, init_params(arch, 4) * 2.0)
    cfg = FedConfig(schedule=LrSchedule(0.5, 0.95), stop_loss_threshold=threshold, max_global_iters=8,
                    **cfg_kwargs)
    built = _counting(monkeypatch, nn_module, "Workspace")
    runs = [("fedavg", [m for m, count in enumerate(labeled) if count])]
    runs += [("independent", [m]) for m, count in enumerate(labeled) if count]
    stops = []
    for runner, clients in runs:
        built.clear()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if runner == "fedavg":
                report = fedavg(ds, pools, init, cfg, seed=6, local_fn=train_discrepancy_heads)
                stream = lambda m, t: rng_for(6, "local", m, t)  # noqa: E731
            else:
                report = independent_train(ds, pools, clients[0], init, cfg, seed=6,
                                           local_fn=train_discrepancy_heads)
                stream = (lambda rng: lambda m, t: rng)(rng_for(6, clients[0]))
        assert len(built) == (group_count if runner == "fedavg" else 1)  # one workspace per group and run
        assert bool(caught) == any(unlabeled[m] == 0 for m in clients)  # the empty pool still warns
        assert all("no unlabeled data" in str(w.message) for w in caught)
        reference = _reference_train(ds, [pools[m] for m in clients], init, cfg, stream, two_heads=True)
        _assert_same_run(report, reference)
        stops.append(report.stopped_by)
    assert ("threshold" in stops) == (threshold > 1e-3)


@pytest.mark.parametrize("threshold,stopped_by", [(1e-9, "cap"), (10.0, "threshold")])
def test_deterministic_two_head_runs_take_a_loss_pass_only_at_the_cap(threshold, stopped_by, monkeypatch):
    # Full batches and no dropout: each update's first gradient gives its start loss, two heads or one.
    _, _, labeled, unlabeled, group_count = TWO_HEAD_CASES["full-batch-pools-differ"]
    pools = _two_head_pools(labeled, unlabeled)
    ds = _dataset(sum(labeled) + sum(unlabeled), classes=3, seed=len(labeled))
    arch = MlpArchitecture((2, 5, 3), activation="tanh", head_count=2)
    init = Model(arch, init_params(arch, 4) * 2.0)
    cfg = FedConfig(schedule=LrSchedule(0.5, 0.95), stop_loss_threshold=threshold, max_global_iters=8)
    passes = _counting(monkeypatch, nn_module, "_loss")
    report = fedavg(ds, pools, init, cfg, seed=6, local_fn=train_discrepancy_heads)
    assert report.stopped_by == stopped_by
    assert len(passes) == (group_count if stopped_by == "cap" else 0)  # one per group at the cap
    for client in (m for m, count in enumerate(labeled) if count):
        passes.clear()
        report = independent_train(ds, pools, client, init, cfg, seed=6, local_fn=train_discrepancy_heads)
        assert report.stopped_by == stopped_by
        assert len(passes) == (1 if stopped_by == "cap" else 0)


# -- a large group as two halves on two threads --------------------------------------------

def _allow_split(monkeypatch, rows=1, cores=2):
    """Split every plain group whose smaller half's step holds ``rows`` rows, as if on ``cores`` cores."""
    monkeypatch.setattr(fed_module, "_SPLIT_ROWS", rows)
    monkeypatch.setattr(fed_module, "_usable_cores", lambda: cores)


class _DrawSpy:
    """A stream that records the thread of each draw, then draws from the stream it wraps."""

    def __init__(self, stream, draws, serial):
        self._stream, self._draws, self._serial = stream, draws, serial

    def random(self, *args, **kwargs):
        self._draws.append((self._serial, threading.get_ident()))
        return self._stream.random(*args, **kwargs)

    def permutation(self, *args, **kwargs):
        self._draws.append((self._serial, threading.get_ident()))
        return self._stream.permutation(*args, **kwargs)


def _thread_spies(monkeypatch):
    """Record the thread and stack size of each fed._local_update call, and each stream's maker and draws."""
    updates, made, draws = [], [], []
    update, make = fed_module._local_update, fed_module.rng_for

    def spy_update(ws, params, x, y, lr, cfg, rng, unlabeled=None):
        updates.append((threading.get_ident(), ws.clients))
        return update(ws, params, x, y, lr, cfg, rng, unlabeled)

    def spy_rng_for(*key):
        made.append(threading.get_ident())
        return _DrawSpy(make(*key), draws, len(made))

    monkeypatch.setattr(fed_module, "_local_update", spy_update)
    monkeypatch.setattr(fed_module, "rng_for", spy_rng_for)
    return updates, made, draws


def _no_worker(*_):
    raise AssertionError("a worker thread was started")


# name: (architecture kwargs, FedConfig kwargs, labeled counts per client)
SPLIT_CASES = {
    "two-lone-halves": ({}, {}, (6, 6)),
    "three": ({}, {}, (6, 6, 6)),
    "five": ({}, {}, (6, 6, 6, 6, 6)),
    "five-beside-a-lone-client": ({}, {}, (6, 5, 6, 0, 6, 6, 6)),
    "dropout-full-batch": ({"dropout_rate": 0.2}, {}, (6, 6, 6)),
    "minibatch-dropout": ({"dropout_rate": 0.2}, {"minibatch_size": 16}, (20, 20, 20, 20, 20)),
    "minibatch-two-split-groups": ({"dropout_rate": 0.2}, {"minibatch_size": 4}, (6, 6, 6, 6, 9, 9, 9, 9, 5)),
}


def _split_world(case, threshold, iters=8):
    arch_kwargs, cfg_kwargs, counts = SPLIT_CASES[case]
    pools = _counted_pools(counts)
    ds = _dataset(sum(counts) + len(counts), classes=3, seed=len(counts))
    arch = MlpArchitecture((2, 5, 3), **arch_kwargs)
    init = Model(arch, init_params(arch, 4) * 2.0)
    cfg = FedConfig(schedule=LrSchedule(0.5, 0.95), stop_loss_threshold=threshold, max_global_iters=iters,
                    **cfg_kwargs)
    return ds, pools, init, cfg


@pytest.mark.parametrize("case", sorted(SPLIT_CASES))
@pytest.mark.parametrize("threshold", [1e-9, 0.3])  # the cap, then early stops
def test_a_split_group_equals_a_per_client_loop_byte_for_byte(case, threshold, monkeypatch):
    ds, pools, init, cfg = _split_world(case, threshold)
    _allow_split(monkeypatch)
    updates, made, draws = _thread_spies(monkeypatch)
    threads = threading.active_count()
    report = fedavg(ds, pools, init, cfg, seed=6)
    assert threading.active_count() == threads  # the worker is joined
    reference = _reference_train(ds, pools, init, cfg, lambda m, t: rng_for(6, "local", m, t))
    _assert_same_run(report, reference)
    main = threading.get_ident()
    workers = {ident for ident, _ in updates} - {main}
    assert len(workers) == 1  # one worker per run
    counts = [count for count in SPLIT_CASES[case][2] if count]
    split = max(counts, key=counts.count)
    half = counts.count(split) // 2
    # The worker runs the split group's first M // 2 members: one member on its own 2-D pair.
    assert {clients for ident, clients in updates if ident in workers} == {None if half == 1 else half}
    made_by = {main} if any(fed_module._update_draws(init.arch, cfg, count) for count in counts) else set()
    assert set(made) == made_by  # streams are made on the main thread
    drawn_by = {}
    for stream, ident in draws:
        drawn_by.setdefault(stream, set()).add(ident)
    assert all(len(idents) == 1 for idents in drawn_by.values())  # and drawn by one thread only
    assert (workers in drawn_by.values()) == fed_module._update_draws(init.arch, cfg, split)


@pytest.mark.parametrize("threshold", [1e-9, 0.3])
@pytest.mark.parametrize("iters", [1, 8])  # a cap of one takes 2 jobs: the update, then the loss pass
def test_each_iteration_hands_every_worker_group_to_one_job(threshold, iters, monkeypatch):
    ds, pools, init, cfg = _split_world("minibatch-two-split-groups", threshold, iters)
    _allow_split(monkeypatch)
    updates, _, _ = _thread_spies(monkeypatch)
    jobs, executor = [], concurrent.futures.ThreadPoolExecutor

    class SubmitSpy(executor):
        def submit(self, fn, *args, **kwargs):
            jobs.append(fn)
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SubmitSpy)
    report = fedavg(ds, pools, init, cfg, seed=6)
    _assert_same_run(report, _reference_train(ds, pools, init, cfg, lambda m, t: rng_for(6, "local", m, t)))
    workers = {ident for ident, _ in updates} - {threading.get_ident()}
    assert len(workers) == 1
    # Iteration k + 1 reports the loss after update k, and a run that reaches the cap takes one more pass.
    assert len(jobs) == report.global_iters_used + 1
    # Both split groups' first halves, two clients each, run in every iteration's one job.
    iterations = min(report.global_iters_used + 1, cfg.max_global_iters)
    assert [clients for ident, clients in updates if ident in workers] == [2, 2] * iterations


def test_a_split_run_is_the_same_under_a_tiny_switch_interval(monkeypatch):
    ds, pools, init, cfg = _split_world("minibatch-dropout", 1e-9)
    _allow_split(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        report = fedavg(ds, pools, init, cfg, seed=6)
    finally:
        sys.setswitchinterval(interval)
    _assert_same_run(report, _reference_train(ds, pools, init, cfg, lambda m, t: rng_for(6, "local", m, t)))


@pytest.mark.parametrize("case,rows,cores,splits", [
    ("five", 12, 2, True),                # the smaller half holds 2 x 6 rows
    ("five", 13, 2, False),
    ("five", 1, 1, False),                # one usable core
    ("minibatch-dropout", 32, 2, True),   # a step holds 16 rows per member
    ("minibatch-dropout", 33, 2, False),
    ("five", fed_module._SPLIT_ROWS, 2, False),
])
def test_no_thread_starts_with_one_usable_core_or_below_the_row_rule(case, rows, cores, splits,
                                                                     monkeypatch):
    ds, pools, init, cfg = _split_world(case, 1e-9)
    _allow_split(monkeypatch, rows, cores)
    updates, _, _ = _thread_spies(monkeypatch)
    if not splits:
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _no_worker)
    report = fedavg(ds, pools, init, cfg, seed=6)
    _assert_same_run(report, _reference_train(ds, pools, init, cfg, lambda m, t: rng_for(6, "local", m, t)))
    assert ({ident for ident, _ in updates} != {threading.get_ident()}) == splits


def test_two_head_runs_never_split(monkeypatch):
    pools = _two_head_pools((20, 20, 20, 20), (30, 25, 40, 30))
    ds = _dataset(235, classes=3, seed=4)
    arch = MlpArchitecture((2, 5, 3), activation="tanh", head_count=2)
    cfg = FedConfig(schedule=LrSchedule(0.5, 0.95), max_global_iters=3)
    _allow_split(monkeypatch)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _no_worker)
    fedavg(ds, pools, _init(arch), cfg, seed=6, local_fn=train_discrepancy_heads)


def test_usable_cores_falls_back_to_the_cpu_count(monkeypatch):
    assert fed_module._usable_cores() >= 1
    monkeypatch.delattr(fed_module.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(fed_module.os, "cpu_count", lambda: None)
    assert fed_module._usable_cores() == 1


@pytest.mark.parametrize("failing", ["worker", "main"])
def test_a_failing_half_raises_from_fedavg_and_leaves_no_thread(failing, monkeypatch):
    ds, pools, init, cfg = _split_world("five", 1e-9)
    _allow_split(monkeypatch)
    update, main = fed_module._local_update, threading.get_ident()

    def failing_update(ws, params, x, y, lr, cfg, rng, unlabeled=None):
        if (threading.get_ident() == main) == (failing == "main"):
            raise RuntimeError(f"the {failing} half failed")
        return update(ws, params, x, y, lr, cfg, rng, unlabeled)

    monkeypatch.setattr(fed_module, "_local_update", failing_update)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match=f"^the {failing} half failed$"):
        fedavg(ds, pools, init, cfg, seed=6)
    assert threading.active_count() == threads


# -- a diverging run fails loudly --------------------------------------------------------

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def test_a_diverging_desk_run_fails_loudly_and_names_its_run():
    cfg = parse_config_file(CONFIG_DIR / "desk_blobs.yaml", {"fl": {"lr": 5000.0, "max_global_iters": 30}})
    with pytest.raises(InvalidStateError, match=r"^run \(8, 'train-task'\) on clients \[0, 1, 2\] diverged: "
                                                r"the loss after iteration 30 \(rate 4582\.78\d*\) is "
                                                r"1\.767\d*e\+222, against 2395193\.9\d* after the first$"):
        harness.run_experiment(cfg)


@pytest.mark.parametrize("runner", ["fedavg", "independent_train"])
def test_a_plain_run_that_ends_above_its_first_loss_raises(runner):
    ds, pools, init = _dataset(20), _full_pools(20, 2), _init(MlpArchitecture((2, 6, 2)))

    def run(lr):
        cfg = FedConfig(schedule=LrSchedule(lr), stop_loss_threshold=1e-9, max_global_iters=6)
        if runner == "fedavg":
            return fedavg(ds, pools, init, cfg, seed=1)
        return independent_train(ds, pools, 0, init, cfg, seed=(1, "x"))

    named = r"run 1 on clients \[0, 1\]" if runner == "fedavg" else r"run \(1, 'x'\) on clients \[0\]"
    with pytest.raises(InvalidStateError, match=rf"^{named} diverged: the loss after iteration 6 \(rate 20\.0\)"):
        run(20.0)
    report = run(5.0)
    assert report.loss_trace[-1] < report.loss_trace[0]


def _two_head_run(lr, init_scale=2.0):
    arch_kwargs, cfg_kwargs, labeled, unlabeled, _ = TWO_HEAD_CASES["minibatch-dropout"]
    ds = _dataset(sum(labeled) + sum(unlabeled), classes=3, seed=len(labeled))
    arch = MlpArchitecture((2, 5, 3), activation="tanh", head_count=2, **arch_kwargs)
    cfg = FedConfig(schedule=LrSchedule(lr, 0.95), stop_loss_threshold=1e-9, max_global_iters=8, **cfg_kwargs)
    init = Model(arch, init_params(arch, 4) * init_scale)
    return fedavg(ds, _two_head_pools(labeled, unlabeled), init, cfg, seed=6, local_fn=train_discrepancy_heads)


def test_a_two_head_run_whose_cross_entropy_rises_is_not_a_divergence():
    # Two-head training descends cross-entropy minus the heads' disagreement.
    report = _two_head_run(2.0)
    assert report.loss_trace[-1] > report.loss_trace[0]
    assert all(np.isfinite(report.loss_trace))


def test_a_two_head_run_with_a_loss_that_is_not_finite_raises():
    with pytest.raises(InvalidStateError, match=r"^run 6 on clients \[0, 1, 2\] diverged: the loss after "
                                                r"iteration 1 \(rate 2\.0\) is nan, against nan after the first$"):
        _two_head_run(2.0, init_scale=np.nan)


@pytest.mark.parametrize("runner", ["fedavg", "independent_train"])
def test_the_report_says_whether_the_threshold_or_the_cap_stopped_the_run(runner):
    ds, pools = _dataset(21, seed=3), _full_pools(21, clients=2)
    init = _init(MlpArchitecture((2, 6, 2)))

    def run(threshold, cap):
        cfg = FedConfig(schedule=LrSchedule(0.5, 0.99), stop_loss_threshold=threshold, max_global_iters=cap)
        if runner == "fedavg":
            return fedavg(ds, pools, init, cfg, seed=2)
        return independent_train(ds, pools, 1, init, cfg, seed=2)

    capped = run(1e-9, 30)
    assert (capped.stopped_by, capped.global_iters_used) == ("cap", 30)
    early = run(0.4, 30)
    assert early.stopped_by == "threshold"
    assert early.global_iters_used < 30 and early.loss_trace[-1] < 0.4
    # With the cap at the update that meets the threshold, the run is the early stop itself.
    at_cap = run(0.4, early.global_iters_used)
    assert at_cap.stopped_by == "threshold"
    assert at_cap.loss_trace == early.loss_trace
    assert at_cap.final_model.params.tobytes() == early.final_model.params.tobytes()


# -- independent training ----------------------------------------------------------

def test_independent_train_equals_single_client_fedavg_on_full_batches():
    ds = _dataset(14, seed=6)
    pools = _full_pools(14, clients=1)
    arch = MlpArchitecture((2, 5, 2))
    init = _init(arch)
    cfg = FedConfig(schedule=LrSchedule(0.25, 0.99), stop_loss_threshold=0.03,
                    max_global_iters=60)
    # full-batch runs consume no randomness, so the seeds may even differ
    ind = independent_train(ds, pools, 0, init, cfg, seed=5)
    fed = fedavg(ds, pools, init, cfg, seed=99)
    assert np.array_equal(ind.final_model.params, fed.final_model.params)
    assert ind.loss_trace == fed.loss_trace
    assert ind.global_iters_used == fed.global_iters_used


def test_independent_train_requires_labels():
    ds = _dataset(8)
    pools = [ClientPools(client_id=0, unlabeled=list(range(8)), labeled=[])]
    cfg = FedConfig(schedule=LrSchedule(0.1))
    with pytest.raises(InvalidStateError):
        independent_train(ds, pools, 0, _init(MlpArchitecture((2, 2))), cfg, seed=0)


@pytest.mark.parametrize("client", [True, -1, 2, 1.0, np.int64(-1)])
def test_independent_train_rejects_bad_client_indices(client):
    cfg = FedConfig(schedule=LrSchedule(0.1))
    with pytest.raises(ConfigError, match=r"^client: must be an int in \[0, 2\), got " + re.escape(repr(client)) + "$"):
        independent_train(_dataset(12), _full_pools(12, clients=2), client, _init(MlpArchitecture((2, 2))),
                          cfg, seed=0)


def test_independent_train_is_reproducible_with_minibatches():
    ds = _dataset(16, seed=8)
    pools = _full_pools(16, clients=1)
    cfg = FedConfig(schedule=LrSchedule(0.2), minibatch_size=4,
                    stop_loss_threshold=1e-6, max_global_iters=8)
    init = _init(MlpArchitecture((2, 4, 2)))
    a = independent_train(ds, pools, 0, init, cfg, seed=3)
    b = independent_train(ds, pools, 0, init, cfg, seed=3)
    assert np.array_equal(a.final_model.params, b.final_model.params)


def test_independent_train_runs_local_epochs_per_iteration_on_one_stream():
    ds = _dataset(16, seed=8)
    pools = _full_pools(16, clients=1)
    two = FedConfig(schedule=LrSchedule(0.2, 0.9), local_epochs=2, minibatch_size=4,
                    stop_loss_threshold=1e-9, max_global_iters=3)
    one = FedConfig(schedule=LrSchedule(0.2, 0.9), local_epochs=1, minibatch_size=4)
    arch = MlpArchitecture((2, 4, 2))
    init = _init(arch)
    report = independent_train(ds, pools, 0, init, two, seed=(3, "independent"))
    feats, labels = gather(ds, pools[0].labeled)
    rng = rng_for(3, "independent", 0)
    params = init.params
    for t in range(1, 4):
        for _ in range(2):
            params, _ = _plain_update(Model(arch, params), feats, labels, two.schedule.lr(t), one, rng)
    assert report.global_iters_used == 3
    assert np.array_equal(report.final_model.params, params)


# -- evaluation ---------------------------------------------------------------------

def test_evaluate_perfect_separator_scores_one():
    feats = np.array([[-2.0, 0.3], [-1.5, -0.2], [1.8, 0.1], [2.2, -0.4]])
    labels = np.array([0, 0, 1, 1])
    test = Dataset(feats, labels, 2)
    arch = MlpArchitecture((2, 2))
    # logits = x @ w + b with w rows per input: predict class 1 iff x0 > 0
    params = np.array([-5.0, 5.0, 0.0, 0.0, 0.0, 0.0])
    assert evaluate(Model(arch, params), test) == 1.0


def test_evaluate_constant_wrong_model_scores_zero():
    feats = np.random.default_rng(0).normal(size=(6, 2))
    test = Dataset(feats, np.zeros(6, dtype=np.int64), 2)
    arch = MlpArchitecture((2, 2))
    params = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 10.0])  # always predicts class 1
    assert evaluate(Model(arch, params), test) == 0.0


def test_evaluate_zero_model_reports_the_class_zero_share():
    # uniform probabilities tie on every row and argmax resolves to class 0
    feats = np.zeros((10, 2))
    labels = np.array([0] * 4 + [1] * 3 + [2] * 3)
    test = Dataset(feats, labels, 3)
    arch = MlpArchitecture((2, 3))
    model = Model(arch, np.zeros(arch.param_count))
    assert evaluate(model, test) == 0.4

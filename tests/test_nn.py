"""Unit tests for the dense-network engine (forward/loss/grad/SGD/init)."""

from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fedal import fed, nn, strategies
from fedal.data import ClientPools, synth_blobs
from fedal.errors import ConfigError, EmptyInputError, ShapeError
from fedal.nn import (
    LrSchedule,
    MlpArchitecture,
    Model,
    forward,
    grad,
    hidden_features,
    init_params,
    loss,
)

from conftest import descend

Array = np.ndarray


def _random_model(seed, sizes=(3, 5, 4), activation="relu", dropout=0.0, heads=1, scale=1.0):
    arch = MlpArchitecture(sizes, activation=activation, dropout_rate=dropout, head_count=heads)
    params = np.random.default_rng(seed).normal(scale=scale, size=arch.param_count)
    return Model(arch, params)


def _central_fd(model, feats, labels, h=1e-5):
    base = model.params
    out = np.zeros_like(base)
    for i in range(base.size):
        up = base.copy()
        up[i] += h
        down = base.copy()
        down[i] -= h
        out[i] = (
            loss(Model(model.arch, up), feats, labels)
            - loss(Model(model.arch, down), feats, labels)
        ) / (2 * h)
    return out


# -- architecture / parameter layout ---------------------------------------

def test_param_count_is_a_pure_function_of_the_architecture():
    arch = MlpArchitecture((3, 5, 4, 2))
    assert arch.param_count == (3 * 5 + 5) + (5 * 4 + 4) + (4 * 2 + 2)
    assert MlpArchitecture((3, 5, 4, 2)).param_count == arch.param_count
    two_head = MlpArchitecture((3, 5, 4, 2), head_count=2)
    assert two_head.param_count == arch.param_count + (4 * 2 + 2)


def test_param_blocks_tile_the_flat_vector():
    arch = MlpArchitecture((4, 6, 3), head_count=2)
    layout = arch.layout
    assert [block.shape for block in layout.hidden] == [(4, 6)]
    assert [block.shape for block in layout.heads] == [(6, 3), (6, 3)]
    offset = 0
    for block in (*layout.hidden, *layout.heads):
        assert block.w.start == offset
        assert block.w.stop - block.w.start == int(np.prod(block.shape))
        assert block.b == slice(block.w.stop, block.w.stop + block.shape[1])
        offset = block.b.stop
    assert offset == layout.size == arch.param_count


@pytest.mark.parametrize(
    "kwargs",
    [
        {"layer_sizes": (3,)},
        {"layer_sizes": (3, 0)},
        {"layer_sizes": (3, 2), "activation": "selu"},
        {"layer_sizes": (3, 2), "dropout_rate": 1.0},
        {"layer_sizes": (3, 2), "head_count": 0},
        {"layer_sizes": (2.7, 2)},  # not truncated to 2
        {"layer_sizes": (3, True)},  # a bool is an int to Python, not a size
        {"layer_sizes": (3, 2.0)},
        {"layer_sizes": (3, 2), "dropout_rate": False},  # a bool is a number to Python, not a rate
        {"layer_sizes": (3, 2), "dropout_rate": "0.1"},
    ],
)
def test_architecture_validation(kwargs):
    with pytest.raises(ConfigError, match="^(layer_sizes|activation|dropout_rate|head_count): "):
        MlpArchitecture(**kwargs)


def test_architecture_takes_numpy_integer_sizes_as_ints():
    arch = MlpArchitecture((np.int64(3), 5, np.int32(2)))
    assert arch.layer_sizes == (3, 5, 2)
    assert all(type(size) is int for size in arch.layer_sizes)


def test_architecture_takes_a_numpy_dropout_rate_as_a_float():
    arch = MlpArchitecture((3, 2), dropout_rate=np.float32(0.1))
    assert type(arch.dropout_rate) is float
    assert arch.dropout_rate == float(np.float32(0.1))


def test_architecture_head_count_rejects_a_bool_and_names_the_field():
    with pytest.raises(ConfigError, match="^head_count: "):
        MlpArchitecture((3, 2), head_count=True)


def test_model_rejects_wrong_parameter_shapes():
    arch = MlpArchitecture((2, 3))
    with pytest.raises(ShapeError):
        Model(arch, np.zeros(arch.param_count + 1))
    with pytest.raises(ShapeError):
        Model(arch, np.zeros((3, 3)))


# -- forward ----------------------------------------------------------------

def test_zero_weight_model_predicts_uniformly():
    arch = MlpArchitecture((2, 4, 5), head_count=2)
    model = Model(arch, np.zeros(arch.param_count))
    for probs in forward(model, np.array([[0.7, -1.2]])):
        assert probs.shape == (1, 5)
        assert np.allclose(probs, 1 / 5, atol=1e-15)
        assert len(set(probs[0])) == 1


@given(seed=st.integers(0, 2_000))
def test_probabilities_are_normalized(seed):
    model = _random_model(seed, heads=2, scale=3.0)
    x = np.random.default_rng(seed + 1).normal(size=(7, 3))
    for probs in forward(model, x):
        assert probs.shape == (7, 4)
        assert np.all(probs >= 0)
        assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-9


def test_forward_one_row_batch_matches_batch_row():
    model = _random_model(3)
    x = np.random.default_rng(5).normal(size=(4, 3))
    batch = forward(model, x)[0]
    single = forward(model, x[2:3])[0]
    assert single.shape == (1, 4)
    assert np.allclose(single[0], batch[2], rtol=1e-12, atol=1e-15)


def test_forward_is_deterministic_and_ignores_rng_without_dropout():
    model = _random_model(7)
    x = np.random.default_rng(0).normal(size=(5, 3))
    a = forward(model, x)[0]
    b = forward(model, x)[0]
    c = forward(model, x, np.random.default_rng(123))[0]
    assert np.array_equal(a, b)
    assert np.array_equal(a, c)


def test_dropout_masks_come_from_the_supplied_stream():
    model = _random_model(9, dropout=0.4)
    x = np.random.default_rng(1).normal(size=(6, 3))
    a = forward(model, x, np.random.default_rng(42))[0]
    b = forward(model, x, np.random.default_rng(42))[0]
    c = forward(model, x, np.random.default_rng(43))[0]
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_forward_rejects_bad_input_shapes():
    model = _random_model(2)
    with pytest.raises(ShapeError):
        forward(model, np.zeros(4))
    with pytest.raises(ShapeError):
        forward(model, np.zeros((2, 2, 3)))
    for one_d in (forward, hidden_features):  # a single vector is not a batch
        with pytest.raises(ShapeError, match="2-D"):
            one_d(model, np.zeros(3))


def test_hidden_features_are_the_head_inputs():
    # without hidden layers the heads consume the raw features
    arch = MlpArchitecture((3, 2))
    model = Model(arch, np.arange(arch.param_count, dtype=np.float64))
    x = np.array([[0.5, -1.0, 2.0]])
    assert np.array_equal(hidden_features(model, x), x)

    arch2 = MlpArchitecture((2, 3, 2))
    params = init_params(arch2, 0)
    w = params[0:6].reshape(2, 3)
    b = params[6:9]
    x2 = np.array([[1.0, -2.0], [0.3, 0.4]])
    expected = np.maximum(x2 @ w + b, 0.0)
    assert np.allclose(hidden_features(Model(arch2, params), x2), expected, atol=1e-15)


def test_two_heads_share_the_trunk_and_fork_at_the_output():
    arch = MlpArchitecture((3, 5, 2), head_count=2)
    params = np.random.default_rng(8).normal(size=arch.param_count)
    head0, head1 = arch.layout.heads
    params[head1.w], params[head1.b] = params[head0.w], params[head0.b]
    head_a, head_b = forward(Model(arch, params), np.random.default_rng(9).normal(size=(6, 3)))
    assert np.array_equal(head_a, head_b)


# -- loss --------------------------------------------------------------------

def test_loss_of_uniform_predictions_is_log_class_count():
    arch = MlpArchitecture((2, 6), head_count=2)
    model = Model(arch, np.zeros(arch.param_count))
    feats = np.random.default_rng(0).normal(size=(9, 2))
    labels = np.arange(9) % 6
    assert loss(model, feats, labels) == pytest.approx(np.log(6), abs=1e-12)


def test_loss_half_half_single_example_is_log_two():
    arch = MlpArchitecture((1, 2))
    model = Model(arch, np.zeros(arch.param_count))
    assert loss(model, np.array([[3.0]]), np.array([0])) == pytest.approx(np.log(2), abs=1e-15)


def test_loss_is_zero_on_a_saturated_correct_prediction():
    arch = MlpArchitecture((1, 2))
    model = Model(arch, np.array([1e4, -1e4, 0.0, 0.0]))  # huge logit gap -> exact one-hot
    assert loss(model, np.array([[1.0], [1.0]]), np.array([0, 0])) == 0.0


def test_loss_matches_hand_computed_softmax():
    arch = MlpArchitecture((1, 2))
    model = Model(arch, np.array([0.0, 0.0, np.log(3.0), 0.0]))  # probs (0.75, 0.25)
    value = loss(model, np.array([[0.0]]), np.array([1]))
    assert value == pytest.approx(-np.log(0.25), rel=1e-12)


def test_loss_input_validation():
    model = _random_model(1)
    with pytest.raises(EmptyInputError):
        loss(model, np.empty((0, 3)), np.empty(0, dtype=np.int64))
    with pytest.raises(ShapeError):
        loss(model, np.zeros((2, 3)), np.array([0, 4]))  # label out of range
    with pytest.raises(ShapeError):
        loss(model, np.zeros((2, 3)), np.array([0.5, 0.5]))  # non-integer labels
    with pytest.raises(ShapeError):
        loss(model, np.zeros((2, 3)), np.array([0]))  # row/label count mismatch


# -- gradient ----------------------------------------------------------------

def test_gradient_is_exactly_zero_for_balanced_labels_at_zero_params():
    # Four classes at zero weights: p = 1/4 exactly, so the per-class bias
    # gradient sums of (1/4 - one_hot)/4 cancel exactly over a balanced batch.
    arch = MlpArchitecture((2, 4))
    model = Model(arch, np.zeros(arch.param_count))
    g = grad(model, np.zeros((4, 2)), np.arange(4))
    assert np.array_equal(g, np.zeros_like(g))


def test_gradient_vanishes_at_an_exact_fit():
    arch = MlpArchitecture((1, 2))
    model = Model(arch, np.array([1e4, -1e4, 0.0, 0.0]))
    g = grad(model, np.array([[1.0], [1.0]]), np.array([0, 0]))
    assert np.max(np.abs(g)) < 1e-9


def test_gradient_matches_central_finite_differences():
    model = _random_model(11, sizes=(3, 6, 3), activation="tanh", scale=0.8)
    rng = np.random.default_rng(2)
    feats = rng.normal(size=(5, 3))
    labels = rng.integers(0, 3, size=5)
    g = grad(model, feats, labels)
    fd = _central_fd(model, feats, labels)
    rel = np.abs(g - fd) / np.maximum(np.abs(fd), 1e-6)
    assert np.max(rel) < 1e-4


def test_gradient_is_duplication_invariant():
    model = _random_model(13, sizes=(2, 4, 3))
    rng = np.random.default_rng(4)
    feats = rng.normal(size=(6, 2))
    labels = rng.integers(0, 3, size=6)
    g1 = grad(model, feats, labels)
    g2 = grad(model, np.vstack([feats, feats]), np.concatenate([labels, labels]))
    assert np.allclose(g1, g2, rtol=1e-12, atol=1e-14)


def test_gradient_uses_the_same_dropout_masks_as_the_forward_pass():
    model = _random_model(17, dropout=0.5)
    rng = np.random.default_rng(3)
    feats = rng.normal(size=(4, 3))
    labels = rng.integers(0, 4, size=4)
    g = grad(model, feats, labels, np.random.default_rng(99))
    fd = np.zeros_like(model.params)
    h = 1e-5
    for i in range(model.params.size):
        up = model.params.copy()
        up[i] += h
        down = model.params.copy()
        down[i] -= h
        # identical mask stream on every evaluation
        fd[i] = (
            loss(Model(model.arch, up), feats, labels, np.random.default_rng(99))
            - loss(Model(model.arch, down), feats, labels, np.random.default_rng(99))
        ) / (2 * h)
    rel = np.abs(g - fd) / np.maximum(np.abs(fd), 1e-6)
    assert np.max(rel) < 1e-4


def test_small_gradient_step_does_not_increase_loss():
    for trial in range(50):
        rng = np.random.default_rng(trial)
        sizes = (2, int(rng.integers(2, 6)), int(rng.integers(2, 5)))
        activation = "relu" if trial % 2 else "tanh"
        arch = MlpArchitecture(sizes, activation=activation)
        model = Model(arch, rng.normal(size=arch.param_count))
        feats = rng.normal(size=(8, 2))
        labels = rng.integers(0, arch.class_count, size=8)
        before = loss(model, feats, labels)
        stepped = descend(model.params, grad(model, feats, labels), 1e-3)
        assert loss(Model(arch, stepped), feats, labels) <= before + 1e-12


@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("sizes", [(3, 4), (3, 5, 4), (3, 5, 6, 4)])
@pytest.mark.parametrize("heads", [1, 2])
def test_grad_core_with_loss_equals_loss_and_grad_bit_for_bit(activation, sizes, heads):
    model = _random_model(len(sizes) + heads, sizes, activation=activation, heads=heads, scale=2.0)
    rng = np.random.default_rng(7)
    feats = rng.normal(size=(9, 3))
    labels = rng.integers(0, 4, size=9)
    x, y = nn.labeled_batch(model.arch, feats, labels)
    value, g = nn._grad(nn.Workspace(model.arch), model.params, x, y, None, want_loss=True)
    assert value == loss(model, feats, labels)
    assert np.array_equal(g, grad(model, feats, labels))


def test_grad_core_with_loss_shares_the_dropout_masks_of_one_stream():
    model = _random_model(4, (3, 6, 4), activation="tanh", dropout=0.3, heads=2)
    feats = np.random.default_rng(1).normal(size=(7, 3))
    labels = np.array([0, 1, 2, 3, 0, 1, 2])
    x, y = nn.labeled_batch(model.arch, feats, labels)
    value, g = nn._grad(nn.Workspace(model.arch), model.params, x, y, np.random.default_rng(5), want_loss=True)
    assert value == loss(model, feats, labels, np.random.default_rng(5))
    assert np.array_equal(g, grad(model, feats, labels, np.random.default_rng(5)))


# -- schedule / init ---------------------------------------------------------

def test_lr_schedule_is_geometric():
    sched = LrSchedule(0.5, 0.9)
    assert sched.lr(1) == 0.5
    assert sched.lr(3) == pytest.approx(0.5 * 0.9**2, rel=1e-15)
    assert LrSchedule(0.1).lr(50) == 0.1
    with pytest.raises(ConfigError):
        sched.lr(0)


@pytest.mark.parametrize(
    "args,field",
    [
        ((0.0,), "initial_lr"),
        ((float("inf"),), "initial_lr"),
        ((float("nan"),), "initial_lr"),
        ((True, True), "initial_lr"),  # a bool is a number to Python, but not a rate
        (("0.1",), "initial_lr"),
        ((0.1, 1.5), "decay"),
        ((0.1, 0.0), "decay"),
        ((0.1, True), "decay"),
        ((0.1, "0.9"), "decay"),
    ],
)
def test_lr_schedule_validation(args, field):
    with pytest.raises(ConfigError, match=f"^{field}: "):
        LrSchedule(*args)


def test_init_params_reproducible_scaled_and_zero_biased():
    arch = MlpArchitecture((4, 7, 3), head_count=2)
    a = init_params(arch, 123)
    assert np.array_equal(a, init_params(arch, 123))
    assert not np.array_equal(a, init_params(arch, 124))
    for block in (*arch.layout.hidden, *arch.layout.heads):
        assert np.all(a[block.b] == 0.0)
        assert np.max(np.abs(a[block.w])) <= 1.0 / np.sqrt(block.shape[0])


# -- the workspace core against the allocate-per-call reference ----------------

def _bits(value):
    return None if value is None else np.asarray(value, dtype=np.float64).tobytes()


def _edge_params(arch, seed):
    """Random params with a dead relu unit (hidden unit 0) and an all-zero weight row in head 0."""
    params = np.random.default_rng(seed).normal(scale=1.5, size=arch.param_count)
    if arch.layout.hidden:
        first = arch.layout.hidden[0]
        params[first.w].reshape(first.shape)[:, 0] = 0.0
        params[first.b][0] = -1.0
    head = arch.layout.heads[0]
    params[head.w].reshape(head.shape)[1, :] = 0.0
    return params


def _reference_local_update(arch, params, x, y, lr, cfg, rng):
    """``fed._local_update`` as it ran on the reference core."""
    start_loss, first = None, not fed._update_draws(arch, cfg, y.shape[0])
    for _ in range(cfg.local_epochs):
        for xb, yb in nn.minibatches(x, y, cfg.minibatch_size, rng):
            value, g = _grad(arch, params, xb, yb, rng, first)
            if first:
                start_loss = value
            params, first = params - lr * g, False
    return params, start_loss


@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("hidden", [(), (6,), (6, 5)])
@pytest.mark.parametrize("heads", [1, 2])
@pytest.mark.parametrize("dropout", [0.0, 0.3])
@pytest.mark.parametrize("minibatch", [None, 4])
@pytest.mark.parametrize("epochs", [1, 2])
def test_training_on_one_workspace_equals_the_reference_core_byte_for_byte(
        activation, hidden, heads, dropout, minibatch, epochs):
    arch = MlpArchitecture((3, *hidden, 4), activation=activation, dropout_rate=dropout, head_count=heads)
    data = np.random.default_rng(len(hidden))
    x, y = nn.labeled_batch(arch, data.normal(size=(9, 3)), data.integers(0, 4, size=9))
    cfg = fed.FedConfig(LrSchedule(0.5), local_epochs=epochs, minibatch_size=minibatch)
    ws = nn.Workspace(arch)
    new = ref = _edge_params(arch, heads)
    for t in range(3):  # every update reuses ws; 9 rows in batches of 4 give two row counts
        new, new_loss = fed._local_update(ws, new, x, y, 0.5, cfg, np.random.default_rng(t))
        ref, ref_loss = _reference_local_update(arch, ref, x, y, 0.5, cfg, np.random.default_rng(t))
        assert new.tobytes() == ref.tobytes()
        assert _bits(new_loss) == _bits(ref_loss)
        assert _bits(nn._loss(ws, new, x, y)) == _bits(_loss(arch, ref, x, y))
        masks = (np.random.default_rng(10 + t), np.random.default_rng(10 + t))
        assert _bits(nn._loss(ws, new, x, y, masks[0])) == _bits(_loss(arch, ref, x, y, masks[1]))


@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("hidden", [(), (6,), (6, 5)])
@pytest.mark.parametrize("heads", [1, 2])
@pytest.mark.parametrize("dropout", [0.0, 0.3])
def test_public_functions_equal_the_reference_core_byte_for_byte(activation, hidden, heads, dropout):
    arch = MlpArchitecture((3, *hidden, 4), activation=activation, dropout_rate=dropout, head_count=heads)
    model = Model(arch, _edge_params(arch, 7))
    data = np.random.default_rng(8)
    feats, labels = data.normal(size=(7, 3)), data.integers(0, 4, size=7)
    x, y = nn.labeled_batch(arch, feats, labels)
    for seed in (None, 3):  # deterministic, then with dropout masks when the model has dropout
        def rng():
            return None if seed is None else np.random.default_rng(seed)

        got, want = forward(model, feats, rng()), _forward_cache(arch, model.params, x, rng()).probs
        assert [p.tobytes() for p in got] == [p.tobytes() for p in want]
        assert _bits(loss(model, feats, labels, rng())) == _bits(_loss(arch, model.params, x, y, rng()))
        want_g = _grad(arch, model.params, x, y, rng(), False)[1]
        assert grad(model, feats, labels, rng()).tobytes() == want_g.tobytes()
        value, g = nn._grad(nn.Workspace(arch), model.params, x, y, rng(), want_loss=True)
        ref_value, ref_g = _grad(arch, model.params, x, y, rng(), True)
        assert (_bits(value), g.tobytes()) == (_bits(ref_value), ref_g.tobytes())
    want_hidden = _forward_cache(arch, model.params, x, None).inputs[-1]
    assert hidden_features(model, feats).tobytes() == want_hidden.tobytes()


@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("hidden", [(), (5,), (5, 4)])
@pytest.mark.parametrize("heads", [1, 2])
@pytest.mark.parametrize("dropout", [0.0, 0.2])
@pytest.mark.parametrize("rows", [1, 2, 16, 100])
def test_stacked_core_equals_one_single_model_call_per_client_byte_for_byte(activation, hidden, heads,
                                                                            dropout, rows):
    arch = MlpArchitecture((3, *hidden, 4), activation=activation, dropout_rate=dropout, head_count=heads)
    clients = 3
    data = np.random.default_rng(rows)
    params = np.stack([_edge_params(arch, seed) for seed in range(clients)])
    x, y = data.normal(size=(clients, rows, 3)), data.integers(0, 4, size=(clients, rows))

    def streams(offset):
        return [np.random.default_rng(offset + m) for m in range(clients)] if dropout else None

    stacked = nn.Workspace(arch, clients)
    grad_streams = streams(10)
    value, g = nn._grad(stacked, params, x, y, grad_streams, want_loss=True)
    value, g = value.copy(), g.copy()
    masks = [layer.scale.copy() for layer in stacked.rows(rows).hidden if dropout]
    loss_streams = streams(20)
    shared_loss = nn._loss(stacked, params[0], x, y, loss_streams)  # one vector that every client runs
    for m in range(clients):
        single, one_streams = nn.Workspace(arch), (streams(10), streams(20))
        one_value, one_g = nn._grad(single, params[m], x[m], y[m], one_streams[0] and one_streams[0][m], True)
        assert (_bits(value[m]), g[m].tobytes()) == (_bits(one_value), one_g.tobytes())
        one_masks = [layer.scale for layer in single.rows(rows).hidden if dropout]
        assert [mask[m].tobytes() for mask in masks] == [mask.tobytes() for mask in one_masks]
        one_loss = nn._loss(single, params[0], x[m], y[m], one_streams[1] and one_streams[1][m])
        assert _bits(shared_loss[m]) == _bits(one_loss)
        if dropout:  # each client's stream has drawn exactly what its single-model calls drew
            assert grad_streams[m].random() == one_streams[0][m].random()
            assert loss_streams[m].random() == one_streams[1][m].random()


@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("hidden", [(), (5,), (5, 4)])
@pytest.mark.parametrize("dropout", [0.0, 0.2])
@pytest.mark.parametrize("rows", [1, 2, 16, 100])
def test_stacked_discrepancy_grad_equals_one_single_model_call_per_client_byte_for_byte(activation, hidden,
                                                                                       dropout, rows):
    arch = MlpArchitecture((3, *hidden, 4), activation=activation, dropout_rate=dropout, head_count=2)
    clients = 3
    data = np.random.default_rng(rows)
    params = np.stack([_edge_params(arch, seed) for seed in range(clients)])
    x = data.normal(size=(clients, rows, 3))
    stacked = nn.Workspace(arch, clients)
    g = nn._discrepancy_grad(stacked, params, x)
    shared = nn._discrepancy_grad(stacked, params[0], x)  # one vector that every client runs
    assert g.shape == shared.shape == (clients, arch.param_count)
    for m in range(clients):
        single = nn.Workspace(arch)
        assert g[m].tobytes() == nn._discrepancy_grad(single, params[m], x[m]).tobytes()
        assert shared[m].tobytes() == nn._discrepancy_grad(single, params[0], x[m]).tobytes()


def test_core_results_stay_independent_of_later_calls():
    arch = MlpArchitecture((3, 6, 4), head_count=2)
    model = Model(arch, _edge_params(arch, 1))
    data = np.random.default_rng(2)
    x1, x2 = data.normal(size=(5, 3)), data.normal(size=(5, 3))
    first = forward(model, x1)
    kept = [p.copy() for p in first]
    second = forward(model, x2)
    assert [p.tobytes() for p in first] == [p.tobytes() for p in kept]
    assert not any(np.shares_memory(a, b) for a in first for b in second)
    assert not np.shares_memory(first[0], first[1])
    g1 = grad(model, x1, [0, 1, 2, 3, 0])
    kept_g = g1.copy()
    grad(model, x2, [3, 2, 1, 0, 3])
    assert g1.tobytes() == kept_g.tobytes()


def test_mc_dropout_scores_are_unchanged():
    arch = MlpArchitecture((3, 6, 5, 4), activation="tanh", dropout_rate=0.3)
    model = Model(arch, _edge_params(arch, 4))
    x = np.random.default_rng(5).normal(size=(8, 3))
    got = strategies.score_mc_dropout(model, x, 4, np.random.default_rng(6))
    rng, acc = np.random.default_rng(6), None
    for _ in range(4):  # score_mc_dropout's own loop, over the reference core
        probs = _forward_cache(arch, model.params, x, rng).probs[0]
        acc = probs if acc is None else acc + probs
    assert got.tobytes() == strategies._entropy_of(acc / 4).tobytes()


def test_two_fedavg_runs_from_one_init_agree_and_leave_it_untouched():
    ds = synth_blobs(30, 3, 2, 0.8, seed=0)
    pools = [ClientPools(client_id=c, unlabeled=[], labeled=list(range(c, 30, 3))) for c in range(3)]
    arch = MlpArchitecture((2, 6, 3))
    init = Model(arch, init_params(arch, 1))
    before = init.params.tobytes()
    cfg = fed.FedConfig(LrSchedule(0.5), stop_loss_threshold=1e-9, max_global_iters=6)
    a, b = (fed.fedavg(ds, pools, init, cfg, seed=0) for _ in range(2))
    assert a.final_model.params.tobytes() == b.final_model.params.tobytes()
    assert (a.global_iters_used, a.loss_trace) == (b.global_iters_used, b.loss_trace)
    assert init.params.tobytes() == before
    assert not np.shares_memory(a.final_model.params, b.final_model.params)


# The allocate-per-call core that nn ran before its workspace core, verbatim.

def _split_params(arch: MlpArchitecture, params: Array):
    """Views of the flat vector as per-layer (W, b) pairs: hidden list + head list."""
    layout = arch.layout
    hidden = [(params[block.w].reshape(block.shape), params[block.b]) for block in layout.hidden]
    heads = [(params[block.w].reshape(block.shape), params[block.b]) for block in layout.heads]
    return hidden, heads


def _activate(name: str, z: Array) -> Array:
    if name == "relu":
        return np.maximum(z, 0.0)
    return np.tanh(z)


class _Pass(NamedTuple):
    """Everything one forward pass keeps for the loss and for backprop.

    ``layers`` holds the (W, b) views.  ``inputs[j]`` is what layer j consumed
    (the post-dropout activation of the previous layer).  Per head: the
    logits, their row maxima and the row sums of ``exp(logits - row max)``
    (both ``(rows, 1)``), and the softmax, unless the pass is logits-only.
    """

    layers: tuple[list, list]
    inputs: list[Array]
    pre_dropout: list[Array]
    masks: list[Array | None]
    logits: list[Array]
    row_max: list[Array]
    row_sum: list[Array]
    probs: list[Array]


def _forward_cache(arch: MlpArchitecture, params: Array, x: Array, rng, probs: bool = True) -> _Pass:
    """Run the network, keeping what the loss and backprop need; ``probs=False`` is logits-only."""
    hidden, heads = layers = _split_params(arch, params)
    p = arch.dropout_rate
    inputs = [x]
    pre_dropout = []
    masks = []
    a = x
    for w, b in hidden:
        z = a @ w + b
        act = _activate(arch.activation, z)
        pre_dropout.append(act)
        if p > 0.0 and rng is not None:
            # Inverted dropout: zero a unit with probability p, scale the
            # survivors by 1/(1-p) so the expected activation is unchanged.
            mask = rng.random(act.shape) >= p
            act = act * (mask / (1.0 - p))
        else:
            mask = None
        masks.append(mask)
        inputs.append(act)
        a = act
    out = _Pass(layers, inputs, pre_dropout, masks, [], [], [], [])
    for w, b in heads:
        z = a @ w + b
        zmax = z.max(axis=1, keepdims=True)
        e = np.exp(z - zmax)
        sums = e.sum(axis=1, keepdims=True)
        out.logits.append(z)
        out.row_max.append(zmax)
        out.row_sum.append(sums)
        if probs:
            out.probs.append(e / sums)
    return out


def _cross_entropy(fwd: _Pass, picks: Array) -> float:
    """Mean cross-entropy over the batch, averaged over heads; ``picks`` index the label logits."""
    total = 0.0
    for z, zmax, sums in zip(fwd.logits, fwd.row_max, fwd.row_sum):
        logsumexp = zmax[:, 0] + np.log(sums[:, 0])
        # Sum, then divide by the row count: the same bits as np.mean.
        total += float(np.add.reduce(logsumexp - z.ravel()[picks]) / picks.shape[0])
    return total / len(fwd.logits)


def _backward(arch: MlpArchitecture, picks: Array, fwd: _Pass) -> Array:
    """Gradient of the mean cross-entropy of ``fwd`` (whose probs it overwrites) in flat layout."""
    hidden, heads = fwd.layers
    inputs, pre_dropout, masks = fwd.inputs, fwd.pre_dropout, fwd.masks
    p = arch.dropout_rate
    layout = arch.layout
    out = np.empty(layout.size, dtype=np.float64)
    last_hidden = inputs[-1]

    # dL/dz for each head; CE averaged over batch and heads.  (0.0 adds like a zero array.)
    d_last = 0.0
    for block, (w, _), dz in zip(layout.heads, heads, fwd.probs):
        dz.ravel()[picks] -= 1.0
        dz /= picks.shape[0] * arch.head_count
        np.matmul(last_hidden.T, dz, out=out[block.w].reshape(block.shape))
        np.add.reduce(dz, axis=0, out=out[block.b])
        if hidden:
            d_last = d_last + dz @ w.T

    # Walk the hidden stack backwards; the raw input needs no gradient.
    d_act = d_last
    for j, block in reversed(tuple(enumerate(layout.hidden))):
        if masks[j] is not None:
            d_act *= masks[j] / (1.0 - p)
        if arch.activation == "relu":
            d_act *= pre_dropout[j] > 0.0
        else:
            d_act *= 1.0 - pre_dropout[j] ** 2
        np.matmul(inputs[j].T, d_act, out=out[block.w].reshape(block.shape))
        np.add.reduce(d_act, axis=0, out=out[block.b])
        if j:
            d_act = d_act @ hidden[j][0].T
    return out


def _loss(arch: MlpArchitecture, params: Array, x: Array, y: Array, rng=None) -> float:
    """:func:`loss` on a checked pair (see :func:`labeled_batch`), from a logits-only pass."""
    picks = np.arange(y.shape[0]) * arch.class_count + y
    return _cross_entropy(_forward_cache(arch, params, x, rng, probs=False), picks)


def _grad(arch: MlpArchitecture, params: Array, x: Array, y: Array, rng,
          want_loss: bool) -> tuple[float | None, Array]:
    """(:func:`loss` or None, :func:`grad`) on a checked pair, from one forward pass."""
    fwd = _forward_cache(arch, params, x, rng)
    picks = np.arange(y.shape[0]) * arch.class_count + y
    value = _cross_entropy(fwd, picks) if want_loss else None
    return value, _backward(arch, picks, fwd)

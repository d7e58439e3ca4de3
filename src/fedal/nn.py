"""Small dense-network engine: forward pass, cross-entropy, analytic gradients, SGD.

All arithmetic is float64 and accumulated in a fixed order so that identical
inputs produce bit-identical outputs.  Models are plain values; every
operation is a pure function of its arguments, with randomness (dropout
masks) supplied through an explicit Generator.  Features always arrive as a
2-D batch of rows; a 1-D vector is rejected with a ``ShapeError``.  Every
public function checks its own inputs; training loops check a labeled pair
once per run (:func:`labeled_batch`), then call the unchecked cores
``_loss`` and ``_grad`` that :func:`loss` and :func:`grad` share.

Parameters live in a single flat float64 vector.  Storage order: for each
hidden layer a weight matrix (fan_in x fan_out, row-major) followed by its
bias, then for each output head its weight matrix and bias.  Networks with
``head_count > 1`` share every hidden layer and fork only at the final
linear layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, EmptyInputError, ShapeError, is_count

Array = np.ndarray

ACTIVATIONS = ("relu", "tanh")


class LayerBlock(NamedTuple):
    """One dense layer's weight slice, bias slice and weight shape ``(fan_in, fan_out)``."""

    w: slice
    b: slice
    shape: tuple[int, int]


class ParamLayout(NamedTuple):
    """Storage layout of the flat parameter vector: hidden layers, then heads."""

    hidden: tuple[LayerBlock, ...]
    heads: tuple[LayerBlock, ...]
    size: int


@dataclass(frozen=True)
class MlpArchitecture:
    """Shape of a dense classifier: layer sizes (input first, classes last); errors name the field."""

    layer_sizes: tuple[int, ...]
    activation: str = "relu"
    dropout_rate: float = 0.0
    head_count: int = 1

    def __post_init__(self):
        object.__setattr__(self, "layer_sizes", tuple(int(s) for s in self.layer_sizes))
        if len(self.layer_sizes) < 2:
            raise ConfigError("layer_sizes: needs at least an input and an output size")
        if min(self.layer_sizes) < 1:
            raise ConfigError(f"layer_sizes: sizes must be >= 1, got {min(self.layer_sizes)}")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"activation: unknown activation {self.activation!r}; expected one of {ACTIVATIONS}")
        if not (isinstance(self.dropout_rate, (int, float)) and 0.0 <= self.dropout_rate < 1.0):
            raise ConfigError(f"dropout_rate: must lie in [0, 1), got {self.dropout_rate}")
        if not is_count(self.head_count):
            raise ConfigError(f"head_count: must be an int >= 1, got {self.head_count}")

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def class_count(self) -> int:
        return self.layer_sizes[-1]

    @cached_property
    def layout(self) -> ParamLayout:
        """Where each layer's weights and bias sit in the flat vector (computed once)."""
        sizes = self.layer_sizes
        depth = len(sizes) - 2
        shapes = list(zip(sizes[:depth], sizes[1:depth + 1])) + [sizes[-2:]] * self.head_count
        blocks, offset = [], 0
        for fan_in, fan_out in shapes:
            w = slice(offset, offset + fan_in * fan_out)
            b = slice(w.stop, w.stop + fan_out)
            blocks.append(LayerBlock(w, b, (fan_in, fan_out)))
            offset = b.stop
        return ParamLayout(tuple(blocks[:depth]), tuple(blocks[depth:]), offset)

    @property
    def param_count(self) -> int:
        return self.layout.size


@dataclass(frozen=True)
class Model:
    """An architecture plus one flat parameter vector."""

    arch: MlpArchitecture
    params: Array

    def __post_init__(self):
        params = np.asarray(self.params, dtype=np.float64)
        if params.ndim != 1:
            raise ShapeError(f"params must be a flat vector, got ndim={params.ndim}")
        if params.shape[0] != self.arch.param_count:
            raise ShapeError(
                f"params has {params.shape[0]} entries, architecture needs {self.arch.param_count}"
            )
        object.__setattr__(self, "params", params)


@dataclass(frozen=True)
class LrSchedule:
    """Geometric decay: lr(t) = initial_lr * decay**(t - 1) for t >= 1."""

    initial_lr: float
    decay: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.initial_lr) and self.initial_lr > 0):
            raise ConfigError(f"initial_lr: must be positive, got {self.initial_lr}")
        if not (0.0 < self.decay <= 1.0):
            raise ConfigError(f"decay: must lie in (0, 1], got {self.decay}")

    def lr(self, t: int) -> float:
        if t < 1:
            raise ConfigError(f"schedule index starts at 1, got {t}")
        return self.initial_lr * self.decay ** (t - 1)


def _as_batch(x, input_dim: int) -> Array:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"features must be a 2-D batch (rows x input_dim), got ndim={arr.ndim}")
    if arr.shape[1] != input_dim:
        raise ShapeError(f"feature dimension {arr.shape[1]} does not match input_dim={input_dim}")
    return arr


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


def forward(model: Model, x, rng=None) -> list[Array]:
    """Class probabilities per output head, one ``(rows, classes)`` array each.

    ``x`` is a 2-D batch of feature rows.  Pass ``rng`` only to sample
    dropout masks (training mode); with ``dropout_rate == 0`` the rng is
    ignored entirely.
    """
    return _forward_cache(model.arch, model.params, _as_batch(x, model.arch.input_dim), rng).probs


def hidden_features(model: Model, x) -> Array:
    """Deterministic activations of the last hidden layer (the head input) for a 2-D batch.

    For an architecture without hidden layers this is the raw input, which is
    what the final linear layer consumes.
    """
    return _forward_cache(model.arch, model.params, _as_batch(x, model.arch.input_dim), None).inputs[-1]


def labeled_batch(arch: MlpArchitecture, features, labels) -> tuple[Array, Array]:
    """The checked (float64 batch, int64 labels) pair that the unchecked cores take."""
    batch = _as_batch(features, arch.input_dim)
    if batch.shape[0] == 0:
        raise EmptyInputError("empty batch")
    y = np.asarray(labels)
    if y.ndim != 1:
        raise ShapeError(f"labels must be 1-D, got ndim={y.ndim}")
    if y.size == 0:
        raise EmptyInputError("empty batch")
    if not np.issubdtype(y.dtype, np.integer) and np.any(y != np.floor(y)):
        raise ShapeError("labels must be integers")
    y = y.astype(np.int64)
    class_count = arch.class_count
    if y.min() < 0 or y.max() >= class_count:
        raise ShapeError(f"labels must lie in [0, {class_count}), got range [{y.min()}, {y.max()}]")
    if y.shape[0] != batch.shape[0]:
        raise ShapeError(f"{batch.shape[0]} feature rows but {y.shape[0]} labels")
    return batch, y


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


def loss(model: Model, features, labels, rng=None) -> float:
    """Mean cross-entropy over the batch, averaged over heads."""
    batch, y = labeled_batch(model.arch, features, labels)
    return _loss(model.arch, model.params, batch, y, rng)


def grad(model: Model, features, labels, rng=None) -> Array:
    """Analytic gradient of :func:`loss` with respect to the flat parameters.

    When dropout is active the same masks are used for the forward and the
    backward pass, exactly as a single stochastic training step requires.
    """
    batch, y = labeled_batch(model.arch, features, labels)
    return _grad(model.arch, model.params, batch, y, rng, False)[1]


def minibatches(x: Array, y: Array, size: int | None, rng) -> list[tuple[Array, Array]]:
    """One epoch of ``(features, labels)`` batches over the ``n`` rows of a checked pair.

    ``size`` of None (or at least ``n``) gives the pair itself, in stored
    order, and draws nothing from ``rng``; otherwise one
    ``rng.permutation(n)`` is cut into consecutive ``size``-row batches.
    """
    n = y.shape[0]
    if size is None or size >= n:
        return [(x, y)]
    perm = rng.permutation(n)
    return [(x[rows], y[rows]) for rows in (perm[i:i + size] for i in range(0, n, size))]


def sgd_step(params: Array, gradient: Array, lr: float) -> Array:
    """One descent step: ``params - lr * gradient`` as a new vector."""
    p = np.asarray(params, dtype=np.float64)
    g = np.asarray(gradient, dtype=np.float64)
    if p.ndim != 1 or g.ndim != 1 or p.shape != g.shape:
        raise ShapeError(f"params and gradient must be equal-length vectors, got {p.shape} vs {g.shape}")
    if not np.isfinite(lr):
        raise ConfigError(f"lr must be finite, got {lr}")
    return p - lr * g


def init_params(arch: MlpArchitecture, seed) -> Array:
    """Deterministic init: weights uniform in +-1/sqrt(fan_in), biases exactly zero."""
    rng = np.random.default_rng(seed)
    out = np.zeros(arch.param_count, dtype=np.float64)
    for block in (*arch.layout.hidden, *arch.layout.heads):
        bound = 1.0 / np.sqrt(block.shape[0])
        out[block.w] = rng.uniform(-bound, bound, size=block.shape).ravel()
        # biases stay zero
    return out

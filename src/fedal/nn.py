"""Small dense-network engine: forward pass, cross-entropy, analytic gradients.

All arithmetic is float64 and accumulated in a fixed order so that identical
inputs produce bit-identical outputs.  Models are plain values; every
operation is a pure function of its arguments, with randomness (dropout
masks) supplied through an explicit Generator.  Features always arrive as a
2-D batch of rows; a 1-D vector is rejected with a ``ShapeError``.  Every
public function checks its own inputs; training loops check a labeled pair
once per run (:func:`labeled_batch`), then call the unchecked cores
``_loss`` and ``_grad`` that :func:`loss` and :func:`grad` share.  Two-head
training adds ``_discrepancy_grad``, the heads' disagreement gradient, which
runs stacked like the core below.

There is one forward/backward core.  It writes its intermediates into the
buffers of a :class:`Workspace`, which a training loop builds once per run
and reuses on every step; the public functions build one for their batch and
return its buffers.

The core can run M models side by side.  A workspace built for ``clients=M``
puts a leading client axis on every buffer: parameters and gradients are
``(M, P)``, features ``(M, rows, d)``, labels ``(M, rows)``, and the pass
draws each client's dropout masks from that client's own stream.  The core
uses ``.mT`` views and reduces over axes -2 and -1 only, so the same code
runs a single model on 2-D arrays.  A stacked ``np.matmul`` runs one product
per client, so client m's results equal a single-model pass on its own rows
bit for bit; concatenating the clients' rows into one 2-D product would not.

Parameters live in a single flat float64 vector.  Storage order: for each
hidden layer a weight matrix (fan_in x fan_out, row-major) followed by its
bias, then for each output head its weight matrix and bias.  Networks with
``head_count > 1`` share every hidden layer and fork only at the final
linear layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, EmptyInputError, ShapeError, is_count, is_real

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
        sizes = tuple(self.layer_sizes)
        if len(sizes) < 2:
            raise ConfigError("layer_sizes: needs at least an input and an output size")
        for size in sizes:
            if not is_count(size):
                rule = "be >= 1" if is_count(size, minimum=-math.inf) else "be ints"
                raise ConfigError(f"layer_sizes: sizes must {rule}, got {size!r}")
        object.__setattr__(self, "layer_sizes", tuple(int(s) for s in sizes))
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"activation: unknown activation {self.activation!r}; expected one of {ACTIVATIONS}")
        if not (is_real(self.dropout_rate) and 0.0 <= self.dropout_rate < 1.0):
            rule = "lie in [0, 1)" if is_real(self.dropout_rate) else "be a real number"
            raise ConfigError(f"dropout_rate: must {rule}, got {self.dropout_rate}")
        object.__setattr__(self, "dropout_rate", float(self.dropout_rate))
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
        if not (is_real(self.initial_lr) and 0 < self.initial_lr < math.inf):
            raise ConfigError(f"initial_lr: must be positive and a real number, got {self.initial_lr!r}")
        if not (is_real(self.decay) and 0.0 < self.decay <= 1.0):
            raise ConfigError(f"decay: must lie in (0, 1] and be a real number, got {self.decay!r}")

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


def _layer_views(flat: Array, blocks, add_to_rows: bool = False) -> tuple[tuple[Array, Array], ...]:
    """Per-layer ``(W, b)`` views of flat vectors stored in ``blocks``' layout.

    ``flat`` is one vector ``(P,)`` or a stack ``(M, P)``.  W views are
    ``(..., fan_in, fan_out)`` and b views ``(..., fan_out)``; with
    ``add_to_rows`` a stack's b views are ``(M, 1, fan_out)``, so that they
    add to a stack of row batches.
    """
    lead = flat.shape[:-1]
    views = []
    for block in blocks:
        w, b = flat[..., block.w].reshape(*lead, *block.shape), flat[..., block.b]
        views.append((w, b[..., None, :] if add_to_rows and lead else b))
    return tuple(views)


class _Layer(NamedTuple):
    """One hidden layer's buffers, each ``(..., rows, fan_out)``."""

    act: Array              # activation before dropout; backprop overwrites it with its derivative
    dropped: Array | None   # activation after dropout (dropout architectures only)
    scale: Array | None     # dropout mask / (1 - p) (dropout architectures only)
    delta: Array            # loss gradient with respect to the layer's output
    masks: tuple[Array, ...]  # scale per client, where each client's stream draws its mask


class _Head(NamedTuple):
    """One output head's buffers; ``*_col`` and ``*_flat`` are views of the array before them."""

    logits: Array
    logits_flat: Array
    columns: tuple[Array, ...]  # logits[..., c], for the row max
    probs: Array                # exp(logits - row max), then the softmax, then dL/dlogits
    probs_flat: Array
    row_max: Array
    row_max_col: Array
    row_sum: Array              # row sums of exp(logits - row max)
    row_sum_col: Array


class _Rows(NamedTuple):
    """The buffers of one pass over a batch of a fixed row count."""

    hidden: tuple[_Layer, ...]
    heads: tuple[_Head, ...]
    spare: Array | None  # dz @ W.T of the second head, when there is one and hidden layers
    offsets: Array       # flat row index * class_count: adding a row's label indexes its logit
    picks: Array
    lse: Array           # per-row log-sum-exp, then per-row loss


def _row_buffers(arch: MlpArchitecture, lead: tuple[int, ...], count: int) -> _Rows:
    def buf(*width):
        return np.empty((*lead, count, *width))

    dropout = arch.dropout_rate > 0.0
    hidden = []
    for w in arch.layer_sizes[1:-1]:
        scale = buf(w) if dropout else None
        masks = () if scale is None else tuple(scale) if lead else (scale,)
        hidden.append(_Layer(buf(w), buf(w) if dropout else None, scale, buf(w), masks))
    heads = []
    for _ in range(arch.head_count):
        logits, probs = buf(arch.class_count), buf(arch.class_count)
        row_max, row_sum = buf(), buf()
        heads.append(_Head(logits, logits.ravel(), tuple(np.moveaxis(logits, -1, 0)), probs, probs.ravel(),
                           row_max, row_max[..., None], row_sum, row_sum[..., None]))
    spare = buf(arch.layer_sizes[-2]) if hidden and arch.head_count > 1 else None
    offsets = np.arange(math.prod(lead) * count).reshape(*lead, count) * arch.class_count
    return _Rows(tuple(hidden), tuple(heads), spare, offsets, np.empty(offsets.shape, dtype=np.int64), buf())


class Workspace:
    """The buffers the forward/backward core writes into, reused from call to call.

    Built for one architecture and ``clients``: ``None`` for a single model,
    or M for M models stacked on a leading client axis.  It holds the flat
    parameter and gradient vectors (``(P,)`` or ``(M, P)``) with their
    per-layer ``(W, b)`` views, and for each batch row count it serves one
    set of row buffers, made on first use.  Each call of the core
    overwrites what the previous one left (the gradient, the probabilities),
    so a caller uses a result before its next call on the same workspace.
    """

    def __init__(self, arch: MlpArchitecture, clients: int | None = None):
        layout = arch.layout
        self.arch = arch
        self.clients = clients
        self._lead = () if clients is None else (clients,)
        self.params = np.empty((*self._lead, layout.size))
        self.grad = np.empty((*self._lead, layout.size))
        self.hidden = _layer_views(self.params, layout.hidden, add_to_rows=True)
        self.heads = _layer_views(self.params, layout.heads, add_to_rows=True)
        self.grad_hidden = _layer_views(self.grad, layout.hidden)
        self.grad_heads = _layer_views(self.grad, layout.heads)
        self._rows: dict[int, _Rows] = {}

    def rows(self, count: int) -> _Rows:
        """The buffers for a batch of ``count`` rows (per client)."""
        rows = self._rows.get(count)
        if rows is None:
            rows = self._rows[count] = _row_buffers(self.arch, self._lead, count)
        return rows


class _Pass(NamedTuple):
    """One forward pass: its row buffers, and what each layer consumed (``inputs[-1]`` feeds the heads)."""

    rows: _Rows
    inputs: list[Array]
    dropout: bool


def _forward(ws: Workspace, params: Array, x: Array, rng, probs: bool = True) -> _Pass:
    """Run the network on ``x`` into ``ws``; ``probs=False`` stops at the softmax row sums.

    In a stacked workspace ``x`` is ``(M, rows, d)``, ``params`` is ``(M, P)``
    or one ``(P,)`` vector that every client runs, and ``rng`` holds one
    stream per client.
    """
    arch = ws.arch
    np.copyto(ws.params, params)
    rows = ws.rows(x.shape[-2])
    p = arch.dropout_rate
    dropout = p > 0.0 and rng is not None
    streams = (rng,) if ws.clients is None else rng
    relu = arch.activation == "relu"
    inputs = [x]
    a = x
    for (w, b), layer in zip(ws.hidden, rows.hidden):
        a = np.matmul(a, w, out=layer.act)
        a += b
        if relu:
            np.maximum(a, 0.0, out=a)
        else:
            np.tanh(a, out=a)
        if dropout:
            # Inverted dropout: zero a unit with probability p, scale the
            # survivors by 1/(1-p) so the expected activation is unchanged.
            for stream, mask in zip(streams, layer.masks):
                stream.random(out=mask)
            scale = layer.scale
            np.greater_equal(scale, p, out=scale)
            scale /= 1.0 - p
            a = np.multiply(a, scale, out=layer.dropped)
        inputs.append(a)
    for (w, b), head in zip(ws.heads, rows.heads):
        z = np.matmul(a, w, out=head.logits)
        z += b
        # A running maximum over the columns is z.max(axis=-1) at a fraction of the cost.
        columns, zmax = head.columns, head.row_max
        np.maximum(columns[0], columns[-1], out=zmax)
        for column in columns[1:-1]:
            np.maximum(zmax, column, out=zmax)
        e = np.subtract(z, head.row_max_col, out=head.probs)
        np.exp(e, out=e)
        np.add.reduce(e, axis=-1, out=head.row_sum)
        if probs:
            e /= head.row_sum_col
    return _Pass(rows, inputs, dropout)


def forward(model: Model, x, rng=None) -> list[Array]:
    """Class probabilities per output head, one ``(rows, classes)`` array each.

    ``x`` is a 2-D batch of feature rows.  Pass ``rng`` only to sample
    dropout masks (training mode); with ``dropout_rate == 0`` the rng is
    ignored entirely.
    """
    fwd = _forward(Workspace(model.arch), model.params, _as_batch(x, model.arch.input_dim), rng)
    return [head.probs for head in fwd.rows.heads]


def hidden_features(model: Model, x) -> Array:
    """Deterministic activations of the last hidden layer (the head input) for a 2-D batch.

    For an architecture without hidden layers this is the raw input, which is
    what the final linear layer consumes.
    """
    batch = _as_batch(x, model.arch.input_dim)
    return _forward(Workspace(model.arch), model.params, batch, None, probs=False).inputs[-1]


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


def _cross_entropy(rows: _Rows) -> Array:
    """Mean cross-entropy over the batch, averaged over heads, at the labels ``rows.picks`` indexes.

    One value per client: a 0-d value for a single model, ``(M,)`` for a stack.
    """
    picks, lse = rows.picks, rows.lse
    total = 0.0
    for head in rows.heads:
        np.log(head.row_sum, out=lse)
        np.add(head.row_max, lse, out=lse)
        lse -= head.logits_flat[picks]
        # Sum, then divide by the row count: the same bits as np.mean.
        total = total + np.add.reduce(lse, axis=-1) / picks.shape[-1]
    return total / len(rows.heads)


def _backward(ws: Workspace, fwd: _Pass) -> Array:
    """Gradient of the mean cross-entropy of ``fwd`` into ``ws.grad`` (the probs become dL/dlogits)."""
    arch, rows, inputs = ws.arch, fwd.rows, fwd.inputs
    picks = rows.picks
    last_hidden = inputs[-1]

    # dL/dz for each head; CE averaged over batch and heads.
    d_last = rows.hidden[-1].delta if rows.hidden else None
    for k, (head, (w, _), (gw, gb)) in enumerate(zip(rows.heads, ws.heads, ws.grad_heads)):
        dz = head.probs
        np.subtract.at(head.probs_flat, picks, 1.0)
        dz /= picks.shape[-1] * arch.head_count
        np.matmul(last_hidden.mT, dz, out=gw)
        np.add.reduce(dz, axis=-2, out=gb)
        if d_last is None:
            continue
        if k == 0:
            np.matmul(dz, w.mT, out=d_last)
            d_last += 0.0  # as 0.0 + dz @ W.T: a -0.0 sum becomes +0.0
        else:
            d_last += np.matmul(dz, w.mT, out=rows.spare)

    # Walk the hidden stack backwards; the raw input needs no gradient.  Layer
    # j's activation has fed its last product by now, so its buffer takes the derivative.
    d_act = d_last
    for j in reversed(range(len(rows.hidden))):
        layer, (gw, gb) = rows.hidden[j], ws.grad_hidden[j]
        if fwd.dropout:
            d_act *= layer.scale
        deriv = layer.act
        if arch.activation == "relu":
            np.greater(deriv, 0.0, out=deriv)
        else:
            np.square(deriv, out=deriv)
            np.subtract(1.0, deriv, out=deriv)
        d_act *= deriv
        np.matmul(inputs[j].mT, d_act, out=gw)
        np.add.reduce(d_act, axis=-2, out=gb)
        if j:
            d_act = np.matmul(d_act, ws.hidden[j][0].mT, out=rows.hidden[j - 1].delta)
    return ws.grad


def _loss(ws: Workspace, params: Array, x: Array, y: Array, rng=None) -> Array:
    """:func:`loss` on a checked pair (see :func:`labeled_batch`), from a logits-only pass.

    In a stacked workspace ``y`` is ``(M, rows)`` and the result holds one loss per client.
    """
    rows = _forward(ws, params, x, rng, probs=False).rows
    np.add(rows.offsets, y, out=rows.picks)
    return _cross_entropy(rows)


def _grad(ws: Workspace, params: Array, x: Array, y: Array, rng,
          want_loss: bool) -> tuple[Array | None, Array]:
    """(:func:`loss` or None, :func:`grad`) on a checked pair, from one forward pass.

    The gradient is ``ws.grad``, which the next call on ``ws`` overwrites.
    """
    fwd = _forward(ws, params, x, rng)
    np.add(fwd.rows.offsets, y, out=fwd.rows.picks)
    value = _cross_entropy(fwd.rows) if want_loss else None
    return value, _backward(ws, fwd)


def _discrepancy_grad(ws: Workspace, params: Array, unlabeled: Array) -> Array:
    """Gradient (head parameters only) of -mean L1 disagreement on the checked batch ``unlabeled``.

    Two heads: the pass runs in ``ws`` and leaves ``ws.grad`` alone, and the
    gradient is a new array shaped like it.  In a stacked workspace
    ``unlabeled`` is ``(M, rows, d)``, one batch per client.  Descending it
    pushes the heads apart where the trunk allows it; the trunk gets no
    contribution.
    """
    arch, fwd = ws.arch, _forward(ws, params, unlabeled, None)
    hidden_act, (probs_a, probs_b) = fwd.inputs[-1], [head.probs for head in fwd.rows.heads]
    count = unlabeled.shape[-2]
    sign = np.sign(probs_a - probs_b)
    # d(-mean L1)/dz via the softmax Jacobian of each head.
    dz_a = -(probs_a * (sign - (sign * probs_a).sum(axis=-1, keepdims=True))) / count
    dz_b = (probs_b * (sign - (sign * probs_b).sum(axis=-1, keepdims=True))) / count
    out = np.zeros(ws.grad.shape)
    for block, dz in zip(arch.layout.heads, (dz_a, dz_b)):
        out[..., block.w] = (hidden_act.mT @ dz).reshape(*out.shape[:-1], -1)
        out[..., block.b] = dz.sum(axis=-2)
    return out


def loss(model: Model, features, labels, rng=None) -> float:
    """Mean cross-entropy over the batch, averaged over heads."""
    batch, y = labeled_batch(model.arch, features, labels)
    return float(_loss(Workspace(model.arch), model.params, batch, y, rng))


def grad(model: Model, features, labels, rng=None) -> Array:
    """Analytic gradient of :func:`loss` with respect to the flat parameters.

    When dropout is active the same masks are used for the forward and the
    backward pass, exactly as a single stochastic training step requires.
    """
    batch, y = labeled_batch(model.arch, features, labels)
    return _grad(Workspace(model.arch), model.params, batch, y, rng, False)[1]


def minibatches(x: Array, y: Array, size: int | None, rng) -> list[tuple[Array, Array]]:
    """One epoch of ``(features, labels)`` batches over the ``n`` rows of a checked pair.

    ``size`` of None (or at least ``n``) gives the pair itself, in stored
    order, and draws nothing from ``rng``; otherwise one
    ``rng.permutation(n)`` is cut into consecutive ``size``-row batches.
    For a stacked pair (``y`` of ``(M, n)``) ``rng`` holds one stream per
    client, each draws its own permutation, and batch i holds every
    client's i-th slice.
    """
    n = y.shape[-1]
    if size is None or size >= n:
        return [(x, y)]
    if y.ndim == 1:
        perm = rng.permutation(n)
        return [(x[rows], y[rows]) for rows in (perm[i:i + size] for i in range(0, n, size))]
    perm = np.stack([stream.permutation(n) for stream in rng])
    clients = np.arange(len(rng))[:, None]
    return [(x[clients, rows], y[clients, rows]) for rows in (perm[:, i:i + size] for i in range(0, n, size))]


def init_params(arch: MlpArchitecture, seed) -> Array:
    """Deterministic init: weights uniform in +-1/sqrt(fan_in), biases exactly zero."""
    rng = np.random.default_rng(seed)
    out = np.zeros(arch.param_count, dtype=np.float64)
    for block in (*arch.layout.hidden, *arch.layout.heads):
        bound = 1.0 / np.sqrt(block.shape[0])
        out[block.w] = rng.uniform(-bound, bound, size=block.shape).ravel()
        # biases stay zero
    return out

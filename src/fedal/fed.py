"""Synchronous cross-silo FedAvg plus per-client independent training.

One global iteration: every client with labeled data starts from the current
global parameters, runs ``local_epochs`` of (mini-batch) SGD at the
iteration's learning rate, and the server replaces the global parameters
with the sample-count weighted average of the local results.  Training stops
on the model it returns: early, once the global model's training loss (the
sample-weighted mean over clients of the loss at the global parameters)
drops below ``stop_loss_threshold`` after at least one iteration, and
otherwise at ``max_global_iters``.  Independent training runs the same loop
on one client, with the weighted average left out, and stops on that
client's training loss.

Each iteration reports the loss of the parameters it started from, so the
check lags one update: the iteration after the one that stops the run has
its update dropped, and a run that reaches the cap takes one more loss pass
for the last model.  With full batches and no dropout that loss costs no
extra work, since the iteration's first gradient runs the forward pass at
those parameters.  Minibatches, dropout or a custom ``local_fn`` take one
deterministic loss pass per client and iteration.

A ``local_fn(model, features, labels, unlabeled, lr, cfg, rng) -> Model``
replaces the plain local update (the two-head scoring model trains with
:func:`strategies.train_discrepancy_heads`).  It gets the client's checked
labeled pair and the feature rows of the client's unlabeled pool, read once
per run straight from the dataset: their labels stay hidden.

Clients whose labeled pool is empty are skipped (weight zero); they simply
receive the next global model like everyone else.  :func:`fedavg` and
:func:`independent_train` check each client's labeled pair once per run,
where they gather it and build the client's :class:`nn.Workspace`, and then
run nn's unchecked cores in that workspace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import nn
from .data import ClientPools, Dataset, gather
from .errors import ConfigError, EmptyInputError, InvalidStateError, ShapeError, is_count, is_real
from .nn import LrSchedule, Model
from .seeding import rng_for

Array = np.ndarray


@dataclass(frozen=True)
class FedConfig:
    """Knobs for one federated (or independent) training run.

    Every error names the offending field (``local_epochs``, ...), as do
    the :class:`LrSchedule` errors.
    """

    schedule: LrSchedule
    local_epochs: int = 1
    minibatch_size: int | None = None  # None = full batch
    stop_loss_threshold: float = 1e-3
    max_global_iters: int = 100

    def __post_init__(self):
        if not is_count(self.local_epochs):
            raise ConfigError(f"local_epochs: must be an int >= 1, got {self.local_epochs}")
        if self.minibatch_size is not None and not is_count(self.minibatch_size):
            raise ConfigError(f"minibatch_size: must be 'full' (None) or an int >= 1, got {self.minibatch_size}")
        if not (is_real(self.stop_loss_threshold) and 0 < self.stop_loss_threshold < math.inf):
            raise ConfigError(f"stop_loss_threshold: must be a finite number > 0, got {self.stop_loss_threshold!r}")
        if not is_count(self.max_global_iters):
            raise ConfigError(f"max_global_iters: must be an int >= 1, got {self.max_global_iters}")


@dataclass(frozen=True)
class FedRunReport:
    """Outcome of a training run: final model, iterations used, loss trace."""

    final_model: Model
    global_iters_used: int
    loss_trace: tuple[float, ...]


def weighted_average(param_vectors, sample_counts) -> Array:
    """Convex combination of parameter vectors with weights n_m / sum(n_m).

    Accumulates in client-index order.  The exact combination lies inside the
    per-coordinate envelope of the inputs; summation round-off may leave it
    an ulp outside, so the result is clamped back onto the envelope (this
    also makes the single-client case an exact identity).
    """
    vectors = [np.asarray(v, dtype=np.float64) for v in param_vectors]
    if not vectors:
        raise EmptyInputError("no parameter vectors to average")
    length = vectors[0].shape
    for v in vectors:
        if v.ndim != 1 or v.shape != length:
            raise ShapeError("all parameter vectors must be flat and equal-length")
    counts = list(sample_counts)
    if len(counts) != len(vectors):
        raise ShapeError(f"{len(vectors)} vectors but {len(counts)} sample counts")
    for client, count in enumerate(counts):
        if not is_count(count):
            raise ConfigError(f"sample_counts[{client}]: must be an int >= 1, got {count!r}")
    counts = [float(c) for c in counts]
    total = sum(counts)
    acc, scaled = np.zeros_like(vectors[0]), np.empty_like(vectors[0])
    low, high = vectors[0].copy(), vectors[0].copy()
    for vec, count in zip(vectors, counts):
        acc += np.multiply(count, vec, out=scaled)
        np.minimum(low, vec, out=low)
        np.maximum(high, vec, out=high)
    acc /= total
    # Clamp in np.clip's order (lower bound first): the same bits, without its wrapper.
    np.maximum(acc, low, out=acc)
    return np.minimum(acc, high, out=acc)


def _update_draws(arch, cfg: FedConfig, n: int) -> bool:
    """Whether a plain local update on ``n`` rows draws randomness.

    It does with dropout, or with minibatches smaller than ``n`` (see
    :func:`nn.minibatches`).  Otherwise every epoch is one full batch in
    stored order, and the first gradient's forward pass gives the loss.
    """
    return arch.dropout_rate > 0.0 or (cfg.minibatch_size is not None and cfg.minibatch_size < n)


def _local_update(ws: nn.Workspace, params: Array, x: Array, y: Array, lr: float, cfg: FedConfig,
                  rng) -> tuple[Array, float | None]:
    """``cfg.local_epochs`` SGD passes in ``ws``'s buffers: (new params, loss of ``params`` or None)."""
    start_loss, first = None, not _update_draws(ws.arch, cfg, y.shape[0])
    for _ in range(cfg.local_epochs):
        for xb, yb in nn.minibatches(x, y, cfg.minibatch_size, rng):
            value, g = nn._grad(ws, params, xb, yb, rng, first)
            if first:
                start_loss = value
            g *= lr
            params, first = params - g, False
    return params, start_loss


def _client_rows(dataset: Dataset, pool: ClientPools, arch,
                 local_fn) -> tuple[nn.Workspace, Array, Array, Array | None]:
    """A client's workspace and checked labeled pair, plus its unlabeled feature rows if ``local_fn`` takes them."""
    x, y = nn.labeled_batch(arch, *gather(dataset, pool.labeled))
    return nn.Workspace(arch), x, y, None if local_fn is None else dataset.features[pool.unlabeled]


def _client_update(local_fn, params: Array, rows, lr: float, cfg: FedConfig,
                   rng) -> tuple[Array, float]:
    """One client's update on its :func:`_client_rows` as ``(params, training loss of params)``."""
    ws, x, y, unlabeled = rows
    if local_fn is None:
        new_params, start_loss = _local_update(ws, params, x, y, lr, cfg, rng)
    else:
        new_params, start_loss = local_fn(Model(ws.arch, params), x, y, unlabeled, lr, cfg, rng).params, None
    if start_loss is None:
        start_loss = nn._loss(ws, params, x, y)
    return new_params, start_loss


def _mean_loss(losses, counts) -> float:
    """Sample-weighted mean of per-client losses, accumulated in client order."""
    total = float(sum(counts))
    mean = 0.0
    for value, count in zip(losses, counts):
        mean += (count / total) * value
    return mean


def _train_to_threshold(init_model: Model, cfg: FedConfig, step, train_loss) -> FedRunReport:
    """Iterate ``step(t, params) -> (updated params, training loss of params)``.

    Stops on the training loss of the model the run returns: once that loss
    drops below ``cfg.stop_loss_threshold`` after at least one update, and
    otherwise after ``cfg.max_global_iters`` updates.  ``loss_trace[k]`` is
    the loss after ``k + 1`` updates, so its length is the number of updates.

    Step ``t`` reports the loss of update ``t - 1``'s result, so when that
    loss stops the run, step ``t``'s own update is dropped; at the cap
    ``train_loss(params)`` gives the last entry.
    """
    params = init_model.params.copy()
    trace: list[float] = []
    for t in range(1, cfg.max_global_iters + 1):
        new_params, loss = step(t, params)
        if t > 1:
            trace.append(loss)
            if loss < cfg.stop_loss_threshold:
                break
        params = new_params
    else:
        trace.append(train_loss(params))
    return FedRunReport(Model(init_model.arch, params), len(trace), tuple(trace))


def fedavg(dataset: Dataset, pools: list[ClientPools], init_model: Model, cfg: FedConfig,
           seed, local_fn=None) -> FedRunReport:
    """Run FedAvg until the global model's training loss or the iteration cap stops it.

    ``local_fn`` replaces the plain supervised local update when given (see
    the module docstring).  Client ``m`` draws iteration ``t``'s randomness
    from ``rng_for(seed, "local", m, t)``; the stream is built only when the
    update can draw from it: always for a ``local_fn``, else as
    :func:`_update_draws` says.
    """
    if all(len(p.labeled) == 0 for p in pools):
        raise InvalidStateError("no client has labeled data")
    arch = init_model.arch
    # Clients without labels get weight zero: they only receive the global model.
    clients = [(pool.client_id, _client_rows(dataset, pool, arch, local_fn))
               for pool in pools if pool.labeled]
    counts = [len(rows[2]) for _, rows in clients]
    draws = [local_fn is not None or _update_draws(arch, cfg, n) for n in counts]

    def step(t, params):
        lr = cfg.schedule.lr(t)
        updated, losses = [], []
        for (client_id, rows), client_draws in zip(clients, draws):
            rng = rng_for(seed, "local", client_id, t) if client_draws else None
            new_params, start_loss = _client_update(local_fn, params, rows, lr, cfg, rng)
            updated.append(new_params)
            losses.append(start_loss)
        return weighted_average(updated, counts), _mean_loss(losses, counts)

    def train_loss(params):
        return _mean_loss([nn._loss(ws, params, x, y) for _, (ws, x, y, _) in clients], counts)

    return _train_to_threshold(init_model, cfg, step, train_loss)


def independent_train(dataset: Dataset, pools: list[ClientPools], client: int,
                      init_model: Model, cfg: FedConfig, seed, local_fn=None) -> FedRunReport:
    """Train on one client's labeled pool only, decaying the rate per iteration.

    Each iteration is one local update, exactly as one client's part of a
    :func:`fedavg` iteration (``local_fn`` has the same meaning), and the
    same stopping rule applies to that client's training loss.  Unlike
    FedAvg, every iteration draws from the single stream
    ``rng_for(seed, client_id)``.
    """
    pool = pools[client]
    if not pool.labeled:
        raise InvalidStateError(f"client {pool.client_id} has no labeled data")
    rows = _client_rows(dataset, pool, init_model.arch, local_fn)
    ws, x, y, _ = rows
    rng = rng_for(seed, pool.client_id)

    def step(t, params):
        return _client_update(local_fn, params, rows, cfg.schedule.lr(t), cfg, rng)

    return _train_to_threshold(init_model, cfg, step, lambda params: nn._loss(ws, params, x, y))


def evaluate(model: Model, test: Dataset) -> float:
    """Accuracy of head-0 argmax predictions (ties go to the lowest class index)."""
    if test.size == 0:
        raise EmptyInputError("empty test set")
    probs = nn.forward(model, test.features)[0]
    predictions = probs.argmax(axis=1)
    return float(np.mean(predictions == test.labels))

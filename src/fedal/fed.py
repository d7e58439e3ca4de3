"""Synchronous cross-silo FedAvg plus per-client independent training.

One global iteration: every client with labeled data starts from the current
global parameters, runs ``local_epochs`` of (mini-batch) SGD at the
iteration's learning rate, and the server replaces the global parameters
with the sample-count weighted average of the local results.  Training stops
early once the sample-weighted mean of the clients' end-of-update training
losses drops below ``stop_loss_threshold``, and otherwise at
``max_global_iters``.  Independent training runs the same loop on one
client, with the weighted average left out.

Clients whose labeled pool is empty are skipped (weight zero); they simply
receive the next global model like everyone else.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .data import ClientPools, Dataset, gather
from .errors import ConfigError, EmptyInputError, InvalidStateError, ShapeError
from .nn import LrSchedule, Model
from .seeding import rng_for

Array = np.ndarray


@dataclass(frozen=True)
class FedConfig:
    """Knobs for one federated (or independent) training run."""

    schedule: LrSchedule
    local_epochs: int = 1
    minibatch_size: int | None = None  # None = full batch
    stop_loss_threshold: float = 1e-3
    max_global_iters: int = 100

    def __post_init__(self):
        if not (isinstance(self.local_epochs, int) and self.local_epochs >= 1):
            raise ConfigError(f"local_epochs must be an int >= 1, got {self.local_epochs}")
        if self.minibatch_size is not None and not (
            isinstance(self.minibatch_size, int) and self.minibatch_size >= 1
        ):
            raise ConfigError(f"minibatch_size must be 'full' (None) or an int >= 1, got {self.minibatch_size}")
        if not (np.isfinite(self.stop_loss_threshold) and self.stop_loss_threshold > 0):
            raise ConfigError(f"stop_loss_threshold must be finite and > 0, got {self.stop_loss_threshold}")
        if not (isinstance(self.max_global_iters, int) and self.max_global_iters >= 1):
            raise ConfigError(f"max_global_iters must be an int >= 1, got {self.max_global_iters}")


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
    counts = [float(c) for c in sample_counts]
    if len(counts) != len(vectors):
        raise ShapeError(f"{len(vectors)} vectors but {len(counts)} sample counts")
    if any(not np.isfinite(c) or c < 1 for c in counts):
        raise ConfigError(f"sample counts must be >= 1, got {sample_counts}")
    total = sum(counts)
    acc = np.zeros_like(vectors[0])
    for vec, count in zip(vectors, counts):
        acc += count * vec
    acc /= total
    stacked = np.stack(vectors)
    return np.clip(acc, stacked.min(axis=0), stacked.max(axis=0))


def local_update(model: Model, features, labels, lr: float, cfg: FedConfig, rng) -> Array:
    """``cfg.local_epochs`` passes of SGD at a fixed learning rate; returns new params.

    Each pass is one full batch in stored order, or shuffled minibatches.
    """
    feats = np.asarray(features, dtype=np.float64)
    if feats.size == 0:
        raise EmptyInputError("client has no labeled examples")
    y = np.asarray(labels)
    params = model.params
    for _ in range(cfg.local_epochs):
        for batch in nn.minibatches(feats.shape[0], cfg.minibatch_size, rng):
            g = nn.grad(Model(model.arch, params), feats[batch], y[batch], rng)
            params = nn.sgd_step(params, g, lr)
    return params


def _supervised_update(model: Model, features, labels, lr: float, cfg: FedConfig, rng,
                       client_id: int) -> Array:
    return local_update(model, features, labels, lr, cfg, rng)


def _train_to_threshold(init_model: Model, cfg: FedConfig, step) -> FedRunReport:
    """Iterate ``step(t, params) -> (params, loss)`` for t = 1, 2, ...

    Stops once the loss drops below ``cfg.stop_loss_threshold``, and otherwise
    after ``cfg.max_global_iters`` iterations.
    """
    params = init_model.params.copy()
    trace: list[float] = []
    for t in range(1, cfg.max_global_iters + 1):
        params, value = step(t, params)
        trace.append(value)
        if value < cfg.stop_loss_threshold:
            break
    return FedRunReport(Model(init_model.arch, params), len(trace), tuple(trace))


def fedavg(dataset: Dataset, pools: list[ClientPools], init_model: Model, cfg: FedConfig,
           seed, local_fn=None) -> FedRunReport:
    """Run FedAvg until the stopping loss or the iteration cap is reached.

    ``local_fn(model, features, labels, lr, cfg, rng, client_id) -> params``
    replaces the plain supervised local update when given (used for
    head-disagreement training of the two-head scoring model).  Client
    ``m`` draws iteration ``t``'s randomness from ``rng_for(seed, "local", m, t)``.
    """
    if all(len(p.labeled) == 0 for p in pools):
        raise InvalidStateError("no client has labeled data")
    arch = init_model.arch
    local_fn = local_fn or _supervised_update
    # Clients without labels get weight zero: they only receive the global model.
    clients = [(pool.client_id, *gather(dataset, pool.labeled)) for pool in pools if pool.labeled]
    counts = [len(labels) for _, _, labels in clients]
    total = float(sum(counts))

    def step(t, params):
        lr = cfg.schedule.lr(t)
        updated: list[Array] = []
        mean_loss = 0.0
        for (client_id, feats, labels), count in zip(clients, counts):
            rng = rng_for(seed, "local", client_id, t)
            new_params = local_fn(Model(arch, params), feats, labels, lr, cfg, rng, client_id)
            updated.append(new_params)
            # End-of-update training loss on the client's full labeled set,
            # evaluated deterministically (no dropout).
            mean_loss += (count / total) * nn.loss(Model(arch, new_params), feats, labels)
        return weighted_average(updated, counts), mean_loss

    return _train_to_threshold(init_model, cfg, step)


def independent_train(dataset: Dataset, pools: list[ClientPools], client: int,
                      init_model: Model, cfg: FedConfig, seed, local_fn=None) -> FedRunReport:
    """Train on one client's labeled pool only, decaying the rate per iteration.

    Each iteration is one local update, exactly as one client's part of a
    :func:`fedavg` iteration (``local_fn`` has the same meaning), followed
    by the same stopping rule on that client's training loss.  Unlike
    FedAvg, every iteration draws from the single stream
    ``rng_for(seed, client_id)``.
    """
    pool = pools[client]
    if not pool.labeled:
        raise InvalidStateError(f"client {pool.client_id} has no labeled data")
    feats, labels = gather(dataset, pool.labeled)
    arch = init_model.arch
    local_fn = local_fn or _supervised_update
    rng = rng_for(seed, pool.client_id)

    def step(t, params):
        new_params = local_fn(Model(arch, params), feats, labels, cfg.schedule.lr(t), cfg, rng,
                              pool.client_id)
        return new_params, nn.loss(Model(arch, new_params), feats, labels)

    return _train_to_threshold(init_model, cfg, step)


def evaluate(model: Model, test: Dataset) -> float:
    """Accuracy of head-0 argmax predictions (ties go to the lowest class index)."""
    if test.size == 0:
        raise EmptyInputError("empty test set")
    probs = nn.forward(model, test.features)[0]
    predictions = probs.argmax(axis=1)
    return float(np.mean(predictions == test.labels))

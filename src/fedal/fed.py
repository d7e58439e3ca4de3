"""Cross-silo FedAvg in one loop; independent training is that loop over one client on one stream.

One global iteration: every client with labeled data starts from the current
global parameters, runs ``local_epochs`` of (mini-batch) SGD at the
iteration's learning rate, and the server replaces the global parameters
with the sample-count weighted average of the local results (with one
client, its result as it stands).  Training stops on the model it returns:
early, once the global model's training loss (the sample-weighted mean over
clients of the loss at the global parameters) drops below
``stop_loss_threshold`` after at least one iteration, and otherwise at
``max_global_iters``.  :func:`independent_train` runs the loop over one
client, which draws every iteration's randomness from one stream.

Each iteration reports the loss of the parameters it started from, so the
check lags one update: the iteration after the one that stops the run has
its update dropped, and a run that reaches the cap ends on iteration
``max_global_iters + 1``, which makes no update and no stream and only takes
the last model's loss.  A local update whose labeled steps draw nothing (full
batches, no dropout), two-head or not, reads that loss from its first
gradient's forward pass; minibatches or dropout take one deterministic loss
pass per group and iteration.

Clients that hold the same number of labels run their local updates as one
pass over stacked arrays (see :mod:`fedal.nn`): the loop groups the clients
by labeled count, in client order, and builds one :class:`nn.Workspace` per
group; a lone client runs on its own 2-D arrays.  Stacking changes no bit.
Each client's stream draws what it drew alone and in the same order: its
labeled permutation, then its unlabeled permutation (two-head runs), then
per step each hidden layer's dropout mask.  Updates and start losses go
back into client order before :func:`weighted_average` and the loss sum.

:func:`_local_update` is the one local SGD loop; given unlabeled rows it
adds the two-head disagreement gradient at every step.  Two-head runs also
group clients by the unlabeled batch a step uses: ``minibatch_size`` rows
drawn from a larger pool, or the whole pool.  A ``local_fn`` with
:func:`_local_update`'s signature replaces it, once per group and iteration
(:func:`strategies.train_discrepancy_heads` checks its input and runs it).
It gets the group's checked labeled pair and the members' unlabeled feature
rows, read once per run straight from the dataset: their labels stay hidden.

A plain group (no ``local_fn``) whose smaller half holds at least
:data:`_SPLIT_ROWS` rows in one step is split when the process may use two
cores: its first members form a group of their own that a worker thread
runs while the main thread runs the other groups.  Each iteration, the
cap's loss pass included, hands the worker one job holding all its groups;
the main thread makes every stream before it submits and reads the result
before it averages.  Each thread puts its groups' results at their members'
slots; the output is byte-identical with or without the worker, which is
joined before the run returns or raises.

Clients whose labeled pool is empty are skipped (weight zero); they simply
receive the next global model like everyone else.  The loop checks each
client's labeled pair once per run, where it gathers it, and then runs nn's
unchecked cores in its group's workspace.  A run whose training loss is not
finite, or a plain run whose last loss is above its first, raises
:class:`InvalidStateError` instead of returning a diverged model.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass
from typing import NamedTuple

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
    """Outcome of a training run: final model, iterations used, loss trace and what stopped it.

    ``stopped_by`` is ``"threshold"`` when the returned model's training
    loss (``loss_trace[-1]``) is below ``stop_loss_threshold``, and
    ``"cap"`` when the run used ``max_global_iters`` updates without that.
    """

    final_model: Model
    global_iters_used: int
    loss_trace: tuple[float, ...]
    stopped_by: str


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
    """Whether a local update's labeled steps on ``n`` rows draw randomness.

    They do with dropout, or with minibatches smaller than ``n`` (see
    :func:`nn.minibatches`).  Otherwise every epoch is one full batch in
    stored order, and the first gradient's forward pass gives the loss.
    """
    return arch.dropout_rate > 0.0 or (cfg.minibatch_size is not None and cfg.minibatch_size < n)


def _local_update(ws: nn.Workspace, params: Array, x: Array, y: Array, lr: float, cfg: FedConfig,
                  rng, unlabeled=None) -> tuple[Array, Array | None]:
    """``cfg.local_epochs`` SGD passes in ``ws``'s buffers: (new params, loss of ``params`` or None).

    In a stacked workspace every client starts from the one vector
    ``params``, ``rng`` holds one stream per client (or is None), and the
    results hold one row or one loss per client.

    ``unlabeled``, a two-head model's checked unlabeled rows (a stack's as a
    list of pools), adds the heads' disagreement gradient
    (:func:`nn._discrepancy_grad`) to each step's gradient before the rate
    scales it: on the whole pool, or, with smaller minibatches, on the next
    ``size`` rows of a per-epoch permutation (wrapping), each pool drawn by
    its own stream.  The loss is None when the labeled steps draw.
    """
    size = cfg.minibatch_size
    start_loss, first = None, not _update_draws(ws.arch, cfg, y.shape[-1])
    for _ in range(cfg.local_epochs):
        batches = nn.minibatches(x, y, size, rng)
        drawn = None if unlabeled is None else _unlabeled_batches(unlabeled, size, len(batches), rng)
        for step, (xb, yb) in enumerate(batches):
            value, g = nn._grad(ws, params, xb, yb, rng, first)
            if first:
                start_loss = value
            if drawn is not None:
                g += nn._discrepancy_grad(ws, params, drawn[step])
            g *= lr
            params, first = params - g, False
    return params, start_loss


def _unlabeled_batches(unlabeled, size: int | None, steps: int, rng):
    """An epoch's unlabeled batch per step, a stack's as ``(M, rows, d)`` (see :func:`_local_update`)."""
    stacked = isinstance(unlabeled, list)
    pools, streams = (unlabeled, rng) if stacked else ([unlabeled], [rng])
    if size is None or size >= len(pools[0]):  # a group's pools are all whole or all drawn
        return [np.stack(pools) if stacked else unlabeled] * steps
    wrap = np.arange(steps * size).reshape(steps, size)
    drawn = [pool[stream.permutation(len(pool))[wrap % len(pool)]] for pool, stream in zip(pools, streams)]
    return np.stack(drawn, axis=1) if stacked else drawn[0]


class _Group(NamedTuple):
    """The labeled clients that share one labeled count and unlabeled batch, run as one pass.

    ``members`` are positions in the run's client list, in client order.  A
    lone client runs on its own 2-D pair in a single-model workspace; two
    or more run stacked, with ``x`` of ``(M, n, d)`` and ``y`` of ``(M, n)``.
    ``draws`` says whether their updates draw randomness (two-head updates
    always may).  ``unlabeled`` holds the members' pools in two-head runs.
    """

    members: list[int]
    ws: nn.Workspace
    x: Array
    y: Array
    draws: bool
    unlabeled: Array | list[Array] | None

    def streams(self, stream, ids: list, t: int):
        """The members' streams for iteration ``t``, a lone client's alone, or None when they draw nothing."""
        if not self.draws:
            return None
        rngs = [stream(ids[i], t) for i in self.members]
        return rngs if self.ws.clients else rngs[0]

    def put(self, result, out: list) -> None:
        """Store a core result (one entry per member) at the members' positions in ``out``."""
        for i, value in zip(self.members, result if self.ws.clients else [result]):
            out[i] = value


def _group(arch, members: list[int], batches: list[tuple[Array, Array]], draws: bool,
           pools: list[Array] | None) -> _Group:
    """The group of ``members``: a lone client on its own 2-D pair, else a stack."""
    if len(members) == 1:
        x, y = batches[members[0]]
        return _Group(members, nn.Workspace(arch), x, y, draws, pools and pools[0])
    xs, ys = zip(*(batches[i] for i in members))
    return _Group(members, nn.Workspace(arch, len(members)), np.stack(xs), np.stack(ys), draws, pools)


# A plain group runs as two halves on two threads when the smaller half's step holds at least
# this many rows: below about 2,000 the handoff costs more than the second core saves.
_SPLIT_ROWS = 2000


def _usable_cores() -> int:
    """The number of cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has it
        return os.cpu_count() or 1


def _groups(arch, cfg: FedConfig, batches: list[tuple[Array, Array]],
            unlabeled: list[Array] | None) -> tuple[list[_Group], list[_Group]]:
    """The main thread's groups and the worker's: clients by labeled count and, with two heads, batch.

    A two-head step takes ``minibatch_size`` rows drawn from a larger pool,
    or the whole pool.  Groups come by first member, in client order.  A
    plain group whose smaller half would hold :data:`_SPLIT_ROWS` rows in one
    step, on a process with two cores, is split into two groups: its first
    ``M // 2`` members go to the worker's list, with row buffers made here,
    on the main thread, and the rest stay in the main list.
    """
    size, by_key = cfg.minibatch_size, {}
    for i, (_, y) in enumerate(batches):
        pool = 0 if unlabeled is None else len(unlabeled[i])
        by_key.setdefault((len(y), None if size is not None and size < pool else pool), []).append(i)
    main, worker = [], []
    for (count, _), members in by_key.items():
        pools = None if unlabeled is None else [unlabeled[i] for i in members]
        draws = pools is not None or _update_draws(arch, cfg, count)
        step, cut = count if size is None else min(size, count), len(members) // 2
        if pools is None and cut * step >= _SPLIT_ROWS and _usable_cores() > 1:
            worker.append(_group(arch, members[:cut], batches, draws, None))
            worker[-1].ws.rows(step)  # made by the worker, they would come from its own malloc arena
            members = members[cut:]
        main.append(_group(arch, members, batches, draws, pools))
    return main, worker


def _weighted_sum(weights: list[float], values: list) -> float:
    """``sum(w * v)`` accumulated left to right, in client order, as Python floats."""
    total = 0.0
    for weight, value in zip(weights, values):
        total += weight * float(value)
    return total


def _run(groups: list[_Group], rngs: list, update, params: Array, lr: float, cfg: FedConfig,
         updated: list, losses: list) -> None:
    """Each group's update of ``params`` and loss at ``params``, put at its members' slots.

    The loss is the update's start loss, else a loss pass.  With ``update``
    None (the cap's last iteration) a group takes only the loss pass.
    """
    for group, rng in zip(groups, rngs):
        start_loss = None
        if update is not None:
            new_params, start_loss = update(group.ws, params, group.x, group.y, lr, cfg, rng, group.unlabeled)
            group.put(new_params, updated)
        if start_loss is None:
            start_loss = nn._loss(group.ws, params, group.x, group.y)
        group.put(start_loss, losses)


def _train(dataset: Dataset, pools: list[ClientPools], init_model: Model, cfg: FedConfig, stream,
           local_fn, tag) -> FedRunReport:
    """FedAvg over the clients of ``pools`` that hold labels, until the stop rule ends it.

    Client ``m`` draws iteration ``t``'s randomness from ``stream(m, t)``,
    called on the main thread group by group (the worker's groups first),
    in client order within a group, and only when the update can draw:
    always for a ``local_fn``, else as :func:`_update_draws` says.
    ``loss_trace[k]`` is the training loss after ``k + 1`` updates, so its
    length is the number of updates.  Iteration ``t`` reports the loss of
    update ``t - 1``'s result, so when that loss stops the run, iteration
    ``t``'s own update is dropped before it is averaged.  Iteration
    ``max_global_iters + 1`` makes no update and no stream: its loss pass
    gives a capped run's last entry.

    The worker's groups (see :func:`_groups`) run on the worker thread, one
    job per iteration, that last one included, while the main thread runs
    the rest.  The run raises :class:`InvalidStateError`, naming ``tag``,
    when a trace loss is not finite, or when a run of the plain update (no
    ``local_fn``) ends above its first loss.
    """
    arch = init_model.arch
    # Clients without labels get weight zero: they only receive the global model.
    ids, batches, unlabeled = [], [], []
    for pool in pools:
        if pool.labeled_count:
            ids.append(pool.client_id)
            batches.append(nn.labeled_batch(arch, *gather(dataset, pool.labeled_rows)))
            unlabeled.append(None if local_fn is None else dataset.features[pool.unlabeled_rows])
    main, worker = _groups(arch, cfg, batches, None if local_fn is None else unlabeled)
    update = local_fn or _local_update
    counts = [len(y) for _, y in batches]
    weights = [count / float(sum(counts)) for count in counts]
    params, trace = init_model.params.copy(), []
    updated, losses = [None] * len(ids), [None] * len(ids)
    if worker:
        from concurrent.futures import ThreadPoolExecutor  # here, so that `import fedal` loads no pool
    # Each thread puts only its own groups' slots, read after the job's result.
    with ThreadPoolExecutor(1) if worker else contextlib.nullcontext() as executor:
        for t in range(1, cfg.max_global_iters + 2):
            step = update if t <= cfg.max_global_iters else None  # past the cap: no stream, a loss pass
            args = (step, params, cfg.schedule.lr(t), cfg, updated, losses)
            if worker:
                rngs = [g.streams(stream, ids, t) if step else None for g in worker]
                job = executor.submit(_run, worker, rngs, *args)
            _run(main, [g.streams(stream, ids, t) if step else None for g in main], *args)
            if worker:
                job.result()
            if t > 1:
                trace.append(_weighted_sum(weights, losses))
                if step is None or trace[-1] < cfg.stop_loss_threshold:
                    break
            # The average of one update is that update (weighted_average's clamp makes it exact).
            params = updated[0] if len(updated) == 1 else weighted_average(updated, counts)
    _check_descent(trace, local_fn is None, cfg, tag, ids)
    # A run that meets the threshold with its last update at the cap ends as a threshold stop would.
    stopped_by = "threshold" if trace[-1] < cfg.stop_loss_threshold else "cap"
    return FedRunReport(Model(arch, params), len(trace), tuple(trace), stopped_by)


def _check_descent(trace: list[float], plain: bool, cfg: FedConfig, tag, ids: list) -> None:
    """Raise when a trace loss is not finite, or when a plain run ends above its first loss.

    Two-head runs descend cross-entropy minus the heads' disagreement, so
    their cross-entropy may rise; only the first rule judges them.
    """
    bad = next((k for k, value in enumerate(trace) if not math.isfinite(value)), None)
    if bad is None and plain and trace[-1] > trace[0]:
        bad = len(trace) - 1
    if bad is not None:
        raise InvalidStateError(
            f"run {tag!r} on clients {ids} diverged: the loss after iteration {bad + 1} "
            f"(rate {cfg.schedule.lr(bad + 1)!r}) is {trace[bad]!r}, against {trace[0]!r} after the first")


def fedavg(dataset: Dataset, pools: list[ClientPools], init_model: Model, cfg: FedConfig,
           seed, local_fn=None) -> FedRunReport:
    """Run FedAvg until the global model's training loss or the iteration cap stops it.

    ``local_fn`` replaces the plain supervised local update when given (see
    the module docstring).  Client ``m`` draws iteration ``t``'s randomness
    from ``rng_for(seed, "local", m, t)``.
    """
    if all(p.labeled_count == 0 for p in pools):
        raise InvalidStateError("no client has labeled data")
    return _train(dataset, pools, init_model, cfg, lambda m, t: rng_for(seed, "local", m, t), local_fn,
                  seed)


def independent_train(dataset: Dataset, pools: list[ClientPools], client: int,
                      init_model: Model, cfg: FedConfig, seed, local_fn=None) -> FedRunReport:
    """Train on one client's labeled pool only: :func:`fedavg` over that one client.

    Each iteration is one local update (``local_fn`` has the same meaning),
    and the same stopping rule applies to that client's training loss.
    Unlike FedAvg, every iteration draws from the single stream
    ``rng_for(seed, client_id)``.
    """
    if not (is_count(client, minimum=0) and client < len(pools)):
        raise ConfigError(f"client: must be an int in [0, {len(pools)}), got {client!r}")
    pool = pools[client]
    if not pool.labeled_count:
        raise InvalidStateError(f"client {pool.client_id} has no labeled data")
    rng = rng_for(seed, pool.client_id)
    return _train(dataset, [pool], init_model, cfg, lambda client_id, t: rng, local_fn, seed)


def evaluate(model: Model, test: Dataset) -> float:
    """Accuracy of head-0 argmax predictions (ties go to the lowest class index)."""
    if test.size == 0:
        raise EmptyInputError("empty test set")
    probs = nn.forward(model, test.features)[0]
    predictions = probs.argmax(axis=1)
    return float(np.mean(predictions == test.labels))

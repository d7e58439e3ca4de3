"""Correctness checks the benchmark applies to what fedal computes.

Every check compares fedal's output against the benchmark's own computation
or against a property of the method, never against a stored copy of earlier
output.  A check returns ``None`` when it passes and a message otherwise.
"""

from __future__ import annotations

import math

import numpy as np

CSV_HEADER = "strategy,scorer,round,repeat,labeled_fraction,test_accuracy"

# Six-decimal CSV fields: a printed value is within half a unit of the last
# place of the exact one (plus a little binary round-off).
CSV_HALF_ULP = 5.0e-7 + 1e-12


# -- model and training ------------------------------------------------------

def reference_logits(model, features) -> np.ndarray:
    """Head-0 logits from the flat-parameter layout documented in ``fedal.nn``.

    Per hidden layer a row-major (fan_in x fan_out) weight matrix and its
    bias, then per output head its weight matrix and bias.
    """
    arch, params = model.arch, np.asarray(model.params)
    sizes = arch.layer_sizes
    expected = sum(a * b + b for a, b in zip(sizes[:-2], sizes[1:-1]))
    expected += arch.head_count * (sizes[-2] * sizes[-1] + sizes[-1])
    if params.shape != (expected,):
        raise ValueError(f"parameter vector has shape {params.shape}, layout needs ({expected},)")
    offset = 0

    def take(rows, cols):
        nonlocal offset
        weights = params[offset:offset + rows * cols].reshape(rows, cols)
        offset += rows * cols
        bias = params[offset:offset + cols]
        offset += cols
        return weights, bias

    act = np.asarray(features, dtype=np.float64)
    for fan_in, fan_out in zip(sizes[:-2], sizes[1:-1]):
        weights, bias = take(fan_in, fan_out)
        z = act @ weights + bias
        act = np.maximum(z, 0.0) if arch.activation == "relu" else np.tanh(z)
    weights, bias = take(sizes[-2], sizes[-1])
    return act @ weights + bias


def evaluation(model, test, accuracy) -> str | None:
    mine = float(np.mean(reference_logits(model, test.features).argmax(axis=1) == test.labels))
    if mine != accuracy:
        return f"evaluate returned {accuracy!r}, the reference forward pass gives {mine!r}"
    return None


def weighted_average(param_vectors, sample_counts, result) -> str | None:
    stacked = np.stack([np.asarray(v, dtype=np.float64) for v in param_vectors])
    weights = np.asarray(sample_counts, dtype=np.float64)
    expected = weights @ stacked / weights.sum()
    error = np.max(np.abs(np.asarray(result) - expected))
    if not error <= 1e-12 * np.max(np.abs(expected)):
        return f"weighted_average is {error:.3e} away from sum(n*theta)/sum(n)"
    return None


# -- scoring and selection ---------------------------------------------------

def entropy_ceiling(model) -> float:
    return math.log(model.arch.class_count)


def score_range(scores, high: float) -> str | None:
    values = np.atleast_1d(np.asarray(scores, dtype=np.float64))
    tol = 1e-12 * max(1.0, high)
    if not (np.all(np.isfinite(values)) and values.min() >= -tol and values.max() <= high + tol):
        return f"scores span [{values.min()!r}, {values.max()!r}], outside [0, {high!r}]"
    return None


def top_b(candidates, b: int, chosen) -> str | None:
    """The b highest scores, ties broken toward the lowest index, sorted by index."""
    index = np.array([c.index for c in candidates], dtype=np.int64)
    score = np.array([c.score for c in candidates], dtype=np.float64)
    order = np.lexsort((index, -score))
    expected = sorted(int(i) for i in index[order[:b]])
    if list(chosen) != expected:
        differ = sorted(set(chosen) ^ set(expected))[:6]
        return f"select_top_b and the lexsort oracle differ on indices {differ}"
    return None


def _distances(points, centers) -> np.ndarray:
    sq = (points ** 2).sum(axis=1)[:, None] + (centers ** 2).sum(axis=1)[None, :]
    sq -= 2.0 * (points @ centers.T)
    return np.sqrt(np.maximum(sq, 0.0))


def coreset(labeled, unlabeled, b: int, indices, picks) -> str | None:
    """Greedy k-center: each pick is a farthest point from everything chosen so far.

    That makes the first pick the argmax of the distance to the labeled set
    and the sequence of max-min distances non-increasing.
    """
    lab = np.atleast_2d(np.asarray(labeled, dtype=np.float64))
    pool = np.atleast_2d(np.asarray(unlabeled, dtype=np.float64))
    ids = np.arange(pool.shape[0]) if indices is None else np.asarray(indices, dtype=np.int64)
    row_of = {int(v): row for row, v in enumerate(ids)}
    if len(picks) != b or len(set(picks)) != b or not all(int(p) in row_of for p in picks):
        return f"coreset_greedy returned {len(picks)} picks for b={b}, or repeats or foreign ids"
    min_dist = _distances(pool, lab).min(axis=1)
    tol = 1e-9 * (1.0 + float(min_dist.max()))
    available = np.ones(pool.shape[0], dtype=bool)
    previous = math.inf
    for step, pick in enumerate(picks):
        row = row_of[int(pick)]
        radius = float(min_dist[row])
        farthest = float(min_dist[available].max())
        if radius < farthest - tol:
            return f"pick {step} is at {radius!r} but a point at {farthest!r} was available"
        if radius > previous + tol:
            return f"max-min distance rose from {previous!r} to {radius!r} at pick {step}"
        previous = radius
        available[row] = False
        min_dist = np.minimum(min_dist, np.sqrt(((pool - pool[row]) ** 2).sum(axis=1)))
    return None


def annotation(pools, client: int, selected) -> str | None:
    """Every annotated index is in that client's unlabeled pool and no other shard."""
    chosen = {int(i) for i in selected}
    missing = chosen - set(pools[client].unlabeled)
    if missing:
        return f"client {client} annotated {sorted(missing)[:5]} outside its unlabeled pool"
    for other in pools:
        if other is not pools[client] and chosen & set(other.shard):
            return f"client {client} annotated indices of client {other.client_id}'s shard"
    return None


# -- the result CSV ----------------------------------------------------------

def result_csv(text: str, expect) -> list[tuple[object, str]]:
    """Structure of one pass's CSV against the runs that produced it.

    ``expect`` is a workloads.CsvExpectation.  Returns (op or None, message)
    pairs; an op is a (strategy, seed) key.
    """
    lines = text.split("\n")
    if lines[-1] != "" or lines[0] != CSV_HEADER:
        return [(None, f"CSV header is {lines[0]!r}, or the file lacks its final newline")]
    per_run: dict[tuple[str, str], dict[int, tuple[str, str]]] = {}
    summary: dict[tuple[str, int, str], tuple[str, str]] = {}
    run_rows = 0
    for line in lines[1:-1]:
        strategy, _scorer, round_s, repeat, frac, acc = line.split(",")
        if repeat in ("mean", "std"):
            summary[(strategy, int(round_s), repeat)] = (frac, acc)
        else:
            per_run.setdefault((strategy, repeat), {})[int(round_s)] = (frac, acc)
            run_rows += 1
    problems = []
    if run_rows != len(expect.ops) * expect.rounds:
        problems.append((None, f"{run_rows} per-run rows, expected one per (seed, round): "
                               f"{len(expect.ops) * expect.rounds}"))
    rounds = list(range(1, expect.rounds + 1))
    step = expect.quota_sum / expect.train_size
    for op, repeat in expect.ops.items():
        rows = per_run.pop((op[0], str(repeat)), {})
        logs = expect.logs.get(op)
        if sorted(rows) != rounds or logs is None or len(logs) != len(rounds):
            problems.append((op, f"rounds {sorted(rows)} in the CSV, expected {rounds}"))
            continue
        fracs = [float(rows[r][0]) for r in rounds]
        if abs(fracs[0] - step - expect.initial_fraction) > expect.initial_slack + CSV_HALF_ULP:
            problems.append((op, f"round-1 labeled fraction {fracs[0]} does not start at "
                                 f"{expect.initial_fraction} + {step}"))
        for r in rounds[1:]:
            if abs(fracs[r - 1] - fracs[r - 2] - step) > 2 * CSV_HALF_ULP:
                problems.append((op, f"labeled fraction rose by {fracs[r - 1] - fracs[r - 2]} "
                                     f"in round {r}, expected {step}"))
        for r, log in zip(rounds, logs):
            acc = float(rows[r][1])
            if not (1.0 / expect.classes < log.test_accuracy <= 1.0):
                problems.append((op, f"round {r} accuracy {log.test_accuracy} outside (1/C, 1]"))
            if abs(acc - log.test_accuracy) > CSV_HALF_ULP:
                problems.append((op, f"round {r} CSV accuracy {acc} != logged {log.test_accuracy}"))
    for key in per_run:
        problems.append((None, f"unexpected CSV rows for {key}"))
    if expect.summary:
        problems += _summary(summary, expect)
    elif summary:
        problems.append((None, "unexpected mean/std rows"))
    return problems


def _summary(summary, expect) -> list[tuple[object, str]]:
    """mean/std rows against NumPy's mean and population std of the per-run values."""
    problems = []
    for strategy in {op[0] for op in expect.ops}:
        ops = [op for op in expect.ops if op[0] == strategy]
        if any(op not in expect.logs for op in ops):
            continue  # a run that did not finish has already failed
        for r in range(1, expect.rounds + 1):
            accs = np.array([expect.logs[op][r - 1].test_accuracy for op in ops])
            fracs = np.array([sum(expect.logs[op][r - 1].labeled_counts) / expect.train_size
                              for op in ops])
            for stat, value in (("mean", accs.mean()), ("std", accs.std())):
                got = summary.get((strategy, r, stat))
                if got is None or abs(float(got[1]) - value) > CSV_HALF_ULP \
                        or abs(float(got[0]) - fracs.mean()) > CSV_HALF_ULP:
                    problems += [(op, f"{strategy} round {r} {stat} row {got} != {value}")
                                 for op in ops]
    return problems

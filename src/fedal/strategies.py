"""Acquisition scorers and selection rules for pool-based annotation.

Scorers map a model and a 2-D batch of feature rows to one real number per
row, where larger means "more worth labeling": predictive entropy,
MC-dropout entropy and the L1 disagreement of a two-head classifier.
Core-set selection is a set objective rather than a per-instance score, so
it gets its own greedy routine.  That routine sums exactly only the
distances that could change a nearest distance; the triangle inequality over
groups of labeled rows rules out the rest, as Elkan (ICML 2003) does for
k-means.  All selection uses a deterministic tie-break on the lowest dataset
index.  Random sampling needs no scorer: the orchestrator draws uniform
scores from the selection stream directly.  Two-head training checks the
unlabeled rows of a client or of a stacked group of clients, and runs
FedAvg's local update (:func:`fed._local_update`) with them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import nn
from .data import as_indices
from .errors import (
    BudgetError,
    ConfigError,
    InvalidModelError,
    InvalidStateError,
    ShapeError,
    is_count,
)
from .fed import FedConfig, _local_update
from .nn import Model

Array = np.ndarray

SCORER_KINDS = ("random", "entropy", "mc_dropout", "discrepancy", "coreset")


@dataclass(frozen=True)
class ScorerSpec:
    """Which scorer to use plus its knobs."""

    kind: str
    mc_passes: int = 10

    def __post_init__(self):
        if self.kind not in SCORER_KINDS:
            raise ConfigError(f"kind: unknown scorer {self.kind!r}; expected one of {SCORER_KINDS}")
        if not is_count(self.mc_passes):
            raise ConfigError(f"mc_passes: must be an int >= 1, got {self.mc_passes}")

    @property
    def needs_two_heads(self) -> bool:
        return self.kind == "discrepancy"


def _entropy_of(probs: Array):
    """-sum p log p over the last axis (the classes) of ``probs``.

    A zero probability adds exactly +0.0 and warns nothing, and a one-hot
    row scores +0.0, not -0.0.  A NaN probability makes its row NaN, so a
    diverged model fails :func:`select_top_b`'s finiteness check instead of
    scoring as certain.
    """
    nonzero = probs != 0
    terms = np.zeros_like(probs)
    np.log(probs, out=terms, where=nonzero)
    np.multiply(-probs, terms, out=terms, where=nonzero)
    return terms.sum(axis=-1)


def score_entropy(model: Model, x):
    """Predictive entropy of the deterministic head-0 distribution, per row of ``x``.

    0 for a one-hot prediction, ln(C) for a uniform one.
    """
    return _entropy_of(nn.forward(model, x)[0])


def score_mc_dropout(model: Model, x, passes: int, rng):
    """Entropy of the mean predictive distribution over stochastic forward passes.

    With ``dropout_rate == 0`` every pass is identical, so this degenerates
    to exactly :func:`score_entropy` (computed with a single deterministic
    pass).
    """
    if not is_count(passes):
        raise ConfigError(f"passes: mc_dropout needs an int >= 1, got {passes}")
    if model.arch.dropout_rate == 0.0:
        return score_entropy(model, x)
    acc = None
    for _ in range(passes):
        probs = nn.forward(model, x, rng)[0]
        acc = probs if acc is None else acc + probs
    return _entropy_of(acc / passes)


def score_discrepancy(model: Model, x):
    """L1 distance between the two heads' predictive distributions per row of ``x`` (range [0, 2])."""
    if model.arch.head_count != 2:
        raise InvalidModelError(f"discrepancy scoring needs exactly 2 heads, got {model.arch.head_count}")
    head_a, head_b = nn.forward(model, x)
    return np.abs(head_a - head_b).sum(axis=-1)


def select_top_b(candidates, b: int) -> list[int]:
    """Indices of the ``b`` highest-scoring candidates.

    ``candidates`` is a NumPy record array with one record per pool point:
    an integer ``index`` field and a finite ``score`` field.  Ties break
    toward the lowest index; the result is sorted by index.
    """
    index, score = as_indices(candidates.index), candidates.score
    not_finite = np.flatnonzero(~np.isfinite(score))
    if not_finite.size:
        raise ShapeError(f"score for index {index[not_finite[0]]} is not finite")
    if not is_count(b, minimum=0):
        raise BudgetError(f"b: selection size must be a non-negative int, got {b}")
    if b > len(index):
        raise BudgetError(f"b: cannot select {b} of {len(index)} candidates")
    return sorted(index[np.lexsort((index, -score))[:b]].tolist())


# Pool rows per block of distance estimates, floats per chunk of exact differences, and
# the most pivots that group the labeled rows.
_BLOCK_ROWS = 1024
_CHUNK_FLOATS = 1 << 16
_PIVOTS = 32
_EPS = np.finfo(np.float64).eps
_TINY = np.finfo(np.float64).smallest_subnormal


def _slack(dim: int, norm_sum):
    """Bound on |exact - estimate| for squared distances between vectors whose norms sum to ``norm_sum``.

    The sequential sum and the BLAS form of :func:`_estimates` each stay
    within (dim + 2) * eps/2 * (|u| + |v|)^2 of the true value, in any
    summation order, plus a few subnormals once values underflow.  This is
    four times the sum of the two bounds, so it holds for any BLAS kernel or
    thread count.  Squaring ``2 * norm_sum`` makes it overflow before any
    estimate can (no partial sum of an estimate exceeds (|u| + |v|)^2 by more
    than rounding), so an overflowed estimate always meets an infinite slack.
    """
    return (dim + 2) * (_EPS * (2.0 * norm_sum) ** 2 + 4.0 * _TINY)


def _sq_dists(a, b):
    """Squared distances between matching rows of ``a`` and ``b`` (pairs x dim; ``b`` may be one row).

    Sums the squared differences one dimension at a time, in order, which
    is how ``scipy.spatial.distance.cdist`` sums them, so the square roots
    equal its distances bit for bit.  An ``accumulate`` is sequential by
    definition, where a ``sum`` may add in pairs.
    """
    diff = a - b
    diff *= diff
    return np.add.accumulate(diff, axis=1)[:, -1]


def _estimates(a, a_sq, b, b_sq):
    """BLAS estimates ``|u|^2 + |v|^2 - 2 u.v`` of the squared distances from each row u of ``a`` to ``b``.

    ``a_sq`` and ``b_sq`` hold squared row norms; a 2-D ``b`` gives a column per row.  All prunes use these.
    """
    est = a @ (-2.0 * b).T
    est += b_sq
    est += a_sq[:, None] if b.ndim == 2 else a_sq
    return est


def _blocks(rows):
    """``rows`` in consecutive blocks of at most ``_BLOCK_ROWS``."""
    return (rows[start:start + _BLOCK_ROWS] for start in range(0, rows.size, _BLOCK_ROWS))


def _split(labels, count):
    """For each label in ``range(count)``, the positions that hold it, in increasing order."""
    return np.split(np.argsort(labels, kind="stable"), np.cumsum(np.bincount(labels, minlength=count))[:-1])


def _pivot_groups(lab, lab_sq, slack):
    """Split the labeled rows into groups around farthest-first pivots.

    Returns the pivot rows, each group's member rows, and an upper bound on
    each group's radius: the true distance from its pivot to any member.
    Groups are formed on BLAS estimates; any grouping is correct as long as
    the radius bounds hold, and the slack makes them hold.  A member whose
    estimates to every pivot are NaN gives its group an infinite radius, so
    that group is never pruned.
    """
    near, group = np.full(lab.shape[0], np.inf), np.zeros(lab.shape[0], dtype=np.intp)
    pivots, at = [], 0
    while True:
        est = _estimates(lab, lab_sq, lab[at], lab_sq[at])
        closer = est < near
        near[closer], group[closer] = est[closer], len(pivots)
        pivots.append(at)
        at = int(np.argmax(near))
        if len(pivots) == _PIVOTS or not near[at] > 0.0:
            break
    members = _split(group, len(pivots))
    kept = [g for g, rows in enumerate(members) if rows.size]
    radius = np.array([np.sqrt(np.maximum(near[members[g]], 0.0)).max() for g in kept])
    radius += np.sqrt(slack)
    return np.array(pivots)[kept], [members[g] for g in kept], radius


def _lower_to_exact(out, home, pool, lab, rows, cols):
    """Lower ``out`` to the exact squared distances of the pairs ``(rows, cols)``, and ``home`` to their argmins.

    Pool row ``rows[i]`` pairs with labeled row ``cols[i]``; a row may come
    more than once.  A row whose minimum the pairs reach, or tie, takes the
    labeled row of such a pair as its home.
    """
    step = max(1, _CHUNK_FLOATS // pool.shape[1])
    for at in range(0, rows.size, step):
        r, c = rows[at:at + step], cols[at:at + step]
        exact = _sq_dists(pool[r], lab[c])
        np.minimum.at(out, r, exact)
        hit = exact == out[r]
        home[r[hit]] = c[hit]


def _nearest_sq(pool, pool_sq, lab, lab_sq, slack):
    """Exact squared distance from each pool row to its nearest labeled row, and that labeled row (its home).

    ``pool_sq`` and ``lab_sq`` hold squared row norms; ``slack`` bounds every
    estimate's error.  The labeled rows form groups around pivots
    (:func:`_pivot_groups`), and one small GEMM estimates every pool row's
    distance to every pivot.  By the triangle inequality, ``d(x, pivot) -
    radius`` bounds the distance from ``x`` to any group member from below.

    1. Each row is estimated against the group with its smallest lower bound.
       Only pairs whose estimate lies within twice the slack of the smallest
       of those estimates can hold the row's exact minimum: that is its window.
    2. A pair inside the window is at most ``sqrt(window) + sqrt(slack)``
       apart.  Only the groups whose lower bound, less one more
       ``sqrt(slack)`` for the estimate of ``d(x, pivot)``, stays below that
       are estimated again, and only their pairs inside the window are summed
       exactly.

    Step 1 only sets the window, and step 2 finds every pair inside it, so
    the minimum is exact for any pivots and groups.  A NaN or infinite window
    keeps every group and every pair of its row.
    """
    pivots, members, radius = _pivot_groups(lab, lab_sq, slack)
    groups = [(cols, lab[cols], lab_sq[cols]) for cols in members]
    lower = _estimates(lab[pivots], lab_sq[pivots], pool, pool_sq)
    np.sqrt(np.maximum(lower, 0.0, out=lower), out=lower)
    lower -= radius[:, None]
    best = np.full(pool.shape[0], np.inf)
    for (_, group_lab, group_sq), rows in zip(groups, _split(lower.argmin(axis=0), len(groups))):
        for block in _blocks(rows):
            best[block] = _estimates(pool[block], pool_sq[block], group_lab, group_sq).min(axis=1)
    window = best + 2.0 * slack
    reach = np.sqrt(np.maximum(window, 0.0)) + 2.0 * np.sqrt(slack)
    reach[~np.isfinite(reach)] = np.nan  # else an infinite lower bound would meet an infinite reach
    # Each row's exact minimum lies inside its window, so every row gets a minimum and a home.
    out, home = np.full(pool.shape[0], np.inf), np.full(pool.shape[0], -1, dtype=np.intp)
    for (cols, group_lab, group_sq), group_lower in zip(groups, lower):
        for block in _blocks(np.flatnonzero(~(group_lower >= reach))):
            est = _estimates(pool[block], pool_sq[block], group_lab, group_sq)
            r, c = np.nonzero(~(est > window[block, None]))
            _lower_to_exact(out, home, pool, lab, block[r], cols[c])
    return out, home


def coreset_greedy(labeled_feats, unlabeled_feats, b: int, indices=None) -> list[int]:
    """Greedy k-center selection in Euclidean space.

    Repeatedly picks the unlabeled point farthest (max-min distance) from the
    labeled set plus everything already picked.  ``indices`` optionally names
    the unlabeled rows with distinct integers (defaults to 0..n-1); ties break
    toward the lowest index value, which makes the output independent of row
    order.  Returns indices in pick order.

    Distances equal ``scipy.spatial.distance.cdist``'s bit for bit.  BLAS
    estimates (:func:`_estimates`) under one slack per call (:func:`_slack`)
    decide which pairs could change a nearest distance, and only those are
    summed exactly.  Two triangle-inequality prunes keep that set small:

    * the first nearest distances skip every group of labeled rows (around
      farthest-first pivots) that lies too far from a pool row to hold its
      minimum (:func:`_nearest_sq`);
    * each pick skips every group of pool rows that share a nearest labeled
      row ``p`` (their home) when the pick lies at least twice the group's
      radius from ``p``; every row left is summed exactly.

    A skipped row's exact sum to the pick cannot fall below its current
    nearest squared distance, so the ``np.minimum`` that a full scan would
    apply leaves it unchanged: the picks are the same for any pivots,
    groups, BLAS kernel or thread count.  Bounds that are NaN or infinite
    keep their rows.
    """
    lab = np.atleast_2d(np.asarray(labeled_feats, dtype=np.float64))
    unlab = np.atleast_2d(np.asarray(unlabeled_feats, dtype=np.float64))
    if lab.size == 0:
        raise InvalidStateError("core-set selection needs at least one labeled point")
    if unlab.size == 0:
        if is_count(b, minimum=0) and b == 0:
            return []
        raise BudgetError(f"b: cannot select {b} points from an empty pool")
    if lab.shape[1] != unlab.shape[1]:
        raise ShapeError(f"labeled dim {lab.shape[1]} != unlabeled dim {unlab.shape[1]}")
    if not (np.isfinite(lab).all() and np.isfinite(unlab).all()):
        raise ShapeError("core-set features must be finite")
    n, dim = unlab.shape
    if not (is_count(b, minimum=0) and b <= n):
        raise BudgetError(f"b: cannot select {b} of {n} pool points")
    idx = np.arange(n, dtype=np.int64) if indices is None else as_indices(indices)
    if idx.shape != (n,):
        raise ShapeError(f"indices must align with the {n} unlabeled rows")
    # Rows in index order, so argmax's first maximum is the lowest-index tie.  A pool already in
    # that order (strictly ascending, as the pipeline passes it) is used as it stands.
    ids, pool = idx, unlab
    if not (idx[1:] > idx[:-1]).all():
        order = np.argsort(idx, kind="stable")
        ids, pool = idx[order], unlab[order]
        repeated = ids[1:][ids[1:] == ids[:-1]]
        if repeated.size:
            raise ShapeError(f"indices must not repeat; {repeated[0]} does")
    # Overflow only makes the slack infinite or an estimate NaN, which sends rows to the exact path.
    with np.errstate(over="ignore", invalid="ignore"):
        pool_sq, lab_sq = (pool * pool).sum(axis=1), (lab * lab).sum(axis=1)
        # The norms of any two rows sum to at most twice the largest, so one slack bounds every estimate.
        slack = _slack(dim, 2.0 * np.sqrt(max(pool_sq.max(), lab_sq.max())))
        min_sq, home = _nearest_sq(pool, pool_sq, lab, lab_sq, slack)
        min_dist = np.sqrt(min_sq)
        # Pool rows grouped by home.  Once d(c, p) >= 2 d(x, p) for a pick c and the home p
        # of row x, d(x, c) >= d(x, p), so x's sum to c cannot fall below min_sq[x]: a group
        # is skipped while d(c, p)^2 is at least four times its squared radius, with slack.
        homes = _split(home, lab.shape[0])
        radius_sq = np.full(lab.shape[0], -np.inf)
        np.maximum.at(radius_sq, home, min_sq)
        far = 4.0 * (radius_sq + 2.0 * slack)
        available = np.ones(n, dtype=bool)
        picked: list[int] = []
        for _ in range(b):
            pos = int(np.argmax(min_dist))
            picked.append(int(ids[pos]))
            available[pos] = False
            min_dist[pos] = -np.inf
            near = np.flatnonzero(~(_estimates(lab, lab_sq, pool[pos], pool_sq[pos]) - slack >= far))
            rows = np.concatenate([homes[g] for g in near])  # never empty: near holds the pick's home
            rows = rows[available[rows]]
            nearer = np.minimum(min_sq[rows], _sq_dists(pool[rows], pool[pos]))
            min_sq[rows] = nearer
            min_dist[rows] = np.sqrt(nearer)
    return picked


def train_discrepancy_heads(ws: nn.Workspace, params, x, y, lr: float, cfg: FedConfig, rng, unlabeled):
    """Train a two-head classifier to agree on labels and disagree off them.

    FedAvg's local update (:func:`fed._local_update`, same arguments) with
    one client's unlabeled rows, or a stacked group's list of them: per step
    the loss is mean cross-entropy through both heads on the labeled batch
    minus the mean L1 head disagreement on an unlabeled batch; the
    disagreement term updates head parameters only.  With no unlabeled data
    the term is skipped (with a warning).
    """
    arch = ws.arch
    if arch.head_count != 2:
        raise InvalidModelError(f"discrepancy training needs exactly 2 heads, got {arch.head_count}")
    pools = unlabeled if ws.clients else [unlabeled]
    for pool in pools:
        nn._as_batch(pool, arch.input_dim)
    if not all(len(pool) for pool in pools):
        warnings.warn("no unlabeled data: skipping the disagreement term", stacklevel=2)
        unlabeled = None
    return _local_update(ws, params, x, y, lr, cfg, rng, unlabeled)

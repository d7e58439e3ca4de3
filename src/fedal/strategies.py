"""Acquisition scorers and selection rules for pool-based annotation.

Scorers map a model and a 2-D batch of feature rows to one real number per
row, where larger means "more worth labeling": predictive entropy,
MC-dropout entropy and the L1 disagreement of a two-head classifier.
Core-set selection is a set objective rather than a per-instance score, so
it gets its own greedy routine.  All selection uses a deterministic tie-break on the lowest dataset
index.  Random sampling needs no scorer: the orchestrator draws uniform
scores from the selection stream directly.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist
from scipy.special import entr

from . import nn
from .errors import (
    BudgetError,
    ConfigError,
    InvalidModelError,
    InvalidStateError,
    ShapeError,
)
from .fed import FedConfig
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
        if not (isinstance(self.mc_passes, int) and self.mc_passes >= 1):
            raise ConfigError(f"mc_passes: must be an int >= 1, got {self.mc_passes}")

    @property
    def needs_two_heads(self) -> bool:
        return self.kind == "discrepancy"


@dataclass(frozen=True)
class ScoredCandidate:
    """A pool index paired with its acquisition score."""

    index: int
    score: float

    def __post_init__(self):
        if not np.isfinite(self.score):
            raise ShapeError(f"score for index {self.index} is not finite")


def _entropy_of(probs: Array):
    # entr(p) = -p*log(p) with entr(0) = 0, summed over classes.
    return entr(probs).sum(axis=-1)


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
    if not (isinstance(passes, int) and passes >= 1):
        raise ConfigError(f"mc_dropout needs passes >= 1, got {passes}")
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

    Ties break toward the lowest index; the result is sorted by index.
    """
    cands = list(candidates)
    if not (isinstance(b, int) and b >= 0):
        raise BudgetError(f"selection size must be a non-negative int, got {b}")
    if b > len(cands):
        raise BudgetError(f"cannot select {b} of {len(cands)} candidates")
    ranked = sorted(cands, key=lambda c: (-c.score, c.index))
    return sorted(c.index for c in ranked[:b])


def coreset_greedy(labeled_feats, unlabeled_feats, b: int, indices=None) -> list[int]:
    """Greedy k-center selection in Euclidean space.

    Repeatedly picks the unlabeled point farthest (max-min distance) from the
    labeled set plus everything already picked.  ``indices`` optionally names
    the unlabeled rows (defaults to 0..n-1); ties break toward the lowest
    index value, which makes the output independent of row order.  Returns
    indices in pick order.
    """
    lab = np.atleast_2d(np.asarray(labeled_feats, dtype=np.float64))
    unlab = np.atleast_2d(np.asarray(unlabeled_feats, dtype=np.float64))
    if lab.size == 0:
        raise InvalidStateError("core-set selection needs at least one labeled point")
    if unlab.size == 0:
        if b == 0:
            return []
        raise BudgetError(f"cannot select {b} points from an empty pool")
    if lab.shape[1] != unlab.shape[1]:
        raise ShapeError(f"labeled dim {lab.shape[1]} != unlabeled dim {unlab.shape[1]}")
    n = unlab.shape[0]
    if not (isinstance(b, int) and 0 <= b <= n):
        raise BudgetError(f"cannot select {b} of {n} pool points")
    idx = np.arange(n, dtype=np.int64) if indices is None else np.asarray(indices, dtype=np.int64)
    if idx.shape != (n,):
        raise ShapeError(f"indices must align with the {n} unlabeled rows")

    min_dist = cdist(unlab, lab).min(axis=1)
    available = np.ones(n, dtype=bool)
    picked: list[int] = []
    for _ in range(b):
        best = min_dist[available].max()
        tied = np.flatnonzero(available & (min_dist == best))
        pos = tied[np.argmin(idx[tied])]
        picked.append(int(idx[pos]))
        available[pos] = False
        min_dist = np.minimum(min_dist, cdist(unlab, unlab[pos:pos + 1]).ravel())
    return picked


def _discrepancy_grad(arch, params: Array, unlabeled: Array) -> Array:
    """Gradient (head parameters only) of -mean L1 disagreement on the checked batch ``unlabeled``.

    Descending this direction pushes the heads apart where the trunk allows
    it; the trunk itself receives no contribution from this term.
    """
    fwd = nn._forward_cache(arch, params, unlabeled, None)
    hidden_act, (probs_a, probs_b) = fwd.inputs[-1], fwd.probs
    count = unlabeled.shape[0]
    sign = np.sign(probs_a - probs_b)
    # d(-mean L1)/dz via the softmax Jacobian of each head.
    dz_a = -(probs_a * (sign - (sign * probs_a).sum(axis=1, keepdims=True))) / count
    dz_b = (probs_b * (sign - (sign * probs_b).sum(axis=1, keepdims=True))) / count
    out = np.zeros(arch.param_count, dtype=np.float64)
    for block, dz in zip(arch.layout.heads, (dz_a, dz_b)):
        out[block.w] = (hidden_act.T @ dz).ravel()
        out[block.b] = dz.sum(axis=0)
    return out


def train_discrepancy_heads(model: Model, labeled_feats, labeled_labels, unlabeled_feats,
                            lr: float, cfg: FedConfig, rng) -> Model:
    """Train a two-head classifier to agree on labels and disagree off them.

    Runs ``cfg.local_epochs`` passes over the labeled rows in batches of
    ``cfg.minibatch_size``, so it can serve as FedAvg's local update.  Per
    step the loss is mean cross-entropy through both heads on the labeled
    batch minus the mean L1 head disagreement on an unlabeled batch; the
    disagreement term updates head parameters only.  With no unlabeled data
    the term is skipped (with a warning) and this is plain supervised
    training.
    """
    arch = model.arch
    if arch.head_count != 2:
        raise InvalidModelError(f"discrepancy training needs exactly 2 heads, got {arch.head_count}")
    x, y = nn.labeled_batch(arch, labeled_feats, labeled_labels)
    unlab = np.asarray(unlabeled_feats, dtype=np.float64)
    if unlab.size == 0:
        warnings.warn("no unlabeled data: skipping the disagreement term", stacklevel=2)
    else:
        unlab = nn._as_batch(unlab, arch.input_dim)
    minibatch_size, params = cfg.minibatch_size, model.params
    for _ in range(cfg.local_epochs):
        batches = nn.minibatches(x, y, minibatch_size, rng)
        u_shuffled = unlab.size and minibatch_size is not None and minibatch_size < unlab.shape[0]
        u_perm = rng.permutation(unlab.shape[0]) if u_shuffled else None
        for step, (xb, yb) in enumerate(batches):
            g = nn._grad(arch, params, xb, yb, rng, False)[1]
            if unlab.size:
                if u_perm is None:
                    u_batch = unlab
                else:
                    start = (step * minibatch_size) % unlab.shape[0]
                    take = np.arange(start, start + minibatch_size) % unlab.shape[0]
                    u_batch = unlab[u_perm[take]]
                g = g + _discrepancy_grad(arch, params, u_batch)
            params = params - lr * g
    return Model(arch, params)

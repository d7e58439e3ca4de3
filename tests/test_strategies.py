"""Tests for acquisition scorers, top-b selection, and k-center selection."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.spatial.distance import cdist
from scipy.special import entr

from fedal import nn as nn_module
from fedal import strategies as strategies_module
from fedal.errors import (
    BudgetError,
    ConfigError,
    EmptyInputError,
    InvalidModelError,
    InvalidStateError,
    ShapeError,
)
from fedal.fed import FedConfig
from fedal.nn import LrSchedule, MlpArchitecture, Model, forward, grad, init_params
from fedal.strategies import (
    _entropy_of,
    ScorerSpec,
    coreset_greedy,
    score_discrepancy,
    score_entropy,
    score_mc_dropout,
    select_top_b,
    train_discrepancy_heads,
)

from conftest import descend


def _model(seed=0, sizes=(2, 6, 3), dropout=0.0, heads=1, scale=1.0):
    arch = MlpArchitecture(sizes, dropout_rate=dropout, head_count=heads)
    params = np.random.default_rng(seed).normal(scale=scale, size=arch.param_count)
    return Model(arch, params)


def _tied_two_head_model(seed=0, sizes=(2, 5, 3)):
    arch = MlpArchitecture(sizes, head_count=2)
    params = np.random.default_rng(seed).normal(size=arch.param_count)
    head0, head1 = arch.layout.heads
    params[head1.w], params[head1.b] = params[head0.w], params[head0.b]
    return Model(arch, params)


def _bias_only_two_head(bias_a, bias_b):
    """No hidden layers, zero weights: each head's logits equal its bias."""
    classes = len(bias_a)
    arch = MlpArchitecture((1, classes), head_count=2)
    params = np.zeros(arch.param_count)
    head0, head1 = arch.layout.heads
    params[head0.b] = bias_a
    params[head1.b] = bias_b
    return Model(arch, params)


# -- entropy ----------------------------------------------------------------------

def test_entropy_of_uniform_predictions_is_log_class_count():
    arch = MlpArchitecture((2, 10))
    model = Model(arch, np.zeros(arch.param_count))
    scores = score_entropy(model, np.random.default_rng(0).normal(size=(5, 2)))
    assert np.allclose(scores, np.log(10), atol=1e-9)


def test_entropy_of_a_saturated_prediction_is_zero():
    arch = MlpArchitecture((1, 2))
    model = Model(arch, np.array([1e4, -1e4, 0.0, 0.0]))
    assert score_entropy(model, np.array([[1.0]]))[0] == 0.0


def test_entropy_half_half_is_log_two():
    arch = MlpArchitecture((1, 2))
    model = Model(arch, np.zeros(arch.param_count))
    value = score_entropy(model, np.array([[2.0]]))
    assert value.shape == (1,)  # one score per row
    assert value[0] == pytest.approx(np.log(2), abs=1e-12)


@given(seed=st.integers(0, 2_000))
def test_entropy_is_bounded_by_log_class_count(seed):
    model = _model(seed, scale=4.0)
    x = np.random.default_rng(seed + 1).normal(size=(9, 2))
    scores = score_entropy(model, x)
    assert np.all(scores >= 0.0)
    assert np.all(scores <= np.log(3) + 1e-12)


def _softmax_rows(rng, rows, classes, scale):
    logits = scale * rng.normal(size=(rows, classes))
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def test_entropy_matches_scipys_entr_within_4_ulp():
    # NumPy's log and the libm log that entr calls may differ in the last bits.
    rng = np.random.default_rng(0)
    softmax = [_softmax_rows(rng, 300, classes, scale)
               for classes in range(2, 11) for scale in (0.1, 1.0, 10.0, 100.0, 800.0)]
    assert any((probs == 0).any() for probs in softmax)  # large logit scales underflow to exactly 0
    one_hot = [np.eye(classes) for classes in range(2, 11)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for probs in softmax + one_hot:
            np.testing.assert_array_max_ulp(_entropy_of(probs), entr(probs).sum(axis=-1), maxulp=4)


def test_entropy_of_a_nan_probability_is_nan_and_nothing_warns():
    probs = np.array([[np.nan, 0.5, 0.5], [0.5, 0.5, 0.0], [1.0, 0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scores = _entropy_of(probs)
    assert np.isnan(scores[0])
    assert scores[1] == pytest.approx(np.log(2), abs=1e-15)
    assert scores[2] == 0.0


# -- MC dropout ---------------------------------------------------------------------

def test_mc_dropout_without_dropout_is_exactly_entropy():
    model = _model(3, dropout=0.0)
    x = np.random.default_rng(1).normal(size=(20, 2))
    assert np.array_equal(
        score_mc_dropout(model, x, 11, np.random.default_rng(4)),
        score_entropy(model, x),
    )


def test_mc_dropout_single_pass_is_the_entropy_of_one_stochastic_forward():
    model = _model(5, dropout=0.5)
    x = np.random.default_rng(2).normal(size=(6, 2))
    scores = score_mc_dropout(model, x, 1, np.random.default_rng(7))
    probs = forward(model, x, np.random.default_rng(7))[0]
    from scipy.special import entr

    assert np.array_equal(scores, entr(probs).sum(axis=1))


def test_mc_dropout_is_reproducible_for_a_fixed_stream():
    model = _model(5, dropout=0.3)
    x = np.random.default_rng(3).normal(size=(8, 2))
    a = score_mc_dropout(model, x, 5, np.random.default_rng(11))
    b = score_mc_dropout(model, x, 5, np.random.default_rng(11))
    c = score_mc_dropout(model, x, 5, np.random.default_rng(12))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_mc_dropout_validates_the_pass_count():
    model = _model(1)
    x = np.zeros((2, 2))
    with pytest.raises(ConfigError):
        score_mc_dropout(model, x, 0, np.random.default_rng(0))
    with pytest.raises(ConfigError):
        score_mc_dropout(model, x, 2.5, np.random.default_rng(0))


# -- two-head discrepancy --------------------------------------------------------------

def test_discrepancy_of_tied_heads_is_exactly_zero():
    model = _tied_two_head_model(4)
    x = np.random.default_rng(5).normal(size=(7, 2))
    assert np.all(score_discrepancy(model, x) == 0.0)


def test_discrepancy_of_opposite_one_hot_heads_is_two():
    model = _bias_only_two_head(np.array([1000.0, 0.0]), np.array([0.0, 1000.0]))
    assert score_discrepancy(model, np.array([[0.5]]))[0] == 2.0


def test_discrepancy_matches_a_hand_computed_example():
    model = _bias_only_two_head(np.log(np.array([0.6, 0.4])), np.array([0.0, 0.0]))
    value = score_discrepancy(model, np.array([[0.0]]))[0]
    assert value == pytest.approx(0.2, abs=1e-12)


def test_discrepancy_requires_two_heads():
    with pytest.raises(InvalidModelError):
        score_discrepancy(_model(0, heads=1), np.zeros((2, 2)))


@given(seed=st.integers(0, 2_000))
def test_discrepancy_lies_in_the_l1_ball(seed):
    model = _model(seed, heads=2, scale=4.0)
    x = np.random.default_rng(seed + 1).normal(size=(6, 2))
    scores = score_discrepancy(model, x)
    assert np.all(scores >= 0.0)
    assert np.all(scores <= 2.0 + 1e-12)


def _cands(scores, indices=None):
    indices = range(len(scores)) if indices is None else indices
    return np.rec.fromarrays([indices, scores], names="index,score")


def test_select_top_b_picks_the_highest_score():
    assert select_top_b(_cands([0.1, 0.9, 0.5]), 1) == [1]


def test_select_top_b_breaks_ties_toward_low_indices():
    assert select_top_b(_cands([0.5, 0.5, 0.5, 0.5]), 2) == [0, 1]
    assert select_top_b(_cands([0.5, 0.5], indices=[9, 3]), 1) == [3]


def test_select_top_b_edge_sizes():
    cands = _cands([0.2, 0.8, 0.4])
    assert select_top_b(cands, 0) == []
    assert select_top_b(cands, 3) == [0, 1, 2]
    with pytest.raises(BudgetError):
        select_top_b(cands, 4)
    with pytest.raises(BudgetError):
        select_top_b(cands, -1)
    with pytest.raises(BudgetError):
        select_top_b(cands, 1.5)


def test_select_top_b_output_is_sorted_by_index():
    got = select_top_b(_cands([5.0, 1.0, 4.0, 2.0, 3.0]), 3)
    assert got == sorted(got) == [0, 2, 4]


@given(seed=st.integers(0, 3_000), shift=st.floats(-5, 5), scale=st.floats(0.1, 10))
def test_select_top_b_is_invariant_to_shift_and_positive_scaling(seed, shift, scale):
    rng = np.random.default_rng(seed)
    scores = rng.normal(size=8)
    base = select_top_b(_cands(scores), 3)
    moved = select_top_b(_cands(scores * scale + shift), 3)
    assert base == moved


def test_select_top_b_matches_a_sort_based_oracle():
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = int(rng.integers(1, 30))
        b = int(rng.integers(0, n + 1))
        scores = np.round(rng.normal(size=n), 1)  # coarse grid forces ties
        indices = rng.choice(1000, size=n, replace=False)
        order = np.lexsort((indices, -scores))
        expected = sorted(int(indices[j]) for j in order[:b])
        assert select_top_b(_cands(scores, indices), b) == expected


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_select_top_b_rejects_non_finite_scores_naming_the_first(bad):
    cands = _cands([0.1, bad, 0.3, bad], indices=[3, 7, 5, 2])
    with pytest.raises(ShapeError, match="^score for index 7 is not finite$"):
        select_top_b(cands, 1)


def test_select_top_b_rejects_a_non_integer_index_field():
    cands = np.rec.fromarrays([np.array([0.0, 1.7]), np.array([0.2, 0.9])], names="index,score")
    with pytest.raises(ShapeError, match="integer"):
        select_top_b(cands, 1)


# -- k-center selection ----------------------------------------------------------------------

def test_coreset_picks_the_farthest_point_first():
    labeled = np.array([[0.0]])
    unlabeled = np.array([[1.0], [10.0]])
    assert coreset_greedy(labeled, unlabeled, 1) == [1]


def test_coreset_respects_explicit_index_names():
    labeled = np.array([[0.0]])
    unlabeled = np.array([[1.0], [10.0]])
    assert coreset_greedy(labeled, unlabeled, 1, indices=[5, 7]) == [7]


def test_coreset_breaks_distance_ties_toward_the_lowest_index_value():
    labeled = np.array([[0.0, 0.0]])
    unlabeled = np.array([[1.0, 0.0], [0.0, 1.0]])  # equidistant
    assert coreset_greedy(labeled, unlabeled, 1, indices=[9, 3]) == [3]
    assert coreset_greedy(labeled, unlabeled, 1) == [0]


def test_coreset_returns_points_in_pick_order():
    labeled = np.array([[0.0]])
    unlabeled = np.array([[1.0], [4.0], [9.0]])
    # farthest first, then the point whose min distance to {0, 9} is largest
    assert coreset_greedy(labeled, unlabeled, 3) == [2, 1, 0]


def test_coreset_is_independent_of_row_order():
    rng = np.random.default_rng(0)
    labeled = rng.normal(size=(3, 2))
    unlabeled = rng.normal(size=(8, 2))
    base = coreset_greedy(labeled, unlabeled, 4)
    perm = rng.permutation(8)
    shuffled = coreset_greedy(labeled, unlabeled[perm], 4, indices=perm)
    assert base == shuffled


def test_coreset_validation():
    with pytest.raises(InvalidStateError):
        coreset_greedy(np.empty((0, 2)), np.zeros((3, 2)), 1)
    with pytest.raises(BudgetError):
        coreset_greedy(np.zeros((1, 2)), np.zeros((3, 2)), 4)
    with pytest.raises(BudgetError):
        coreset_greedy(np.zeros((1, 2)), np.empty((0, 2)), 1)
    with pytest.raises(ShapeError):
        coreset_greedy(np.zeros((1, 3)), np.zeros((2, 2)), 1)
    with pytest.raises(ShapeError, match="finite"):
        coreset_greedy(np.zeros((1, 2)), [[0.0, np.nan], [1.0, 1.0]], 1)
    with pytest.raises(ShapeError, match="finite"):
        coreset_greedy([[np.inf, 0.0]], np.ones((2, 2)), 1)
    # Index names are integers, one per row: no truncated fractions, no bools, no repeats.
    with pytest.raises(ShapeError, match="^index 0.5 is not an integer$"):
        coreset_greedy(np.zeros((1, 2)), np.ones((3, 2)), 1, indices=[0.5, 1.7, 2.2])
    with pytest.raises(ShapeError, match="^index True is not an integer$"):
        coreset_greedy(np.zeros((1, 2)), np.ones((3, 2)), 1, indices=[True, False, 7])
    with pytest.raises(ShapeError, match="^indices must not repeat; 4 does$"):
        coreset_greedy(np.zeros((1, 2)), np.ones((3, 2)), 2, indices=[4, 4, 4])
    assert coreset_greedy(np.zeros((1, 2)), np.empty((0, 2)), 0) == []
    assert coreset_greedy(np.zeros((1, 2)), np.ones((2, 2)), 0) == []


def _coreset_oracle(labeled, unlabeled, b, indices):
    """Per-step exhaustive max-min search over the same pairwise distances."""
    covered = [row for row in np.atleast_2d(labeled)]
    remaining = list(range(len(unlabeled)))
    picked = []
    for _ in range(b):
        best_pos, best_d = None, -np.inf
        for pos in remaining:
            d = cdist(unlabeled[pos:pos + 1], np.stack(covered)).min()
            if d > best_d or (d == best_d and indices[pos] < indices[best_pos]):
                best_pos, best_d = pos, d
        picked.append(int(indices[best_pos]))
        remaining.remove(best_pos)
        covered.append(unlabeled[best_pos])
    return picked


def test_coreset_matches_the_exhaustive_oracle_on_small_pools():
    for case in range(30):
        rng = np.random.default_rng(case)
        labeled = rng.normal(size=(int(rng.integers(1, 4)), 2))
        unlabeled = np.round(rng.normal(size=(int(rng.integers(1, 9)), 2)), 1)
        b = int(rng.integers(0, unlabeled.shape[0] + 1))
        indices = rng.choice(100, size=unlabeled.shape[0], replace=False).astype(np.int64)
        got = coreset_greedy(labeled, unlabeled, b, indices=indices)
        assert got == _coreset_oracle(labeled, unlabeled, b, indices)


def _cdist_coreset_greedy(labeled_feats, unlabeled_feats, b: int, indices=None) -> list[int]:
    """The all-pairs ``cdist`` implementation of greedy k-center, kept as the bit-for-bit reference."""
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


def _kcenter_case(seed: int, dim: int, kind: str, labeled: int, pool: int):
    """Seeded labeled and pool features: ``grid`` ties exactly, ``offset`` cancels in the BLAS estimate."""
    rng = np.random.default_rng([seed, dim, labeled, pool])
    shape = (labeled + pool, dim)
    if kind == "grid":
        feats = rng.integers(-2, 3, size=shape).astype(np.float64)
    elif kind == "offset":
        feats = 1e6 + 1e-3 * rng.normal(size=shape)
    else:
        feats = rng.normal(size=shape)
    indices = rng.permutation(3 * pool)[:pool]
    return feats[:labeled], feats[labeled:], indices, rng


@pytest.mark.parametrize("dim", [1, 2, 32, 70])
@pytest.mark.parametrize("kind", ["grid", "offset", "normal"])
def test_coreset_equals_the_cdist_reference_bit_for_bit(dim, kind):
    sizes = [(1, 1), (3, 17), (40, 90), (1100, 12), (7, 1100)]
    if kind != "offset":  # every offset pair goes to the exact path, so keep those sets smaller
        sizes.append((1030, 1300))
    for case, (labeled_rows, pool_rows) in enumerate(sizes):
        labeled, pool, indices, rng = _kcenter_case(case, dim, kind, labeled_rows, pool_rows)
        for b in sorted({0, min(pool_rows, 25), int(rng.integers(0, pool_rows + 1)) % 60}):
            for names in (None, indices):
                expected = _cdist_coreset_greedy(labeled, pool, b, indices=names)
                assert coreset_greedy(labeled, pool, b, indices=names) == expected
        if pool_rows <= 100:
            assert coreset_greedy(labeled, pool, pool_rows, indices=indices) == \
                _cdist_coreset_greedy(labeled, pool, pool_rows, indices=indices)


def test_coreset_picks_every_pool_row_past_the_block_edge_like_cdist():
    labeled, pool, indices, _ = _kcenter_case(0, 2, "grid", 5, 1030)
    expected = _cdist_coreset_greedy(labeled, pool, 1030, indices=indices)
    assert coreset_greedy(labeled, pool, 1030, indices=indices) == expected


def _relu_blobs(labeled: int, pool: int):
    """2-D blobs through a seeded random 2 -> 32 relu layer: 32-D features that are 2-D underneath.

    A third of the labeled rows repeat other labeled rows, and a tenth of the
    pool rows sit on labeled rows, so distances tie at zero and across groups.
    """
    rng = np.random.default_rng([labeled, pool])
    centers = 4.0 * rng.normal(size=(6, 2))
    points = centers[rng.integers(0, 6, labeled + pool)] + 0.5 * rng.normal(size=(labeled + pool, 2))
    feats = np.maximum(points @ rng.normal(size=(2, 32)) + rng.normal(size=32), 0.0)
    lab, unlab = feats[:labeled], feats[labeled:]
    repeats = rng.choice(labeled, size=labeled // 3, replace=False)
    lab[repeats] = lab[rng.integers(0, labeled, repeats.size)]
    on_labeled = rng.choice(pool, size=pool // 10, replace=False)
    unlab[on_labeled] = lab[rng.integers(0, labeled, on_labeled.size)]
    return lab, unlab, rng.permutation(2 * pool)[:pool]


@pytest.mark.parametrize("labeled, pool", [(1, 1100), (5, 300), (31, 300), (32, 300), (33, 1100),
                                           (300, 300), (1100, 1100)])
@pytest.mark.parametrize("scale", [1.0, 1e-160])  # 1e-160 makes the squared distances subnormal
def test_coreset_equals_the_cdist_reference_on_features_that_are_low_dimensional_underneath(labeled, pool, scale):
    lab, unlab, indices = _relu_blobs(labeled, pool)
    lab, unlab = scale * lab, scale * unlab
    for b in (1, 60):
        assert coreset_greedy(lab, unlab, b, indices=indices) == \
            _cdist_coreset_greedy(lab, unlab, b, indices=indices)
    if pool <= 300:
        assert coreset_greedy(lab, unlab, pool) == _cdist_coreset_greedy(lab, unlab, pool)


@pytest.mark.parametrize("labeled", [5, 31, 32, 33, 300, 1100])
@pytest.mark.parametrize("scale", [1.0, 1e-160])
def test_pivot_groups_partition_the_labeled_rows_within_their_radius_bounds(labeled, scale):
    lab = scale * _relu_blobs(labeled, 1)[0]
    lab_sq = (lab * lab).sum(axis=1)
    slack = strategies_module._slack(lab.shape[1], 2.0 * np.sqrt(lab_sq.max()))
    pivots, members, radius = strategies_module._pivot_groups(lab, lab_sq, slack)
    assert sorted(np.concatenate(members).tolist()) == list(range(labeled))
    for pivot, rows, bound in zip(pivots, members, radius):
        assert cdist(lab[pivot:pivot + 1], lab[rows]).max() <= bound


def _rounded_estimates(rule: str, slack: float, rng):
    """A stand-in for ``strategies._estimates``: cdist's sums, each moved by up to 3/4 of ``slack``.

    An estimate may stray slack/4 from the sequential sum (an eighth for each
    of the two), so this rounds three times worse than any BLAS kernel can.
    ``up`` pushes each row's nearest pairs up by the full 3/4 and pulls the
    rest down, ``down`` does the reverse, and ``random`` draws every sign and
    magnitude.  A single row ``b`` counts as one column, so its nearest pairs
    are its nearest rows of ``a``.  ``calls`` counts the estimates asked for.
    """
    def estimates(a, a_sq, b, b_sq):
        estimates.calls += 1
        exact = cdist(a, np.atleast_2d(b), "sqeuclidean")
        if rule == "random":
            delta = rng.uniform(-1.0, 1.0, size=exact.shape)
        else:
            nearest = exact == exact.min(axis=1 if b.ndim == 2 else 0, keepdims=True)
            delta = np.where(nearest == (rule == "up"), 1.0, -1.0)
        est = exact + 0.75 * slack * delta
        return est if b.ndim == 2 else est[:, 0]
    estimates.calls = 0
    return estimates


def _kcenter_reference_cases():
    """The feature sets of the cdist-reference tests above: every generator, dimension and size."""
    for kind in ("grid", "offset", "normal"):
        for dim in (1, 2, 32, 70):
            sizes = [(1, 1), (3, 17), (40, 90), (1100, 12), (7, 1100)] + [(1030, 1300)] * (kind != "offset")
            for case, (labeled, pool) in enumerate(sizes):
                yield _kcenter_case(case, dim, kind, labeled, pool)[:3]
    for labeled, pool in [(1, 1100), (5, 300), (31, 300), (32, 300), (33, 1100), (300, 300), (1100, 1100)]:
        for scale in (1.0, 1e-160):
            lab, unlab, indices = _relu_blobs(labeled, pool)
            yield scale * lab, scale * unlab, indices


@pytest.mark.parametrize("rule", ["up", "down", "random"])
def test_coreset_equals_the_cdist_reference_when_every_estimate_rounds_adversarially(rule, monkeypatch):
    for case, (lab, unlab, indices) in enumerate(_kcenter_reference_cases()):
        # The slack that coreset_greedy takes for these inputs.
        largest_sq = max((unlab * unlab).sum(axis=1).max(), (lab * lab).sum(axis=1).max())
        slack = strategies_module._slack(lab.shape[1], 2.0 * np.sqrt(largest_sq))
        rounded = _rounded_estimates(rule, slack, np.random.default_rng(case))
        monkeypatch.setattr(strategies_module, "_estimates", rounded)
        b = min(len(unlab), 40)
        assert coreset_greedy(lab, unlab, b, indices=indices) == \
            _cdist_coreset_greedy(lab, unlab, b, indices=indices), f"case {case}"
        assert rounded.calls > 0


def test_coreset_sends_overflowing_estimates_to_the_exact_path_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # |u|^2 overflows, so the BLAS estimate for the first row is inf - inf = NaN;
        # exactly, that row sits on a labeled point and the second row is 1 away.
        assert coreset_greedy([[1e160, 0.0], [0.0, 0.0]], [[1e160, 0.0], [1.0, 0.0]], 1) == [1]
        # The first pick is at an overflowing distance, and so is its estimate to row 1,
        # which lies 1 away from it: row 1 must drop to 1, below row 2's 5.
        pool = [[1e160, 0.0], [1e160, 1.0], [5.0, 0.0]]
        assert coreset_greedy([[0.0, 0.0]], pool, 2) == [0, 2]
        assert _cdist_coreset_greedy([[0.0, 0.0]], pool, 2) == [0, 2]
        # cdist puts rows 1 and 2 both at inf, a tie that the lower index wins before row 2
        # goes next; scaling both sets by a power of two first would tell them apart.
        labeled, pool = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[5.0, 5.0], [1e160, 0.0], [2e160, 0.0], [3.0, 3.0]]
        assert coreset_greedy(labeled, pool, 2) == _cdist_coreset_greedy(labeled, pool, 2) == [1, 2]


def test_coreset_picks_sum_only_the_pool_rows_near_the_pick(monkeypatch):
    # 20 tight clusters 100 apart, each of 3 labeled rows and 50 pool rows: a pick in one
    # cluster lies far beyond twice the radius of every other cluster's homes.
    rng = np.random.default_rng(3)
    centers = 100.0 * np.arange(20)[:, None] * np.ones(4)
    labeled = np.repeat(centers, 3, axis=0) + rng.normal(size=(60, 4))
    pool = np.repeat(centers, 50, axis=0) + rng.normal(size=(1000, 4))
    summed, exact = [], strategies_module._sq_dists

    def spy(a, b):
        if b.ndim == 1:  # a pick's update: one row against the rows it could move
            summed.append(len(a))
        return exact(a, b)

    monkeypatch.setattr(strategies_module, "_sq_dists", spy)
    picks = coreset_greedy(labeled, pool, 20)
    assert picks == _cdist_coreset_greedy(labeled, pool, 20)
    assert len(summed) == 20
    assert max(summed) <= len(pool) // 20  # at most the pick's own cluster, where a full scan sums them all


def test_coreset_decides_on_rounded_distances_exactly_as_cdist_does():
    labeled = np.zeros((1, 16))
    # Summed in order, 1 + 15 * 2**-54 rounds to 1 at every step, tying the two rows;
    # a pairwise or blocked sum ends above 1 and would pick row 1.
    pool = np.zeros((2, 16))
    pool[:, 0] = 1.0
    pool[1, 1:] = 2.0 ** -27
    assert coreset_greedy(labeled, pool, 1) == _cdist_coreset_greedy(labeled, pool, 1) == [0]
    # Squared distances 1 and 1 + 2**-52 have the same square root, 1: a tie that
    # the lower index wins, though the squared values differ.
    pool = np.array([[1.0, 0.0], [1.0, 2.0 ** -26]])
    assert coreset_greedy(np.zeros((1, 2)), pool, 1) == _cdist_coreset_greedy(np.zeros((1, 2)), pool, 1) == [0]


_THREAD_PICKS = """
import json
import numpy as np
from fedal.strategies import coreset_greedy
rng = np.random.default_rng(7)
centers = 3.0 * rng.normal(size=(6, 32))
labeled = centers[rng.integers(0, 6, 300)] + rng.normal(size=(300, 32))
pool = centers[rng.integers(0, 6, 1500)] + rng.normal(size=(1500, 32))
print(json.dumps(coreset_greedy(labeled, pool, 60, indices=rng.permutation(1500))))
"""


def test_coreset_picks_do_not_depend_on_the_blas_thread_count():
    src = str(Path(strategies_module.__file__).resolve().parent.parent)
    picks = []
    for threads in ("1", "4"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", _THREAD_PICKS], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        picks.append(json.loads(proc.stdout))
    assert len(picks[0]) == 60
    assert picks[0] == picks[1]


# -- counts that are bools ---------------------------------------------------------------------

def test_selection_sizes_reject_a_bool_and_name_b():
    with pytest.raises(BudgetError, match="^b: "):
        select_top_b(_cands([0.1, 0.9]), True)
    with pytest.raises(BudgetError, match="^b: "):
        coreset_greedy(np.zeros((1, 2)), np.ones((3, 2)), True)
    with pytest.raises(BudgetError, match="^b: "):
        coreset_greedy(np.zeros((1, 2)), np.empty((0, 2)), False)


def test_mc_dropout_passes_reject_a_bool_and_name_the_field():
    with pytest.raises(ConfigError, match="^mc_passes: "):
        ScorerSpec("mc_dropout", mc_passes=True)
    with pytest.raises(ConfigError, match="^passes: "):
        score_mc_dropout(_model(1, dropout=0.5), np.zeros((2, 2)), True, np.random.default_rng(0))


# -- two-head training -------------------------------------------------------------------------

def _training_setup(seed=5):
    arch = MlpArchitecture((2, 8, 2), head_count=2)
    model = Model(arch, init_params(arch, seed))
    rng = np.random.default_rng(0)
    labeled = np.vstack([
        rng.normal(size=(3, 2)) + [-2.5, 0.0],
        rng.normal(size=(3, 2)) + [2.5, 0.0],
    ])
    labels = np.array([0, 0, 0, 1, 1, 1])
    unlabeled = rng.normal(size=(5, 2)) * [0.3, 1.0]
    return model, labeled, labels, unlabeled


def _epochs(count, minibatch=None):
    """The FedConfig whose epoch count and minibatch size two-head training reads."""
    return FedConfig(LrSchedule(1.0), local_epochs=count, minibatch_size=minibatch)


def _two_head_update(model, labeled, labels, unlabeled, lr, cfg, rng):
    """``train_discrepancy_heads`` on one client, as FedAvg calls it: a checked pair, a fresh workspace."""
    x, y = nn_module.labeled_batch(model.arch, labeled, labels)
    ws = nn_module.Workspace(model.arch)
    return Model(model.arch, train_discrepancy_heads(ws, model.params, x, y, lr, cfg, rng, np.asarray(unlabeled))[0])


def test_two_head_training_raises_disagreement_on_the_pool():
    model, labeled, labels, unlabeled = _training_setup()
    before = float(np.mean(score_discrepancy(model, unlabeled)))
    trained = _two_head_update(
        model, labeled, labels, unlabeled, 0.3, _epochs(40), np.random.default_rng(1)
    )
    after = float(np.mean(score_discrepancy(trained, unlabeled)))
    assert after >= before


def test_disagreement_term_touches_only_the_heads():
    # Saturate the supervised fit so its gradient is exactly zero; any
    # parameter movement then comes from the disagreement term alone, which
    # must leave the shared trunk untouched.
    arch = MlpArchitecture((1, 3, 2), head_count=2)
    params = np.zeros(arch.param_count)
    (hidden0,), (head0, head1) = arch.layout.hidden, arch.layout.heads
    params[hidden0.w] = np.array([5.0, -5.0, 0.0])
    params[hidden0.b] = np.array([0.0, 0.0, 1.0])
    params[head0.w] = np.array([[1000.0, 0.0], [0.0, 1000.0], [0.0, 0.0]]).ravel()
    params[head1.w] = np.array([[1000.0, 0.0], [0.0, 1000.0], [3.0, -3.0]]).ravel()
    model = Model(arch, params)
    labeled = np.array([[1.0], [-1.0]])
    labels = np.array([0, 1])
    assert np.all(grad(model, labeled, labels) == 0.0)  # saturated fit

    trained = _two_head_update(
        model, labeled, labels, np.array([[0.0]]), 0.1, _epochs(3), np.random.default_rng(0)
    )
    trunk = slice(0, head0.w.start)
    assert np.array_equal(trained.params[trunk], params[trunk])
    assert not np.array_equal(trained.params, params)


def test_two_head_training_without_a_pool_warns_and_trains_supervised():
    model, labeled, labels, _ = _training_setup()
    with pytest.warns(UserWarning):
        trained = _two_head_update(
            model, labeled, labels, np.empty((0, 2)), 0.2, _epochs(2), np.random.default_rng(0)
        )
    step1 = descend(model.params, grad(model, labeled, labels), 0.2)
    step2 = descend(step1, grad(Model(model.arch, step1), labeled, labels), 0.2)
    assert np.array_equal(trained.params, step2)
    # A stacked group of empty pools warns the same way.
    x, y = nn_module.labeled_batch(model.arch, labeled, labels)
    with pytest.warns(UserWarning, match="no unlabeled data"):
        stacked, _ = train_discrepancy_heads(nn_module.Workspace(model.arch, 2), model.params, np.stack([x, x]),
                                             np.stack([y, y]), 0.2, _epochs(2), None, [np.empty((0, 2))] * 2)
    assert stacked[0].tobytes() == stacked[1].tobytes() == step2.tobytes()


@pytest.mark.parametrize("minibatch", [None, 2])
def test_two_head_training_equals_the_public_checked_loop_and_checks_nothing_again(minibatch, monkeypatch):
    arch = MlpArchitecture((2, 8, 2), activation="tanh", dropout_rate=0.2, head_count=2)
    model = Model(arch, init_params(arch, 5))
    _, labeled, labels, unlabeled = _training_setup()
    x, y = nn_module.labeled_batch(arch, labeled, labels)
    checks = []
    real_check = nn_module.labeled_batch
    monkeypatch.setattr(nn_module, "labeled_batch", lambda *a: checks.append(a) or real_check(*a))
    trained, _ = train_discrepancy_heads(nn_module.Workspace(arch), model.params, x, y, 0.3, _epochs(3, minibatch),
                                         np.random.default_rng(4), unlabeled)
    assert checks == []  # the run checks its labeled pair once; a step takes it checked
    monkeypatch.undo()

    rng, params, n, u = np.random.default_rng(4), model.params, len(labels), len(unlabeled)
    for _ in range(3):
        if minibatch is None:
            batches, u_perm = [np.arange(n)], None
        else:
            perm = rng.permutation(n)
            batches = [perm[i:i + minibatch] for i in range(0, n, minibatch)]
            u_perm = rng.permutation(u)
        for step, batch in enumerate(batches):
            current = Model(arch, params)
            g = grad(current, labeled[batch], labels[batch], rng)
            if u_perm is None:
                u_batch = unlabeled
            else:
                u_batch = unlabeled[u_perm[np.arange(step * minibatch, (step + 1) * minibatch) % u]]
            params = descend(params, g + nn_module._discrepancy_grad(nn_module.Workspace(arch), params, u_batch), 0.3)
    assert trained.tobytes() == params.tobytes()


def test_two_head_training_validation():
    model, labeled, labels, unlabeled = _training_setup()
    with pytest.raises(InvalidModelError):
        _two_head_update(_model(0), labeled, labels, unlabeled, 0.1, _epochs(1), None)
    with pytest.raises(EmptyInputError):
        _two_head_update(
            model, np.empty((0, 2)), np.empty(0, dtype=np.int64), unlabeled, 0.1, _epochs(1), None
        )
    with pytest.raises(ShapeError, match="feature dimension 3"):
        _two_head_update(model, labeled, labels, np.ones((4, 3)), 0.1, _epochs(1), None)
    # In a stacked group every member's pool is checked.
    x, y = nn_module.labeled_batch(model.arch, labeled, labels)
    with pytest.raises(ShapeError, match="feature dimension 3"):
        train_discrepancy_heads(nn_module.Workspace(model.arch, 2), model.params, np.stack([x, x]), np.stack([y, y]),
                                0.1, _epochs(1, 2), None, [unlabeled, np.ones((4, 3))])


# -- scorer specs -----------------------------------------------------------------------------

def test_scorer_spec_validation():
    assert ScorerSpec("entropy").mc_passes == 10
    assert ScorerSpec("discrepancy").needs_two_heads
    assert not ScorerSpec("entropy").needs_two_heads
    with pytest.raises(ConfigError):
        ScorerSpec("margin")
    with pytest.raises(ConfigError):
        ScorerSpec("mc_dropout", mc_passes=0)

"""Tests for acquisition scorers, top-b selection, and k-center selection."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from fedal import nn as nn_module
from fedal.errors import (
    BudgetError,
    ConfigError,
    EmptyInputError,
    InvalidModelError,
    InvalidStateError,
    ShapeError,
)
from fedal.fed import FedConfig
from fedal.nn import LrSchedule, MlpArchitecture, Model, forward, grad, init_params, sgd_step
from fedal.strategies import (
    ScoredCandidate,
    _discrepancy_grad,
    ScorerSpec,
    coreset_greedy,
    score_discrepancy,
    score_entropy,
    score_mc_dropout,
    select_top_b,
    train_discrepancy_heads,
)


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
    return [ScoredCandidate(int(i), float(s)) for i, s in zip(indices, scores)]


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


def test_scored_candidate_rejects_non_finite_scores():
    with pytest.raises(ShapeError):
        ScoredCandidate(0, float("nan"))
    with pytest.raises(ShapeError):
        ScoredCandidate(0, float("inf"))


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


def test_two_head_training_raises_disagreement_on_the_pool():
    model, labeled, labels, unlabeled = _training_setup()
    before = float(np.mean(score_discrepancy(model, unlabeled)))
    trained = train_discrepancy_heads(
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

    trained = train_discrepancy_heads(
        model, labeled, labels, np.array([[0.0]]), 0.1, _epochs(3), np.random.default_rng(0)
    )
    trunk = slice(0, head0.w.start)
    assert np.array_equal(trained.params[trunk], params[trunk])
    assert not np.array_equal(trained.params, params)


def test_two_head_training_without_a_pool_warns_and_trains_supervised():
    model, labeled, labels, _ = _training_setup()
    with pytest.warns(UserWarning):
        trained = train_discrepancy_heads(
            model, labeled, labels, np.empty((0, 2)), 0.2, _epochs(2), np.random.default_rng(0)
        )
    step1 = sgd_step(model.params, grad(model, labeled, labels), 0.2)
    step2 = sgd_step(step1, grad(Model(model.arch, step1), labeled, labels), 0.2)
    assert np.array_equal(trained.params, step2)


@pytest.mark.parametrize("minibatch", [None, 2])
def test_two_head_training_equals_the_public_checked_loop_and_checks_once(minibatch, monkeypatch):
    arch = MlpArchitecture((2, 8, 2), activation="tanh", dropout_rate=0.2, head_count=2)
    model = Model(arch, init_params(arch, 5))
    _, labeled, labels, unlabeled = _training_setup()
    checks = []
    real_check = nn_module.labeled_batch
    monkeypatch.setattr(nn_module, "labeled_batch", lambda *a: checks.append(a) or real_check(*a))
    trained = train_discrepancy_heads(model, labeled, labels, unlabeled, 0.3, _epochs(3, minibatch),
                                      np.random.default_rng(4))
    assert len(checks) == 1  # once per call, not once per step
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
            params = sgd_step(params, g + _discrepancy_grad(arch, params, u_batch), 0.3)
    assert trained.params.tobytes() == params.tobytes()


def test_two_head_training_validation():
    model, labeled, labels, unlabeled = _training_setup()
    with pytest.raises(InvalidModelError):
        train_discrepancy_heads(_model(0), labeled, labels, unlabeled, 0.1, _epochs(1), None)
    with pytest.raises(EmptyInputError):
        train_discrepancy_heads(
            model, np.empty((0, 2)), np.empty(0, dtype=np.int64), unlabeled, 0.1, _epochs(1), None
        )
    with pytest.raises(ShapeError, match="feature dimension 3"):
        train_discrepancy_heads(model, labeled, labels, np.ones((4, 3)), 0.1, _epochs(1), None)


# -- scorer specs -----------------------------------------------------------------------------

def test_scorer_spec_validation():
    assert ScorerSpec("entropy").mc_passes == 10
    assert ScorerSpec("discrepancy").needs_two_heads
    assert not ScorerSpec("entropy").needs_two_heads
    with pytest.raises(ConfigError):
        ScorerSpec("margin")
    with pytest.raises(ConfigError):
        ScorerSpec("mc_dropout", mc_passes=0)

"""Release gate: one test (or test group) per numbered acceptance criterion.

Each test carries ``@pytest.mark.acceptance(n, ...)``; the conftest hook folds
them into a PASS/FAIL line per criterion at the end of the run.  Measured
values (margins, errors, wall times) are attached to those lines as notes.
"""

import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from fedal.benchmarks import PAIRED_ORDERINGS, paired_difference, run_trend_benchmark
from fedal.cli import main as cli_main
from fedal.data import ClientPools, synth_blobs
from fedal.fed import FedConfig, fedavg, weighted_average
from fedal.nn import LrSchedule, MlpArchitecture, Model, grad, init_params, loss
from fedal.orchestrator import ALConfig, run_strategy
from fedal.presets import (
    PROVENANCE_NOTE,
    REFERENCE_LABEL_FRACTIONS,
    REFERENCE_TEST_ACCURACY,
)
from fedal.strategies import (
    ScorerSpec,
    coreset_greedy,
    score_discrepancy,
    score_entropy,
    score_mc_dropout,
    select_top_b,
)

from conftest import descend, make_world


# -- criterion 1: gradient oracle ---------------------------------------------------

def _random_architecture(rng):
    depth = int(rng.integers(0, 3))
    sizes = [int(rng.integers(2, 5))]
    for _ in range(depth):
        sizes.append(int(rng.integers(2, 7)))
    sizes.append(int(rng.integers(2, 5)))
    activation = "relu" if rng.integers(0, 2) else "tanh"
    dropout = float(rng.choice([0.0, 0.0, 0.3]))
    heads = int(rng.integers(1, 3))
    return MlpArchitecture(tuple(sizes), activation=activation,
                           dropout_rate=dropout, head_count=heads)


@pytest.mark.acceptance(1, "analytic gradients match central finite differences")
def test_gradients_match_finite_differences_on_random_models(acceptance_note):
    started = time.perf_counter()
    master = np.random.default_rng(20240612)
    h = 1e-5
    worst = 0.0
    for case in range(100):
        arch = _random_architecture(master)
        assert arch.param_count <= 200
        model = Model(arch, master.normal(scale=0.7, size=arch.param_count))
        feats = master.normal(size=(4, arch.input_dim))
        labels = master.integers(0, arch.class_count, size=4)
        mask_seed = 10_000 + case  # identical dropout masks on every evaluation

        analytic = grad(model, feats, labels, np.random.default_rng(mask_seed))
        fd = np.zeros_like(model.params)
        for i in range(model.params.size):
            up = model.params.copy()
            up[i] += h
            down = model.params.copy()
            down[i] -= h
            fd[i] = (
                loss(Model(arch, up), feats, labels, np.random.default_rng(mask_seed))
                - loss(Model(arch, down), feats, labels, np.random.default_rng(mask_seed))
            ) / (2 * h)
        rel = np.abs(analytic - fd) / np.maximum(np.abs(fd), 1e-6)
        worst = max(worst, float(rel.max()))
    elapsed = time.perf_counter() - started
    acceptance_note(1, f"max relative error {worst:.2e} over 100 models in {elapsed:.1f}s")
    assert worst < 1e-4
    assert elapsed < 10.0


# -- criterion 2: FedAvg degeneracy --------------------------------------------------

@pytest.mark.acceptance(2, "single-client FedAvg reproduces centralized descent")
def test_single_client_fedavg_is_centralized_descent(acceptance_note):
    started = time.perf_counter()
    train = synth_blobs(60, 3, 2, 0.8, seed=1)
    pools = [ClientPools(client_id=0, unlabeled=[], labeled=list(range(60)))]
    arch = MlpArchitecture((2, 6, 3))
    init = Model(arch, init_params(arch, 4))
    cfg = FedConfig(schedule=LrSchedule(0.2, 0.995), stop_loss_threshold=1e-300,
                    max_global_iters=50)
    report = fedavg(train, pools, init, cfg, seed=9)

    params = init.params
    feats, labels = train.features, train.labels
    for t in range(1, 51):
        params = descend(params, grad(Model(arch, params), feats, labels), cfg.schedule.lr(t))

    gap = float(np.max(np.abs(report.final_model.params - params)))
    elapsed = time.perf_counter() - started
    acceptance_note(2, f"max coordinate gap {gap:.1e} after 50 iterations in {elapsed:.2f}s")
    assert report.global_iters_used == 50
    assert gap <= 1e-12
    assert elapsed < 5.0


# -- criterion 3: aggregation algebra -------------------------------------------------

@pytest.mark.acceptance(3, "weighted averaging worked examples and invariants")
def test_weighted_average_worked_examples_hold_exactly():
    assert np.array_equal(
        weighted_average([np.array([0.0, 2.0]), np.array([2.0, 0.0])], (1, 1)),
        np.array([1.0, 1.0]),
    )
    assert np.array_equal(
        weighted_average([np.array([0.0]), np.array([4.0])], (1, 3)),
        np.array([3.0]),
    )
    v = np.array([0.125, -2.75, 8.5])
    assert np.array_equal(weighted_average([v], [7]), v)


@st.composite
def _aggregation_case(draw):
    m = draw(st.integers(1, 6))
    dim = draw(st.integers(1, 8))
    element = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    vectors = [np.array(draw(st.lists(element, min_size=dim, max_size=dim)))
               for _ in range(m)]
    counts = [draw(st.integers(1, 10_000)) for _ in range(m)]
    return vectors, counts


@pytest.mark.acceptance(3, "weighted averaging worked examples and invariants")
@settings(max_examples=1000)
@given(case=_aggregation_case())
def test_weighted_average_invariants(case):
    vectors, counts = case
    avg = weighted_average(vectors, counts)
    stacked = np.stack(vectors)
    # convexity: never outside the coordinate-wise envelope
    assert np.all(avg >= stacked.min(axis=0))
    assert np.all(avg <= stacked.max(axis=0))
    # degeneracy: one vector (or all-identical vectors) pass through exactly
    if len(vectors) == 1:
        assert np.array_equal(avg, vectors[0])
    if all(np.array_equal(v, vectors[0]) for v in vectors):
        assert np.array_equal(avg, vectors[0])


# -- criterion 4: selection oracles -----------------------------------------------------

def _coreset_oracle(labeled, unlabeled, b, indices):
    covered = [row for row in labeled]
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


@pytest.mark.acceptance(4, "top-b and greedy k-center match independent oracles")
def test_selection_matches_independent_oracles(acceptance_note):
    started = time.perf_counter()
    rng = np.random.default_rng(77)
    for _ in range(1000):
        n = int(rng.integers(1, 51))
        b = int(rng.integers(0, n + 1))
        scores = np.round(rng.normal(size=n), 1)  # coarse grid to force ties
        indices = rng.choice(10_000, size=n, replace=False)
        candidates = np.rec.fromarrays([indices, scores], names="index,score")
        order = np.lexsort((indices, -scores))
        expected = sorted(int(indices[j]) for j in order[:b])
        assert select_top_b(candidates, b) == expected

    for case in range(200):
        g = np.random.default_rng(5000 + case)
        labeled = g.normal(size=(int(g.integers(1, 5)), int(g.integers(1, 4))))
        unlabeled = np.round(g.normal(size=(int(g.integers(1, 13)), labeled.shape[1])), 1)
        b = int(g.integers(0, unlabeled.shape[0] + 1))
        indices = g.choice(1000, size=unlabeled.shape[0], replace=False).astype(np.int64)
        got = coreset_greedy(labeled, unlabeled, b, indices=indices)
        assert got == _coreset_oracle(labeled, unlabeled, b, indices)

    elapsed = time.perf_counter() - started
    acceptance_note(4, f"1000 top-b cases + 200 k-center geometries in {elapsed:.1f}s")
    assert elapsed < 30.0


# -- criterion 5: scorer identities -------------------------------------------------------

@pytest.mark.acceptance(5, "scorer identities and bounds")
def test_scorer_identities_and_bounds():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(1000, 4))

    arch = MlpArchitecture((4, 8, 5))
    for trial in range(10):
        model = Model(arch, np.random.default_rng(trial).normal(scale=2.0, size=arch.param_count))
        entropies = score_entropy(model, x)
        # exact identity: zero dropout makes every stochastic pass the plain pass
        assert np.array_equal(score_mc_dropout(model, x, 7, np.random.default_rng(trial)), entropies)
        assert np.all(entropies >= 0.0)
        assert np.all(entropies <= np.log(5) + 1e-12)

    arch2 = MlpArchitecture((4, 8, 5), head_count=2)
    for trial in range(10):
        params = np.random.default_rng(100 + trial).normal(scale=2.0, size=arch2.param_count)
        disagreement = score_discrepancy(Model(arch2, params), x)
        assert np.all(disagreement >= 0.0)
        assert np.all(disagreement <= 2.0 + 1e-12)
        tied = params.copy()
        head0, head1 = arch2.layout.heads
        tied[head1.w], tied[head1.b] = tied[head0.w], tied[head0.b]
        assert np.all(score_discrepancy(Model(arch2, tied), x) == 0.0)


# -- criterion 6: quota and pool invariants -------------------------------------------------

@pytest.mark.acceptance(6, "pool bookkeeping invariants for every strategy/scorer combo")
def test_quota_and_pool_invariants_across_all_combinations(acceptance_note):
    started = time.perf_counter()
    fl = FedConfig(schedule=LrSchedule(0.4, 0.99), stop_loss_threshold=0.05,
                   max_global_iters=12)
    combos = [("random", "random"), ("full_budget", "entropy")]
    combos += [(s, sc) for s in ("s_al", "f_al")
               for sc in ("entropy", "mc_dropout", "discrepancy", "coreset")]
    rounds, per_client_budget = 2, 30

    for strategy, scorer_kind in combos:
        train, test, pools, arch = make_world(
            n=600, test_n=120, classes=4, clients=3, seed=11, initial_fraction=0.1,
            hidden=(8,), dropout=0.15 if scorer_kind == "mc_dropout" else 0.0,
        )
        shards = [list(p.shard) for p in pools]
        initial = [len(p.labeled) for p in pools]
        budgets = (0, 0, 0) if strategy == "full_budget" else (per_client_budget,) * 3
        al_cfg = ALConfig(
            rounds=rounds,
            budgets=budgets,
            scorer=ScorerSpec(scorer_kind),
            aux_train=fl,
        )
        logs = run_strategy(strategy, train, test, pools, arch, al_cfg, fl, seed=21)

        if strategy == "full_budget":
            assert len(logs) == 1
            assert logs[0].labeled_counts == tuple(len(s) for s in shards)
        else:
            quota = per_client_budget // rounds
            for k, log in enumerate(logs, start=1):
                expected = tuple(init + k * quota for init in initial)
                assert log.labeled_counts == expected, (strategy, scorer_kind, k)
            for pool in pools:
                assert sum(len(v) for v in pool.history.values()) == per_client_budget
                assert all(len(pool.history[k]) == quota for k in pool.history)

        for pool, shard in zip(pools, shards):
            assert sorted(pool.labeled + pool.unlabeled) == shard, (strategy, scorer_kind)
            assert not set(pool.labeled) & set(pool.unlabeled)
            selected = [i for chosen in pool.history.values() for i in chosen]
            assert len(selected) == len(set(selected))
            assert set(selected) <= set(pool.labeled)

    elapsed = time.perf_counter() - started
    acceptance_note(6, f"{len(combos)} strategy/scorer combinations in {elapsed:.1f}s")
    assert elapsed < 60.0


# -- criteria 7 and 8: desk-scale behavioral trends ------------------------------------------

@pytest.fixture(scope="module")
def trend_report():
    started = time.perf_counter()
    report = run_trend_benchmark(range(1, 9))
    return report, time.perf_counter() - started


@pytest.mark.acceptance(7, "desk-scale accuracy ordering f_al >= s_al >= random")
def test_desk_scale_accuracy_ordering(trend_report, acceptance_note):
    report, wall = trend_report
    f_vs_s = report.margin("f_al", "s_al")
    s_vs_r = report.margin("s_al", "random")
    f_vs_r = report.margin("f_al", "random")
    se = {pair: paired_difference(report.curves[pair[0]], report.curves[pair[1]], report.window).se
          for pair in PAIRED_ORDERINGS}
    acceptance_note(
        7,
        f"margins (paired se): f_al-s_al {f_vs_s:+.4f} ({se['f_al', 's_al']:.4f}), "
        f"s_al-random {s_vs_r:+.4f} ({se['s_al', 'random']:.4f}), "
        f"f_al-random {f_vs_r:+.4f} ({se['f_al', 'random']:.4f}); {len(report.seeds)} seeds in {wall:.0f}s",
    )
    assert f_vs_s >= 0.0
    assert s_vs_r >= 0.0
    assert f_vs_r >= 0.0
    assert wall < 180.0


@pytest.mark.acceptance(8, "independent-learning direction (reported, not gated)")
def test_independent_learning_direction_is_reported(trend_report, acceptance_note):
    report, _ = trend_report
    assert set(report.il_mean) == {"random", "s_al", "f_al"}
    diff = report.il_mean["s_al"] - report.il_mean["f_al"]
    acceptance_note(8, f"s_al IL mean - f_al IL mean = {diff:+.4f} (trend, not gated)")
    if diff < 0.0:
        warnings.warn(f"independent-learning direction inverted in this run: {diff:+.4f}",
                      stacklevel=1)
    assert all(0.0 <= v <= 1.0 for v in report.il_mean.values())


def test_exhausting_the_budget_beats_every_first_round(trend_report):
    report, _ = trend_report
    assert report.full_budget_mean >= max(report.round1_mean.values())


# -- criterion 9: determinism across thread counts ---------------------------------------------

DETERMINISM_CONFIG = """
dataset:
  kind: blobs
  train_size: 300
  test_size: 150
  classes: 4
  spread: 0.6
partition:
  clients: 2
model:
  hidden: [8]
al:
  strategy: s_al
  scorer: entropy
  budget: 20
  rounds: 2
fl:
  lr: 0.4
  stop_loss_threshold: 0.05
  max_global_iters: 30
run:
  repeats: 2
  seed: 12
"""


@pytest.mark.acceptance(9, "byte-identical CSV output across thread counts")
def test_csv_output_is_byte_identical_across_thread_counts(tmp_path, acceptance_note):
    started = time.perf_counter()
    config = tmp_path / "determinism.yaml"
    config.write_text(DETERMINISM_CONFIG)
    payloads = []
    for threads in ("1", "4"):
        out = tmp_path / f"out_{threads}.csv"
        env = dict(
            os.environ,
            OMP_NUM_THREADS=threads,
            OPENBLAS_NUM_THREADS=threads,
            MKL_NUM_THREADS=threads,
        )
        proc = subprocess.run(
            [sys.executable, "-m", "fedal", "run", str(config), "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        payloads.append(out.read_bytes())
    elapsed = time.perf_counter() - started
    acceptance_note(9, f"two runs (1 vs 4 threads) byte-equal in {elapsed:.1f}s")
    assert payloads[0] == payloads[1]
    assert elapsed < 60.0


# -- criterion 10: paper-scale numbers stay documentation --------------------------------------

@pytest.mark.acceptance(10, "paper-scale accuracies ship as documentation only")
def test_reference_table_is_documentation_not_a_claim(tmp_path, capsys):
    at_20_percent = REFERENCE_TEST_ACCURACY["random"][REFERENCE_LABEL_FRACTIONS.index(0.2)]
    assert at_20_percent == 0.662
    assert len(REFERENCE_LABEL_FRACTIONS) == len(REFERENCE_TEST_ACCURACY["random"])

    lowered = PROVENANCE_NOTE.lower()
    assert "documentation only" in lowered
    assert "does not reproduce" in lowered
    assert "no reproduction is claimed" in lowered

    cfg = tmp_path / "paper.yaml"
    cfg.write_text(
        "preset: paper_scale_cifar10\n"
        "dataset:\n  kind: csv_labeled\n  path: /missing/train.csv\n"
        "  test_path: /missing/test.csv\n"
    )
    code = cli_main(["run", str(cfg), "--out", str(tmp_path / "o.csv")])
    captured = capsys.readouterr()
    assert PROVENANCE_NOTE in captured.out  # note precedes any attempt to run
    assert code == 1  # and the harness refuses to fabricate results

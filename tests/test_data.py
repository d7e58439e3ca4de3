"""Tests for dataset containers, loaders, partitioning, and pool bookkeeping."""

import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fedal.data import (
    ClientPools,
    Dataset,
    PartitionSpec,
    annotate,
    gather,
    load_external,
    partition,
    seed_initial_labels,
    synth_blobs,
)
from fedal.errors import (
    ConfigError,
    EmptyInputError,
    ParseError,
    PoolIntegrityError,
    ShapeError,
)


# -- Dataset / gather ---------------------------------------------------------

def test_dataset_basic_properties():
    ds = Dataset(np.zeros((4, 3)), np.array([0, 1, 2, 0]), 3)
    assert ds.size == 4
    assert ds.dim == 3
    assert ds.features.dtype == np.float64
    assert ds.labels.dtype == np.int64


@pytest.mark.parametrize(
    "features,labels,classes,err",
    [
        (np.zeros(4), np.zeros(4, dtype=np.int64), 2, ShapeError),
        (np.zeros((4, 2)), np.zeros(3, dtype=np.int64), 2, ShapeError),
        (np.zeros((4, 2)), np.array([0, 0, 0, 2]), 2, ShapeError),
        (np.zeros((4, 2)), np.array([0, 0, 0, -1]), 2, ShapeError),
        (np.zeros((4, 2)), np.array([0.0, 0.0, 0.0, 1.0]), 2, ShapeError),
        (np.zeros((0, 2)), np.zeros(0, dtype=np.int64), 2, EmptyInputError),
        (np.array([[0.0, np.nan], [1.0, 1.0]]), np.array([0, 1]), 2, ShapeError),
        (np.array([[0.0, 1.0], [-np.inf, 1.0]]), np.array([0, 1]), 2, ShapeError),
    ],
)
def test_dataset_validation(features, labels, classes, err):
    with pytest.raises(err):
        Dataset(features, labels, classes)


def test_gather_returns_selected_rows():
    ds = Dataset(np.arange(12, dtype=np.float64).reshape(6, 2), np.arange(6) % 3, 3)
    feats, labels = gather(ds, [4, 1])
    assert np.array_equal(feats, ds.features[[4, 1]])
    assert np.array_equal(labels, ds.labels[[4, 1]])
    feats, labels = gather(ds, [])
    assert feats.shape == (0, 2) and labels.shape == (0,)
    with pytest.raises(ShapeError):
        gather(ds, np.array([[0, 1]]))


@pytest.mark.parametrize(
    "indices,message",
    [
        ([2, True], "index True is not an integer"),          # NumPy would read row 1
        (np.array([True]), "index True is not an integer"),
        ([1.7], "index 1.7 is not an integer"),               # NumPy would truncate to row 1
        (np.array([3.0, 1.0]), "index 3.0 is not an integer"),
        (["1"], "index '1' is not an integer"),
        ([0, -1], "index -1 is out of range for 6 rows"),     # NumPy would read the last row
        ([6, 7], "index 6 is out of range for 6 rows"),
    ],
)
def test_gather_rejects_bad_indices_naming_the_first(indices, message):
    ds = Dataset(np.arange(12, dtype=np.float64).reshape(6, 2), np.arange(6) % 3, 3)
    with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
        gather(ds, indices)


# -- synthetic blobs ----------------------------------------------------------

def test_blobs_balance_classes_as_evenly_as_possible():
    ds = synth_blobs(25, 4, 2, 0.5, seed=0)
    counts = np.bincount(ds.labels, minlength=4)
    assert counts.sum() == 25
    assert counts.max() - counts.min() <= 1


def test_blobs_eight_points_eight_classes_is_one_per_class():
    ds = synth_blobs(8, 8, 2, 0.5, seed=3)
    assert np.array_equal(np.bincount(ds.labels, minlength=8), np.ones(8, dtype=np.int64))


def test_blobs_are_reproducible_per_seed():
    a = synth_blobs(40, 3, 2, 0.7, seed=9)
    b = synth_blobs(40, 3, 2, 0.7, seed=9)
    c = synth_blobs(40, 3, 2, 0.7, seed=10)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    assert not np.array_equal(a.features, c.features)


def test_blobs_accept_a_generator_in_place_of_a_seed():
    a = synth_blobs(20, 3, 2, 0.5, seed=5)
    b = synth_blobs(20, 3, 2, 0.5, seed=np.random.default_rng(5))
    assert np.array_equal(a.features, b.features)


@pytest.mark.parametrize("layout", ["circle", "line"])
def test_blobs_with_zero_spread_collapse_onto_class_centers(layout):
    ds = synth_blobs(30, 3, 2, 0.0, seed=1, layout=layout)
    for c in range(3):
        feats = ds.features[ds.labels == c]
        assert np.all(feats == feats[0])


def test_line_layout_places_centers_on_the_first_axis():
    ds = synth_blobs(40, 4, 2, 0.0, seed=2, layout="line")
    expected = np.arange(4) - 1.5
    for c in range(4):
        feats = ds.features[ds.labels == c]
        assert np.allclose(feats[:, 0], expected[c])
        assert np.all(feats[:, 1] == 0.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n": 20, "classes": 1},
        {"n": 3, "classes": 4},
        {"n": 20, "classes": 3, "dim": 1},
        {"n": 20, "classes": 3, "spread": -0.1},
        {"n": 20, "classes": 3, "layout": "spiral"},
        {"n": 20, "classes": 3, "layout": "line", "elongation": 0.0},
        {"n": 20, "classes": 3, "spread": float("nan")},
        {"n": 20, "classes": 3, "spread": float("inf")},
        {"n": 20, "classes": 3, "layout": "line", "elongation": float("nan")},
        {"n": 20, "classes": 3, "layout": "line", "elongation": float("inf")},
        {"n": 20, "classes": 3, "spread": True},  # a bool is a number to Python, not a spread
        {"n": 20, "classes": 3, "layout": "line", "elongation": True},
        {"n": 20, "classes": 3, "spread": "0.5"},
        {"n": 20.0, "classes": 3},
        {"n": 20, "classes": 3.0},
        {"n": 20, "classes": 3, "dim": 2.0},
    ],
)
def test_blobs_validation(kwargs):
    full = {"n": 20, "classes": 3, "dim": 2, "spread": 0.5, "seed": 0}
    full.update(kwargs)
    with pytest.raises(ConfigError, match="^(n|classes|dim|spread|layout|elongation): "):
        synth_blobs(**full)


@pytest.mark.parametrize(
    "kwargs,key",
    [
        ({"spread": 1.0e308}, "spread"),  # a draw past ~1.8 overflows
        ({"spread": 2.0, "layout": "line", "elongation": 1.0e308}, "elongation"),  # the scale itself is inf
        ({"spread": 1.0, "layout": "line", "elongation": 1.0e308}, "elongation"),
    ],
)
def test_blobs_whose_points_overflow_name_the_key_that_scales_them(kwargs, key):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning on the way to the error
        with pytest.raises(ConfigError, match=f"^{key}: "):
            synth_blobs(240, 3, 2, seed=0, **kwargs)


def test_blobs_take_numpy_numbers():
    ds = synth_blobs(np.int64(20), np.int32(3), np.int64(2), np.float32(0.5), 0, elongation=np.float64(2.0))
    assert ds.size == 20 and ds.class_count == 3 and ds.dim == 2


# -- CSV loader ---------------------------------------------------------------

def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_csv_loader_scales_features_and_infers_classes(tmp_path):
    train = _write(tmp_path, "train.csv", "1.0,5.0,0\n3.0,5.0,1\n2.0,5.0,1\n")
    ds_train = load_external(str(train), "csv_labeled")
    assert ds_train.size == 3 and ds_train.dim == 2 and ds_train.class_count == 2
    assert np.allclose(ds_train.features[:, 0], [0.0, 1.0, 0.5])
    # constant columns scale to zero rather than dividing by zero
    assert np.all(ds_train.features[:, 1] == 0.0)
    assert np.array_equal(ds_train.labels, [0, 1, 1])


def test_csv_loader_skips_blank_lines(tmp_path):
    train = _write(tmp_path, "train.csv", "\n0.0,0\n\n1.0,1\n\n")
    ds_train = load_external(str(train), "csv_labeled")
    assert ds_train.size == 2 and ds_train.dim == 1


@pytest.mark.parametrize(
    "body,fragment",
    [
        ("1.0,2.0,0\n3.0,1\n", "line 2"),
        ("1.0,abc,0\n", "line 1"),
        ("1.0,2.0,1.5\n", "line 1"),
        ("7\n", "line 1"),
        ("", "no data"),
        ("1.0,0\n2.0,2\n", "label"),  # labels {0, 2} leave class 1 unused
        ("1.0,nan,0\n2.0,1.0,1\n", "line 1: non-finite feature"),
        ("1.0,2.0,0\n2.0,inf,1\n", "line 2: non-finite feature"),
        ("1.0,0\n2.0,nan\n", "line 2: non-finite label"),
        ("1.0,inf\n2.0,1\n", "line 1: non-finite label"),
    ],
)
def test_csv_loader_diagnoses_malformed_input(tmp_path, body, fragment):
    train = _write(tmp_path, "train.csv", body)
    with pytest.raises(ParseError, match=fragment):
        load_external(str(train), "csv_labeled")


# -- IDX loader ---------------------------------------------------------------

def _idx_image_bytes(images):
    n, rows, cols = images.shape
    return struct.pack(">BBBBIII", 0, 0, 0x08, 3, n, rows, cols) + images.tobytes()


def _idx_label_bytes(labels):
    return struct.pack(">BBBBI", 0, 0, 0x08, 1, len(labels)) + bytes(labels)


def _write_idx_pair(tmp_path, prefix, images, labels):
    img = tmp_path / f"{prefix}-images.idx3-ubyte"
    lab = tmp_path / f"{prefix}-labels.idx1-ubyte"
    img.write_bytes(_idx_image_bytes(images))
    lab.write_bytes(_idx_label_bytes(labels))
    return img


def test_idx_loader_flattens_and_rescales(tmp_path):
    rng = np.random.default_rng(0)
    imgs = rng.integers(0, 256, size=(6, 3, 4), dtype=np.uint8)
    labels = np.array([0, 1, 2, 0, 1, 2], dtype=np.uint8)
    path = _write_idx_pair(tmp_path, "train", imgs, labels)
    ds = load_external(str(path), "idx_images")  # labels file inferred from the name
    assert ds.size == 6 and ds.dim == 12 and ds.class_count == 3
    assert np.allclose(ds.features, imgs.reshape(6, 12) / 255.0)
    assert np.array_equal(ds.labels, labels)
    assert ds.features.max() <= 1.0


def test_idx_loader_accepts_an_explicit_labels_path(tmp_path):
    imgs = np.arange(8, dtype=np.uint8).reshape(2, 2, 2)
    img = tmp_path / "pixels.bin"
    lab = tmp_path / "targets.bin"
    img.write_bytes(_idx_image_bytes(imgs))
    lab.write_bytes(_idx_label_bytes(np.array([1, 0], dtype=np.uint8)))
    ds = load_external(str(img), "idx_images", labels_path=str(lab))
    assert np.array_equal(ds.labels, [1, 0])
    # without the hint, an unguessable name is an error
    with pytest.raises(ParseError, match="labels"):
        load_external(str(img), "idx_images")


def test_idx_loader_rejects_bad_headers(tmp_path):
    good = np.zeros((2, 2, 2), dtype=np.uint8)
    labels = np.array([0, 1], dtype=np.uint8)
    img = tmp_path / "train-images.idx3-ubyte"
    lab = tmp_path / "train-labels.idx1-ubyte"
    lab.write_bytes(_idx_label_bytes(labels))

    img.write_bytes(b"\x01" + _idx_image_bytes(good)[1:])  # nonzero magic prefix
    with pytest.raises(ParseError, match="magic"):
        load_external(str(img), "idx_images")

    bad_dtype = struct.pack(">BBBBIII", 0, 0, 0x09, 3, 2, 2, 2) + good.tobytes()
    img.write_bytes(bad_dtype)
    with pytest.raises(ParseError, match="data type"):
        load_external(str(img), "idx_images")

    img.write_bytes(_idx_image_bytes(good)[:-3])  # truncated pixel payload
    with pytest.raises(ParseError, match="expected"):
        load_external(str(img), "idx_images")

    # The byte count of huge dims is exact, not wrapped around in int64.
    img.write_bytes(struct.pack(">BBBBIII", 0, 0, 0x08, 3, *(2**32 - 1,) * 3))
    with pytest.raises(ParseError, match=f"expected {(2**32 - 1) ** 3} data bytes, found 0"):
        load_external(str(img), "idx_images")


def test_idx_loader_rejects_count_mismatch(tmp_path):
    imgs = np.zeros((3, 2, 2), dtype=np.uint8)
    labels = np.array([0, 1], dtype=np.uint8)  # one label short
    path = _write_idx_pair(tmp_path, "train", imgs, labels)
    with pytest.raises(ParseError, match="labels"):
        load_external(str(path), "idx_images")

    empty = _write_idx_pair(tmp_path, "empty", np.zeros((0, 2, 2), dtype=np.uint8),
                            np.zeros(0, dtype=np.uint8))
    with pytest.raises(ParseError, match="no data records") as exc:
        load_external(str(empty), "idx_images")
    assert str(empty) in str(exc.value)


def test_load_external_validation(tmp_path):
    with pytest.raises(ConfigError, match="format"):
        load_external(str(tmp_path / "x.parquet"), "parquet")
    with pytest.raises(ParseError, match="not found"):
        load_external(str(tmp_path / "missing.csv"), "csv_labeled")


# -- partitioning ---------------------------------------------------------------

def _labeled_dataset(labels, classes, seed=0):
    labels = np.asarray(labels, dtype=np.int64)
    feats = np.random.default_rng(seed).normal(size=(labels.size, 2))
    return Dataset(feats, labels, classes)


def test_iid_partition_splits_evenly_and_disjointly():
    ds = synth_blobs(10, 2, 2, 0.5, seed=0)
    pools = partition(ds, PartitionSpec(client_count=5), seed=1)
    assert [len(p.shard) for p in pools] == [2, 2, 2, 2, 2]
    combined = sorted(i for p in pools for i in p.shard)
    assert combined == list(range(10))
    for p in pools:
        assert p.labeled == []
        assert list(p.unlabeled) == list(p.shard)


def test_iid_partition_sizes_differ_by_at_most_one():
    ds = synth_blobs(23, 3, 2, 0.5, seed=0)
    sizes = [len(p.shard) for p in partition(ds, PartitionSpec(client_count=4), seed=2)]
    assert sum(sizes) == 23
    assert max(sizes) - min(sizes) <= 1


def test_single_client_partition_owns_everything():
    ds = synth_blobs(12, 3, 2, 0.5, seed=0)
    pools = partition(ds, PartitionSpec(client_count=1), seed=0)
    assert len(pools) == 1
    assert list(pools[0].shard) == list(range(12))


def test_partition_is_reproducible():
    ds = synth_blobs(30, 3, 2, 0.5, seed=0)
    a = partition(ds, PartitionSpec(client_count=3), seed=5)
    b = partition(ds, PartitionSpec(client_count=3), seed=5)
    assert [p.shard for p in a] == [p.shard for p in b]


def test_partition_rejects_more_clients_than_rows():
    ds = synth_blobs(4, 2, 2, 0.5, seed=0)
    with pytest.raises(ConfigError):
        partition(ds, PartitionSpec(client_count=5), seed=0)


def test_label_skew_gives_each_client_its_own_classes():
    ds = _labeled_dataset(np.arange(40) % 10, classes=10)
    spec = PartitionSpec(client_count=5, mode="label_skew", classes_per_client=2)
    pools = partition(ds, spec, seed=3)
    for client, p in enumerate(pools):
        seen = sorted(set(int(ds.labels[i]) for i in p.shard))
        assert seen == [2 * client, 2 * client + 1]
    combined = sorted(i for p in pools for i in p.shard)
    assert combined == list(range(40))


def test_label_skew_validation():
    ds = _labeled_dataset(np.arange(20) % 10, classes=10)
    with pytest.raises(ConfigError):
        partition(ds, PartitionSpec(2, mode="label_skew", classes_per_client=11), seed=0)
    with pytest.raises(ConfigError):
        # 2 clients x 2 classes each cannot cover 10 classes
        partition(ds, PartitionSpec(2, mode="label_skew", classes_per_client=2), seed=0)


def test_label_skew_rejects_empty_shards():
    ds = _labeled_dataset([0, 1, 0, 1], classes=4)
    with pytest.raises(ConfigError):
        partition(ds, PartitionSpec(2, mode="label_skew", classes_per_client=2), seed=0)


def test_partition_spec_validation():
    with pytest.raises(ConfigError):
        PartitionSpec(client_count=0)
    with pytest.raises(ConfigError):
        PartitionSpec(client_count=2, mode="dirichlet")
    with pytest.raises(ConfigError):
        PartitionSpec(client_count=2, mode="label_skew")  # classes_per_client required
    with pytest.raises(ConfigError, match="^classes_per_client: does not apply to mode 'iid_disjoint'"):
        PartitionSpec(client_count=2, classes_per_client=2)  # an iid run would ignore it


def test_partition_spec_counts_reject_a_bool_and_name_the_field():
    with pytest.raises(ConfigError, match="^client_count: "):
        PartitionSpec(client_count=True)
    with pytest.raises(ConfigError, match="^classes_per_client: "):
        PartitionSpec(client_count=2, mode="label_skew", classes_per_client=True)


# -- initial labels -------------------------------------------------------------

def _fresh_pools(n=30, clients=3, seed=0):
    ds = synth_blobs(n, 3, 2, 0.5, seed=seed)
    return ds, partition(ds, PartitionSpec(client_count=clients), seed=seed + 1)


def test_seed_initial_labels_rounds_per_shard():
    _, pools = _fresh_pools(30, 3)
    seed_initial_labels(pools, 0.1, seed=7)
    for p in pools:
        assert len(p.labeled) == 1  # round(0.1 * 10)
        assert len(p.unlabeled) == 9


def test_seed_initial_labels_full_fraction_empties_the_pool():
    _, pools = _fresh_pools(12, 2)
    seed_initial_labels(pools, 1.0, seed=1)
    for p in pools:
        assert p.unlabeled == []
        assert sorted(p.labeled) == list(p.shard)


def test_seed_initial_labels_is_reproducible():
    _, a = _fresh_pools(30, 3, seed=4)
    _, b = _fresh_pools(30, 3, seed=4)
    seed_initial_labels(a, 0.3, seed=9)
    seed_initial_labels(b, 0.3, seed=9)
    assert [p.labeled for p in a] == [p.labeled for p in b]


def test_seed_initial_labels_preserves_the_shard():
    _, pools = _fresh_pools(31, 3)
    seed_initial_labels(pools, 0.4, seed=2)
    for p in pools:
        assert sorted(p.labeled + p.unlabeled) == list(p.shard)


def test_seed_initial_labels_rejects_double_seeding():
    _, pools = _fresh_pools()
    seed_initial_labels(pools, 0.2, seed=0)
    with pytest.raises(PoolIntegrityError):
        seed_initial_labels(pools, 0.2, seed=0)


def test_seed_initial_labels_rejects_fractions_that_round_to_zero():
    _, pools = _fresh_pools(30, 3)
    with pytest.raises(ConfigError):
        seed_initial_labels(pools, 0.01, seed=0)  # round(0.01 * 10) == 0


@pytest.mark.parametrize("fraction", [True, "0.5", None])
def test_seed_initial_labels_rejects_a_fraction_that_is_not_a_real_number(fraction):
    _, pools = _fresh_pools(30, 3)
    with pytest.raises(ConfigError, match="^initial_label_fraction: "):
        seed_initial_labels(pools, fraction, seed=0)
    assert all(p.labeled == [] for p in pools)


# -- annotation -----------------------------------------------------------------

def _one_client_world():
    ds = _labeled_dataset([0, 1, 0, 1], classes=2, seed=3)
    pools = ClientPools(client_id=0, unlabeled=[3, 1, 2], labeled=[0])
    return ds, pools


def test_pools_sort_their_index_lists():
    _, pools = _one_client_world()
    assert pools.unlabeled == [1, 2, 3]
    assert tuple(pools.shard) == (0, 1, 2, 3)
    assert pools.labeled == [0]


def test_annotate_moves_rows_and_reveals_true_labels():
    ds, pools = _one_client_world()
    revealed = annotate([pools], 0, [2, 3], round_index=1, dataset=ds)
    assert np.array_equal(revealed, ds.labels[[2, 3]])
    assert pools.labeled == [0, 2, 3]
    assert pools.unlabeled == [1]
    assert pools.history == {1: [2, 3]}


@pytest.mark.parametrize("unlabeled,labeled,message", [
    ([3, 5], [-2], "client 0: index -2 is negative"),
    ([3, 3, 5], [], "client 0: index 3 is repeated"),
    ([3, 5], [0, 0], "client 0: index 0 is repeated"),
    ([3, 5], [5, 1], "client 0: index 5 is both labeled and unlabeled"),
    ([3, 3, 5], [5, -2], "client 0: index -2 is negative"),
])
def test_pools_reject_negative_repeated_and_overlapping_indices(unlabeled, labeled, message):
    with pytest.raises(PoolIntegrityError, match=f"^{re.escape(message)}$"):
        ClientPools(client_id=0, unlabeled=unlabeled, labeled=labeled)


@pytest.mark.parametrize("unlabeled,labeled,named", [
    ([True, 2.0], [], "True"),
    ([1, 2], [2.0], "2.0"),
    (np.array([1.5]), [0], "1.5"),
])
def test_pools_reject_bool_and_non_integer_indices(unlabeled, labeled, named):
    with pytest.raises(ShapeError, match=f"^index {re.escape(named)} is not an integer$"):
        ClientPools(client_id=0, unlabeled=unlabeled, labeled=labeled)


def test_annotate_with_no_selection_is_a_no_op():
    ds, pools = _one_client_world()
    revealed = annotate([pools], 0, [], round_index=1, dataset=ds)
    assert revealed.size == 0
    assert pools.labeled == [0]
    assert pools.history == {}


def test_annotate_can_exhaust_the_pool():
    ds, pools = _one_client_world()
    annotate([pools], 0, [1, 2, 3], round_index=1, dataset=ds)
    assert pools.unlabeled == []
    assert pools.labeled == [0, 1, 2, 3]


def test_annotate_merges_rounds_into_history():
    ds, pools = _one_client_world()
    annotate([pools], 0, [3], round_index=1, dataset=ds)
    annotate([pools], 0, [1], round_index=2, dataset=ds)
    assert pools.history == {1: [3], 2: [1]}


def test_annotate_rejects_duplicates_and_relabeling():
    ds, pools = _one_client_world()
    with pytest.raises(PoolIntegrityError):
        annotate([pools], 0, [1, 1], round_index=1, dataset=ds)
    with pytest.raises(PoolIntegrityError, match="already labeled"):
        annotate([pools], 0, [0], round_index=1, dataset=ds)


def test_annotate_rejects_rows_outside_the_client_pool():
    ds, pools = _one_client_world()
    with pytest.raises(PoolIntegrityError, match="not in this client's pool"):
        annotate([pools], 0, [99], round_index=1, dataset=ds)
    with pytest.raises(PoolIntegrityError, match=r"^client 0: index 2 is not in this client's pool$"):
        annotate([ClientPools(client_id=0, unlabeled=[])], 0, [2], round_index=1, dataset=ds)


@pytest.mark.parametrize("selected,named", [([0.5], "0.5"), ([True], "True"), ([1, np.float64(2.0)], "2.0")])
def test_annotate_rejects_bool_and_non_integer_entries(selected, named):
    ds, pools = _one_client_world()
    with pytest.raises(ShapeError, match=f"^index .*{re.escape(named)}.* is not an integer$"):
        annotate([pools], 0, selected, round_index=1, dataset=ds)
    assert pools.unlabeled == [1, 2, 3] and pools.history == {}


def test_annotate_rejects_unknown_clients():
    ds, pools = _one_client_world()
    with pytest.raises(ConfigError):
        annotate([pools], 5, [1], round_index=1, dataset=ds)


@pytest.mark.parametrize("client,round_index,named", [
    (True, 1, "client: must be an int in [0, 2), got True"),
    (-1, 1, "client: must be an int in [0, 2), got -1"),
    (1.0, 1, "client: must be an int in [0, 2), got 1.0"),
    (0, -3, "round_index: must be an int >= 1, got -3"),
    (0, 0, "round_index: must be an int >= 1, got 0"),
    (0, True, "round_index: must be an int >= 1, got True"),
    (0, 1.5, "round_index: must be an int >= 1, got 1.5"),
])
def test_annotate_rejects_bad_client_and_round_indices(client, round_index, named):
    ds, pools = _one_client_world()
    other = ClientPools(client_id=1, unlabeled=[1], labeled=[])
    with pytest.raises(ConfigError, match=f"^{re.escape(named)}$"):
        annotate([pools, other], client, [1], round_index=round_index, dataset=ds)
    assert pools.unlabeled == [1, 2, 3] and other.unlabeled == [1]
    assert pools.history == other.history == {}


# -- the array pools against a list model -----------------------------------------

def _model_partition(labels, classes, clients, classes_per_client, seed):
    """Sorted shards dealt row by row with lists; ``classes_per_client=None`` means iid_disjoint."""
    rng = np.random.default_rng(seed)
    if classes_per_client is None:
        return [sorted(int(v) for v in chunk) for chunk in np.array_split(rng.permutation(labels.size), clients)]
    owners = {cls: [] for cls in range(classes)}
    for client in range(clients):
        for j in range(classes_per_client):
            owners[(client * classes_per_client + j) % classes].append(client)
    shards = [[] for _ in range(clients)]
    for cls in range(classes):
        for i, idx in enumerate(rng.permutation(np.flatnonzero(labels == cls))):
            shards[owners[cls][i % len(owners[cls])]].append(int(idx))
    return [sorted(shard) for shard in shards]


class _ListPools:
    """One client's pools as sorted lists, a history dict of lists and a shard tuple."""

    def __init__(self, shard):
        self.unlabeled, self.labeled, self.history, self.shard = list(shard), [], {}, tuple(shard)

    def seed(self, rng, fraction):
        count = int(round(fraction * len(self.shard)))
        self.labeled = sorted(int(v) for v in rng.choice(self.unlabeled, size=count, replace=False))
        self.unlabeled = [i for i in self.unlabeled if i not in self.labeled]

    def annotate(self, client, selected, round_index):
        """The (error type, message) a bad selection raises; else moves it and returns None."""
        bools = [v for v in selected if isinstance(v, bool)]
        if bools:
            return ShapeError, f"index {bools[0]!r} is not an integer"
        if len(set(selected)) != len(selected):
            return PoolIntegrityError, f"client {client}: duplicate indices in selection"
        for idx in selected:
            if idx not in self.unlabeled:
                kind = "already labeled" if idx in self.labeled else "not in this client's pool"
                return PoolIntegrityError, f"client {client}: index {idx} is {kind}"
        if selected:
            self.unlabeled = [i for i in self.unlabeled if i not in selected]
            self.labeled = sorted(self.labeled + selected)
            self.history[round_index] = sorted(self.history.get(round_index, []) + selected)
        return None


def _views(pools):
    return [(p.labeled, p.unlabeled, p.history, p.shard) for p in pools]


@settings(max_examples=150)
@given(st.data())
def test_array_pools_match_a_list_model(data):
    classes = data.draw(st.integers(2, 4), label="classes")
    clients = data.draw(st.integers(1, 4), label="clients")
    n = data.draw(st.integers(2 * max(classes, clients), 60), label="n")
    skew = data.draw(st.none() | st.integers(-(-classes // clients), classes), label="classes_per_client")
    fraction = data.draw(st.floats(0.2, 1.0), label="fraction")
    seed = data.draw(st.integers(0, 1000), label="seed")
    ds = synth_blobs(n, classes, 2, 0.5, seed=seed)
    shards = _model_partition(ds.labels, classes, clients, skew, seed + 1)
    assume(all(shards) and all(round(fraction * len(shard)) >= 1 for shard in shards))
    mode = "iid_disjoint" if skew is None else "label_skew"
    pools = partition(ds, PartitionSpec(clients, mode=mode, classes_per_client=skew), seed + 1)
    model = [_ListPools(shard) for shard in shards]
    assert _views(pools) == _views(model)
    seed_initial_labels(pools, fraction, seed + 2)
    rng = np.random.default_rng(seed + 2)
    for m in model:
        m.seed(rng, fraction)
    assert _views(pools) == _views(model)

    for _ in range(data.draw(st.integers(1, 8), label="calls")):
        client = data.draw(st.integers(0, clients - 1))
        m = model[client]
        selected = data.draw(st.lists(st.sampled_from(m.unlabeled), max_size=5, unique=True)) if m.unlabeled else []
        foreign = [-1, n, n + 7, *(i for o in model if o is not m for i in o.shard)]
        for fault in data.draw(st.lists(st.sampled_from(["duplicate", "labeled", "foreign", "bool"]), max_size=2)):
            source = {"duplicate": selected[:1], "labeled": m.labeled, "foreign": foreign,
                      "bool": [False, True]}[fault]
            if source:
                selected.insert(data.draw(st.integers(0, len(selected))), data.draw(st.sampled_from(source)))
        round_index = data.draw(st.integers(1, 4))
        expected = m.annotate(client, selected, round_index)
        if expected is None:
            revealed = annotate(pools, client, selected, round_index, ds)
            assert revealed.tolist() == [int(ds.labels[i]) for i in sorted(selected)]
        else:
            with pytest.raises(expected[0], match=f"^{re.escape(expected[1])}$"):
                annotate(pools, client, selected, round_index, ds)
        assert _views(pools) == _views(model)

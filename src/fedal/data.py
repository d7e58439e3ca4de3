"""Datasets, client shards, and the labeled/unlabeled index pools.

A :class:`Dataset` is immutable; clients never copy rows around.  Instead
each client owns a :class:`ClientPools` record: its shard's dataset indices
and the round in which each was labeled, as two arrays.  Annotation writes
that round and reveals the stored ground-truth label (the human oracle of a
real deployment).  Labeled batches, features with their labels, are read
through :func:`gather`.  Scoring and two-head training read a client's
unlabeled rows straight from ``Dataset.features``, so they never see a label.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, EmptyInputError, ParseError, PoolIntegrityError, ShapeError, is_count, is_real

Array = np.ndarray

PARTITION_MODES = ("iid_disjoint", "label_skew")
EXTERNAL_FORMATS = ("csv_labeled", "idx_images")


@dataclass(frozen=True)
class Dataset:
    """Feature matrix (n, d) with integer labels in [0, class_count)."""

    features: Array
    labels: Array
    class_count: int

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels)
        if feats.ndim != 2:
            raise ShapeError(f"features must be 2-D, got ndim={feats.ndim}")
        if labels.ndim != 1:
            raise ShapeError(f"labels must be 1-D, got ndim={labels.ndim}")
        if feats.shape[0] != labels.shape[0]:
            raise ShapeError(f"{feats.shape[0]} feature rows but {labels.shape[0]} labels")
        if feats.shape[0] == 0:
            raise EmptyInputError("dataset must contain at least one example")
        if not np.all(np.isfinite(feats)):
            raise ShapeError("features must be finite (no NaN or infinity)")
        if not np.issubdtype(labels.dtype, np.integer):
            raise ShapeError("labels must be an integer array")
        if labels.min() < 0 or labels.max() >= self.class_count:
            raise ShapeError(
                f"labels must lie in [0, {self.class_count}), got range [{labels.min()}, {labels.max()}]"
            )
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels.astype(np.int64))

    @property
    def size(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


_BOOLS = frozenset((bool, np.bool_))


def as_indices(values) -> Array:
    """``values`` as a 1-D integer array of dataset indices; an empty one is int64.

    Raises :class:`ShapeError` naming the first entry that is a bool or not
    an integer, where NumPy would truncate it or read it as 0 or 1.  An
    array's dtype decides; a list is also checked for bools, which NumPy
    reads as integers among integers.  Range is the caller's to check.
    """
    idx = np.asarray(values)
    if idx.ndim != 1:
        raise ShapeError("indices must be 1-D")
    if idx.size == 0:
        return idx.astype(np.int64)
    from_array = isinstance(values, np.ndarray)
    if np.issubdtype(idx.dtype, np.integer) and (from_array or _BOOLS.isdisjoint(map(type, values))):
        return idx
    entries = idx.tolist() if from_array else list(values)
    bad = next((v for v in entries if not is_count(v, minimum=-math.inf)), entries[0])
    raise ShapeError(f"index {bad!r} is not an integer")


def gather(dataset: Dataset, indices) -> tuple[Array, Array]:
    """Materialize the features and labels of the rows at ``indices``.

    Raises :class:`ShapeError` naming the first index that is a bool, not an
    integer, negative or past the last row.
    """
    idx = as_indices(indices)
    outside = np.flatnonzero((idx < 0) | (idx >= dataset.size))
    if outside.size:
        raise ShapeError(f"index {idx[outside[0]]} is out of range for {dataset.size} rows")
    return dataset.features[idx], dataset.labels[idx]


@dataclass(frozen=True)
class PartitionSpec:
    """How the training set is split across clients; every error names the offending field."""

    client_count: int
    mode: str = "iid_disjoint"
    classes_per_client: int | None = None

    def __post_init__(self):
        if not is_count(self.client_count):
            raise ConfigError(f"client_count: must be an int >= 1, got {self.client_count}")
        if self.mode not in PARTITION_MODES:
            raise ConfigError(f"mode: unknown partition mode {self.mode!r}; expected one of {PARTITION_MODES}")
        if self.mode == "label_skew":
            if not is_count(self.classes_per_client):
                raise ConfigError(f"classes_per_client: label_skew needs an int >= 1, got {self.classes_per_client}")
        elif self.classes_per_client is not None:
            raise ConfigError(f"classes_per_client: does not apply to mode {self.mode!r}, "
                              f"got {self.classes_per_client!r}; only label_skew reads it")


class ClientPools:
    """One client's shard: ``rows``, its dataset indices ascending and unique, and ``labeled_round``.

    ``labeled_round[i]`` is -1 while ``rows[i]`` is unlabeled, 0 for a seed
    label and k for a label bought in round k.  Ascending rows make batch
    assembly (and floating-point accumulation) order canonical.  Raises
    :class:`ShapeError` for a bool or non-integer index, and
    :class:`PoolIntegrityError` naming one that is negative, repeated, or
    both labeled and unlabeled.
    """

    def __init__(self, client_id: int, unlabeled, labeled=()):
        unlabeled, labeled = as_indices(unlabeled), as_indices(labeled)
        rows = np.sort(np.concatenate((unlabeled, labeled)).astype(np.int64, copy=False))
        if rows.size and rows[0] < 0:
            raise PoolIntegrityError(f"client {client_id}: index {rows[0]} is negative")
        repeats = np.flatnonzero(rows[1:] == rows[:-1])
        if repeats.size:
            idx = rows[repeats[0]]
            kind = "both labeled and unlabeled" if idx in unlabeled and idx in labeled else "repeated"
            raise PoolIntegrityError(f"client {client_id}: index {idx} is {kind}")
        self.client_id, self.rows = client_id, rows
        self.labeled_round = np.where(np.isin(rows, labeled), 0, -1)

    # Derived on each read: arrays and counts, then read-only views as Python
    # values; ``history`` maps round k >= 1 to the sorted indices labeled in it.
    labeled_rows = property(lambda self: self.rows[self.labeled_round >= 0])
    unlabeled_rows = property(lambda self: self.rows[self.labeled_round < 0])
    labeled_count = property(lambda self: int(np.count_nonzero(self.labeled_round >= 0)))
    unlabeled_count = property(lambda self: int(np.count_nonzero(self.labeled_round < 0)))
    labeled = property(lambda self: self.labeled_rows.tolist())
    unlabeled = property(lambda self: self.unlabeled_rows.tolist())
    shard = property(lambda self: tuple(self.rows.tolist()))

    @property
    def history(self) -> dict[int, list[int]]:
        rounds = self.labeled_round
        return {k: self.rows[rounds == k].tolist() for k in np.unique(rounds[rounds > 0]).tolist()}


BLOB_LAYOUTS = ("circle", "line")


def check_blob_params(n: int, classes: int, dim: int, spread: float, layout: str,
                      elongation: float, n_key: str = "n") -> None:
    """The rules on :func:`synth_blobs`'s arguments; each error starts with the argument's name.

    ``n_key`` is the name to report for ``n``.
    """
    for key, value in (("classes", classes), (n_key, n), ("dim", dim)):
        if not is_count(value, minimum=-math.inf):
            raise ConfigError(f"{key}: must be an int, got {value!r}")
    for key, value in (("spread", spread), ("elongation", elongation)):
        if not is_real(value):
            raise ConfigError(f"{key}: must be a real number, got {value!r}")
    if classes < 2:
        raise ConfigError(f"classes: need at least 2, got {classes}")
    if n < classes:
        raise ConfigError(f"{n_key}: {n} is smaller than the class count {classes}")
    if dim < 2:
        raise ConfigError(f"dim: must be >= 2, got {dim}")
    if not (math.isfinite(spread) and spread >= 0):
        raise ConfigError(f"spread: must be finite and >= 0, got {spread}")
    if layout not in BLOB_LAYOUTS:
        raise ConfigError(f"layout: {layout!r} is not one of {list(BLOB_LAYOUTS)}")
    if not (math.isfinite(elongation) and elongation > 0):
        raise ConfigError(f"elongation: must be finite and > 0, got {elongation}")
    if layout == "line" and not math.isfinite(spread * elongation):
        raise ConfigError(f"elongation: the line layout's noise scale spread * elongation overflows, "
                          f"got {spread} * {elongation}")


def synth_blobs(n: int, classes: int, dim: int, spread: float, seed, *,
                layout: str = "circle", elongation: float = 1.0) -> Dataset:
    """Gaussian class clusters with near-balanced labels (counts differ by <= 1).

    Two center layouts in the first two feature dimensions:

    - ``circle`` (default): centers on a radius-3 circle with a small seeded
      jitter and isotropic per-cluster noise, so different seeds give
      different geometry while class separation stays controlled by
      ``spread`` (the per-cluster standard deviation).
    - ``line``: centers evenly spaced one unit apart along the first axis
      and noise on the second axis stretched by ``elongation``.  With large
      elongation the classes become thin parallel bands whose shared
      boundaries are long relative to the sample size, so accuracy keeps
      improving as labels accumulate near the boundaries -- a geometry where
      annotation choices matter even for a small model.

    ``spread=0`` collapses every class onto its center under either layout.
    A drawn point that overflows float64 raises :class:`ConfigError` naming
    ``spread``, or ``elongation`` when the line layout stretches its axis.
    """
    check_blob_params(n, classes, dim, spread, layout, elongation)
    rng = np.random.default_rng(seed)
    centers = np.zeros((classes, dim))
    scale = np.full(dim, spread)
    if layout == "circle":
        angles = 2.0 * np.pi * np.arange(classes) / classes
        centers[:, 0] = 3.0 * np.cos(angles)
        centers[:, 1] = 3.0 * np.sin(angles)
        centers += rng.normal(scale=0.3, size=centers.shape)
    else:
        centers[:, 0] = np.arange(classes) - (classes - 1) / 2.0
        scale[1] = spread * elongation
    labels = np.arange(n, dtype=np.int64) % classes
    try:
        with np.errstate(over="raise"):
            points = centers[labels] + scale * rng.standard_normal((n, dim))
    except FloatingPointError:
        key = "elongation" if layout == "line" and elongation > 1.0 else "spread"
        raise ConfigError(f"{key}: the noise scale {scale.max()} overflows on a drawn point") from None
    order = rng.permutation(n)
    return Dataset(points[order], labels[order], class_count=classes)


def _check_contiguous_labels(labels: list[int], lines: list[int], what: str) -> int:
    """Labels must be exactly {0..C-1}; returns C or raises naming the record."""
    for value, line in zip(labels, lines):
        if value < 0:
            raise ParseError(f"{what} {line}: negative label {value}")
    class_count = len(set(labels))
    top = max(labels)
    if top >= class_count:
        for value, line in zip(labels, lines):
            if value >= class_count:
                raise ParseError(
                    f"{what} {line}: label {value} but only {class_count} distinct labels; "
                    f"labels must form 0..{class_count - 1}"
                )
    return class_count


def _load_csv_labeled(path: Path) -> Dataset:
    rows: list[list[float]] = []
    labels: list[int] = []
    lines: list[int] = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.strip()
            if not text:
                continue
            parts = text.split(",")
            if len(parts) < 2:
                raise ParseError(f"line {lineno}: expected 'f1,...,fd,label', got {text!r}")
            if width is None:
                width = len(parts)
            elif len(parts) != width:
                raise ParseError(f"line {lineno}: {len(parts)} fields, expected {width}")
            try:
                feats = [float(p) for p in parts[:-1]]
            except ValueError:
                raise ParseError(f"line {lineno}: non-numeric feature in {text!r}") from None
            if not all(math.isfinite(f) for f in feats):
                raise ParseError(f"line {lineno}: non-finite feature in {text!r}")
            try:
                label_f = float(parts[-1])
            except ValueError:
                raise ParseError(f"line {lineno}: non-numeric label {parts[-1]!r}") from None
            if not math.isfinite(label_f):
                raise ParseError(f"line {lineno}: non-finite label {parts[-1]!r}")
            if label_f != int(label_f):
                raise ParseError(f"line {lineno}: label {parts[-1]!r} is not an integer")
            rows.append(feats)
            labels.append(int(label_f))
            lines.append(lineno)
    if not rows:
        raise ParseError(f"{path}: no data records")
    class_count = _check_contiguous_labels(labels, lines, "line")
    feats = np.asarray(rows, dtype=np.float64)
    # Min-max scale each column into [0, 1]; constant columns map to 0.
    lo = feats.min(axis=0)
    span = feats.max(axis=0) - lo
    scaled = np.where(span > 0, (feats - lo) / np.where(span > 0, span, 1.0), 0.0)
    return Dataset(scaled, np.asarray(labels, dtype=np.int64), class_count=class_count)


def _read_idx(path: Path, expect_dims: int) -> Array:
    raw = path.read_bytes()
    if len(raw) < 4:
        raise ParseError(f"{path}: truncated IDX header")
    zero1, zero2, dtype, ndim = raw[0], raw[1], raw[2], raw[3]
    if zero1 != 0 or zero2 != 0:
        raise ParseError(f"{path}: bad IDX magic {raw[:4].hex()}")
    if dtype != 0x08:
        raise ParseError(f"{path}: unsupported IDX data type 0x{dtype:02x} (only unsigned byte)")
    if ndim != expect_dims:
        raise ParseError(f"{path}: expected {expect_dims}-dimensional IDX data, got {ndim}")
    header_end = 4 + 4 * ndim
    if len(raw) < header_end:
        raise ParseError(f"{path}: truncated IDX dimension header")
    dims = struct.unpack(f">{ndim}I", raw[4:header_end])
    expected = math.prod(dims)
    body = np.frombuffer(raw, dtype=np.uint8, offset=header_end)
    if body.size != expected:
        raise ParseError(f"{path}: expected {expected} data bytes, found {body.size}")
    return body.reshape(dims)


def _load_idx_images(path: Path, labels_path: Path | None) -> Dataset:
    if labels_path is None:
        guess = Path(str(path).replace("images", "labels").replace("idx3", "idx1"))
        if guess == path or not guess.exists():
            raise ParseError(
                f"{path}: cannot infer the matching labels file; pass labels_path explicitly"
            )
        labels_path = guess
    images = _read_idx(path, expect_dims=3)
    labels = _read_idx(labels_path, expect_dims=1)
    if images.shape[0] != labels.shape[0]:
        raise ParseError(
            f"{path}: {images.shape[0]} images but {labels.shape[0]} labels in {labels_path}"
        )
    if images.shape[0] == 0:
        raise ParseError(f"{path}: no data records")
    label_list = [int(v) for v in labels]
    class_count = _check_contiguous_labels(label_list, list(range(len(label_list))), "record")
    feats = images.reshape(images.shape[0], -1).astype(np.float64) / 255.0
    return Dataset(feats, np.asarray(label_list, dtype=np.int64), class_count=class_count)


def load_external(path, fmt: str, labels_path=None) -> Dataset:
    """Load a dataset from disk; ``fmt`` is one of ``csv_labeled`` / ``idx_images``."""
    if fmt not in EXTERNAL_FORMATS:
        raise ConfigError(f"unknown external format {fmt!r}; expected one of {EXTERNAL_FORMATS}")
    p = Path(path)
    if not p.exists():
        raise ParseError(f"{p}: file not found")
    if fmt == "csv_labeled":
        return _load_csv_labeled(p)
    return _load_idx_images(p, Path(labels_path) if labels_path else None)


def partition(dataset: Dataset, spec: PartitionSpec, seed) -> list[ClientPools]:
    """Split the training set into disjoint per-client shards (all unlabeled)."""
    n = dataset.size
    m = spec.client_count
    if m > n:
        raise ConfigError(f"cannot split {n} examples across {m} clients")
    rng = np.random.default_rng(seed)
    if spec.mode == "iid_disjoint":
        chunks = np.array_split(rng.permutation(n), m)
    else:
        s = spec.classes_per_client
        c = dataset.class_count
        if s > c:
            raise ConfigError(f"classes_per_client={s} exceeds class count {c}")
        if m * s < c:
            raise ConfigError(f"label_skew with {m} clients x {s} classes cannot cover {c} classes")
        # Client m owns s consecutive classes (cyclically); each class's rows are
        # dealt round-robin among its owners: owner j takes rows j, j + len(owners), ...
        owners = [[client for client in range(m) if (cls - client * s) % c < s] for cls in range(c)]
        parts: list[list[Array]] = [[] for _ in range(m)]
        for cls in range(c):
            cls_idx = rng.permutation(np.flatnonzero(dataset.labels == cls))
            for j, client in enumerate(owners[cls]):
                parts[client].append(cls_idx[j::len(owners[cls])])
        chunks = [np.concatenate(p) for p in parts]
        if any(chunk.size == 0 for chunk in chunks):
            raise ConfigError("label_skew produced an empty shard; adjust clients/classes_per_client")
    return [ClientPools(client_id=i, unlabeled=chunk) for i, chunk in enumerate(chunks)]


def check_label_fraction(fraction: float) -> None:
    """The share of each shard labeled before the first round lies in (0, 1]."""
    if not (is_real(fraction) and 0.0 < fraction <= 1.0):
        raise ConfigError(f"initial_label_fraction: must lie in (0, 1], got {fraction}")


def seed_initial_labels(pools: list[ClientPools], fraction: float, seed) -> list[ClientPools]:
    """Reveal a uniform random ``fraction`` of each shard as the starting labels.

    Per-client counts use round-half-even of ``fraction * shard_size`` and
    must come out >= 1.
    """
    check_label_fraction(fraction)
    rng = np.random.default_rng(seed)
    for pool in pools:
        if pool.labeled_count:
            raise PoolIntegrityError(f"client {pool.client_id} already has labels")
        count = int(round(fraction * pool.rows.size))
        if count < 1:
            raise ConfigError(f"client {pool.client_id}: fraction {fraction} of shard size {pool.rows.size} "
                              "rounds to zero labels")
        chosen = rng.choice(pool.rows, size=count, replace=False)
        pool.labeled_round[np.searchsorted(pool.rows, chosen)] = 0
    return pools


def annotate(pools: list[ClientPools], client: int, selected, round_index: int, dataset: Dataset) -> Array:
    """Move ``selected`` from a client's unlabeled pool to its labeled pool.

    Returns the revealed ground-truth labels.  Raises :class:`ConfigError`
    naming ``client`` when it is not an index into ``pools``, or
    ``round_index`` when it is not an int >= 1 (rounds count from 1);
    :class:`ShapeError` for a bool or non-integer entry; and
    :class:`PoolIntegrityError` if any index is not currently unlabeled for
    that client (already annotated, or foreign to the shard).
    """
    if not (is_count(client, minimum=0) and client < len(pools)):
        raise ConfigError(f"client: must be an int in [0, {len(pools)}), got {client!r}")
    if not is_count(round_index):
        raise ConfigError(f"round_index: must be an int >= 1, got {round_index!r}")
    pool = pools[client]
    sel = as_indices(selected)
    ordered = np.sort(sel)
    if np.any(ordered[1:] == ordered[:-1]):
        raise PoolIntegrityError(f"client {client}: duplicate indices in selection")
    at = np.searchsorted(pool.rows, sel)
    # A foreign index lands on another row, or on the padding one past the last.
    found = np.append(pool.rows, -1)[at] == sel
    bad = np.flatnonzero(~found | (np.append(pool.labeled_round, -1)[at] >= 0))
    if bad.size:
        kind = "already labeled" if found[bad[0]] else "not in this client's pool"
        raise PoolIntegrityError(f"client {client}: index {sel[bad[0]]} is {kind}")
    pool.labeled_round[at] = round_index
    return dataset.labels[ordered]

"""Experiment configuration: schema, strict parsing, defaults, presets.

Config files are YAML (JSON works too).  Unknown keys are rejected, as are
dataset keys that the dataset's kind does not read, and every diagnostic
names the offending dotted key path, so a bad config fails before any
computation starts.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace

import yaml

from .data import (
    EXTERNAL_FORMATS,
    PartitionSpec,
    check_blob_params,
    check_label_fraction,
)
from .errors import ConfigError
from .fed import FedConfig
from .nn import LrSchedule, MlpArchitecture
from .orchestrator import ALConfig, check_scorer
from .presets import PRESETS
from .strategies import ScorerSpec

DATASET_KINDS = ("blobs",) + EXTERNAL_FORMATS
# The dataset keys that a kind or a blob layout does not read.  ``csv_labeled`` files hold their own labels.
_BLOB_KEYS = ("train_size", "test_size", "classes", "dim", "spread", "layout", "elongation")
_UNREAD_DATASET_KEYS = {("kind", "blobs"): ("path", "test_path", "labels_path", "test_labels_path"),
                        ("kind", "csv_labeled"): _BLOB_KEYS + ("labels_path", "test_labels_path"),
                        ("kind", "idx_images"): _BLOB_KEYS,
                        ("layout", "circle"): ("elongation",)}


@dataclass(frozen=True)
class DatasetSpec:
    """Where the data comes from: synthetic blobs or an external file pair; errors name the field."""

    kind: str
    train_size: int
    test_size: int
    classes: int
    dim: int
    spread: float
    layout: str
    elongation: float
    path: str | None = None
    labels_path: str | None = None
    test_path: str | None = None
    test_labels_path: str | None = None

    def __post_init__(self):
        if self.kind not in DATASET_KINDS:
            raise ConfigError(f"kind: unknown dataset kind {self.kind!r}; expected one of {DATASET_KINDS}")
        if self.kind == "blobs":
            for size_key in ("train_size", "test_size"):
                check_blob_params(getattr(self, size_key), self.classes, self.dim, self.spread,
                                  self.layout, self.elongation, n_key=size_key)
        else:
            for path_key in ("path", "test_path"):
                if getattr(self, path_key) is None:
                    raise ConfigError(f"{path_key}: required for external datasets")


@dataclass(frozen=True)
class ModelSpec:
    hidden: tuple[int, ...]
    activation: str
    dropout: float


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetSpec
    partition: PartitionSpec
    model: ModelSpec
    strategy: str
    scorer: ScorerSpec
    rounds: int
    budgets: tuple[int, ...]
    initial_label_fraction: float
    fl: FedConfig
    independent: FedConfig
    repeats: int
    base_seed: int
    out_path: str
    preset: str | None = None


def al_config(cfg: ExperimentConfig) -> ALConfig:
    """The annotation-loop settings of an experiment; auxiliary models train like ``independent``."""
    return ALConfig(rounds=cfg.rounds, budgets=cfg.budgets, scorer=cfg.scorer,
                    aux_train=cfg.independent)


# ``fl`` keys a config leaves unset; ``independent`` copies ``fl`` with a slower rate.
_FL_DEFAULTS = FedConfig(LrSchedule(0.05, 0.997), stop_loss_threshold=0.02, max_global_iters=200)
_INDEPENDENT_SCHEDULE = LrSchedule(0.01, 0.997)


class _Section:
    """A config mapping plus its dotted path; tracks which keys were consumed."""

    def __init__(self, mapping, path: str):
        if mapping is None:
            mapping = {}
        if not isinstance(mapping, dict):
            raise ConfigError(f"{path}: expected a mapping, got {type(mapping).__name__}")
        self.mapping = mapping
        self.path = path
        self.seen: set[str] = set()

    def _label(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def get(self, key: str, kind, default=...):
        self.seen.add(key)
        if key not in self.mapping or self.mapping[key] is None:
            if default is ...:
                raise ConfigError(f"{self._label(key)}: required key is missing")
            return default
        value = self.mapping[key]
        if kind is float and isinstance(value, int) and not isinstance(value, bool):
            try:
                value = float(value)
            except OverflowError:
                raise ConfigError(f"{self._label(key)}: expected float, got an int too large for one") from None
        if kind is int and isinstance(value, bool):
            raise ConfigError(f"{self._label(key)}: expected int, got bool")
        if not isinstance(value, kind):
            raise ConfigError(
                f"{self._label(key)}: expected {getattr(kind, '__name__', kind)}, got {type(value).__name__}"
            )
        return value

    def section(self, key: str) -> "_Section":
        self.seen.add(key)
        return _Section(self.mapping.get(key), self._label(key))

    def reject_unknown(self):
        unknown = sorted(set(self.mapping) - self.seen)
        if unknown:
            raise ConfigError(f"{self._label(unknown[0])}: unknown key")

    def build(self, owner, *args, keys: dict | None = None, **fields):
        """``owner(*args, **fields)``, its ``field: message`` errors renamed to this section's
        ``key: message``; ``keys`` maps the fields whose config key has another name."""
        try:
            return owner(*args, **fields)
        except ConfigError as exc:
            field, _, message = str(exc).partition(": ")
            raise ConfigError(f"{self._label((keys or {}).get(field, field))}: {message}") from None


def _reject_duplicate_keys(node, path: str = "") -> None:
    """Name the first mapping key given twice; plain YAML keeps its last copy without a word."""
    labels = set()
    for key_node, value_node in node.value if isinstance(node, yaml.MappingNode) else ():
        label = f"{path}.{key_node.value}" if path else str(key_node.value)
        if label in labels:
            raise ConfigError(f"{label}: duplicate key")
        labels.add(label)
        _reject_duplicate_keys(value_node, label)


class _StrictLoader(yaml.SafeLoader):
    def construct_document(self, node):
        _reject_duplicate_keys(node)
        return super().construct_document(node)


def _deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def _parse_fed_section(sec: _Section, base: FedConfig) -> FedConfig:
    """``base`` with the keys the section sets."""
    lr = sec.get("lr", float, default=base.schedule.initial_lr)
    decay = sec.get("lr_decay", float, default=base.schedule.decay)
    minibatch = sec.get("minibatch_size", (int, str), default=base.minibatch_size)
    if isinstance(minibatch, str):
        if minibatch != "full":
            raise ConfigError(f"{sec.path}.minibatch_size: expected an int or 'full', got {minibatch!r}")
        minibatch = None
    local_epochs = sec.get("local_epochs", int, default=base.local_epochs)
    threshold = sec.get("stop_loss_threshold", float, default=base.stop_loss_threshold)
    max_iters = sec.get("max_global_iters", int, default=base.max_global_iters)
    sec.reject_unknown()
    schedule = sec.build(LrSchedule, lr, decay, keys={"initial_lr": "lr", "decay": "lr_decay"})
    return sec.build(FedConfig, schedule, local_epochs=local_epochs, minibatch_size=minibatch,
                     stop_loss_threshold=threshold, max_global_iters=max_iters)


def parse_config(raw, overrides: dict | None = None) -> ExperimentConfig:
    """Parse config text/bytes into a validated :class:`ExperimentConfig`.

    ``overrides`` (dotted top-level form, e.g. ``{"run": {"seed": 3}}``) wins
    over the file, which wins over the preset it names.
    """
    if isinstance(raw, bytes):
        raw = raw.decode("utf-8")
    try:
        loaded = yaml.load(raw, Loader=_StrictLoader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from None
    if loaded is None:
        loaded = {}
    if not isinstance(loaded, dict):
        raise ConfigError(f"config root must be a mapping, got {type(loaded).__name__}")

    preset_name = _Section(loaded, "").get("preset", str, default=None)
    if preset_name is not None and preset_name not in PRESETS:
        raise ConfigError(f"preset: unknown preset {preset_name!r}; available: {sorted(PRESETS)}")
    merged = _deep_merge(PRESETS.get(preset_name, {}), {k: v for k, v in loaded.items() if k != "preset"})
    if overrides:
        merged = _deep_merge(merged, overrides)

    root = _Section(merged, "")

    ds = root.section("dataset")
    dataset_fields = dict(
        kind=ds.get("kind", str),
        train_size=ds.get("train_size", int, default=3000),
        test_size=ds.get("test_size", int, default=1000),
        classes=ds.get("classes", int, default=8),
        dim=ds.get("dim", int, default=2),
        spread=ds.get("spread", float, default=1.0),
        layout=ds.get("layout", str, default="circle"),
        elongation=ds.get("elongation", float, default=1.0),
        path=ds.get("path", str, default=None),
        labels_path=ds.get("labels_path", str, default=None),
        test_path=ds.get("test_path", str, default=None),
        test_labels_path=ds.get("test_labels_path", str, default=None),
    )
    ds.reject_unknown()
    dataset = ds.build(DatasetSpec, **dataset_fields)
    for (field, value), unread in _UNREAD_DATASET_KEYS.items():
        unused = [key for key in unread if ds.mapping.get(key) is not None]
        if unused and getattr(dataset, field) == value:
            subject = "dataset kind" if field == "kind" else field
            raise ConfigError(f"dataset.{unused[0]}: does not apply to {subject} {value!r}")

    part = root.section("partition")
    client_count = part.get("clients", int)
    mode = part.get("mode", str, default="iid_disjoint")
    classes_per_client = part.get("classes_per_client", int, default=None)
    part.reject_unknown()
    partition_spec = part.build(PartitionSpec, client_count=client_count, mode=mode,
                                classes_per_client=classes_per_client, keys={"client_count": "clients"})

    mdl = root.section("model")
    hidden_raw = mdl.get("hidden", list, default=[32])
    model_spec = ModelSpec(
        hidden=tuple(hidden_raw),
        activation=mdl.get("activation", str, default="relu"),
        dropout=mdl.get("dropout", float, default=0.0),
    )
    mdl.reject_unknown()
    # the data sets the input and class counts; 1 stands in for both
    mdl.build(MlpArchitecture, (1, *model_spec.hidden, 1), model_spec.activation, model_spec.dropout,
              keys={"layer_sizes": "hidden", "dropout_rate": "dropout"})

    al = root.section("al")
    strategy = al.get("strategy", str)
    scorer_kind = al.get("scorer", str, default="entropy")
    rounds = al.get("rounds", int, default=10)
    budget_total = al.get("budget", int, default=None)
    budgets_raw = al.get("budgets", list, default=None)
    clients = partition_spec.client_count
    if strategy == "full_budget":
        budgets = tuple([0] * clients)
    elif budgets_raw is not None:
        if budget_total is not None:
            raise ConfigError("al.budget and al.budgets are mutually exclusive")
        if len(budgets_raw) != clients:
            raise ConfigError(f"al.budgets: expected {clients} entries, got {len(budgets_raw)}")
        budgets = tuple(budgets_raw)
    else:
        if budget_total is None:
            raise ConfigError("al.budget: required key is missing")
        if budget_total % clients != 0:
            raise ConfigError(
                f"al.budget: total budget {budget_total} does not split evenly across {clients} clients; "
                "use al.budgets for uneven splits"
            )
        budgets = tuple([budget_total // clients] * clients)
    mc_passes = al.get("mc_passes", int, default=10)
    initial_fraction = al.get("initial_label_fraction", float, default=0.1)
    al.reject_unknown()

    fl_cfg = _parse_fed_section(root.section("fl"), _FL_DEFAULTS)
    il_cfg = _parse_fed_section(root.section("independent"),
                                replace(fl_cfg, schedule=_INDEPENDENT_SCHEDULE))

    run = root.section("run")
    repeats = run.get("repeats", int, default=1)
    if repeats < 1:
        raise ConfigError(f"run.repeats: must be >= 1, got {repeats}")
    base_seed = run.get("seed", int, default=0)
    if base_seed < 0:
        raise ConfigError(f"run.seed: must be >= 0, got {base_seed}")
    out_path = run.get("out", str, default="results.csv")
    run.reject_unknown()
    root.reject_unknown()

    cfg = ExperimentConfig(
        dataset=dataset,
        partition=partition_spec,
        model=model_spec,
        strategy=strategy,
        scorer=al.build(ScorerSpec, scorer_kind, mc_passes=mc_passes, keys={"kind": "scorer"}),
        rounds=rounds,
        budgets=budgets,
        initial_label_fraction=initial_fraction,
        fl=fl_cfg,
        independent=il_cfg,
        repeats=repeats,
        base_seed=base_seed,
        out_path=out_path,
        preset=preset_name,
    )
    try:
        al.build(al_config, cfg)
    except ConfigError as exc:
        key, _, message = str(exc).partition(": ")
        if key.startswith("al.budgets[") and budget_total is not None:  # a rule on al.budget's even split
            raise ConfigError(f"al.budget: total {budget_total} gives each of {clients} clients "
                              f"{budgets[0]}: {message}") from None
        raise
    al.build(check_scorer, cfg.strategy, cfg.scorer)
    al.build(check_label_fraction, cfg.initial_label_fraction)
    return cfg


def parse_config_file(path, overrides: dict | None = None) -> ExperimentConfig:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return parse_config(raw, overrides)

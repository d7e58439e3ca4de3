"""Tests for config parsing, defaults, presets, and the CLI wrapper."""

import copy
import importlib
import math
import warnings
from pathlib import Path

import pytest
import yaml

from fedal.cli import main as cli_main
from fedal.config import parse_config, parse_config_file
from fedal.errors import ConfigError
from fedal.presets import PAPER_SCALE_PRESETS, PRESETS, PROVENANCE_NOTE

REPO = Path(__file__).resolve().parent.parent
CONFIG_DIR = REPO / "configs"

MINIMAL = """
dataset:
  kind: blobs
partition:
  clients: 2
al:
  strategy: random
  budget: 40
"""

TINY_RUN = """
dataset:
  kind: blobs
  train_size: 60
  test_size: 30
  classes: 3
  spread: 0.6
partition:
  clients: 2
model:
  hidden: [4]
al:
  strategy: random
  budget: 8
  rounds: 2
fl:
  lr: 0.3
  stop_loss_threshold: 0.05
  max_global_iters: 10
run:
  repeats: 1
  seed: 3
"""


def _parse(text, overrides=None):
    return parse_config(text, overrides)


# -- defaults ------------------------------------------------------------------

def test_minimal_config_fills_documented_defaults():
    cfg = _parse(MINIMAL)
    assert cfg.rounds == 10
    assert cfg.budgets == (20, 20)
    assert cfg.scorer.kind == "entropy"
    assert cfg.scorer.mc_passes == 10
    assert cfg.initial_label_fraction == 0.1
    assert cfg.model.hidden == (32,)
    assert cfg.model.activation == "relu"
    assert cfg.model.dropout == 0.0
    assert cfg.fl.schedule.initial_lr == 0.05
    assert cfg.fl.schedule.decay == 0.997
    assert cfg.fl.stop_loss_threshold == 0.02
    assert cfg.fl.max_global_iters == 200
    assert cfg.fl.minibatch_size is None
    assert cfg.independent.schedule.initial_lr == 0.01
    assert cfg.repeats == 1
    assert cfg.base_seed == 0
    assert cfg.out_path == "results.csv"
    assert cfg.preset is None


def test_minibatch_accepts_full_or_int():
    cfg = _parse(MINIMAL + "fl:\n  minibatch_size: full\n")
    assert cfg.fl.minibatch_size is None
    cfg = _parse(MINIMAL + "fl:\n  minibatch_size: 16\n")
    assert cfg.fl.minibatch_size == 16
    with pytest.raises(ConfigError, match="minibatch_size"):
        _parse(MINIMAL + "fl:\n  minibatch_size: half\n")


def test_independent_section_defaults_to_a_slower_rate():
    cfg = _parse(MINIMAL + "fl:\n  stop_loss_threshold: 0.5\n")
    assert cfg.independent.schedule.initial_lr == 0.01
    assert cfg.independent.stop_loss_threshold == 0.5  # inherited
    cfg = _parse(MINIMAL + "independent:\n  lr: 0.2\n")
    assert cfg.independent.schedule.initial_lr == 0.2
    # one rule whether the section is absent, empty or partial: fl with lr 0.01 and
    # lr_decay 0.997, overridden by the keys the section sets
    fl = "fl:\n  lr_decay: 0.99\n  minibatch_size: 16\n  local_epochs: 2\n"
    for section in ("", "independent: {}\n", "independent:\n  max_global_iters: 400\n"):
        il = _parse(MINIMAL + fl + section).independent
        assert (il.schedule.initial_lr, il.schedule.decay) == (0.01, 0.997)
        assert (il.minibatch_size, il.local_epochs) == (16, 2)
        assert il.max_global_iters == (400 if "400" in section else 200)


# -- validation ----------------------------------------------------------------

@pytest.mark.parametrize(
    "extra,fragment",
    [
        ("al:\n  strategy: random\n  budget: 40\n  rounds: 0\n", r"^al\.rounds: "),
        ("al:\n  strategy: random\n  budget: 15\n", "does not split evenly"),
        ("al:\n  strategy: random\n  budget: 30\n  rounds: 4\n",
         r"^al\.budget: total 30 gives each of 2 clients 15: .*not divisible by rounds=4"),
        ("partition:\n  clients: 3\nal:\n  strategy: random\n  budget: -30\n",
         r"^al\.budget: total -30 gives each of 3 clients -10: must be >= 0"),
        ("partition:\n  clients: 3\nal:\n  strategy: random\n  budget: 30\n  rounds: 4\n",
         r"^al\.budget: total 30 gives each of 3 clients 10: .*not divisible by rounds=4"),
        ("al:\n  strategy: random\n  budget: 40\n  budgets: [20, 20]\n", "mutually exclusive"),
        ("al:\n  strategy: random\n  budgets: [10, 10, 10]\n", "expected 2 entries"),
        ("al:\n  strategy: random\n  budgets: [10, -10]\n", r"^al\.budgets\[1\]: must be >= 0"),
        ("al:\n  strategy: random\n  budgets: [10, 1.5]\n", r"^al\.budgets\[1\]: must be an int, got 1\.5$"),
        ("al:\n  strategy: s_al\n  scorer: random\n  budget: 40\n", r"^al\.scorer: .*model-based"),
        ("al:\n  strategy: random\n  budget: 40\n  initial_label_fraction: 0.0\n",
         r"^al\.initial_label_fraction: "),
        ("al:\n  strategy: random\n  budget: 40\n  initial_label_fraction: 1.5\n",
         r"^al\.initial_label_fraction: "),
        ("al:\n  strategy: random\n  budget: 40\n  mc_passes: 0\n", r"^al\.mc_passes: "),
        ("al:\n  strategy: random\n  budget: 40\n  banana: 1\n", "al.banana: unknown key"),
        ("al:\n  strategy: bogus\n  budget: 40\n", r"^al\.strategy: unknown strategy 'bogus'"),
        ("al:\n  strategy: random\n  scorer: margin\n  budget: 40\n", r"^al\.scorer: unknown scorer 'margin'"),
        ("model:\n  hidden: [0]\n", "model.hidden"),
        ("model:\n  hidden: [0]\n", r"^model\.hidden: sizes must be >= 1, got 0"),
        ("model:\n  hidden: [4, 1.5]\n", r"^model\.hidden: sizes must be ints, got 1\.5$"),
        ("model:\n  dropout: 1.0\n", "model.dropout"),
        ("model:\n  dropout: 1.0\n", r"^model\.dropout: must lie in \[0, 1\), got 1\.0"),
        ("model:\n  activation: selu\n", r"^model\.activation: unknown activation 'selu'"),
        ("fl:\n  lr: 0.1\nfl:\n  max_global_iters: 7\n", r"^fl: duplicate key"),
        ("fl:\n  lr: 0.1\n  lr: 0.2\n", r"^fl\.lr: duplicate key"),
        ("al:\n  strategy: random\n  budgets: [10, 10]\n  budgets: [20, 0]\n", r"^al\.budgets: duplicate key"),
        ("fl:\n  lr: oops\n", "fl.lr"),
        ("run:\n  repeats: 0\n", "run.repeats"),
        ("run:\n  seed: -1\n", "run.seed"),
        ("fl:\n  stop_loss_threshold: .inf\n", r"^fl\.stop_loss_threshold: "),
        ("fl:\n  lr: -1.0\n", r"^fl\.lr: must be positive"),
        ("fl:\n  lr_decay: 1.5\n", r"^fl\.lr_decay: must lie in"),
        ("fl:\n  max_global_iters: 0\n", r"^fl\.max_global_iters: "),
        ("independent:\n  lr: 0.0\n", r"^independent\.lr: must be positive"),
        ("independent:\n  lr_decay: 0.0\n", r"^independent\.lr_decay: must lie in"),
        ("independent:\n  local_epochs: 0\n", r"^independent\.local_epochs: "),
        ("independent:\n  minibatch_size: 0\n", r"^independent\.minibatch_size: "),
        ("partition:\n  clients: 0\n", r"^partition\.clients: must be an int >= 1"),
        ("partition:\n  clients: 2\n  mode: label_skew\n", r"^partition\.classes_per_client: "),
        ("partition:\n  clients: 3\n  mode: iid_disjoint\n  classes_per_client: 2\n",
         r"^partition\.classes_per_client: does not apply to mode 'iid_disjoint'"),
        ("partition:\n  clients: 2\n  mode: bogus\n", r"^partition\.mode: unknown partition mode 'bogus'"),
        ("dataset:\n  kind: parquet\n", r"^dataset\.kind: unknown dataset kind 'parquet'; expected one of"),
        ("dataset:\n  kind: blobs\n  classes: 1\n", r"^dataset\.classes: "),
        ("dataset:\n  kind: blobs\n  dim: 1\n", r"^dataset\.dim: "),
        ("dataset:\n  kind: blobs\n  classes: 40\n  test_size: 30\n", r"^dataset\.test_size: "),
        ("dataset:\n  kind: blobs\n  train_size: 5\n", r"^dataset\.train_size: "),
        ("dataset:\n  kind: blobs\n  spread: -1.0\n", r"^dataset\.spread: "),
        ("dataset:\n  kind: blobs\n  elongation: 0.0\n", r"^dataset\.elongation: "),
        ("dataset:\n  kind: blobs\n  spread: 2.0\n  layout: line\n  elongation: 1.0e+308\n",
         r"^dataset\.elongation: .*spread \* elongation overflows"),
        ("dataset:\n  kind: blobs\n  elongation: 5.0\n", r"^dataset\.elongation: does not apply to layout 'circle'$"),
    ],
)
def test_bad_values_are_rejected_with_dotted_paths(extra, fragment):
    base = {"dataset": "dataset:\n  kind: blobs\n", "partition": "partition:\n  clients: 2\n",
            "al": "al:\n  strategy: random\n  budget: 40\n"}
    # A case restates in full each base section it changes; a repeated section is an error.
    for line in extra.splitlines():
        if line and not line[0].isspace():
            base.pop(line.split(":")[0], None)
    with pytest.raises(ConfigError, match=fragment):
        _parse("".join(base.values()) + extra)


_FED_KEYS = {"lr": 0.3, "lr_decay": 0.99, "stop_loss_threshold": 0.05, "local_epochs": 1,
             "minibatch_size": 8, "max_global_iters": 10}
TINY_SKEW = {
    "dataset": {"kind": "blobs", "train_size": 60, "test_size": 30, "classes": 3, "dim": 2, "spread": 0.6,
                "layout": "line", "elongation": 1.0},
    "partition": {"clients": 2, "mode": "label_skew", "classes_per_client": 2},
    "model": {"hidden": [4], "dropout": 0.1},
    "al": {"strategy": "random", "budget": 8, "rounds": 2, "mc_passes": 3, "initial_label_fraction": 0.1},
    "fl": dict(_FED_KEYS),
    "independent": dict(_FED_KEYS),
    "run": {"repeats": 1, "seed": 3},
}
_INT_KEYS = ["dataset.train_size", "dataset.test_size", "dataset.classes", "dataset.dim", "partition.clients",
             "partition.classes_per_client", "al.budget", "al.rounds", "al.mc_passes"]
_INT_KEYS += [f"{section}.{key}" for section in ("fl", "independent")
              for key in ("local_epochs", "minibatch_size", "max_global_iters")] + ["run.repeats", "run.seed"]
_REAL_KEYS = ["dataset.spread", "dataset.elongation", "model.dropout", "al.initial_label_fraction"]
_REAL_KEYS += [f"{section}.{key}" for section in ("fl", "independent")
               for key in ("lr", "lr_decay", "stop_loss_threshold")]


@pytest.mark.parametrize("key,value",
                         [(key, value) for key in _INT_KEYS for value in (-30, -1, 0, True, 1.5, "3", math.nan)]
                         + [(key, value) for key in _REAL_KEYS for value in (-1.0, True, "3", math.nan, math.inf, 10**400)])
def test_a_bad_numeric_value_is_reported_under_its_key(key, value):
    section, name = key.split(".")
    raw = copy.deepcopy(TINY_SKEW)
    raw[section][name] = value
    try:
        _parse(yaml.safe_dump(raw))
    except ConfigError as exc:
        assert str(exc).startswith(f"{key}: "), str(exc)


def test_a_repeated_key_is_named_and_never_silently_dropped(tmp_path, capsys):
    text = MINIMAL + "fl:\n  lr: 0.1\nfl:\n  max_global_iters: 7\n"
    with pytest.raises(ConfigError, match=r"^fl: duplicate key$"):
        _parse(text)
    assert cli_main(["run", str(_write_cfg(tmp_path, text))]) == 2
    assert capsys.readouterr().err.strip() == "config error: fl: duplicate key"
    cfg = _parse(MINIMAL + "fl:\n  lr: 0.1\n  max_global_iters: 7\n")
    assert (cfg.fl.schedule.initial_lr, cfg.fl.max_global_iters) == (0.1, 7)


def test_missing_required_keys_are_named():
    with pytest.raises(ConfigError, match="dataset.kind"):
        _parse("partition:\n  clients: 2\nal:\n  strategy: random\n  budget: 4\n")
    with pytest.raises(ConfigError, match=r"^partition\.clients: required key is missing"):
        _parse("dataset:\n  kind: blobs\nal:\n  strategy: random\n  budget: 4\n")
    with pytest.raises(ConfigError, match="al.budget"):
        _parse("dataset:\n  kind: blobs\npartition:\n  clients: 2\nal:\n  strategy: random\n")


def test_booleans_do_not_pass_as_integers():
    with pytest.raises(ConfigError, match="al.rounds"):
        _parse(MINIMAL.replace("budget: 40", "budget: 40\n  rounds: true"))


@pytest.mark.parametrize("section", ["fl", "independent"])
def test_a_boolean_minibatch_size_stops_the_run(section, tmp_path, capsys):
    # The key takes an int or 'full'; `true` once trained on 1-row minibatches.
    cfg = _write_cfg(tmp_path, MINIMAL + f"{section}:\n  minibatch_size: true\n")
    assert cli_main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err.strip() == (
        f"config error: {section}.minibatch_size: must be 'full' (None) or an int >= 1, got True")


def test_root_must_be_a_mapping():
    with pytest.raises(ConfigError, match="mapping"):
        _parse("- 1\n- 2\n")
    with pytest.raises(ConfigError, match="YAML"):
        _parse("al: [unclosed\n")


def test_full_budget_consumes_and_ignores_the_budget_key():
    cfg = _parse(MINIMAL.replace("strategy: random", "strategy: full_budget"))
    assert cfg.strategy == "full_budget"
    assert cfg.budgets == (0, 0)


def test_uneven_budgets_are_allowed_via_the_list_form():
    cfg = _parse(MINIMAL.replace("budget: 40", "budgets: [30, 10]\n  rounds: 5"))
    assert cfg.budgets == (30, 10)


def test_external_datasets_need_paths_but_not_files():
    base = "dataset:\n  kind: csv_labeled\npartition:\n  clients: 2\nal:\n  strategy: random\n  budget: 40\n"
    with pytest.raises(ConfigError, match="dataset.path"):
        _parse(base)
    with_path = base.replace("kind: csv_labeled", "kind: csv_labeled\n  path: /data/train.csv")
    with pytest.raises(ConfigError, match="dataset.test_path"):
        _parse(with_path)
    cfg = _parse(with_path.replace("path: /data/train.csv",
                                   "path: /data/train.csv\n  test_path: /data/test.csv"))
    assert cfg.dataset.path == "/data/train.csv"  # parse alone touches no files


BLOB_KEYS = {"train_size": 5, "test_size": 5, "classes": 99, "dim": 3, "spread": -3.0, "layout": "line",
             "elongation": 2.0}
FILE_KEYS = {"path": "/nonexistent.csv", "test_path": "/nonexistent.csv", "labels_path": "/nope",
             "test_labels_path": "/nope"}
EXTERNAL = ("dataset:\n  kind: {kind}\n  path: /x/train\n  test_path: /x/test\n"
            "partition:\n  clients: 2\nal:\n  strategy: random\n  budget: 40\n")


@pytest.mark.parametrize("key", sorted(FILE_KEYS))
def test_blob_datasets_reject_file_keys(key):
    text = MINIMAL.replace("kind: blobs", f"kind: blobs\n  {key}: {FILE_KEYS[key]}")
    with pytest.raises(ConfigError, match=rf"^dataset\.{key}: does not apply to dataset kind 'blobs'$"):
        _parse(text)
    with pytest.raises(ConfigError, match=rf"^dataset\.{key}: "):
        _parse(MINIMAL, {"dataset": {key: FILE_KEYS[key]}})


@pytest.mark.parametrize("key", sorted(BLOB_KEYS) + ["labels_path", "test_labels_path"])
def test_csv_labeled_datasets_reject_blob_and_labels_file_keys(key):
    value = {**BLOB_KEYS, **FILE_KEYS}[key]
    text = EXTERNAL.format(kind="csv_labeled").replace("test_path: /x/test", f"test_path: /x/test\n  {key}: {value}")
    with pytest.raises(ConfigError, match=rf"^dataset\.{key}: does not apply to dataset kind 'csv_labeled'$"):
        _parse(text)


@pytest.mark.parametrize("key", sorted(BLOB_KEYS))
def test_idx_images_datasets_reject_blob_keys_but_read_labels_files(key):
    text = EXTERNAL.format(kind="idx_images")
    with pytest.raises(ConfigError, match=rf"^dataset\.{key}: does not apply to dataset kind 'idx_images'$"):
        _parse(text, {"dataset": {key: BLOB_KEYS[key]}})
    labeled = _parse(text, {"dataset": {"labels_path": "/x/train-labels", "test_labels_path": "/x/test-labels"}})
    assert labeled.dataset.labels_path == "/x/train-labels"


def test_a_preset_dataset_key_that_the_file_kind_does_not_read_is_rejected(monkeypatch):
    monkeypatch.setitem(PRESETS, "blob_preset", {"dataset": {"kind": "blobs", "classes": 4}})
    text = "preset: blob_preset\n" + EXTERNAL.format(kind="csv_labeled")
    with pytest.raises(ConfigError, match=r"^dataset\.classes: does not apply to dataset kind 'csv_labeled'$"):
        _parse(text)


def test_line_layout_options_parse():
    cfg = _parse(MINIMAL.replace("kind: blobs", "kind: blobs\n  layout: line\n  elongation: 16.0"))
    assert cfg.dataset.layout == "line"
    assert cfg.dataset.elongation == 16.0
    with pytest.raises(ConfigError, match="dataset.layout"):
        _parse(MINIMAL.replace("kind: blobs", "kind: blobs\n  layout: spiral"))


# -- presets ---------------------------------------------------------------------

def test_unknown_presets_list_the_available_names():
    with pytest.raises(ConfigError, match="paper_scale"):
        _parse("preset: paper_scale_svhn\n")


def test_paper_scale_preset_fills_the_documented_setup():
    cfg = _parse(
        "preset: paper_scale_cifar10\n"
        "dataset:\n  kind: csv_labeled\n  path: /x/train.csv\n  test_path: /x/test.csv\n"
    )
    assert cfg.preset == "paper_scale_cifar10"
    assert cfg.strategy == "f_al"
    assert cfg.scorer.kind == "entropy"
    assert cfg.rounds == 10
    assert cfg.partition.client_count == 5
    assert cfg.budgets == (2000,) * 5
    assert cfg.fl.stop_loss_threshold == 5e-4
    assert cfg.fl.schedule.initial_lr == 0.05
    assert cfg.repeats == 3
    assert "paper_scale_cifar10" in PAPER_SCALE_PRESETS


def test_file_keys_override_the_preset_and_flags_override_the_file():
    text = (
        "preset: paper_scale_cifar10\n"
        "dataset:\n  kind: csv_labeled\n  path: /x/train.csv\n  test_path: /x/test.csv\n"
        "run:\n  seed: 9\n"
    )
    cfg = _parse(text)
    assert cfg.base_seed == 9
    cfg = _parse(text, overrides={"run": {"seed": 77}, "al": {"strategy": "s_al"}})
    assert cfg.base_seed == 77
    assert cfg.strategy == "s_al"


def test_shipped_config_files_parse_cleanly(monkeypatch):
    desk = parse_config_file(CONFIG_DIR / "desk_blobs.yaml")
    assert desk.dataset.layout == "line"
    paper = parse_config_file(CONFIG_DIR / "paper_scale_cifar10.yaml")
    assert paper.preset in PAPER_SCALE_PRESETS
    for name in PRESETS:
        cfg = _parse(f"preset: {name}\n"
                     "dataset:\n  kind: csv_labeled\n  path: /x/train.csv\n  test_path: /x/test.csv\n")
        assert cfg.preset == name
    # the benchmark's configs, under every (strategy, scorer) pair it runs them with
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    workloads = importlib.import_module("workloads")
    for path in sorted((REPO / "perfbench" / "configs").glob("*.yaml")):
        workload = workloads.make(path.stem)
        for strategy, scorer in workload.pairs:
            cfg = _parse(workload.text, {"al": {"strategy": strategy, "scorer": scorer}})
            assert (cfg.strategy, cfg.scorer.kind) == (strategy, scorer)


def test_parse_config_file_reports_missing_files(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config_file(tmp_path / "nope.yaml")


# -- CLI -----------------------------------------------------------------------------

def _write_cfg(tmp_path, text, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_cli_run_writes_the_result_csv(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, TINY_RUN)
    out = tmp_path / "results.csv"
    code = cli_main(["run", str(cfg), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert out.exists()
    assert "repeat 1: 2 round(s)" in captured.out
    assert "wrote 2 result rows (+4 summary rows)" in captured.out
    repeats = [line.split(",")[3] for line in out.read_text().splitlines()[1:]]
    assert sorted(repeats) == ["1", "1", "mean", "mean", "std", "std"]


def test_cli_flag_overrides_are_applied(tmp_path):
    cfg = _write_cfg(tmp_path, TINY_RUN)
    out = tmp_path / "more.csv"
    code = cli_main(["run", str(cfg), "--out", str(out), "--repeats", "2", "--seed", "5"])
    assert code == 0
    repeats = [line.split(",")[3] for line in out.read_text().splitlines()[1:]]
    assert sorted(r for r in repeats if r.isdigit()) == ["1", "1", "2", "2"]


def test_cli_strategy_and_scorer_flags_override_the_file(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, TINY_RUN)
    out = tmp_path / "sal.csv"
    code = cli_main(["run", str(cfg), "--out", str(out), "--strategy", "s_al", "--scorer", "coreset"])
    assert code == 0
    rows = out.read_text().splitlines()[1:]
    assert rows and all(row.startswith("s_al,coreset,") for row in rows)
    with pytest.raises(SystemExit) as exc:
        cli_main(["run", str(cfg), "--scorer", "bogus"])
    assert exc.value.code == 2
    assert "--scorer" in capsys.readouterr().err


def test_cli_rejects_bad_configs_with_exit_code_two(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, TINY_RUN.replace("budget: 8", "budget: 7"))
    assert cli_main(["run", str(cfg)]) == 2
    assert "config error:" in capsys.readouterr().err
    assert cli_main(["run", str(tmp_path / "missing.yaml")]) == 2
    nan_spread = _write_cfg(tmp_path, TINY_RUN.replace("spread: 0.6", "spread: .nan"), "nan.yaml")
    assert cli_main(["run", str(nan_spread), "--out", str(tmp_path / "r.csv")]) == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith("config error:") and "spread" in last
    # 30 labels per client, but each 30-point shard keeps 27 unlabeled after seeding
    oversized = _write_cfg(tmp_path, TINY_RUN.replace("budget: 8", "budget: 60"), "big.yaml")
    assert cli_main(["run", str(oversized), "--out", str(tmp_path / "r.csv")]) == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith("config error:")


@pytest.mark.parametrize("old,new,error", [
    ("lr: 0.3", f"lr: {10**400}", "fl.lr: expected float, got an int too large for one"),
    ("dataset:", "preset: [1]\ndataset:", "preset: expected str, got list"),
    ("dataset:", "preset: {a: 1}\ndataset:", "preset: expected str, got dict"),
    ("spread: 0.6", "spread: 0.6\n  elongation: 5.0", "dataset.elongation: does not apply to layout 'circle'"),
])
def test_cli_names_the_key_of_a_value_the_parser_cannot_take(old, new, error, tmp_path, capsys):
    out = tmp_path / "r.csv"
    assert cli_main(["run", str(_write_cfg(tmp_path, TINY_RUN.replace(old, new))), "--out", str(out)]) == 2
    assert capsys.readouterr().err.strip() == f"config error: {error}"
    assert not out.exists()


@pytest.mark.parametrize("dataset,key", [
    ("spread: 1.0e+308", "spread"),
    ("spread: 1.0\n  layout: line\n  elongation: 1.0e+308", "elongation"),
])
def test_cli_refuses_blobs_whose_points_overflow_with_exit_code_two(dataset, key, tmp_path, capsys):
    out = tmp_path / "r.csv"
    cfg = _write_cfg(tmp_path, TINY_RUN.replace("spread: 0.6", dataset))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning would surface as an exit-1 failure
        assert cli_main(["run", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: dataset.{key}: ")
    assert "repeat 1:" not in captured.out and not out.exists()


def test_cli_reports_runtime_failures_with_exit_code_one(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, TINY_RUN)
    code = cli_main(["run", str(cfg), "--out", str(tmp_path / "no_dir" / "x.csv")])
    assert code == 1
    captured = capsys.readouterr()
    assert "error:" in captured.err and "run.out" in captured.err
    assert "repeat 1:" not in captured.out
    assert cli_main(["run", str(cfg), "--out", str(tmp_path)]) == 1  # a directory, not a file
    assert "repeat 1:" not in capsys.readouterr().out


def test_cli_prints_the_provenance_note_for_paper_presets(tmp_path, capsys):
    cfg = _write_cfg(
        tmp_path,
        "preset: paper_scale_cifar10\n"
        "dataset:\n  kind: csv_labeled\n  path: /missing/train.csv\n  test_path: /missing/test.csv\n",
    )
    code = cli_main(["run", str(cfg), "--out", str(tmp_path / "o.csv")])
    captured = capsys.readouterr()
    assert PROVENANCE_NOTE in captured.out
    assert code == 1  # the referenced files do not exist


def test_cli_does_not_print_the_note_for_ordinary_configs(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, TINY_RUN)
    assert cli_main(["run", str(cfg), "--out", str(tmp_path / "r.csv")]) == 0
    assert PROVENANCE_NOTE not in capsys.readouterr().out

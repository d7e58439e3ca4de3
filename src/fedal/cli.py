"""Command-line entry point.

    fedal run <config-file> [--out PATH] [--repeats R] [--seed S]
                            [--strategy NAME] [--scorer NAME]

Exit codes: 0 on success, 2 on configuration errors, 1 on runtime errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import parse_config_file
from .errors import ConfigError
from .harness import emit_csv, run_experiment
from .orchestrator import HARNESS_STRATEGIES
from .presets import PAPER_SCALE_PRESETS, PROVENANCE_NOTE
from .strategies import SCORER_KINDS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedal",
        description="Deterministic simulator for annotation strategies in cross-silo federated learning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run the experiment described by a config file")
    run_p.add_argument("config", help="path to a YAML config file")
    run_p.add_argument("--out", dest="run.out", metavar="OUT", help="override run.out (CSV output path)")
    run_p.add_argument("--repeats", dest="run.repeats", metavar="REPEATS", type=int,
                       help="override run.repeats")
    run_p.add_argument("--seed", dest="run.seed", metavar="SEED", type=int, help="override run.seed")
    run_p.add_argument("--strategy", dest="al.strategy", choices=HARNESS_STRATEGIES,
                       help="override al.strategy")
    run_p.add_argument("--scorer", dest="al.scorer", choices=SCORER_KINDS, help="override al.scorer")
    return parser


def _overrides_from(args: argparse.Namespace) -> dict:
    """``{"run": {"seed": 5}, ...}`` from the flags given; each flag's dest is its config key."""
    overrides: dict = {}
    for dest, value in vars(args).items():
        if "." in dest and value is not None:
            section, key = dest.split(".")
            overrides.setdefault(section, {})[key] = value
    return overrides


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = parse_config_file(args.config, _overrides_from(args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out = Path(cfg.out_path)
    if out.is_dir() or not out.parent.is_dir():
        # Fail before the run rather than after it, when the CSV is written.
        print(f"error: run.out {cfg.out_path!r} is a directory or lies in a missing one",
              file=sys.stderr)
        return 1
    if cfg.preset in PAPER_SCALE_PRESETS:
        print(PROVENANCE_NOTE)
    try:
        def progress(repeat, logs):
            last = logs[-1]
            print(
                f"repeat {repeat}: {len(logs)} round(s), "
                f"final labeled={sum(last.labeled_counts)}, accuracy={last.test_accuracy:.4f}"
            )

        table = run_experiment(cfg, progress=progress)
        emit_csv(table, cfg.out_path)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - boundary: report and signal failure
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {len(table.rows)} result rows (+{len(table.summary)} summary rows) to {cfg.out_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

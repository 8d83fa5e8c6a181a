"""Command-line experiment runner.

    adastream run <config.json> --out <dir> [--seed N]
    adastream compare <dir-lr> <dir-hr> <dir-adaptive> [--out FILE]
    adastream validate <config.json>

Exit codes: 0 success, 1 config error, 2 runtime/IO error.
"""

from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path

from .errors import ScenarioError, SimulationError
from .experiment import compare, render_comparison, run_experiment
from .scenario import load_scenario


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adastream",
        description="Deterministic adaptive-streaming control-loop experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run one scenario and write its artifacts")
    run_parser.add_argument("config", help="scenario JSON file")
    run_parser.add_argument("--out", required=True, help="output directory")
    run_parser.add_argument("--seed", type=int, default=None, help="override the config seed")

    cmp_parser = sub.add_parser("compare", help="compare three experiment output directories")
    cmp_parser.add_argument("dirs", nargs=3, help="out dirs (canonically static-LR static-HR adaptive)")
    cmp_parser.add_argument("--out", default=None, help="also write the table to this file")

    val_parser = sub.add_parser("validate", help="validate a scenario config")
    val_parser.add_argument("config", help="scenario JSON file")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    config = load_scenario(args.config)
    if args.seed is not None:
        config = config._replace(seed=args.seed)
    run_experiment(config, args.out)
    print(f"wrote {args.out}: scenario {config.scenario}, {config.runs} runs")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    result = compare(list(args.dirs))
    text = render_comparison(result)
    print(text, end="")
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8", newline="")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    config = load_scenario(args.config)
    print(f"valid: scenario {config.scenario}, {config.runs} runs, seed {config.seed}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "compare": _cmd_compare, "validate": _cmd_validate}
    try:
        return handlers[args.command](args)
    except ScenarioError as exc:
        for diag in exc.diagnostics:
            print(f"config error: {diag}", file=sys.stderr)
        return 1
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    """The process entry of `adastream` and `python -m adastream.cli`. Every import is done,
    so freezing the heap spares it the full collections of interpreter shutdown; `main`
    leaves the collector as it found it."""
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    entry()

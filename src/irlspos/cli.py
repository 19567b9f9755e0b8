"""Command-line interface.

    irlspos run <config-or-preset> --out DIR [--seed N] [--trials N]
    irlspos presets list
    irlspos presets show <name>
    irlspos validate <config-or-preset>

Exit codes: 0 success, 1 unexpected failure, 2 configuration or geometry
error, 3 output I/O error.
"""

from __future__ import annotations

import argparse
import sys

from . import presets
from .config import config_to_mapping, load_config
from .errors import ConfigError, GeometryError

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_CONFIG = 2
EXIT_IO = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irlspos",
        description="Robust TDoA positioning benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a Monte-Carlo batch and export results")
    run.add_argument("config", help="path to a YAML scenario or a preset name")
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument("--seed", type=int, default=None, help="override the root seed")
    run.add_argument(
        "--trials", type=int, default=None, help="override trials per point of interest"
    )

    pre = sub.add_parser("presets", help="inspect bundled scenarios")
    pre_sub = pre.add_subparsers(dest="presets_command", required=True)
    pre_sub.add_parser("list", help="list preset names")
    show = pre_sub.add_parser("show", help="print a preset as YAML")
    show.add_argument("name")

    val = sub.add_parser("validate", help="check a scenario file")
    val.add_argument("config", help="path to a YAML scenario or a preset name")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    # the harness imports numpy; validate and presets do without it
    from .harness import METHODS, export_results, run_batch, summarize

    cfg = load_config(args.config).with_overrides(
        root_seed=args.seed, trials_per_poi=args.trials
    )
    batch = run_batch(cfg)
    written = export_results(batch, args.out)
    summary = summarize(batch)
    print(f"config: {cfg.name or args.config}  root_seed: {cfg.root_seed}")
    for method in METHODS:
        s = summary[method]
        print(
            f"{method:>4}: {s.n_trials} trials  "
            f"mean {s.mean_error_m:.4f} m  p90 {s.p90_error_m:.4f} m"
        )
    print(
        f"degenerate trials: {batch.degenerate_trials}  "
        f"non-converged candidate solves: {batch.nonconverged_candidates}"
    )
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_presets(args: argparse.Namespace) -> int:
    if args.presets_command == "list":
        for name in presets.PRESET_NAMES:
            print(name)
        return EXIT_OK
    import yaml

    cfg = presets.get_preset(args.name)
    print(yaml.safe_dump(config_to_mapping(cfg), sort_keys=False), end="")
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    n_trials = len(cfg.pois) * cfg.trials_per_poi
    print(
        f"OK: {cfg.name or args.config}: {len(cfg.stations)} stations, "
        f"{len(cfg.pois)} PoIs, {n_trials} trials"
    )
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "presets":
            return _cmd_presets(args)
        if args.command == "validate":
            return _cmd_validate(args)
        raise AssertionError(f"unhandled command {args.command}")
    except (ConfigError, GeometryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:  # pragma: no cover - defensive
        print(f"unexpected error: {exc}", file=sys.stderr)
        return EXIT_UNEXPECTED


if __name__ == "__main__":
    raise SystemExit(main())

"""Command line entry point: ``rates <experiment> [flags]``.

Subcommands map one-to-one onto the experiment registry, plus ``all``.
Global flags: --config PATH, --seed U64, --out DIR, --strict; ``all``
takes no --config, since a config file names one experiment.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError
from .harness import EXPERIMENTS, default_config, load_config, run_experiment

_SUBCOMMANDS = [*EXPERIMENTS, "all"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rates",
        description="Convergence-rate experiments for the mean-field-control "
                    "laboratory.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _SUBCOMMANDS:
        p = sub.add_parser(name, help=f"run the {name} experiment(s)")
        p.add_argument("--config", default=None,
                       help="INI or JSON config file overriding defaults")
        # run settings default to None: a flag overrides the config file
        # (or the built-in default) only when it is given
        p.add_argument("--seed", type=int, default=None,
                       help="master seed (default 0)")
        p.add_argument("--out", dest="out_dir", default=None,
                       help="output directory (default rates-out)")
        p.add_argument("--strict", action="store_true", default=None,
                       help="exit 1 when a runner records a cell error")
    return parser


def _one(name: str, args) -> int:
    given = {key: getattr(args, key)
             for key in ("seed", "out_dir", "strict")
             if getattr(args, key) is not None}
    if args.config is None:
        return run_experiment(default_config(name, **given))
    cfg = load_config(args.config)
    if cfg.experiment != name:
        raise ConfigError(
            f"config names experiment {cfg.experiment!r}, "
            f"but the subcommand is {name!r}")
    for key, value in given.items():
        setattr(cfg, key, value)
    return run_experiment(cfg)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "all":
            if args.config is not None:
                raise ConfigError(
                    "'rates all' runs every experiment at its defaults and "
                    "takes no --config; run the experiment the file names")
            worst = 0
            for name in EXPERIMENTS:
                worst = max(worst, _one(name, args))
            return worst
        return _one(args.command, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

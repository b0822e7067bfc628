"""Command-line face of the laboratory.

    esdlab <circular|universality|hermitize|ds-solve|tails|lemmas>
           --config <file.json> [--out <dir>] [--seed <u64>] [--threads <k>]

Exit codes: 0 all assertions passed, 1 assertion failure,
2 configuration error, 3 numerical failure.
The ESDLAB_THREADS environment variable overrides --threads.
"""

from __future__ import annotations

import argparse
import os
import sys

from ..errors import ConfigurationError, NumericalFailureError
from .config import EXPERIMENTS, config_from_dict, read_config_json
from .experiments import run_experiment

_SUBCOMMANDS = {name.replace("_", "-"): name for name in EXPERIMENTS}


def build_parser():
    parser = argparse.ArgumentParser(prog="esdlab",
                                     description="spectral distribution laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _SUBCOMMANDS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", required=True, help="JSON experiment configuration")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--threads", type=int, default=None, help="trial-level thread count")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        raw = read_config_json(args.config)
        if args.seed is not None:
            raw["master_seed"] = args.seed
        if args.out is not None:
            raw["output_dir"] = args.out
        threads = os.environ.get("ESDLAB_THREADS")
        if threads is not None:
            try:
                raw["threads"] = int(threads)
            except ValueError:
                raise ConfigurationError(
                    f"ESDLAB_THREADS must be an integer, got {threads!r}") from None
        elif args.threads is not None:
            raw["threads"] = args.threads
        cfg = config_from_dict(raw)
        expected = _SUBCOMMANDS[args.command]
        if cfg.experiment != expected:
            raise ConfigurationError(
                f"config is for experiment {cfg.experiment!r}, subcommand wants {expected!r}")
        result = run_experiment(cfg)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    for gate in result.gates:
        print(f"GATE {gate}")
    return 0 if result.passed else 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line face of the laboratory.

    esdlab --config <file.json> [--out <dir>]

The config file is the whole run, its `experiment` key included; `--out`
says only where the artifacts go, so no artifact depends on it.

Exit codes: 0 all assertions passed, 1 assertion failure,
2 configuration error (``ConfigurationError``, or a flag that argparse
rejects), 3 numerical failure (``NumericalFailureError``).
"""

from __future__ import annotations

import argparse
import sys

from ..errors import ConfigurationError, NumericalFailureError
from .config import config_from_dict, read_config_json
from .experiments import run_experiment


def main(argv=None):
    parser = argparse.ArgumentParser(prog="esdlab",
                                     description="spectral distribution laboratory")
    parser.add_argument("--config", required=True, help="JSON experiment configuration")
    parser.add_argument("--out", default="out", help="output directory (default: out)")
    args = parser.parse_args(argv)
    try:
        result = run_experiment(config_from_dict(read_config_json(args.config)), args.out)
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

#!/usr/bin/env python3
"""Circular law at desk scale.

Draws iid Bernoulli and Gaussian matrices, normalizes the spectra by
1/sqrt(n), and checks the eigenvalue cloud against the uniform law on
the unit disk: radial CDF r^2, uniform angles, and the spectral radius.
Also reproduces the shifted variant where adding sqrt(n) * I recenters
the disk at (1, 0).

Outputs land in demos/out/circular/: one SVG scatter per trial plus the
trial table and run manifest.
"""

import pathlib

from esdlab.harness import config_from_dict, run_experiment

OUT = pathlib.Path(__file__).resolve().parent / "out" / "circular"


def main():
    for dist in ("bernoulli", "real_gaussian"):
        cfg = config_from_dict({
            "schema_version": 1,
            "experiment": "circular",
            "master_seed": 20260808,
            "n_list": [500],
            "trials": 3,
            "dist_x": {"kind": dist},
            "base": {"kind": "zero"},
        })
        result = run_experiment(cfg, str(OUT / dist))
        for gate in result.gates:
            print(f"  [{dist}] {gate}")

    # the shifted ensemble: eigenvalues of I + X/sqrt(n) fill a disk at (1, 0)
    cfg = config_from_dict({
        "schema_version": 1,
        "experiment": "circular",
        "master_seed": 20260808,
        "n_list": [500],
        "trials": 1,
        "dist_x": {"kind": "bernoulli"},
        "base": {"kind": "two_block_diagonal", "a": 1.0, "b": 1.0, "split": 0.5,
                 "scale_by_sqrt_n": True},
    })
    result = run_experiment(cfg, str(OUT / "shifted"))
    for gate in result.gates:
        print(f"  [shifted] {gate}")
    print(f"figures in {OUT}")


if __name__ == "__main__":
    main()

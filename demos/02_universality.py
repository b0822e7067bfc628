#!/usr/bin/env python3
"""Universality of the limiting spectrum in the entry distribution.

Four ensembles are compared entrywise against their Gaussian twins
through the bounded-Lipschitz distance between eigenvalue ESDs and a KS
distance between Hermitian-dilation spectra:

  * a two-block diagonal shift sqrt(n) diag(1,..,1, 2.5,..,2.5), the
    picture with two overlapping disks;
  * symmetrized Pareto entries with no shift;
  * a sandwich M + K X L with the diagonal K = L = diag(1,..,1, 2,..,2);
  * a Hadamard variance profile with entrywise scales ramping over
    [0.5, 2].

The distances shrink with n regardless of whether the entries are
Bernoulli signs, heavy-tailed symmetrized Pareto (tail exponent 2.5,
no finite moments past the variance-and-a-bit), or Gaussians.
"""

import pathlib

from esdlab.harness import config_from_dict, run_experiment

OUT = pathlib.Path(__file__).resolve().parent / "out" / "universality"

ENSEMBLES = {
    "two_block": {
        "dist_x": {"kind": "bernoulli"},
        "dist_y": {"kind": "real_gaussian"},
        "base": {"kind": "two_block_diagonal", "a": 1.0, "b": 2.5, "split": 0.5,
                 "scale_by_sqrt_n": True},
    },
    "pareto_vs_gaussian": {
        "dist_x": {"kind": "pareto_symmetrized", "exponent": 2.5},
        "dist_y": {"kind": "real_gaussian"},
        "base": {"kind": "zero"},
    },
    "sandwich": {
        "dist_x": {"kind": "bernoulli"},
        "dist_y": {"kind": "real_gaussian"},
        "base": {"kind": "two_block_diagonal", "a": 1.0, "b": 5.0, "split": 0.5,
                 "scale_by_sqrt_n": True},
        "sandwich_k": {"a": 1.0, "b": 2.0, "split": 0.5},
        "sandwich_l": {"a": 1.0, "b": 2.0, "split": 0.5},
    },
    "variance_profile": {
        "dist_x": {"kind": "bernoulli"},
        "dist_y": {"kind": "real_gaussian"},
        "base": {"kind": "zero"},
        "profile": {"low": 0.5, "high": 2.0},
    },
}


def main():
    for name, extra in ENSEMBLES.items():
        raw = {
            "schema_version": 1,
            "experiment": "universality",
            "master_seed": 20260808,
            "n_list": [125, 250, 500],
            "trials": 6,
        }
        raw.update(extra)
        result = run_experiment(config_from_dict(raw), str(OUT / name))
        for gate in result.gates:
            print(f"  [{name}] {gate}")


if __name__ == "__main__":
    main()

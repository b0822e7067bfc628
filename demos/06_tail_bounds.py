#!/usr/bin/env python3
"""Small singular values and distance concentration, empirically.

Three quantitative facts keep log-determinants from blowing up at the
bottom of the spectrum, and each is observable at desk scale:

  * the least singular value of M + X stays polynomially far from zero
    (no event below n^-10 across the sweep);
  * the (n-i)-th singular value of the normalized matrix grows linearly
    in i/n: the reported constant is the empirical minimum of
    sigma_(n-i) * n / (i sqrt(n));
  * the distance from a random row to a fixed half-dimensional subspace
    concentrates at sqrt(n - d) with sub-gaussian spread about its
    median.
"""

import pathlib

from esdlab.harness import config_from_dict, run_experiment

OUT = pathlib.Path(__file__).resolve().parent / "out" / "tails"


def main():
    cfg = config_from_dict({
        "schema_version": 1,
        "experiment": "tails",
        "master_seed": 20260808,
        "n_list": [100, 200],
        "trials": 40,
        "dist_x": {"kind": "bernoulli"},
        "base": {"kind": "zero"},
        "distance_n": 1000,
        "distance_d": 500,
        "distance_trials": 80,
    })
    result = run_experiment(cfg, str(OUT))
    for gate in result.gates:
        print(f"  {gate}")


if __name__ == "__main__":
    main()

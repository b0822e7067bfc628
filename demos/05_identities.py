#!/usr/bin/env python3
"""Exact linear-algebra identities behind the spectral machinery.

Everything the heavier experiments lean on reduces to a handful of
identities and inequalities that hold exactly (to rounding) for every
matrix:

  |det A| = prod |lambda_i| = prod sigma_i = prod d_i
      with d_i the distance from row i to the span of the earlier rows;
  sum sigma_j^-2 = sum dist(row_j, span of others)^-2   (full rank);
  interlacing of singular values under row deletion;
  the comparison inequalities between |lambda| and sigma products.

This script runs them as the `lemmas` experiment on random matrices and
prints its gates; each gate's observed value is the worst residual over
the cases.
"""

import pathlib

from esdlab.harness import config_from_dict, run_experiment

OUT = pathlib.Path(__file__).resolve().parent / "out" / "identities"


def main():
    cfg = config_from_dict({
        "schema_version": 1,
        "experiment": "lemmas",
        "master_seed": 20260808,
        "lemma_cases": 200,
        "max_size": 30,
    })
    result = run_experiment(cfg, str(OUT))
    for gate in result.gates:
        print(f"  {gate}")


if __name__ == "__main__":
    main()

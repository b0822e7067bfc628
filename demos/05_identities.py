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

This script sweeps them on random matrices and prints worst residuals;
the same sweep runs as the `lemmas` experiment with gates.
"""

import pathlib

import numpy as np

from esdlab import leave_one_out_distances, log_abs_det, verify_interlacing, verify_weyl
from esdlab.harness import config_from_dict, run_experiment
# a kernel: it trusts its caller to hand it a finite matrix
from esdlab.numerics import singular_values

OUT = pathlib.Path(__file__).resolve().parent / "out" / "identities"


def main():
    rng = np.random.default_rng(20260808)
    worst_det, worst_loo, worst_inter = 0.0, 0.0, 0.0
    worst_moment, worst_product = 0.0, 0.0
    for _ in range(100):
        n = rng.integers(4, 25)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        routes = [log_abs_det(a, method) for method in
                  ("via_lu", "via_eigenvalues", "via_singular", "via_distances")]
        worst_det = max(worst_det, max(routes) - min(routes))
        s = singular_values(a)
        d = leave_one_out_distances(a)
        worst_loo = max(worst_loo, abs(np.sum(s**-2.0) - np.sum(d**-2.0)) / np.sum(s**-2.0))
        worst_inter = max(worst_inter, verify_interlacing(a, 2))
        moment, product = verify_weyl(a)
        worst_moment = max(worst_moment, moment)
        worst_product = max(worst_product, product)
    print(f"determinant quadruple identity, worst |log gap|: {worst_det:.2e}")
    print(f"negative second moment identity, worst relative: {worst_loo:.2e}")
    print(f"interlacing, worst violation: {worst_inter:.2e}")
    print(f"Weyl comparison, worst second-moment / log-product violation: "
          f"{worst_moment:.2e} / {worst_product:.2e}")

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

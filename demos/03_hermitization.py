#!/usr/bin/env python3
"""Hermitization: reading a plane spectrum off Hermitian quantities.

The log-determinant field f_n(z) = (1/n) log |det(A/sqrt(n) - zI)| of an
iid matrix converges to the log-potential of the circular law,
(|z|^2 - 1)/2 inside the disk and log|z| outside.  This script

  1. evaluates f_n on a lattice, as the log-potential of the eigenvalue
     ESD (one eigendecomposition for every point), and prints its gap to
     the closed form,
  2. shows the eps-regularized variant converging as eps shrinks,
  3. reconstructs the characteristic function of a small ESD from its
     plane transform through the contour-integral kernel, and
  4. cross-checks f_n against a reference computed the long way around:
     a self-consistent-equation solve for the shifted Gram spectrum,
     inverted to a density, then integrated against log t.
"""

import pathlib

import numpy as np

from esdlab import (
    RngStream,
    build_iid_matrix,
    characteristic_function,
    circular_log_potential,
    esd_eigen,
    girko_reconstruct,
    log_det_at,
    log_potential,
    regularized_log_det,
    scalar_distribution,
)
from esdlab.harness import config_from_dict, run_experiment

OUT = pathlib.Path(__file__).resolve().parent / "out" / "hermitization"


def main():
    n = 500
    a = build_iid_matrix(n, scalar_distribution("real_gaussian"), RngStream(20260808, 0))

    # 8 x 8 points at half-step offsets, so no point sits on an integer
    offsets = (np.arange(8) + 0.5) * 0.5 - 2.0
    points = [complex(x, y) for y in offsets for x in offsets]
    esd = esd_eigen(a)
    gaps = [abs(log_potential(esd, z) - circular_log_potential(z)) for z in points]
    print(f"log-det field on {len(points)} lattice points: "
          f"max gap to the circular-law potential {max(gaps):.4f}")

    print("eps-regularization at z = 0 (target -1/2):")
    for eps in (1e-1, 1e-2, 1e-4, 1e-6):
        print(f"  eps = {eps:<8g} value = {regularized_log_det(a, [0.0], eps)[0]:+.5f}")
    print(f"  unregularized      value = {log_det_at(a, 0.0):+.5f}")

    mu = esd_eigen(build_iid_matrix(6, scalar_distribution("complex_gaussian"),
                                    RngStream(20260808, 1)))
    print("plane-transform reconstruction vs direct characteristic function:")
    for u, v in ((1.0, 1.0), (2.0, 1.0)):
        rec = girko_reconstruct(mu, u, v)
        direct = characteristic_function(mu, u, v)
        print(f"  (u, v) = ({u:g}, {v:g}): |gap| = {abs(rec - direct):.2e}")

    # the full pipeline as a reference: Gram-spectrum solve + inversion
    cfg = config_from_dict({
        "schema_version": 1,
        "experiment": "hermitize",
        "master_seed": 20260808,
        "n_list": [500],
        "trials": 3,
        "dist_x": {"kind": "real_gaussian"},
        "base": {"kind": "zero"},
        "z_grid": [0.0, [0.5, 0.5], 2.0],
        "reference": "ds",
        "eps_exponent": 1.5,
    })
    result = run_experiment(cfg, str(OUT))
    for gate in result.gates:
        print(f"  {gate}")


if __name__ == "__main__":
    main()

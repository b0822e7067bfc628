#!/usr/bin/env python3
"""Limiting Gram spectra through the self-consistent equation.

For C = (c/n)(M + X)(M + X)* the limiting spectral distribution F is
pinned down by its Stieltjes transform m(w), the solution of

    m = sum_k h_k / ( t_k/(1+c m) - (1+c m) w + (1-c) )

where H = sum h_k delta_{t_k} is the limit of the deterministic Gram
spectrum.  The solver finds m directly on a whole grid of w, as the one
eigenvalue of a small arrowhead matrix per point that lies on the right
branch, at two heights eta, and recovers the density as
(1/pi) Im m(x + i eta) at the lower one.

Shown here: the H = delta_0, c = 1 case (the quarter-circle-squared
density with the closed form to compare against), a two-atom H, and a
rectangular aspect ratio c = 1/2.  A Monte Carlo Gram spectrum at
n = 1000 is laid against the recovered CDF via the KS statistic.
"""

import pathlib

import numpy as np

from esdlab import (
    MeasureH,
    RngStream,
    build_iid_matrix,
    invert_stieltjes,
    ks_vs_cdf,
    mp_density,
    scalar_distribution,
    shifted_singular_values,
    solve_ds,
)
from esdlab.harness import config_from_dict, run_experiment

OUT = pathlib.Path(__file__).resolve().parent / "out" / "ds"


def main():
    # closed-form benchmark run, emitting ds.csv
    cfg = config_from_dict({
        "schema_version": 1,
        "experiment": "ds_solve",
        "master_seed": 20260808,
        "mp_oracle": True,
    })
    result = run_experiment(cfg, str(OUT / "mp"))
    for gate in result.gates:
        print(f"  [mp] {gate}")

    # a two-atom deterministic spectrum: the density develops two bulks
    h = MeasureH(np.array([0.0, 4.0]), np.array([0.5, 0.5]))
    grid = np.linspace(0.02, 16.5, 660)
    sol = invert_stieltjes(lambda w: solve_ds(h, 1.0, w), grid,
                           eta_schedule=(1e-2, 1e-3), agreement_tol=10.0)
    peak = grid[int(np.argmax(sol.density))]
    print(f"  [two-atom] trapezoid mass {sol.total_mass():.3f}, density peak near x = {peak:.2f}")

    # rectangular aspect: c = 1/2 keeps a point mass away from zero
    h0 = MeasureH.point(1.0)
    m = solve_ds(h0, 0.5, 2.0 + 1e-3j)
    print(f"  [c=1/2] m(2 + i 1e-3) = {m:.6f} (Im > 0: {m.imag > 0})")

    # empirical Gram spectrum vs the recovered CDF
    x = build_iid_matrix(1000, scalar_distribution("complex_gaussian"), RngStream(20260808, 2))
    wide = np.linspace(0.0, 4.2, 841)
    sol_mp = invert_stieltjes(lambda w: solve_ds(MeasureH.point(0.0), 1.0, w), wide,
                              eta_schedule=(1e-2, 1e-3), agreement_tol=10.0)
    ks = ks_vs_cdf(shifted_singular_values(x, 0.0) ** 2, sol_mp.cdf)
    print(f"  [monte-carlo] KS(empirical Gram ESD, recovered CDF) = {ks:.4f}")
    print(f"  [check] recovered density at x = 2: {sol_mp.density[400]:.5f} "
          f"vs closed form {mp_density(2.0):.5f}")


if __name__ == "__main__":
    main()

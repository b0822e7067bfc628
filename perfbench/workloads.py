"""The benchmark's workloads: one strict-JSON esdlab config each, the gate
pattern its run must show, and the unit its throughput is counted in.

Why these four (each stresses a different layer; see README.md):

- circular_t2: trial-parallel eigenvalue work on two trial threads; the
  only workload with eigenvalues and measures work.
- hermitize_t1: one matrix at a time, two complex SVDs per shift; the
  one-SVD-per-shift change shows here.
- ds_mp: pure-Python fixed-point solver; no rng, ensembles or LAPACK work,
  so an array-solver change shows here and nowhere else.  It is not in
  BENCHMARK.json: its time drifts too much between minutes on a shared
  host for a regression gate (see README.md).
- tails_t1: many small SVDs and many rng words; the only workload where
  rng and ensembles carry real weight.  Its trials run on one thread: they
  are mostly GIL-bound, two threads gained about 7% and doubled the
  spread between invocations on a shared 2-vCPU host.

The benchmark runs every workload with BLAS pinned to one thread (see
run.py), so no workload runs more threads than its trial threads.
"""

from __future__ import annotations

# Seed of the committed reference outputs (reference/<workload>.json).  It
# is also the acceptance-test seed, so every invocation checks the gate
# pattern on this seed as well as on the seed it was given.
REFERENCE_SEED = 20260808
DEFAULT_SEED = 1

_Z_GRID = [0.0, 0.5, [0.5, 0.5], 2.0]

CONFIGS = {
    "circular_t2": {
        "experiment": "circular", "n_list": [1000], "trials": 2,
        "dist_x": {"kind": "real_gaussian"}, "base": {"kind": "zero"}, "threads": 2,
    },
    "hermitize_t1": {
        "experiment": "hermitize", "n_list": [600], "trials": 2,
        "dist_x": {"kind": "real_gaussian"}, "base": {"kind": "zero"},
        "z_grid": _Z_GRID, "reference": "circular", "eps_exponent": 0.1, "threads": 1,
    },
    "ds_mp": {"experiment": "ds_solve", "mp_oracle": True},
    "tails_t1": {
        "experiment": "tails", "n_list": [100, 200, 400], "trials": 100,
        "dist_x": {"kind": "bernoulli"}, "base": {"kind": "zero"},
        "distance_n": 2000, "distance_d": 1000, "distance_trials": 200, "threads": 1,
    },
}

# Small configs of the same shape, for the benchmark's own self-check.
TINY_CONFIGS = {
    "circular_t2": {**CONFIGS["circular_t2"], "n_list": [40]},
    "hermitize_t1": {**CONFIGS["hermitize_t1"], "n_list": [30]},
    "ds_mp": {**CONFIGS["ds_mp"], "x_step": 0.1},
    "tails_t1": {**CONFIGS["tails_t1"], "n_list": [20, 40], "trials": 5,
                 "distance_n": 100, "distance_d": 50, "distance_trials": 10},
}

WORK_UNITS = {
    "circular_t2": "trials",
    "hermitize_t1": "trials",
    "ds_mp": "solved points w",
    "tails_t1": "trials",
}


def config(workload, seed, tiny=False):
    """The raw config dict of ``workload`` with ``master_seed`` = ``seed``."""
    table = TINY_CONFIGS if tiny else CONFIGS
    return {"schema_version": 1, **table[workload], "master_seed": int(seed)}


def work_units(raw):
    """Units of work one run of ``raw`` performs: trials (distance trials
    included for tails), or for ds_solve the grid points times eta levels
    plus the 50 oracle points."""
    if raw["experiment"] == "ds_solve":
        x_min, x_max = raw.get("x_min", 0.1), raw.get("x_max", 3.9)
        count = int(round((x_max - x_min) / raw.get("x_step", 1.0 / 400.0))) + 1
        etas = len(raw.get("eta_schedule", (1e-1, 1e-2, 1e-3, 1e-4)))
        return count * etas + (50 if raw.get("mp_oracle") else 0)
    return raw["trials"] * len(raw["n_list"]) + raw.get("distance_trials", 0)


def expected_gates(workload):
    """Gate name -> expected outcome.  Red stays red: the hermitize
    regularization gates (eps = n^-0.1 against a 0.02 tolerance) must fail."""
    if workload == "circular_t2":
        return {f"{g}_n1000": True for g in ("radial_ks", "angular_ks", "in_disk")}
    if workload == "hermitize_t1":
        out = {}
        for i in range(len(_Z_GRID)):
            out[f"potential_gap_n600_z{i}"] = True
            out[f"regularization_gap_n600_z{i}"] = False
        return out
    if workload == "ds_mp":
        return {"density_nonnegative": True, "mp_oracle_gap": True,
                "mp_density_sup_error": True}
    if workload == "tails_t1":
        out = {}
        for n in (100, 200, 400):
            out[f"sigma_min_floor_n{n}"] = True
            for label in ("npow099", "n_over_10", "n_over_4"):
                out[f"lowersing_ratio_n{n}_{label}"] = True
        for g in ("distance_lower_bound", "distance_second_moment", "talagrand_envelope"):
            out[g] = True
        return out
    raise KeyError(workload)

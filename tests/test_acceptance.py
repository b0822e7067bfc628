"""Acceptance suite: every criterion at its pinned tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL
line per criterion.  Criterion 4's regularization clause is marked
strict-xfail and kept deliberately red rather than loosened: its
schedule eps = n^-0.1 evaluates to ~0.5 at n = 1000, which shifts the
regularized log-determinant by ~0.6, far beyond the 0.02 tolerance the
clause pins; the identical check passes with any genuinely small
schedule, demonstrated in test_hermitization.
"""

import time

import numpy as np
import pytest

from esdlab import (
    MeasureH,
    RngStream,
    build_iid_matrix,
    characteristic_function,
    esd_eigen,
    girko_reconstruct,
    invert_stieltjes,
    ks_vs_cdf,
    scalar_distribution,
    shifted_singular_values,
    solve_ds,
)
from esdlab.harness import config_from_dict, run_experiment


def _report(criterion, ok, detail=""):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}")


def _run(raw, tmp_path, sub="out"):
    return run_experiment(config_from_dict(raw), str(tmp_path / sub))


def _assert_gates(result, criterion, elapsed, budget):
    failed = [g for g in result.gates if not g.passed]
    detail = f"({len(result.gates) - len(failed)}/{len(result.gates)} gates, {elapsed:.0f}s)"
    _report(criterion, not failed and elapsed < budget, detail)
    for g in result.gates:
        print(f"  {g}")
    assert not failed, failed
    assert elapsed < budget


def test_criterion_1_identity_suite(tmp_path):
    started = time.time()
    raw = {"schema_version": 1, "experiment": "lemmas", "master_seed": 20260808,
           "lemma_cases": 500, "max_size": 30}
    result = _run(raw, tmp_path)
    _assert_gates(result, "1 identity-suite", time.time() - started, 30.0)


@pytest.mark.parametrize("dist", ["bernoulli", "real_gaussian"])
def test_criterion_2_circular_law(tmp_path, dist):
    started = time.time()
    raw = {"schema_version": 1, "experiment": "circular", "master_seed": 20260808,
           "n_list": [1000], "trials": 10, "dist_x": {"kind": dist},
           "base": {"kind": "zero"}, "threads": 2}
    result = _run(raw, tmp_path, dist)
    _assert_gates(result, f"2 circular-law[{dist}]", time.time() - started, 300.0)


_UNIVERSALITY_PAIRS = {
    "two_block": {"dist_x": {"kind": "bernoulli"}, "dist_y": {"kind": "real_gaussian"},
                  "base": {"kind": "two_block_diagonal", "a": 1.0, "b": 2.5,
                           "split": 0.5, "scale_by_sqrt_n": True}},
    "pareto": {"dist_x": {"kind": "pareto_symmetrized", "exponent": 2.5},
               "dist_y": {"kind": "real_gaussian"}, "base": {"kind": "zero"}},
    "hadamard": {"dist_x": {"kind": "bernoulli"}, "dist_y": {"kind": "real_gaussian"},
                 "base": {"kind": "zero"}, "profile": {"low": 0.5, "high": 2.0}},
}


@pytest.mark.parametrize("name", sorted(_UNIVERSALITY_PAIRS))
def test_criterion_3_universality(tmp_path, name):
    started = time.time()
    raw = {"schema_version": 1, "experiment": "universality", "master_seed": 20260808,
           "n_list": [250, 500, 1000], "trials": 10, "threads": 2}
    raw.update(_UNIVERSALITY_PAIRS[name])
    result = _run(raw, tmp_path, name)
    _assert_gates(result, f"3 universality[{name}]", time.time() - started, 900.0)


@pytest.fixture(scope="module")
def hermitize_run(tmp_path_factory):
    raw = {"schema_version": 1, "experiment": "hermitize", "master_seed": 20260808,
           "n_list": [1000], "trials": 10, "dist_x": {"kind": "real_gaussian"},
           "base": {"kind": "zero"}, "z_grid": [0.0, 0.5, [0.5, 0.5], 2.0],
           "reference": "circular", "eps_exponent": 0.1, "threads": 2}
    started = time.time()
    result = run_experiment(config_from_dict(raw), str(tmp_path_factory.mktemp("herm")))
    return result, time.time() - started


def test_criterion_4_hermitization_potentials(hermitize_run):
    result, elapsed = hermitize_run
    gates = [g for g in result.gates if g.name.startswith("potential_gap")]
    ok = all(g.passed for g in gates) and elapsed < 300.0
    _report("4 hermitization-potentials", ok, f"({elapsed:.0f}s)")
    for g in gates:
        print(f"  {g}")
    assert all(g.passed for g in gates)
    assert elapsed < 300.0


@pytest.mark.xfail(strict=True,
                   reason="eps = n^-0.1 is ~0.5 at n = 1000, forcing a regularization "
                          "gap ~0.6 >> the pinned 0.02; schedule and tolerance are "
                          "mutually inconsistent, kept red rather than loosened")
def test_criterion_4_hermitization_regularization_gap(hermitize_run):
    result, _ = hermitize_run
    gates = [g for g in result.gates if g.name.startswith("regularization_gap")]
    ok = all(g.passed for g in gates)
    _report("4 hermitization-regularization(eps=n^-0.1)", ok,
            "(unattainable as stated; honest red)")
    assert ok


def test_criterion_5_dozier_silverstein(tmp_path):
    started = time.time()
    raw = {"schema_version": 1, "experiment": "ds_solve", "master_seed": 20260808,
           "mp_oracle": True}
    result = _run(raw, tmp_path)
    failed = [g for g in result.gates if not g.passed]
    assert not failed, failed

    # third clause: gram ESD of an n = 2000 iid matrix against the CDF
    # recovered from the solver on a hard-edge-covering grid
    h = MeasureH.point(0.0)
    grid = np.linspace(0.0, 4.2, 841)
    sol = invert_stieltjes(lambda w: solve_ds(h, 1.0, w), grid,
                           eta_schedule=(1e-2, 1e-3), agreement_tol=10.0)
    x = build_iid_matrix(2000, scalar_distribution("real_gaussian"), RngStream(20260808, 1))
    ks = ks_vs_cdf(shifted_singular_values(x, 0.0) ** 2, sol.cdf)
    elapsed = time.time() - started
    ok = ks < 0.05 and elapsed < 120.0
    _report("5 dozier-silverstein", ok,
            f"(oracle+density gates pass, gram KS {ks:.4f} < 0.05, {elapsed:.0f}s)")
    assert ks < 0.05
    assert elapsed < 120.0


def test_criterion_6_girko_identity():
    started = time.time()
    uv_pairs = ((1.0, 1.0), (1.0, 2.0), (2.0, 1.0))
    cases = {
        "delta_0": np.array([0j]),
        "delta_1+i": np.array([1.0 + 1.0j]),
    }
    rng = np.random.default_rng(4)
    m4 = rng.standard_normal((4, 4))
    cases["esd_4x4"] = esd_eigen(2.0 * m4)
    worst = 0.0
    for name, mu in cases.items():
        for u, v in uv_pairs:
            gap = abs(girko_reconstruct(mu, u, v) - characteristic_function(mu, u, v))
            worst = max(worst, gap)
    elapsed = time.time() - started
    ok = worst < 1e-3 and elapsed < 60.0
    _report("6 girko-identity", ok, f"(worst gap {worst:.2e} < 1e-3, {elapsed:.0f}s)")
    assert worst < 1e-3
    assert elapsed < 60.0


def test_criterion_7_tail_suite(tmp_path):
    started = time.time()
    raw = {"schema_version": 1, "experiment": "tails", "master_seed": 20260808,
           "n_list": [100, 200, 400], "trials": 100, "dist_x": {"kind": "bernoulli"},
           "base": {"kind": "zero"}, "distance_n": 2000, "distance_d": 1000,
           "distance_trials": 200, "threads": 2}
    result = _run(raw, tmp_path)
    _assert_gates(result, "7 tail-suite", time.time() - started, 600.0)


def test_criterion_8_determinism(tmp_path):
    started = time.time()
    configs = [
        {"schema_version": 1, "experiment": "circular", "master_seed": 20260808,
         "n_list": [50], "trials": 2, "dist_x": {"kind": "bernoulli"},
         "base": {"kind": "zero"}},
        {"schema_version": 1, "experiment": "lemmas", "master_seed": 20260808,
         "lemma_cases": 30, "max_size": 10},
        {"schema_version": 1, "experiment": "ds_solve", "master_seed": 20260808,
         "x_min": 1.0, "x_max": 3.0, "x_step": 0.1},
    ]
    identical = True
    for i, raw in enumerate(configs):
        cfg = config_from_dict(raw)
        d1 = tmp_path / f"run{i}_a"
        d2 = tmp_path / f"run{i}_b"
        run_experiment(cfg, str(d1))
        run_experiment(cfg, str(d2))
        for artifact in sorted(p.name for p in d1.iterdir()):
            same = (d1 / artifact).read_bytes() == (d2 / artifact).read_bytes()
            identical = identical and same
            assert same, f"{raw['experiment']}/{artifact} differs between reruns"
    elapsed = time.time() - started
    _report("8 determinism", identical, f"(3 experiments, all artifacts byte-identical, "
                                        f"{elapsed:.0f}s)")

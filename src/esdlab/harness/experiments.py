"""Experiment orchestration: the six runnable suites.

Each trial derives its own RngStream from (master_seed, stream_index)
with stream_index = (n << 24) | (trial << 4) | role, so results are
reproducible and invariant under the execution schedule: trials may fan
out over threads, but ``_fold_trials`` records them and returns their
metric columns in trial order.

Two stream keys are known to collide, both in the tails suite: the
fixed subspace stream ``_SUBSPACE_STREAM`` = 1 << 32 is the matrix
stream of trial 0 at n = 256, and distance row t reuses the matrix
stream of trial t whenever ``distance_n`` is also in ``n_list``.  Apart
from these, and from the X = Y sanity mode of universality, which redraws
A's stream on purpose, distinct sizes, trials (below 2**20) and roles
draw from distinct streams.

Wall-clock timings are printed to the console and deliberately kept out
of the CSV artifacts, which must be byte-identical across reruns.
"""

from __future__ import annotations

import math
import operator
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ..ensembles import assemble, build_base_matrix, build_iid_matrix, require_invertible
from ..errors import ConfigurationError
from ..hermitization import log_det_at, regularized_log_det
from ..limits import (
    MeasureH,
    circular_log_potential,
    circular_radial_cdf,
    invert_stieltjes,
    mp_density,
    mp_reference,
    solve_ds,
)
from ..measures import (
    bl_distance,
    dilation_esd,
    esd_eigen,
    ks_two_sample,
    radial_angular_ks,
    second_moment,
)
from ..numerics import (
    eigenvalues,
    hs_norm,
    leave_one_out_distances,
    log_abs_det,
    singular_values,
    verify_interlacing,
    verify_weyl,
)
from ..rng import RngStream, stream_origin
from .config import config_to_dict, ds_grid_count
from .emit import (
    scatter_svg,
    write_ds_csv,
    write_field_csv,
    write_manifest,
    write_svg,
    write_trials_csv,
)

ROLE_X, ROLE_Y, ROLE_BASE, ROLE_AUX = 0, 1, 2, 3
_SUBSPACE_STREAM = 1 << 32


def _stream_index(n, trial, role):
    return (int(n) << 24) | (int(trial) << 4) | int(role)


def _stream(cfg, n, trial, role):
    return RngStream(cfg.master_seed, _stream_index(n, trial, role))


def _trial_seed(cfg, n, trial):
    return stream_origin(cfg.master_seed, _stream_index(n, trial, ROLE_X))


@dataclass(frozen=True)
class TrialRecord:
    experiment: str
    n: int
    trial: int
    seed: int
    metrics: dict


_GATE_OPS = {"<": operator.lt, "<=": operator.le, ">=": operator.ge, ">": operator.gt,
             "in": lambda x, bounds: bounds[0] <= x <= bounds[1]}


@dataclass(frozen=True)
class GateResult:
    """One gate: the comparison ``observed op threshold``, with op one of
    <, <=, >=, > or in (threshold a closed [low, high] pair).  A NaN
    observed value fails every op."""
    name: str
    observed: float
    op: str
    threshold: float | tuple

    @property
    def passed(self):
        return bool(_GATE_OPS[self.op](self.observed, self.threshold))

    def __str__(self):
        limit = (f"[{self.threshold[0]:g}, {self.threshold[1]:g}]" if self.op == "in"
                 else f"{self.threshold:g}")
        return (f"{self.name}: {'PASS' if self.passed else 'FAIL'} "
                f"({self.observed:.6g} {self.op} {limit})")


@dataclass
class ExperimentResult:
    experiment: str
    records: list = field(default_factory=list)
    gates: list = field(default_factory=list)
    artifacts: list = field(default_factory=list)

    @property
    def passed(self):
        return all(g.passed for g in self.gates)


def _fold_trials(cfg, result, n, trial_fn):
    """Run ``trial_fn(t) -> metrics`` for every trial at size n, record each
    trial in ``result`` in trial order, and return ``{metric: array over
    trials}``.  Gates read these columns with plain numpy, so IEEE
    arithmetic is the only -inf rule: a -inf metric enters every mean, max
    and comparison as it is recorded."""
    if cfg.threads <= 1:
        outcomes = [trial_fn(t) for t in range(cfg.trials)]
    else:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            outcomes = list(pool.map(trial_fn, range(cfg.trials)))
    for t, metrics in enumerate(outcomes):
        result.records.append(TrialRecord(result.experiment, n, t, _trial_seed(cfg, n, t),
                                          metrics))
    return {name: np.array([m[name] for m in outcomes]) for name in outcomes[0]}


def _trial_matrix(cfg, n, t, dist=None, role=ROLE_X, mode="shift", **factors):
    """The assembled matrix of trial t at size n: M + X in shift mode,
    M + K X L in sandwich mode, M + C * X in hadamard_profile mode, with
    ``factors`` carrying k and l, or c.  X is drawn from ``dist`` (dist_x
    by default) on the stream of ``role``.  The zero base is never built;
    in shift mode with the zero base the result is X itself."""
    x = build_iid_matrix(n, dist or cfg.dist_x, _stream(cfg, n, t, role))
    if cfg.base.kind == "zero":
        return x if mode == "shift" else assemble(None, x, mode, **factors)
    m = build_base_matrix(cfg.base, n, _stream(cfg, n, t, ROLE_BASE))
    return assemble(m, x, mode, **factors)


def _profile_matrix(profile, n):
    if profile["kind"] == "constant":
        return np.full((n, n), profile["value"])
    lo, hi = profile["low"], profile["high"]
    ramp = (np.arange(n)[:, None] + np.arange(n)[None, :]) / max(2 * n - 2, 1)
    return lo + (hi - lo) * ramp


def _auto_center(cfg):
    """Fig.1 convention: a scaled identity shift recenters the disk at a."""
    if cfg.center is not None:
        return complex(cfg.center)
    b = cfg.base
    if b.kind == "two_block_diagonal" and b.scale_by_sqrt_n and b.a == b.b:
        return complex(b.a)
    return 0j


# ------------------------------------------------------------------ circular

def run_circular_law(cfg, out_dir):
    thr = cfg.resolved_thresholds()
    center = _auto_center(cfg)
    result = ExperimentResult("circular")
    for n in cfg.n_list:
        paths = [os.path.join(out_dir, f"circular_n{n}_trial{t}.svg") for t in range(cfg.trials)]

        def trial_fn(t, n=n, paths=paths):
            mu = esd_eigen(_trial_matrix(cfg, n, t))
            write_svg(paths[t], scatter_svg(mu, center))
            rks, aks = radial_angular_ks(mu, circular_radial_cdf, center)
            return {
                "radial_ks": rks,
                "angular_ks": aks,
                "in_disk_fraction": float(np.mean(np.abs(mu.atoms - center)
                                                  <= thr["in_disk_radius"])),
                "second_moment": second_moment(mu),
            }
        col = _fold_trials(cfg, result, n, trial_fn)
        result.artifacts += paths
        frac = thr["ks_pass_fraction"]
        result.gates += [
            GateResult(f"radial_ks_n{n}", float(np.mean(col["radial_ks"] < thr["radial_ks"])),
                       ">=", frac),
            GateResult(f"angular_ks_n{n}", float(np.mean(col["angular_ks"] < thr["angular_ks"])),
                       ">=", frac),
            GateResult(f"in_disk_n{n}", float(np.min(col["in_disk_fraction"])), ">=",
                       thr["in_disk_fraction"]),
        ]
    return result


# --------------------------------------------------------------- universality

def run_universality(cfg, out_dir):
    thr = cfg.resolved_thresholds()
    result = ExperimentResult("universality")
    medians = []
    # without a second distribution, B reuses both the distribution and the
    # stream of A: the degenerate X = Y sanity mode with distance exactly zero
    if cfg.dist_y is None:
        dist_y, role_y = cfg.dist_x, ROLE_X
    else:
        dist_y, role_y = cfg.dist_y, ROLE_Y
    for n in cfg.n_list:
        factors = {}
        if cfg.mode == "sandwich":
            factors = {"k": require_invertible("K", build_base_matrix(cfg.sandwich_k, n)),
                       "l": require_invertible("L", build_base_matrix(cfg.sandwich_l, n))}
        elif cfg.mode == "hadamard_profile":
            factors = {"c": _profile_matrix(cfg.profile, n)}

        def trial_fn(t, n=n, factors=factors):
            a = _trial_matrix(cfg, n, t, cfg.dist_x, ROLE_X, cfg.mode, **factors)
            b = _trial_matrix(cfg, n, t, dist_y, role_y, cfg.mode, **factors)
            return {"bl_distance": bl_distance(esd_eigen(a), esd_eigen(b)),
                    "dilation_ks": ks_two_sample(dilation_esd(a).atoms, dilation_esd(b).atoms)}
        col = _fold_trials(cfg, result, n, trial_fn)
        medians.append(float(np.median(col["bl_distance"])))
    if len(cfg.n_list) > 1:
        # the medians decrease strictly iff their largest step is negative
        result.gates.append(GateResult(
            "median_bl_decreasing", float(np.max(np.diff(medians))), "<", 0.0))
    result.gates.append(GateResult("final_median_bl", medians[-1], "<", thr["final_median_bl"]))
    return result


# --------------------------------------------------------------- hermitize

def _ds_reference_potential(z):
    """U(z) for the circular limit recovered through the whole Hermitian
    pipeline: solve the self-consistent equation with H = delta_{|z|^2}
    and return (1/2) int log t dnu_z(t) for the recovered gram density.

    The gram spectrum lives on [(|z|-2)^2, (|z|+2)^2]; for |z| <= 2 its
    left edge is hard with a 1/sqrt(t) divergence, so the log moment is
    taken on a geometrically graded grid down to 1e-12, at eta = 1e-8,
    where the Poisson-smoothing bias is below 1e-3.
    """
    h = MeasureH.point(abs(complex(z)) ** 2)
    t_max = (abs(complex(z)) + 2.0) ** 2 + 1.0
    grid = np.unique(np.concatenate([np.geomspace(1e-12, 1.0, 4000),
                                     np.linspace(1.0, t_max, 8000)]))
    m = solve_ds(h, 1.0, grid + 1e-8j)
    return 0.5 * float(np.trapezoid(np.log(grid) * m.imag, grid)) / math.pi


def run_hermitization_check(cfg, out_dir):
    thr = cfg.resolved_thresholds()
    result = ExperimentResult("hermitize")
    references = {z: (circular_log_potential(z) if cfg.reference == "circular"
                      else _ds_reference_potential(z)) for z in cfg.z_grid}
    for n in cfg.n_list:
        eps = float(n) ** (-cfg.eps_exponent)

        def trial_fn(t, n=n, eps=eps):
            a = _trial_matrix(cfg, n, t)
            metrics = {}
            for i, z in enumerate(cfg.z_grid):
                f_n = log_det_at(a, z)
                f_reg = regularized_log_det(a, z, eps)
                metrics[f"f_n_z{i}"] = f_n
                metrics[f"f_reg_z{i}"] = f_reg
                metrics[f"potential_gap_z{i}"] = abs(f_n - references[z])
                metrics[f"regularization_gap_z{i}"] = abs(f_reg - f_n)
            return metrics

        col = _fold_trials(cfg, result, n, trial_fn)
        field_rows = []
        for i, z in enumerate(cfg.z_grid):
            pot = col[f"potential_gap_z{i}"]
            field_rows.append((z.real, z.imag, float(np.mean(col[f"f_n_z{i}"])),
                               float(np.mean(col[f"f_reg_z{i}"])), references[z],
                               float(np.mean(pot))))
            result.gates += [
                GateResult(f"potential_gap_n{n}_z{i}", float(np.mean(pot < thr["potential_gap"])),
                           ">=", thr["potential_pass_fraction"]),
                GateResult(f"regularization_gap_n{n}_z{i}",
                           float(np.max(col[f"regularization_gap_z{i}"])), "<",
                           thr["regularization_gap"]),
            ]
        path = os.path.join(out_dir, f"field_n{n}.csv" if len(cfg.n_list) > 1 else "field.csv")
        write_field_csv(path, field_rows)
        result.artifacts.append(path)
    return result


# ----------------------------------------------------------------- ds_solve

def run_ds_solve(cfg, out_dir):
    thr = cfg.resolved_thresholds()
    result = ExperimentResult("ds_solve")
    h = MeasureH(np.array(cfg.h_atoms), np.array(cfg.h_weights))
    count = ds_grid_count(cfg.x_min, cfg.x_max, cfg.x_step)
    grid = np.linspace(cfg.x_min, cfg.x_max, count)
    solution = invert_stieltjes(lambda w: solve_ds(h, cfg.c, w), grid,
                                cfg.eta_schedule, cfg.agreement_tol)
    path = os.path.join(out_dir, "ds.csv")
    write_ds_csv(path, solution)
    result.artifacts.append(path)
    metrics = {
        "grid_points": count,
        "eta_final": solution.eta,
        "total_mass": solution.total_mass(),
        "min_density": float(np.min(solution.density)),
    }
    result.gates.append(GateResult("density_nonnegative", metrics["min_density"], ">=", 0.0))
    if cfg.mass_check:
        result.gates.append(GateResult("total_mass", metrics["total_mass"], "in",
                                       (thr["mass_low"], thr["mass_high"])))
    if cfg.mp_oracle:
        oracle_w = np.linspace(0.1, 3.9, 50) + 1e-3j
        gaps = np.abs(solve_ds(h, 1.0, oracle_w) - [mp_reference(w) for w in oracle_w])
        metrics["oracle_gap_max"] = float(np.max(gaps))
        window = (grid >= 0.1) & (grid <= 3.9)
        sup_err = float(np.max(np.abs(solution.density[window] - mp_density(grid[window]))))
        metrics["density_sup_error"] = sup_err
        result.gates += [
            GateResult("mp_oracle_gap", metrics["oracle_gap_max"], "<", thr["oracle_gap"]),
            GateResult("mp_density_sup_error", sup_err, "<", thr["density_sup_error"]),
        ]
    result.records.append(TrialRecord("ds_solve", count, 0,
                                      stream_origin(cfg.master_seed, 0), metrics))
    return result


# -------------------------------------------------------------------- tails

def run_tail_suite(cfg, out_dir):
    thr = cfg.resolved_thresholds()
    result = ExperimentResult("tails")
    for n in cfg.n_list:
        i_values = {"npow099": max(1, min(n - 1, int(n ** 0.99))),
                    "n_over_10": max(1, n // 10),
                    "n_over_4": max(1, n // 4)}

        def trial_fn(t, n=n, i_values=i_values):
            s = singular_values(_trial_matrix(cfg, n, t))
            metrics = {"sigma_min": float(s[-1])}
            for label, i in i_values.items():
                metrics[f"ratio_{label}"] = float(s[n - i - 1] / math.sqrt(n) * n / i)
            return metrics

        col = _fold_trials(cfg, result, n, trial_fn)
        floor = float(n) ** (-thr["sigma_min_exponent"])
        result.gates.append(GateResult(f"sigma_min_floor_n{n}", float(np.min(col["sigma_min"])),
                                       ">=", floor))
        for label in i_values:
            result.gates.append(GateResult(f"lowersing_ratio_n{n}_{label}",
                                           float(np.min(col[f"ratio_{label}"])), ">", 0.0))

    # distance-to-subspace experiment (fixed random subspace, fresh rows).
    # sample_array is looked up at call time, not imported at module level,
    # so a rebinding of ensembles.sample_array (the benchmark's span tracer)
    # also sees the distance draws
    from ..ensembles import sample_array
    nd, d = cfg.distance_n, cfg.distance_d
    # [B | V]: the basis B (real parts drawn first, then imaginary parts,
    # row-major), then one fresh row per trial as a column, in trial order
    w = np.empty((nd, d + cfg.distance_trials), dtype=np.complex128)
    aux = RngStream(cfg.master_seed, _SUBSPACE_STREAM)
    for part in (w.real, w.imag):
        basis_part = aux.uniforms(nd * d)
        basis_part -= 0.5
        part[:, :d] = basis_part.reshape(nd, d)
    for t in range(cfg.distance_trials):
        w[:, d + t] = sample_array(cfg.dist_x, _stream(cfg, nd, t, ROLE_X), nd)
    # [B | V] = Q R with Q = [Q1 | Q2], Q1 spanning B, so the projection of
    # row t off span(B) is Q2 R[d:, d + t]: its norm needs R alone
    r = np.linalg.qr(w, mode="r")
    dist = np.linalg.norm(r[d:, d:], axis=0)
    result.records.extend(
        TrialRecord("tails", nd, t, _trial_seed(cfg, nd, t),
                    {"subspace_distance": float(dist[t])})
        for t in range(cfg.distance_trials))
    med = float(np.median(dist))
    scale = float(nd) ** 0.1
    # largest excess of the tail fraction over its envelope 4 exp(-r^2/8)
    excess = max(float(np.mean(np.abs(dist - med) >= r * scale))
                 - min(1.0, 4.0 * math.exp(-r * r / 8.0)) for r in (1.0, 2.0, 3.0, 4.0, 6.0))
    result.gates += [
        GateResult("distance_lower_bound", float(dist.min()), ">=",
                   thr["distance_constant"] * math.sqrt(nd - d)),
        GateResult("distance_second_moment", float(np.mean(dist**2) / (nd - d)), "in",
                   (thr["mean_dist2_low"], thr["mean_dist2_high"])),
        GateResult("talagrand_envelope", excess, "<=", 0.0),
    ]
    return result


# ------------------------------------------------------------------- lemmas

def _random_case_matrix(rng, max_size, case):
    """Deterministic rotation over square/rectangular, real/complex cases."""
    u = rng.uniforms(3)
    n = 4 + int(u[0] * (max_size - 3))
    kind = case % 4
    if kind == 2:  # rectangular, n' < n
        rows = max(2, int(n * (0.3 + 0.6 * u[1])))
        g = rng.uniforms(2 * rows * n)
        return (g[:rows * n] - 0.5).reshape(rows, n) + 1j * (g[rows * n:] - 0.5).reshape(rows, n)
    g = rng.uniforms(2 * n * n)
    real = (g[:n * n] - 0.5).reshape(n, n)
    if kind == 1:
        return real
    return real + 1j * (g[n * n:] - 0.5).reshape(n, n)


def run_lemma_suite(cfg, out_dir):
    thr = cfg.resolved_thresholds()
    result = ExperimentResult("lemmas")
    for case in range(cfg.lemma_cases):
        rng = RngStream(cfg.master_seed, _stream_index(1, case, ROLE_AUX))
        a = _random_case_matrix(rng, cfg.max_size, case)
        metrics = {}
        rows, cols = a.shape
        if rows == cols:
            routes = [log_abs_det(a, method) for method in
                      ("via_lu", "via_eigenvalues", "via_singular", "via_distances")]
            metrics["det_identity_resid"] = max(abs(x - y) for x in routes for y in routes)
            for k in (1, 2, 3):
                metrics[f"interlacing_k{k}"] = verify_interlacing(a, k) / max(hs_norm(a), 1.0)
            metrics["weyl_moment"], metrics["weyl_product"] = verify_weyl(a)
        lhs = float(np.sum(singular_values(a)**-2.0))
        rhs = float(np.sum(leave_one_out_distances(a)**-2.0))
        metrics["neg_second_moment_resid"] = abs(lhs - rhs) / lhs
        result.records.append(TrialRecord("lemmas", rows, case,
                                          stream_origin(cfg.master_seed,
                                                        _stream_index(1, case, ROLE_AUX)),
                                          metrics))
    # hand-constructed edge cases: Weyl equality on a normal matrix,
    # maximal strictness on a nilpotent one
    rng = RngStream(cfg.master_seed, _stream_index(2, 0, ROLE_AUX))
    g = rng.uniforms(2 * 8 * 8)
    q, _ = np.linalg.qr((g[:64] - 0.5).reshape(8, 8) + 1j * (g[64:] - 0.5).reshape(8, 8))
    phases = np.exp(2j * math.pi * rng.uniforms(8)) * (0.5 + 1.5 * rng.uniforms(8))
    normal = q @ np.diag(phases) @ q.conj().T
    normal_gap = abs(float(np.sum(np.abs(eigenvalues(normal)) ** 2)) - hs_norm(normal) ** 2) \
        / hs_norm(normal) ** 2
    nilpotent = np.diag(np.ones(7), 1)
    nil_moment, nil_product = verify_weyl(nilpotent)
    result.records.append(TrialRecord("lemmas", 8, cfg.lemma_cases, 0,
                                      {"normal_weyl_equality_gap": normal_gap}))

    def worst(*names):
        return max([0.0] + [r.metrics[k] for r in result.records for k in names
                            if k in r.metrics])

    result.gates += [
        GateResult("weyl_normal_equality", normal_gap, "<=", 1e-10),
        GateResult("weyl_nilpotent_mass",
                   float(np.sum(np.abs(eigenvalues(nilpotent)) ** 2)), "<=", 1e-12),
        GateResult("weyl_nilpotent_moment", nil_moment, "<=", thr["weyl_slack_scale"]),
        GateResult("weyl_nilpotent_product", nil_product, "<=",
                   thr["weyl_slack_scale"] * nilpotent.shape[0]),
        GateResult("det_triple_identity", worst("det_identity_resid"), "<",
                   thr["det_identity"]),
        GateResult("negative_second_moment", worst("neg_second_moment_resid"), "<",
                   thr["neg_second_moment"]),
        GateResult("cauchy_interlacing", worst("interlacing_k1", "interlacing_k2",
                                               "interlacing_k3"), "<=",
                   thr["interlacing_slack_scale"]),
        GateResult("weyl_moment", worst("weyl_moment"), "<=", thr["weyl_slack_scale"]),
        GateResult("weyl_product", worst("weyl_product"), "<=",
                   thr["weyl_slack_scale"] * cfg.max_size),
    ]
    return result


# ------------------------------------------------------------------- driver

RUNNERS = {
    "circular": run_circular_law,
    "universality": run_universality,
    "hermitize": run_hermitization_check,
    "ds_solve": run_ds_solve,
    "tails": run_tail_suite,
    "lemmas": run_lemma_suite,
}


def run_experiment(cfg, out_dir=None):
    """Run one experiment, write all artifacts and the manifest."""
    out_dir = out_dir or cfg.output_dir
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"cannot create output directory {out_dir}: {exc}") from exc
    started = time.time()
    try:
        result = RUNNERS[cfg.experiment](cfg, out_dir)
    except MemoryError as exc:
        raise ConfigurationError(f"the configured sizes cannot be allocated: {exc}") from exc
    trials_path = os.path.join(out_dir, "trials.csv")
    write_trials_csv(trials_path, result.records)
    result.artifacts.append(trials_path)
    manifest = write_manifest(out_dir, config_to_dict(cfg), cfg.resolved_thresholds(),
                              result.gates, result.artifacts)
    result.artifacts.append(manifest)
    print(f"[esdlab] {cfg.experiment}: {len(result.records)} records, "
          f"{sum(g.passed for g in result.gates)}/{len(result.gates)} gates passed "
          f"in {time.time() - started:.1f}s")
    return result

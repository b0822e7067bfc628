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
from these, distinct sizes, trials (below 2**20) and roles draw from
distinct streams.

The tails suite's distance-to-subspace step is described where
``run_tail_suite`` computes it: why it takes no QR, how it draws the
basis in row blocks through two cursors on the subspace stream, and how
it solves the Gram system in two halves through a Schur complement
without ever forming the Gram matrix.

Wall-clock timings are printed to the console and deliberately kept out
of the CSV artifacts, which must be byte-identical across reruns.
"""

from __future__ import annotations

import copy
import ctypes
import functools
import math
import operator
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ..ensembles import assemble, build_base_matrix, build_iid_matrix, factor_diagonal, two_blocks
from ..errors import ConfigurationError, NumericalFailureError
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
from .config import MP_WINDOW, config_to_dict, ds_grid
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


# The gate thresholds of each experiment: constants of the claims it
# checks, which no config sets.  The manifest records its experiment's
# table as thresholds_resolved.
THRESHOLDS = {
    "circular": {"radial_ks": 0.05, "angular_ks": 0.05, "ks_pass_fraction": 0.9,
                 "in_disk_radius": 1.05, "in_disk_fraction": 0.99},
    "universality": {"final_median_bl": 0.1},
    "hermitize": {"potential_gap": 0.05, "potential_pass_fraction": 0.9,
                  "regularization_gap": 0.02},
    # agreement_tol bounds the sup-norm gap of the densities at the two
    # DS_ETA_LEVELS; a wider gap is a numerical failure, not a failed gate
    "ds_solve": {"oracle_gap": 1e-8, "density_sup_error": 1e-2, "agreement_tol": 1e-3},
    "tails": {"sigma_min_exponent": 10.0,  # floor n ** -exponent
              "distance_constant": 0.5, "mean_dist2_low": 0.95, "mean_dist2_high": 1.05},
    "lemmas": {"det_identity": 1e-6, "neg_second_moment": 1e-9,
               "interlacing_slack_scale": 1e-8, "weyl_slack_scale": 1e-8,
               "weyl_normal_equality": 1e-10, "weyl_nilpotent_mass": 1e-12},
}


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


def _trial_matrix(cfg, n, t, dist=None, role=ROLE_X, **factors):
    """The assembled matrix of trial t at size n: M + (k l^T) * X when
    ``factors`` carries k and l, M + C * X when it carries c, and M + X
    when it is empty.  X is drawn from ``dist`` (dist_x by default) on the
    stream of ``role``.  The zero base is never built; with the zero base
    and no factors the result is X itself."""
    x = build_iid_matrix(n, dist or cfg.dist_x, _stream(cfg, n, t, role))
    if cfg.base.kind == "zero":
        return assemble(None, x, **factors) if factors else x
    m = build_base_matrix(cfg.base, n, _stream(cfg, n, t, ROLE_BASE))
    return assemble(m, x, **factors)


def _profile_matrix(profile, n):
    lo, hi = profile["low"], profile["high"]
    ramp = (np.arange(n)[:, None] + np.arange(n)[None, :]) / max(2 * n - 2, 1)
    return lo + (hi - lo) * ramp


def _auto_center(base, n):
    """Fig.1 convention: a base equal to c I at size n recenters the disk at
    c/sqrt(n), where it moves the spectrum of (M + X)/sqrt(n).  A kind that
    scales by sqrt(n) gives its value itself, so no rounding moves the centre."""
    if base.kind == "two_block_diagonal":
        scale = 1.0 if base.scale_by_sqrt_n else math.sqrt(n)
        values = {v / scale for v, length in zip((base.a, base.b), two_blocks(base, n)[1])
                  if length}
    elif base.kind == "diagonal_from_measure":  # sqrt(n) times atoms drawn from the list
        values = set(base.atoms)
    elif base.kind == "low_rank" and base.rank == n:  # n blocks of one entry each
        values = {base.magnitude / math.sqrt(n)}
    else:  # the zero base, or a low_rank base below full rank
        values = set()
    return complex(*values) if len(values) == 1 else 0j


# ------------------------------------------------------------------ circular

def run_circular_law(cfg, out_dir):
    thr = THRESHOLDS["circular"]
    result = ExperimentResult("circular")
    for n in cfg.n_list:
        center = _auto_center(cfg.base, n)
        paths = [os.path.join(out_dir, f"circular_n{n}_trial{t}.svg") for t in range(cfg.trials)]

        def trial_fn(t, n=n, paths=paths, center=center):
            # the freshly drawn trial matrix has no other reader
            mu = esd_eigen(_trial_matrix(cfg, n, t), overwrite_a=True)
            write_svg(paths[t], scatter_svg(mu, center))
            rks, aks = radial_angular_ks(mu, circular_radial_cdf, center)
            return {
                "radial_ks": rks,
                "angular_ks": aks,
                "in_disk_fraction": float(np.mean(np.abs(mu - center)
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
    thr = THRESHOLDS["universality"]
    result = ExperimentResult("universality")
    medians = []
    for n in cfg.n_list:
        factors = {}
        if cfg.sandwich_k is not None:
            factors = {"k": factor_diagonal(cfg.sandwich_k, n),
                       "l": factor_diagonal(cfg.sandwich_l, n)}
        elif cfg.profile is not None:
            factors = {"c": _profile_matrix(cfg.profile, n)}

        def trial_fn(t, n=n, factors=factors):
            a = _trial_matrix(cfg, n, t, cfg.dist_x, ROLE_X, **factors)
            b = _trial_matrix(cfg, n, t, cfg.dist_y, ROLE_Y, **factors)
            # the dilations first, so that the eigenvalues may scale A and B in place
            dilation_ks = ks_two_sample(dilation_esd(a), dilation_esd(b))
            return {"bl_distance": bl_distance(esd_eigen(a, overwrite_a=True),
                                               esd_eigen(b, overwrite_a=True)),
                    "dilation_ks": dilation_ks}
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

    For |z| >= 2 the gram spectrum lives on [(|z|-2)^2, (|z|+2)^2]; for
    |z| < 2 its left edge is hard, at 0, with a 1/sqrt(t) divergence, so
    the log moment is taken on a geometrically graded grid from
    t_min = max(1e-12, max(0, |z|-2)^2 - 1), at eta = 1e-8, where the
    Poisson-smoothing bias is below 1e-3.  The grid starts one unit left
    of the support, not at 1e-12: far left of it, at a large |z|, Im m
    is below what the solver resolves.  It solves for every |z| up to
    ``config.DS_REFERENCE_MAX_SHIFT``, the bound a config is held to.
    """
    r = abs(complex(z))
    t_max = (r + 2.0) * (r + 2.0) + 1.0
    h = MeasureH.point(r * r)
    t_min = max(1e-12, max(0.0, r - 2.0) ** 2 - 1.0)
    graded = [np.geomspace(t_min, 1.0, 4000)] if t_min < 1.0 else []
    grid = np.unique(np.concatenate(graded + [np.linspace(max(t_min, 1.0), t_max, 8000)]))
    m = solve_ds(h, 1.0, grid + 1e-8j)
    return 0.5 * float(np.trapezoid(np.log(grid) * m.imag, grid)) / math.pi


def run_hermitization_check(cfg, out_dir):
    thr = THRESHOLDS["hermitize"]
    result = ExperimentResult("hermitize")
    references = {z: (circular_log_potential(z) if cfg.reference == "circular"
                      else _ds_reference_potential(z)) for z in cfg.z_grid}
    for n in cfg.n_list:
        eps = float(n) ** (-cfg.eps_exponent)

        def trial_fn(t, n=n, eps=eps):
            a = _trial_matrix(cfg, n, t)
            f_ns = [log_det_at(a, z) for z in cfg.z_grid]
            # last, so that S = A/sqrt(n) may be scaled in the memory of A
            f_regs = regularized_log_det(a, cfg.z_grid, eps, overwrite_a=True)
            metrics = {}
            for i, (z, f_n, f_reg) in enumerate(zip(cfg.z_grid, f_ns, f_regs)):
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

# the heights eta of the Stieltjes inversion, coarse then fine: ds.csv is
# the density at the fine one
DS_ETA_LEVELS = (1e-3, 1e-4)


def run_ds_solve(cfg, out_dir):
    thr = THRESHOLDS["ds_solve"]
    result = ExperimentResult("ds_solve")
    h = MeasureH(np.array(cfg.h_atoms), np.array(cfg.h_weights))
    grid = ds_grid(cfg.x_min, cfg.x_max, cfg.x_step)
    solution = invert_stieltjes(lambda w: solve_ds(h, cfg.c, w), grid,
                                DS_ETA_LEVELS, thr["agreement_tol"])
    path = os.path.join(out_dir, "ds.csv")
    write_ds_csv(path, solution)
    result.artifacts.append(path)
    metrics = {
        "grid_points": grid.size,
        "eta_final": solution.eta,
        "total_mass": solution.total_mass(),
        "min_density": float(np.min(solution.density)),
    }
    result.gates.append(GateResult("density_nonnegative", metrics["min_density"], ">=", 0.0))
    if cfg.mp_oracle:
        low, high = MP_WINDOW
        oracle_w = np.linspace(low, high, 50) + 1e-3j
        gaps = np.abs(solve_ds(h, 1.0, oracle_w) - [mp_reference(w) for w in oracle_w])
        metrics["oracle_gap_max"] = float(np.max(gaps))
        window = (grid >= low) & (grid <= high)
        sup_err = float(np.max(np.abs(solution.density[window] - mp_density(grid[window]))))
        metrics["density_sup_error"] = sup_err
        result.gates += [
            GateResult("mp_oracle_gap", metrics["oracle_gap_max"], "<", thr["oracle_gap"]),
            GateResult("mp_density_sup_error", sup_err, "<", thr["density_sup_error"]),
        ]
    result.records.append(TrialRecord("ds_solve", grid.size, 0,
                                      stream_origin(cfg.master_seed, 0), metrics))
    return result


# -------------------------------------------------------------------- tails

def run_tail_suite(cfg, out_dir):
    thr = THRESHOLDS["tails"]
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

    # distance-to-subspace experiment: a fixed random basis B = X + iY of d
    # columns in C^nd and one fresh row v_t per trial, the columns of V.  The
    # squared distance of v_t to span(B) is the Schur complement
    #     dist_t² = ‖v_t‖² − Re(c_t* G⁻¹ c_t),  c_t = B*v_t,
    #     G = B*B = XᵀX + YᵀY + i(XᵀY − YᵀX),
    # the squared column norm of R₂₂ in a QR of [B | V].  Forming G squares
    # κ(B), so dist_t² has a relative error of about κ(B)²·2⁻⁵³ (κ(B)² ≈ 34
    # at nd = 2d; it grows as d nears nd).
    # sample_array is looked up at call time, not imported at module level,
    # so a rebinding of ensembles.sample_array (the benchmark's span tracer)
    # also sees the distance draws
    from ..ensembles import sample_array
    nd, d = cfg.distance_n, cfg.distance_d
    aux = RngStream(cfg.master_seed, _SUBSPACE_STREAM)
    # X is the first nd·d words of the stream and Y the next, each row-major;
    # a second cursor reads Y alongside X, so neither is ever held whole
    aux_y = copy.copy(aux)
    aux_y.skip(nd * d)

    def basis_rows(stream, count):
        part = stream.uniforms(count * d)
        part -= 0.5
        return part.reshape(count, d)

    v = np.stack([sample_array(cfg.dist_x, _stream(cfg, nd, t, ROLE_X), nd)
                  for t in range(cfg.distance_trials)], axis=1)
    complex_rows = np.iscomplexobj(v)
    norm2 = np.sum(v.real ** 2 + v.imag ** 2, axis=0)
    # real products only (x.T @ x runs as syrk), so X and Y are never made
    # complex.  X and Y are drawn in row blocks of at most 2^18 words each,
    # and each pair of blocks is folded at once into C = B*V and into one
    # real accumulator
    #     W = Σ_r [(X_r − Y_r)ᵀ(X_r + Y_r)/2 − X_rᵀX_r] = (XᵀY − YᵀX − XᵀX − YᵀY)/2,
    # one syrk and one gemm per block into one product buffer.  Halving
    # X_r + Y_r is exact, so W is exactly half the sum of the full terms.
    # At nd = 2000, d = 1000, blocks of 2^17 words read 1 MB less peak RSS
    # and took about 50 ms longer; accumulating C in two real arrays and
    # packing them as the fold ends read 2.4 MB more.
    c = np.zeros((d, v.shape[1]), dtype=np.complex128)
    w = np.zeros((d, d))
    product = np.empty((d, d))
    step = max(1, (1 << 18) // d)
    for start in range(0, nd, step):
        rows = slice(start, start + step)
        x = basis_rows(aux, min(step, nd - start))
        y = basis_rows(aux_y, len(x))
        c.real += x.T @ v.real[rows]
        c.imag -= y.T @ v.real[rows]
        if complex_rows:
            c.real += y.T @ v.imag[rows]
            c.imag += x.T @ v.imag[rows]
        w -= np.matmul(x.T, x, out=product)
        half_sum = x + y
        half_sum *= 0.5
        np.subtract(x, y, out=y)
        w += np.matmul(y.T, half_sum, out=product)
    del v, x, y, half_sum, product
    # G is never formed.  Its blocks G11, G12 and G22, split at h, are filled
    # from W's symmetric and skew parts, Re G = −(W + Wᵀ) and Im G = W − Wᵀ,
    # so G is exactly Hermitian; W's terms round on the scale of ‖B‖², as the
    # products of G itself do.  The quadratic form is then
    #     c*G⁻¹c = c₁*G11⁻¹c₁ + r*S⁻¹r,  r = c₂ − G12*G11⁻¹c₁,
    # with the Schur complement S = G22 − G12*G11⁻¹G12, by two solves with
    # G11 and one with S, each half the size of G.  G11 and S are Hermitian
    # positive definite with condition numbers at most κ(G), so the
    # κ(B)²·2⁻⁵³ bound above holds.  W is freed as soon as the blocks are
    # filled, before the first solve.
    # Solving G11 once against [G12 | c₁] instead of twice read 1.6 MB more
    # peak RSS at nd = 2000, d = 1000, and 3.1 MB more with esdlab's
    # bytecode cached.
    h = d // 2
    k = d - h
    top, bottom = slice(0, h), slice(h, d)

    def gram_block(out, rows, cols):
        np.add(w[rows, cols], w[cols, rows].T, out=out.real)
        np.negative(out.real, out=out.real)
        np.subtract(w[rows, cols], w[cols, rows].T, out=out.imag)
        return out

    g12 = gram_block(np.empty((h, k), dtype=np.complex128), top, bottom)
    g11 = gram_block(np.empty((h, h), dtype=np.complex128), top, top)
    s = gram_block(np.empty((k, k), dtype=np.complex128), bottom, bottom)
    del w
    c1, r = c[top], c[bottom]
    try:
        g11_inv_g12 = np.linalg.solve(g11, g12)
        g11_inv_c1 = np.linalg.solve(g11, c1)
        quad = np.sum(c1.real * g11_inv_c1.real + c1.imag * g11_inv_c1.imag, axis=0)
        # with G12 conjugated in place, G12* is its transpose, a view
        np.conjugate(g12, out=g12)
        s -= g12.T @ g11_inv_g12
        r -= g12.T @ g11_inv_c1
        del g12, g11_inv_g12, g11_inv_c1
        s_inv_r = np.linalg.solve(s, r)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"the Gram matrix of the distance basis is singular: "
                                    f"{exc}") from exc
    quad += np.sum(r.real * s_inv_r.real + r.imag * s_inv_r.imag, axis=0)
    dist2 = norm2 - quad
    if not np.all(np.isfinite(dist2) & (dist2 > 0.0)):
        raise NumericalFailureError("a squared distance to the subspace is not finite and "
                                    "positive")
    dist = np.sqrt(dist2)
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
    """Deterministic rotation over the four kinds of case: case % 4 is 0
    for complex square, 1 real square, 2 complex wide and 3 real wide (an
    n' by n matrix with n' < n).  Entries are uniform on [-1/2, 1/2), the
    real parts drawn first, then the imaginary parts."""
    u = rng.uniforms(3)
    n = 4 + int(u[0] * (max_size - 3))
    kind = case % 4
    rows = n if kind < 2 else max(2, int(n * (0.3 + 0.6 * u[1])))
    size = rows * n
    real = kind % 2 == 1
    g = rng.uniforms(size if real else 2 * size)
    a = (g[:size] - 0.5).reshape(rows, n)
    return a if real else a + 1j * (g[size:] - 0.5).reshape(rows, n)


def run_lemma_suite(cfg, out_dir):
    thr = THRESHOLDS["lemmas"]
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
            scale = max(hs_norm(a), 1.0)
            for k in (1, 2, 3):
                metrics[f"interlacing_k{k}"] = verify_interlacing(a, k) / scale
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
        GateResult("weyl_normal_equality", normal_gap, "<=", thr["weyl_normal_equality"]),
        GateResult("weyl_nilpotent_mass", float(np.sum(np.abs(eigenvalues(nilpotent)) ** 2)),
                   "<=", thr["weyl_nilpotent_mass"]),
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


# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


@functools.cache
def _set_process_policy():
    """Set, once per process, what a run needs of its allocator and BLAS.

    glibc serves a block above its mmap threshold by a fresh mapping and
    unmaps it on free, and it returns a free heap top above its trim
    threshold to the system, so every trial's matrices and LAPACK's copies
    were faulted in afresh (about 18,000 minor faults per hermitize_t1
    run).  With the mmap threshold at 32 MiB and the trim threshold at
    256 MiB, a freed block below 32 MiB stays in the heap and the next
    trial reuses it; the process keeps its RSS at its high-water mark.
    BLAS runs on one thread, so the bytes do not depend on the ambient
    thread count.  Each half does nothing where its library or symbol is
    missing; neither changes a value.
    """
    import glob  # here, so that importing esdlab loads no module more

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # no C library handle, or no mallopt
        pass
    else:
        mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
        mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        mallopt(_M_TRIM_THRESHOLD, 256 << 20)
    # numpy's wheel ships its OpenBLAS beside the package, already loaded
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        set_threads = getattr(ctypes.CDLL(path), "scipy_openblas_set_num_threads64_", None)
        if set_threads is not None:
            set_threads.argtypes = [ctypes.c_int]
            set_threads.restype = None
            set_threads(1)


def run_experiment(cfg, out_dir):
    """Run one experiment, write all artifacts and the manifest into ``out_dir``."""
    _set_process_policy()
    created = not os.path.isdir(out_dir)
    try:
        os.makedirs(out_dir, exist_ok=True)
    except (OSError, ValueError) as exc:  # ValueError: a NUL or unencodable character
        raise ConfigurationError(f"cannot create output directory {out_dir}: {exc}") from exc
    started = time.time()
    try:
        result = RUNNERS[cfg.experiment](cfg, out_dir)
    except BaseException as exc:
        # a failed run leaves no directory behind that it made and wrote nothing to
        if created and not os.listdir(out_dir):
            os.rmdir(out_dir)
        if isinstance(exc, MemoryError):  # sizes that cannot be allocated
            raise ConfigurationError(f"the configured sizes cannot be allocated: {exc}") from exc
        raise
    trials_path = os.path.join(out_dir, "trials.csv")
    write_trials_csv(trials_path, result.records)
    result.artifacts.append(trials_path)
    manifest = write_manifest(out_dir, config_to_dict(cfg), THRESHOLDS[cfg.experiment],
                              result.gates, result.artifacts)
    result.artifacts.append(manifest)
    print(f"[esdlab] {cfg.experiment}: {len(result.records)} records, "
          f"{sum(g.passed for g in result.gates)}/{len(result.gates)} gates passed "
          f"in {time.time() - started:.1f}s")
    return result

"""Strict JSON experiment configuration.

Configs round-trip losslessly through JSON; unknown keys are rejected at
every level so a typo in a threshold name can never silently fall back
to a default.  Resolved thresholds (defaults merged with overrides) are
echoed into the run manifest.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from ..ensembles import (
    BaseMatrixSpec,
    ScalarDistribution,
    base_diagonal_from_measure,
    base_explicit,
    base_low_rank,
    base_two_block,
    base_zero,
    scalar_distribution,
)
from ..errors import ConfigurationError

SCHEMA_VERSION = 1

EXPERIMENTS = ("circular", "universality", "hermitize", "ds_solve", "tails", "lemmas")

_COMMON_KEYS = {"schema_version", "experiment", "master_seed", "output_dir", "threads", "thresholds"}

_EXPERIMENT_KEYS = {
    "circular": {"n_list", "trials", "dist_x", "base", "mode", "center"},
    "universality": {"n_list", "trials", "dist_x", "dist_y", "base", "mode",
                     "profile", "sandwich_k", "sandwich_l"},
    "hermitize": {"n_list", "trials", "dist_x", "base", "mode", "z_grid",
                  "reference", "eps_exponent"},
    "ds_solve": {"h_atoms", "h_weights", "c", "x_min", "x_max", "x_step",
                 "eta_schedule", "agreement_tol", "mass_check", "mp_oracle"},
    "tails": {"n_list", "trials", "dist_x", "base", "distance_n", "distance_d",
              "distance_trials"},
    "lemmas": {"lemma_cases", "max_size"},
}

DEFAULT_THRESHOLDS = {
    "circular": {
        "radial_ks": 0.05,
        "angular_ks": 0.05,
        "ks_pass_fraction": 0.9,
        "in_disk_radius": 1.05,
        "in_disk_fraction": 0.99,
    },
    "universality": {
        "final_median_bl": 0.1,
    },
    "hermitize": {
        "potential_gap": 0.05,
        "potential_pass_fraction": 0.9,
        "regularization_gap": 0.02,
    },
    "ds_solve": {
        "oracle_gap": 1e-8,
        "density_sup_error": 1e-2,
        "mass_low": 0.98,
        "mass_high": 1.02,
    },
    "tails": {
        "sigma_min_exponent": 10.0,
        "distance_constant": 0.5,
        "mean_dist2_low": 0.95,
        "mean_dist2_high": 1.05,
    },
    "lemmas": {
        "det_identity": 1e-6,
        "neg_second_moment": 1e-9,
        "interlacing_slack_scale": 1e-8,
        "weyl_slack_scale": 1e-8,
    },
}


def _reject_unknown(d, allowed, where):
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigurationError(f"unknown keys in {where}: {sorted(unknown)}")


def _as_int(value, what):
    """``int(value)``; anything that does not convert is a ConfigurationError."""
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigurationError(f"{what} must be an integer, got {value!r}") from None


def _as_float(value, what):
    """``float(value)``; anything that does not convert is a ConfigurationError."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigurationError(f"{what} must be a number, got {value!r}") from None


def _as_list(values, what):
    if not isinstance(values, (list, tuple)):
        raise ConfigurationError(f"{what} must be a list, got {values!r}")
    return values


def _float_tuple(values, what):
    return tuple(_as_float(v, f"{what} entry") for v in _as_list(values, what))


def _int_field(raw, key, default):
    return _as_int(raw.get(key, default), key)


def _float_field(raw, key, default):
    return _as_float(raw.get(key, default), key)


def dist_from_dict(d):
    if not isinstance(d, dict) or "kind" not in d:
        raise ConfigurationError("distribution spec must be an object with a 'kind'")
    params = {k: _as_float(v, f"distribution parameter {k}") for k, v in d.items() if k != "kind"}
    return scalar_distribution(d["kind"], **params)


def dist_to_dict(dist):
    out = {"kind": dist.kind}
    if dist.kind == "two_point_asymmetric":
        out["p"] = dist.params[0]
    elif dist.kind == "pareto_symmetrized":
        out["exponent"] = dist.params[0]
    return out


def base_from_dict(d):
    if not isinstance(d, dict) or "kind" not in d:
        raise ConfigurationError("base matrix spec must be an object with a 'kind'")
    kind = d["kind"]
    if kind == "zero":
        _reject_unknown(d, {"kind"}, "base spec")
        return base_zero()
    if kind == "two_block_diagonal":
        _reject_unknown(d, {"kind", "a", "b", "split", "scale_by_sqrt_n"}, "base spec")
        return base_two_block(_as_float(d.get("a"), "base a"), _as_float(d.get("b"), "base b"),
                              _float_field(d, "split", 0.5), d.get("scale_by_sqrt_n", False))
    if kind == "low_rank":
        _reject_unknown(d, {"kind", "rank", "magnitude"}, "base spec")
        return base_low_rank(_as_int(d.get("rank"), "base rank"),
                             _as_float(d.get("magnitude"), "base magnitude"))
    if kind == "diagonal_from_measure":
        _reject_unknown(d, {"kind", "atoms"}, "base spec")
        return base_diagonal_from_measure(
            [_as_complex(t) for t in _as_list(d.get("atoms"), "base atoms")])
    if kind == "explicit":
        _reject_unknown(d, {"kind", "entries"}, "base spec")
        rows = [[_as_complex(e) for e in _as_list(row, "base entries row")]
                for row in _as_list(d.get("entries"), "base entries")]
        if any(len(row) != len(rows) for row in rows):
            raise ConfigurationError("explicit base matrix must be square")
        return base_explicit(rows)
    raise ConfigurationError(f"unknown base matrix kind {kind!r}")


def base_to_dict(spec):
    if spec.kind == "zero":
        return {"kind": "zero"}
    if spec.kind == "two_block_diagonal":
        return {"kind": spec.kind, "a": spec.a, "b": spec.b, "split": spec.split,
                "scale_by_sqrt_n": spec.scale_by_sqrt_n}
    if spec.kind == "low_rank":
        return {"kind": spec.kind, "rank": spec.rank, "magnitude": spec.magnitude}
    if spec.kind == "diagonal_from_measure":
        return {"kind": spec.kind, "atoms": [_complex_out(t) for t in spec.atoms]}
    return {"kind": "explicit",
            "entries": [[_complex_out(e) for e in row] for row in spec.entries]}


def _as_complex(v):
    """JSON scalars are numbers or [re, im] pairs."""
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(_as_float(v[0], "real part"), _as_float(v[1], "imaginary part"))
    raise ConfigurationError(f"expected a number or [re, im] pair, got {v!r}")


def _complex_out(z):
    z = complex(z)
    return z.real if z.imag == 0.0 else [z.real, z.imag]


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated configuration for one experiment run."""

    experiment: str
    master_seed: int
    n_list: tuple = ()
    trials: int = 0
    dist_x: ScalarDistribution | None = None
    dist_y: ScalarDistribution | None = None
    base: BaseMatrixSpec = field(default_factory=base_zero)
    mode: str = "shift"
    profile: dict | None = None
    sandwich_k: BaseMatrixSpec | None = None
    sandwich_l: BaseMatrixSpec | None = None
    z_grid: tuple = ()
    reference: str = "circular"
    eps_exponent: float = 0.1
    center: complex | None = None
    h_atoms: tuple = ()
    h_weights: tuple = ()
    c: float = 1.0
    x_min: float = 0.1
    x_max: float = 3.9
    x_step: float = 1.0 / 400.0
    eta_schedule: tuple = (1e-1, 1e-2, 1e-3, 1e-4)
    agreement_tol: float = 1e-3
    mass_check: bool = False
    mp_oracle: bool = False
    distance_n: int = 2000
    distance_d: int = 1000
    distance_trials: int = 200
    lemma_cases: int = 500
    max_size: int = 30
    output_dir: str = "out"
    threads: int = 1
    thresholds: dict = field(default_factory=dict)

    def resolved_thresholds(self):
        return {**DEFAULT_THRESHOLDS[self.experiment], **self.thresholds}


def _validate_profile(p):
    if p is None:
        return None
    if not isinstance(p, dict) or "kind" not in p:
        raise ConfigurationError("profile must be an object with a 'kind'")
    if p["kind"] == "constant":
        _reject_unknown(p, {"kind", "value"}, "profile")
        value = _as_float(p.get("value", 1.0), "profile value")
        if value <= 0.0:
            raise ConfigurationError("constant profile value must be positive")
        return {"kind": "constant", "value": value}
    if p["kind"] == "ramp":
        _reject_unknown(p, {"kind", "low", "high"}, "profile")
        lo, hi = _as_float(p.get("low"), "ramp low"), _as_float(p.get("high"), "ramp high")
        if not 0.0 < lo <= hi:
            raise ConfigurationError("ramp profile needs 0 < low <= high")
        return {"kind": "ramp", "low": lo, "high": hi}
    raise ConfigurationError(f"unknown profile kind {p['kind']!r}")


def config_from_dict(raw):
    """Parse and validate a configuration dictionary (strict)."""
    if not isinstance(raw, dict):
        raise ConfigurationError("config must be a JSON object")
    if raw.get("schema_version") != SCHEMA_VERSION:
        raise ConfigurationError(f"config schema_version must be {SCHEMA_VERSION}")
    experiment = raw.get("experiment")
    if experiment not in EXPERIMENTS:
        raise ConfigurationError(f"experiment must be one of {EXPERIMENTS}, got {experiment!r}")
    _reject_unknown(raw, _COMMON_KEYS | _EXPERIMENT_KEYS[experiment], f"{experiment} config")
    if "master_seed" not in raw or not isinstance(raw["master_seed"], int) \
            or not 0 <= raw["master_seed"] < 2**64:
        raise ConfigurationError("master_seed must be a 64-bit unsigned integer")

    thresholds = raw.get("thresholds", {})
    if not isinstance(thresholds, dict):
        raise ConfigurationError("thresholds must be an object")
    _reject_unknown(thresholds, DEFAULT_THRESHOLDS[experiment], f"{experiment} thresholds")
    thresholds = {k: _as_float(v, f"threshold {k}") for k, v in thresholds.items()}

    kw = dict(
        experiment=experiment,
        master_seed=raw["master_seed"],
        output_dir=str(raw.get("output_dir", "out")),
        threads=_int_field(raw, "threads", 1),
        thresholds=thresholds,
    )
    if kw["threads"] < 1:
        raise ConfigurationError("threads must be at least 1")

    if experiment in ("circular", "universality", "hermitize", "tails"):
        n_list = raw.get("n_list")
        trials = raw.get("trials")
        if not isinstance(n_list, list) or not n_list:
            raise ConfigurationError("n_list must be a nonempty list of positive sizes")
        kw["n_list"] = tuple(_as_int(n, "n_list entry") for n in n_list)
        if min(kw["n_list"]) < 1:
            raise ConfigurationError("n_list must be a nonempty list of positive sizes")
        # trial indices are packed below the size bits of the stream index
        if not isinstance(trials, int) or not 1 <= trials < 2**20:
            raise ConfigurationError("trials must be a positive integer below 2^20")
        kw["trials"] = trials
        if "dist_x" not in raw:
            raise ConfigurationError(f"{experiment} config requires dist_x")
        kw["dist_x"] = dist_from_dict(raw["dist_x"])
        kw["base"] = base_from_dict(raw.get("base", {"kind": "zero"}))

    mode = raw.get("mode", "shift")
    if experiment == "circular":
        if mode != "shift":
            raise ConfigurationError("circular experiment supports mode 'shift' only")
        if "center" in raw:
            kw["center"] = _as_complex(raw["center"])
    elif experiment == "universality":
        if mode not in ("shift", "sandwich", "hadamard_profile"):
            raise ConfigurationError(f"unknown assembly mode {mode!r}")
        kw["mode"] = mode
        if "dist_y" in raw:
            kw["dist_y"] = dist_from_dict(raw["dist_y"])
        kw["profile"] = _validate_profile(raw.get("profile"))
        if mode == "hadamard_profile" and kw["profile"] is None:
            raise ConfigurationError("hadamard_profile mode requires a profile spec")
        if mode == "sandwich":
            if "sandwich_k" not in raw or "sandwich_l" not in raw:
                raise ConfigurationError("sandwich mode requires sandwich_k and sandwich_l")
            kw["sandwich_k"] = base_from_dict(raw["sandwich_k"])
            kw["sandwich_l"] = base_from_dict(raw["sandwich_l"])
    elif experiment == "hermitize":
        if mode != "shift":
            raise ConfigurationError("hermitize experiment supports mode 'shift' only")
        z_grid = raw.get("z_grid")
        if not isinstance(z_grid, list) or not z_grid:
            raise ConfigurationError("hermitize requires a nonempty z_grid")
        kw["z_grid"] = tuple(_as_complex(z) for z in z_grid)
        reference = raw.get("reference", "circular")
        if reference not in ("circular", "ds"):
            raise ConfigurationError("reference must be 'circular' or 'ds'")
        kw["reference"] = reference
        kw["eps_exponent"] = _float_field(raw, "eps_exponent", 0.1)
        if kw["eps_exponent"] <= 0.0:
            raise ConfigurationError("eps_exponent must be positive")
    elif experiment == "ds_solve":
        atoms = _float_tuple(raw.get("h_atoms", [0.0]), "h_atoms")
        weights = _float_tuple(raw.get("h_weights", [1.0] if len(atoms) == 1 else []),
                               "h_weights")
        if not weights or len(weights) != len(atoms):
            raise ConfigurationError("h_weights must match h_atoms")
        kw["h_atoms"] = atoms
        kw["h_weights"] = weights
        kw["c"] = _float_field(raw, "c", 1.0)
        kw["x_min"] = _float_field(raw, "x_min", 0.1)
        kw["x_max"] = _float_field(raw, "x_max", 3.9)
        kw["x_step"] = _float_field(raw, "x_step", 1.0 / 400.0)
        if not kw["x_min"] < kw["x_max"] or kw["x_step"] <= 0.0:
            raise ConfigurationError("ds_solve needs x_min < x_max and positive x_step")
        kw["eta_schedule"] = _float_tuple(raw.get("eta_schedule", (1e-1, 1e-2, 1e-3, 1e-4)),
                                          "eta_schedule")
        kw["agreement_tol"] = _float_field(raw, "agreement_tol", 1e-3)
        kw["mass_check"] = bool(raw.get("mass_check", False))
        kw["mp_oracle"] = bool(raw.get("mp_oracle", False))
    elif experiment == "tails":
        kw["distance_n"] = _int_field(raw, "distance_n", 2000)
        kw["distance_d"] = _int_field(raw, "distance_d", 1000)
        kw["distance_trials"] = _int_field(raw, "distance_trials", 200)
        if not 1 <= kw["distance_d"] < kw["distance_n"] or kw["distance_trials"] < 1:
            raise ConfigurationError(
                "tails needs 1 <= distance_d < distance_n and distance_trials >= 1")
    elif experiment == "lemmas":
        kw["lemma_cases"] = _int_field(raw, "lemma_cases", 500)
        kw["max_size"] = _int_field(raw, "max_size", 30)
        if not 1 <= kw["lemma_cases"] < 2**20 or kw["max_size"] < 4:
            raise ConfigurationError("lemmas needs 1 <= lemma_cases < 2^20 and max_size >= 4")

    return ExperimentConfig(**kw)


def config_to_dict(cfg):
    """Canonical JSON-ready dictionary (inverse of config_from_dict)."""
    out = {
        "schema_version": SCHEMA_VERSION,
        "experiment": cfg.experiment,
        "master_seed": cfg.master_seed,
        "output_dir": cfg.output_dir,
        "threads": cfg.threads,
        "thresholds": dict(cfg.thresholds),
    }
    if cfg.experiment in ("circular", "universality", "hermitize", "tails"):
        out["n_list"] = list(cfg.n_list)
        out["trials"] = cfg.trials
        out["dist_x"] = dist_to_dict(cfg.dist_x)
        out["base"] = base_to_dict(cfg.base)
    if cfg.experiment == "circular" and cfg.center is not None:
        out["center"] = _complex_out(cfg.center)
    if cfg.experiment == "universality":
        out["mode"] = cfg.mode
        if cfg.dist_y is not None:
            out["dist_y"] = dist_to_dict(cfg.dist_y)
        if cfg.profile is not None:
            out["profile"] = dict(cfg.profile)
        if cfg.sandwich_k is not None:
            out["sandwich_k"] = base_to_dict(cfg.sandwich_k)
            out["sandwich_l"] = base_to_dict(cfg.sandwich_l)
    if cfg.experiment == "hermitize":
        out["z_grid"] = [_complex_out(z) for z in cfg.z_grid]
        out["reference"] = cfg.reference
        out["eps_exponent"] = cfg.eps_exponent
    if cfg.experiment == "ds_solve":
        out["h_atoms"] = list(cfg.h_atoms)
        out["h_weights"] = list(cfg.h_weights)
        out["c"] = cfg.c
        out["x_min"] = cfg.x_min
        out["x_max"] = cfg.x_max
        out["x_step"] = cfg.x_step
        out["eta_schedule"] = list(cfg.eta_schedule)
        out["agreement_tol"] = cfg.agreement_tol
        out["mass_check"] = cfg.mass_check
        out["mp_oracle"] = cfg.mp_oracle
    if cfg.experiment == "tails":
        out["distance_n"] = cfg.distance_n
        out["distance_d"] = cfg.distance_d
        out["distance_trials"] = cfg.distance_trials
    if cfg.experiment == "lemmas":
        out["lemma_cases"] = cfg.lemma_cases
        out["max_size"] = cfg.max_size
    return out


def load_config(path):
    """Load, parse and validate a JSON config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(raw)

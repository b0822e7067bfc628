"""Strict JSON experiment configuration.

Configs round-trip losslessly through JSON; unknown keys are rejected at
every level so a typo in a threshold name can never silently fall back
to a default.  Resolved thresholds (defaults merged with overrides) are
echoed into the run manifest.

Each experiment has one field table in ``FIELDS``, and each entry law,
base-matrix kind and profile kind has one too.  A table entry states a
key's parser (range checks included), its default and its dump form
once; parsing, unknown-key rejection and the canonical dump are loops
over the table.  The rules that tie two fields together are in
``_check_cross_fields``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from typing import Callable, NamedTuple

from ..ensembles import (
    ASSEMBLY_MODES,
    SCALAR_KINDS,
    BaseMatrixSpec,
    ScalarDistribution,
    require_buildable,
)
from ..errors import ConfigurationError
from ..limits import DEFAULT_ETA_SCHEDULE

SCHEMA_VERSION = 1

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


# ------------------------------------------------------------- converters
# Each takes a JSON value and the key's name, and raises ConfigurationError
# for anything it does not accept.

def _as_int(value, what):
    """A JSON integer, or a float that is a whole number; never a bool."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigurationError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _as_float(value, what):
    """A finite JSON number; never a bool, NaN or an infinity."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigurationError(f"{what} must be a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        raise ConfigurationError(f"{what} is too large for a float: {value!r}") from None
    if not math.isfinite(x):
        raise ConfigurationError(f"{what} must be finite, got {value!r}")
    return x


def _of_type(kind, label):
    def parse(value, what):
        if not isinstance(value, kind):
            raise ConfigurationError(f"{what} must be {label}, got {value!r}")
        return value
    return parse


_as_bool = _of_type(bool, "true or false")
_as_str = _of_type(str, "a string")
_as_list = _of_type((list, tuple), "a list")
_as_object = _of_type(dict, "an object")


def _as_complex(value, what):
    """A JSON number or an [re, im] pair of numbers."""
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(_as_float(value[0], f"{what} real part"),
                       _as_float(value[1], f"{what} imaginary part"))
    return complex(_as_float(value, f"{what} (a number or [re, im] pair)"))


def _complex_out(z):
    z = complex(z)
    return z.real if z.imag == 0.0 else [z.real, z.imag]


def _complex_list(values):
    return [_complex_out(z) for z in values]


def _tuple_of(convert):
    """Parser of a JSON list whose entries each go through ``convert``."""
    def parse(values, what):
        return tuple(convert(v, f"{what} entry") for v in _as_list(values, what))
    return parse


def _checked(convert, ok, need):
    """Parser: ``convert``, whose result must satisfy ``ok``; ``need`` is
    what that asks for, in words."""
    def parse(value, what):
        out = convert(value, what)
        if not ok(out):
            raise ConfigurationError(f"{what} must be {need}, got {value!r}")
        return out
    return parse


def _one_of(*options):
    return _checked(_as_str, lambda s: s in options, f"one of {options}")


def _nonempty(convert):
    return _checked(_tuple_of(convert), bool, "a nonempty list")


_POSITIVE_INT = _checked(_as_int, lambda n: n >= 1, "at least 1")
_POSITIVE_FLOAT = _checked(_as_float, lambda x: x > 0.0, "positive")
# trial and case indices are packed below the size bits of the stream index
_TRIAL_COUNT = _checked(_as_int, lambda n: 1 <= n < 2**20, "at least 1 and below 2^20")


def _thresholds_of(experiment):
    def parse(value, what):
        _reject_unknown(_as_object(value, what), DEFAULT_THRESHOLDS[experiment],
                        f"{experiment} {what}")
        return {k: _as_float(v, f"threshold {k}") for k, v in value.items()}
    return parse


# ------------------------------------------------------------- field tables

REQUIRED = object()


def _same(value):
    return value


class Field(NamedTuple):
    """One key of a JSON object.

    ``parse(value, name)`` turns its JSON value into the parsed value.
    ``default`` is the JSON value used when the key is absent; REQUIRED
    makes the key mandatory, and None leaves the value None and the key
    out of the dump.  ``dump`` gives the canonical JSON form; None means
    the key is never echoed.
    """

    name: str
    parse: Callable
    default: object = REQUIRED
    dump: Callable | None = _same


def _parse_fields(raw, fields, where):
    """Parse the JSON object ``raw`` by a field table."""
    _reject_unknown(raw, [f.name for f in fields], where)
    out = {}
    for f in fields:
        if f.name in raw:
            out[f.name] = f.parse(raw[f.name], f.name)
        elif f.default is REQUIRED:
            raise ConfigurationError(f"{where} requires {f.name}")
        else:
            out[f.name] = None if f.default is None else f.parse(f.default, f.name)
    return out


def _dump_fields(obj, fields):
    """Canonical JSON form of the attributes of ``obj`` that a table names."""
    out = {}
    for f in fields:
        value = getattr(obj, f.name)
        if f.dump is not None and value is not None:
            out[f.name] = f.dump(value)
    return out


def _spec_parser(spec, kinds):
    """Parser of a JSON object {"kind": k, ...} whose other keys follow
    the field table ``kinds[k]``; it returns ``spec(k, **fields)``."""
    def parse(d, what):
        kind = _one_of(*kinds)(_as_object(d, what).get("kind"), f"{what} kind")
        rest = {k: v for k, v in d.items() if k != "kind"}
        return spec(kind, **_parse_fields(rest, kinds[kind], f"{kind} {what}"))
    return parse


def _spec_dump(kinds):
    """Canonical JSON form of a spec that ``_spec_parser(_, kinds)`` made."""
    return lambda spec: {"kind": spec.kind, **_dump_fields(spec, kinds[spec.kind])}


# Entry laws, each of mean zero and unit variance (ensembles.sample_array
# draws them):
#   bernoulli             +1 or -1 with probability 1/2 each
#   real_gaussian         N(0, 1), by the Marsaglia polar method
#   complex_gaussian      (g1 + i g2)/sqrt(2) with g1, g2 real Gaussian, E|z|^2 = 1
#   uniform_centered      uniform on [-sqrt(3), sqrt(3)]
#   two_point_asymmetric  sqrt((1-p)/p) with probability p, -sqrt(p/(1-p)) otherwise
#   pareto_symmetrized    a symmetric Pareto tail of index ``exponent``, rescaled
#                         to unit variance, which needs exponent > 2
_ENTRY_LAWS = {kind: () for kind in SCALAR_KINDS} | {
    "two_point_asymmetric": (
        Field("p", _checked(_as_float, lambda p: 0.0 < p < 1.0, "in (0, 1)"), 0.9),
    ),
    "pareto_symmetrized": (
        Field("exponent", _checked(_as_float, lambda a: a > 2.0, "above 2 (finite variance)"), 2.5),
    ),
}

_BASE_KINDS = {
    "zero": (),
    "two_block_diagonal": (
        Field("a", _as_float),
        Field("b", _as_float),
        Field("split", _checked(_as_float, lambda s: 0.0 <= s <= 1.0, "in [0, 1]"), 0.5),
        Field("scale_by_sqrt_n", _as_bool, False),
    ),
    "low_rank": (Field("rank", _POSITIVE_INT), Field("magnitude", _as_float)),
    "diagonal_from_measure": (Field("atoms", _nonempty(_as_complex), dump=_complex_list),),
    "explicit": (
        Field("entries",
              _checked(_tuple_of(_tuple_of(_as_complex)),
                       lambda rows: bool(rows) and all(len(r) == len(rows) for r in rows),
                       "a nonempty square list of rows"),
              dump=lambda rows: [_complex_list(row) for row in rows]),
    ),
}

_PROFILE_FIELDS = {
    "constant": (Field("value", _POSITIVE_FLOAT, 1.0),),
    "ramp": (Field("low", _POSITIVE_FLOAT), Field("high", _as_float)),
}

entry_law = _spec_parser(ScalarDistribution, _ENTRY_LAWS)
_entry_law_dump = _spec_dump(_ENTRY_LAWS)
_base = _spec_parser(BaseMatrixSpec, _BASE_KINDS)
_base_dump = _spec_dump(_BASE_KINDS)
_profile = _spec_parser(lambda kind, **kw: {"kind": kind, **kw}, _PROFILE_FIELDS)


def _common_fields(experiment):
    return (
        Field("schema_version", _checked(_as_int, lambda v: v == SCHEMA_VERSION,
                                         str(SCHEMA_VERSION))),
        Field("experiment", _one_of(experiment)),
        Field("master_seed", _checked(_as_int, lambda s: 0 <= s < 2**64,
                                      "a 64-bit unsigned integer")),
        Field("output_dir", _as_str, "out"),
        Field("threads", _POSITIVE_INT, 1),
        Field("thresholds", _thresholds_of(experiment), {}, dict),
    )


_MATRIX_FIELDS = (
    Field("n_list", _nonempty(_POSITIVE_INT), dump=list),
    Field("trials", _TRIAL_COUNT),
    Field("dist_x", entry_law, dump=_entry_law_dump),
    Field("base", _base, {"kind": "zero"}, _base_dump),
)

# circular and hermitize accept only mode "shift" and never echo it
_SHIFT_MODE = Field("mode", _one_of("shift"), "shift", None)

_OWN_FIELDS = {
    "circular": _MATRIX_FIELDS + (
        _SHIFT_MODE,
        Field("center", _as_complex, None, _complex_out),
    ),
    "universality": _MATRIX_FIELDS + (
        Field("mode", _one_of(*ASSEMBLY_MODES), "shift"),
        Field("dist_y", entry_law, None, _entry_law_dump),
        Field("profile", _profile, None, dict),
        Field("sandwich_k", _base, None, _base_dump),
        Field("sandwich_l", _base, None, _base_dump),
    ),
    "hermitize": _MATRIX_FIELDS + (
        _SHIFT_MODE,
        Field("z_grid", _nonempty(_as_complex), dump=_complex_list),
        Field("reference", _one_of("circular", "ds"), "circular"),
        Field("eps_exponent", _POSITIVE_FLOAT, 0.1),
    ),
    "ds_solve": (
        Field("h_atoms", _nonempty(_as_float), [0.0], list),
        Field("h_weights", _tuple_of(_as_float), [1.0], list),
        Field("c", _as_float, 1.0),
        Field("x_min", _as_float, 0.1),
        Field("x_max", _as_float, 3.9),
        Field("x_step", _POSITIVE_FLOAT, 1.0 / 400.0),
        Field("eta_schedule", _tuple_of(_as_float), DEFAULT_ETA_SCHEDULE, list),
        Field("agreement_tol", _as_float, 1e-3),
        Field("mass_check", _as_bool, False),
        Field("mp_oracle", _as_bool, False),
    ),
    "tails": _MATRIX_FIELDS + (
        Field("distance_n", _as_int, 2000),
        Field("distance_d", _as_int, 1000),
        Field("distance_trials", _POSITIVE_INT, 200),
    ),
    "lemmas": (
        Field("lemma_cases", _TRIAL_COUNT, 500),
        Field("max_size", _checked(_as_int, lambda n: n >= 4, "at least 4"), 30),
    ),
}

FIELDS = {name: _common_fields(name) + own for name, own in _OWN_FIELDS.items()}

EXPERIMENTS = tuple(FIELDS)


def ds_grid_count(x_min, x_max, x_step):
    """Points of the ds_solve x grid; more than 2^20 is a ConfigurationError."""
    steps = (x_max - x_min) / x_step
    if not steps < 2**20 - 0.5:  # round(steps) + 1 > 2^20, or steps is inf
        raise ConfigurationError(f"ds_solve grid has more than 2^20 points ({steps:.3g} steps)")
    return int(round(steps)) + 1


def _check_cross_fields(kw):
    """The rules that tie two fields of one experiment together."""
    experiment = kw["experiment"]
    # sandwich factors are built without a stream
    for name in ("base", "sandwich_k", "sandwich_l"):
        if kw.get(name) is not None:
            for n in kw["n_list"]:
                require_buildable(name, kw[name], n, stream=name == "base")
    if experiment == "universality":
        # a factor the mode never reads would be echoed in the manifest
        # although it shaped no byte
        for name, mode in (("profile", "hadamard_profile"), ("sandwich_k", "sandwich"),
                           ("sandwich_l", "sandwich")):
            if kw[name] is not None and kw["mode"] != mode:
                raise ConfigurationError(f"{name} is read only in {mode} mode, "
                                         f"not in {kw['mode']} mode")
        if kw["mode"] == "hadamard_profile" and kw["profile"] is None:
            raise ConfigurationError("hadamard_profile mode requires a profile spec")
        profile = kw["profile"]
        if profile is not None and profile["kind"] == "ramp" and profile["low"] > profile["high"]:
            raise ConfigurationError("ramp profile needs low <= high")
        if kw["mode"] == "sandwich" and (kw["sandwich_k"] is None or kw["sandwich_l"] is None):
            raise ConfigurationError("sandwich mode requires sandwich_k and sandwich_l")
    elif experiment == "ds_solve":
        if len(kw["h_weights"]) != len(kw["h_atoms"]):
            raise ConfigurationError("h_weights must match h_atoms")
        if not kw["x_min"] < kw["x_max"]:
            raise ConfigurationError("ds_solve needs x_min < x_max")
        ds_grid_count(kw["x_min"], kw["x_max"], kw["x_step"])
        if kw["mp_oracle"] and (kw["h_atoms"] != (0.0,) or kw["c"] != 1.0):
            raise ConfigurationError("mp_oracle gates require H = delta_0 and c = 1")
    elif experiment == "tails":
        if not 1 <= kw["distance_d"] < kw["distance_n"]:
            raise ConfigurationError("tails needs 1 <= distance_d < distance_n")
        if not kw["thresholds"].get("sigma_min_exponent", 1.0) > 0.0:  # floor n ** -exponent
            raise ConfigurationError("threshold sigma_min_exponent must be positive")


def _attribute(f):
    """ExperimentConfig attribute of a field; its default is the parsed
    table default (None for a required or optional field)."""
    if f.default is REQUIRED or f.default is None:
        return f.name, object, None
    return f.name, object, dataclasses.field(default_factory=lambda: f.parse(f.default, f.name))


def _resolved_thresholds(self):
    return {**DEFAULT_THRESHOLDS[self.experiment], **self.thresholds}


# one attribute per key of any experiment; tables that share a key share its default
ExperimentConfig = dataclasses.make_dataclass(
    "ExperimentConfig",
    [_attribute(f) for f in {f.name: f for table in FIELDS.values() for f in table}.values()],
    frozen=True,
    namespace={"__doc__": "Validated configuration for one experiment run.",
               "__module__": __name__, "resolved_thresholds": _resolved_thresholds})


def config_from_dict(raw):
    """Parse and validate a configuration dictionary (strict)."""
    experiment = _one_of(*EXPERIMENTS)(_as_object(raw, "config").get("experiment"), "experiment")
    kw = _parse_fields(raw, FIELDS[experiment], f"{experiment} config")
    _check_cross_fields(kw)
    return ExperimentConfig(**kw)


def config_to_dict(cfg):
    """Canonical JSON-ready dictionary (inverse of config_from_dict)."""
    return _dump_fields(cfg, FIELDS[cfg.experiment])


def read_config_json(path):
    """The JSON object in the config file at ``path``, not yet parsed."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config {path} is not valid JSON: {exc}") from exc
    return _as_object(raw, f"config {path}")

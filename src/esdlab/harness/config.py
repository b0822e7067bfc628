"""Strict JSON experiment configuration.

Configs round-trip losslessly through JSON; unknown keys are rejected at
every level so a typo in a threshold name can never silently fall back
to a default.  Resolved thresholds (defaults merged with overrides) are
echoed into the run manifest.

Each experiment has one field table in ``FIELDS`` and one of gate
thresholds in ``THRESHOLDS``; each entry law and base-matrix kind has
one too, and so have the profile and the sandwich factors.  A table
entry states a key's parser (range checks included), its default and
its dump form once; parsing, unknown-key rejection and the canonical
dump are loops over the table, and the record types (``ExperimentConfig``,
``ScalarDistribution``, ``BaseMatrixSpec``) are built from the tables.
The rules that tie two fields together are in ``_check_cross_fields``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from typing import Callable, NamedTuple

import numpy as np

from ..ensembles import SCALAR_KINDS, require_buildable, two_blocks
from ..errors import ConfigurationError

SCHEMA_VERSION = 1

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
_NONNEGATIVE_FLOAT = _checked(_as_float, lambda x: x >= 0.0, "at least 0")
_FRACTION = _checked(_as_float, lambda x: 0.0 <= x <= 1.0, "in [0, 1]")
# numpy counts bytes in int64: an n-by-n complex array with 16 n^2 >= 2^63
# raises ValueError, not the MemoryError of a size too large for memory
_SIZE = _checked(_as_int, lambda n: 1 <= n < 2**29, "at least 1 and below 2^29")


# ------------------------------------------------------------- field tables

REQUIRED = object()


def _same(value):
    return value


class Field(NamedTuple):
    """One key of a JSON object.

    ``parse(value, name)`` turns its JSON value into the parsed value.
    ``default`` is the JSON value used when the key is absent; REQUIRED
    makes the key mandatory, and None leaves the value None and the key
    out of the dump.  ``dump`` gives the canonical JSON form.
    """

    name: str
    parse: Callable
    default: object = REQUIRED
    dump: Callable = _same


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
        if value is not None:
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


def _record(name, doc, tables, required=(), **methods):
    """Frozen dataclass ``name``: the ``required`` attributes, then one per
    key that any field table in ``tables`` names, None by default."""
    keys = dict.fromkeys(f.name for table in tables for f in table)
    return dataclasses.make_dataclass(
        name, [*required, *((key, object, None) for key in keys)], frozen=True,
        namespace={"__doc__": doc, "__module__": __name__, **methods})


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

# Base matrices M_n (ensembles.build_base_matrix realizes them).  With
# scale_by_sqrt_n the two-block diagonal is sqrt(n) diag(a,..,a,b,..,b),
# the form that survives the global 1/sqrt(n) normalization as an O(1) shift.
_BASE_KINDS = {
    "zero": (),
    "two_block_diagonal": (
        Field("a", _as_float),
        Field("b", _as_float),
        Field("split", _FRACTION, 0.5),
        Field("scale_by_sqrt_n", _as_bool, False),
    ),
    "low_rank": (Field("rank", _POSITIVE_INT), Field("magnitude", _as_float)),
    "diagonal_from_measure": (Field("atoms", _nonempty(_as_complex), dump=_complex_list),),
}

# the entrywise scale C of the profile assembly M + C * X ramps from low to
# high along the antidiagonals
_PROFILE_FIELDS = (Field("low", _POSITIVE_FLOAT), Field("high", _as_float))

# Gate thresholds.  A tolerance (a `<` gate) is positive, a pass fraction
# is in [0, 1], and a slack scale (a `<=` gate) or a lower bound is at least 0.
THRESHOLDS = {
    "circular": (
        Field("radial_ks", _POSITIVE_FLOAT, 0.05),
        Field("angular_ks", _POSITIVE_FLOAT, 0.05),
        Field("ks_pass_fraction", _FRACTION, 0.9),
        Field("in_disk_radius", _POSITIVE_FLOAT, 1.05),
        Field("in_disk_fraction", _FRACTION, 0.99),
    ),
    "universality": (Field("final_median_bl", _POSITIVE_FLOAT, 0.1),),
    "hermitize": (
        Field("potential_gap", _POSITIVE_FLOAT, 0.05),
        Field("potential_pass_fraction", _FRACTION, 0.9),
        Field("regularization_gap", _POSITIVE_FLOAT, 0.02),
    ),
    "ds_solve": (
        Field("oracle_gap", _POSITIVE_FLOAT, 1e-8),
        Field("density_sup_error", _POSITIVE_FLOAT, 1e-2),
    ),
    "tails": (
        Field("sigma_min_exponent", _POSITIVE_FLOAT, 10.0),  # floor n ** -exponent
        Field("distance_constant", _NONNEGATIVE_FLOAT, 0.5),
        Field("mean_dist2_low", _NONNEGATIVE_FLOAT, 0.95),
        Field("mean_dist2_high", _POSITIVE_FLOAT, 1.05),
    ),
    "lemmas": (
        Field("det_identity", _POSITIVE_FLOAT, 1e-6),
        Field("neg_second_moment", _POSITIVE_FLOAT, 1e-9),
        Field("interlacing_slack_scale", _NONNEGATIVE_FLOAT, 1e-8),
        Field("weyl_slack_scale", _NONNEGATIVE_FLOAT, 1e-8),
    ),
}


def _overrides(fields):
    """Parser of an object that sets some keys of ``fields``; it returns those alone."""
    by_name = {f.name: f for f in fields}

    def parse(value, what):
        _reject_unknown(_as_object(value, what), by_name, what)
        return {k: by_name[k].parse(v, f"threshold {k}") for k, v in value.items()}
    return parse


# a parameter that the spec's kind does not take is None
ScalarDistribution = _record(
    "ScalarDistribution", "An entry law of mean zero and unit variance.",
    _ENTRY_LAWS.values(), ["kind"])
BaseMatrixSpec = _record(
    "BaseMatrixSpec", "A deterministic base matrix family M_n.", _BASE_KINDS.values(), ["kind"])

entry_law = _spec_parser(ScalarDistribution, _ENTRY_LAWS)


def scalar_distribution(kind, **params):
    """The validated ScalarDistribution ``kind``, parsed through the entry-law table."""
    return entry_law({"kind": kind, **params}, "scalar distribution")


_entry_law_dump = _spec_dump(_ENTRY_LAWS)
_base = _spec_parser(BaseMatrixSpec, _BASE_KINDS)
_base_dump = _spec_dump(_BASE_KINDS)
# a sandwich factor is a two-block diagonal written without its kind, so
# K X L is the entrywise product (k l^T) * X
_TWO_BLOCKS = _BASE_KINDS["two_block_diagonal"]


def _factor(value, what):
    return BaseMatrixSpec("two_block_diagonal",
                          **_parse_fields(_as_object(value, what), _TWO_BLOCKS, what))


def _factor_dump(spec):
    return _dump_fields(spec, _TWO_BLOCKS)


def _profile(value, what):
    return _parse_fields(_as_object(value, what), _PROFILE_FIELDS, what)


def _common_fields(experiment):
    return (
        Field("schema_version", _checked(_as_int, lambda v: v == SCHEMA_VERSION,
                                         str(SCHEMA_VERSION))),
        Field("experiment", _one_of(experiment)),
        Field("master_seed", _checked(_as_int, lambda s: 0 <= s < 2**64,
                                      "a 64-bit unsigned integer")),
        Field("thresholds", _overrides(THRESHOLDS[experiment]), {}, dict),
    )


_MATRIX_FIELDS = (
    # sizes in increasing order: the universality gates read the medians
    # in list order, and hermitize writes one field file per size
    Field("n_list", _checked(_nonempty(_SIZE),
                             lambda ns: all(a < b for a, b in zip(ns, ns[1:])),
                             "strictly increasing"), dump=list),
    Field("trials", _TRIAL_COUNT),
    Field("dist_x", entry_law, dump=_entry_law_dump),
    Field("base", _base, {"kind": "zero"}, _base_dump),
    # _fold_trials starts min(threads, trials) OS threads
    Field("threads", _checked(_as_int, lambda n: 1 <= n <= 64, "at least 1 and at most 64"), 1),
)

_OWN_FIELDS = {
    "circular": _MATRIX_FIELDS,
    "universality": _MATRIX_FIELDS + (
        Field("dist_y", entry_law, dump=_entry_law_dump),
        Field("profile", _profile, None, dict),
        Field("sandwich_k", _factor, None, _factor_dump),
        Field("sandwich_l", _factor, None, _factor_dump),
    ),
    "hermitize": _MATRIX_FIELDS + (
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
        Field("eta_schedule", _tuple_of(_as_float), [0.001, 0.0001], list),
        Field("agreement_tol", _POSITIVE_FLOAT, 1e-3),
        Field("mp_oracle", _as_bool, False),
    ),
    "tails": _MATRIX_FIELDS + (
        Field("distance_n", _SIZE, 2000),
        Field("distance_d", _as_int, 1000),
        Field("distance_trials", _TRIAL_COUNT, 200),
    ),
    "lemmas": (
        Field("lemma_cases", _TRIAL_COUNT, 500),
        Field("max_size", _checked(_SIZE, lambda n: n >= 4, "at least 4"), 30),
    ),
}

FIELDS = {name: _common_fields(name) + own for name, own in _OWN_FIELDS.items()}

EXPERIMENTS = tuple(FIELDS)


# where the ds_solve mp_oracle gates compare against the Marchenko-Pastur law
MP_WINDOW = (0.1, 3.9)


def ds_grid(x_min, x_max, x_step):
    """The ds_solve x grid; more than 2^20 points is a ConfigurationError."""
    steps = (x_max - x_min) / x_step
    if not steps < 2**20 - 0.5:  # round(steps) + 1 > 2^20, or steps is inf
        raise ConfigurationError(f"ds_solve grid has more than 2^20 points ({steps:.3g} steps)")
    return np.linspace(x_min, x_max, int(round(steps)) + 1)


def _resolve_thresholds(experiment, overrides):
    """The gate thresholds of ``experiment``: the table defaults merged with ``overrides``."""
    return {**_parse_fields({}, THRESHOLDS[experiment], "thresholds"), **overrides}


def _check_cross_fields(kw):
    """The rules that tie two fields of one experiment together."""
    experiment = kw["experiment"]
    if kw.get("base") is not None:
        for n in kw["n_list"]:
            require_buildable("base", kw["base"], n)
    if experiment == "universality":
        # the keys set select the assembly: a profile, both sandwich factors, or neither
        factors = [name for name in ("sandwich_k", "sandwich_l") if kw[name] is not None]
        if len(factors) == 1:
            raise ConfigurationError("sandwich_k and sandwich_l must be set together")
        if factors and kw["profile"] is not None:
            raise ConfigurationError("a profile excludes sandwich_k and sandwich_l")
        if kw["profile"] is not None and kw["profile"]["low"] > kw["profile"]["high"]:
            raise ConfigurationError("profile needs low <= high")
        for name in factors:
            # singular iff a nonempty block is zero (n may be too large to build the diagonal)
            for n in kw["n_list"]:
                values, lengths = two_blocks(kw[name], n)
                if 0.0 in values[lengths > 0]:
                    raise ConfigurationError(f"{name} has a zero diagonal entry at n = {n}")
    elif experiment == "ds_solve":
        if len(kw["h_weights"]) != len(kw["h_atoms"]):
            raise ConfigurationError("h_weights must match h_atoms")
        if not kw["x_min"] < kw["x_max"]:
            raise ConfigurationError("ds_solve needs x_min < x_max")
        grid = ds_grid(kw["x_min"], kw["x_max"], kw["x_step"])
        if kw["mp_oracle"]:
            if kw["h_atoms"] != (0.0,) or kw["c"] != 1.0:
                raise ConfigurationError("mp_oracle gates require H = delta_0 and c = 1")
            low, high = MP_WINDOW
            if not np.any((grid >= low) & (grid <= high)):
                raise ConfigurationError(f"the mp_oracle density gate needs a grid point "
                                         f"in [{low:g}, {high:g}]")
        elif kw["thresholds"]:
            # every ds_solve threshold belongs to an mp_oracle gate
            raise ConfigurationError(f"thresholds {sorted(kw['thresholds'])} are read only "
                                     f"with mp_oracle")
    elif experiment == "tails":
        # the ratio gates read sigma_{n-i} with 1 <= i <= n - 1
        if min(kw["n_list"]) < 2:
            raise ConfigurationError("tails needs every n_list entry to be at least 2")
        if not 1 <= kw["distance_d"] < kw["distance_n"]:
            raise ConfigurationError("tails needs 1 <= distance_d < distance_n")
        # the closed interval of the `in` gate must not be empty, or it can never pass
        thr = _resolve_thresholds(experiment, kw["thresholds"])
        if thr["mean_dist2_low"] > thr["mean_dist2_high"]:
            raise ConfigurationError(f"threshold mean_dist2_low ({thr['mean_dist2_low']:g}) "
                                     f"exceeds mean_dist2_high ({thr['mean_dist2_high']:g})")


def _resolved_thresholds(self):
    return _resolve_thresholds(self.experiment, self.thresholds)


# one attribute per key of any experiment; a key outside the experiment's own table is None
ExperimentConfig = _record("ExperimentConfig", "Validated configuration for one experiment run.",
                           FIELDS.values(), resolved_thresholds=_resolved_thresholds)


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
    except (UnicodeDecodeError, RecursionError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"config {path} is not valid JSON: {exc}") from exc
    return _as_object(raw, f"config {path}")

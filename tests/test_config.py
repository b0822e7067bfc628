"""Config field tables: pinned canonical dumps and gate thresholds, a
mutation property and the README's lists of keys, kinds and thresholds."""

import copy
import dataclasses
import importlib.util
import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esdlab import (
    BaseMatrixSpec,
    ConfigurationError,
    RngStream,
    ScalarDistribution,
    sample_array,
)
from esdlab.harness import config_from_dict, config_to_dict
from esdlab.harness.experiments import THRESHOLDS
from esdlab.harness.config import (
    _BASE_KINDS,
    _ENTRY_LAWS,
    _POSITIVE_FLOAT,
    _PROFILE_FIELDS,
    FIELDS,
    Field,
    _record,
    _spec_dump,
    _spec_parser,
)

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

_ROUNDTRIP = {
    "circular": {"schema_version": 1, "experiment": "circular", "master_seed": 7,
                 "n_list": [50], "trials": 2, "dist_x": {"kind": "bernoulli"},
                 "base": {"kind": "zero"}},
    "universality": {"schema_version": 1, "experiment": "universality", "master_seed": 3,
                     "n_list": [40, 80], "trials": 2,
                     "dist_x": {"kind": "bernoulli"}, "dist_y": {"kind": "real_gaussian"},
                     "base": {"kind": "two_block_diagonal", "a": 1.0, "b": 2.5, "split": 0.5,
                              "scale_by_sqrt_n": True},
                     "profile": {"low": 0.5, "high": 2.0}},
    "hermitize": {"schema_version": 1, "experiment": "hermitize", "master_seed": 3,
                  "n_list": [64], "trials": 2, "dist_x": {"kind": "real_gaussian"},
                  "base": {"kind": "zero"}, "z_grid": [0.0, [0.5, 0.5]],
                  "reference": "circular", "eps_exponent": 1.5},
    "ds_solve": {"schema_version": 1, "experiment": "ds_solve", "master_seed": 3,
                 "h_atoms": [0.0], "h_weights": [1.0], "c": 1.0, "mp_oracle": True},
    "tails": {"schema_version": 1, "experiment": "tails", "master_seed": 3,
              "n_list": [50], "trials": 3, "dist_x": {"kind": "bernoulli"},
              "base": {"kind": "zero"}, "distance_n": 100, "distance_d": 50,
              "distance_trials": 5},
    "lemmas": {"schema_version": 1, "experiment": "lemmas", "master_seed": 3,
               "lemma_cases": 10, "max_size": 8},
}

# The benchmark's workload configs, read from its own module, at its
# reference seed: a key that a workload sets cannot leave the field tables
# unnoticed.
_WORKLOADS_PATH = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", _WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_WORKLOADS = _load_workloads()
_BENCH = {w: _WORKLOADS.config(w, _WORKLOADS.REFERENCE_SEED) for w in _WORKLOADS.CONFIGS}

# One config of each experiment with every optional field set; integers
# stand in for some floats, and every base and distribution kind appears.
_FULL = {
    "circular": {"schema_version": 1, "experiment": "circular", "master_seed": 2**64 - 1,
                 "threads": 2, "n_list": [30, 60.0], "trials": 3,
                 "dist_x": {"kind": "two_point_asymmetric", "p": 0.25},
                 "base": {"kind": "diagonal_from_measure", "atoms": [1, [0.5, -0.5]]}},
    "universality": {"schema_version": 1, "experiment": "universality", "master_seed": 0,
                     "threads": 3, "n_list": [2], "trials": 4,
                     "dist_x": {"kind": "pareto_symmetrized", "exponent": 5},
                     "dist_y": {"kind": "complex_gaussian"},
                     "base": {"kind": "two_block_diagonal", "a": 1, "b": 2.5, "split": 0.25,
                              "scale_by_sqrt_n": False},
                     "sandwich_k": {"a": 3, "b": 3, "split": 1},
                     "sandwich_l": {"a": 1, "b": -0.5, "scale_by_sqrt_n": True}},
    "hermitize": {"schema_version": 1, "experiment": "hermitize", "master_seed": 11,
                  "threads": 1, "n_list": [16, 32], "trials": 1,
                  "dist_x": {"kind": "uniform_centered"},
                  "base": {"kind": "low_rank", "rank": 1, "magnitude": 0.5},
                  "z_grid": [0, [0.5, 0.5], -1.5, [0.0, 2]],
                  "reference": "ds", "eps_exponent": 0.25},
    "ds_solve": {"schema_version": 1, "experiment": "ds_solve", "master_seed": 5,
                 "h_atoms": [0.5, 2], "h_weights": [0.25, 0.75], "c": 1, "x_min": 0.2,
                 "x_max": 5, "x_step": 0.05, "mp_oracle": False},
    "tails": {"schema_version": 1, "experiment": "tails", "master_seed": 12,
              "threads": 2, "n_list": [10, 20], "trials": 5,
              "dist_x": {"kind": "real_gaussian"},
              "base": {"kind": "zero"}, "distance_n": 300, "distance_d": 100,
              "distance_trials": 7},
    "lemmas": {"schema_version": 1, "experiment": "lemmas", "master_seed": 13,
               "lemma_cases": 20, "max_size": 6},
}

VALID = {**{f"roundtrip_{k}": v for k, v in _ROUNDTRIP.items()},
         **{f"bench_{k}": v for k, v in _BENCH.items()},
         **{f"full_{k}": v for k, v in _FULL.items()}}

# json.dumps(config_to_dict(cfg), sort_keys=True) of each VALID config,
# recorded before the field tables replaced the per-experiment parsing;
# the ds_solve and hadamard_profile entries lost the deleted keys since
# (mass_check, the mass thresholds, the profile kind and the first two
# default eta levels, which no artifact byte read), and full_universality's
# sandwich_l is no longer of the deleted explicit kind, nor its sandwich_k
# of the low_rank kind, which a sandwich factor no longer takes.  Both
# universality entries lost the deleted mode key, and the factors their kind.
# Every entry lost output_dir, which is no config key, and the ds_solve and
# lemmas entries lost threads, which only experiments that fold trials take.
# Every entry lost thresholds: the gate thresholds are no config key.  The
# ds_solve entries lost eta_schedule and agreement_tol: the eta levels and
# the agreement tolerance of the Stieltjes inversion are constants.
PINNED = {
    "bench_circular_t2": (
        '{"base": {"kind": "zero"}, "dist_x": {"kind": "real_gaussian"},'
        ' "experiment": "circular", "master_seed": 20260808, "n_list": [1000],'
        ' "schema_version": 1, "threads": 2, "trials": 2}'),
    "bench_ds_mp": (
        '{"c": 1.0, "experiment": "ds_solve", "h_atoms": [0.0], "h_weights": [1.0],'
        ' "master_seed": 20260808, "mp_oracle": true, "schema_version": 1, "x_max": 3.9,'
        ' "x_min": 0.1, "x_step": 0.0025}'),
    "bench_hermitize_t1": (
        '{"base": {"kind": "zero"}, "dist_x": {"kind": "real_gaussian"}, "eps_exponent": 0.1,'
        ' "experiment": "hermitize", "master_seed": 20260808, "n_list": [600],'
        ' "reference": "circular", "schema_version": 1, "threads": 1, "trials": 2,'
        ' "z_grid": [0.0, 0.5, [0.5, 0.5], 2.0]}'),
    "bench_tails_t1": (
        '{"base": {"kind": "zero"}, "dist_x": {"kind": "bernoulli"}, "distance_d": 1000,'
        ' "distance_n": 2000, "distance_trials": 200, "experiment": "tails",'
        ' "master_seed": 20260808, "n_list": [100, 200, 400], "schema_version": 1,'
        ' "threads": 1, "trials": 100}'),
    "full_circular": (
        '{"base": {"atoms": [1.0, [0.5, -0.5]], "kind": "diagonal_from_measure"},'
        ' "dist_x": {"kind": "two_point_asymmetric", "p": 0.25}, "experiment": "circular",'
        ' "master_seed": 18446744073709551615, "n_list": [30, 60], "schema_version": 1,'
        ' "threads": 2, "trials": 3}'),
    "full_ds_solve": (
        '{"c": 1.0, "experiment": "ds_solve", "h_atoms": [0.5, 2.0], "h_weights": [0.25, 0.75],'
        ' "master_seed": 5, "mp_oracle": false, "schema_version": 1, "x_max": 5.0,'
        ' "x_min": 0.2, "x_step": 0.05}'),
    "full_hermitize": (
        '{"base": {"kind": "low_rank", "magnitude": 0.5, "rank": 1},'
        ' "dist_x": {"kind": "uniform_centered"}, "eps_exponent": 0.25,'
        ' "experiment": "hermitize", "master_seed": 11, "n_list": [16, 32], "reference": "ds",'
        ' "schema_version": 1, "threads": 1, "trials": 1, "z_grid": [0.0, [0.5, 0.5], -1.5,'
        ' [0.0, 2.0]]}'),
    "full_lemmas": (
        '{"experiment": "lemmas", "lemma_cases": 20, "master_seed": 13, "max_size": 6,'
        ' "schema_version": 1}'),
    "full_tails": (
        '{"base": {"kind": "zero"}, "dist_x": {"kind": "real_gaussian"}, "distance_d": 100,'
        ' "distance_n": 300, "distance_trials": 7, "experiment": "tails", "master_seed": 12,'
        ' "n_list": [10, 20], "schema_version": 1, "threads": 2, "trials": 5}'),
    "full_universality": (
        '{"base": {"a": 1.0, "b": 2.5, "kind": "two_block_diagonal",'
        ' "scale_by_sqrt_n": false, "split": 0.25}, "dist_x": {"exponent": 5.0,'
        ' "kind": "pareto_symmetrized"}, "dist_y": {"kind": "complex_gaussian"},'
        ' "experiment": "universality", "master_seed": 0, "n_list": [2],'
        ' "sandwich_k": {"a": 3.0, "b": 3.0, "scale_by_sqrt_n": false, "split": 1.0},'
        ' "sandwich_l": {"a": 1.0, "b": -0.5, "scale_by_sqrt_n": true, "split": 0.5},'
        ' "schema_version": 1, "threads": 3, "trials": 4}'),
    "roundtrip_circular": (
        '{"base": {"kind": "zero"}, "dist_x": {"kind": "bernoulli"},'
        ' "experiment": "circular", "master_seed": 7, "n_list": [50], "schema_version": 1,'
        ' "threads": 1, "trials": 2}'),
    "roundtrip_ds_solve": (
        '{"c": 1.0, "experiment": "ds_solve", "h_atoms": [0.0], "h_weights": [1.0],'
        ' "master_seed": 3, "mp_oracle": true, "schema_version": 1, "x_max": 3.9,'
        ' "x_min": 0.1, "x_step": 0.0025}'),
    "roundtrip_hermitize": (
        '{"base": {"kind": "zero"}, "dist_x": {"kind": "real_gaussian"}, "eps_exponent": 1.5,'
        ' "experiment": "hermitize", "master_seed": 3, "n_list": [64],'
        ' "reference": "circular", "schema_version": 1, "threads": 1, "trials": 2,'
        ' "z_grid": [0.0, [0.5, 0.5]]}'),
    "roundtrip_lemmas": (
        '{"experiment": "lemmas", "lemma_cases": 10, "master_seed": 3, "max_size": 8,'
        ' "schema_version": 1}'),
    "roundtrip_tails": (
        '{"base": {"kind": "zero"}, "dist_x": {"kind": "bernoulli"}, "distance_d": 50,'
        ' "distance_n": 100, "distance_trials": 5, "experiment": "tails", "master_seed": 3,'
        ' "n_list": [50], "schema_version": 1, "threads": 1, "trials": 3}'),
    "roundtrip_universality": (
        '{"base": {"a": 1.0, "b": 2.5, "kind": "two_block_diagonal", "scale_by_sqrt_n": true,'
        ' "split": 0.5}, "dist_x": {"kind": "bernoulli"}, "dist_y": {"kind": "real_gaussian"},'
        ' "experiment": "universality", "master_seed": 3, "n_list": [40, 80],'
        ' "profile": {"high": 2.0, "low": 0.5}, "schema_version": 1, "threads": 1,'
        ' "trials": 2}'),
}


@pytest.mark.parametrize("name", sorted(VALID))
def test_canonical_dump_pinned(name):
    dump = json.dumps(config_to_dict(config_from_dict(VALID[name])), sort_keys=True)
    assert dump == PINNED[name]


# the benchmark's self-check runs these
@pytest.mark.parametrize("workload", sorted(_WORKLOADS.TINY_CONFIGS))
def test_benchmark_tiny_configs_parse(workload):
    raw = _WORKLOADS.config(workload, _WORKLOADS.REFERENCE_SEED, tiny=True)
    canon = config_to_dict(config_from_dict(raw))
    assert config_to_dict(config_from_dict(json.loads(json.dumps(canon)))) == canon


# the gate thresholds, constants of the claims
_THRESHOLD_VALUES = {
    "circular": {"radial_ks": 0.05, "angular_ks": 0.05, "ks_pass_fraction": 0.9,
                 "in_disk_radius": 1.05, "in_disk_fraction": 0.99},
    "universality": {"final_median_bl": 0.1},
    "hermitize": {"potential_gap": 0.05, "potential_pass_fraction": 0.9,
                  "regularization_gap": 0.02},
    "ds_solve": {"oracle_gap": 1e-8, "density_sup_error": 1e-2, "agreement_tol": 1e-3},
    "tails": {"sigma_min_exponent": 10.0, "distance_constant": 0.5, "mean_dist2_low": 0.95,
              "mean_dist2_high": 1.05},
    "lemmas": {"det_identity": 1e-6, "neg_second_moment": 1e-9,
               "interlacing_slack_scale": 1e-8, "weyl_slack_scale": 1e-8,
               "weyl_normal_equality": 1e-10, "weyl_nilpotent_mass": 1e-12},
}


@pytest.mark.parametrize("experiment", sorted(_ROUNDTRIP))
def test_threshold_defaults_pinned(experiment):
    assert set(THRESHOLDS) == set(FIELDS)
    assert THRESHOLDS[experiment] == _THRESHOLD_VALUES[experiment]
    assert all(type(v) is float for v in THRESHOLDS[experiment].values())


@pytest.mark.parametrize("experiment", sorted(_ROUNDTRIP))
def test_keys_of_other_experiments_are_none(experiment):
    cfg = config_from_dict(_ROUNDTRIP[experiment])
    own = {f.name for f in FIELDS[experiment]}
    other = {f.name for table in FIELDS.values() for f in table} - own
    assert other and all(getattr(cfg, name) is None for name in other)


def test_spec_types_are_built_from_the_kind_tables():
    for spec, kinds in ((ScalarDistribution, _ENTRY_LAWS), (BaseMatrixSpec, _BASE_KINDS)):
        params = [f.name for table in kinds.values() for f in table]
        assert [f.name for f in dataclasses.fields(spec)] == ["kind", *dict.fromkeys(params)]
    # a new kind with a new parameter is one table entry and nothing else
    kinds = {**_ENTRY_LAWS, "sparse": (Field("theta", _POSITIVE_FLOAT, 0.5),)}
    spec = _record("Law", "An entry law.", kinds.values(), ["kind"])
    parse, dump = _spec_parser(spec, kinds), _spec_dump(kinds)
    law = parse({"kind": "sparse", "theta": 2}, "law")
    assert law == spec("sparse", theta=2.0) and law.p is None
    assert dump(law) == {"kind": "sparse", "theta": 2.0}
    assert parse(json.loads(json.dumps(dump(law))), "law") == law
    assert dump(parse({"kind": "sparse"}, "law")) == {"kind": "sparse", "theta": 0.5}
    with pytest.raises(ConfigurationError):
        parse({"kind": "bernoulli", "theta": 2}, "law")
    # the sampler takes a spec, not the name of its kind
    with pytest.raises(ConfigurationError):
        sample_array("bernoulli", RngStream(1, 0), 3)


def test_threads_above_the_ceiling_are_rejected_when_parsed():
    # parsing only: no thread is started
    assert config_from_dict({**_ROUNDTRIP["tails"], "threads": 64}).threads == 64
    for threads in (65, 2**20 - 1):
        with pytest.raises(ConfigurationError, match="at most 64"):
            config_from_dict({**_ROUNDTRIP["circular"], "threads": threads,
                              "trials": 2**20 - 1})


# universality lost its mode key too: the keys set select its assembly
@pytest.mark.parametrize("experiment", sorted(_ROUNDTRIP))
def test_shift_mode_key_is_unknown_outside_universality(experiment):
    with pytest.raises(ConfigurationError, match="unknown keys"):
        config_from_dict({**_ROUNDTRIP[experiment], "mode": "shift"})


def test_readme_names_every_key():
    readme = README.read_text(encoding="utf-8")
    for tables in (FIELDS, _ENTRY_LAWS, _BASE_KINDS, {"profile": _PROFILE_FIELDS}):
        for table in tables.values():
            for f in table:
                assert f"`{f.name}`" in readme, f.name


def test_readme_names_every_kind():
    readme = README.read_text(encoding="utf-8")
    for table in (_ENTRY_LAWS, _BASE_KINDS):
        for kind in table:
            assert f"`{kind}`" in readme, kind


def test_readme_names_every_threshold():
    readme = README.read_text(encoding="utf-8")
    for table in THRESHOLDS.values():
        for name in table:
            assert f"`{name}`" in readme, name


# --------------------------------------------------------- mutation property

_KEYS = sorted({f.name for table in FIELDS.values() for f in table}
               | {name for table in THRESHOLDS.values() for name in table}
               | {"kind", "bogus", "thresholds", "eta_schedule", "agreement_tol"})

_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 2**65), st.floats(-1e3, 1e3),
    st.text(max_size=6), st.lists(st.integers(-2, 5), max_size=3),
    st.dictionaries(st.sampled_from(_KEYS), st.integers(-2, 5), max_size=2))


def _containers(node):
    """Every object and array in a JSON tree, the root first."""
    found = [node]
    children = node.values() if isinstance(node, dict) else node
    for child in children:
        if isinstance(child, (dict, list)):
            found.extend(_containers(child))
    return found


@st.composite
def _mutated_configs(draw):
    """A VALID config with one key dropped, one key added, or one value
    swapped for a value of another JSON type, at any depth."""
    raw = copy.deepcopy(VALID[draw(st.sampled_from(sorted(VALID)))])
    node = draw(st.sampled_from(_containers(raw)))
    keys = list(node) if isinstance(node, dict) else list(range(len(node)))
    action = draw(st.sampled_from(["drop", "add", "swap"] if keys else ["add"]))
    if action == "add":
        value = draw(_JSON_VALUES)
        if isinstance(node, dict):
            node[draw(st.sampled_from(_KEYS))] = value
        else:
            node.append(value)
        return raw
    key = draw(st.sampled_from(keys))
    if action == "drop":
        del node[key]
    else:
        old = type(node[key])
        node[key] = draw(_JSON_VALUES.filter(lambda v: type(v) is not old))
    return raw


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_mutated_configs())
def test_mutated_config_round_trips_or_is_rejected(raw):
    try:
        cfg = config_from_dict(raw)
    except ConfigurationError:
        return
    canon = config_to_dict(cfg)
    again = config_to_dict(config_from_dict(json.loads(json.dumps(canon))))
    assert again == canon

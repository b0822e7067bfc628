"""Config parsing, emission formats, runners, CLI exit codes."""

import json
import math
import os

import numpy as np
import pytest

from esdlab import ConfigurationError, EmpiricalMeasure2D, RngStream
from esdlab.harness import (
    config_from_dict,
    config_to_dict,
    format_number,
    run_experiment,
    scatter_svg,
)
from esdlab.harness.cli import main as cli_main
from esdlab.harness.config import read_config_json
from esdlab.harness.emit import write_manifest, write_trials_csv
from esdlab.harness.experiments import GateResult, TrialRecord


def _circular_raw(seed=7, n=50, trials=2, **extra):
    raw = {"schema_version": 1, "experiment": "circular", "master_seed": seed,
           "n_list": [n], "trials": trials, "dist_x": {"kind": "bernoulli"},
           "base": {"kind": "zero"}}
    raw.update(extra)
    return raw


# ------------------------------------------------------------------- config

def test_unknown_keys_rejected_everywhere():
    with pytest.raises(ConfigurationError):
        config_from_dict(_circular_raw(bogus=1))
    with pytest.raises(ConfigurationError):
        config_from_dict(_circular_raw(thresholds={"not_a_threshold": 1.0}))
    with pytest.raises(ConfigurationError):
        config_from_dict(_circular_raw(base={"kind": "zero", "spare": 2}))
    with pytest.raises(ConfigurationError):
        config_from_dict(_circular_raw(dist_x={"kind": "bernoulli", "p": 0.4}))


def test_schema_version_and_experiment_checks():
    raw = _circular_raw()
    raw["schema_version"] = 2
    with pytest.raises(ConfigurationError):
        config_from_dict(raw)
    raw = _circular_raw()
    raw["experiment"] = "spectralize"
    with pytest.raises(ConfigurationError):
        config_from_dict(raw)
    raw = _circular_raw()
    raw["master_seed"] = -4
    with pytest.raises(ConfigurationError):
        config_from_dict(raw)


@pytest.mark.parametrize("raw", [
    _circular_raw(),
    {"schema_version": 1, "experiment": "universality", "master_seed": 3,
     "n_list": [40, 80], "trials": 2, "mode": "hadamard_profile",
     "dist_x": {"kind": "bernoulli"}, "dist_y": {"kind": "real_gaussian"},
     "base": {"kind": "two_block_diagonal", "a": 1.0, "b": 2.5, "split": 0.5,
              "scale_by_sqrt_n": True},
     "profile": {"kind": "ramp", "low": 0.5, "high": 2.0}},
    {"schema_version": 1, "experiment": "hermitize", "master_seed": 3,
     "n_list": [64], "trials": 2, "dist_x": {"kind": "real_gaussian"},
     "base": {"kind": "zero"}, "z_grid": [0.0, [0.5, 0.5]], "reference": "circular",
     "eps_exponent": 1.5},
    {"schema_version": 1, "experiment": "ds_solve", "master_seed": 3,
     "h_atoms": [0.0], "h_weights": [1.0], "c": 1.0, "mp_oracle": True},
    {"schema_version": 1, "experiment": "tails", "master_seed": 3,
     "n_list": [50], "trials": 3, "dist_x": {"kind": "bernoulli"},
     "base": {"kind": "zero"}, "distance_n": 100, "distance_d": 50,
     "distance_trials": 5},
    {"schema_version": 1, "experiment": "lemmas", "master_seed": 3,
     "lemma_cases": 10, "max_size": 8},
])
def test_config_roundtrip(raw):
    cfg = config_from_dict(raw)
    canon = config_to_dict(cfg)
    assert config_to_dict(config_from_dict(canon)) == canon
    for key, value in raw.items():
        if key in canon and not isinstance(value, (dict, list)):
            assert canon[key] == value


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigurationError):
        read_config_json(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigurationError):
        read_config_json(bad)


# ----------------------------------------------------------------- emission

def test_format_number_17_digits_and_inf():
    assert format_number(1.0 / 3.0) == "0.33333333333333331"
    assert format_number(float("-inf")) == "-inf"
    assert format_number(3) == "3"


def test_empty_record_list_gives_header_only_csv(tmp_path):
    path = tmp_path / "trials.csv"
    write_trials_csv(path, [])
    assert path.read_text() == "experiment,n,trial,seed,metric,value\n"


def test_trials_csv_fixed_order(tmp_path):
    path = tmp_path / "trials.csv"
    write_trials_csv(path, [TrialRecord("demo", 4, 0, 9, {"a": 1.0, "b": float("-inf")})])
    lines = path.read_text().splitlines()
    assert lines[1] == "demo,4,0,9,a,1"
    assert lines[2] == "demo,4,0,9,b,-inf"


def test_scatter_svg_point_mass_at_center():
    svg = scatter_svg(EmpiricalMeasure2D(np.array([0j])), center=0j)
    assert '<circle cx="0" cy="0" r="0.01" fill=' in svg  # glyph at the canvas center
    assert 'viewBox="-2.5 -2.5 5 5"' in svg
    assert svg.count("<circle") == 2  # one atom glyph + the overlay circle
    assert '<circle cx="0" cy="0" r="1" fill="none"' in svg  # unit-circle overlay


# ------------------------------------------------------------------ runners

def test_circular_identity_shift_recenters_disk(tmp_path):
    # scaled identity base: the cloud fills a disk centered at (1, 0) and
    # the KS statistics are taken about that center automatically
    raw = {"schema_version": 1, "experiment": "circular", "master_seed": 8,
           "n_list": [400], "trials": 1, "dist_x": {"kind": "bernoulli"},
           "base": {"kind": "two_block_diagonal", "a": 1.0, "b": 1.0, "split": 0.5,
                    "scale_by_sqrt_n": True}}
    result = run_experiment(config_from_dict(raw), tmp_path)
    assert all(g.passed for g in result.gates)
    rec = result.records[0]
    assert rec.metrics["radial_ks"] < 0.08
    # second moment of the shifted cloud sits near 1 + 1/2, not 1/2
    assert 1.2 < rec.metrics["second_moment"] < 1.8


def test_universality_same_distribution_same_stream_is_exactly_zero(tmp_path):
    raw = {"schema_version": 1, "experiment": "universality", "master_seed": 3,
           "n_list": [30], "trials": 2, "dist_x": {"kind": "bernoulli"},
           "base": {"kind": "zero"}}
    result = run_experiment(config_from_dict(raw), tmp_path)
    assert all(r.metrics["bl_distance"] == 0.0 for r in result.records)
    assert all(r.metrics["dilation_ks"] == 0.0 for r in result.records)


def test_universality_sandwich_mode_runs(tmp_path):
    raw = {"schema_version": 1, "experiment": "universality", "master_seed": 4,
           "n_list": [24], "trials": 2, "mode": "sandwich",
           "dist_x": {"kind": "bernoulli"}, "dist_y": {"kind": "real_gaussian"},
           "base": {"kind": "two_block_diagonal", "a": 1.0, "b": 5.0, "split": 0.5,
                    "scale_by_sqrt_n": True},
           "sandwich_k": {"kind": "two_block_diagonal", "a": 1.0, "b": 2.0, "split": 0.5},
           "sandwich_l": {"kind": "two_block_diagonal", "a": 1.0, "b": 2.0, "split": 0.5}}
    result = run_experiment(config_from_dict(raw), tmp_path)
    assert all(r.metrics["bl_distance"] > 0.0 for r in result.records)


def test_universality_zero_base_shift_builds_and_adds_no_base(tmp_path, monkeypatch):
    from esdlab.harness import experiments as ex
    calls = {"build_base_matrix": 0, "assemble": 0}
    for name in calls:
        original = getattr(ex, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(ex, name, counting)
    raw = {"schema_version": 1, "experiment": "universality", "master_seed": 3,
           "n_list": [20], "trials": 2, "dist_x": {"kind": "bernoulli"},
           "dist_y": {"kind": "real_gaussian"}, "base": {"kind": "zero"}}
    result = run_experiment(config_from_dict(raw), tmp_path)
    assert len(result.records) == 2
    assert calls == {"build_base_matrix": 0, "assemble": 0}


@pytest.mark.parametrize("mode,extra,proven", [
    ("sandwich", {"sandwich_k": {"kind": "two_block_diagonal", "a": 1.0, "b": 2.0},
                  "sandwich_l": {"kind": "two_block_diagonal", "a": 1.0, "b": 3.0}},
     ["K", "L", "K", "L"]),
    ("hadamard_profile", {"profile": {"kind": "ramp", "low": 0.5, "high": 2.0}}, []),
])
def test_universality_factors_built_and_proven_once_per_size(tmp_path, monkeypatch, mode,
                                                             extra, proven):
    # K and L are built and proven invertible once per size, and the zero
    # base is never built: per trial, only X and Y are drawn and assembled
    from esdlab.harness import experiments as ex
    calls = {"build_base_matrix": [], "assemble": [], "require_invertible": []}
    for name in calls:
        def counting(*args, _name=name, _original=getattr(ex, name), **kwargs):
            calls[_name].append(args[0])
            return _original(*args, **kwargs)

        monkeypatch.setattr(ex, name, counting)
    raw = {"schema_version": 1, "experiment": "universality", "master_seed": 3,
           "n_list": [12, 16], "trials": 3, "mode": mode, "dist_x": {"kind": "bernoulli"},
           "dist_y": {"kind": "real_gaussian"}, "base": {"kind": "zero"}, **extra}
    result = run_experiment(config_from_dict(raw), tmp_path)
    assert len(result.records) == 6
    kinds = [spec.kind for spec in calls["build_base_matrix"]]
    assert kinds == ["two_block_diagonal"] * len(proven)
    assert calls["require_invertible"] == proven
    assert calls["assemble"] == [None] * 12


def test_rerun_is_byte_identical(tmp_path):
    cfg = config_from_dict(_circular_raw())
    d1, d2 = tmp_path / "a", tmp_path / "b"
    run_experiment(cfg, d1)
    run_experiment(cfg, d2)
    for name in sorted(os.listdir(d1)):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name


def test_threading_does_not_change_results(tmp_path):
    base = _circular_raw(seed=21, n=40, trials=4)
    cfg1 = config_from_dict(base)
    cfg2 = config_from_dict({**base, "threads": 2})
    d1, d2 = tmp_path / "t1", tmp_path / "t2"
    run_experiment(cfg1, d1)
    run_experiment(cfg2, d2)
    # every CSV and SVG byte agrees (the SVGs are written on the trial
    # threads); the manifest echoes the config, so it differs in threads only
    names = sorted(os.listdir(d1))
    assert names == sorted(os.listdir(d2))
    assert len(names) == 4 + 2  # the SVGs, trials.csv and manifest.json
    for name in names:
        if name != "manifest.json":
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name
    m1, m2 = (json.loads((d / "manifest.json").read_text()) for d in (d1, d2))
    assert (m1["config"]["threads"], m2["config"]["threads"]) == (1, 2)
    m2["config"]["threads"] = 1
    assert m1 == m2


def test_seed_changes_results(tmp_path):
    d1, d2 = tmp_path / "s1", tmp_path / "s2"
    run_experiment(config_from_dict(_circular_raw(seed=1)), d1)
    run_experiment(config_from_dict(_circular_raw(seed=2)), d2)
    assert (d1 / "trials.csv").read_bytes() != (d2 / "trials.csv").read_bytes()


def test_manifest_contents(tmp_path):
    cfg = config_from_dict(_circular_raw())
    run_experiment(cfg, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["config"]["experiment"] == "circular"
    assert manifest["thresholds_resolved"]["radial_ks"] == 0.05
    assert "trials.csv" in manifest["artifacts"]
    assert all(len(h) == 64 for h in manifest["artifacts"].values())


def test_hermitize_field_csv_schema(tmp_path):
    raw = {"schema_version": 1, "experiment": "hermitize", "master_seed": 3,
           "n_list": [48], "trials": 2, "dist_x": {"kind": "real_gaussian"},
           "base": {"kind": "zero"}, "z_grid": [0.0, 2.0], "eps_exponent": 1.5}
    run_experiment(config_from_dict(raw), tmp_path)
    lines = (tmp_path / "field.csv").read_text().splitlines()
    assert lines[0] == "re_z,im_z,f_n,f_reg,reference,gap"
    assert len(lines) == 3


@pytest.mark.parametrize("z", [0.0, 0.5, 0.5 + 0.5j, 2.0])
def test_ds_reference_potential_is_the_circular_potential(z):
    from esdlab.harness.experiments import _ds_reference_potential
    from esdlab.limits import circular_log_potential
    assert abs(_ds_reference_potential(z) - circular_log_potential(z)) < 1e-3


def test_hermitize_ds_reference_column(tmp_path):
    from esdlab.harness.experiments import _ds_reference_potential
    raw = {"schema_version": 1, "experiment": "hermitize", "master_seed": 3,
           "n_list": [20], "trials": 2, "dist_x": {"kind": "real_gaussian"},
           "z_grid": [0.5], "reference": "ds"}
    run_experiment(config_from_dict(raw), tmp_path)
    header, row = (tmp_path / "field.csv").read_text().splitlines()
    reference = row.split(",")[header.split(",").index("reference")]
    assert reference == format_number(_ds_reference_potential(0.5))


def test_hermitize_takes_no_svd(tmp_path, monkeypatch):
    from esdlab import hermitization
    svd_calls = []
    factored_complex = []
    svd = hermitization.singular_values
    slogdet = np.linalg.slogdet

    def counting_svd(m):
        svd_calls.append(m.shape)
        return svd(m)

    def spying_slogdet(m):
        factored_complex.append(np.iscomplexobj(m))
        return slogdet(m)

    monkeypatch.setattr(hermitization, "singular_values", counting_svd)
    monkeypatch.setattr(np.linalg, "slogdet", spying_slogdet)
    raw = {"schema_version": 1, "experiment": "hermitize", "master_seed": 3,
           "n_list": [30], "trials": 2, "dist_x": {"kind": "real_gaussian"},
           "base": {"kind": "zero"}, "z_grid": [0.0, 0.5, [0.5, 0.5], 2.0]}
    run_experiment(config_from_dict(raw), tmp_path)
    assert svd_calls == []
    # B and B B* + eps I at each shift: 2 trials x 4 shifts x 2 factorizations,
    # complex only at the non-real shift
    assert factored_complex == [False, False, False, False, True, True, False, False] * 2


def test_hermitize_records_an_exactly_singular_shift_as_infinite_gaps(tmp_path):
    # A/sqrt(n) of this 4 x 4 Bernoulli draw is exactly singular in both
    # trials, so f_n at z = 0 is -inf and both of its gaps are inf; at
    # z2 = 0.5 + 0.5i only trial 0 is singular, and the field and the
    # gates fold that trial in as recorded
    raw = {"schema_version": 1, "experiment": "hermitize", "master_seed": 3,
           "n_list": [4], "trials": 2, "dist_x": {"kind": "bernoulli"},
           "base": {"kind": "zero"}, "z_grid": [0.0, 1.0, [0.5, 0.5]]}
    result = run_experiment(config_from_dict(raw), tmp_path)
    for record in result.records:
        assert record.metrics["f_n_z0"] == -math.inf
        assert math.isfinite(record.metrics["f_reg_z0"])
        assert record.metrics["potential_gap_z0"] == math.inf
        assert record.metrics["regularization_gap_z0"] == math.inf
    assert [r.metrics["f_n_z2"] == -math.inf for r in result.records] == [True, False]
    rows = [line.split(",") for line in (tmp_path / "field.csv").read_text().splitlines()]
    assert rows[1][:3] == ["0", "0", "-inf"] and rows[1][-1] == "inf"
    assert rows[3][:3] == ["0.5", "0.5", "-inf"] and rows[3][-1] == "inf"
    gates = {g.name: g for g in result.gates}
    assert gates["potential_gap_n4_z0"].observed == 0.0
    assert gates["regularization_gap_n4_z0"].observed == math.inf
    assert gates["regularization_gap_n4_z2"].observed == math.inf
    assert not result.passed


def test_tails_batched_distances_match_row_by_row(tmp_path):
    from esdlab.ensembles import sample_array
    from esdlab.harness import experiments as ex
    raw = {"schema_version": 1, "experiment": "tails", "master_seed": 3,
           "n_list": [20], "trials": 2, "dist_x": {"kind": "bernoulli"},
           "base": {"kind": "zero"}, "distance_n": 100, "distance_d": 50,
           "distance_trials": 5}
    cfg = config_from_dict(raw)
    result = run_experiment(cfg, tmp_path)
    got = [r.metrics["subspace_distance"] for r in result.records
           if "subspace_distance" in r.metrics]
    assert len(got) == 5
    aux = RngStream(3, ex._SUBSPACE_STREAM)
    basis = (aux.uniforms(100 * 50) - 0.5) + 1j * (aux.uniforms(100 * 50) - 0.5)
    q, _ = np.linalg.qr(basis.reshape(100, 50))
    for t, dist in enumerate(got):
        v = sample_array(cfg.dist_x, ex._stream(cfg, 100, t, ex.ROLE_X), 100)
        v = v.astype(np.complex128)
        assert dist == pytest.approx(np.linalg.norm(v - q @ (q.conj().T @ v)), rel=1e-12)


@pytest.mark.xfail(strict=True, reason="known stream-key collisions in the tails suite "
                   "(ROADMAP item 3: no two purposes share a random stream); fixing them "
                   "changes every subspace_distance")
def test_tails_opens_no_stream_key_twice(tmp_path, monkeypatch):
    from esdlab.harness import experiments as ex
    opened = []

    def recording(master_seed, stream_index):
        opened.append((master_seed, stream_index))
        return RngStream(master_seed, stream_index)

    monkeypatch.setattr(ex, "RngStream", recording)
    raw = {"schema_version": 1, "experiment": "tails", "master_seed": 3,
           "n_list": [256], "trials": 2, "dist_x": {"kind": "bernoulli"},
           "base": {"kind": "zero"}, "distance_n": 256, "distance_d": 8,
           "distance_trials": 2}
    run_experiment(config_from_dict(raw), tmp_path)
    assert len(opened) == 5  # 2 trial matrices, the subspace basis, 2 distance rows
    assert len(set(opened)) == len(opened)


def test_tails_distance_fields_validated():
    raw = {"schema_version": 1, "experiment": "tails", "master_seed": 3,
           "n_list": [20], "trials": 2, "dist_x": {"kind": "bernoulli"},
           "distance_n": 100, "distance_d": 50}
    for bad in ({"distance_trials": 0}, {"distance_n": "x"}, {"distance_d": None}):
        with pytest.raises(ConfigurationError):
            config_from_dict({**raw, **bad})


def test_ds_csv_schema(tmp_path):
    raw = {"schema_version": 1, "experiment": "ds_solve", "master_seed": 3,
           "x_min": 1.0, "x_max": 2.0, "x_step": 0.25}
    run_experiment(config_from_dict(raw), tmp_path)
    lines = (tmp_path / "ds.csv").read_text().splitlines()
    assert lines[0] == "x,eta,re_m,im_m,density"
    assert len(lines) == 6


# -------------------------------------------------------------------- gates

def test_gate_ops_at_equality():
    assert not GateResult("g", 1.0, "<", 1.0).passed
    assert not GateResult("g", 1.0, ">", 1.0).passed
    for op in ("<=", ">="):
        assert GateResult("g", 1.0, op, 1.0).passed
    assert GateResult("g", 1.0, "in", (1.0, 2.0)).passed
    assert GateResult("g", 2.0, "in", (1.0, 2.0)).passed
    assert not GateResult("g", 2.5, "in", (1.0, 2.0)).passed
    assert str(GateResult("g", 0.5, "<", 1.0)) == "g: PASS (0.5 < 1)"
    assert str(GateResult("g", 3.0, "in", (1.0, 2.0))) == "g: FAIL (3 in [1, 2])"


@pytest.mark.parametrize("op,threshold", [("<", 1.0), ("<=", 1.0), (">=", 1.0), (">", 1.0),
                                          ("in", (0.0, 1.0))])
def test_gate_nan_observed_fails(op, threshold):
    assert not GateResult("g", math.nan, op, threshold).passed


def _raise_on_constant(name):
    raise AssertionError(f"manifest.json holds the non-JSON constant {name}")


def test_manifest_spells_non_finite_observed_as_strings(tmp_path):
    gates = [GateResult("a", math.inf, "<", 0.02), GateResult("b", -math.inf, ">=", 0.0),
             GateResult("c", math.nan, "in", (0.9, 1.1))]
    path = write_manifest(str(tmp_path), {}, {}, gates, [])
    manifest = json.loads(open(path).read(), parse_constant=_raise_on_constant)
    assert manifest["schema_version"] == 2
    assert [g["observed"] for g in manifest["gates"]] == ["inf", "-inf", "nan"]
    assert [g["passed"] for g in manifest["gates"]] == [False, False, False]
    assert manifest["gates"][2]["threshold"] == [0.9, 1.1]


_TINY_RUNS = {
    "circular": _circular_raw(n=20),
    "universality": {"schema_version": 1, "experiment": "universality", "master_seed": 3,
                     "n_list": [10, 20], "trials": 2, "dist_x": {"kind": "bernoulli"},
                     "dist_y": {"kind": "real_gaussian"}},
    "hermitize": {"schema_version": 1, "experiment": "hermitize", "master_seed": 5,
                  "n_list": [10], "trials": 2, "dist_x": {"kind": "bernoulli"},
                  "z_grid": [0.0, [0.5, 0.5]]},
    "ds_solve": {"schema_version": 1, "experiment": "ds_solve", "master_seed": 3,
                 "x_step": 0.1, "mass_check": True, "mp_oracle": True},
    "tails": {"schema_version": 1, "experiment": "tails", "master_seed": 3, "n_list": [20],
              "trials": 3, "dist_x": {"kind": "bernoulli"}, "distance_n": 40,
              "distance_d": 20, "distance_trials": 5},
    "lemmas": {"schema_version": 1, "experiment": "lemmas", "master_seed": 5,
               "lemma_cases": 8, "max_size": 8},
}

_COMPARE = {"<": lambda x, t: x < t, "<=": lambda x, t: x <= t,
            ">=": lambda x, t: x >= t, ">": lambda x, t: x > t,
            "in": lambda x, t: t[0] <= x <= t[1]}


@pytest.mark.parametrize("experiment", sorted(_TINY_RUNS))
def test_manifest_gate_records_are_the_comparison(tmp_path, experiment):
    result = run_experiment(config_from_dict(_TINY_RUNS[experiment]), tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text(),
                          parse_constant=_raise_on_constant)
    records = manifest["gates"]
    assert [g["name"] for g in records] == [g.name for g in result.gates]
    for g in records:
        assert set(g) == {"name", "observed", "op", "threshold", "passed"}
        threshold = ([float(t) for t in g["threshold"]] if g["op"] == "in"
                     else float(g["threshold"]))
        assert g["passed"] is _COMPARE[g["op"]](float(g["observed"]), threshold), g


def test_weyl_slack_override_reaches_nilpotent_gates(tmp_path):
    raw = {**_TINY_RUNS["lemmas"], "thresholds": {"weyl_slack_scale": 1e-7}}
    run_experiment(config_from_dict(raw), tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    thresholds = {g["name"]: g["threshold"] for g in manifest["gates"]}
    assert thresholds["weyl_nilpotent_moment"] == 1e-7
    assert thresholds["weyl_nilpotent_product"] == 1e-7 * 8  # the nilpotent block is 8x8


# ---------------------------------------------------------------------- CLI

def _write_config(tmp_path, raw, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


def test_cli_pass_and_exit_zero(tmp_path, capsys):
    path = _write_config(tmp_path, {"schema_version": 1, "experiment": "lemmas",
                                    "master_seed": 5, "lemma_cases": 15, "max_size": 10})
    code = cli_main(["lemmas", "--config", path, "--out", str(tmp_path / "out")])
    assert code == 0
    assert "GATE det_triple_identity: PASS" in capsys.readouterr().out


def test_cli_gate_failure_exits_one(tmp_path):
    raw = _circular_raw(n=40, trials=2)
    raw["thresholds"] = {"radial_ks": 1e-9}
    path = _write_config(tmp_path, raw)
    code = cli_main(["circular", "--config", path, "--out", str(tmp_path / "out")])
    assert code == 1


def test_cli_config_error_exits_two(tmp_path):
    path = _write_config(tmp_path, _circular_raw(bogus=1))
    assert cli_main(["circular", "--config", path]) == 2
    # experiment / subcommand mismatch is also a configuration error
    path = _write_config(tmp_path, _circular_raw(), name="c2.json")
    assert cli_main(["lemmas", "--config", path]) == 2


def test_cli_missing_dist_x_exits_two(tmp_path):
    raw = _circular_raw()
    del raw["dist_x"]
    path = _write_config(tmp_path, raw)
    assert cli_main(["circular", "--config", path, "--out", str(tmp_path / "out")]) == 2


def test_cli_non_integer_lemma_cases_exits_two(tmp_path):
    path = _write_config(tmp_path, {"schema_version": 1, "experiment": "lemmas",
                                    "master_seed": 5, "lemma_cases": "x"})
    assert cli_main(["lemmas", "--config", path, "--out", str(tmp_path / "out")]) == 2


_HERMITIZE_RAW = {"schema_version": 1, "experiment": "hermitize", "master_seed": 5,
                  "n_list": [10], "trials": 1, "dist_x": {"kind": "bernoulli"},
                  "z_grid": [0.5]}


@pytest.mark.parametrize("command,raw", [
    ("hermitize", {**_HERMITIZE_RAW, "eps_exponent": "x"}),
    ("circular", _circular_raw(threads="x")),
    ("circular", {**_circular_raw(), "n_list": ["x"]}),
    ("circular", _circular_raw(thresholds={"radial_ks": "x"})),
    ("circular", _circular_raw(thresholds={"radial_ks": 10**400})),
    ("ds-solve", {"schema_version": 1, "experiment": "ds_solve", "master_seed": 3,
                  "x_step": "x"}),
    ("ds-solve", {"schema_version": 1, "experiment": "ds_solve", "master_seed": 3,
                  "h_atoms": 3}),
    ("circular", _circular_raw(base={"kind": "two_block_diagonal", "b": 1.0})),
    ("circular", _circular_raw(base={"kind": "explicit", "entries": [[1, 2], [3]]})),
    ("circular", _circular_raw(dist_x={"kind": "two_point_asymmetric", "p": "x"})),
    ("circular", {**_circular_raw(), "n_list": [50.9]}),
    ("circular", _circular_raw(threads=1.9)),
    ("circular", _circular_raw(trials=True)),
    ("circular", _circular_raw(seed=True)),
    ("ds-solve", {"schema_version": 1, "experiment": "ds_solve", "master_seed": 3,
                  "mass_check": "no"}),
    ("circular", _circular_raw(base={"kind": "two_block_diagonal", "a": 1.0, "b": 1.0,
                                     "scale_by_sqrt_n": "false"})),
    ("hermitize", {**_HERMITIZE_RAW, "z_grid": [True]}),
    ("ds-solve", {"schema_version": 1, "experiment": "ds_solve", "master_seed": 3,
                  "mp_oracle": True, "h_atoms": [1.0]}),
    ("ds-solve", {"schema_version": 1, "experiment": "ds_solve", "master_seed": 3,
                  "x_min": -math.inf}),
    ("circular", _circular_raw(center=math.nan)),
    ("circular", _circular_raw(thresholds={"radial_ks": math.inf})),
    ("tails", {"schema_version": 1, "experiment": "tails", "master_seed": 3,
               "n_list": [100], "trials": 2, "dist_x": {"kind": "bernoulli"},
               "thresholds": {"sigma_min_exponent": -400}}),
    ("ds-solve", {"schema_version": 1, "experiment": "ds_solve", "master_seed": 3,
                  "x_step": 1e-300}),
    # 2.84 PiB of Bernoulli entries: the allocation fails at once
    ("circular", _circular_raw(n=20_000_000)),
    ("circular", _circular_raw(base={"kind": "two_block_diagonal", "a": 1.0, "b": 1.0,
                                     "split": 1.5})),
    ("circular", _circular_raw(base={"kind": "low_rank", "rank": 0, "magnitude": 1.0})),
    ("circular", _circular_raw(base={"kind": "diagonal_from_measure", "atoms": []})),
    ("circular", _circular_raw(base={"kind": "explicit", "entries": []})),
    ("circular", _circular_raw(dist_x={"kind": "two_point_asymmetric", "p": 1.0})),
    ("circular", _circular_raw(dist_x={"kind": "pareto_symmetrized", "exponent": 2.0})),
])
def test_cli_malformed_field_exits_two(tmp_path, command, raw):
    path = _write_config(tmp_path, raw)
    assert cli_main([command, "--config", path, "--out", str(tmp_path / "out")]) == 2


_UNIVERSALITY_RAW = {"schema_version": 1, "experiment": "universality", "master_seed": 3,
                     "n_list": [12], "trials": 2, "dist_x": {"kind": "bernoulli"}}
_PROFILE = {"kind": "ramp", "low": 0.5, "high": 2.0}
_FACTOR = {"kind": "two_block_diagonal", "a": 1.0, "b": 2.0}


@pytest.mark.parametrize("raw", [
    {**_UNIVERSALITY_RAW, "profile": _PROFILE},
    {**_UNIVERSALITY_RAW, "mode": "sandwich", "profile": _PROFILE,
     "sandwich_k": _FACTOR, "sandwich_l": _FACTOR},
    {**_UNIVERSALITY_RAW, "mode": "hadamard_profile", "profile": _PROFILE,
     "sandwich_k": _FACTOR},
    {**_UNIVERSALITY_RAW, "sandwich_l": _FACTOR},
], ids=["profile_in_shift", "profile_in_sandwich", "sandwich_k_in_hadamard",
        "sandwich_l_in_shift"])
def test_cli_universality_factor_outside_its_mode_exits_two(tmp_path, raw):
    path = _write_config(tmp_path, raw)
    out = tmp_path / "out"
    assert cli_main(["universality", "--config", path, "--out", str(out)]) == 2
    assert not out.exists()


_EYE3 = {"kind": "explicit", "entries": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}


@pytest.mark.parametrize("command,raw", [
    ("circular", {**_circular_raw(base=_EYE3), "n_list": [3, 40]}),
    ("hermitize", {**_HERMITIZE_RAW, "n_list": [5, 4],
                   "base": {"kind": "low_rank", "rank": 5, "magnitude": 1.0}}),
    ("universality", {"schema_version": 1, "experiment": "universality", "master_seed": 3,
                      "n_list": [3, 40], "trials": 2, "mode": "sandwich",
                      "dist_x": {"kind": "bernoulli"}, "sandwich_k": _EYE3,
                      "sandwich_l": {"kind": "diagonal_from_measure", "atoms": [1.0]}}),
])
def test_cli_base_unbuildable_at_some_size_exits_two_and_writes_nothing(tmp_path, command,
                                                                         raw):
    path = _write_config(tmp_path, raw)
    out = tmp_path / "out"
    assert cli_main([command, "--config", path, "--out", str(out)]) == 2
    assert not out.exists()


def test_cli_uncreatable_output_dir_exits_two(tmp_path):
    path = _write_config(tmp_path, {"schema_version": 1, "experiment": "lemmas",
                                    "master_seed": 5, "lemma_cases": 2, "max_size": 6})
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    assert cli_main(["lemmas", "--config", path, "--out", str(a_file)]) == 2
    assert cli_main(["lemmas", "--config", path, "--out", str(a_file / "sub")]) == 2


def test_unwritable_artifact_is_a_configuration_error(tmp_path):
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    with pytest.raises(ConfigurationError):
        write_trials_csv(str(a_file / "trials.csv"), [])


def test_cli_singular_sandwich_factor_exits_three(tmp_path):
    raw = {"schema_version": 1, "experiment": "universality", "master_seed": 3,
           "n_list": [12], "trials": 2, "mode": "sandwich", "dist_x": {"kind": "bernoulli"},
           "dist_y": {"kind": "real_gaussian"},
           "sandwich_k": {"kind": "low_rank", "rank": 1, "magnitude": 1.0},
           "sandwich_l": {"kind": "two_block_diagonal", "a": 1.0, "b": 2.0}}
    path = _write_config(tmp_path, raw)
    assert cli_main(["universality", "--config", path, "--out", str(tmp_path / "out")]) == 3


def test_cli_numerical_failure_exits_three(tmp_path):
    raw = {"schema_version": 1, "experiment": "ds_solve", "master_seed": 3,
           "x_min": 0.05, "x_max": 0.15, "x_step": 0.05,
           "eta_schedule": [1e-1, 1e-2, 1e-3], "agreement_tol": 1e-9}
    path = _write_config(tmp_path, raw)
    assert cli_main(["ds-solve", "--config", path, "--out", str(tmp_path / "out")]) == 3


_LENIENT = {"radial_ks": 1.1, "angular_ks": 1.1, "in_disk_fraction": 0.0}


def test_cli_seed_override_changes_output(tmp_path):
    path = _write_config(tmp_path, _circular_raw(thresholds=_LENIENT))
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert cli_main(["circular", "--config", path, "--out", str(out1), "--seed", "123"]) == 0
    assert cli_main(["circular", "--config", path, "--out", str(out2), "--seed", "124"]) == 0
    assert (out1 / "trials.csv").read_bytes() != (out2 / "trials.csv").read_bytes()


def test_cli_threads_option_lands_in_manifest(tmp_path):
    path = _write_config(tmp_path, _circular_raw(n=30, trials=2, thresholds=_LENIENT))
    out = tmp_path / "o"
    assert cli_main(["circular", "--config", path, "--out", str(out), "--threads", "2"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["threads"] == 2

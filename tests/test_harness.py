"""Config parsing, emission formats, runners, CLI exit codes."""

import hashlib
import json
import math
import os
import pathlib
import platform
import shutil
import subprocess
import sys

import numpy as np
import pytest

from esdlab import ConfigurationError, RngStream
from esdlab.harness import (
    config_from_dict,
    config_to_dict,
    format_number,
    run_experiment,
    scatter_svg,
)
from esdlab.harness.cli import main as cli_main
from esdlab.harness.config import DS_REFERENCE_MAX_SHIFT, read_config_json
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
     "n_list": [40, 80], "trials": 2,
     "dist_x": {"kind": "bernoulli"}, "dist_y": {"kind": "real_gaussian"},
     "base": {"kind": "two_block_diagonal", "a": 1.0, "b": 2.5, "split": 0.5,
              "scale_by_sqrt_n": True},
     "profile": {"low": 0.5, "high": 2.0}},
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
    svg = scatter_svg(np.array([0j]), center=0j)
    assert '<circle cx="0" cy="0" r="0.01" fill=' in svg  # glyph at the canvas center
    assert 'viewBox="-2.5 -2.5 5 5"' in svg
    assert svg.count("<circle") == 2  # one atom glyph + the overlay circle
    assert '<circle cx="0" cy="0" r="1" fill="none"' in svg  # unit-circle overlay


# ------------------------------------------------------------------ runners

def test_circular_identity_shift_recenters_disk(tmp_path):
    # scaled identity base: the cloud fills a disk centered at (1, 0) and
    # the KS statistics are taken about that center automatically.  With
    # split 1 or 0 only one block is nonempty, so b or a is never read and
    # the base is the same scaled identity.
    metrics = []
    for a, b, split in ((1.0, 1.0, 0.5), (1.0, 3.0, 1.0), (3.0, 1.0, 0.0)):
        raw = {"schema_version": 1, "experiment": "circular", "master_seed": 8,
               "n_list": [400], "trials": 1, "dist_x": {"kind": "bernoulli"},
               "base": {"kind": "two_block_diagonal", "a": a, "b": b, "split": split,
                        "scale_by_sqrt_n": True}}
        result = run_experiment(config_from_dict(raw), tmp_path / f"split{split}")
        assert all(g.passed for g in result.gates)
        rec = result.records[0]
        assert rec.metrics["radial_ks"] < 0.08
        # second moment of the shifted cloud sits near 1 + 1/2, not 1/2
        assert 1.2 < rec.metrics["second_moment"] < 1.8
        metrics.append(rec.metrics)
    assert metrics[1] == metrics[0] and metrics[2] == metrics[0]


# a base equal to c I at size n centres the disk at c/sqrt(n), whatever its kind
@pytest.mark.parametrize("base,center", [
    ({"kind": "diagonal_from_measure", "atoms": [1.0]}, 1.0),
    ({"kind": "diagonal_from_measure", "atoms": [[0.5, 0.5], [0.5, 0.5]]}, 0.5 + 0.5j),
    ({"kind": "low_rank", "rank": 300, "magnitude": 5.0}, 5.0 / math.sqrt(300)),
    ({"kind": "two_block_diagonal", "a": 1.0, "b": 1.0}, 1.0 / math.sqrt(300)),
], ids=["one_atom", "one_complex_atom", "full_rank_low_rank", "unscaled_two_block"])
def test_circular_scalar_base_recenters_disk(tmp_path, base, center):
    from esdlab.harness.experiments import _auto_center
    raw = {"schema_version": 1, "experiment": "circular", "master_seed": 7,
           "n_list": [300], "trials": 2, "dist_x": {"kind": "real_gaussian"}, "base": base}
    cfg = config_from_dict(raw)
    assert _auto_center(cfg.base, 300) == center
    result = run_experiment(cfg, tmp_path)
    assert all(g.passed for g in result.gates), [str(g) for g in result.gates]


def test_universality_sandwich_mode_runs(tmp_path):
    raw = {"schema_version": 1, "experiment": "universality", "master_seed": 4,
           "n_list": [24], "trials": 2,
           "dist_x": {"kind": "bernoulli"}, "dist_y": {"kind": "real_gaussian"},
           "base": {"kind": "two_block_diagonal", "a": 1.0, "b": 5.0, "split": 0.5,
                    "scale_by_sqrt_n": True},
           "sandwich_k": {"a": 1.0, "b": 2.0, "split": 0.5},
           "sandwich_l": {"a": 1.0, "b": 2.0, "split": 0.5}}
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


@pytest.mark.parametrize("extra,diagonals", [
    ({"sandwich_k": {"a": 1.0, "b": 2.0}, "sandwich_l": {"a": 1.0, "b": 3.0}},
     [(2.0, 12), (3.0, 12), (2.0, 16), (3.0, 16)]),
    ({"profile": {"low": 0.5, "high": 2.0}}, []),
], ids=["sandwich", "profile"])
def test_universality_factor_diagonals_built_once_per_size(tmp_path, monkeypatch, extra,
                                                           diagonals):
    # the diagonals of K and L are built once per size, and the zero base
    # is never built: per trial, only X and Y are drawn and assembled
    from esdlab.harness import experiments as ex
    calls = {"build_base_matrix": [], "assemble": [], "factor_diagonal": []}
    for name in calls:
        def counting(*args, _name=name, _original=getattr(ex, name), **kwargs):
            calls[_name].append(args[:2])
            return _original(*args, **kwargs)

        monkeypatch.setattr(ex, name, counting)
    raw = {"schema_version": 1, "experiment": "universality", "master_seed": 3,
           "n_list": [12, 16], "trials": 3, "dist_x": {"kind": "bernoulli"},
           "dist_y": {"kind": "real_gaussian"}, "base": {"kind": "zero"}, **extra}
    result = run_experiment(config_from_dict(raw), tmp_path)
    assert len(result.records) == 6
    assert [(spec.b, n) for spec, n in calls["factor_diagonal"]] == diagonals
    assert calls["build_base_matrix"] == []
    assert [m_base for m_base, _ in calls["assemble"]] == [None] * 12


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
    # where the run was written is not part of it
    assert "output_dir" not in manifest["config"]
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


@pytest.mark.parametrize("z", [0.0, 0.5, 0.5 + 0.5j, 2.0, 6.0, 10.0, 100.0, 1000.0])
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
    factored = []
    svd = hermitization.singular_values
    slogdet = np.linalg.slogdet
    cholesky = np.linalg.cholesky

    def counting_svd(m):
        svd_calls.append(m.shape)
        return svd(m)

    def spying_slogdet(m):
        factored.append(("lu", np.iscomplexobj(m)))
        return slogdet(m)

    def spying_cholesky(m):
        factored.append(("cholesky", np.iscomplexobj(m)))
        return cholesky(m)

    monkeypatch.setattr(hermitization, "singular_values", counting_svd)
    monkeypatch.setattr(np.linalg, "slogdet", spying_slogdet)
    monkeypatch.setattr(np.linalg, "cholesky", spying_cholesky)
    raw = {"schema_version": 1, "experiment": "hermitize", "master_seed": 3,
           "n_list": [30], "trials": 2, "dist_x": {"kind": "real_gaussian"},
           "base": {"kind": "zero"}, "z_grid": [0.0, 0.5, [0.5, 0.5], 2.0]}
    run_experiment(config_from_dict(raw), tmp_path)
    assert svd_calls == []
    # per trial: one LU of B at each of the 4 shifts, then one Cholesky of
    # B B* + eps I at each from one Gram product; complex only at the
    # non-real shift
    shifts = [False, False, True, False]
    trial = [("lu", c) for c in shifts] + [("cholesky", c) for c in shifts]
    assert factored == trial * 2


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


# X and Y are folded in row blocks of at most 2^18 words each, and G is
# solved in two halves split at h = d // 2
_DISTANCE_SHAPES = [(100, 50, 1e-12),
                    # kappa(B)^2 is about 3e4 at d = nd - 1
                    (200, 199, 1e-8),
                    # row blocks of 655 and 45 rows
                    (700, 400, 1e-12),
                    # d = 1: G11 is 0 x 0 and S is G itself
                    (100, 1, 1e-12),
                    # an odd split: G11 is 25 x 25 and S is 26 x 26
                    (101, 51, 1e-12),
                    # row blocks of 436, 436 and 28 rows
                    (900, 600, 1e-12)]


@pytest.mark.parametrize("kind,nd,d,rel", [(kind, *shape) for shape in _DISTANCE_SHAPES
                                             for kind in ("bernoulli", "complex_gaussian")])
def test_tails_distances_match_complete_qr(tmp_path, kind, nd, d, rel):
    from esdlab.ensembles import sample_array
    from esdlab.harness import experiments as ex
    raw = {"schema_version": 1, "experiment": "tails", "master_seed": 3,
           "n_list": [20], "trials": 2, "dist_x": {"kind": kind},
           "base": {"kind": "zero"}, "distance_n": nd, "distance_d": d,
           "distance_trials": 8}
    cfg = config_from_dict(raw)
    got = [r.metrics["subspace_distance"] for r in run_experiment(cfg, tmp_path).records
           if "subspace_distance" in r.metrics]
    assert len(got) == 8
    aux = RngStream(3, ex._SUBSPACE_STREAM)
    basis = (aux.uniforms(nd * d) - 0.5) + 1j * (aux.uniforms(nd * d) - 0.5)
    q, _ = np.linalg.qr(basis.reshape(nd, d), mode="complete")
    complement = q[:, d:]  # an orthonormal basis of the orthogonal complement of span(B)
    for t, dist in enumerate(got):
        v = sample_array(cfg.dist_x, ex._stream(cfg, nd, t, ex.ROLE_X), nd)
        assert dist == pytest.approx(np.linalg.norm(complement.conj().T @ v), rel=rel)


def test_cli_zero_distance_row_exits_three(tmp_path, monkeypatch):
    # a zero row lies in every subspace: its squared distance is 0, which the
    # run reports as a numerical failure instead of recording it
    from esdlab import ensembles
    draw = ensembles.sample_array
    nd = _TINY_RUNS["tails"]["distance_n"]  # the trial matrices draw n_list[0]**2 entries
    monkeypatch.setattr(ensembles, "sample_array", lambda dist, rng, count: (
        np.zeros(count) if count == nd else draw(dist, rng, count)))
    path = _write_config(tmp_path, _TINY_RUNS["tails"])
    out = tmp_path / "out"
    assert cli_main(["--config", path, "--out", str(out)]) == 3
    assert not out.exists()


def test_tails_distance_memory(tmp_path):
    # X and Y are drawn in row blocks: at its peak the run holds the rows V,
    # C = B*V, one real d x d accumulator W of G, one product buffer and one
    # row block each of X, Y and X + Y, about 0.87 times the bytes of the
    # complex basis, and never X, Y or G whole or a copy of [B | V].
    # Holding X whole read 1.21 times
    import tracemalloc
    nd, d = 2000, 1000
    raw = {"schema_version": 1, "experiment": "tails", "master_seed": 3,
           "n_list": [10], "trials": 2, "dist_x": {"kind": "bernoulli"},
           "base": {"kind": "zero"}, "distance_n": nd, "distance_d": d,
           "distance_trials": 100}
    cfg = config_from_dict(raw)
    tracemalloc.start()
    try:
        run_experiment(cfg, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.9 * nd * d * 16


_TAILS_RSS_CHILD = """
import json, sys
from esdlab.harness import config_from_dict, run_experiment

def status_kib(key):
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith(key))

cfg = config_from_dict(json.loads(sys.argv[1]))
after_import = status_kib("VmRSS:")
for _ in range(2):
    run_experiment(cfg, sys.argv[2])
print(status_kib("VmHWM:") - after_import)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads /proc/self/status; measured with glibc's heap")
def test_tails_distance_peak_rss(tmp_path):
    # tracemalloc sees neither LAPACK's copies nor heap fragmentation, so the
    # distance step at the benchmark's shape runs twice in a child with BLAS
    # on one thread: from the second run on, glibc's raised mmap threshold
    # puts every array on the heap, and the order of the allocations decides
    # how far it grows.  The child reads its own peak (VmHWM): ru_maxrss
    # would carry over the peak of the process that spawned it.  The heap the
    # imports leave differs with and without esdlab's cached bytecode, so the
    # child runs on a bytecode-free copy of the package, first as it is and
    # then after an import has written its bytecode.  In 6 runs each (numpy
    # 2.4, OpenBLAS 0.3.31, glibc, x86-64) its peak grew 37.69-37.81 MB over
    # its RSS after import without bytecode and 41.36-41.46 MB with it; the
    # bounds leave 2.5-2.7 MB of headroom.  Holding X whole and solving G
    # whole read 48.2 and 68.8 MB; solving G11 once against [G12 | c1]
    # instead of twice read 39.3 and 44.5 MB
    raw = {"schema_version": 1, "experiment": "tails", "master_seed": 3,
           "n_list": [10], "trials": 2, "dist_x": {"kind": "bernoulli"},
           "base": {"kind": "zero"}, "distance_n": 2000, "distance_d": 1000,
           "distance_trials": 200, "threads": 1}
    tests = os.path.dirname(os.path.abspath(__file__))
    src = tmp_path / "src"
    shutil.copytree(os.path.join(os.path.dirname(tests), "src"), src,
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = [str(src), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
           "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PYTHONPYCACHEPREFIX", None)

    def growth_mb():
        proc = subprocess.run([sys.executable, "-c", _TAILS_RSS_CHILD, json.dumps(raw),
                               str(tmp_path / "out")],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return int(proc.stdout.split()[-1]) / 1024

    cold = growth_mb()
    writing = {k: v for k, v in env.items() if k != "PYTHONDONTWRITEBYTECODE"}
    subprocess.run([sys.executable, "-c", "import esdlab.harness"], env=writing, check=True,
                   timeout=300)
    assert list((src / "esdlab" / "harness").glob("__pycache__/experiments.*.pyc"))
    cached = growth_mb()
    assert cold < 40.5 and cached < 44.0, (cold, cached)


def _child_env(**extra):
    """The environment of a child that imports esdlab from this checkout."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = [src, os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p), **extra}


_GLIBC = sys.platform.startswith("linux") and platform.libc_ver()[0] == "glibc"

_REFAULT_CHILD = """
import json, resource, sys
import numpy as np
from esdlab.harness import config_from_dict, run_experiment

run_experiment(config_from_dict(json.loads(sys.argv[1])), sys.argv[2])
np.ones(1 << 20)  # 8 MB, allocated, filled and freed
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
np.ones(1 << 20)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not _GLIBC, reason="sets glibc's allocator policy")
def test_run_keeps_freed_blocks_in_the_heap(tmp_path):
    # a run leaves the allocator keeping freed blocks below 32 MiB in the
    # heap, so a second 8 MB block is reused with no fault.  With glibc's
    # defaults (2.36, x86-64) the first was mapped and unmapped, and the
    # second faulted in about 470 pages
    proc = subprocess.run([sys.executable, "-c", _REFAULT_CHILD,
                           json.dumps(_TINY_RUNS["hermitize"]), str(tmp_path / "out")],
                          env=_child_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout.split()[-1]) < 100


_POLICY_CHILD = """
import json, os, sys
from esdlab.harness import config_from_dict, experiments

if sys.argv[1] == "off":
    experiments._set_process_policy = lambda: None
for name, raw in json.loads(sys.argv[2]).items():
    experiments.run_experiment(config_from_dict(raw), os.path.join(sys.argv[3], name))
"""


@pytest.mark.skipif(not _GLIBC, reason="sets glibc's allocator policy")
def test_allocator_policy_leaves_the_bytes(tmp_path):
    # BLAS is on one thread in both children, so only the allocator differs
    env = _child_env(OPENBLAS_NUM_THREADS="1")
    for policy in ("off", "on"):
        proc = subprocess.run([sys.executable, "-c", _POLICY_CHILD, policy,
                               json.dumps(_TINY_RUNS), str(tmp_path / policy)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
    for name in _TINY_RUNS:
        manifest = (tmp_path / "on" / name / "manifest.json").read_bytes()
        assert manifest == (tmp_path / "off" / name / "manifest.json").read_bytes(), name


_CIRCULAR_N1000 = {"schema_version": 1, "experiment": "circular", "master_seed": 7,
                   "n_list": [1000], "trials": 1, "dist_x": {"kind": "real_gaussian"}}


def test_bytes_do_not_depend_on_ambient_blas_threads(tmp_path):
    # a run pins BLAS to one thread; with two, the n = 1000 eigenvalues moved
    # by about 1e-14, and with them trials.csv, the SVG and the manifest
    path = _write_config(tmp_path, _CIRCULAR_N1000)
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}"
        proc = subprocess.run([sys.executable, "-m", "esdlab.harness.cli", "--config", path,
                               "--out", str(out)],
                              env=_child_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads),
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode in (0, 1), proc.stderr
        runs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert runs[0] == runs[1]


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
    manifest = json.loads(pathlib.Path(path).read_text(), parse_constant=_raise_on_constant)
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
                 "x_step": 0.1, "mp_oracle": True},
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


_RERUNS = {**_TINY_RUNS, "universality_sandwich": {
    **_TINY_RUNS["universality"],
    "sandwich_k": {"a": 1.0, "b": 2.0, "split": 0.5},
    "sandwich_l": {"a": 1.0, "b": 3.0, "split": 0.5}}}


@pytest.mark.parametrize("experiment", sorted(_RERUNS))
def test_rerun_is_byte_identical(tmp_path, experiment):
    cfg = config_from_dict(_RERUNS[experiment])
    d1, d2 = tmp_path / "a", tmp_path / "b"
    run_experiment(cfg, d1)
    run_experiment(cfg, d2)
    names = sorted(os.listdir(d1))
    assert names == sorted(os.listdir(d2))
    for name in names:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name


def test_lemma_cases_rotate_over_four_kinds():
    from esdlab.harness.experiments import _random_case_matrix
    kinds = []
    for case in range(8):
        a = _random_case_matrix(RngStream(5, case), 12, case)
        rows, cols = a.shape
        kinds.append(("complex" if np.iscomplexobj(a) else "real",
                      "square" if rows == cols else "wide" if rows < cols else "tall"))
    assert kinds == [("complex", "square"), ("real", "square"),
                     ("complex", "wide"), ("real", "wide")] * 2


# ---------------------------------------------------------------------- CLI

def _write_config(tmp_path, raw, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


def test_cli_pass_and_exit_zero(tmp_path, capsys):
    path = _write_config(tmp_path, {"schema_version": 1, "experiment": "lemmas",
                                    "master_seed": 5, "lemma_cases": 15, "max_size": 10})
    code = cli_main(["--config", path, "--out", str(tmp_path / "out")])
    assert code == 0
    assert "GATE det_triple_identity: PASS" in capsys.readouterr().out


def test_cli_gate_failure_exits_one(tmp_path, capsys):
    # the regularization clause at eps = n^-0.1 is red on purpose
    path = _write_config(tmp_path, _HERMITIZE_RAW)
    code = cli_main(["--config", path, "--out", str(tmp_path / "out")])
    assert code == 1
    assert "GATE regularization_gap_n10_z0: FAIL" in capsys.readouterr().out


def test_cli_config_error_exits_two(tmp_path):
    path = _write_config(tmp_path, _circular_raw(bogus=1))
    assert cli_main(["--config", path, "--out", str(tmp_path / "out")]) == 2
    # the config is the whole run: a flag that would set a config value, or
    # an experiment name before --config, is an argument error (exit 2)
    path = _write_config(tmp_path, _circular_raw(), name="c2.json")
    for extra in (["--seed", "1"], ["--threads", "2"], ["circular"]):
        with pytest.raises(SystemExit) as exc:
            cli_main([*extra, "--config", path, "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
    assert sorted(os.listdir(tmp_path)) == ["c2.json", "cfg.json"]


def test_cli_manifest_does_not_depend_on_the_output_directory(tmp_path):
    path = _write_config(tmp_path, _LEMMAS_RAW)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert cli_main(["--config", path, "--out", str(out1)]) == 0
    assert cli_main(["--config", path, "--out", str(out2)]) == 0
    assert (out1 / "manifest.json").read_bytes() == (out2 / "manifest.json").read_bytes()


def test_cli_missing_dist_x_exits_two(tmp_path):
    raw = _circular_raw()
    del raw["dist_x"]
    path = _write_config(tmp_path, raw)
    assert cli_main(["--config", path, "--out", str(tmp_path / "out")]) == 2


def test_cli_non_integer_lemma_cases_exits_two(tmp_path):
    path = _write_config(tmp_path, {"schema_version": 1, "experiment": "lemmas",
                                    "master_seed": 5, "lemma_cases": "x"})
    assert cli_main(["--config", path, "--out", str(tmp_path / "out")]) == 2


_DS_RAW = {"schema_version": 1, "experiment": "ds_solve", "master_seed": 3}
_LEMMAS_RAW = {"schema_version": 1, "experiment": "lemmas", "master_seed": 3,
               "lemma_cases": 4, "max_size": 6}
_UNIVERSALITY_RAW = {"schema_version": 1, "experiment": "universality", "master_seed": 3,
                     "n_list": [12], "trials": 2, "dist_x": {"kind": "bernoulli"},
                     "dist_y": {"kind": "real_gaussian"}}
_HERMITIZE_RAW = {"schema_version": 1, "experiment": "hermitize", "master_seed": 5,
                  "n_list": [10], "trials": 1, "dist_x": {"kind": "bernoulli"},
                  "z_grid": [0.5]}
# at n = 1 the ratio gates would read sigma_min as sigma_{n-i}
_TAILS_N1_RAW = {"schema_version": 1, "experiment": "tails", "master_seed": 3,
                 "n_list": [1, 10], "trials": 2, "dist_x": {"kind": "bernoulli"},
                 "distance_n": 20, "distance_d": 10, "distance_trials": 2}


# In the CLI tests below, the label of a case names its experiment in the
# test ID and in the failure message.
@pytest.mark.parametrize("label,raw", [
    ("hermitize", {**_HERMITIZE_RAW, "eps_exponent": "x"}),
    ("circular", _circular_raw(threads="x")),
    ("circular", {**_circular_raw(), "n_list": ["x"]}),
    ("circular", _circular_raw(base={"kind": "low_rank", "rank": 1, "magnitude": "x"})),
    ("circular", _circular_raw(base={"kind": "low_rank", "rank": 1, "magnitude": 10**400})),
    ("ds-solve", {"schema_version": 1, "experiment": "ds_solve", "master_seed": 3,
                  "x_step": "x"}),
    ("ds-solve", {"schema_version": 1, "experiment": "ds_solve", "master_seed": 3,
                  "h_atoms": 3}),
    ("circular", _circular_raw(base={"kind": "two_block_diagonal", "b": 1.0})),
    # the explicit base kind is gone: it tied a config to one matrix size
    ("circular", _circular_raw(base={"kind": "explicit", "entries": [[1.0]]})),
    ("circular", _circular_raw(dist_x={"kind": "two_point_asymmetric", "p": "x"})),
    ("circular", {**_circular_raw(), "n_list": [50.9]}),
    ("circular", _circular_raw(threads=1.9)),
    ("circular", _circular_raw(trials=True)),
    ("circular", _circular_raw(seed=True)),
    ("ds-solve", {"schema_version": 1, "experiment": "ds_solve", "master_seed": 3,
                  "mp_oracle": "no"}),
    ("circular", _circular_raw(base={"kind": "two_block_diagonal", "a": 1.0, "b": 1.0,
                                     "scale_by_sqrt_n": "false"})),
    ("hermitize", {**_HERMITIZE_RAW, "z_grid": [True]}),
    ("ds-solve", {"schema_version": 1, "experiment": "ds_solve", "master_seed": 3,
                  "mp_oracle": True, "h_atoms": [1.0]}),
    ("ds-solve", {"schema_version": 1, "experiment": "ds_solve", "master_seed": 3,
                  "x_min": -math.inf}),
    # the disk centre comes from the base alone: circular has no center key
    ("circular", _circular_raw(center=[0.25, -0.5])),
    ("circular", _circular_raw(base={"kind": "low_rank", "rank": 1, "magnitude": math.inf})),
    ("tails", {**_TAILS_N1_RAW, "n_list": [10], "distance_d": 20}),  # needs d < distance_n
    ("ds-solve", {"schema_version": 1, "experiment": "ds_solve", "master_seed": 3,
                  "x_step": 1e-300}),
    # 2.84 PiB of Bernoulli entries: the allocation fails at once
    ("circular", _circular_raw(n=20_000_000)),
    ("circular", _circular_raw(base={"kind": "two_block_diagonal", "a": 1.0, "b": 1.0,
                                     "split": 1.5})),
    ("circular", _circular_raw(base={"kind": "low_rank", "rank": 0, "magnitude": 1.0})),
    ("circular", _circular_raw(base={"kind": "diagonal_from_measure", "atoms": []})),
    ("circular", _circular_raw(base={"kind": "low_rank", "rank": 1.5, "magnitude": 1.0})),
    ("circular", _circular_raw(dist_x={"kind": "two_point_asymmetric", "p": 1.0})),
    ("circular", _circular_raw(dist_x={"kind": "pareto_symmetrized", "exponent": 2.0})),
    ("tails", _TAILS_N1_RAW),
    # distance row 2^20 would reuse the stream key of trial 0 at distance_n + 1
    ("tails", {**_TAILS_N1_RAW, "n_list": [10], "distance_trials": 2**20}),
    # the universality gates read the medians in list order
    ("universality", {**_UNIVERSALITY_RAW, "n_list": [120, 30]}),
    ("universality", {**_UNIVERSALITY_RAW, "n_list": [60, 60]}),
    # the eta levels and the agreement tolerance of the Stieltjes inversion
    # are constants: a tolerance that would let a hard-edge grid pass, and
    # a schedule, are unknown keys
    ("ds-solve", {**_DS_RAW, "agreement_tol": 100.0}),
    ("ds-solve", {**_DS_RAW, "eta_schedule": [0.01, 0.001]}),
    # sides of 2^29 and more are rejected when parsed, before any allocation
    ("circular", {**_circular_raw(), "n_list": [3037000500]}),
    ("circular", {**_circular_raw(), "n_list": [2**39]}),
    ("universality", {**_UNIVERSALITY_RAW, "n_list": [12, 2**29]}),
    ("hermitize", {**_HERMITIZE_RAW, "n_list": [2**31 - 1]}),
    ("tails", {**_TAILS_N1_RAW, "n_list": [10], "distance_n": 2**39}),
    ("lemmas", {**_LEMMAS_RAW, "max_size": 2**39}),
    # output directories the OS cannot take, given in "--out" (which the
    # test passes through --out, not in the config): a lone surrogate
    # cannot be encoded, and a NUL cannot be in a path
    ("lemmas", {**_LEMMAS_RAW, "--out": "o_\ud800"}),
    ("lemmas", {**_LEMMAS_RAW, "--out": "o_\u0000x"}),
    # universality always compares against an independent draw of dist_y
    ("universality", {k: v for k, v in _UNIVERSALITY_RAW.items() if k != "dist_y"}),
    # the total-mass gate is gone: no config outside the tests set it
    ("ds-solve", {**_DS_RAW, "mp_oracle": True, "mass_check": True}),
    ("ds-solve", {**_DS_RAW, "x_min": 2.0, "x_max": 2.0}),
    ("ds-solve", {**_DS_RAW, "mp_oracle": True, "c": 0.5}),  # the oracle needs c = 1
    # the profile kinds are gone: no config outside the tests set them
    ("universality", {**_UNIVERSALITY_RAW, "profile": {"kind": "ramp", "low": 0.5, "high": 2.0}}),
    ("universality", {**_UNIVERSALITY_RAW, "profile": {"kind": "constant", "value": 1.0}}),
    # the output directory is not part of the config, and threads is read
    # only where trials are folded
    ("circular", _circular_raw(output_dir="out")),
    ("ds-solve", {**_DS_RAW, "threads": 1}),
    ("lemmas", {**_LEMMAS_RAW, "threads": 1}),
])
def test_cli_malformed_field_exits_two(tmp_path, label, raw):
    raw = dict(raw)
    out = str(tmp_path / raw.pop("--out", "out"))
    path = _write_config(tmp_path, raw)
    assert cli_main(["--config", path, "--out", out]) == 2, label
    assert os.listdir(tmp_path) == ["cfg.json"]


# gate thresholds are constants of the claims, not config keys
@pytest.mark.parametrize("experiment", sorted(_TINY_RUNS))
def test_cli_thresholds_key_exits_two(tmp_path, experiment):
    path = _write_config(tmp_path, {**_TINY_RUNS[experiment], "thresholds": {}})
    out = tmp_path / "out"
    assert cli_main(["--config", path, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("text", [b"\xff\xfe{}", b"[" * 100_000, b'{"a": ' * 100_000],
                         ids=["not_utf8", "deep_array", "deep_object"])
def test_cli_undecodable_or_too_deep_config_exits_two(tmp_path, text):
    path = tmp_path / "cfg.json"
    path.write_bytes(text)
    assert cli_main(["--config", str(path), "--out", str(tmp_path / "out")]) == 2


def test_cli_unallocatable_sizes_exit_two_without_output(tmp_path):
    path = _write_config(tmp_path, _circular_raw(n=20_000_000))
    out = tmp_path / "out"
    assert cli_main(["--config", path, "--out", str(out)]) == 2
    assert not out.exists()
    out.mkdir()  # a directory the caller made is kept
    assert cli_main(["--config", path, "--out", str(out)]) == 2
    assert out.is_dir()


@pytest.mark.parametrize("label,raw,code", [
    ("ds-solve", {**_DS_RAW, "h_weights": [0.5]}, 2),
    ("ds-solve", {**_DS_RAW, "h_atoms": [-1.0]}, 2),
    ("ds-solve", {**_DS_RAW, "c": 0}, 2),
    # weights that sum to 1 with one negative: MeasureH rejects them at run time
    ("ds-solve", {**_DS_RAW, "h_atoms": [0.0, 1.0], "h_weights": [1.5, -0.5]}, 2),
    # the inversion's keys are unknown even at the values a run uses
    ("ds-solve", {**_DS_RAW, "eta_schedule": [0.001, 0.0001]}, 2),
    ("ds-solve", {**_DS_RAW, "agreement_tol": 0.001}, 2),
    # eps = 10^-20 is below the rounding floor of the Gram matrix
    ("hermitize", {**_HERMITIZE_RAW, "eps_exponent": 20}, 3),
    # finite entries whose singular values overflow to inf
    ("tails", {**_TAILS_N1_RAW, "n_list": [2],
               "base": {"kind": "low_rank", "rank": 1, "magnitude": 1.7e308}}, 3),
    ("ds-solve", {**_DS_RAW, "x_min": 3.9, "x_max": 0.1}, 2),
    # no grid point in the Marchenko-Pastur window [0.1, 3.9] of the density gate
    ("ds-solve", {**_DS_RAW, "mp_oracle": True, "x_min": 0.01, "x_max": 0.05,
                  "x_step": 0.01}, 2),
    # |z|^2 overflows the eps floor of the Gram matrix
    ("hermitize", {**_HERMITIZE_RAW, "z_grid": [0.0, 1e200], "reference": "circular"}, 3),
    # shifts above the bound of the Dozier-Silverstein reference, rejected
    # when the config is parsed
    ("hermitize", {**_HERMITIZE_RAW, "z_grid": [0.0, 1e200], "reference": "ds"}, 2),
    ("hermitize", {**_HERMITIZE_RAW, "z_grid": [0.0, 1e100], "reference": "ds"}, 2),
    # profile entries times Pareto entries overflow in the draw: the
    # assembled matrix is not finite, and no overflow warning is raised
    ("universality", {**_UNIVERSALITY_RAW, "dist_x": {"kind": "pareto_symmetrized"},
                      "profile": {"low": 0.5, "high": 1.7e308}}, 2),
])
def test_cli_failed_run_leaves_no_empty_output_dir(tmp_path, label, raw, code):
    path = _write_config(tmp_path, raw)
    out = tmp_path / "out"
    assert cli_main(["--config", path, "--out", str(out)]) == code, label
    assert not out.exists()


# reference "ds" solves its Gram law for every |z| up to 3000 and fails
# from about 6400: a shift above the bound exits 2 and writes nothing, and
# a shift at it runs
@pytest.mark.parametrize("z_grid,code", [([0.5, 3000.5], 2), ([[0.0, -3000.5]], 2),
                                         ([[0.0, 3000.0]], 0)],
                         ids=["above", "above_imaginary", "at"])
def test_cli_ds_reference_shift_bound(tmp_path, z_grid, code):
    assert DS_REFERENCE_MAX_SHIFT == 3000.0
    path = _write_config(tmp_path, {**_HERMITIZE_RAW, "z_grid": z_grid, "reference": "ds"})
    out = tmp_path / "out"
    assert cli_main(["--config", path, "--out", str(out)]) == code
    assert (out / "manifest.json").exists() == (code == 0)


def test_cli_gram_not_positive_definite_exits_three(tmp_path, monkeypatch):
    # a Cholesky factorization that breaks down fails the run, exit 3
    def breaking_down(m):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", breaking_down)
    path = _write_config(tmp_path, _HERMITIZE_RAW)
    out = tmp_path / "out"
    assert cli_main(["--config", path, "--out", str(out)]) == 3
    assert not out.exists()


_HUGE_RUN = {"schema_version": 1, "master_seed": 1, "n_list": [4], "trials": 2,
             "dist_x": {"kind": "bernoulli"}}
# A/sqrt(n) is about 5e307 I: its bumps, its tail ratios
_HUGE_IDENTITY = {"kind": "low_rank", "rank": 4, "magnitude": 1e308}


# Entries near the float maximum overflow past assembly, and none of them
# warns (a warning is an error in this suite): |z|^2 of the circular
# eigenvalues (the second moment is inf and fails its gate, exit 1); S S*
# and ||S||_F of the regularized log-determinant (its eps floor is inf,
# exit 3); the bumps of the bounded-Lipschitz distance (an infinite offset
# is a zero bump, exit 0); the tails ratios (inf fails its gate, exit 1).
@pytest.mark.parametrize("raw,code", [
    (_circular_raw(n=10, base={"kind": "two_block_diagonal", "a": 1e300, "b": -1e300}), 1),
    ({**_HUGE_RUN, "experiment": "hermitize", "z_grid": [0, [0.5, 0.5]],
      "base": {"kind": "low_rank", "rank": 2, "magnitude": 1e160}}, 3),
    ({**_HUGE_RUN, "experiment": "hermitize", "z_grid": [0, [0.5, 0.5]],
      "base": {"kind": "diagonal_from_measure", "atoms": [1e154, -1e154]}}, 3),
    ({**_HUGE_RUN, "experiment": "universality", "dist_y": {"kind": "real_gaussian"},
      "base": _HUGE_IDENTITY}, 0),
    ({**_HUGE_RUN, "experiment": "tails", "distance_n": 4, "distance_d": 2,
      "distance_trials": 2, "base": _HUGE_IDENTITY}, 1),
], ids=["circular_second_moment", "hermitize_gram_product", "hermitize_gram_norm",
        "universality_bumps", "tails_ratios"])
def test_cli_overflow_warns_nothing(tmp_path, capsys, raw, code):
    path = _write_config(tmp_path, raw)
    assert cli_main(["--config", path, "--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    if code == 3:
        assert err.startswith("numerical failure: eps=") and err.count("\n") == 1, err
    else:
        assert err == "", err


def test_cli_tails_size_below_two_exits_two_without_output(tmp_path):
    path = _write_config(tmp_path, _TAILS_N1_RAW)
    out = tmp_path / "out"
    assert cli_main(["--config", path, "--out", str(out)]) == 2
    assert not out.exists()


_PROFILE = {"low": 0.5, "high": 2.0}
_FACTOR = {"a": 1.0, "b": 2.0}


# The keys set select the assembly: a profile, both sandwich factors, or
# neither.  Any other mix, and a factor that names a kind, exits 2.
@pytest.mark.parametrize("raw", [
    {**_UNIVERSALITY_RAW, "profile": _PROFILE, "sandwich_k": _FACTOR, "sandwich_l": _FACTOR},
    {**_UNIVERSALITY_RAW, "profile": _PROFILE, "sandwich_k": _FACTOR},
    {**_UNIVERSALITY_RAW, "sandwich_l": _FACTOR},
    {**_UNIVERSALITY_RAW, "sandwich_k": _FACTOR},
    {**_UNIVERSALITY_RAW, "sandwich_k": _FACTOR,
     "sandwich_l": {"kind": "two_block_diagonal", **_FACTOR}},
], ids=["profile_in_sandwich", "sandwich_k_in_hadamard", "sandwich_l_in_shift",
        "sandwich_k_in_shift", "factor_with_kind"])
def test_cli_universality_factor_outside_its_mode_exits_two(tmp_path, raw):
    path = _write_config(tmp_path, raw)
    out = tmp_path / "out"
    assert cli_main(["--config", path, "--out", str(out)]) == 2
    assert not out.exists()


# sha256 of the artifacts of the default mp_oracle run at seed 20260808,
# recorded while the inversion still solved four eta levels and read the
# last two
_DS_MP_SHA256 = {
    "ds.csv": "f1a55f61ee5adb6702debbb8755a8d8b32b4a712a4ae690d45f08b268ca73484",
    "trials.csv": "a1ecf5c0782b4a24200c1395d05bb7eeac756b28fc3b5a03bb96e29f686436f8",
}


def test_default_mp_oracle_run_bytes_pinned(tmp_path):
    raw = {**_DS_RAW, "master_seed": 20260808, "mp_oracle": True}
    run_experiment(config_from_dict(raw), tmp_path)
    for name, digest in _DS_MP_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


# sha256 of the artifacts of acceptance criterion 8's lemma config, recorded
# while each identity check still decomposed its case matrix again
_LEMMAS_SHA256 = {
    "manifest.json": "50068e2bb42b9d45f6c65404abe08cc95f84132c3f95bba2220b2b51f4a4a897",
    "trials.csv": "fa27daeea73c2c361addb80d748f89a39968fdb151f63b665d872c131b9782c9",
}


def test_lemma_run_bytes_pinned(tmp_path):
    raw = {"schema_version": 1, "experiment": "lemmas", "master_seed": 20260808,
           "lemma_cases": 30, "max_size": 10}
    run_experiment(config_from_dict(raw), tmp_path)
    for name, digest in _LEMMAS_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


_OVERFLOWING_BLOCKS = {"kind": "two_block_diagonal", "a": 1e308, "b": 1.0,
                       "scale_by_sqrt_n": True}


@pytest.mark.parametrize("label,raw", [
    ("circular", {**_circular_raw(base={"kind": "low_rank", "rank": 4, "magnitude": 1.0}),
                  "n_list": [3, 40]}),
    ("hermitize", {**_HERMITIZE_RAW, "n_list": [4, 5],
                   "base": {"kind": "low_rank", "rank": 5, "magnitude": 1.0}}),
    ("universality", {"schema_version": 1, "experiment": "universality", "master_seed": 3,
                      "n_list": [3, 40], "trials": 2,
                      "dist_x": {"kind": "bernoulli"}, "dist_y": {"kind": "real_gaussian"},
                      "base": {"kind": "low_rank", "rank": 4, "magnitude": 1.0},
                      "sandwich_k": _FACTOR, "sandwich_l": _FACTOR}),
    # sqrt(n) times a finite diagonal entry overflows
    ("circular", _circular_raw(n=20, base=_OVERFLOWING_BLOCKS)),
    ("hermitize", {**_HERMITIZE_RAW, "n_list": [20], "base": _OVERFLOWING_BLOCKS}),
    ("tails", {**_TAILS_N1_RAW, "n_list": [20], "base": _OVERFLOWING_BLOCKS}),
    ("tails", {**_TAILS_N1_RAW, "n_list": [20],
               "base": {"kind": "diagonal_from_measure", "atoms": [1e308]}}),
    ("universality", {**_UNIVERSALITY_RAW, "sandwich_k": _FACTOR,
                      "sandwich_l": {"a": 1e308, "b": 1.0, "scale_by_sqrt_n": True}}),
])
def test_cli_base_unbuildable_at_some_size_exits_two_and_writes_nothing(tmp_path, label,
                                                                         raw):
    path = _write_config(tmp_path, raw)
    out = tmp_path / "out"
    assert cli_main(["--config", path, "--out", str(out)]) == 2, label
    assert not out.exists()


def test_cli_uncreatable_output_dir_exits_two(tmp_path):
    path = _write_config(tmp_path, {"schema_version": 1, "experiment": "lemmas",
                                    "master_seed": 5, "lemma_cases": 2, "max_size": 6})
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    assert cli_main(["--config", path, "--out", str(a_file)]) == 2
    assert cli_main(["--config", path, "--out", str(a_file / "sub")]) == 2


def test_unwritable_artifact_is_a_configuration_error(tmp_path):
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    with pytest.raises(ConfigurationError):
        write_trials_csv(str(a_file / "trials.csv"), [])


_ZERO_BLOCK = {"a": 0.0, "b": 2.0, "split": 0.05}
_SANDWICH_RAW = {"schema_version": 1, "experiment": "universality", "master_seed": 3,
                 "n_list": [8, 12], "trials": 2,
                 "dist_x": {"kind": "bernoulli"}, "dist_y": {"kind": "real_gaussian"},
                 "sandwich_l": {"a": 1.0, "b": 2.0}}


@pytest.mark.parametrize("factor", [
    _ZERO_BLOCK, {"kind": "low_rank", "rank": 1, "magnitude": 1.0}], ids=["zero_entry", "low_rank"])
def test_cli_singular_sandwich_factor_exits_two_and_writes_nothing(tmp_path, factor):
    path = _write_config(tmp_path, {**_SANDWICH_RAW, "sandwich_k": factor})
    out = tmp_path / "out"
    assert cli_main(["--config", path, "--out", str(out)]) == 2
    assert not out.exists()


def test_sandwich_factor_is_singular_only_where_a_zero_block_is_nonempty(tmp_path):
    # split 0.05 gives the a block round(0.4) = 0 entries at n = 8 and one at n = 12
    config_from_dict({**_SANDWICH_RAW, "n_list": [8], "sandwich_k": _ZERO_BLOCK})
    # a tiny entry is exactly invertible, and scaling by it rounds once: it runs
    cfg = config_from_dict({**_SANDWICH_RAW, "sandwich_k": {**_ZERO_BLOCK, "a": 1e-300}})
    assert len(run_experiment(cfg, tmp_path).records) == 4


# the grid reaches the hard edge at 0, where the densities at the two eta
# levels cannot agree
def test_cli_numerical_failure_exits_three(tmp_path):
    raw = {"schema_version": 1, "experiment": "ds_solve", "master_seed": 3,
           "x_min": 0.0, "x_max": 0.1, "x_step": 0.05}
    path = _write_config(tmp_path, raw)
    assert cli_main(["--config", path, "--out", str(tmp_path / "out")]) == 3

"""Artifact emission: CSV tables, SVG scatter figures, run manifests.

Numbers are printed with 17 significant digits and a '.' decimal
separator so reruns with the same config are byte-identical and
cross-language golden comparisons are meaningful.  Non-finite values
appear literally as 'inf', '-inf' and 'nan', in the manifest too.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

from ..errors import ConfigurationError


def format_number(v):
    if isinstance(v, (int,)) and not isinstance(v, bool):
        return str(v)
    v = float(v)
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return f"{v:.17g}"


def _write_text(path, text):
    try:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigurationError(f"cannot write artifact {path}: {exc}") from exc


def _write_csv(path, header, rows):
    """A CSV table: the header, then one line per row; a cell that is not
    a string is printed by ``format_number``."""
    lines = [header]
    lines += [",".join(c if isinstance(c, str) else format_number(c) for c in row)
              for row in rows]
    _write_text(path, "\n".join(lines) + "\n")


def write_trials_csv(path, records):
    """Long-format trial table: (experiment, n, trial, seed, metric, value)."""
    _write_csv(path, "experiment,n,trial,seed,metric,value",
               ((rec.experiment, rec.n, rec.trial, rec.seed, metric, value)
                for rec in records for metric, value in rec.metrics.items()))


def write_field_csv(path, rows):
    """Log-potential field table: (re_z, im_z, f_n, f_reg, reference, gap)."""
    _write_csv(path, "re_z,im_z,f_n,f_reg,reference,gap", rows)


def write_ds_csv(path, solution):
    """Stieltjes solution table: (x, eta, re_m, im_m, density)."""
    _write_csv(path, "x,eta,re_m,im_m,density",
               ((x, solution.eta, m.real, m.imag, rho) for x, m, rho
                in zip(solution.x_grid, solution.m_values, solution.density)))


def scatter_svg(mu, center=0j):
    """SVG scatter of a plane ESD given as its atom array mu, 500 px on
    viewBox [-2.5, 2.5]^2: one one-pixel glyph per atom, axes, and a
    unit-circle overlay at the given center.  A scale(1,-1) group keeps
    the imaginary axis pointing up."""
    center = complex(center)
    size_px, view = 500, 2.5
    px = 2.0 * view / size_px  # one rendered pixel, in plane units

    def fmt(v):
        return format_number(float(v))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size_px}" height="{size_px}" '
        f'viewBox="{fmt(-view)} {fmt(-view)} {fmt(2 * view)} {fmt(2 * view)}">',
        f'<rect x="{fmt(-view)}" y="{fmt(-view)}" width="{fmt(2 * view)}" '
        f'height="{fmt(2 * view)}" fill="white"/>',
        '<g transform="scale(1,-1)">',
        f'<line x1="{fmt(-view)}" y1="0" x2="{fmt(view)}" y2="0" '
        f'stroke="#999" stroke-width="{fmt(px)}"/>',
        f'<line x1="0" y1="{fmt(-view)}" x2="0" y2="{fmt(view)}" '
        f'stroke="#999" stroke-width="{fmt(px)}"/>',
        f'<circle cx="{fmt(center.real)}" cy="{fmt(center.imag)}" r="1" '
        f'fill="none" stroke="#d62728" stroke-width="{fmt(1.5 * px)}"/>',
    ]
    for z in mu:
        parts.append(f'<circle cx="{fmt(z.real)}" cy="{fmt(z.imag)}" r="{fmt(px)}" '
                     'fill="#1f77b4"/>')
    parts.extend(["</g>", "</svg>"])
    return "\n".join(parts) + "\n"


def write_svg(path, svg_text):
    _write_text(path, svg_text)


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _json_number(v):
    """A finite float as is; inf, -inf and nan spelled as in the CSVs."""
    v = float(v)
    return v if math.isfinite(v) else format_number(v)


def write_manifest(out_dir, config_dict, thresholds, gates, artifact_paths):
    """Config echo + resolved thresholds + gate records + artifact hashes.
    Each gate is recorded as {name, observed, op, threshold, passed}."""
    manifest = {
        "schema_version": 2,
        "config": config_dict,
        "thresholds_resolved": thresholds,
        "gates": [{"name": g.name, "observed": _json_number(g.observed), "op": g.op,
                   "threshold": ([_json_number(t) for t in g.threshold] if g.op == "in"
                                 else _json_number(g.threshold)),
                   "passed": g.passed} for g in gates],
        "artifacts": {os.path.relpath(p, out_dir): sha256_file(p) for p in sorted(artifact_paths)},
    }
    path = os.path.join(out_dir, "manifest.json")
    _write_text(path, json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False) + "\n")
    return path

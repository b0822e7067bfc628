"""The names that the benchmark's span tracer rebinds must exist in esdlab.

``perfbench/tracing.py`` patches module attributes by name; a refactor
that renames or deletes one of them breaks the traced benchmark runs
without failing anything else.
"""

import importlib.util
import pathlib

from esdlab import limits

_TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = _load_tracing()
    targets = tracing._targets()
    assert targets
    for owner, attr, *_ in targets:
        assert callable(getattr(owner, attr, None)), (owner, attr)
    assert callable(getattr(limits, "ds_rhs", None))


def test_install_then_uninstall_restores_every_name():
    tracing = _load_tracing()
    names = [(owner, attr) for owner, attr, *_ in tracing._targets()] + [(limits, "ds_rhs")]
    before = [getattr(owner, attr) for owner, attr in names]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(getattr(owner, attr) is not original
                   for (owner, attr), original in zip(names, before))
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is original
               for (owner, attr), original in zip(names, before))

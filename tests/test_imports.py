"""Every import in src/, tests/ and demos/ is used, and every definition
in src/esdlab is read somewhere.

The re-exports of an ``__init__.py`` and ``from __future__`` imports are
exempt.  A name counts as used when the module reads it anywhere (a bare
name, or the root of an attribute chain) or lists it in ``__all__``.

A module-level def, class or assignment in src/esdlab (outside the
``__init__.py`` files, dunders aside) must be read by some file under
src/, tests/, demos/ or perfbench/: as a loaded name, an attribute, an
imported name, or a string constant (``perfbench/tracing.py`` names the
attributes it rebinds as strings).  A re-export in an ``__init__.py`` is
not a read.  No such definition may be read by tests alone: each one must
be read outside the unit tests (by src/, demos/, perfbench/ or the
acceptance suite), or be named in ``TEST_ONLY_KEPT`` with its reason.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src", "tests", "demos") for p in (ROOT / d).rglob("*.py")
               if p.name != "__init__.py")
READERS = FILES + sorted((ROOT / "perfbench").rglob("*.py"))
NON_TEST_READERS = [p for p in READERS
                    if not p.is_relative_to(ROOT / "tests") or p.name == "test_acceptance.py"]
# definitions that only unit tests read, kept on purpose
TEST_ONLY_KEPT = {
    "mp_cdf",  # the reference that tests compare the Gram ESD against
    "girko_kernel",  # the only isolated check of the closed form
    # the only reader in hermitization of the singular_values that the
    # benchmark's span tracer rebinds there
    "shifted_singular_values",
}


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_files_found():
    assert len(FILES) > 20


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_import(path):
    unused = _unused_imports(ast.parse(path.read_text(), str(path)))
    assert not unused, [f"{path.name}:{line} {name}" for line, name in unused]


def test_detector_flags_an_unused_import():
    tree = ast.parse("import math\nimport os.path\nfrom a import b as c, d\nprint(d, os)\n")
    assert _unused_imports(tree) == [(1, "math"), (3, "c")]


def _definitions(tree):
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [(node.lineno, n.id) for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)]
    return [(line, name) for line, name in names
            if not (name.startswith("__") and name.endswith("__"))]


def _reads(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def _dead_definitions(tree, readers):
    read = set().union(*map(_reads, readers))
    return [(line, name) for line, name in _definitions(tree) if name not in read]


def _unread_definitions(reader_paths):
    readers = [ast.parse(p.read_text(), str(p)) for p in reader_paths]
    return [f"{path.relative_to(ROOT)}:{line} {name}"
            for path in FILES if path.is_relative_to(ROOT / "src" / "esdlab")
            for line, name in _dead_definitions(ast.parse(path.read_text(), str(path)),
                                                readers)]


def test_no_dead_definition():
    dead = _unread_definitions(READERS)
    assert not dead, dead


def test_no_definition_only_a_test_reads():
    # a kept name that something outside the tests reads leaves the set
    unread = _unread_definitions(NON_TEST_READERS)
    assert {entry.rsplit(" ", 1)[1] for entry in unread} == TEST_ONLY_KEPT, unread


def test_detector_flags_a_dead_definition():
    module = ast.parse("STALE_TOL = 1e-12\n__all__ = []\nx, y = 1, 2\n"
                       "def f():\n    return x\nclass C:\n    pass\n")
    reader = ast.parse("from m import f\ngetattr(m, 'C')\nprint(m.y)\n")
    assert _dead_definitions(module, [module, reader]) == [(1, "STALE_TOL")]

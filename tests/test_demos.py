"""The demo scripts compile, import only names that exist, and the fast
ones run end to end.

Every demo is compiled and import-checked, which catches a demo left
behind by a rename or a deletion in the library.  Demos 01 and 03-06
take a few seconds at most and also run end to end, from a copy in a
temporary directory, so their ``out/`` directory lands there.
"""

import ast
import importlib
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
FAST_DEMOS = ("01_circular_law.py", "03_hermitization.py", "04_dozier_silverstein.py",
              "05_identities.py", "06_tail_bounds.py")


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_compiles_and_its_esdlab_imports_exist(path):
    source = path.read_text(encoding="utf-8")
    compile(source, str(path), "exec")
    tree = ast.parse(source, str(path))
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and node.module and node.module.split(".")[0] == "esdlab"]
    assert imports, f"{path.name} imports nothing from esdlab"
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), f"{path.name}: {node.module}.{alias.name}"


@pytest.mark.parametrize("name", FAST_DEMOS)
def test_fast_demo_runs(tmp_path, name):
    script = tmp_path / name
    shutil.copyfile(ROOT / "demos" / name, script)
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert list((tmp_path / "out").rglob("manifest.json"))

"""What importing the package loads, and what the test oracles import."""
from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import relfix

ROOT = Path(__file__).resolve().parent.parent


SUBMODULES = ("errors", "finstruct", "fractal", "lattice", "mu", "nu", "sigterm")


def run_python(code: str) -> str:
    """stdout of `python -c code` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    ))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_loads_no_submodule():
    out = run_python("import sys, relfix; print(sorted(m for m in sys.modules if m.startswith('relfix')))")
    assert out == "['relfix']\n"


def test_submodules_resolve_as_attributes():
    """`relfix.lattice` and the others resolve without an explicit import."""
    out = run_python(f"import relfix; print(*(getattr(relfix, m).__name__ for m in {SUBMODULES}))")
    assert out.split() == [f"relfix.{m}" for m in SUBMODULES]


@pytest.mark.parametrize("name", relfix.__all__)
def test_export_is_its_definition(name):
    obj = getattr(relfix, name)
    assert obj.__module__.startswith("relfix.")
    assert getattr(sys.modules[obj.__module__], name) is obj
    namespace: dict = {}
    exec(f"from relfix import {name}", namespace)
    assert namespace[name] is obj


def test_dir_covers_all():
    assert set(relfix.__all__) <= set(dir(relfix))


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        relfix.no_such_name
    with pytest.raises(ImportError):
        exec("from relfix import no_such_name", {})


def test_star_import():
    namespace: dict = {}
    exec("from relfix import *", namespace)
    assert set(relfix.__all__) <= set(namespace)
    assert namespace["safety_check"] is sys.modules["relfix.lattice"].safety_check


def test_oracles_import_nothing_from_relfix():
    """The oracles derive expected values independently of the library."""
    tree = ast.parse((ROOT / "tests" / "oracles.py").read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
    assert imported, "no imports found; the parse read the wrong file"
    assert not [m for m in imported if m.split(".")[0] == "relfix"], imported

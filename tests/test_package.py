"""What importing the package loads, and what the test oracles import."""
from __future__ import annotations

import ast
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

import relfix
from cases import child_env

ROOT = Path(__file__).resolve().parent.parent


SUBMODULES = ("errors", "finstruct", "fractal", "lattice", "mu", "nu", "sigterm")


def run_python(code: str) -> str:
    """stdout of `python -c code` in a fresh interpreter."""
    env = child_env()
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


def imported_modules(path: Path) -> list[str]:
    """The modules that the source file at `path` imports, by its syntax tree."""
    imported = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
    return imported


def test_oracles_import_nothing_from_relfix():
    """The oracles derive expected values independently of the library."""
    imported = imported_modules(ROOT / "tests" / "oracles.py")
    assert imported, "no imports found; the parse read the wrong file"
    assert not [m for m in imported if m.split(".")[0] == "relfix"], imported


def test_every_export_has_a_caller():
    """Each exported name is used by the library, a script, the benchmark or
    an acceptance criterion, not only by its own tests.  Uses are name tokens
    outside `__init__.py`, other than the name's own `def` or `class`."""
    files = [p for p in (ROOT / "src" / "relfix").glob("*.py") if p.name != "__init__.py"]
    files += [*(ROOT / "scripts").rglob("*.py"), *(ROOT / "bench").rglob("*.py")]
    files.append(ROOT / "tests" / "test_acceptance.py")
    used: set[str] = set()
    for path in files:
        with path.open("rb") as f:
            tokens = [t for t in tokenize.tokenize(f.readline) if t.type == tokenize.NAME]
        used.update(t.string for prev, t in zip([None, *tokens], tokens)
                    if prev is None or prev.string not in ("def", "class"))
    assert [name for name in relfix.__all__ if name not in used] == []


def test_no_module_imports_dataclasses():
    """The record classes are written by hand: importing `dataclasses` loads
    `inspect`, `ast`, `dis` and `tokenize`, several milliseconds of every
    command's start-up."""
    sources = sorted((ROOT / "src" / "relfix").glob("*.py"))
    assert len(sources) > len(SUBMODULES)
    for path in sources:
        assert "dataclasses" not in [m.split(".")[0] for m in imported_modules(path)], path.name
    code = (
        "import sys\n"
        "import relfix.cli, relfix.jsonio, relfix.lattice, relfix.nu, relfix.mu, relfix.fractal\n"
        "print('dataclasses' in sys.modules, 'inspect' in sys.modules)"
    )
    env = child_env()
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False False\n"

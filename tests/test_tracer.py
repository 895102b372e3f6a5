"""The benchmark tracer patches every name it traces and puts them all back.

`bench/tracer.py` looks each traced name up in its owner's `__dict__`, so
renaming or deleting one of them breaks `bench/run.py --trace 1`; this test
catches that in the ordinary suite.
"""
from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

from relfix.sigterm import Signature

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("relfix_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_attrs(tracer):
    """(owner, attribute) of every name the tracer patches."""
    targets = [(m, p) for m, p, *_ in tracer.TARGETS] + [tracer.BITS_TARGET[:2]]
    for mod_name, path in targets:
        owner = importlib.import_module(mod_name)
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        yield owner, attr


def test_tracer_install_and_uninstall(monkeypatch):
    tracer = load_tracer(monkeypatch)
    attrs = list(traced_attrs(tracer))
    for owner, attr in attrs:
        assert attr in owner.__dict__, f"{owner.__name__}.{attr} is traced but missing"
    before = [owner.__dict__[attr] for owner, attr in attrs]

    t = tracer.Tracer()
    t.install()
    try:
        assert all(owner.__dict__[attr] is not raw for (owner, attr), raw in zip(attrs, before))
        sigterm = importlib.import_module("relfix.sigterm")
        sig = Signature((("f", 1),))
        op = SimpleNamespace(family="probe", label="parse")
        term = t.run_op(op, lambda _: sigterm.parse_term(sig, "f(x)"))
        assert str(term) == "f(x)"
        assert t.calls["sigterm.parse_term"] == 1
        assert t.calls["op.probe"] == 1
    finally:
        t.uninstall()
    assert all(owner.__dict__[attr] is raw for (owner, attr), raw in zip(attrs, before))

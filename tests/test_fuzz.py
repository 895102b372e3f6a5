"""Malformed problem files end in an answer or a documented exit code.

Each example takes one of the sample files in scripts/data, applies a few
mutations (drop a key, give a value another JSON type, rename a symbol,
state or label, change a number), and runs it through every subcommand that
reads that kind of file, in-process.  Replacement numbers include wide
arities, and a file may first gain an unused symbol of arity 10^8; every
subcommand must refuse or answer within 2 s.  Half the examples instead
take only mutations that keep the file loadable, so that the commands get
past loading and run their kernels.
"""
from __future__ import annotations

import contextlib
import io
import json
import time
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from relfix.cli import main

DATA = Path(__file__).resolve().parent.parent / "scripts" / "data"

# argv per sample file; "{}" is replaced by the mutated file
COMMANDS = {
    "chain_safe.json": [["safety", "{}"], ["galois", "{}"]],
    "chain_unsafe.json": [["safety", "{}"], ["galois", "{}", "--post", "s2", "--pre", "s0"]],
    "flip_algebra.json": [
        ["nu-enum", "{}", "--root", "0", "--depth", "3"],
        ["nu-check", "{}", str(DATA / "guided_prefix.json")],
        ["hylo", str(DATA / "two_cycle.json"), "{}", "--list"],
    ],
    "guided_prefix.json": [["nu-check", str(DATA / "flip_algebra.json"), "{}"]],
    "three_state.json": [
        ["mu-eq", "{}", "cross(q0, q1)", "q2"],
        ["cartesian", "{}", "--classify"],
        ["recursive", "{}", "--max-carrier", "2"],
    ],
    "two_cycle.json": [
        ["hylo", "{}", str(DATA / "flip_algebra.json"), "--list"],
        ["cartesian", "{}"],
        ["recursive", "{}", "--max-carrier", "2"],
    ],
}
SAMPLES = {name: json.loads((DATA / name).read_text()) for name in COMMANDS}

NAMES = ["0", "1", "2", "q0", "q1", "s0", "s2", "chk", "cross", "", "x y"]
# small numbers and wide arities
NUMBERS = st.one_of(st.integers(-2, 3), st.sampled_from([12, 30, 20000]))
# one value of each JSON type, to swap in for a value of another type
OTHER_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    NUMBERS,
    st.floats(-1, 3, allow_nan=False),
    st.sampled_from(NAMES),
    st.lists(st.sampled_from(NAMES), max_size=2),
    st.dictionaries(st.sampled_from(["op", "args", "label", "name"]), st.sampled_from(NAMES), max_size=2),
)


def _slots(doc):
    """(container, key) for every value below the top level, in document order."""
    stack, out = [doc], []
    while stack:
        node = stack.pop()
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            out.append((node, key))
            if isinstance(value, (dict, list)):
                stack.append(value)
    return out


def _widen(doc) -> None:
    """Declare an unused symbol of arity 10^8.  An algebra keeps only its first
    carrier element, with that element's rows and as its default: there the
    symbol has a single argument tuple, so counting tuples cannot refuse it."""
    if "signature" not in doc:
        return
    doc["signature"]["symbols"].append({"name": "p", "arity": 10**8})
    if doc["kind"] == "algebra":
        first = doc["carrier"][0]
        doc["carrier"], doc["default"] = [first], first
        doc["table"] = [row for row in doc["table"] if {*row["args"], row["out"]} == {first}]


def _mutate(doc, data) -> None:
    slots = _slots(doc)
    if not slots:
        return
    node, key = data.draw(st.sampled_from(slots))
    how = data.draw(st.sampled_from(["drop", "retype", "rename"]))
    value = node[key]
    if how == "drop" and isinstance(node, dict):
        del node[key]
    elif how == "rename" and isinstance(value, str):
        node[key] = data.draw(st.sampled_from(NAMES))
    elif how == "rename" and type(value) is int:
        node[key] = data.draw(NUMBERS)
    elif how == "rename" and isinstance(value, dict) and value:
        # rename a key that names a state or label, keeping its value
        old = data.draw(st.sampled_from(sorted(value)))
        value[data.draw(st.sampled_from(NAMES))] = value.pop(old)
    else:
        node[key] = data.draw(OTHER_VALUES.filter(lambda v: type(v) is not type(value)))


def _reshape(doc, data) -> None:
    """A mutation that keeps the file loadable: an algebra changes one table
    output, gains a `default` or, when it has one, drops one row; a machine
    or transition system changes one successor.  A prefix takes a
    `_mutate`."""
    kind = doc.get("kind")
    if kind == "algebra":
        how = data.draw(st.sampled_from(
            ["output", "default"] + (["drop"] if "default" in doc and doc["table"] else [])
        ))
        if how == "output" and doc["table"]:
            row = data.draw(st.sampled_from(doc["table"]))
            row["out"] = data.draw(st.sampled_from(doc["carrier"]))
        elif how == "drop":
            del doc["table"][data.draw(st.integers(0, len(doc["table"]) - 1))]
        else:
            doc["default"] = data.draw(st.sampled_from(doc["carrier"]))
    elif kind in ("coalgebra", "transition-system"):
        succs = [step["args"] for step in doc["step"].values()] if kind == "coalgebra" else doc["delta"].values()
        args, i = data.draw(st.sampled_from([(args, i) for args in succs for i in range(len(args))]))
        args[i] = data.draw(st.sampled_from(doc["states"]))
    else:
        _mutate(doc, data)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_mutated_sample_files_end_in_a_documented_exit(tmp_path_factory, data):
    name = data.draw(st.sampled_from(sorted(COMMANDS)))
    doc = json.loads(json.dumps(SAMPLES[name]))
    mutations = data.draw(st.integers(1, 3))
    # a widened file no longer shares its signature with the sample it is
    # paired with, so only the malformed half widens
    mutate = _reshape if data.draw(st.booleans()) else _mutate
    if mutate is _mutate and data.draw(st.booleans()):  # as one of the mutations
        _widen(doc)
        mutations -= 1
    for _ in range(mutations):
        mutate(doc, data)
    path = tmp_path_factory.mktemp("fuzz") / name
    path.write_text(json.dumps(doc))
    for argv in COMMANDS[name]:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([str(path) if a == "{}" else a for a in argv])
        assert time.perf_counter() - start < 2, (argv, doc)
        assert code in (0, 1, 2, 3), (argv, doc)
        if code in (1, 2):
            assert err.getvalue().startswith("error:"), (argv, doc, err.getvalue())
        assert "Traceback" not in err.getvalue()

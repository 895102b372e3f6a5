"""Versioned JSON problem files and canonical serialization.

Every file carries "format": 1 at the top level; an optional "kind" field is
checked against the expected kind when present.  Output is canonical: keys
sorted, two-space indent, trailing newline, so identical inputs produce
byte-identical files.
"""
from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any

from .errors import Record, SchemaError

# Each loader imports the one class it builds, so reading a file loads only
# the module that file's kind belongs to.
if TYPE_CHECKING:
    from .finstruct import FinAlgebra, FinCoalgebra
    from .lattice import TransitionSystem
    from .nu import TreePrefix
    from .sigterm import Signature

FORMAT_VERSION = 1

KNOWN_KINDS = (
    "signature",
    "coalgebra",
    "algebra",
    "transition-system",
    "prefix",
)


class ProblemFile(Record):
    """A validated problem file: its declared kind and the raw payload."""

    __slots__ = _fields = ("kind", "payload")

    def __init__(self, kind: str, payload: dict):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "payload", payload)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind, self.payload) == (other.kind, other.payload)

    def __hash__(self) -> int:
        return hash((self.kind, self.payload))


def canonical_dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """An object's members as a dict; a key given twice is refused, where
    `json` alone would keep the last."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen: set[str] = set()
        for key, _ in pairs:
            if key in seen:
                raise SchemaError(f"object key {key!r} is given twice")
            seen.add(key)
    return obj


def load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from None
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from None
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: top level must be an object")
    return obj


def _load(path, kind: str | None) -> dict:
    """Read a problem file and check its version header, and its declared
    kind against `kind` unless that is None."""
    obj = load_json(path)
    if obj.get("format") != FORMAT_VERSION:
        raise SchemaError(f"{path}: expected \"format\": {FORMAT_VERSION}")
    if kind is not None and "kind" in obj and obj["kind"] != kind:
        raise SchemaError(f"{path}: expected kind {kind!r}, found {obj['kind']!r}")
    return obj


def _construct(where: str, cls, *args):
    """Build `cls(*args)`, reporting a ValueError as a SchemaError at `where`."""
    try:
        return cls(*args)
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from None


def _str_list(value, where: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise SchemaError(f"{where}: expected a list of strings")
    return value


def signature_from_json(obj, where: str = "signature") -> Signature:
    from .sigterm import Signature

    if not isinstance(obj, dict) or not isinstance(obj.get("symbols"), list):
        raise SchemaError(f"{where}: expected an object with a \"symbols\" list")
    symbols = []
    for entry in obj["symbols"]:
        if (
            not isinstance(entry, dict)
            or not isinstance(entry.get("name"), str)
            or type(entry.get("arity")) is not int  # a bool is an int subclass
        ):
            raise SchemaError(f"{where}: each symbol needs a string name and integer arity")
        symbols.append((entry["name"], entry["arity"]))
    return _construct(where, Signature, tuple(symbols))


def signature_to_json(sig: Signature) -> dict:
    return {"symbols": [{"name": n, "arity": a} for n, a in sig.symbols]}


def load_problem(path) -> ProblemFile:
    """Read any problem file, checking only the version header and the kind."""
    obj = _load(path, None)
    kind = obj.get("kind")
    if kind not in KNOWN_KINDS:
        raise SchemaError(f"{path}: unknown kind {kind!r}")
    return ProblemFile(kind, obj)


def load_signature(path) -> Signature:
    obj = _load(path, "signature")
    return signature_from_json(obj, str(path))


def load_coalgebra(path) -> FinCoalgebra:
    from .finstruct import FinCoalgebra

    obj = _load(path, "coalgebra")
    sig = signature_from_json(obj.get("signature"), f"{path}: signature")
    states = tuple(_str_list(obj.get("states"), f"{path}: states"))
    raw_step = obj.get("step")
    if not isinstance(raw_step, dict):
        raise SchemaError(f"{path}: expected a \"step\" object")
    step = {}
    for state, entry in raw_step.items():
        if not isinstance(entry, dict) or not isinstance(entry.get("op"), str):
            raise SchemaError(f"{path}: step of {state!r} needs an \"op\" string")
        args = _str_list(entry.get("args", []), f"{path}: step of {state!r}")
        step[state] = (entry["op"], tuple(args))
    return _construct(str(path), FinCoalgebra, sig, states, step)


def coalgebra_to_json(coalg: FinCoalgebra) -> dict:
    return {
        "format": FORMAT_VERSION,
        "kind": "coalgebra",
        "signature": signature_to_json(coalg.sig),
        "states": list(coalg.states),
        "step": {
            x: {"op": op, "args": list(args)} for x, (op, args) in coalg.step.items()
        },
    }


def load_algebra(path) -> FinAlgebra:
    from .finstruct import FinAlgebra

    obj = _load(path, "algebra")
    sig = signature_from_json(obj.get("signature"), f"{path}: signature")
    carrier = tuple(_str_list(obj.get("carrier"), f"{path}: carrier"))
    raw_table = obj.get("table")
    if not isinstance(raw_table, list):
        raise SchemaError(f"{path}: expected a \"table\" list")
    table = {}
    for row in raw_table:
        if not isinstance(row, dict) or not isinstance(row.get("op"), str) or not isinstance(row.get("out"), str):
            raise SchemaError(f"{path}: each table row needs \"op\" and \"out\" strings")
        key = (row["op"], tuple(_str_list(row.get("args", []), f"{path}: table row")))
        if key in table:
            raise SchemaError(f"{path}: table row {key[0]}{key[1]} is given twice")
        table[key] = row["out"]
    default = obj.get("default")
    if default is not None and not isinstance(default, str):
        raise SchemaError(f"{path}: default must be a string when present")
    return _construct(str(path), FinAlgebra, sig, carrier, table, default)


def algebra_to_json(alg: FinAlgebra) -> dict:
    out = {
        "format": FORMAT_VERSION,
        "kind": "algebra",
        "signature": signature_to_json(alg.sig),
        "carrier": list(alg.carrier),
        "table": [
            {"op": op, "args": list(args), "out": v}
            for (op, args), v in alg.table.items()
        ],
    }
    if alg.default is not None:
        out["default"] = alg.default
    return out


def load_transition_system(path) -> TransitionSystem:
    from .lattice import TransitionSystem

    obj = _load(path, "transition-system")
    states = tuple(_str_list(obj.get("states"), f"{path}: states"))
    raw_delta = obj.get("delta")
    if not isinstance(raw_delta, dict):
        raise SchemaError(f"{path}: expected a \"delta\" object")
    delta = {
        x: frozenset(_str_list(succs, f"{path}: delta of {x!r}"))
        for x, succs in raw_delta.items()
    }
    init = frozenset(_str_list(obj.get("init"), f"{path}: init"))
    safe = frozenset(_str_list(obj.get("safe"), f"{path}: safe"))
    return _construct(str(path), TransitionSystem, states, delta, init, safe)


def transition_system_to_json(ts: TransitionSystem) -> dict:
    return {
        "format": FORMAT_VERSION,
        "kind": "transition-system",
        "states": list(ts.states),
        "delta": {x: sorted(ts.delta[x]) for x in ts.states},
        "init": sorted(ts.init),
        "safe": sorted(ts.safe),
    }


def prefix_from_json(obj, where: str = "prefix") -> TreePrefix:
    from .nu import TreePrefix

    if not isinstance(obj, dict) or not isinstance(obj.get("label"), str):
        raise SchemaError(f"{where}: each node needs a \"label\" string")
    if "op" not in obj and "children" not in obj:
        return TreePrefix(obj["label"])
    if not isinstance(obj.get("op"), str) or not isinstance(obj.get("children"), list):
        raise SchemaError(f"{where}: an expanded node needs \"op\" and \"children\"")
    children = tuple(prefix_from_json(c, where) for c in obj["children"])
    return TreePrefix(obj["label"], obj["op"], children)


def load_prefix(path) -> TreePrefix:
    obj = _load(path, "prefix")
    return prefix_from_json(obj.get("root"), f"{path}: root")


def prefix_to_json(prefix: TreePrefix) -> dict:
    if prefix.is_leaf:
        return {"label": prefix.label}
    return {
        "label": prefix.label,
        "op": prefix.op,
        "children": [prefix_to_json(c) for c in prefix.children],
    }

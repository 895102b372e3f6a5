"""Signatures, hash-consed first-order terms, and ground congruence closure.

Terms live in one global store: structurally equal terms are the same object,
so structural equality is an identity comparison and every node carries a
stable integer id in creation order.  Variables are bare identifiers and act
as fresh constants, disjoint from the symbols of any signature.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import ArityMismatch, DepthLimit, ParseError, UnknownSymbol

DEPTH_LIMIT = 10_000


@dataclass(frozen=True)
class Signature:
    """An ordered list of (symbol name, arity) pairs with distinct names."""

    symbols: tuple[tuple[str, int], ...]

    def __post_init__(self):
        sym = tuple((name, arity) for name, arity in self.symbols)
        object.__setattr__(self, "symbols", sym)
        if not sym:
            raise ValueError("a signature needs at least one symbol")
        seen = {}
        for name, arity in sym:
            if not isinstance(name, str) or not name:
                raise ValueError(f"bad symbol name {name!r}")
            if not isinstance(arity, int) or arity < 0:
                raise ValueError(f"bad arity {arity!r} for symbol '{name}'")
            if name in seen:
                raise ValueError(f"symbol '{name}' declared twice")
            seen[name] = arity
        object.__setattr__(self, "_arities", seen)

    def __contains__(self, name: str) -> bool:
        return name in self._arities

    def arity(self, name: str) -> int:
        try:
            return self._arities[name]
        except KeyError:
            raise UnknownSymbol(name) from None


class Term:
    """A node of the shared term DAG.

    `op` is the head symbol for applications and the variable name for
    variables; variables have `args is None`.  Do not call directly, use
    `var` and `app` which intern into the store.
    """

    __slots__ = ("node_id", "op", "args", "depth")

    def __init__(self, node_id: int, op: str, args: tuple["Term", ...] | None, depth: int):
        self.node_id = node_id
        self.op = op
        self.args = args
        self.depth = depth

    @property
    def is_var(self) -> bool:
        return self.args is None

    def __repr__(self) -> str:
        return f"Term({self})"

    def __str__(self) -> str:
        # iterative render: deep terms overflow the recursion stack
        parts: list[str] = []
        stack: list[object] = [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                parts.append(item)
                continue
            if item.is_var:
                parts.append(item.op)
            elif not item.args:
                parts.append(item.op + "()")
            else:
                parts.append(item.op + "(")
                stack.append(")")
                for i, arg in enumerate(reversed(item.args)):
                    stack.append(arg)
                    if i != len(item.args) - 1:
                        stack.append(",")
        return "".join(parts)

    def variables(self) -> tuple[str, ...]:
        """Variable names in first-occurrence order (left to right)."""
        return tuple(dict.fromkeys(n.op for n in postorder(self) if n.is_var))


_intern: dict[tuple, Term] = {}


def var(name: str) -> Term:
    """The variable with the given name."""
    if not isinstance(name, str) or not name:
        raise ValueError(f"bad variable name {name!r}")
    key = ("v", name)
    t = _intern.get(key)
    if t is None:
        t = Term(len(_intern), name, None, 0)
        _intern[key] = t
    return t


def app(op: str, args: Iterable[Term] = ()) -> Term:
    """The application of `op` to the given argument terms."""
    args = tuple(args)
    key = (op, tuple(a.node_id for a in args))
    t = _intern.get(key)
    if t is None:
        depth = 1 + max((a.depth for a in args), default=-1)
        if depth > DEPTH_LIMIT:
            raise DepthLimit(f"term depth {depth} exceeds limit {DEPTH_LIMIT}")
        t = Term(len(_intern), op, args, depth)
        _intern[key] = t
    return t


def term_store_size() -> int:
    """Number of distinct terms built so far (shared across the process)."""
    return len(_intern)


def postorder(t: Term) -> Iterator[Term]:
    """Unique nodes of the term DAG, children before parents."""
    seen: set[int] = set()
    stack: list[tuple[Term, bool]] = [(t, False)]
    while stack:
        node, expanded = stack.pop()
        if node.node_id in seen:
            continue
        if expanded or node.is_var or not node.args:
            seen.add(node.node_id)
            yield node
        else:
            stack.append((node, True))
            for a in reversed(node.args):
                if a.node_id not in seen:
                    stack.append((a, False))


def validate_term(sig: Signature, t: Term) -> None:
    """Check that every application in `t` uses a signature symbol at its arity."""
    for node in postorder(t):
        if node.is_var:
            continue
        if node.op not in sig:
            raise UnknownSymbol(node.op)
        expected = sig.arity(node.op)
        if len(node.args) != expected:
            raise ArityMismatch(node.op, expected, len(node.args))


_TOKEN = re.compile(r"[A-Za-z0-9_]+")


def parse_term(sig: Signature, text: str) -> Term:
    """Parse `op(arg1,...,argk)` syntax; bare identifiers are variables.

    A bare identifier that names a signature symbol is read as a nullary
    application instead.  Whitespace is ignored everywhere.  Errors carry the
    byte offset of the offending token.
    """
    pos = 0
    n = len(text)

    def skip_ws() -> None:
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    # frames hold (op name, offset of op, args collected so far)
    frames: list[tuple[str, int, list[Term]]] = []
    result: Term | None = None
    while True:
        skip_ws()
        if result is None:
            # expecting the start of a term
            m = _TOKEN.match(text, pos)
            if not m:
                what = "end of input" if pos >= n else f"character {text[pos]!r}"
                raise ParseError(f"expected an identifier, found {what}", pos)
            name = m.group()
            tok_at = pos
            pos = m.end()
            skip_ws()
            if pos < n and text[pos] == "(":
                pos += 1
                skip_ws()
                if pos < n and text[pos] == ")":
                    pos += 1
                    result = app(name, ())
                else:
                    frames.append((name, tok_at, []))
                continue
            result = app(name, ()) if name in sig else var(name)
            continue
        # a complete term in hand: close or extend the innermost frame
        if not frames:
            if pos < n:
                raise ParseError(f"unexpected trailing character {text[pos]!r}", pos)
            validate_term(sig, result)
            return result
        if pos >= n:
            raise ParseError("unexpected end of input, expected ',' or ')'", pos)
        ch = text[pos]
        if ch == ",":
            pos += 1
            frames[-1][2].append(result)
            result = None
        elif ch == ")":
            pos += 1
            op, _, args = frames.pop()
            args.append(result)
            result = app(op, args)
        else:
            raise ParseError(f"expected ',' or ')', found {ch!r}", pos)


@dataclass(frozen=True)
class EquationSet:
    """Ground equations between terms over one signature."""

    sig: Signature
    equations: tuple[tuple[Term, Term], ...]

    def __post_init__(self):
        eqs = tuple((lhs, rhs) for lhs, rhs in self.equations)
        object.__setattr__(self, "equations", eqs)
        for lhs, rhs in eqs:
            validate_term(self.sig, lhs)
            validate_term(self.sig, rhs)


class CongruenceClosure:
    """Decision procedure for the congruence generated by ground equations.

    Union-find over node ids plus a signature table keyed on (op, child
    representatives); merging two classes replays the affected parent
    applications so congruences propagate upward.  A merge moves the shorter
    use list into the longer one, so each entry moves O(log n) times.  No
    answer depends on which node represents a class.
    """

    def __init__(self, eqs: EquationSet):
        self._parent: dict[int, int] = {}
        self._use: dict[int, list[Term]] = {}
        self._sigtab: dict[tuple, Term] = {}
        self._pending: list[tuple[int, int]] = []
        for lhs, rhs in eqs.equations:
            self.register(lhs)
            self.register(rhs)
            self._pending.append((lhs.node_id, rhs.node_id))
            self._propagate()

    def _find(self, i: int) -> int:
        parent = self._parent
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:
            parent[i], i = root, parent[i]
        return root

    def register(self, t: Term) -> None:
        """Add a term's nodes; congruent nodes are merged as they appear."""
        for node in postorder(t):
            i = node.node_id
            if i in self._parent:
                continue
            self._parent[i] = i
            if node.is_var:
                continue
            for a in node.args:
                self._use.setdefault(self._find(a.node_id), []).append(node)
            key = (node.op, tuple(self._find(a.node_id) for a in node.args))
            existing = self._sigtab.get(key)
            if existing is None:
                self._sigtab[key] = node
            elif self._find(existing.node_id) != i:
                self._pending.append((existing.node_id, i))
                self._propagate()

    def _propagate(self) -> None:
        while self._pending:
            a, b = self._pending.pop()
            ra, rb = self._find(a), self._find(b)
            if ra == rb:
                continue
            if len(self._use.get(ra, ())) < len(self._use.get(rb, ())):
                ra, rb = rb, ra
            self._parent[rb] = ra
            moved = self._use.pop(rb, [])
            for p in moved:
                key = (p.op, tuple(self._find(c.node_id) for c in p.args))
                q = self._sigtab.get(key)
                if q is None:
                    self._sigtab[key] = p
                elif self._find(q.node_id) != self._find(p.node_id):
                    self._pending.append((q.node_id, p.node_id))
            self._use.setdefault(ra, []).extend(moved)

    def equal(self, s: Term, t: Term) -> bool:
        self.register(s)
        self.register(t)
        return self._find(s.node_id) == self._find(t.node_id)

    def classes(self, terms: Iterable[Term]) -> list[list[Term]]:
        """Partition of the given terms, classes and members in input order."""
        terms = list(terms)
        for t in terms:
            self.register(t)
        by_rep: dict[int, list[Term]] = {}
        seen_nodes: set[int] = set()
        for t in terms:
            if t.node_id in seen_nodes:
                continue
            seen_nodes.add(t.node_id)
            by_rep.setdefault(self._find(t.node_id), []).append(t)
        return list(by_rep.values())


def congruence_decide(eqs: EquationSet, s: Term, t: Term) -> bool:
    """Are s and t equal in every model of the equations?"""
    validate_term(eqs.sig, s)
    validate_term(eqs.sig, t)
    return CongruenceClosure(eqs).equal(s, t)

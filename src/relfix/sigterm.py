"""Signatures, hash-consed first-order terms, and ground congruence closure.

Terms live in one global store: structurally equal terms are the same object,
so structural equality is an identity comparison and every node carries a
stable integer id in creation order.  Variables are bare identifiers and act
as fresh constants, disjoint from the symbols of any signature.  The closure
keeps its own flat integer rows and interns nothing: terms enter it only as
equations and queries, and a machine's steps enter as rows directly.
"""
from __future__ import annotations

import re
from typing import Iterable, Iterator

from .errors import ArityMismatch, DepthLimit, ParseError, Record, UnknownSymbol

DEPTH_LIMIT = 10_000


class Signature(Record):
    """An ordered list of (symbol name, arity) pairs with distinct names."""

    __slots__ = ("symbols", "_arities", "_hash")
    _fields = ("symbols",)

    def __init__(self, symbols: tuple[tuple[str, int], ...]):
        sym = tuple((name, arity) for name, arity in symbols)
        object.__setattr__(self, "symbols", sym)
        if not sym:
            raise ValueError("a signature needs at least one symbol")
        seen = {}
        for name, arity in sym:
            if not isinstance(name, str) or not name:
                raise ValueError(f"bad symbol name {name!r}")
            if type(arity) is not int or arity < 0:  # a bool is an int subclass
                raise ValueError(f"bad arity {arity!r} for symbol '{name}'")
            if name in seen:
                raise ValueError(f"symbol '{name}' declared twice")
            seen[name] = arity
        object.__setattr__(self, "_arities", seen)
        # signatures key the meet algebra's cache and are compared per structure
        object.__setattr__(self, "_hash", hash(sym))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._hash == other._hash and self.symbols == other.symbols

    def __hash__(self) -> int:
        return self._hash

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


class EquationSet(Record):
    """Ground equations between terms over one signature."""

    __slots__ = _fields = ("sig", "equations")

    def __init__(self, sig: Signature, equations: tuple[tuple[Term, Term], ...]):
        object.__setattr__(self, "sig", sig)
        eqs = tuple((lhs, rhs) for lhs, rhs in equations)
        object.__setattr__(self, "equations", eqs)
        for lhs, rhs in eqs:
            validate_term(sig, lhs)
            validate_term(sig, rhs)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.sig, self.equations) == (other.sig, other.equations)

    def __hash__(self) -> int:
        return hash((self.sig, self.equations))


class CongruenceClosure:
    """Decision procedure for the congruence generated by ground equations.

    One engine over flat integer rows: node i is an atom (a variable, or a
    state of a machine) or a row (op, child node ids).  Union-find over node
    ids plus a signature table keyed on (op, child representatives): a row
    whose signature is present is that node, so congruent rows meet as they
    are added, and merging two classes re-keys the rows on the shorter use
    list before it joins the longer one, so each entry moves O(log n) times.
    `add` reads a term as rows, in postorder.  No answer depends on which
    node represents a class.
    """

    def __init__(self, eqs: EquationSet | None = None):
        self._parent: list[int] = []
        self._rows: list[tuple[str, tuple[int, ...]] | None] = []  # None for atoms
        self._use: list[list[int]] = []  # rows with a child in the class
        self._sigtab: dict[tuple, int] = {}
        self._atoms: dict[str, int] = {}
        if eqs is not None:
            for lhs, rhs in eqs.equations:
                self.merge(self.add(lhs), self.add(rhs))

    def _find(self, i: int) -> int:
        parent = self._parent
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:
            parent[i], i = root, parent[i]
        return root

    def atom(self, name: str) -> int:
        """The node a variable called `name` stands for, made on first use."""
        i = self._atoms.get(name)
        if i is None:
            i = self._atoms[name] = len(self._parent)
            self._parent.append(i)
            self._rows.append(None)
            self._use.append([])
        return i

    def row(self, op: str, kids: tuple[int, ...]) -> int:
        """The node of op(kids), made unless a congruent row is present."""
        key = (op, tuple([self._find(k) for k in kids]))
        i = self._sigtab.get(key)
        if i is None:
            i = self._sigtab[key] = len(self._parent)
            self._parent.append(i)
            self._rows.append((op, kids))
            self._use.append([])
            for k in key[1]:
                self._use[k].append(i)
        return i

    def merge(self, a: int, b: int) -> None:
        """Equate nodes a and b and close under congruence."""
        find, use, rows, sigtab = self._find, self._use, self._rows, self._sigtab
        pending = [(a, b)]
        while pending:
            a, b = pending.pop()
            ra, rb = find(a), find(b)
            if ra == rb:
                continue
            if len(use[ra]) < len(use[rb]):
                ra, rb = rb, ra
            self._parent[rb] = ra
            moved, use[rb] = use[rb], []
            for p in moved:
                op, kids = rows[p]
                q = sigtab.setdefault((op, tuple([find(k) for k in kids])), p)
                if q != p and find(q) != find(p):
                    pending.append((q, p))
            use[ra].extend(moved)

    def add(self, t: Term) -> int:
        """The node of a term, adding a row for each new application; a bare
        variable, what most equations and `classes` add, skips the walk."""
        if t.args is None:
            return self.atom(t.op)
        ids: dict[int, int] = {}
        for node in postorder(t):
            ids[node.node_id] = (
                self.atom(node.op) if node.args is None
                else self.row(node.op, tuple([ids[a.node_id] for a in node.args]))
            )
        return ids[t.node_id]

    def equal(self, s: Term, t: Term) -> bool:
        return self._find(self.add(s)) == self._find(self.add(t))

    def classes(self, terms: Iterable[Term]) -> list[list[Term]]:
        """Partition of the given terms, classes and members in input order."""
        by_rep: dict[int, list[Term]] = {}
        for t in dict.fromkeys(terms):  # terms are interned: identity is equality
            by_rep.setdefault(self._find(self.add(t)), []).append(t)
        return list(by_rep.values())


def congruence_decide(eqs: EquationSet, s: Term, t: Term) -> bool:
    """Are s and t equal in every model of the equations?"""
    validate_term(eqs.sig, s)
    validate_term(eqs.sig, t)
    return CongruenceClosure(eqs).equal(s, t)

"""Finite equation machines, finite algebras, and solutions of the square
f = alg . map(f) . step.

A machine (coalgebra of the signature functor) assigns each state one flat
successor term; an algebra interprets each symbol as an operation on a finite
carrier.  A solution maps states into the carrier so that evaluating a
state's successor term under the map reproduces the state's own value.
"""
from __future__ import annotations

from itertools import product
from operator import itemgetter
from typing import Iterator, Mapping

from .errors import DEFAULT_BUDGET, ArityMismatch, BudgetExceeded, Record, SignatureMismatch
from .sigterm import Signature


class FinCoalgebra(Record):
    """Finitely many states, each with one flat successor term step[x] = (op, args)."""

    __slots__ = _fields = ("sig", "states", "step")

    def __init__(self, sig: Signature, states: tuple[str, ...],
                 step: dict[str, tuple[str, tuple[str, ...]]]):
        object.__setattr__(self, "sig", sig)
        states = tuple(states)
        object.__setattr__(self, "states", states)
        state_set = set(states)
        if len(state_set) != len(states):
            raise ValueError("duplicate state names")
        norm: dict[str, tuple[str, tuple[str, ...]]] = {}
        for x in states:
            if x not in step:
                raise ValueError(f"state '{x}' has no step")
            op, args = step[x]
            args = tuple(args)
            expected = sig.arity(op)
            if len(args) != expected:
                raise ArityMismatch(op, expected, len(args))
            for y in args:
                if y not in state_set:
                    raise ValueError(f"step of '{x}' mentions unknown state '{y}'")
            norm[x] = (op, args)
        if len(step) != len(states):
            extra = sorted(set(step) - state_set)
            raise ValueError(f"step defined on non-states: {extra}")
        object.__setattr__(self, "step", norm)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.sig, self.states, self.step) == (other.sig, other.states, other.step)

    def __hash__(self) -> int:
        return hash((self.sig, self.states, self.step))


class FinAlgebra(Record):
    """A total interpretation of a signature on a finite carrier.

    Operations are given by an explicit table keyed on (op, argument tuple);
    a `default` output, if present, stands in for omitted rows.
    """

    _fields = ("sig", "carrier", "table", "default")
    # outputs[op]: in carrier order, the values op takes over the whole
    # carrier; it follows from the fields above and is not compared
    __slots__ = (*_fields, "outputs")

    def __init__(self, sig: Signature, carrier: tuple[str, ...],
                 table: dict[tuple[str, tuple[str, ...]], str], default: str | None = None):
        object.__setattr__(self, "sig", sig)
        carrier = tuple(carrier)
        object.__setattr__(self, "carrier", carrier)
        object.__setattr__(self, "default", default)
        carrier_set = set(carrier)
        if len(carrier_set) != len(carrier):
            raise ValueError("duplicate carrier elements")
        norm: dict[tuple[str, tuple[str, ...]], str] = {}
        outputs: dict[str, list[str]] = {op: [] for op, _ in sig.symbols}
        for (op, args), out in table.items():
            args = tuple(args)
            expected = sig.arity(op)
            if len(args) != expected:
                raise ArityMismatch(op, expected, len(args))
            if not set(args) <= carrier_set:
                raise ValueError(f"table row {op}{args} uses non-carrier arguments")
            if out not in carrier_set:
                raise ValueError(f"table row {op}{args} outputs non-carrier value {out!r}")
            norm[(op, args)] = out
            outputs[op].append(out)
        object.__setattr__(self, "table", norm)
        if default is not None and default not in carrier_set:
            raise ValueError(f"default {default!r} is not a carrier element")
        # the rows are distinct in-carrier tuples of the right arity, so a
        # symbol's table is total exactly when it has carrier^arity rows
        for op, arity in sig.symbols:
            rows, outs = len(outputs[op]), set(outputs[op])
            if rows != _saturating_pow(len(carrier), arity, rows):
                if default is None:
                    raise ValueError(
                        f"no default, and symbol '{op}' has {rows} table rows "
                        f"where {len(carrier)}^{arity} are needed"
                    )
                outs.add(default)
            outputs[op] = [c for c in carrier if c in outs]
        object.__setattr__(self, "outputs", outputs)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.sig, self.carrier, self.table, self.default) == (
            other.sig, other.carrier, other.table, other.default
        )

    def __hash__(self) -> int:
        return hash((self.sig, self.carrier, self.table, self.default))

    def app(self, op: str, args: tuple[str, ...]) -> str:
        out = self.table.get((op, args), self.default)
        if out is None:
            raise ValueError(f"no interpretation for {op}{args}")
        return out


def _check_shared_signature(coalg: FinCoalgebra, alg: FinAlgebra) -> None:
    if coalg.sig != alg.sig:
        raise SignatureMismatch("machine and algebra interpret different signatures")


def is_ca_morphism(coalg: FinCoalgebra, alg: FinAlgebra, f: Mapping[str, str]) -> bool:
    """Does f solve f(x) = alg(op)(f(y1),...,f(yk)) at every state?"""
    _check_shared_signature(coalg, alg)
    carrier = set(alg.carrier)
    for x in coalg.states:
        if x not in f:
            raise ValueError(f"map is not total: state '{x}' missing")
        if f[x] not in carrier:
            raise ValueError(f"map sends '{x}' outside the carrier")
    for x in coalg.states:
        op, args = coalg.step[x]
        if f[x] != alg.app(op, tuple(f[y] for y in args)):
            return False
    return True


# The search takes the most-mentioned states first only past this many
# narrowed assignments; below it, sorting costs more than it saves.  Sorting
# on every call made `classify_cartesian` on 4-state `f/2, h/2` machines
# (space at most 16) 1.5 us slower, 20.4 -> 22.1 us per call; on the 8-12
# state pairs of the `wide` benchmark, thresholds from 64 to 4096 read alike.
SEARCH_ORDER_SPACE = 256


def _values_of(args: tuple[str, ...]):
    """A function that reads the values of `args` (at least one) out of an
    assignment, as a tuple.  `itemgetter` does it without the frame a list
    comprehension costs, but returns a bare value for a single key."""
    if len(args) == 1:
        y = args[0]
        return lambda assignment: (assignment[y],)
    return itemgetter(*args)


def enumerate_hylo(
    coalg: FinCoalgebra, alg: FinAlgebra, budget: int = DEFAULT_BUDGET
) -> list[dict[str, str]]:
    """All solutions, ordered lexicographically by (state order, carrier order).

    Candidate values per state are first narrowed to a fixpoint: a value
    survives at x only if some choice of surviving successor values produces
    it.  Each state starts from its op's outputs, its image over whole
    pools.  A visit scans the argument tuples, or, past the algebra's row
    count, the rows whose arguments all survive plus `default`, and stops
    once every candidate has a producer; it never empties a candidate list.
    If the surviving space still exceeds `budget`, the enumeration refuses.

    The search tries values in carrier order, checking forward (Haralick
    and Elliott, 1980): once all but the last state of a square are
    assigned, the square filters that state's candidates, and a filter that
    empties them rejects the value just assigned.  Filters are undone on
    backtrack.  Past SEARCH_ORDER_SPACE surviving assignments, states are
    assigned most-mentioned first (ties in declaration order), so squares
    filter sooner; below it, in declaration order.  Each solution is keyed
    in declaration order, and when the search order differs, the solutions
    are sorted once at the end, so the list is that of the plain
    depth-first search in declaration order.
    """
    _check_shared_signature(coalg, alg)
    states = coalg.states
    full = len(alg.carrier) ** len(states)
    table, get, default = alg.table, alg.table.get, alg.default
    rows = len(table)
    # over full successor pools, a state's image is its op's outputs
    candidates = {x: list(alg.outputs[coalg.step[x][0]]) for x in states}
    # users[y]: the states whose step mentions y, once per mention
    users: dict[str, list[str]] = {x: [] for x in states}
    for z in states:
        for y in coalg.step[z][1]:
            users[y].append(z)
    # a state's image changes only after a successor's candidates shrank
    work = [z for y in states if len(candidates[y]) < len(alg.carrier) for z in users[y]]
    while work:
        x = work.pop()
        op, args = coalg.step[x]
        pools = [candidates[y] for y in args]
        # unmet: x's candidates that no tuple has produced yet
        unmet = set(candidates[x])
        tuples = 1
        for pool in pools:
            tuples *= len(pool)
            if tuples > rows:
                break
        if tuples <= rows:
            for combo in product(*pools):
                unmet.discard(get((op, combo), default))
                if not unmet:
                    break
        else:
            # more tuples than rows, so some tuple is unstated and takes the
            # default (which exists: a table without one states every tuple)
            unmet.discard(default)
            sets = [set(pool) for pool in pools]
            for (row_op, row), out in table.items():
                if not unmet:
                    break
                if out in unmet and row_op == op and all(map(set.__contains__, sets, row)):
                    unmet.discard(out)
        # unmet never holds every candidate: the pools are non-empty and only
        # shrink, so the image is non-empty and within x's list; only the
        # single-state filter and the search find that no solution exists
        if unmet:
            candidates[x] = [c for c in candidates[x] if c not in unmet]
            work.extend(users[x])
    space = 1
    for x in states:
        space *= len(candidates[x])
    if space > budget:
        raise BudgetExceeded(full, budget)

    # most-mentioned states first, ties in declaration order: a square
    # filters only once all but one of its states are assigned
    order = states
    if space > SEARCH_ORDER_SPACE:
        order = tuple(sorted(states, key=lambda y: len(users[y]), reverse=True))
    index = {x: i for i, x in enumerate(order)}
    # plan[i]: the squares (z, op, args) whose states other than the last, u,
    # are all assigned once order[i] is, each as (u, forced, z, op, values)
    # with values = _values_of(args).  When u is z and not one of its own
    # successors, the square forces z's value; otherwise each candidate of u
    # is tried.  A square over a single state filters it once, before the
    # search.
    plan: list[list] = [[] for _ in order]
    for z in states:
        op, args = coalg.step[z]
        # top: the square's last state; prev: the one before it, if any
        top, prev = index[z], -1
        for y in args:
            j = index[y]
            if j > top:
                top, prev = j, top
            elif prev < j < top:
                prev = j
        if prev >= 0:
            u = order[top]
            plan[prev].append((u, u is z and z not in args, z, op, _values_of(args)))
        elif args:
            # z = op(z, ..., z); narrowing has already settled z = op()
            kept = [c for c in candidates[z] if get((op, (c,) * len(args)), default) == c]
            if not kept:
                return []
            candidates[z] = kept

    if not states:
        return [{}]
    final = order[-1]
    if len(states) == 1:
        return [{final: c} for c in candidates[final]]
    out: list[dict[str, str]] = []
    # keys in state order: a scan writes assignment[u] before u's turn
    assignment: dict[str, str] = dict.fromkeys(states)
    trail: list[tuple[str, list[str]]] = []  # (u, candidates before a filter)
    # stack[i]: the untried candidates of order[i] and the trail length to
    # undo to before each of them; depth-first order.  Every square has
    # filtered the last state's candidates before its turn, so each of them
    # completes a solution.
    stack = [(iter(candidates[order[0]]), 0)]
    while stack:
        i = len(stack) - 1
        x, squares = order[i], plan[i]
        untried, mark = stack[i]
        for c in untried:
            while len(trail) > mark:
                u, pool = trail.pop()
                candidates[u] = pool
            assignment[x] = c
            for u, forced, z, op, values in squares:
                pool = candidates[u]
                if forced:
                    d = get((op, values(assignment)), default)
                    if d not in pool:
                        break
                    if len(pool) == 1:
                        continue
                    kept = [d]
                else:
                    kept = []
                    for d in pool:
                        assignment[u] = d
                        if assignment[z] == get((op, values(assignment)), default):
                            kept.append(d)
                    if not kept:
                        break
                    if len(kept) == len(pool):
                        continue
                trail.append((u, pool))
                candidates[u] = kept
            else:
                break
        else:
            stack.pop()
            continue
        if i + 2 < len(states):
            stack.append((iter(candidates[order[i + 1]]), len(trail)))
        else:
            for c in candidates[final]:
                assignment[final] = c
                out.append(dict(assignment))
    if len(out) > 1 and order != states:
        rank = {c: r for r, c in enumerate(alg.carrier)}
        out.sort(key=lambda f: [rank[c] for c in f.values()])
    return out


def is_wellfounded(coalg: FinCoalgebra) -> bool:
    """True iff the successor graph has no cycle: the greatest fixed point
    of the successor image, the states at the end of arbitrarily long paths,
    is empty (Adámek, Milius and Moss, 2020)."""
    # imported here so that `hylo` does not load the lattice
    from .lattice import MonotoneOp

    return MonotoneOp.from_machine(coalg).nu_pre_mask((1 << len(coalg.states)) - 1) == 0


def _saturating_pow(base: int, exp: int, cap: int) -> int:
    """base**exp for base >= 0, or cap + 1 when that is larger; a power past
    cap is never evaluated."""
    if base < 2:
        return base ** min(exp, 1)
    out = 1
    for _ in range(exp):
        out *= base
        if out > cap:
            return cap + 1
    return out


def count_algebras(sig: Signature, max_size: int, budget: int = DEFAULT_BUDGET) -> int:
    """How many algebras `all_algebras` yields on the carrier sizes
    1..max_size: size s has s^(sum of s^arity) of them.  Refuses as soon as
    the running count passes `budget`, or a size's row keys would hold more
    than `budget` cells, s^arity * max(arity, 1) per symbol, before any key
    is built; `required` is that count, or budget + 1 when the power that
    passed it was not evaluated."""
    total = 0
    for size in range(1, max_size + 1):
        counts = [_saturating_pow(size, arity, budget) for _, arity in sig.symbols]
        cells = sum([count * max(arity, 1) for count, (_, arity) in zip(counts, sig.symbols)])
        if cells > budget:
            raise BudgetExceeded(cells if max(counts) <= budget else budget + 1, budget)
        rows = sum(counts)
        tables = _saturating_pow(size, rows, budget)
        total += tables
        if total > budget:
            raise BudgetExceeded(total if tables <= budget else budget + 1, budget)
    return total


def all_algebras(sig: Signature, size: int) -> Iterator[FinAlgebra]:
    """Every algebra on the carrier 0..size-1, in a fixed deterministic order."""
    carrier = tuple(str(i) for i in range(size))
    keys = [
        (op, args)
        for op, arity in sig.symbols
        for args in product(carrier, repeat=arity)
    ]
    for outs in product(carrier, repeat=len(keys)):
        yield FinAlgebra(sig, carrier, dict(zip(keys, outs)))


def all_coalgebras(sig: Signature, size: int) -> Iterator[FinCoalgebra]:
    """Every machine on the states x0..x(size-1), in a fixed deterministic order."""
    states = tuple(f"x{i}" for i in range(size))
    options = [
        (op, args)
        for op, arity in sig.symbols
        for args in product(states, repeat=arity)
    ]
    for steps in product(options, repeat=size):
        yield FinCoalgebra(sig, states, dict(zip(states, steps)))

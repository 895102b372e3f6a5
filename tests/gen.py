"""Seeded random instance generators shared by test modules.

These build library structures but compute any needed closure properties
with plain set arithmetic, independent of the bitmask code under test.
"""
from __future__ import annotations

import random
from itertools import product

from relfix.finstruct import FinAlgebra, FinCoalgebra
from relfix.lattice import TransitionSystem
from relfix.sigterm import Signature, Term, app, var


def random_transition_system(rng: random.Random, max_states: int = 6) -> TransitionSystem:
    """Random successor relation with init shrunk to post-fixed and safe
    grown to pre-fixed, so both chain preconditions hold by construction."""
    n = rng.randint(1, max_states)
    states = tuple(f"s{i}" for i in range(n))
    delta = {
        x: frozenset(y for y in states if rng.random() < 0.35) for x in states
    }
    return _with_fixed_starts(rng, states, delta)


def random_sparse_system(rng: random.Random, min_states: int, max_states: int) -> TransitionSystem:
    """Like random_transition_system, but with zero to three successors per
    state, so chains on a few hundred states run for several stages."""
    n = rng.randint(min_states, max_states)
    states = tuple(f"s{i}" for i in range(n))
    delta = {x: frozenset(rng.choices(states, k=rng.randint(0, 3))) for x in states}
    return _with_fixed_starts(rng, states, delta)


def _with_fixed_starts(rng: random.Random, states, delta) -> TransitionSystem:
    def f(xs: frozenset) -> frozenset:
        out: set[str] = set()
        for x in xs:
            out |= delta[x]
        return frozenset(out)

    init = frozenset(x for x in states if rng.random() < 0.5)
    while not init <= f(init):
        init = init & f(init)
    safe = frozenset(x for x in states if rng.random() < 0.5)
    while not f(safe) <= safe:
        safe = safe | f(safe)
    return TransitionSystem(states, delta, init, safe)


def lockstep_system(n: int) -> TransitionSystem:
    """Chain a from a self-looping init and chain b from a predecessor-free
    head, all safe: reach grows and trim shrinks by one state per stage, so
    the safety verdict is safe at stage n - 1."""
    a = [f"a{i}" for i in range(n)]
    b = [f"b{i}" for i in range(n)]
    delta = {x: {chain[min(i + 1, n - 1)]} for chain in (a, b) for i, x in enumerate(chain)}
    delta[a[0]] = {a[0], a[1]}
    return TransitionSystem(tuple(a + b), delta, {a[0]}, a + b)


def ladder_graph(n: int) -> TransitionSystem:
    """s_i -> s_(i+1), s_(i+2), s_(i+3), capped at the self-looping last
    state; all states safe.  The greatest fixed point below them is the last
    state alone, and the downward chain drops one state per stage."""
    states = [f"s{i}" for i in range(n)]
    delta = {x: {states[min(i + k, n - 1)] for k in (1, 2, 3)} for i, x in enumerate(states)}
    return TransitionSystem(tuple(states), delta, {states[-1]}, states)


def random_machine(rng: random.Random, sig: Signature, n_states: int) -> FinCoalgebra:
    """Uniform random step function over the given signature."""
    states = tuple(f"x{i}" for i in range(n_states))
    options = [(op, arity) for op, arity in sig.symbols]
    step = {}
    for x in states:
        op, arity = options[rng.randrange(len(options))]
        step[x] = (op, tuple(rng.choice(states) for _ in range(arity)))
    return FinCoalgebra(sig, states, step)


def random_wellfounded_machine(rng: random.Random, sig: Signature, n_states: int) -> FinCoalgebra:
    """A random machine with an acyclic successor graph: in a shuffled
    order, each state's arguments come from the states after it, and the
    last state takes a nullary symbol, which `sig` must have."""
    states = tuple(f"x{i}" for i in range(n_states))
    order = list(states)
    rng.shuffle(order)
    step = {}
    for i, x in enumerate(order):
        later = order[i + 1:]
        op, arity = rng.choice([(op, arity) for op, arity in sig.symbols if later or arity == 0])
        step[x] = (op, tuple(rng.choice(later) for _ in range(arity)))
    return FinCoalgebra(sig, states, step)


# nullary through ternary symbols, so machines get both nullary steps and
# repeated arguments such as f(x, x)
MIXED = Signature((("c", 0), ("g", 1), ("f", 2), ("h", 3)))


def random_mixed_machines(seed: int, count: int, max_states: int = 5) -> list[FinCoalgebra]:
    rng = random.Random(seed)
    return [random_machine(rng, MIXED, rng.randint(1, max_states)) for _ in range(count)]


def random_algebra(rng: random.Random, sig: Signature, size: int) -> FinAlgebra:
    carrier = tuple(str(i) for i in range(size))
    table = {}
    for op, arity in sig.symbols:
        for args in product(carrier, repeat=arity):
            table[(op, args)] = rng.choice(carrier)
    return FinAlgebra(sig, carrier, table)


def random_sparse_algebra(rng: random.Random, sig: Signature, size: int, density: float) -> FinAlgebra:
    """Each argument tuple gets a row with probability `density` (0 gives an
    empty table); the rest fall to a random `default`."""
    carrier = tuple(str(i) for i in range(size))
    table = {
        (op, args): rng.choice(carrier)
        for op, arity in sig.symbols
        for args in product(carrier, repeat=arity)
        if rng.random() < density
    }
    return FinAlgebra(sig, carrier, table, default=rng.choice(carrier))


def random_flat_system(
    rng: random.Random, sig: Signature, max_states: int = 5
) -> tuple[tuple[str, ...], list[tuple[Term, Term]]]:
    """Variables x0..x(n-1), one flat defining equation per variable."""
    n = rng.randint(1, max_states)
    names = tuple(f"x{i}" for i in range(n))
    eqs = []
    for name in names:
        op, arity = sig.symbols[rng.randrange(len(sig.symbols))]
        rhs = app(op, tuple(var(rng.choice(names)) for _ in range(arity)))
        eqs.append((var(name), rhs))
    return names, eqs


def random_term(rng: random.Random, sig: Signature, names, depth: int) -> Term:
    if depth == 0 or rng.random() < 0.3:
        nullary = [op for op, arity in sig.symbols if arity == 0]
        if nullary and rng.random() < 0.4:
            return app(rng.choice(nullary))
        return var(rng.choice(list(names)))
    op, arity = sig.symbols[rng.randrange(len(sig.symbols))]
    return app(op, tuple(random_term(rng, sig, names, depth - 1) for _ in range(arity)))

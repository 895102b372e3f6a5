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


def random_machine(rng: random.Random, sig: Signature, n_states: int) -> FinCoalgebra:
    """Uniform random step function over the given signature."""
    states = tuple(f"x{i}" for i in range(n_states))
    options = [(op, arity) for op, arity in sig.symbols]
    step = {}
    for x in states:
        op, arity = options[rng.randrange(len(options))]
        step[x] = (op, tuple(rng.choice(states) for _ in range(arity)))
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

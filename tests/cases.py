"""Canonical small machines and algebras shared by several test modules."""
from __future__ import annotations

import os
from pathlib import Path

from relfix.finstruct import FinAlgebra, FinCoalgebra
from relfix.sigterm import Signature

ROOT = Path(__file__).resolve().parent.parent


def child_env(*extra: Path) -> dict[str, str]:
    """This process's environment with `src/`, then `extra`, ahead of any
    PYTHONPATH, for a child interpreter that imports relfix from this tree."""
    paths = [str(p) for p in (ROOT / "src", *extra)]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (*paths, os.environ.get("PYTHONPATH")) if p
    ))


# two unary symbols: `chk` flips a binary value, `cross` keeps it
UNARY = Signature((("cross", 1), ("chk", 1)))
# two binary symbols over an input alphabet of size two
BINARY = Signature((("cross", 2), ("chk", 2)))
# a nullary plus a binary symbol, enough for well-founded machines
CS = Signature((("c", 0), ("s", 2)))

# the signatures of acceptance criterion 8
CARTESIAN_SIGS = [
    Signature((("c", 0),)),
    Signature((("g", 1),)),
    Signature((("f", 2),)),
    Signature((("c", 0), ("d", 0))),
    Signature((("c", 0), ("g", 1))),
    Signature((("c", 0), ("f", 2))),
    Signature((("g", 1), ("h", 1))),
    Signature((("g", 1), ("f", 2))),
    Signature((("f", 2), ("h", 2))),
]


def flip_algebra() -> FinAlgebra:
    """Carrier {0,1}; chk flips, cross preserves."""
    return FinAlgebra(
        UNARY,
        ("0", "1"),
        {
            ("chk", ("0",)): "1",
            ("chk", ("1",)): "0",
            ("cross", ("0",)): "0",
            ("cross", ("1",)): "1",
        },
    )


# chk flips and nil ends a chain
CHK_NIL = Signature((("chk", 1), ("nil", 0)))


def chk_chain(n: int, from_head: bool = False) -> FinCoalgebra:
    """s_i = chk(s_(i+1)) with s_(n-1) = nil, declared from the nil end or from s0."""
    states = tuple(f"s{i}" for i in (range(n) if from_head else reversed(range(n))))
    step = {f"s{i}": ("chk", (f"s{i + 1}",)) for i in range(n - 1)}
    step[f"s{n - 1}"] = ("nil", ())
    return FinCoalgebra(CHK_NIL, states, step)


def flip_nil_algebra() -> FinAlgebra:
    """Carrier {0,1}; chk flips and nil is 0."""
    return FinAlgebra(
        CHK_NIL, ("0", "1"), {("chk", ("0",)): "1", ("chk", ("1",)): "0", ("nil", ()): "0"}
    )


def unary_machine(steps: dict[str, tuple[str, str]]) -> FinCoalgebra:
    """Build a UNARY machine from {state: (op, successor)}."""
    return FinCoalgebra(
        UNARY,
        tuple(steps),
        {x: (op, (y,)) for x, (op, y) in steps.items()},
    )


def chk_loop() -> FinCoalgebra:
    return unary_machine({"q": ("chk", "q")})


def cross_loop() -> FinCoalgebra:
    return unary_machine({"q": ("cross", "q")})


def chk_two_cycle() -> FinCoalgebra:
    return unary_machine({"q0": ("chk", "q1"), "q1": ("chk", "q0")})


def empty_machine(sig: Signature = UNARY) -> FinCoalgebra:
    return FinCoalgebra(sig, (), {})


def three_state_automaton() -> FinCoalgebra:
    """Three mutually recursive states over the binary signature; the first
    argument is the a-successor, the second the b-successor."""
    return FinCoalgebra(
        BINARY,
        ("q0", "q1", "q2"),
        {
            "q0": ("cross", ("q1", "q2")),
            "q1": ("cross", ("q0", "q1")),
            "q2": ("chk", ("q2", "q2")),
        },
    )


def acyclic_pq() -> FinCoalgebra:
    """p branches to q twice, q terminates; the successor graph is acyclic."""
    return FinCoalgebra(CS, ("p", "q"), {"p": ("s", ("q", "q")), "q": ("c", ())})


def chain_system():
    """Transition-system data: s0 feeds s1, s1 and s2 self-loop."""
    return {
        "states": ("s0", "s1", "s2"),
        "delta": {"s0": {"s0", "s1"}, "s1": {"s1"}, "s2": {"s2"}},
    }


# one unary symbol, for rings of states
G = Signature((("g", 1),))


def g_ring(names, lasso: bool = False, reverse: bool = False) -> FinCoalgebra:
    """x_i = g(x_(i+1)) around the ring of `names`, no two states identified;
    as a lasso the last state is its own successor instead, and the
    congruence collapses every state into one class.  `reverse` declares the
    states last first."""
    n = len(names)
    succ = [names[min(i + 1, n - 1) if lasso else (i + 1) % n] for i in range(n)]
    step = {x: ("g", (y,)) for x, y in zip(names, succ)}
    return FinCoalgebra(G, tuple(reversed(names)) if reverse else tuple(names), step)

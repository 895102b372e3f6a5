"""Seeded inputs and operations for the four benchmark workloads.

Each builder returns a list of `Op`s.  `call` runs one operation and returns
its result in a JSON-able canonical form (solution lists in enumeration
order, fixed-point lists, verdicts with stage and witness, PGM bytes as a
digest, CLI stdout plus exit code).  `check`, when present, recomputes the
result independently of the code under test; the runner applies it on a
stride.  Expected refusals are part of the result, not errors.

`cli` and the random machines of `sweep` are drawn from the run seed.
Everything else draws its shapes from a fixed master seed and lets the run
seed pick state names, state order, carrier labels and carrier order, which
leaves the work of every operation the same from seed to seed: `wide` and
`deep` have few, costly operations, and the tail of `sweep` is a few dozen
of its transition systems, so a fresh draw per seed would move their
figures by more than any bound worth setting.
"""
from __future__ import annotations

import os
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable

import oracles
from relfix.errors import BudgetExceeded
from relfix.finstruct import FinAlgebra, FinCoalgebra, all_coalgebras, enumerate_hylo
from relfix.jsonio import (
    algebra_to_json,
    canonical_dumps,
    coalgebra_to_json,
    transition_system_to_json,
)
from relfix.lattice import MonotoneOp, TransitionSystem, galois_check, nu_pre, safety_check
from relfix.mu import mu_equal, mu_hom_count
from relfix.nu import (
    cartesian_subcoalgebras,
    classify_cartesian,
    count_coalg_homs_to_nu,
    enum_nu_prefixes,
)
from relfix.sigterm import CongruenceClosure, EquationSet, Signature, app, parse_term, var

MASTER_SEED = 20231005


@dataclass
class Op:
    """One operation; `check(result)` recomputes it independently.

    CLI operations carry the `argv` to run instead of a `call`, and `output`
    names a file the command writes, whose bytes belong to the result.
    """

    family: str
    label: str
    call: Callable[[], object] | None
    check: Callable[[object], bool] | None = None
    argv: list[str] | None = None
    output: str | None = None


def _sig(*symbols) -> Signature:
    return Signature(tuple(symbols))


# the nine signatures of acceptance criterion 8
CARTESIAN_SIGS = [
    _sig(("c", 0)),
    _sig(("g", 1)),
    _sig(("f", 2)),
    _sig(("c", 0), ("d", 0)),
    _sig(("c", 0), ("g", 1)),
    _sig(("c", 0), ("f", 2)),
    _sig(("g", 1), ("h", 1)),
    _sig(("g", 1), ("f", 2)),
    _sig(("f", 2), ("h", 2)),
]


# --- generators ---------------------------------------------------------------

def random_steps(rng: random.Random, sig: Signature, n: int) -> list[tuple[str, tuple[int, ...]]]:
    """A uniform random step per state, successors as state indices."""
    steps = []
    for _ in range(n):
        op, arity = sig.symbols[rng.randrange(len(sig.symbols))]
        steps.append((op, tuple(rng.randrange(n) for _ in range(arity))))
    return steps


def make_machine(sig: Signature, steps, names) -> FinCoalgebra:
    return FinCoalgebra(
        sig, tuple(names), {names[i]: (op, tuple(names[j] for j in args)) for i, (op, args) in enumerate(steps)}
    )


def make_algebra(sig: Signature, k: int, out, labels=None, order=None) -> FinAlgebra:
    """Carrier of k elements; out(op, args as ints) gives the int result.

    `labels` renames element i, `order` lists element indices in carrier
    order; neither changes the work any enumeration does.
    """
    labels = labels or [str(i) for i in range(k)]
    order = order or list(range(k))
    table = {}
    for op, arity in sig.symbols:
        for args in product(range(k), repeat=arity):
            table[(op, tuple(labels[a] for a in args))] = labels[out(op, args)]
    return FinAlgebra(sig, tuple(labels[i] for i in order), table)


def random_system(rng: random.Random, n: int, density: float = 0.35) -> TransitionSystem:
    """Random successor sets; init shrunk to post-fixed, safe grown to pre-fixed."""
    states = tuple(f"s{i}" for i in range(n))
    delta = {x: frozenset(y for y in states if rng.random() < density) for x in states}

    def image(xs):
        return frozenset(y for x in xs for y in delta[x])

    init = frozenset(x for x in states if rng.random() < 0.5)
    while not init <= image(init):
        init &= image(init)
    safe = frozenset(x for x in states if rng.random() < 0.5)
    while not image(safe) <= safe:
        safe |= image(safe)
    return TransitionSystem(states, delta, init, safe)


def _names(rng: random.Random, prefix: str, n: int) -> list[str]:
    tag = "".join(rng.choice("abcdefghjkmnpqrstuvwxyz") for _ in range(3))
    return [f"{prefix}{tag}{i}" for i in range(n)]


def _succ_masks(ts: TransitionSystem) -> list[int]:
    index = {s: i for i, s in enumerate(ts.states)}
    return [sum(1 << index[y] for y in ts.delta[x]) for x in ts.states]


def _image(succ: list[int], mask: int) -> int:
    out = 0
    for i, m in enumerate(succ):
        if mask >> i & 1:
            out |= m
    return out


def _set_mask(ts: TransitionSystem, subset) -> int:
    return sum(1 << ts.states.index(s) for s in subset)


def _greatest_below(succ: list[int], mask: int) -> int:
    while True:
        nxt = mask & _image(succ, mask)
        if nxt == mask:
            return mask
        mask = nxt


def _verdict(v) -> list:
    return [v.result, v.stage, v.side, v.witness]


def _solutions(coalg: FinCoalgebra, sols) -> list:
    return [[f[x] for x in coalg.states] for f in sols]


def _hylo_result(coalg, alg, budget=10**6):
    try:
        return _solutions(coalg, enumerate_hylo(coalg, alg, budget))
    except BudgetExceeded as exc:
        return {"refused": exc.required}


def _squares_hold(coalg, alg, result) -> bool:
    """Every listed map solves the square, none repeats, and the list is in
    (state order, carrier order) lexicographic order."""
    if isinstance(result, dict):
        return True
    rank = {c: i for i, c in enumerate(alg.carrier)}
    keys = []
    for values in result:
        f = dict(zip(coalg.states, values))
        for x, (op, args) in coalg.step.items():
            if alg.table[(op, tuple(f[y] for y in args))] != f[x]:
                return False
        keys.append([rank[v] for v in values])
    return keys == sorted(keys) and len({tuple(k) for k in keys}) == len(keys)


# --- sweep ----------------------------------------------------------------------

def _cartesian_op(family: str, label: str, coalg: FinCoalgebra) -> Op:
    def call():
        return [list(subset) for subset, _ in classify_cartesian(coalg)]

    def check(result):
        return {frozenset(p) for p in result} == set(oracles.naive_next_time_fixed_points(coalg))

    return Op(family, label, call, check)


def _system_op(label: str, ts: TransitionSystem) -> Op:
    succ = _succ_masks(ts)
    n = len(ts.states)
    post = [frozenset(s for i, s in enumerate(ts.states) if m >> i & 1)
            for m in range(1 << n) if m & ~_image(succ, m) == 0]
    pre = [frozenset(s for i, s in enumerate(ts.states) if m >> i & 1)
           for m in range(1 << n) if _image(succ, m) & ~m == 0]

    def call():
        op = MonotoneOp.from_transition_system(ts)
        holds = all(galois_check(op, i, p) for i in post for p in pre)
        least = [op.mu_post_mask(op.mask_of(i)) for i in post]
        greatest = [op.nu_pre_mask(op.mask_of(p)) for p in pre]
        return {"galois": holds, "mu": least, "nu": greatest, "safety": _verdict(safety_check(ts))}

    def check(result):
        least = [_set_mask(ts, oracles.bfs_reachable(ts.delta, i)) for i in post]
        greatest = [_greatest_below(succ, _set_mask(ts, p)) for p in pre]
        safe = oracles.bfs_reachable(ts.delta, ts.init) <= ts.safe
        return (result["galois"] and result["mu"] == least and result["nu"] == greatest
                and (result["safety"][0] == "safe") == safe)

    return Op("systems", label, call, check)


def sweep(seed: int, workdir: str) -> list[Op]:
    """Gate criteria 1-3 and 8 traffic: tens of thousands of tiny instances."""
    rng = random.Random(seed)
    ops = []
    for s, sig in enumerate(CARTESIAN_SIGS):
        for n in range(4):
            for i, coalg in enumerate(all_coalgebras(sig, n)):
                ops.append(_cartesian_op("all3", f"sig{s}/n{n}/{i}", coalg))
    for n, count in ((4, 2000), (5, 1000)):
        for i in range(count):
            sig = CARTESIAN_SIGS[rng.randrange(len(CARTESIAN_SIGS))]
            coalg = make_machine(sig, random_steps(rng, sig, n), [f"x{j}" for j in range(n)])
            ops.append(_cartesian_op(f"random{n}", str(i), coalg))
    # a few dozen of these systems have hundreds of fixed-set pairs and make
    # the tail, so their shapes come from the master seed; the run seed
    # renames and reorders the states
    shape = random.Random(MASTER_SEED)
    for i in range(3000):
        ts = random_system(shape, shape.randint(1, 8))
        ops.append(_system_op(str(i), _shuffled(rng, ts)))
    return ops


def _shuffled(rng: random.Random, ts: TransitionSystem) -> TransitionSystem:
    """The same system with renamed states in a random declaration order."""
    names = dict(zip(ts.states, _names(rng, "s", len(ts.states))))
    order = list(ts.states)
    rng.shuffle(order)
    return TransitionSystem(
        tuple(names[x] for x in order),
        {names[x]: {names[y] for y in ys} for x, ys in ts.delta.items()},
        {names[x] for x in ts.init},
        {names[x] for x in ts.safe},
    )


# --- wide -----------------------------------------------------------------------

WIDE_SIGS = [
    _sig(("c", 0), ("g", 1), ("f", 2)),
    _sig(("g", 1), ("f", 2), ("h", 3)),
    _sig(("c", 0), ("f", 2), ("k", 4)),
    _sig(("g", 1), ("k", 4)),
]


def _relabel(rng: random.Random, k: int):
    labels = [f"v{j}" for j in rng.sample(range(100), k)]
    order = list(range(k))
    rng.shuffle(order)
    return labels, order


def _prefix_count(alg: FinAlgebra, root: str, depth: int) -> int:
    """Guided prefixes by the recurrence over fibers."""
    counts = {c: 1 for c in alg.carrier}
    for _ in range(depth):
        nxt = {c: 0 for c in alg.carrier}
        for (op, args), out in alg.table.items():
            prod = 1
            for a in args:
                prod *= counts[a]
            nxt[out] += prod
        counts = nxt
    return counts[root]


def wide(seed: int, workdir: str) -> list[Op]:
    """Narrowing and search: (machine, algebra) pairs of 8-12 states."""
    shape = random.Random(MASTER_SEED)
    rng = random.Random(seed)
    ops = []
    for n in range(8, 13):
        for k in range(3, 8):
            for s, sig in enumerate(WIDE_SIGS):
                for kind in ("random", "sum", "max"):
                    steps = random_steps(shape, sig, n)
                    cells = {(op, args): shape.randrange(k)
                             for op, arity in sig.symbols for args in product(range(k), repeat=arity)}
                    out = {
                        "random": lambda op, args, cells=cells: cells[(op, args)],
                        "sum": lambda op, args, k=k: (sum(args) + (len(args) == 0)) % k,
                        "max": lambda op, args: max(args, default=0),
                    }[kind]
                    labels, order = _relabel(rng, k)
                    coalg = make_machine(sig, steps, _names(rng, "x", n))
                    alg = make_algebra(sig, k, out, labels, order)
                    ops.append(Op(
                        "hylo", f"n{n}/k{k}/sig{s}/{kind}",
                        lambda c=coalg, a=alg: _hylo_result(c, a),
                        lambda r, c=coalg, a=alg: _squares_hold(c, a, r)
                        and (isinstance(r, dict) or len(a.carrier) ** len(c.states) > 10**5
                             or len(r) == len(oracles.brute_force_hylo(c, a))),
                    ))
    small = _sig(("c", 0), ("g", 1), ("f", 2))
    for i in range(60):
        n, k = 4 + i % 3, 2 + i % 2
        steps = random_steps(shape, small, n)
        cells = {(op, args): shape.randrange(k)
                 for op, arity in small.symbols for args in product(range(k), repeat=arity)}
        labels, order = _relabel(rng, k)
        coalg = make_machine(small, steps, _names(rng, "y", n))
        alg = make_algebra(small, k, lambda op, args, cells=cells: cells[(op, args)], labels, order)
        ops.append(Op(
            "homs", f"n{n}/k{k}/{i}",
            lambda c=coalg, a=alg: [count_coalg_homs_to_nu(c, a), mu_hom_count(c, a)],
            lambda r, c=coalg, a=alg: r == [len(oracles.brute_force_hylo(c, a))] * 2,
        ))
    tree_sig = _sig(("g", 1), ("f", 2))
    labels, order = _relabel(rng, 3)
    tree_alg = make_algebra(tree_sig, 3, lambda op, args: (sum(args) + (len(args) == 1)) % 3, labels, order)
    for root in tree_alg.carrier:
        ops.append(Op(
            "prefixes", f"depth3/{root}",
            lambda r=root: len(enum_nu_prefixes(tree_alg, r, 3)),
            lambda res, r=root: res == _prefix_count(tree_alg, r, 3),
        ))
    sub_sig = _sig(("c", 0), ("g", 1), ("f", 2))
    for n in range(12, 17):
        coalg = make_machine(sub_sig, random_steps(shape, sub_sig, n), _names(rng, "z", n))
        ops.append(Op(
            "subcoalgebras", f"n{n}",
            lambda c=coalg: [list(p) for p in cartesian_subcoalgebras(c)],
            (lambda r, c=coalg: {frozenset(p) for p in r} == set(oracles.naive_next_time_fixed_points(c)))
            if n == 12 else None,
        ))
    # budget refusals: narrowing an arity-5 symbol over 12 elements before the
    # budget check, and a prefix enumeration stopped by its budget
    wide_sig = _sig(("c", 0), ("p", 5))
    labels = [f"w{j}" for j in rng.sample(range(100), 12)]
    rows = {("c", ()): labels[1], ("p", (labels[0],) * 5): labels[1], ("p", (labels[1],) * 5): labels[0]}
    big_alg = FinAlgebra(wide_sig, tuple(labels), rows, default=labels[0])
    names = _names(rng, "q", 2)
    big_coalg = FinCoalgebra(wide_sig, tuple(names), {
        names[0]: ("p", (names[0], names[1], names[0], names[1], names[0])),
        names[1]: ("p", (names[1], names[0], names[1], names[0], names[1])),
    })
    ops.append(Op("refusals", "arity5/carrier12/budget1",
                  lambda: _hylo_result(big_coalg, big_alg, budget=1),
                  lambda r: r == {"refused": 12**2}))

    def refused_prefixes():
        try:
            return {"prefixes": len(enum_nu_prefixes(tree_alg, tree_alg.carrier[0], 4, 10**5))}
        except BudgetExceeded as exc:
            return {"refused": exc.required}

    ops.append(Op("refusals", "prefixes/depth4/budget1e5", refused_prefixes,
                  lambda r: r == {"refused": 10**5 + 1}))
    return ops


# --- deep -----------------------------------------------------------------------

LADDER = (50, 100, 150, 200, 300, 400, 500, 600)


def merge_order_equations(names, n: int, reversed_merges: bool):
    """u_i = f(v_i) for i <= n, then v_i = v_(i+1) for i < n.

    Every f(v_i) is registered before any merge, so the v_i are registered
    in index order.  Forward merges join each new singleton into the growing
    class; reversed merges join the growing class into an older singleton,
    which moves its whole use list every time while representatives follow
    registration order.
    """
    f = names["f"]
    v = [var(f"{names['v']}{i}") for i in range(n + 1)]
    u = [var(f"{names['u']}{i}") for i in range(n + 1)]
    eqs = [(u[i], app(f, (v[i],))) for i in range(n + 1)]
    merges = [(v[i], v[i + 1]) for i in range(n)]
    if reversed_merges:
        merges.reverse()
    return EquationSet(_sig((f, 1)), tuple(eqs + merges)), u, v


def _cc_op(rng, n: int, reversed_merges: bool) -> Op:
    names = {"f": _names(rng, "f", 1)[0], "u": _names(rng, "u", 1)[0], "v": _names(rng, "v", 1)[0]}
    eqs, u, v = merge_order_equations(names, n, reversed_merges)

    def call():
        closure = CongruenceClosure(eqs)
        sizes = [len(c) for c in closure.classes(u + v)]
        return [closure.equal(u[0], u[n]), closure.equal(u[0], v[0]), sizes]

    family = "cc_reversed" if reversed_merges else "cc_forward"
    return Op(family, f"n{n}", call, lambda r: r == [True, False, [n + 1, n + 1]])


def lockstep_system(names, n: int) -> TransitionSystem:
    """Chain a from a self-looping init and chain b from a predecessor-free
    head, both safe: reach grows and trim shrinks by one state per stage,
    so the verdict is safe at stage n - 1."""
    a = [f"{names[0]}{i}" for i in range(n)]
    b = [f"{names[1]}{i}" for i in range(n)]
    delta = {}
    for chain in (a, b):
        for i, x in enumerate(chain):
            delta[x] = {chain[min(i + 1, n - 1)]}
    delta[a[0]] = {a[0], a[1]}
    states = tuple(a + b)
    return TransitionSystem(states, delta, {a[0]}, states)


def wide_graph(rng: random.Random, shape: random.Random, n: int) -> TransitionSystem:
    """n states, three random successors each; init a self-looping state,
    safe everything.  Reach saturates in a few stages."""
    names = _names(rng, "g", n)
    delta = {x: {names[shape.randrange(n)] for _ in range(3)} for x in names}
    delta[names[0]].add(names[0])
    return TransitionSystem(tuple(names), delta, {names[0]}, tuple(names))


def ring_machine(rng: random.Random, shape: random.Random, n: int) -> FinCoalgebra:
    """x_i = g(x_(i+1)) or h(x_(i+1)) around a ring of n states."""
    names = _names(rng, "r", n)
    sig = _sig(("g", 1), ("h", 1))
    steps = [("gh"[shape.randrange(2)], ((i + 1) % n,)) for i in range(n)]
    return make_machine(sig, steps, names)


def deep(seed: int, workdir: str) -> list[Op]:
    """A ladder of sizes over a few large single problems."""
    shape = random.Random(MASTER_SEED)
    rng = random.Random(seed)
    ops = []
    for n in LADDER:
        ops.append(_cc_op(rng, n, False))
        ops.append(_cc_op(rng, n, True))
    for n in LADDER:
        ts = lockstep_system(_names(rng, "a", 2), n)
        ops.append(Op("lockstep", f"n{n}", lambda ts=ts: _verdict(safety_check(ts)),
                      lambda r, n=n: r == ["safe", n - 1, None, None]))
    for n in (2500, 5000, 10000, 20000):
        ts = wide_graph(rng, shape, n)
        reach = oracles.bfs_reachable(ts.delta, ts.init)
        ops.append(Op("safety_graph", f"n{n}", lambda ts=ts: _verdict(safety_check(ts)),
                      lambda r: r[0] == "safe"))
        ops.append(Op("nu_pre_graph", f"n{n}",
                      lambda ts=ts: sorted(nu_pre(MonotoneOp.from_transition_system(ts), ts.safe)),
                      lambda r, reach=reach: reach <= set(r)))
    for n in (500, 1000, 2000, 4000):
        coalg = ring_machine(rng, shape, n)
        x0, x1, xh = coalg.states[0], coalg.states[1], coalg.states[n // 2]
        op0 = coalg.step[x0][0]
        for rhs, want in ((f"{op0}({x1})", True), (xh, False)):
            ops.append(Op(
                "mu_ring", f"n{n}/{'unfold' if want else 'distinct'}",
                lambda c=coalg, lhs=x0, rhs=rhs: mu_equal(c, parse_term(c.sig, lhs), parse_term(c.sig, rhs)),
                lambda r, want=want: r == want,
            ))
    return ops


# --- cli ------------------------------------------------------------------------

DATA = "scripts/data"


def _write(workdir: str, name: str, doc) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_dumps(doc))
    return path


def _carpet_inside(x: Fraction, y: Fraction, depth: int) -> bool:
    """Base-3 digit test for a point on no gridline of any level."""
    for _ in range(depth):
        x, y = 3 * x, 3 * y
        dx, dy = int(x), int(y)
        if dx == 1 and dy == 1:
            return False
        x, y = x - dx, y - dy
    return True


def _guided_chain(alg: FinAlgebra, depth: int) -> dict:
    """A guided prefix that is a path of unary steps, `depth` deep."""
    label = alg.carrier[0]
    node = {"label": label}
    for _ in range(depth):
        for (op, args), out in alg.table.items():
            if len(args) == 1 and args[0] == label:
                node = {"label": out, "op": op, "children": [node]}
                label = out
                break
    return {"format": 1, "kind": "prefix", "root": node}


def cli(seed: int, workdir: str) -> list[Op]:
    """Sequential `relfix` commands on the sample files and generated ones.

    A command's result is [exit code, stdout], plus the digest of the file
    it writes, if any; its check gets that result.
    """
    rng = random.Random(seed)
    os.makedirs(workdir, exist_ok=True)
    ops: list[Op] = []

    def add(label, argv, check, output=None):
        ops.append(Op("cli", label, None, check, argv, output))

    def exit_is(code, text=""):
        return lambda r: r[0] == code and text in r[1]

    add("mu-eq/three_state", ["mu-eq", f"{DATA}/three_state.json", "q0", "cross(cross(q0,q1),chk(q2,q2))"],
        exit_is(0, '"result": "equal"'))
    add("hylo/two_cycle", ["hylo", f"{DATA}/two_cycle.json", f"{DATA}/flip_algebra.json", "--list"], exit_is(0))
    add("safety/chain_safe", ["safety", f"{DATA}/chain_safe.json"], exit_is(0))
    add("safety/chain_unsafe", ["safety", f"{DATA}/chain_unsafe.json"], exit_is(3))
    add("galois/chain_safe", ["galois", f"{DATA}/chain_safe.json"], exit_is(0, '"holds": true'))
    add("galois/chain_unsafe", ["galois", f"{DATA}/chain_unsafe.json"], exit_is(0, '"holds": true'))
    add("nu-enum/flip", ["nu-enum", f"{DATA}/flip_algebra.json", "--root", "0", "--depth", "4"], exit_is(0))
    add("nu-check/guided", ["nu-check", f"{DATA}/flip_algebra.json", f"{DATA}/guided_prefix.json"],
        exit_is(0, '"guided": true'))
    add("cartesian/three_state", ["cartesian", f"{DATA}/three_state.json", "--classify"], exit_is(0))
    add("cartesian/two_cycle", ["cartesian", f"{DATA}/two_cycle.json"], exit_is(0))
    add("recursive/two_cycle", ["recursive", f"{DATA}/two_cycle.json", "--max-carrier", "2"], exit_is(0))
    add("selftest", ["selftest", "--seed", str(seed), "--trials", "25"], exit_is(0, '"failures": []'))

    for i in range(6):
        q = rng.choice([2, 4, 5, 7, 8, 10, 11, 13])
        x, y = Fraction(rng.randrange(1, q), q), Fraction(rng.randrange(1, q), q)
        inside = str(_carpet_inside(x, y, 8)).lower()
        add(f"carpet-member/{i}", ["carpet-member", str(x), str(y), "--depth", "8"],
            exit_is(0, f'"member": {inside}'))
    pgm = os.path.join(workdir, "carpet.pgm")
    # 54 is a multiple of 3^3 and no pixel centre lies on a gridline, so
    # exactly 8^3 * 2^2 pixels are inside
    add("sierpinski/d3r54", ["sierpinski", "--depth", "3", "--res", "54", "--out", pgm],
        exit_is(0, '"inside": 2048'), output=pgm)

    for n in (300,):
        ts = lockstep_system(_names(rng, "a", 2), n)
        path = _write(workdir, f"lockstep{n}.json", transition_system_to_json(ts))
        add(f"safety/lockstep{n}", ["safety", path], exit_is(0, f'"stage": {n - 1}'))
    for n in (8, 40):
        ts = random_system(rng, n, density=3 / n)
        path = _write(workdir, f"system{n}.json", transition_system_to_json(ts))
        safe = oracles.bfs_reachable(ts.delta, ts.init) <= ts.safe
        add(f"safety/system{n}", ["safety", path], exit_is(0 if safe else 3))
        add(f"galois/system{n}", ["galois", path], exit_is(0, '"holds": true'))
        if n == 40:
            add(f"galois/system{n}/starts",
                ["galois", path, "--post", ",".join(sorted(ts.init)), "--pre", ",".join(ts.states)],
                exit_is(0, '"holds": true'))
    sig = _sig(("c", 0), ("g", 1), ("f", 2))
    for n, k in ((6, 2), (9, 3)):
        coalg = make_machine(sig, random_steps(rng, sig, n), [f"x{j}" for j in range(n)])
        cells = {(op, args): rng.randrange(k) for op, arity in sig.symbols for args in product(range(k), repeat=arity)}
        alg = make_algebra(sig, k, lambda op, args, cells=cells: cells[(op, args)])
        mpath = _write(workdir, f"machine{n}.json", coalgebra_to_json(coalg))
        apath = _write(workdir, f"algebra{k}.json", algebra_to_json(alg))
        count = f'"count": {len(oracles.brute_force_hylo(coalg, alg))}'
        add(f"hylo/n{n}k{k}", ["hylo", mpath, apath] + (["--list"] if n == 6 else []), exit_is(0, count))
        add(f"recursive/n{n}", ["recursive", mpath, "--max-carrier", "2"], exit_is(0))
        add(f"nu-enum/k{k}", ["nu-enum", apath, "--root", alg.carrier[0], "--depth", "2"], exit_is(0))
        chain = _write(workdir, f"chain{k}.json", _guided_chain(alg, 200))
        add(f"nu-check/chain{k}", ["nu-check", apath, chain], exit_is(0, '"guided": true'))
    # sum mod 5 narrows nothing, so 5^12 candidates exceed any small budget
    sum_sig = _sig(("g", 1), ("f", 2))
    coalg = make_machine(sum_sig, random_steps(rng, sum_sig, 12), [f"y{j}" for j in range(12)])
    mpath = _write(workdir, "machine12.json", coalgebra_to_json(coalg))
    apath = _write(workdir, "sum5.json", algebra_to_json(make_algebra(sum_sig, 5, lambda op, args: sum(args) % 5)))
    add("hylo/refused", ["hylo", mpath, apath, "--budget", "1000"], exit_is(1))
    for n in (10, 14, 17):
        coalg = make_machine(sig, random_steps(rng, sig, n), [f"z{j}" for j in range(n)])
        path = _write(workdir, f"cartesian{n}.json", coalgebra_to_json(coalg))
        add(f"cartesian/n{n}", ["cartesian", path] + (["--classify"] if n == 10 else []),
            exit_is(1 if n > 16 else 0))
    for n in (300, 1000):
        coalg = ring_machine(rng, rng, n)
        path = _write(workdir, f"ring{n}.json", coalgebra_to_json(coalg))
        x0, x1, xh = coalg.states[0], coalg.states[1], coalg.states[n // 2]
        add(f"mu-eq/ring{n}/unfold", ["mu-eq", path, x0, f"{coalg.step[x0][0]}({x1})"],
            exit_is(0, '"result": "equal"'))
        if n == 1000:
            add(f"mu-eq/ring{n}/distinct", ["mu-eq", path, x0, xh], exit_is(0, '"result": "distinct"'))
    return ops


BUILDERS = {"sweep": sweep, "wide": wide, "deep": deep, "cli": cli}

"""Independent reference implementations used to derive expected test values.

Everything here is deliberately naive and shares no code path with the
library: plain-dict equivalence closure instead of union-find, brute-force
filtering instead of constraint propagation, queue-based graph search instead
of bitset iteration, and grid cells instead of coordinate digit scans.  This
module imports nothing from relfix.  It reads the library's terms only
through their `op`, `args`, `is_var` and `node_id` attributes, and builds new
terms only with the constructor its caller passes in.
"""
from __future__ import annotations

from collections import deque
from fractions import Fraction
from math import floor
from itertools import product


# --- congruence -------------------------------------------------------------

def naive_congruence_decide(eqs, s, t) -> bool:
    """Fixpoint closure over the subterm universe of the equations and queries.

    For ground equations, equality in every model is decided by the least
    equivalence on the subterm-closed universe that contains the equations
    and is closed under the congruence rule within the universe.
    """
    universe = {}  # node id -> node, gathered by an explicit stack over args
    stack = [l for l, _ in eqs.equations] + [r for _, r in eqs.equations] + [s, t]
    while stack:
        node = stack.pop()
        if node.node_id not in universe:
            universe[node.node_id] = node
            if not node.is_var:
                stack.extend(node.args)
    label = {i: i for i in universe}

    def relabel(a: int, b: int) -> None:
        la, lb = label[a], label[b]
        if la == lb:
            return
        for k, v in label.items():
            if v == lb:
                label[k] = la

    apps = [node for node in universe.values() if not node.is_var]
    changed = True
    while changed:
        changed = False
        for lhs, rhs in eqs.equations:
            if label[lhs.node_id] != label[rhs.node_id]:
                relabel(lhs.node_id, rhs.node_id)
                changed = True
        for i, p in enumerate(apps):
            for q in apps[i + 1:]:
                if label[p.node_id] == label[q.node_id]:
                    continue
                if p.op != q.op or len(p.args) != len(q.args):
                    continue
                if all(label[x.node_id] == label[y.node_id] for x, y in zip(p.args, q.args)):
                    relabel(p.node_id, q.node_id)
                    changed = True
    return label[s.node_id] == label[t.node_id]


def naive_variables(t) -> tuple[str, ...]:
    """Variable names in first-occurrence order, by a plain recursive
    left-to-right walk that revisits shared subterms."""
    out: list[str] = []

    def walk(u) -> None:
        if u.args is None:
            if u.op not in out:
                out.append(u.op)
            return
        for a in u.args:
            walk(a)

    walk(t)
    return tuple(out)


def rewrite_reachable(eqs, t, steps: int, app) -> set:
    """Terms reachable from t by at most `steps` rewrites, both directions.
    `app(op, args)` builds a term, interned as the caller's terms are."""
    pairs = [(l, r) for l, r in eqs.equations] + [(r, l) for l, r in eqs.equations]

    def one_step(u) -> set:
        out = set()
        for lhs, rhs in pairs:
            out |= _replace_once(u, lhs, rhs, app)
        return out

    seen = {t}
    frontier = {t}
    for _ in range(steps):
        new = set()
        for u in frontier:
            new |= one_step(u)
        frontier = new - seen
        if not frontier:
            break
        seen |= frontier
    return seen


def _replace_once(u, lhs, rhs, app) -> set:
    """All terms obtained by replacing exactly one occurrence of lhs in u."""
    out = set()
    if u is lhs:
        out.add(rhs)
    if not u.is_var:
        for i, a in enumerate(u.args):
            for replaced in _replace_once(a, lhs, rhs, app):
                out.add(app(u.op, u.args[:i] + (replaced,) + u.args[i + 1:]))
    return out


# --- recursion-square solutions --------------------------------------------

def brute_force_hylo(coalg, alg) -> list[dict]:
    """All maps states -> carrier satisfying the square, by raw filtering."""
    states = list(coalg.states)
    out = []
    for values in product(alg.carrier, repeat=len(states)):
        f = dict(zip(states, values))
        ok = True
        for x in states:
            op, args = coalg.step[x]
            if f[x] != alg.app(op, tuple(f[y] for y in args)):
                ok = False
                break
        if ok:
            out.append(f)
    return out


def naive_narrowed_space(coalg, alg) -> int:
    """The assignments left after each state keeps only the values that some
    choice of its successors' kept values produces, repeated until nothing
    changes: the product of the kept counts (0 when a state keeps none)."""
    kept = {x: set(alg.carrier) for x in coalg.states}
    changed = True
    while changed:
        changed = False
        for x in coalg.states:
            op, args = coalg.step[x]
            image = {alg.app(op, t) for t in product(*(sorted(kept[y]) for y in args))}
            if not kept[x] <= image:
                kept[x] &= image
                changed = True
    space = 1
    for x in coalg.states:
        space *= len(kept[x])
    return space


def cycle_marking_exists(coalg, flip_op: str) -> bool:
    """Does the two-point alternating algebra admit a solution for a functional
    machine?  True iff every cycle passes through `flip_op` an even number of
    times, found by walking each state to its cycle."""
    for start in coalg.states:
        seen_at = {}
        x = start
        step_no = 0
        flips = 0
        while x not in seen_at:
            seen_at[x] = (step_no, flips)
            op, args = coalg.step[x]
            flips += 1 if op == flip_op else 0
            x = args[0]
            step_no += 1
        entry_step, entry_flips = seen_at[x]
        if (flips - entry_flips) % 2 == 1:
            return False
    return True


# --- graphs and lattices ----------------------------------------------------

def bfs_reachable(delta: dict, init) -> frozenset:
    """Plain queue-based reachability over a successor relation."""
    seen = set(init)
    queue = deque(init)
    while queue:
        x = queue.popleft()
        for y in delta.get(x, ()):
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return frozenset(seen)


def naive_wellfounded(coalg) -> bool:
    """No state is reachable from its own successors."""
    delta = {x: coalg.step[x][1] for x in coalg.states}
    return not any(x in bfs_reachable(delta, delta[x]) for x in coalg.states)


def all_subsets(states) -> list[frozenset]:
    states = list(states)
    out = []
    for mask in range(1 << len(states)):
        out.append(frozenset(s for i, s in enumerate(states) if mask >> i & 1))
    return out


def naive_next_time_fixed_points(coalg) -> list[frozenset]:
    """All subsets U with U = {x | every child of x lies in U}, by filtering."""
    out = []
    for u in all_subsets(coalg.states):
        image = frozenset(x for x in coalg.states if all(y in u for y in coalg.step[x][1]))
        if image == u:
            out.append(u)
    return out


def naive_greatest_invariant(coalg, within) -> frozenset:
    """`within` minus every state that can reach a state outside it."""
    delta = {x: coalg.step[x][1] for x in coalg.states}
    outside = set(coalg.states) - set(within)
    return frozenset(x for x in within if not bfs_reachable(delta, [x]) & outside)


# --- carpet -----------------------------------------------------------------

def cell_of_point(x, y, depth: int) -> tuple[int, int]:
    """Grid cell of a point not on any depth-`depth` gridline."""
    scale = 3 ** depth
    return (int(x * scale), int(y * scale))


def naive_carpet_member(x, y, depth: int) -> bool:
    """Is (x, y) in the closure of some retained depth-`depth` cell?

    Tries every cell (i, j) of the 3^depth grid whose closure holds the
    point; a cell is retained when no level has digit 1 in both i and j.
    """
    scale = 3 ** depth
    sx, sy = Fraction(x) * scale, Fraction(y) * scale

    def near(s):
        return [i for i in (floor(s) - 1, floor(s)) if 0 <= i < scale and i <= s <= i + 1]

    for i in near(sx):
        for j in near(sy):
            a, b = i, j
            while a or b:
                if a % 3 == 1 and b % 3 == 1:
                    break
                a, b = a // 3, b // 3
            else:
                return True
    return False

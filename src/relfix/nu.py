"""The greatest solution of an algebra: guided labeled trees.

An algebra a on carrier A determines, for each element x, the family of
A-labeled trees where a node labeled x carrying symbol op with child labels
y1..yk satisfies a(op)(y1,...,yk) = x.  The full trees are usually infinite;
this module works with finite prefixes, with the tree a solution labels
when a machine is unfolded from a state, and with the subset form of the
same idea: the fixed points of next-time, the right adjoint `box_mask` of a
machine's successor image, which are the solutions into the meet algebra.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .errors import DEFAULT_BUDGET, BijectionViolation, BoundExceeded, BudgetExceeded
from .finstruct import FinAlgebra, FinCoalgebra, _saturating_pow, enumerate_hylo
# Imported here, not in `cartesian_subcoalgebras`: a function-local import
# there made each `classify_cartesian` call on a small machine about 5% slower.
from .lattice import MonotoneOp
from .sigterm import Signature

CHECK_DEPTH = 4


@dataclass(frozen=True)
class TreePrefix:
    """A finite prefix of a labeled tree.

    Leaves carry only a label; expanded nodes carry the symbol applied there
    and one child prefix per argument.
    """

    label: str
    op: str | None = None
    children: tuple["TreePrefix", ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))
        if self.op is None and self.children:
            raise ValueError("a leaf cannot have children")

    @property
    def is_leaf(self) -> bool:
        return self.op is None


def tree_fibers(alg: FinAlgebra) -> dict[str, list[tuple[str, tuple[str, ...]]]]:
    """For each carrier element, the flat applications that produce it,
    ordered by symbol declaration then argument tuples in carrier order."""
    fibers: dict[str, list[tuple[str, tuple[str, ...]]]] = {c: [] for c in alg.carrier}
    for op, arity in alg.sig.symbols:
        for args in product(alg.carrier, repeat=arity):
            fibers[alg.app(op, args)].append((op, args))
    return fibers


def is_a_guided(alg: FinAlgebra, prefix: TreePrefix) -> bool:
    """Does every expanded node satisfy a(op)(child labels) = own label?

    A node shared by several parents (as `_unfold` builds them) is checked
    once, where the walk first reaches it."""
    carrier = set(alg.carrier)
    stack, seen = [prefix], set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node.label not in carrier:
            raise ValueError(f"label {node.label!r} is not a carrier element")
        if node.is_leaf:
            continue
        arity = alg.sig.arity(node.op)
        if len(node.children) != arity:
            raise ValueError(f"node '{node.op}' has {len(node.children)} children, arity {arity}")
        if alg.app(node.op, tuple(c.label for c in node.children)) != node.label:
            return False
        stack.extend(node.children)
    return True


def _expansion_sizes(ways, sizes, cap: int) -> tuple[int, int]:
    """Prefixes and printed nodes over every expansion in `ways`, each capped
    at `cap`: a combination of children with (count c_i, nodes n_i) gives
    prod c_i prefixes, printing prod c_i roots plus n_i * prod_(j != i) c_j
    nodes below each child i."""
    count_sum = nodes_sum = 0
    for _, args in ways:
        count, nodes = 1, 0
        for y in args:
            c, n = sizes[y]
            count, nodes = min(count * c, cap), min(nodes * c + count * n, cap)
        count_sum, nodes_sum = count_sum + count, nodes_sum + nodes + count
    return min(count_sum, cap), min(nodes_sum, cap)


def enum_nu_prefixes(
    alg: FinAlgebra, root: str, depth: int, budget: int = DEFAULT_BUDGET
) -> list[TreePrefix]:
    """All guided prefixes with the given root label, fully expanded to `depth`.

    A node at the cutoff depth stays a leaf; every shallower node is expanded
    in every way its fiber allows.  Output order follows fiber order and then
    child combinations lexicographically.  Levels are sized from the cutoff
    up first, so more than `budget` nodes, built shared or printed as trees,
    are refused with nothing built.  Listed labels count too (each one that
    expands is a node), and listing stops at the first empty level.  The
    budget also bounds the argument cells that tabulating the fibers visits."""
    if root not in alg.carrier:
        raise ValueError(f"root {root!r} is not a carrier element")
    if depth < 0:
        raise ValueError("depth must be non-negative")
    # exact while a symbol's count fits in 64 bits, so refusals name it; past
    # that, budget + 1, and the power is never evaluated
    cap = max(budget, 1 << 64)
    counts = [_saturating_pow(len(alg.carrier), arity, cap) for _, arity in alg.sig.symbols]
    # each tuple costs its arity in cells, and a nullary one still one lookup
    cells = sum([count * max(arity, 1) for count, (_, arity) in zip(counts, alg.sig.symbols)])
    if cells > budget:
        raise BudgetExceeded(cells if max(counts) <= cap else budget + 1, budget)
    fibers = tree_fibers(alg)
    levels, listed = [[root]], 1
    while len(levels) <= depth and levels[-1]:
        levels.append(list(dict.fromkeys(
            [y for x in levels[-1] for _, args in fibers[x] for y in args]
        )))
        listed += len(levels[-1])
        if listed > budget:
            raise BudgetExceeded(budget + 1, budget)
    cutoff = levels.pop()
    # per label: (prefixes, nodes printed over all of them), capped at budget + 1
    sizes, total = dict.fromkeys(cutoff, (1, 1)), len(cutoff)
    for labels in reversed(levels):
        if total > budget:
            break
        sizes = {x: _expansion_sizes(fibers[x], sizes, budget + 1) for x in labels}
        total += sum(count for count, _ in sizes.values())
    if total > budget or sizes[root][1] > budget:
        raise BudgetExceeded(budget + 1, budget)
    below = {x: [TreePrefix(x)] for x in cutoff}
    for labels in reversed(levels):
        below = {x: [TreePrefix(x, op, kids) for op, args in fibers[x]
                     for kids in product(*map(below.__getitem__, args))] for x in labels}
    return below[root]


def _unfold(coalg: FinCoalgebra, f: dict[str, str], depth: int) -> dict[str, TreePrefix]:
    """Each state's machine unfolded `depth` deep, nodes labeled by `f`: one
    node per state per level, shared by the next level's nodes."""
    trees = {x: TreePrefix(f[x]) for x in coalg.states}
    for _ in range(depth):
        trees = {x: TreePrefix(f[x], op, tuple(map(trees.__getitem__, args)))
                 for x, (op, args) in coalg.step.items()}
    return trees


def count_coalg_homs_to_nu(
    coalg: FinCoalgebra, alg: FinAlgebra, budget: int = DEFAULT_BUDGET
) -> int:
    """Number of machine maps into the greatest solution.

    Counted through the solution enumeration, then cross-checked: the machine
    unfolded from each state, labeled by each solution, must be guided at
    depths 0 and CHECK_DEPTH (whose top holds every depth between), and
    distinct solutions must stay distinct.  Any failed check raises
    BijectionViolation; a value outside the carrier raises ValueError.
    """
    solutions = enumerate_hylo(coalg, alg, budget)
    seen: set[tuple[str, ...]] = set()  # each solution's values in state order
    for f in solutions:
        values = tuple([f[x] for x in coalg.states])
        if values in seen:
            raise BijectionViolation("duplicate solution in enumeration")
        seen.add(values)
        # depth 0 first: its leaves check every value against the carrier
        for d in (0, CHECK_DEPTH):
            for tree in _unfold(coalg, f, d).values():
                if not is_a_guided(alg, tree):
                    raise BijectionViolation("unfolding left the guided trees")
    return len(solutions)


def cartesian_subcoalgebras(coalg: FinCoalgebra, bound: int = 16) -> list[tuple[str, ...]]:
    """All subsets P with P = next_time(P), in subset-lexicographic order
    (binary counting over the declared state order)."""
    states = coalg.states
    if len(states) > bound:
        raise BoundExceeded(f"{len(states)} states exceeds the exhaustive bound {bound}")
    return [
        tuple(s for i, s in enumerate(states) if mask >> i & 1)
        for mask in MonotoneOp.from_machine(coalg).box_fixed_masks()
    ]


@lru_cache(maxsize=None)
def meet_algebra(sig: Signature) -> FinAlgebra:
    """Carrier {0,1}; every symbol is the meet of its arguments (nullary: 1).

    Only all-ones rows are stored, so an arity-k symbol costs one row, not 2^k."""
    table = {(op, ("1",) * arity): "1" for op, arity in sig.symbols}
    return FinAlgebra(sig, ("0", "1"), table, default="0")


def classify_cartesian(
    coalg: FinCoalgebra, bound: int = 16, budget: int = DEFAULT_BUDGET
) -> list[tuple[tuple[str, ...], dict[str, str]]]:
    """Pair each next-time fixed point P with its indicator map into the meet
    algebra, and verify the pairing is exactly the solution set of the square.
    The budget bounds the 2^n subsets tested, the meet algebra's row cells
    and the solution search."""
    if 1 << len(coalg.states) > budget:
        raise BudgetExceeded(1 << len(coalg.states), budget)
    # a declared but unused symbol can make the meet algebra's row cells huge
    cells = sum([arity for _, arity in coalg.sig.symbols])
    if cells > budget:
        raise BudgetExceeded(cells, budget)
    subsets = cartesian_subcoalgebras(coalg, bound)
    alg = meet_algebra(coalg.sig)
    solutions = enumerate_hylo(coalg, alg, budget)
    pairs = []
    for subset in subsets:
        inside = set(subset)
        chi = {x: ("1" if x in inside else "0") for x in coalg.states}
        pairs.append((subset, chi))
    # both sides key their maps in state order
    got = {tuple(chi.values()) for _, chi in pairs}
    want = {tuple(f.values()) for f in solutions}
    if got != want or len(pairs) != len(solutions):
        raise BijectionViolation(
            "next-time fixed points and square solutions do not match"
        )
    return pairs

"""Guided prefixes, rational trees, and next-time fixed points."""
import random
import time
from itertools import product

import pytest

from relfix import jsonio, nu
from relfix.cli import main
from relfix.errors import BijectionViolation, BoundExceeded, BudgetExceeded
from relfix.finstruct import FinAlgebra, FinCoalgebra, all_coalgebras, enumerate_hylo
from relfix.lattice import MonotoneOp
from relfix.nu import (
    TreePrefix,
    cartesian_subcoalgebras,
    classify_cartesian,
    count_coalg_homs_to_nu,
    enum_nu_prefixes,
    is_a_guided,
    meet_algebra,
    tree_fibers,
)
from relfix.sigterm import Signature

import cases
from gen import MIXED, random_algebra, random_machine
from oracles import naive_next_time_fixed_points, truncate


def leaf(label):
    return TreePrefix(label)


def unfold(machine, labeling, start, depth) -> TreePrefix:
    """The machine unfolded `depth` deep from `start`, nodes labeled by
    `labeling`: the tree `count_coalg_homs_to_nu` checks."""
    return nu._unfold(machine, labeling, depth)[start]


def printed_nodes(prefix: TreePrefix) -> int:
    """Nodes in the tree a prefix prints as, shared subtrees counted each time."""
    count, stack = 0, [prefix]
    while stack:
        count += 1
        stack.extend(stack.pop().children)
    return count


class TestGuided:
    def test_single_leaf_is_guided(self):
        assert is_a_guided(cases.flip_algebra(), leaf("0")) is True

    def test_flip_node(self):
        alg = cases.flip_algebra()
        assert is_a_guided(alg, TreePrefix("1", "chk", (leaf("0"),))) is True
        assert is_a_guided(alg, TreePrefix("1", "cross", (leaf("0"),))) is False

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError):
            is_a_guided(cases.flip_algebra(), leaf("7"))

    def test_wrong_child_count_rejected(self):
        with pytest.raises(ValueError):
            is_a_guided(cases.flip_algebra(), TreePrefix("1", "chk", (leaf("0"), leaf("0"))))

    def test_shared_nodes_are_checked_once(self):
        # each state steps to both: depth 30 builds 31 nodes per state, but
        # prints 2^31 - 1 below each root
        machine = FinCoalgebra(cases.BINARY, ("p", "q"),
                               {"p": ("cross", ("p", "q")), "q": ("chk", ("q", "p"))})
        alg = meet_algebra(cases.BINARY)
        start = time.perf_counter()
        for tree in nu._unfold(machine, {"p": "1", "q": "1"}, 30).values():
            assert is_a_guided(alg, tree) is True
        assert time.perf_counter() - start < 2

    def test_a_shared_node_still_fails_or_raises(self):
        alg = meet_algebra(cases.BINARY)
        bad = TreePrefix("1", "cross", (leaf("0"), leaf("1")))
        assert is_a_guided(alg, TreePrefix("1", "chk", (bad, bad))) is False
        stray = leaf("7")
        with pytest.raises(ValueError):
            is_a_guided(alg, TreePrefix("0", "chk", (stray, stray)))


class TestEnumPrefixes:
    def test_depth_zero(self):
        assert enum_nu_prefixes(cases.flip_algebra(), "0", 0) == [leaf("0")]

    def test_depth_one_matches_inverted_table(self):
        alg = cases.flip_algebra()
        # oracle: invert the operation table by hand
        inverse = {"0": [], "1": []}
        for op in ("cross", "chk"):
            for v in ("0", "1"):
                inverse[alg.app(op, (v,))].append((op, v))
        assert inverse["0"] == [("cross", "0"), ("chk", "1")]
        got = enum_nu_prefixes(alg, "0", 1)
        assert got == [
            TreePrefix("0", "cross", (leaf("0"),)),
            TreePrefix("0", "chk", (leaf("1"),)),
        ]

    def test_empty_fiber_yields_nothing(self):
        sig = Signature((("f", 1),))
        const = FinAlgebra(sig, ("0", "1"), {("f", ("0",)): "0", ("f", ("1",)): "0"})
        assert enum_nu_prefixes(const, "1", 1) == []
        assert enum_nu_prefixes(const, "1", 0) == [leaf("1")]

    def test_levels_past_the_first_empty_one_are_not_listed(self):
        sig = Signature((("c", 0), ("d", 0)))
        consts = FinAlgebra(sig, ("0", "1"), {("c", ()): "0", ("d", ()): "0"})
        got = enum_nu_prefixes(consts, "0", 10**6, budget=3)
        assert got == [TreePrefix("0", "c"), TreePrefix("0", "d")]
        assert enum_nu_prefixes(consts, "1", 10**6, budget=3) == []

    def test_all_results_are_guided_and_prefix_closed(self):
        alg = cases.flip_algebra()
        for root in ("0", "1"):
            for prefix in enum_nu_prefixes(alg, root, 3):
                assert is_a_guided(alg, prefix)
                for d in range(4):
                    assert is_a_guided(alg, truncate(prefix, d, TreePrefix))

    def test_deeper_enumeration_truncates_to_shallower(self):
        alg = cases.flip_algebra()
        for root, d in product(("0", "1"), (0, 1, 2)):
            shallow = enum_nu_prefixes(alg, root, d)
            truncated = []
            for prefix in enum_nu_prefixes(alg, root, d + 1):
                cut = truncate(prefix, d, TreePrefix)
                if cut not in truncated:
                    truncated.append(cut)
            assert truncated == shallow

    def test_budget(self):
        alg = meet_algebra(cases.BINARY)
        with pytest.raises(BudgetExceeded):
            enum_nu_prefixes(alg, "0", 4, budget=50)

    def test_deep_single_chain(self):
        # one unary symbol acting as a swap: every label has exactly one fiber
        sig = Signature((("s", 1),))
        alg = FinAlgebra(sig, ("0", "1"), {("s", ("0",)): "1", ("s", ("1",)): "0"})
        (prefix,) = enum_nu_prefixes(alg, "0", 5000, budget=5001)
        labels = []
        while not prefix.is_leaf:
            labels.append(prefix.label)
            (prefix,) = prefix.children
        assert labels == ["0", "1"] * 2500 and prefix.label == "0"
        with pytest.raises(BudgetExceeded) as err:
            enum_nu_prefixes(alg, "0", 5000, budget=5000)
        assert err.value.required == 5001

    def test_refused_enumeration_builds_nothing(self, monkeypatch, capsys, tmp_path):
        built = []

        class CountedPrefix(TreePrefix):
            def __post_init__(self):
                built.append(self)
                super().__post_init__()

        monkeypatch.setattr(nu, "TreePrefix", CountedPrefix)
        alg = meet_algebra(cases.BINARY)
        with pytest.raises(BudgetExceeded) as err:
            enum_nu_prefixes(alg, "0", 4, budget=50)
        assert (err.value.required, str(err.value)) == (51, "enumeration of size 51 exceeds budget 50")
        f = tmp_path / "flip.json"
        f.write_text(jsonio.canonical_dumps(jsonio.algebra_to_json(cases.flip_algebra())))
        code = main(["nu-enum", str(f), "--root", "0", "--depth", "2000", "--budget", "1000"])
        assert code == 1
        assert capsys.readouterr().err == "error: enumeration of size 1001 exceeds budget 1000\n"
        assert built == []
        # inside the budget every node is built once, subtrees shared
        assert len(enum_nu_prefixes(cases.flip_algebra(), "0", 3)) == 8
        assert len(built) == 2 + 4 + 8 + 8

    def test_fiber_tuples_count_against_the_budget(self):
        # tabulating p would visit 2^30 argument tuples of 30 cells each
        # before any node; the nullary c counts one cell
        alg = FinAlgebra(Signature((("c", 0), ("p", 30))), ("0", "1"), {("c", ()): "1"}, "0")
        with pytest.raises(BudgetExceeded) as err:
            enum_nu_prefixes(alg, "1", 1, budget=10)
        assert err.value.required == 1 + 30 * 2**30
        # a budget of exactly the cell count is enough: 3 * 1 + 9 * 2 for
        # the wide tree algebra's signature, 2 + 2 for the flip algebra
        tree = FinAlgebra(Signature((("g", 1), ("f", 2))), ("0", "1", "2"), {}, "0")
        assert enum_nu_prefixes(tree, "0", 0, budget=21) == [leaf("0")]
        with pytest.raises(BudgetExceeded) as err:
            enum_nu_prefixes(tree, "0", 0, budget=20)
        assert err.value.required == 21
        assert enum_nu_prefixes(cases.flip_algebra(), "0", 0, budget=4) == [leaf("0")]
        with pytest.raises(BudgetExceeded) as err:
            enum_nu_prefixes(cases.flip_algebra(), "0", 0, budget=3)
        assert err.value.required == 4

    def test_budget_counts_printed_nodes(self):
        # b(0, 0) = 0 builds one shared node per level, but its depth-12
        # prefix prints as a full binary tree of 2^13 - 1 nodes
        alg = FinAlgebra(Signature((("b", 2),)), ("0",), {("b", ("0", "0")): "0"})
        (prefix,) = enum_nu_prefixes(alg, "0", 12, budget=8191)
        assert printed_nodes(prefix) == 8191
        with pytest.raises(BudgetExceeded) as err:
            enum_nu_prefixes(alg, "0", 12, budget=8190)
        assert err.value.required == 8191

    def test_budget_bounds_printed_nodes_on_random_algebras(self):
        rng = random.Random(41)
        past_tuples = 0
        for _ in range(300):
            sig = rng.choice((cases.UNARY, cases.BINARY, cases.CS))
            alg = random_algebra(rng, sig, rng.randint(1, 3))
            root, depth = rng.choice(alg.carrier), rng.randint(0, 2)
            printed = sum(map(printed_nodes, enum_nu_prefixes(alg, root, depth)))
            if not printed:
                continue
            with pytest.raises(BudgetExceeded):
                enum_nu_prefixes(alg, root, depth, budget=printed - 1)
            past_tuples += printed - 1 >= sum(len(alg.carrier) ** k for _, k in sig.symbols)
        assert past_tuples > 100

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            enum_nu_prefixes(cases.flip_algebra(), "0", -1)

    def test_fibers_partition_flat_applications(self):
        alg = meet_algebra(cases.BINARY)
        fibers = tree_fibers(alg)
        total = sum(len(v) for v in fibers.values())
        assert total == 2 * 4  # two binary symbols over a two-element carrier
        assert fibers["1"] == [("cross", ("1", "1")), ("chk", ("1", "1"))]


class TestCoextension:
    """The tree a solution labels when its machine is unfolded from a state."""

    def test_alternating_tree(self):
        b, a = cases.chk_two_cycle(), cases.flip_algebra()
        f = {"q0": "0", "q1": "1"}
        assert unfold(b, f, "q0", 3) == TreePrefix(
            "0", "chk", (TreePrefix("1", "chk", (TreePrefix("0", "chk", (leaf("1"),)),)),)
        )
        for d in range(5):
            assert is_a_guided(a, unfold(b, f, "q0", d))

    def test_constant_stream(self):
        tree = unfold(cases.cross_loop(), {"q": "1"}, "q", 2)
        assert tree == TreePrefix("1", "cross", (TreePrefix("1", "cross", (leaf("1"),)),))

    def test_unfoldings_are_the_guided_prefixes_they_truncate_to(self):
        # the two constructions of the greatest solution agree: each state's
        # deepest checked unfolding cut to depth d is its depth-d unfolding,
        # and up to depth 3 that is one of the guided prefixes from its label
        rng, checked = random.Random(7), 0
        for _ in range(40):
            sig = rng.choice((cases.UNARY, cases.BINARY, cases.CS))
            machine = random_machine(rng, sig, rng.randint(1, 4))
            alg = random_algebra(rng, sig, rng.randint(1, 2))
            for f in enumerate_hylo(machine, alg):
                deepest = nu._unfold(machine, f, nu.CHECK_DEPTH)
                for d in range(nu.CHECK_DEPTH + 1):
                    level = nu._unfold(machine, f, d)
                    for x in machine.states:
                        assert truncate(deepest[x], d, TreePrefix) == level[x]
                        if d <= 3:
                            assert level[x] in enum_nu_prefixes(alg, f[x], d)
                            checked += 1
        assert checked > 200

    def test_unfold_deeper_than_the_recursion_limit(self):
        node, depth = unfold(cases.cross_loop(), {"q": "1"}, "q", 5000), 0
        while not node.is_leaf:
            assert (node.label, node.op) == ("1", "cross")
            (node,) = node.children
            depth += 1
        assert (depth, node.label) == (5000, "1")


class TestBisimilar:
    """Bisimilar rational trees unfold to the same prefix at every depth."""

    def test_cycles_of_different_length_same_tree(self):
        b2 = cases.chk_two_cycle()
        b4 = cases.unary_machine(
            {"p0": ("chk", "p1"), "p1": ("chk", "p2"), "p2": ("chk", "p3"), "p3": ("chk", "p0")}
        )
        f2 = {"q0": "0", "q1": "1"}
        f4 = {"p0": "0", "p1": "1", "p2": "0", "p3": "1"}
        for d in range(6):
            assert unfold(b2, f2, "q0", d) == unfold(b4, f4, "p0", d)
            assert unfold(b2, f2, "q0", d) != unfold(b4, f4, "p1", d)

    def test_op_mismatch_detected(self):
        chk, cross, f = cases.chk_loop(), cases.cross_loop(), {"q": "0"}
        assert unfold(chk, f, "q", 0) == unfold(cross, f, "q", 0)
        assert unfold(chk, f, "q", 1) != unfold(cross, f, "q", 1)


class TestCountHoms:
    def test_counts(self):
        assert count_coalg_homs_to_nu(cases.chk_two_cycle(), cases.flip_algebra()) == 2
        assert count_coalg_homs_to_nu(cases.chk_loop(), cases.flip_algebra()) == 0
        assert count_coalg_homs_to_nu(cases.empty_machine(), cases.flip_algebra()) == 1

    def test_three_counts_coincide(self):
        from relfix.mu import mu_hom_count

        rng = random.Random(23)
        for _ in range(30):
            n = rng.randint(1, 4)
            states = tuple(f"x{i}" for i in range(n))
            step = {
                x: (rng.choice(("cross", "chk")), (rng.choice(states),)) for x in states
            }
            b = FinCoalgebra(cases.UNARY, states, step)
            a = cases.flip_algebra()
            assert (
                count_coalg_homs_to_nu(b, a)
                == mu_hom_count(b, a)
                == len(enumerate_hylo(b, a))
            )

    @pytest.mark.parametrize("bad, message", [
        # an equal solution built in another key order is still a duplicate
        pytest.param({"q1": "0", "q0": "1"}, "duplicate solution in enumeration", id="duplicate"),
        # q0 = chk(q1) fails under flip: the depth-1 unfolding is not guided
        pytest.param({"q0": "0", "q1": "0"}, "unfolding left the guided trees", id="non-solution"),
    ])
    def test_bad_enumeration_is_a_bijection_violation(self, monkeypatch, bad, message):
        b, a = cases.chk_two_cycle(), cases.flip_algebra()
        solutions = enumerate_hylo(b, a)
        monkeypatch.setattr(nu, "enumerate_hylo", lambda *_: solutions + [bad])
        with pytest.raises(BijectionViolation, match=message):
            count_coalg_homs_to_nu(b, a)

    def test_value_outside_the_carrier_is_a_value_error(self, monkeypatch):
        b, a = cases.chk_two_cycle(), cases.flip_algebra()
        monkeypatch.setattr(nu, "enumerate_hylo", lambda *_: [{"q0": "0", "q1": "2"}])
        with pytest.raises(ValueError, match="'2' is not a carrier element"):
            count_coalg_homs_to_nu(b, a)


class TestNextTime:
    """Next-time on a machine is `box_mask` of its successor image."""

    def test_full_set_is_fixed(self):
        op = MonotoneOp.from_machine(cases.three_state_automaton())
        full = op.mask_of(op.states)
        assert op.box_mask(full) == full

    def test_empty_set_catches_nullary_steps(self):
        assert MonotoneOp.from_machine(cases.three_state_automaton()).box_mask(0) == 0
        op = MonotoneOp.from_machine(cases.acyclic_pq())
        assert op.set_of(op.box_mask(0)) == {"q"}

    def test_single_state_fiber(self):
        op = MonotoneOp.from_machine(cases.three_state_automaton())
        assert op.set_of(op.box_mask(op.mask_of({"q2"}))) == {"q2"}
        assert op.set_of(op.box_mask(op.mask_of({"q0", "q1"}))) == {"q1"}

    def test_monotone(self):
        rng = random.Random(5)
        op = MonotoneOp.from_machine(cases.three_state_automaton())
        for _ in range(50):
            u = rng.getrandbits(3)
            v = u | rng.getrandbits(3)
            assert op.box_mask(u) & ~op.box_mask(v) == 0

    def test_rejects_non_states(self):
        with pytest.raises(ValueError):
            MonotoneOp.from_machine(cases.cross_loop()).mask_of({"nope"})

    def test_packaged_operator_matches_function(self):
        b = cases.three_state_automaton()
        op = MonotoneOp.from_machine(b)
        for u in ((), ("q2",), b.states):
            want = {x for x in b.states if set(b.step[x][1]) <= set(u)}
            assert op.set_of(op.box_mask(op.mask_of(u))) == want


class TestGreatestSubcoalgebra:
    def test_from_everything_is_a_fixed_point(self):
        # the greatest next-time fixed point is every state, listed last
        for b in (cases.three_state_automaton(), cases.chk_loop(), cases.acyclic_pq()):
            assert cartesian_subcoalgebras(b)[-1] == b.states


class TestCartesian:
    def test_single_loop(self):
        assert cartesian_subcoalgebras(cases.cross_loop()) == [(), ("q",)]

    def test_acyclic_machine_only_full(self):
        assert cartesian_subcoalgebras(cases.acyclic_pq()) == [("p", "q")]

    def test_three_state_matches_naive_filter(self):
        b = cases.three_state_automaton()
        got = cartesian_subcoalgebras(b)
        assert got == [(), ("q2",), ("q0", "q1", "q2")]
        assert [frozenset(p) for p in got] == sorted(
            naive_next_time_fixed_points(b), key=lambda s: sum(1 << b.states.index(x) for x in s)
        )

    def test_bound_exceeded(self):
        states = tuple(f"s{i}" for i in range(17))
        b = FinCoalgebra(
            cases.UNARY, states, {x: ("chk", (x,)) for x in states}
        )
        with pytest.raises(BoundExceeded):
            cartesian_subcoalgebras(b)

    @staticmethod
    def check_against_box_mask(coalg, naive=True):
        """The tabulated fixed points are the masks that box_mask fixes, in
        binary counting order, and (with `naive`) the oracle's subsets."""
        n = len(coalg.states)
        op = MonotoneOp.from_machine(coalg)
        fixed = [m for m in range(1 << n) if op.box_mask(m) == m]
        assert op.box_fixed_masks() == fixed
        got = cartesian_subcoalgebras(coalg)
        assert got == [tuple(s for i, s in enumerate(coalg.states) if m >> i & 1) for m in fixed]
        if naive:
            assert [frozenset(p) for p in got] == naive_next_time_fixed_points(coalg)

    def test_table_matches_box_mask_on_every_small_machine(self):
        for sig in cases.CARTESIAN_SIGS:
            for n in range(4):
                for coalg in all_coalgebras(sig, n):
                    self.check_against_box_mask(coalg)

    def test_table_matches_box_mask_on_larger_machines(self):
        rng = random.Random(61)
        for n in list(range(10, 17)) * 2:
            self.check_against_box_mask(random_machine(rng, MIXED, n), naive=n <= 12)

    def test_invariant_subset_need_not_be_fixed(self):
        b = cases.unary_machine({"a": ("cross", "b"), "b": ("cross", "b")})
        op = MonotoneOp.from_machine(b)
        p = op.mask_of({"b"})
        assert op.box_mask(p) & p == p
        assert op.box_mask(p) != p
        assert ("b",) not in cartesian_subcoalgebras(b)


@pytest.mark.parametrize("build, exc, message", [
    (lambda: TreePrefix("0", None, (leaf("0"),)), ValueError, "a leaf cannot have children"),
    (lambda: classify_cartesian(cases.chk_two_cycle(), budget=3),
     BudgetExceeded, "enumeration of size 4 exceeds budget 3"),
], ids=["leaf-with-children", "subsets-over-budget"])
def test_bad_input_is_refused_by_name(build, exc, message):
    with pytest.raises(exc) as err:
        build()
    assert str(err.value) == message


class TestMeetAlgebra:
    def test_binary_meet(self):
        alg = meet_algebra(cases.BINARY)
        assert alg.app("cross", ("1", "1")) == "1"
        assert alg.app("cross", ("1", "0")) == "0"

    def test_nullary_is_top(self):
        alg = meet_algebra(cases.CS)
        assert alg.app("c", ()) == "1"

    def test_one_row_per_symbol(self):
        sig = Signature(tuple((f"m{k}", k) for k in range(5)))
        alg = meet_algebra(sig)
        assert len(alg.table) == len(sig.symbols)
        for op, arity in sig.symbols:
            for args in product(("0", "1"), repeat=arity):
                want = "1" if all(a == "1" for a in args) else "0"
                assert alg.app(op, args) == want, (op, args)


class TestClassify:
    def test_single_loop_pairs(self):
        got = classify_cartesian(cases.cross_loop())
        assert got == [((), {"q": "0"}), (("q",), {"q": "1"})]

    def test_empty_machine(self):
        assert classify_cartesian(cases.empty_machine()) == [((), {})]

    def test_acyclic_unique_pair(self):
        assert classify_cartesian(cases.acyclic_pq()) == [
            (("p", "q"), {"p": "1", "q": "1"})
        ]

    def test_random_machines_always_biject(self):
        rng = random.Random(41)
        for _ in range(40):
            n = rng.randint(1, 5)
            states = tuple(f"x{i}" for i in range(n))
            step = {}
            for x in states:
                if rng.random() < 0.3:
                    step[x] = ("c", ())
                else:
                    step[x] = ("s", (rng.choice(states), rng.choice(states)))
            b = FinCoalgebra(cases.CS, states, step)
            pairs = classify_cartesian(b)
            assert len(pairs) == len(cartesian_subcoalgebras(b))

    def test_a_missing_solution_is_a_bijection_violation(self, monkeypatch):
        b = cases.cross_loop()
        solutions = enumerate_hylo(b, meet_algebra(b.sig))
        monkeypatch.setattr(nu, "enumerate_hylo", lambda *_: solutions[:-1])
        with pytest.raises(BijectionViolation, match="do not match"):
            classify_cartesian(b)

    def test_budget_bounds_the_meet_rows_before_they_are_built(self, monkeypatch):
        # p is declared, never used, and its all-ones row has ten cells
        sig = Signature((("c", 0), ("p", 10)))
        b = FinCoalgebra(sig, ("q",), {"q": ("c", ())})
        assert classify_cartesian(b, budget=10) == [(("q",), {"q": "1"})]
        monkeypatch.setattr(nu, "meet_algebra", None)  # refused before any call
        with pytest.raises(BudgetExceeded) as err:
            classify_cartesian(b, budget=9)
        assert err.value.required == 10

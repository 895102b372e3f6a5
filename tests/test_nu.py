"""Guided prefixes, rational trees, and next-time fixed points."""
import random
from itertools import product

import pytest

from relfix import jsonio, nu
from relfix.cli import main
from relfix.errors import BoundExceeded, BudgetExceeded, NotCaMorphism
from relfix.finstruct import FinAlgebra, FinCoalgebra, all_coalgebras, enumerate_hylo
from relfix.lattice import MonotoneOp
from relfix.nu import (
    RationalTree,
    TreePrefix,
    bisimilar,
    cartesian_subcoalgebras,
    classify_cartesian,
    coextension,
    count_coalg_homs_to_nu,
    enum_nu_prefixes,
    greatest_subcoalgebra,
    is_a_guided,
    meet_algebra,
    next_time,
    tree_fibers,
)
from relfix.sigterm import Signature

import cases
from gen import MIXED, random_machine, random_mixed_machines
from oracles import naive_greatest_invariant, naive_next_time_fixed_points


def leaf(label):
    return TreePrefix(label)


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
                    assert is_a_guided(alg, prefix.truncate(d))

    def test_deeper_enumeration_truncates_to_shallower(self):
        alg = cases.flip_algebra()
        for root, d in product(("0", "1"), (0, 1, 2)):
            shallow = enum_nu_prefixes(alg, root, d)
            truncated = []
            for prefix in enum_nu_prefixes(alg, root, d + 1):
                cut = prefix.truncate(d)
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
        # tabulating p would visit 2^30 argument tuples before any node
        alg = FinAlgebra(Signature((("c", 0), ("p", 30))), ("0", "1"), {("c", ()): "1"}, "0")
        with pytest.raises(BudgetExceeded) as err:
            enum_nu_prefixes(alg, "1", 1, budget=10)
        assert err.value.required == 1 + 2**30
        # a budget of exactly the tuple count is enough: 3 + 9 for the wide
        # tree algebra's signature, 2 + 2 for the flip algebra
        tree = FinAlgebra(Signature((("g", 1), ("f", 2))), ("0", "1", "2"), {}, "0")
        assert enum_nu_prefixes(tree, "0", 0, budget=12) == [leaf("0")]
        assert enum_nu_prefixes(cases.flip_algebra(), "0", 0, budget=4) == [leaf("0")]
        with pytest.raises(BudgetExceeded) as err:
            enum_nu_prefixes(cases.flip_algebra(), "0", 0, budget=3)
        assert err.value.required == 4

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
    def test_alternating_tree(self):
        b, a = cases.chk_two_cycle(), cases.flip_algebra()
        tree = coextension(b, a, {"q0": "0", "q1": "1"}, "q0")
        assert tree.root_label == "0"
        got = tree.unfold(3)
        assert got == TreePrefix(
            "0", "chk", (TreePrefix("1", "chk", (TreePrefix("0", "chk", (leaf("1"),)),)),)
        )
        for d in range(5):
            assert is_a_guided(a, tree.unfold(d))

    def test_rejects_non_solution(self):
        with pytest.raises(NotCaMorphism):
            coextension(cases.chk_two_cycle(), cases.flip_algebra(), {"q0": "0", "q1": "0"}, "q0")

    def test_rejects_unknown_start(self):
        with pytest.raises(ValueError):
            coextension(cases.cross_loop(), cases.flip_algebra(), {"q": "0"}, "zz")

    def test_constant_stream(self):
        tree = coextension(cases.cross_loop(), cases.flip_algebra(), {"q": "1"}, "q")
        assert tree.unfold(2) == TreePrefix("1", "cross", (TreePrefix("1", "cross", (leaf("1"),)),))

    def test_unfold_deeper_than_the_recursion_limit(self):
        tree = coextension(cases.cross_loop(), cases.flip_algebra(), {"q": "1"}, "q")
        node, depth = tree.unfold(5000), 0
        while not node.is_leaf:
            assert (node.label, node.op) == ("1", "cross")
            (node,) = node.children
            depth += 1
        assert (depth, node.label) == (5000, "1")


class TestBisimilar:
    def test_cycles_of_different_length_same_tree(self):
        b2 = cases.chk_two_cycle()
        b4 = cases.unary_machine(
            {"p0": ("chk", "p1"), "p1": ("chk", "p2"), "p2": ("chk", "p3"), "p3": ("chk", "p0")}
        )
        t2 = RationalTree(b2, {"q0": "0", "q1": "1"}, "q0")
        t4 = RationalTree(b4, {"p0": "0", "p1": "1", "p2": "0", "p3": "1"}, "p0")
        assert bisimilar(t2, t4) is True
        assert bisimilar(t2, RationalTree(b4, t4.labeling, "p1")) is False

    def test_op_mismatch_detected(self):
        chk = RationalTree(cases.chk_loop(), {"q": "0"}, "q")
        cross = RationalTree(cases.cross_loop(), {"q": "0"}, "q")
        assert bisimilar(chk, cross) is False


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


class TestNextTime:
    def test_full_set_is_fixed(self):
        b = cases.three_state_automaton()
        assert next_time(b, b.states) == frozenset(b.states)

    def test_empty_set_catches_nullary_steps(self):
        assert next_time(cases.three_state_automaton(), ()) == frozenset()
        assert next_time(cases.acyclic_pq(), ()) == frozenset({"q"})

    def test_single_state_fiber(self):
        b = cases.three_state_automaton()
        assert next_time(b, {"q2"}) == frozenset({"q2"})
        assert next_time(b, {"q0", "q1"}) == frozenset({"q1"})

    def test_monotone(self):
        rng = random.Random(5)
        b = cases.three_state_automaton()
        for _ in range(50):
            u = {x for x in b.states if rng.random() < 0.5}
            v = u | {x for x in b.states if rng.random() < 0.5}
            assert next_time(b, u) <= next_time(b, v)

    def test_rejects_non_states(self):
        with pytest.raises(ValueError):
            next_time(cases.cross_loop(), {"nope"})

    def test_packaged_operator_matches_function(self):
        b = cases.three_state_automaton()
        op = MonotoneOp(b.states, {x: b.successors(x) for x in b.states})
        for u in ((), ("q2",), b.states):
            assert op.set_of(op.box_mask(op.mask_of(u))) == next_time(b, u)


class TestGreatestSubcoalgebra:
    def test_from_everything_is_a_fixed_point(self):
        for b in (cases.three_state_automaton(), cases.chk_loop(), cases.acyclic_pq()):
            g = greatest_subcoalgebra(b)
            assert next_time(b, g) == g
            for p in cartesian_subcoalgebras(b):
                assert frozenset(p) <= g

    def test_below_a_subset_only_invariant(self):
        b = cases.unary_machine({"a": ("cross", "b"), "b": ("cross", "b")})
        g = greatest_subcoalgebra(b, {"b"})
        assert g == frozenset({"b"})
        assert g < next_time(b, g)  # invariant but not fixed below this subset

    def test_matches_reachability_oracle(self):
        rng = random.Random(37)
        for b in random_mixed_machines(seed=37, count=200):
            assert greatest_subcoalgebra(b) == naive_greatest_invariant(b, b.states)
            for _ in range(5):
                within = frozenset(x for x in b.states if rng.random() < 0.6)
                assert greatest_subcoalgebra(b, within) == naive_greatest_invariant(b, within)


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
        op = MonotoneOp(coalg.states, {x: coalg.successors(x) for x in coalg.states})
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
        p = frozenset({"b"})
        assert p <= next_time(b, p)
        assert p != next_time(b, p)
        assert tuple(sorted(p)) not in cartesian_subcoalgebras(b)


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

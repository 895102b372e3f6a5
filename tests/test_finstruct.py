"""Machines, algebras, evaluation, and solution enumeration."""
import random
import time
from itertools import islice, product

import pytest

from relfix.errors import (
    ArityMismatch,
    BudgetExceeded,
    NotCaMorphism,
    SignatureMismatch,
    UnboundVariable,
)
from relfix.finstruct import (
    CaMorphism,
    FinAlgebra,
    FinCoalgebra,
    all_algebras,
    all_coalgebras,
    check_recursive_on,
    count_algebras,
    enumerate_hylo,
    eval_term,
    is_algebra_morphism,
    is_ca_morphism,
    is_coalgebra_morphism,
    is_wellfounded,
)
from relfix.sigterm import Signature, app, parse_term, var

import cases
from gen import random_machine, random_mixed_machines, random_sparse_algebra
from oracles import brute_force_hylo, naive_narrowed_space, naive_wellfounded


class TestConstruction:
    def test_step_arity_checked(self):
        with pytest.raises(ArityMismatch):
            FinCoalgebra(cases.UNARY, ("q",), {"q": ("chk", ("q", "q"))})

    def test_step_targets_checked(self):
        with pytest.raises(ValueError):
            FinCoalgebra(cases.UNARY, ("q",), {"q": ("chk", ("nope",))})

    def test_step_must_be_total(self):
        with pytest.raises(ValueError):
            FinCoalgebra(cases.UNARY, ("q", "r"), {"q": ("chk", ("q",))})

    def test_algebra_totality_checked(self):
        with pytest.raises(ValueError):
            FinAlgebra(cases.UNARY, ("0", "1"), {("chk", ("0",)): "1"})

    def test_algebra_default_fills_rows(self):
        alg = FinAlgebra(cases.UNARY, ("0", "1"), {("chk", ("0",)): "1"}, default="0")
        assert alg.app("cross", ("1",)) == "0"
        assert alg.app("chk", ("0",)) == "1"

    def test_empty_machine_is_fine(self):
        assert cases.empty_machine().states == ()


class TestEval:
    def test_flip_table(self):
        alg = cases.flip_algebra()
        t = parse_term(cases.UNARY, "chk(cross(q))")
        # by hand: cross keeps 0, chk flips it
        assert eval_term(alg, {"q": "0"}, t) == "1"
        assert eval_term(alg, {"q": "1"}, t) == "0"

    def test_all_depth_two_chains_match_hand_table(self):
        # independent derivation: compose the two rows of each symbol by hand
        alg = cases.flip_algebra()
        keep = {"0": "0", "1": "1"}
        flip = {"0": "1", "1": "0"}
        tables = {"cross": keep, "chk": flip}
        for outer, inner, v in product(("chk", "cross"), ("chk", "cross"), ("0", "1")):
            t = parse_term(cases.UNARY, f"{outer}({inner}(q))")
            assert eval_term(alg, {"q": v}, t) == tables[outer][tables[inner][v]]

    def test_meet_style_binary(self):
        two = FinAlgebra(
            cases.BINARY,
            ("0", "1"),
            {
                ("cross", args): ("1" if args == ("1", "1") else "0")
                for args in product(("0", "1"), repeat=2)
            }
            | {
                ("chk", args): ("1" if args == ("1", "1") else "0")
                for args in product(("0", "1"), repeat=2)
            },
        )
        t = parse_term(cases.BINARY, "cross(x,y)")
        assert eval_term(two, {"x": "1", "y": "1"}, t) == "1"
        assert eval_term(two, {"x": "1", "y": "0"}, t) == "0"

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariable):
            eval_term(cases.flip_algebra(), {}, var("q"))


class TestSquare:
    def test_cross_loop_constants_solve(self):
        b, a = cases.cross_loop(), cases.flip_algebra()
        assert is_ca_morphism(b, a, {"q": "0"}) is True
        assert is_ca_morphism(b, a, {"q": "1"}) is True

    def test_chk_loop_has_no_solution(self):
        b, a = cases.chk_loop(), cases.flip_algebra()
        assert is_ca_morphism(b, a, {"q": "0"}) is False
        assert is_ca_morphism(b, a, {"q": "1"}) is False

    def test_empty_machine_empty_map(self):
        assert is_ca_morphism(cases.empty_machine(), cases.flip_algebra(), {}) is True

    def test_signature_mismatch(self):
        with pytest.raises(SignatureMismatch):
            is_ca_morphism(cases.three_state_automaton(), cases.flip_algebra(), {})

    def test_camorphism_validates(self):
        b, a = cases.chk_two_cycle(), cases.flip_algebra()
        m = CaMorphism(b, a, {"q0": "0", "q1": "1"})
        assert m.mapping == {"q0": "0", "q1": "1"}
        with pytest.raises(NotCaMorphism):
            CaMorphism(b, a, {"q0": "0", "q1": "0"})


class TestEnumerate:
    def test_chk_loop_empty(self):
        assert enumerate_hylo(cases.chk_loop(), cases.flip_algebra()) == []

    def test_two_cycle_two_solutions_in_order(self):
        got = enumerate_hylo(cases.chk_two_cycle(), cases.flip_algebra())
        assert got == [{"q0": "0", "q1": "1"}, {"q0": "1", "q1": "0"}]

    def test_empty_machine_single_empty_solution(self):
        assert enumerate_hylo(cases.empty_machine(), cases.flip_algebra()) == [{}]

    def test_budget_exceeded(self):
        with pytest.raises(BudgetExceeded) as err:
            enumerate_hylo(cases.chk_two_cycle(), cases.flip_algebra(), budget=3)
        assert err.value.required == 4

    def test_matches_brute_force_on_random_machines(self):
        rng = random.Random(7)
        sig = cases.CS
        algs = list(islice(all_algebras(sig, 2), 0, None, 37))
        for _ in range(60):
            n = rng.randint(1, 4)
            states = tuple(f"x{i}" for i in range(n))
            step = {}
            for x in states:
                if rng.random() < 0.4:
                    step[x] = ("c", ())
                else:
                    step[x] = ("s", (rng.choice(states), rng.choice(states)))
            b = FinCoalgebra(sig, states, step)
            for a in algs:
                assert enumerate_hylo(b, a) == brute_force_hylo(b, a)

    def test_nullary_step_against_an_empty_table_takes_the_default(self):
        sig = Signature((("c", 0), ("p", 5)))
        alg = FinAlgebra(sig, ("0", "1"), {}, default="1")
        b = FinCoalgebra(sig, ("q", "r"), {"q": ("c", ()), "r": ("p", ("q",) * 5)})
        assert enumerate_hylo(b, alg) == [{"q": "1", "r": "1"}]

    def test_matches_oracles_on_sparse_algebras_with_a_default(self):
        # images past the table's row count are read from the rows; nullary
        # symbols and empty tables are where the default is easiest to lose
        sigs = [
            Signature((("c", 0),)),
            Signature((("c", 0), ("g", 1), ("f", 2))),
            Signature((("c", 0), ("d", 0), ("h", 3))),
            Signature((("g", 1), ("p", 5))),
            Signature((("c", 0), ("q", 4), ("p", 5))),
        ]
        rng = random.Random(53)
        for _ in range(400):
            sig = sigs[rng.randrange(len(sigs))]
            b = random_machine(rng, sig, rng.randint(1, 4))
            a = random_sparse_algebra(rng, sig, rng.randint(1, 3), rng.choice((0, 0.02, 0.2, 0.6)))
            want = brute_force_hylo(b, a)
            space = naive_narrowed_space(b, a)
            for budget in (1, 5, 10**6):
                if space > budget:
                    with pytest.raises(BudgetExceeded) as err:
                        enumerate_hylo(b, a, budget)
                    assert err.value.required == len(a.carrier) ** len(b.states)
                else:
                    assert enumerate_hylo(b, a, budget) == want

    def test_long_chain_in_either_declaration_order(self):
        want = [{f"s{i}": str((2999 - i) % 2) for i in range(3000)}]
        for from_head in (True, False):
            chain = cases.chk_chain(3000, from_head)
            start = time.perf_counter()
            assert enumerate_hylo(chain, cases.flip_nil_algebra()) == want
            assert time.perf_counter() - start < 5

    def test_lexicographic_order(self):
        sig = Signature((("f", 1),))
        b = FinCoalgebra(sig, ("x", "y"), {"x": ("f", ("x",)), "y": ("f", ("y",))})
        ident = FinAlgebra(sig, ("0", "1"), {("f", ("0",)): "0", ("f", ("1",)): "1"})
        got = enumerate_hylo(b, ident)
        assert got == [
            {"x": "0", "y": "0"},
            {"x": "0", "y": "1"},
            {"x": "1", "y": "0"},
            {"x": "1", "y": "1"},
        ]


class TestWellFounded:
    def test_loops_are_not(self):
        assert is_wellfounded(cases.chk_loop()) is False
        assert is_wellfounded(cases.three_state_automaton()) is False

    def test_acyclic_is(self):
        assert is_wellfounded(cases.acyclic_pq()) is True
        assert is_wellfounded(cases.empty_machine()) is True

    def test_every_unary_machine_is_cyclic(self):
        # one successor per state on a finite set forces a cycle
        for b in all_coalgebras(cases.UNARY, 2):
            assert is_wellfounded(b) is False

    def test_matches_reachability_on_random_machines(self):
        machines = random_mixed_machines(11, 2000)
        assert {is_wellfounded(b) for b in machines} == {True, False}
        for b in machines:
            assert is_wellfounded(b) == naive_wellfounded(b)

    def test_long_chain_and_the_same_chain_closed(self):
        chain = cases.chk_chain(10**5)
        assert is_wellfounded(chain) is True
        closed = dict(chain.step, s99999=("chk", ("s0",)))
        assert is_wellfounded(FinCoalgebra(cases.CHK_NIL, chain.states, closed)) is False


class TestRecursivity:
    def test_acyclic_machine_unique_against_all_small_algebras(self):
        b = cases.acyclic_pq()
        assert check_recursive_on(b, all_algebras(cases.CS, 1)) is True
        assert check_recursive_on(b, all_algebras(cases.CS, 2)) is True

    def test_loops_fail_against_flip(self):
        assert check_recursive_on(cases.chk_loop(), [cases.flip_algebra()]) is False
        assert check_recursive_on(cases.cross_loop(), [cases.flip_algebra()]) is False


class TestMorphismComposition:
    def test_coalgebra_morphism_checks(self):
        b2 = cases.chk_two_cycle()
        b4 = cases.unary_machine(
            {"p0": ("chk", "p1"), "p1": ("chk", "p2"), "p2": ("chk", "p3"), "p3": ("chk", "p0")}
        )
        wrap = {"p0": "q0", "p1": "q1", "p2": "q0", "p3": "q1"}
        assert is_coalgebra_morphism(b4, b2, wrap) is True
        assert is_coalgebra_morphism(b4, b2, {**wrap, "p2": "q1"}) is False

    def test_algebra_morphism_checks(self):
        collapse = FinAlgebra(
            cases.UNARY, ("0",), {("chk", ("0",)): "0", ("cross", ("0",)): "0"}
        )
        h = {"0": "0", "1": "0"}
        assert is_algebra_morphism(cases.flip_algebra(), collapse, h) is True
        # the swap commutes with both operations, the constant map breaks chk
        ident = cases.flip_algebra()
        assert is_algebra_morphism(ident, ident, {"0": "1", "1": "0"}) is True
        assert is_algebra_morphism(ident, ident, {"0": "0", "1": "0"}) is False

    def test_solutions_closed_under_both_compositions(self):
        b2, a = cases.chk_two_cycle(), cases.flip_algebra()
        b4 = cases.unary_machine(
            {"p0": ("chk", "p1"), "p1": ("chk", "p2"), "p2": ("chk", "p3"), "p3": ("chk", "p0")}
        )
        wrap = {"p0": "q0", "p1": "q1", "p2": "q0", "p3": "q1"}
        collapse = FinAlgebra(
            cases.UNARY, ("0",), {("chk", ("0",)): "0", ("cross", ("0",)): "0"}
        )
        h = {"0": "0", "1": "0"}
        for f in enumerate_hylo(b2, a):
            pre = {p: f[wrap[p]] for p in b4.states}
            assert is_ca_morphism(b4, a, pre) is True
            post = {x: h[f[x]] for x in b2.states}
            assert is_ca_morphism(b2, collapse, post) is True


class TestGenerators:
    def test_algebra_count(self):
        sig = Signature((("f", 1),))
        assert len(list(all_algebras(sig, 2))) == 4

    def test_coalgebra_count(self):
        assert len(list(all_coalgebras(cases.UNARY, 2))) == 16

    def test_algebra_count_matches_the_generator(self):
        for sig in (cases.UNARY, cases.CS, Signature((("f", 1), ("c", 0)))):
            expected = sum(len(list(all_algebras(sig, s))) for s in (1, 2))
            assert count_algebras(sig, 2) == expected
        assert count_algebras(cases.UNARY, 2) == 17

    def test_algebra_count_is_refused_past_the_budget(self):
        # 1 + 16 + 729 algebras on carriers of size 1..3
        assert count_algebras(cases.UNARY, 3, budget=746) == 746
        with pytest.raises(BudgetExceeded) as err:
            count_algebras(cases.UNARY, 3, budget=745)
        assert (err.value.required, err.value.budget) == (746, 745)
        # 3^6 alone passes the budget: not evaluated, reported as budget + 1
        with pytest.raises(BudgetExceeded) as err:
            count_algebras(cases.UNARY, 3, budget=700)
        assert err.value.required == 701

    def test_wide_symbol_count_is_never_evaluated(self):
        sig = Signature((("c", 0), ("p", 10**9)))
        assert count_algebras(sig, 1) == 1
        with pytest.raises(BudgetExceeded) as err:
            count_algebras(sig, 2)
        assert err.value.required == 10**6 + 1

    def test_deterministic_order(self):
        first = [a.table for a in all_algebras(cases.UNARY, 2)]
        second = [a.table for a in all_algebras(cases.UNARY, 2)]
        assert first == second

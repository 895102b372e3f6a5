"""Presentations of least solutions and their word problem."""
import random

import pytest

from relfix.errors import NotCaMorphism, UnboundVariable
from relfix.finstruct import FinAlgebra, FinCoalgebra, enumerate_hylo
from relfix.mu import (
    mu_equal,
    mu_hom_count,
    mu_presentation,
    mu_soundness_check,
    unfold_once,
)
from relfix.sigterm import app, parse_term, var

import cases
from oracles import naive_congruence_decide, rewrite_reachable


def meet_binary() -> FinAlgebra:
    from relfix.nu import meet_algebra

    return meet_algebra(cases.BINARY)


class TestPresentation:
    def test_three_state_generators(self):
        pres = mu_presentation(cases.three_state_automaton())
        got = [(str(l), str(r)) for l, r in pres.equations]
        assert got == [
            ("q0", "cross(q1,q2)"),
            ("q1", "cross(q0,q1)"),
            ("q2", "chk(q2,q2)"),
        ]

    def test_empty_machine_empty_presentation(self):
        assert mu_presentation(cases.empty_machine()).equations == ()

    def test_nullary_step(self):
        b = FinCoalgebra(cases.CS, ("q",), {"q": ("c", ())})
        pres = mu_presentation(b)
        assert [(str(l), str(r)) for l, r in pres.equations] == [("q", "c()")]


class TestWordProblem:
    def test_doubly_unfolded_state(self):
        b = cases.three_state_automaton()
        lhs = var("q0")
        rhs = parse_term(cases.BINARY, "cross(cross(q0,q1),chk(q2,q2))")
        assert mu_equal(b, lhs, rhs) is True
        eqs = mu_presentation(b)
        assert naive_congruence_decide(eqs, lhs, rhs) is True
        assert rhs in rewrite_reachable(eqs, lhs, 4, app)

    def test_states_not_identified(self):
        b = cases.three_state_automaton()
        assert mu_equal(b, var("q0"), var("q2")) is False

    def test_reflexivity(self):
        b = cases.three_state_automaton()
        t = parse_term(cases.BINARY, "chk(q0,q1)")
        assert mu_equal(b, t, t) is True

    def test_generators_hold(self):
        for b in (cases.three_state_automaton(), cases.chk_two_cycle(), cases.acyclic_pq()):
            for x in b.states:
                assert mu_equal(b, var(x), b.step_term(x)) is True

    def test_unknown_state_variable_rejected(self):
        with pytest.raises(UnboundVariable):
            mu_equal(cases.three_state_automaton(), var("zz"), var("q0"))

    def test_fixed_point_law_under_full_unfolding(self):
        rng = random.Random(3)
        b = cases.three_state_automaton()

        def random_term(depth):
            if depth == 0 or rng.random() < 0.3:
                return var(rng.choice(b.states))
            op = rng.choice(("cross", "chk"))
            return app(op, (random_term(depth - 1), random_term(depth - 1)))

        for _ in range(40):
            t = random_term(3)
            assert mu_equal(b, t, unfold_once(b, t)) is True


class TestHomCount:
    def test_two_cycle_flip(self):
        assert mu_hom_count(cases.chk_two_cycle(), cases.flip_algebra()) == 2

    def test_empty_machine_is_initial(self):
        alg = FinAlgebra(
            cases.CS,
            ("0", "1"),
            {("c", ()): "0"},
            default="0",
        )
        assert mu_hom_count(cases.empty_machine(cases.CS), alg) == 1

    def test_chk_loop_has_none(self):
        assert mu_hom_count(cases.chk_loop(), cases.flip_algebra()) == 0

    def test_count_equals_enumeration_length(self):
        b, a = cases.three_state_automaton(), meet_binary()
        assert mu_hom_count(b, a) == len(enumerate_hylo(b, a))


class TestSoundness:
    def test_identified_terms_evaluate_equally(self):
        b, a = cases.three_state_automaton(), meet_binary()
        lhs = var("q0")
        rhs = parse_term(cases.BINARY, "cross(cross(q0,q1),chk(q2,q2))")
        for f in enumerate_hylo(b, a):
            assert mu_soundness_check(b, a, f, lhs, rhs) is True

    def test_rejects_non_solutions(self):
        b, a = cases.chk_two_cycle(), cases.flip_algebra()
        with pytest.raises(NotCaMorphism):
            mu_soundness_check(b, a, {"q0": "0", "q1": "0"}, var("q0"), var("q0"))

    def test_rejects_unidentified_terms(self):
        b, a = cases.chk_two_cycle(), cases.flip_algebra()
        f = enumerate_hylo(b, a)[0]
        with pytest.raises(ValueError):
            mu_soundness_check(b, a, f, var("q0"), var("q1"))

    def test_randomized_rewrites_stay_sound(self):
        rng = random.Random(11)
        b, a = cases.three_state_automaton(), meet_binary()
        eqs = mu_presentation(b)
        solutions = enumerate_hylo(b, a)
        for _ in range(25):
            start = var(rng.choice(b.states))
            reachable = sorted(rewrite_reachable(eqs, start, 2, app), key=str)
            t = reachable[rng.randrange(len(reachable))]
            f = solutions[rng.randrange(len(solutions))]
            assert mu_soundness_check(b, a, f, start, t) is True

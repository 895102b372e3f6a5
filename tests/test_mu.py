"""Presentations of least solutions and their word problem."""
import json
import random
import sys

import pytest

from relfix.cli import main
from relfix.errors import ArityMismatch, UnboundVariable, UnknownSymbol
from relfix.finstruct import FinAlgebra, FinCoalgebra, enumerate_hylo, is_ca_morphism
from relfix.jsonio import canonical_dumps, coalgebra_to_json
from relfix.mu import mu_equal, mu_hom_count
from relfix.sigterm import CongruenceClosure, EquationSet, app, parse_term, term_store_size, var

import cases
from gen import MIXED, random_mixed_machines, random_term
from oracles import evaluate, naive_congruence_decide, rewrite_reachable, substitute


def meet_binary() -> FinAlgebra:
    from relfix.nu import meet_algebra

    return meet_algebra(cases.BINARY)


def step_term(b: FinCoalgebra, x: str):
    """The step of x as a term, successor states as variables."""
    op, args = b.step[x]
    return app(op, tuple(var(y) for y in args))


def presentation(b: FinCoalgebra) -> EquationSet:
    """The relations x = step(x) as terms: what `mu_equal` closes as rows."""
    return EquationSet(b.sig, tuple((var(x), step_term(b, x)) for x in b.states))


def printed_generators(tmp_path, capsys, b: FinCoalgebra, lhs: str, rhs: str) -> list[str]:
    """The "generators" that `relfix mu-eq` prints for machine b."""
    path = tmp_path / "machine.json"
    path.write_text(canonical_dumps(coalgebra_to_json(b)))
    assert main(["mu-eq", str(path), lhs, rhs]) == 0
    generators = json.loads(capsys.readouterr().out)["generators"]
    assert generators == [f"{l} = {r}" for l, r in presentation(b).equations]
    return generators


class TestPresentation:
    def test_three_state_generators(self, tmp_path, capsys):
        assert printed_generators(tmp_path, capsys, cases.three_state_automaton(), "q0", "q0") == [
            "q0 = cross(q1,q2)",
            "q1 = cross(q0,q1)",
            "q2 = chk(q2,q2)",
        ]

    def test_empty_machine_empty_presentation(self, tmp_path, capsys):
        assert printed_generators(tmp_path, capsys, cases.empty_machine(cases.CS), "c", "c") == []

    def test_nullary_step(self, tmp_path, capsys):
        b = FinCoalgebra(cases.CS, ("q",), {"q": ("c", ())})
        assert printed_generators(tmp_path, capsys, b, "q", "c") == ["q = c()"]


class TestWordProblem:
    def test_doubly_unfolded_state(self):
        b = cases.three_state_automaton()
        lhs = var("q0")
        rhs = parse_term(cases.BINARY, "cross(cross(q0,q1),chk(q2,q2))")
        assert mu_equal(b, lhs, rhs) is True
        eqs = presentation(b)
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
                assert mu_equal(b, var(x), step_term(b, x)) is True

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

        unfold = {x: step_term(b, x) for x in b.states}
        for _ in range(40):
            t = random_term(3)
            assert mu_equal(b, t, substitute(t, unfold, app)) is True


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
    """Terms the presentation identifies evaluate equally under every solution."""

    def test_identified_terms_evaluate_equally(self):
        b, a = cases.three_state_automaton(), meet_binary()
        lhs = var("q0")
        rhs = parse_term(cases.BINARY, "cross(cross(q0,q1),chk(q2,q2))")
        assert mu_equal(b, lhs, rhs) is True
        for f in enumerate_hylo(b, a):
            assert evaluate(lhs, f, a.app) == evaluate(rhs, f, a.app)

    def test_rejects_non_solutions(self):
        # soundness needs a solution: this map separates the generator q0 = chk(q1)
        b, a = cases.chk_two_cycle(), cases.flip_algebra()
        f = {"q0": "0", "q1": "0"}
        assert is_ca_morphism(b, a, f) is False
        assert mu_equal(b, var("q0"), step_term(b, "q0")) is True
        assert evaluate(var("q0"), f, a.app) != evaluate(step_term(b, "q0"), f, a.app)

    def test_rejects_unidentified_terms(self):
        # a solution that separates two terms shows the presentation keeps them apart
        b, a = cases.chk_two_cycle(), cases.flip_algebra()
        f = enumerate_hylo(b, a)[0]
        assert evaluate(var("q0"), f, a.app) != evaluate(var("q1"), f, a.app)
        assert mu_equal(b, var("q0"), var("q1")) is False

    def test_randomized_rewrites_stay_sound(self):
        rng = random.Random(11)
        b, a = cases.three_state_automaton(), meet_binary()
        eqs = presentation(b)
        solutions = enumerate_hylo(b, a)
        for _ in range(25):
            start = var(rng.choice(b.states))
            reachable = sorted(rewrite_reachable(eqs, start, 2, app), key=str)
            t = reachable[rng.randrange(len(reachable))]
            f = solutions[rng.randrange(len(solutions))]
            assert mu_equal(b, start, t) is True
            assert evaluate(start, f, a.app) == evaluate(t, f, a.app)


class TestFlatRows:
    """`mu_equal` closes the machine's steps as rows and walks only the queries."""

    def test_matches_naive_closure_of_the_presentation(self):
        # random pairs at depths 0-3, and every pair of states: two states
        # are often identified only through a congruence a merge propagates
        seen = {True: 0, False: 0}
        for k, b in enumerate(random_mixed_machines(23, 600)):
            rng = random.Random(k)
            eqs = presentation(b)
            pairs = [(var(x), var(y)) for i, x in enumerate(b.states) for y in b.states[i + 1:]]
            for depth in range(4):
                s = random_term(rng, MIXED, b.states, depth)
                pairs.append((s, random_term(rng, MIXED, b.states, rng.randint(0, 3))))
            for s, t in pairs:
                got = mu_equal(b, s, t)
                assert got == naive_congruence_decide(eqs, s, t), (b, str(s), str(t))
                seen[got] += 1
        assert seen[True] >= 200 and seen[False] >= 200, seen

    def test_query_deeper_than_the_recursion_limit(self):
        b = cases.g_ring(("d0", "d1", "d2"))
        depth = sys.getrecursionlimit() + 500
        t = var(b.states[depth % 3])
        for _ in range(depth):
            t = app("g", (t,))
        assert mu_equal(b, var("d0"), t) is True
        assert mu_equal(b, var("d1"), t) is False

    def test_leaves_the_term_store_alone(self):
        names = [f"store_ring{i}" for i in range(2000)]
        b = cases.g_ring(names)
        before = term_store_size()
        s, t = var(names[0]), parse_term(b.sig, f"g({names[1]})")  # three new nodes
        assert mu_equal(b, s, t) is True
        assert mu_equal(b, s, var(names[1])) is False
        assert term_store_size() - before <= 3

    @pytest.mark.parametrize("side", [0, 1])
    @pytest.mark.parametrize(
        "bad,error",
        [
            (var("zz"), UnboundVariable),
            (app("or", (var("q0"), var("q1"))), UnknownSymbol),
            (app("cross", (var("q0"),)), ArityMismatch),
        ],
    )
    def test_bad_query_is_refused_before_any_row(self, monkeypatch, side, bad, error):
        def no_rows(*args):
            raise AssertionError("a row was built before the query was checked")

        monkeypatch.setattr(CongruenceClosure, "atom", no_rows)
        monkeypatch.setattr(CongruenceClosure, "row", no_rows)
        pair = [var("q0"), var("q0")]
        pair[side] = bad
        with pytest.raises(error):
            mu_equal(cases.three_state_automaton(), *pair)

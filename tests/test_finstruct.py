"""Machines, algebras, evaluation, and solution enumeration."""
import random
import time
from itertools import islice, product

import pytest

from relfix.errors import ArityMismatch, BudgetExceeded, SignatureMismatch
from relfix.finstruct import (
    SEARCH_ORDER_SPACE,
    FinAlgebra,
    FinCoalgebra,
    all_algebras,
    all_coalgebras,
    count_algebras,
    enumerate_hylo,
    _saturating_pow,
    is_ca_morphism,
    is_wellfounded,
)
from relfix.lattice import WORD_STATES
from relfix.sigterm import Signature, parse_term

import cases
from gen import MIXED, random_algebra, random_machine, random_mixed_machines, random_sparse_algebra
from oracles import brute_force_hylo, evaluate, naive_narrowed_space, naive_wellfounded


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

    @pytest.mark.parametrize("build, exc, message", [
        (lambda: FinCoalgebra(cases.UNARY, ("q", "q"), {"q": ("chk", ("q",))}),
         ValueError, "duplicate state names"),
        (lambda: FinCoalgebra(cases.UNARY, ("q",), {"q": ("chk", ("q",)), "r": ("chk", ("q",))}),
         ValueError, "step defined on non-states: ['r']"),
        (lambda: FinAlgebra(cases.UNARY, ("0", "0"), {}, default="0"),
         ValueError, "duplicate carrier elements"),
        (lambda: FinAlgebra(cases.UNARY, ("0",), {("chk", ("0", "0")): "0"}, default="0"),
         ArityMismatch, "symbol 'chk' expects 1 argument(s), got 2"),
        (lambda: FinAlgebra(cases.UNARY, ("0",), {("chk", ("1",)): "0"}, default="0"),
         ValueError, "table row chk('1',) uses non-carrier arguments"),
        (lambda: FinAlgebra(cases.UNARY, ("0",), {("chk", ("0",)): "1"}, default="0"),
         ValueError, "table row chk('0',) outputs non-carrier value '1'"),
        (lambda: FinAlgebra(cases.UNARY, ("0",), {}, default="1"),
         ValueError, "default '1' is not a carrier element"),
        (lambda: cases.flip_algebra().app("chk", ("2",)),
         ValueError, "no interpretation for chk('2',)"),
        (lambda: is_ca_morphism(cases.chk_loop(), cases.flip_algebra(), {}),
         ValueError, "map is not total: state 'q' missing"),
        (lambda: is_ca_morphism(cases.chk_loop(), cases.flip_algebra(), {"q": "2"}),
         ValueError, "map sends 'q' outside the carrier"),
    ], ids=[
        "duplicate-states", "step-on-non-state", "duplicate-carrier", "row-arity",
        "non-carrier-argument", "non-carrier-output", "default-outside", "app-bad-tuple",
        "map-missing-state", "map-outside-carrier",
    ])
    def test_bad_input_is_refused_by_name(self, build, exc, message):
        with pytest.raises(exc) as err:
            build()
        assert str(err.value) == message


def stated_every_tuple(sig, carrier, table, default) -> bool:
    """Totality by definition: a default, or a row for every argument tuple
    of every symbol, walked one tuple at a time."""
    return default is not None or all(
        (op, args) in table for op, arity in sig.symbols for args in product(carrier, repeat=arity)
    )


class TestTotality:
    """`FinAlgebra` decides totality by counting each symbol's rows."""

    @staticmethod
    def accepted(sig, carrier, table, default=None) -> bool:
        try:
            FinAlgebra(sig, carrier, table, default)
        except ValueError:
            return False
        return True

    def tables(self):
        rng = random.Random(17)
        for _ in range(60):
            sig = rng.choice(cases.CARTESIAN_SIGS + [MIXED])
            size = rng.randint(1, 3)
            full = random_algebra(rng, sig, size)
            yield sig, full.carrier, full.table, None
            for key in full.table:
                yield sig, full.carrier, {k: v for k, v in full.table.items() if k != key}, None
            sparse = random_sparse_algebra(rng, sig, size, rng.choice((0, 0.3, 0.8)))
            yield sig, sparse.carrier, sparse.table, sparse.default
        # an empty carrier has no argument tuple of a positive arity and one,
        # the empty tuple, of a nullary symbol
        for sig in cases.CARTESIAN_SIGS + [MIXED]:
            yield sig, (), {}, None

    def test_row_count_agrees_with_the_tuple_walk(self):
        verdicts = []
        for sig, carrier, table, default in self.tables():
            want = stated_every_tuple(sig, carrier, table, default)
            assert self.accepted(sig, carrier, table, default) == want
            verdicts.append(want)
        assert set(verdicts) == {True, False}

    def test_outputs_are_each_symbols_image_over_the_carrier(self):
        # the seed of narrowing: `default` counts only where some tuple
        # has no row, and the values come in carrier order
        unused_defaults = 0
        for sig, carrier, table, default in self.tables():
            if not self.accepted(sig, carrier, table, default):
                continue
            alg = FinAlgebra(sig, carrier, table, default)
            for op, arity in sig.symbols:
                image = {alg.app(op, args) for args in product(carrier, repeat=arity)}
                assert alg.outputs[op] == [c for c in carrier if c in image]
                unused_defaults += default is not None and default not in image
        alg = FinAlgebra(cases.UNARY, ("0", "1", "2"), {
            ("chk", ("0",)): "2", ("chk", ("1",)): "0", ("chk", ("2",)): "2", ("cross", ("1",)): "2",
        }, default="1")
        assert alg.outputs == {"chk": ["0", "2"], "cross": ["1", "2"]}
        assert unused_defaults > 0

    def test_refusal_names_the_symbol_and_both_counts(self):
        table = {("chk", ("0",)): "1", ("chk", ("1",)): "0", ("cross", ("0",)): "0"}
        with pytest.raises(ValueError, match=r"symbol 'cross' has 1 table rows where 2\^1"):
            FinAlgebra(cases.UNARY, ("0", "1"), table)

    def test_saturating_pow_of_zero(self):
        for cap in (0, 1, 10):
            assert _saturating_pow(0, 0, cap) == 1
            for k in (1, 2, 10**8):
                assert _saturating_pow(0, k, cap) == 0


class TestEval:
    """The evaluation oracle the soundness tests rely on, against hand tables."""

    def test_flip_table(self):
        alg = cases.flip_algebra()
        t = parse_term(cases.UNARY, "chk(cross(q))")
        # by hand: cross keeps 0, chk flips it
        assert evaluate(t, {"q": "0"}, alg.app) == "1"
        assert evaluate(t, {"q": "1"}, alg.app) == "0"

    def test_all_depth_two_chains_match_hand_table(self):
        # independent derivation: compose the two rows of each symbol by hand
        alg = cases.flip_algebra()
        keep = {"0": "0", "1": "1"}
        flip = {"0": "1", "1": "0"}
        tables = {"cross": keep, "chk": flip}
        for outer, inner, v in product(("chk", "cross"), ("chk", "cross"), ("0", "1")):
            t = parse_term(cases.UNARY, f"{outer}({inner}(q))")
            assert evaluate(t, {"q": v}, alg.app) == tables[outer][tables[inner][v]]

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
        assert evaluate(t, {"x": "1", "y": "1"}, two.app) == "1"
        assert evaluate(t, {"x": "1", "y": "0"}, two.app) == "0"


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
            a = random_sparse_algebra(rng, sig, rng.randint(1, 3), rng.choice((0, 0.02, 0.2, 0.6, 1.0)))
            want = brute_force_hylo(b, a)
            # the refusal flips exactly at the narrowed space
            space = naive_narrowed_space(b, a)
            for budget in (1, 5, space - 1, space, 10**6):
                if space > budget:
                    with pytest.raises(BudgetExceeded) as err:
                        enumerate_hylo(b, a, budget)
                    assert err.value.required == len(a.carrier) ** len(b.states)
                else:
                    assert enumerate_hylo(b, a, budget) == want

    @pytest.mark.parametrize("k, n, modulus", [
        (100, 1000, 100), (100, 1000, 99), (200, 2000, 200), (200, 2000, 199),
    ])
    def test_narrowing_a_large_table_is_refused_quickly(self, k, n, modulus):
        # f/2 with all k^2 rows: sums mod k produce every value, so nothing
        # narrows; sums mod k - 1 never produce k - 1, so every state loses
        # it and all its users are revisited.  Either way the space stays
        # past the default budget.
        sig = Signature((("f", 2),))
        carrier = tuple(str(i) for i in range(k))
        table = {("f", (a, b)): str((int(a) + int(b)) % modulus) for a in carrier for b in carrier}
        alg = FinAlgebra(sig, carrier, table)
        b = random_machine(random.Random(k), sig, n)
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded) as err:
            enumerate_hylo(b, alg)
        assert time.perf_counter() - start < 5
        assert err.value.required == k**n

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


class TestForwardChecking:
    """The search filters the last state of each square (in declaration
    order) once its other states are assigned.  It must list exactly the
    brute-force solutions, in the same order, each keyed in state order."""

    SIGS = [
        MIXED,
        Signature((("c", 0), ("d", 0), ("f", 2))),
        Signature((("g", 1), ("h", 3))),
        Signature((("f", 2),)),
    ]

    @staticmethod
    def check(b, a, want=None):
        got = enumerate_hylo(b, a)
        assert got == brute_force_hylo(b, a)
        assert want is None or len(got) == want
        for f in got:
            assert list(f) == list(b.states)

    # projections and identities on {0, 1, 2}, so every square below has
    # several solutions and the search must backtrack through them
    PROJ = Signature((("c", 0), ("g", 1), ("f", 2)))

    def proj_algebra(self, f=lambda x, y: x):
        carrier = ("0", "1", "2")
        table = {("c", ()): "0"}
        table.update({("g", (x,)): x for x in carrier})
        table.update({("f", (x, y)): f(x, y) for x in carrier for y in carrier})
        return FinAlgebra(self.PROJ, carrier, table)

    def test_state_declared_after_its_successors_is_forced(self):
        b = FinCoalgebra(self.PROJ, ("x", "y", "z"),
                         {"x": ("g", ("x",)), "y": ("g", ("y",)), "z": ("f", ("y", "x"))})
        self.check(b, self.proj_algebra(), want=9)

    def test_own_successor_declared_last_in_its_square_is_scanned(self):
        # z = f(z, y) with y declared first: z's value feeds its own square,
        # so the square cannot force it once y is assigned
        b = FinCoalgebra(self.PROJ, ("y", "z"), {"y": ("g", ("y",)), "z": ("f", ("z", "y"))})
        self.check(b, self.proj_algebra(), want=9)
        self.check(b, self.proj_algebra(lambda x, y: max(x, y)), want=6)

    def test_square_whose_last_state_is_a_successor(self):
        # x = f(y, z) filters z once y is assigned; x = g(z) filters z at x
        for step in ({"x": ("f", ("y", "z")), "y": ("g", ("y",)), "z": ("g", ("z",))},
                     {"x": ("g", ("z",)), "y": ("g", ("y",)), "z": ("f", ("x", "y"))}):
            b = FinCoalgebra(self.PROJ, ("x", "y", "z"), step)
            self.check(b, self.proj_algebra())
            self.check(b, self.proj_algebra(lambda x, y: max(x, y)))

    def test_filters_are_undone_on_backtrack(self):
        # each value of x filters y to that value alone; the next value of x
        # must see all of y's candidates again
        b = FinCoalgebra(self.PROJ, ("x", "y"), {"x": ("g", ("y",)), "y": ("g", ("y",))})
        self.check(b, self.proj_algebra(), want=3)

    def test_matches_brute_force_on_random_machines(self):
        rng = random.Random(71)
        for trial in range(600):
            sig = self.SIGS[trial % len(self.SIGS)]
            n = rng.randint(1, 7)
            b = random_machine(rng, sig, n)
            size = rng.randint(2, 3 if n <= 5 else 2)
            if trial % 2:
                a = random_sparse_algebra(rng, sig, size, rng.choice((0, 0.1, 0.5, 1.0)))
            else:
                a = random_algebra(rng, sig, size)
            want = brute_force_hylo(b, a)
            space = naive_narrowed_space(b, a)
            for budget in (1, 5, space - 1, space, 10**6):
                if space > budget:
                    with pytest.raises(BudgetExceeded) as err:
                        enumerate_hylo(b, a, budget)
                    assert err.value.required == size ** n
                else:
                    got = enumerate_hylo(b, a, budget)
                    assert got == want
                    assert all(list(f) == list(b.states) for f in got)


class TestSearchOrder:
    """Past SEARCH_ORDER_SPACE narrowed assignments the search takes the
    most-mentioned states first.  The solutions must still come out in
    (state order, carrier order), each keyed in state order."""

    SIG = Signature((("g", 1), ("f", 2)))

    def hub_machine(self, rng, n):
        """A random machine whose last-declared state is mentioned strictly
        most: each argument is that state with probability one half."""
        states = tuple(f"x{i}" for i in range(n))
        while True:
            step, count = {}, dict.fromkeys(states, 0)
            for x in states:
                op, arity = rng.choice(self.SIG.symbols)
                step[x] = (op, tuple(states[-1] if rng.random() < 0.5 else rng.choice(states)
                                     for _ in range(arity)))
                for y in step[x][1]:
                    count[y] += 1
            if all(count[states[-1]] > count[x] for x in states[:-1]):
                return FinCoalgebra(self.SIG, states, step)

    def near_projection(self, rng, size, p):
        """Each row outputs its first argument with probability p, so that
        squares have several solutions; otherwise a random element."""
        carrier = tuple(str(i) for i in range(size))
        table = {(op, args): args[0] if rng.random() < p else rng.choice(carrier)
                 for op, arity in self.SIG.symbols for args in product(carrier, repeat=arity)}
        return FinAlgebra(self.SIG, carrier, table)

    def test_hub_declared_last_matches_brute_force_in_order(self):
        rng, reordered = random.Random(5), 0
        for _ in range(80):
            n = rng.randint(6, 9)
            b = self.hub_machine(rng, n)
            a = self.near_projection(rng, 3 if n <= 7 else 2, rng.choice((0.5, 0.8, 1.0)))
            got = enumerate_hylo(b, a)
            assert got == brute_force_hylo(b, a)
            assert all(list(f) == list(b.states) for f in got)
            reordered += naive_narrowed_space(b, a) > SEARCH_ORDER_SPACE and len(got) > 1
        assert reordered >= 30

    def test_solutions_are_sorted_back_into_declaration_order(self):
        # h is declared last and searched first; each x = f(h, h) = h + 1
        # mod 3, so the search finds h = 0, 1, 2 while x0 reads 1, 2, 0
        carrier = ("0", "1", "2")
        table = {("g", (c,)): c for c in carrier}
        table.update({("f", (c, d)): str((int(c) + 1) % 3) for c in carrier for d in carrier})
        a = FinAlgebra(self.SIG, carrier, table)
        xs = [f"x{i}" for i in range(5)]
        b = FinCoalgebra(self.SIG, (*xs, "h"), {**{x: ("f", ("h", "h")) for x in xs}, "h": ("g", ("h",))})
        assert naive_narrowed_space(b, a) > SEARCH_ORDER_SPACE
        got = enumerate_hylo(b, a)
        assert got == [{**dict.fromkeys(xs, str(v)), "h": str((v - 1) % 3)} for v in range(3)]
        assert all(list(f) == list(b.states) for f in got)


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

    def test_matches_reachability_on_every_small_machine(self):
        for sig in cases.CARTESIAN_SIGS:
            for n in range(4):
                for b in all_coalgebras(sig, n):
                    assert is_wellfounded(b) == naive_wellfounded(b)

    def test_chains_and_rings_on_both_sides_of_word_states(self):
        # up to WORD_STATES the chain re-applies the operator to the whole
        # mask; past it, it drops the states whose predecessors are gone
        sizes = range(60, 71)
        assert {n > WORD_STATES for n in sizes} == {True, False}
        for n in sizes:
            for from_head in (False, True):
                chain = cases.chk_chain(n, from_head)
                ring = {**chain.step, f"s{n - 1}": ("chk", ("s0",))}
                lasso = {**chain.step, f"s{n - 1}": ("chk", (f"s{n // 2}",))}
                for step in (chain.step, ring, lasso):
                    b = FinCoalgebra(cases.CHK_NIL, chain.states, step)
                    assert is_wellfounded(b) == naive_wellfounded(b) == (step is chain.step)

    def test_long_chain_and_the_same_chain_closed(self):
        chain = cases.chk_chain(10**5)
        assert is_wellfounded(chain) is True
        closed = dict(chain.step, s99999=("chk", ("s0",)))
        assert is_wellfounded(FinCoalgebra(cases.CHK_NIL, chain.states, closed)) is False


class TestRecursivity:
    def test_acyclic_machine_unique_against_all_small_algebras(self):
        b = cases.acyclic_pq()
        assert all(len(enumerate_hylo(b, a)) == 1 for a in all_algebras(cases.CS, 1))
        assert all(len(enumerate_hylo(b, a)) == 1 for a in all_algebras(cases.CS, 2))

    def test_loops_fail_against_flip(self):
        assert len(enumerate_hylo(cases.chk_loop(), cases.flip_algebra())) != 1
        assert len(enumerate_hylo(cases.cross_loop(), cases.flip_algebra())) != 1


class TestMorphismComposition:
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
        # one algebra on one element, but its p-row key holds 10^9 cells
        with pytest.raises(BudgetExceeded) as err:
            count_algebras(sig, 1)
        assert err.value.required == 1 + 10**9
        assert count_algebras(sig, 1, budget=1 + 10**9) == 1
        # 2^(10^9) rows are refused from the saturated power
        with pytest.raises(BudgetExceeded) as err:
            count_algebras(sig, 2, budget=1 + 10**9)
        assert err.value.required == 2 + 10**9

    def test_deterministic_order(self):
        first = [a.table for a in all_algebras(cases.UNARY, 2)]
        second = [a.table for a in all_algebras(cases.UNARY, 2)]
        assert first == second

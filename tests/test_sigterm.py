"""Terms, parsing, and the ground congruence word problem."""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relfix.errors import ArityMismatch, DepthLimit, ParseError, UnknownSymbol
from relfix.sigterm import (
    CongruenceClosure,
    EquationSet,
    Signature,
    app,
    congruence_decide,
    parse_term,
    term_store_size,
    validate_term,
    var,
)

from oracles import naive_congruence_decide, naive_variables, rewrite_reachable, substitute

UNARY = Signature((("chk", 1), ("cross", 1)))
BINARY = Signature((("cross", 2), ("chk", 2)))
MIXED = Signature((("f", 2), ("g", 1), ("c", 0)))


def binary_eqs():
    """Three mutually recursive states over two binary symbols."""
    q0, q1, q2 = var("q0"), var("q1"), var("q2")
    return EquationSet(
        BINARY,
        (
            (q0, app("cross", (q1, q2))),
            (q1, app("cross", (q0, q1))),
            (q2, app("chk", (q2, q2))),
        ),
    )


class TestSignature:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Signature(())

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            Signature((("f", 1), ("f", 2)))

    def test_negative_arity_rejected(self):
        with pytest.raises(ValueError):
            Signature((("f", -1),))

    def test_arity_lookup(self):
        assert MIXED.arity("f") == 2
        assert "g" in MIXED
        with pytest.raises(UnknownSymbol):
            MIXED.arity("h")


class TestTermStore:
    def test_identical_builds_share_identity(self):
        a = app("f", (var("x"), app("c")))
        b = app("f", (var("x"), app("c")))
        assert a is b

    def test_store_growth_is_bounded_by_distinct_subterms(self):
        before = term_store_size()
        for _ in range(5):
            app("g", (app("g", (var("fresh_store_probe"),)),))
        # one new variable and two new applications at most
        assert term_store_size() - before <= 3

    def test_depth_limit(self):
        t = app("c")
        for _ in range(10_000):
            t = app("f", (t,))
        with pytest.raises(DepthLimit):
            app("f", (t,))

    def test_text_rendering(self):
        t = app("f", (var("x"), app("c")))
        assert str(t) == "f(x,c())"
        assert str(var("y")) == "y"

    def test_variables_in_occurrence_order(self):
        t = app("f", (var("b"), app("g", (var("a"),))))
        assert t.variables() == ("b", "a")

    def test_substitute(self):
        t = app("g", (var("x"),))
        # rebuilt through app, a substituted term is the interned one
        assert substitute(t, {"x": app("c")}, app) is app("g", (app("c"),))
        assert substitute(t, {"y": app("c")}, app) is t


class TestParse:
    def test_roundtrip(self):
        t = parse_term(MIXED, "f(g(x),c)")
        assert t is app("f", (app("g", (var("x"),)), app("c")))
        assert parse_term(MIXED, str(t)) is t

    def test_whitespace_insensitive(self):
        assert parse_term(MIXED, " f( g ( x ) ,\tc ) ") is parse_term(MIXED, "f(g(x),c)")

    def test_bare_identifier_is_variable_unless_declared(self):
        assert parse_term(MIXED, "q").is_var
        assert not parse_term(MIXED, "c").is_var

    def test_explicit_nullary_parentheses(self):
        assert parse_term(MIXED, "c()") is parse_term(MIXED, "c")

    @pytest.mark.parametrize(
        "text,offset",
        [
            ("f(", 2),
            ("f(x", 3),
            ("f(x,,y)", 4),
            ("f(x)extra", 4),
            (")", 0),
            ("", 0),
            ("f(x;y)", 3),
        ],
    )
    def test_error_offsets(self, text, offset):
        with pytest.raises(ParseError) as err:
            parse_term(MIXED, text)
        assert err.value.offset == offset

    def test_validation_failures(self):
        assert parse_term(UNARY, "chk(cross(q))") is not None
        with pytest.raises(ArityMismatch) as err:
            parse_term(UNARY, "chk(q,q)")
        assert (err.value.expected, err.value.got) == (1, 2)
        with pytest.raises(UnknownSymbol):
            parse_term(UNARY, "or(q)")

    def test_validate_term_direct(self):
        validate_term(UNARY, app("chk", (var("q"),)))
        with pytest.raises(ArityMismatch):
            validate_term(UNARY, app("chk", ()))


class TestCongruence:
    def test_generated_equality(self):
        eqs = binary_eqs()
        lhs = var("q0")
        rhs = parse_term(BINARY, "cross(cross(q0,q1),chk(q2,q2))")
        assert congruence_decide(eqs, lhs, rhs) is True
        # the naive fixpoint oracle and a three-step rewrite agree
        assert naive_congruence_decide(eqs, lhs, rhs) is True
        assert rhs in rewrite_reachable(eqs, lhs, 4, app)

    def test_distinct_states_stay_distinct(self):
        eqs = binary_eqs()
        assert congruence_decide(eqs, var("q0"), var("q1")) is False
        assert naive_congruence_decide(eqs, var("q0"), var("q1")) is False

    def test_reflexive_without_equations(self):
        eqs = EquationSet(MIXED, ())
        t = parse_term(MIXED, "f(g(x),c)")
        assert congruence_decide(eqs, t, t) is True
        assert congruence_decide(eqs, var("a"), var("b")) is False

    def test_classes_partition(self):
        eqs = binary_eqs()
        terms = [var("q0"), var("q1"), var("q2"), parse_term(BINARY, "chk(q2,q2)")]
        classes = CongruenceClosure(eqs).classes(terms)
        assert [[str(t) for t in c] for c in classes] == [["q0"], ["q1"], ["q2", "chk(q2,q2)"]]

    def test_unfolding_chain_collapses(self):
        eqs = EquationSet(MIXED, ((var("x"), app("g", (var("x"),))),))
        x = var("x")
        gx = app("g", (x,))
        ggx = app("g", (gx,))
        assert CongruenceClosure(eqs).classes([x, gx, ggx]) == [[x, gx, ggx]]

    def test_classes_deduplicate_repeated_inputs(self):
        eqs = EquationSet(MIXED, ())
        assert CongruenceClosure(eqs).classes([var("a"), var("a")]) == [[var("a")]]

    def test_deterministic_across_runs(self):
        eqs = binary_eqs()
        terms = [parse_term(BINARY, s) for s in ("q0", "q1", "chk(q2,q2)", "q2")]
        first = CongruenceClosure(eqs).classes(terms)
        second = CongruenceClosure(eqs).classes(terms)
        assert first == second


def merge_chain(n: int, reversed_merges: bool) -> EquationSet:
    """u_i = h(v_i) for i <= n, then v_i = v_(i+1) for i < n.

    Merged in reverse, each new equation joins the growing class of v's
    into an older singleton; moving the growing use list every time would
    cost a quadratic number of re-keyings.
    """
    v = [var(f"mv{i}") for i in range(n + 1)]
    u = [var(f"mu{i}") for i in range(n + 1)]
    merges = [(v[i], v[i + 1]) for i in range(n)]
    if reversed_merges:
        merges.reverse()
    eqs = [(u[i], app("h", (v[i],))) for i in range(n + 1)]
    return EquationSet(Signature((("h", 1),)), tuple(eqs + merges))


class TestCongruenceWork:
    @pytest.mark.parametrize("reversed_merges", [False, True])
    def test_merge_chain_work_is_n_log_n(self, monkeypatch, reversed_merges):
        n = 1000
        eqs = merge_chain(n, reversed_merges)
        calls = 0
        find = CongruenceClosure._find

        def counting_find(self, i):
            nonlocal calls
            calls += 1
            return find(self, i)

        monkeypatch.setattr(CongruenceClosure, "_find", counting_find)
        cc = CongruenceClosure(eqs)
        assert calls <= 4 * n * math.log2(n)
        monkeypatch.undo()
        assert cc.equal(var("mu0"), var(f"mu{n}"))
        assert not cc.equal(var("mu0"), var("mv0"))


# random flat systems over MIXED, shared by the property tests below
_vars = st.sampled_from(["x0", "x1", "x2", "x3"])


def _terms(max_depth: int):
    leaf = _vars.map(var) | st.just(app("c"))
    return st.recursive(
        leaf,
        lambda sub: st.builds(lambda a: app("g", (a,)), sub)
        | st.builds(lambda a, b: app("f", (a, b)), sub, sub),
        max_leaves=6,
    )


_eq_systems = st.lists(st.tuples(_vars.map(var), _terms(3)), max_size=4).map(
    lambda eqs: EquationSet(MIXED, tuple(eqs))
)


# binary nodes that repeat one argument share that subterm in the store
_shared_terms = st.recursive(
    _vars.map(var) | st.just(app("c")),
    lambda sub: st.builds(lambda a: app("g", (a,)), sub)
    | st.builds(lambda a, b: app("f", (a, b)), sub, sub)
    | st.builds(lambda a: app("f", (a, a)), sub),
    max_leaves=12,
)


@settings(max_examples=100, deadline=None)
@given(_shared_terms)
def test_variables_match_naive_walk(t):
    assert t.variables() == naive_variables(t)


class TestCongruenceProperties:
    @settings(max_examples=80, deadline=None)
    @given(_eq_systems, _terms(3), _terms(3))
    def test_agrees_with_naive_oracle(self, eqs, s, t):
        assert congruence_decide(eqs, s, t) == naive_congruence_decide(eqs, s, t)

    @settings(max_examples=50, deadline=None)
    @given(_eq_systems)
    def test_equations_hold(self, eqs):
        cc = CongruenceClosure(eqs)
        for lhs, rhs in eqs.equations:
            assert cc.equal(lhs, rhs)

    @settings(max_examples=50, deadline=None)
    @given(_eq_systems, _terms(2), _terms(2), _terms(2))
    def test_equivalence_laws(self, eqs, s, t, u):
        cc = CongruenceClosure(eqs)
        assert cc.equal(s, s)
        assert cc.equal(s, t) == cc.equal(t, s)
        if cc.equal(s, t) and cc.equal(t, u):
            assert cc.equal(s, u)

    @settings(max_examples=50, deadline=None)
    @given(_eq_systems, _terms(2), _terms(2), _terms(2), _terms(2))
    def test_congruence_rule(self, eqs, s1, t1, s2, t2):
        cc = CongruenceClosure(eqs)
        if cc.equal(s1, t1) and cc.equal(s2, t2):
            assert cc.equal(app("f", (s1, s2)), app("f", (t1, t2)))
            assert cc.equal(app("g", (s1,)), app("g", (t1,)))

    @settings(max_examples=30, deadline=None)
    @given(_eq_systems, _terms(2), st.integers(0, 2))
    def test_rewrites_stay_in_class(self, eqs, t, steps):
        cc = CongruenceClosure(eqs)
        for u in rewrite_reachable(eqs, t, steps, app):
            assert cc.equal(t, u)

    @settings(max_examples=60, deadline=None)
    @given(_eq_systems, st.lists(_terms(2), max_size=6), st.data())
    def test_equation_order_does_not_matter(self, eqs, terms, data):
        """Reordering the equations, and swapping their sides, changes which
        classes merge into which but not the partition."""
        shuffled = data.draw(st.permutations(eqs.equations))
        flips = data.draw(st.lists(st.booleans(), min_size=len(shuffled), max_size=len(shuffled)))
        other = EquationSet(
            eqs.sig, tuple((r, l) if flip else (l, r) for (l, r), flip in zip(shuffled, flips))
        )
        assert CongruenceClosure(other).classes(terms) == CongruenceClosure(eqs).classes(terms)
        for s in terms:
            for t in terms:
                assert congruence_decide(other, s, t) == congruence_decide(eqs, s, t)

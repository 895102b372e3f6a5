"""The acceptance gate: nine end-to-end guarantees, one test per criterion.

Run `pytest tests/test_acceptance.py -v` for one pass/fail line per criterion;
add -s to also see each criterion's runtime.  All checks are exact; the only
tolerance anywhere is the 1e-12 slack allowed on the metric comparison.
"""
from __future__ import annotations

import random
import time
from fractions import Fraction

from cases import CARTESIAN_SIGS, UNARY, flip_algebra, three_state_automaton
from gen import (
    random_algebra,
    random_flat_system,
    random_machine,
    random_term,
    random_transition_system,
)
from oracles import (
    bfs_reachable,
    cell_of_point,
    cycle_marking_exists,
    naive_congruence_decide,
    naive_next_time_fixed_points,
)
from relfix.finstruct import (
    all_algebras,
    all_coalgebras,
    enumerate_hylo,
    is_wellfounded,
)
from relfix.fractal import (
    EDGES,
    BoundaryPoint,
    approximant,
    carpet_member,
    d_path,
    d_taxicab,
    render,
)
from relfix.lattice import MonotoneOp, f_apply, galois_check, safety_check
from relfix.mu import mu_equal, mu_hom_count
from relfix.nu import classify_cartesian, count_coalg_homs_to_nu
from relfix.sigterm import EquationSet, Signature, congruence_decide, parse_term


def _report(label: str, t0: float) -> None:
    print(f"criterion {label}: PASS ({time.perf_counter() - t0:.3f}s)")


# Shared corpus for criteria 1-3: 500 seeded systems with at most 6 states,
# each with its operator and the exhaustive lists of post- and pre-fixed
# subsets (computed over all 2^n subsets with the operator itself).
_corpus_cache = None


def corpus():
    global _corpus_cache
    if _corpus_cache is None:
        entries = []
        for seed in range(500):
            rng = random.Random(seed)
            ts = random_transition_system(rng, max_states=6)
            op = MonotoneOp.from_transition_system(ts)
            n = len(ts.states)
            post, pre = [], []
            for mask in range(1 << n):
                image = op.apply_mask(mask)
                if mask & ~image == 0:
                    post.append(op.set_of(mask))
                if image & ~mask == 0:
                    pre.append(op.set_of(mask))
            entries.append((ts, op, post, pre))
        _corpus_cache = entries
    return _corpus_cache


def test_criterion_1_galois_connection():
    t0 = time.perf_counter()
    pairs = 0
    for _, op, post, pre in corpus():
        for i_set in post:
            for p_set in pre:
                assert galois_check(op, i_set, p_set)
                pairs += 1
    assert pairs > 0
    _report("1/9 galois connection", t0)


def test_criterion_2_fixed_point_law():
    t0 = time.perf_counter()
    for _, op, post, pre in corpus():
        for i_set in post:
            least = op.set_of(op.mu_post_mask(op.mask_of(i_set)))
            assert f_apply(op, least) == least
        for p_set in pre:
            greatest = op.set_of(op.nu_pre_mask(op.mask_of(p_set)))
            assert f_apply(op, greatest) == greatest
    _report("2/9 fixed-point law", t0)


def test_criterion_3_safety_algorithm():
    t0 = time.perf_counter()
    for ts, _, _, _ in corpus():
        oracle_safe = bfs_reachable(ts.delta, ts.init) <= ts.safe
        assert safety_check(ts).is_safe == oracle_safe
    _report("3/9 safety algorithm", t0)


WORD_SIGS = [
    Signature((("c", 0), ("s", 2))),
    Signature((("c", 0), ("g", 1))),
    Signature((("c", 0), ("g", 1), ("f", 2))),
    Signature((("f", 2), ("g", 1))),
]


def test_criterion_4_word_problem():
    t0 = time.perf_counter()
    for i in range(200):
        rng = random.Random(1000 + i)
        sig = WORD_SIGS[i % len(WORD_SIGS)]
        names, flat = random_flat_system(rng, sig, max_states=5)
        eqs = EquationSet(sig, tuple(flat))
        for _ in range(5):
            s = random_term(rng, sig, names, rng.randint(0, 4))
            t = random_term(rng, sig, names, rng.randint(0, 4))
            assert congruence_decide(eqs, s, t) == naive_congruence_decide(eqs, s, t)
    automaton = three_state_automaton()
    lhs = parse_term(automaton.sig, "q0")
    rhs = parse_term(automaton.sig, "cross(cross(q0,q1),chk(q2,q2))")
    assert mu_equal(automaton, lhs, rhs)
    _report("4/9 word problem", t0)


def test_criterion_5_adjunction_cardinalities():
    t0 = time.perf_counter()
    for i in range(200):
        rng = random.Random(2000 + i)
        sig = WORD_SIGS[i % len(WORD_SIGS)]
        coalg = random_machine(rng, sig, rng.randint(1, 5))
        alg = random_algebra(rng, sig, rng.randint(1, 3))
        through_squares = len(enumerate_hylo(coalg, alg))
        through_trees = count_coalg_homs_to_nu(coalg, alg)  # raises on mismatch
        through_quotient = mu_hom_count(coalg, alg)
        assert through_squares == through_trees == through_quotient
    _report("5/9 adjunction cardinalities", t0)


RECURSIVE_SIGS = [
    Signature((("c", 0),)),
    Signature((("c", 0), ("g", 1))),
    Signature((("g", 1), ("h", 1))),
    Signature((("c", 0), ("s", 2))),
]


def test_criterion_6_recursivity():
    t0 = time.perf_counter()
    acyclic_seen = 0
    for sig in RECURSIVE_SIGS:
        algebras = list(all_algebras(sig, 1)) + list(all_algebras(sig, 2))
        for n in range(5):
            for coalg in all_coalgebras(sig, n):
                if not is_wellfounded(coalg):
                    continue
                acyclic_seen += 1
                for alg in algebras:
                    assert len(enumerate_hylo(coalg, alg)) == 1
    assert acyclic_seen > 900  # the sweep is not vacuous

    # every machine over two unary symbols loops, and some two-point algebra
    # then breaks uniqueness: zero solutions on an odd cycle, two on an even
    algebras = list(all_algebras(UNARY, 1)) + list(all_algebras(UNARY, 2))
    cyclic_seen = 0
    for n in range(1, 4):
        for coalg in all_coalgebras(UNARY, n):
            assert not is_wellfounded(coalg)
            cyclic_seen += 1
            assert any(len(enumerate_hylo(coalg, alg)) != 1 for alg in algebras)
    assert cyclic_seen == 2 + 16 + 216
    _report("6/9 recursivity", t0)


def test_criterion_7_parity_law():
    t0 = time.perf_counter()
    flip = flip_algebra()
    for seed in range(1000):
        rng = random.Random(3000 + seed)
        coalg = random_machine(rng, UNARY, rng.randint(1, 6))
        nonempty = len(enumerate_hylo(coalg, flip)) > 0
        assert nonempty == cycle_marking_exists(coalg, "chk")
    _report("7/9 parity law", t0)


def test_criterion_8_cartesian_classification():
    t0 = time.perf_counter()
    for sig in CARTESIAN_SIGS:
        for n in range(5):
            for i, coalg in enumerate(all_coalgebras(sig, n)):
                pairs = classify_cartesian(coalg)  # raises on any mismatch
                # independent recount of the fixed-point side on a stride
                if i % 97 == 0:
                    assert {frozenset(p) for p, _ in pairs} == set(
                        naive_next_time_fixed_points(coalg)
                    )
    for i in range(500):
        rng = random.Random(4000 + i)
        sig = CARTESIAN_SIGS[rng.randrange(len(CARTESIAN_SIGS))]
        coalg = random_machine(rng, sig, 5)
        pairs = classify_cartesian(coalg)
        assert {frozenset(p) for p, _ in pairs} == set(
            naive_next_time_fixed_points(coalg)
        )
    _report("8/9 cartesian classification", t0)


def test_criterion_9_carpet_approximants():
    t0 = time.perf_counter()
    for d in range(7):
        assert len(approximant(d)) == 8**d

    # digit-style membership against subdivision containment, all pixel centers
    for d in range(5):
        cells = approximant(d).cells
        side = 3**d
        for col in range(side):
            x = Fraction(2 * col + 1, 2 * side)
            for row in range(side):
                y = Fraction(2 * row + 1, 2 * side)
                assert carpet_member(x, y, d) == (cell_of_point(x, y, d) in cells)

    pixels = render(1, 3)
    assert pixels == bytes([0, 0, 0, 0, 255, 0, 0, 0, 0])
    assert sum(1 for b in pixels if b == 0) == 8

    rng = random.Random(9)
    slack = Fraction(1, 10**12)
    for _ in range(10**4):
        p = BoundaryPoint(EDGES[rng.randrange(4)], Fraction(rng.randrange(10**6), 10**6))
        q = BoundaryPoint(EDGES[rng.randrange(4)], Fraction(rng.randrange(10**6), 10**6))
        assert d_taxicab(p, q) <= d_path(p, q) + slack
    _report("9/9 carpet approximants", t0)

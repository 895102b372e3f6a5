"""The least solution of a machine, presented by generators and relations.

A machine b with states B presents a quotient of the terms over B by the
congruence generated by x = step(x) for every state.  Equality in that
quotient is a ground word problem, so it is decided by congruence closure;
maps out of the quotient into an algebra correspond exactly to solutions of
the recursion square, which gives the hom-count below.
"""
from __future__ import annotations

from typing import Mapping

from .errors import DEFAULT_BUDGET, UnboundVariable
from .finstruct import (
    CaMorphism,
    FinAlgebra,
    FinCoalgebra,
    enumerate_hylo,
    eval_term,
)
from .sigterm import (
    CongruenceClosure,
    EquationSet,
    Term,
    substitute,
    validate_term,
    var,
)


def mu_presentation(coalg: FinCoalgebra) -> EquationSet:
    """The relations x = step(x) of the least solution, one per state."""
    return EquationSet(
        coalg.sig,
        tuple((var(x), coalg.step_term(x)) for x in coalg.states),
    )


def _check_term_over(coalg: FinCoalgebra, t: Term) -> None:
    validate_term(coalg.sig, t)
    states = set(coalg.states)
    for name in t.variables():
        if name not in states:
            raise UnboundVariable(name)


def mu_equal(coalg: FinCoalgebra, s: Term, t: Term) -> bool:
    """Are s and t identified in the presented quotient?"""
    return _presented_equal(coalg, s, t, None)


def _presented_equal(
    coalg: FinCoalgebra, s: Term, t: Term, eqs: EquationSet | None
) -> bool:
    """`mu_equal`, closing `eqs` when the caller has already built coalg's
    presentation.  The terms are checked before any presentation or closure
    work."""
    _check_term_over(coalg, s)
    _check_term_over(coalg, t)
    if eqs is None:
        eqs = mu_presentation(coalg)
    return CongruenceClosure(eqs).equal(s, t)


def unfold_once(coalg: FinCoalgebra, t: Term) -> Term:
    """Replace every state variable in t by its flat successor term."""
    _check_term_over(coalg, t)
    return substitute(t, {x: coalg.step_term(x) for x in coalg.states})


def mu_hom_count(
    coalg: FinCoalgebra, alg: FinAlgebra, budget: int = DEFAULT_BUDGET
) -> int:
    """Number of algebra maps out of the presented quotient, counted through
    the one-to-one correspondence with solutions of the square."""
    return len(enumerate_hylo(coalg, alg, budget))


def mu_soundness_check(
    coalg: FinCoalgebra,
    alg: FinAlgebra,
    f: Mapping[str, str],
    s: Term,
    t: Term,
) -> bool:
    """Identified terms evaluate equally under any solution f; returns that
    comparison, which the library promises to be true."""
    f = CaMorphism(coalg, alg, f).mapping
    if not mu_equal(coalg, s, t):
        raise ValueError("the two terms are not identified by the presentation")
    return eval_term(alg, f, s) == eval_term(alg, f, t)

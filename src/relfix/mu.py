"""The least solution of a machine, presented by generators and relations.

A machine b with states B presents a quotient of the terms over B by the
congruence generated by x = step(x) for every state.  Equality in that
quotient is a ground word problem, decided by congruence closure over the
machine's flat rows: state i is node i and each step a row over state
nodes, so only the two query terms are walked as terms.  Maps out of the
quotient into an algebra correspond exactly to solutions of the recursion
square, which gives the hom-count below.
"""
from __future__ import annotations

from .errors import DEFAULT_BUDGET, UnboundVariable
from .finstruct import FinAlgebra, FinCoalgebra, enumerate_hylo
from .sigterm import CongruenceClosure, Term, validate_term


def _check_term_over(coalg: FinCoalgebra, t: Term) -> None:
    validate_term(coalg.sig, t)
    for name in t.variables():
        if name not in coalg.step:  # keyed by the states
            raise UnboundVariable(name)


def mu_equal(coalg: FinCoalgebra, s: Term, t: Term) -> bool:
    """Are s and t identified in the presented quotient?  Both terms are
    checked before any row is built; no term is interned."""
    _check_term_over(coalg, s)
    _check_term_over(coalg, t)
    cc = CongruenceClosure()
    node = {x: cc.atom(x) for x in coalg.states}
    for x, (op, args) in coalg.step.items():
        cc.merge(node[x], cc.row(op, tuple([node[y] for y in args])))
    return cc.equal(s, t)


def mu_hom_count(
    coalg: FinCoalgebra, alg: FinAlgebra, budget: int = DEFAULT_BUDGET
) -> int:
    """Number of algebra maps out of the presented quotient, counted through
    the one-to-one correspondence with solutions of the square."""
    return len(enumerate_hylo(coalg, alg, budget))

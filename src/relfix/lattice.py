"""Monotone operators on finite powerset lattices and the safety check.

Subsets are bitmasks over the declared state order (Python integers, so any
state count works; up to 64 states this is a single machine word).  The
least solution above a post-fixed start and the greatest solution below a
pre-fixed start are both read from one chain of iterates F^n(start), which
stabilizes within |S| steps.  The safety check runs the two chains in
lockstep and reports the first inclusion that fails.  Every operator is the
successor image of a relation; it preserves unions, so it has a right
adjoint, the next-time operator `box_mask`.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .errors import NotPostFixed, NotPreFixed


@dataclass(frozen=True)
class TransitionSystem:
    """States, successor relation, initial states, and safe states."""

    states: tuple[str, ...]
    delta: dict[str, frozenset[str]]
    init: frozenset[str]
    safe: frozenset[str]

    def __post_init__(self):
        states = tuple(self.states)
        object.__setattr__(self, "states", states)
        state_set = set(states)
        if len(state_set) != len(states):
            raise ValueError("duplicate state names")
        norm: dict[str, frozenset[str]] = {}
        for x, succs in self.delta.items():
            if x not in state_set:
                raise ValueError(f"delta defined on non-state '{x}'")
            succs = frozenset(succs)
            if not succs <= state_set:
                raise ValueError(f"delta of '{x}' leaves the state set")
            norm[x] = succs
        for x in states:
            norm.setdefault(x, frozenset())
        object.__setattr__(self, "delta", norm)
        for field_name in ("init", "safe"):
            value = frozenset(getattr(self, field_name))
            if not value <= state_set:
                raise ValueError(f"{field_name} contains non-states")
            object.__setattr__(self, field_name, value)


class MonotoneOp:
    """The successor image of a relation on a fixed finite state set:
    F(X) = union of successors over X.  It preserves unions, so it is
    monotone and has a right adjoint, `box_mask`."""

    def __init__(self, states: Iterable[str], successors: Mapping[str, Iterable[str]]):
        self.states = tuple(states)
        self._index = {s: i for i, s in enumerate(self.states)}
        self._succ_masks = [self.mask_of(successors[x]) for x in self.states]
        # galois_check repeats each start mask over every pre-fixed partner
        self._mu_cache: dict[int, int] = {}
        self._nu_cache: dict[int, int] = {}

    @classmethod
    def from_transition_system(cls, ts: TransitionSystem) -> "MonotoneOp":
        return cls(ts.states, ts.delta)

    def mask_of(self, subset: Iterable[str]) -> int:
        m = 0
        for s in subset:
            if s not in self._index:
                raise ValueError(f"'{s}' is not a state")
            m |= 1 << self._index[s]
        return m

    def set_of(self, mask: int) -> frozenset[str]:
        return frozenset(s for i, s in enumerate(self.states) if mask >> i & 1)

    def apply_mask(self, mask: int) -> int:
        out = 0
        rest = mask
        while rest:
            low = rest & -rest
            out |= self._succ_masks[low.bit_length() - 1]
            rest ^= low
        return out

    def box_mask(self, mask: int) -> int:
        """The right adjoint of apply_mask: the states whose successors all
        lie in mask, so apply_mask(x) <= u exactly when x <= box_mask(u)."""
        out = 0
        for i, need in enumerate(self._succ_masks):
            if need | mask == mask:
                out |= 1 << i
        return out

    def _min_state(self, mask: int) -> str:
        return self.states[(mask & -mask).bit_length() - 1]

    def chain(self, mask: int, upward: bool) -> Iterator[int]:
        """The iterates F^0(mask), F^1(mask), ... up to the first one F fixes.
        Upward, mask must be post-fixed (else NotPostFixed) and they climb to
        the least fixed point above it; downward, pre-fixed (else NotPreFixed)
        and they descend to the greatest fixed point below it.  The start is
        checked when the first iterate is asked for."""
        image = self.apply_mask(mask)
        stray = mask & ~image if upward else image & ~mask
        if stray:
            raise (NotPostFixed if upward else NotPreFixed)(self._min_state(stray))
        while True:
            yield mask
            if image == mask:
                return
            mask, image = image, self.apply_mask(image)

    def mu_post_mask(self, mask: int) -> int:
        if mask not in self._mu_cache:
            *_, self._mu_cache[mask] = self.chain(mask, True)
        return self._mu_cache[mask]

    def nu_pre_mask(self, mask: int) -> int:
        if mask not in self._nu_cache:
            *_, self._nu_cache[mask] = self.chain(mask, False)
        return self._nu_cache[mask]


def f_apply(op: MonotoneOp, subset: Iterable[str]) -> frozenset[str]:
    """One application of the operator."""
    return op.set_of(op.apply_mask(op.mask_of(subset)))


def mu_post(op: MonotoneOp, start: Iterable[str]) -> frozenset[str]:
    """Least fixed point above a post-fixed start, by the upward chain."""
    return op.set_of(op.mu_post_mask(op.mask_of(start)))


def nu_pre(op: MonotoneOp, start: Iterable[str]) -> frozenset[str]:
    """Greatest fixed point below a pre-fixed start, by the downward chain."""
    return op.set_of(op.nu_pre_mask(op.mask_of(start)))


def galois_check(op: MonotoneOp, post_start: Iterable[str], pre_start: Iterable[str]) -> bool:
    """mu_post(I) below P exactly when I below nu_pre(P); always true."""
    i_mask = op.mask_of(post_start)
    p_mask = op.mask_of(pre_start)
    lhs = op.mu_post_mask(i_mask) & ~p_mask == 0
    rhs = i_mask & ~op.nu_pre_mask(p_mask) == 0
    return lhs == rhs


def random_system(rng: random.Random, max_states: int, density: float) -> TransitionSystem:
    """A seeded random system on 1..max_states states, each edge present with
    probability `density`; init is shrunk until post-fixed and safe grown
    until pre-fixed, so both chain preconditions hold."""
    n = rng.randrange(1, max_states + 1)
    states = tuple(f"s{i}" for i in range(n))
    delta = {
        x: frozenset(y for y in states if rng.random() < density) for x in states
    }
    op = MonotoneOp(states, delta)
    init = op.mask_of(x for x in states if rng.random() < 0.5)
    while init & ~op.apply_mask(init):
        init &= op.apply_mask(init)
    safe = op.mask_of(x for x in states if rng.random() < 0.5)
    while op.apply_mask(safe) & ~safe:
        safe |= op.apply_mask(safe)
    return TransitionSystem(states, delta, op.set_of(init), op.set_of(safe))


UNSAFE_FORWARD = "F^n(I) ⊄ P"
UNSAFE_BACKWARD = "I ⊄ F^n(P)"


@dataclass(frozen=True)
class SafetyVerdict:
    result: str  # "safe" | "unsafe"
    stage: int
    side: str | None = None
    witness: str | None = None

    @property
    def is_safe(self) -> bool:
        return self.result == "safe"


def safety_check(ts: TransitionSystem) -> SafetyVerdict:
    """Unfold the reach chain from init and the trim chain from safe together.

    Requires init post-fixed and safe pre-fixed, checked in that order.
    Stops Unsafe at the first failed inclusion, Safe as soon as either chain
    stabilizes.
    """
    op = MonotoneOp.from_transition_system(ts)
    i_mask = op.mask_of(ts.init)
    p_mask = op.mask_of(ts.safe)
    chains = zip(op.chain(i_mask, True), op.chain(p_mask, False))
    for stage, (reach, trim) in enumerate(chains):
        out = reach & ~p_mask
        if out:
            return SafetyVerdict("unsafe", stage, UNSAFE_FORWARD, op._min_state(out))
        out = i_mask & ~trim
        if out:
            return SafetyVerdict("unsafe", stage, UNSAFE_BACKWARD, op._min_state(out))
    return SafetyVerdict("safe", stage)

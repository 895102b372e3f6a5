"""Monotone operators on finite powerset lattices and the safety check.

Subsets are bitmasks over the declared state order (Python integers, so any
state count works).  The least solution above a post-fixed start and the
greatest solution below a pre-fixed start are both read from one chain of
iterates F^n(start), which stabilizes within |S| steps.  The safety check
runs the two chains in lockstep; its verdict is decided at stage 0.
Every operator is the successor image of a relation; it preserves unions, so
it has a right adjoint, the next-time operator `box_mask`.

Up to WORD_STATES (64) states each stage re-applies F to the whole mask, a
few ORs of small ints.  Past it, `MonotoneOp` holds one flat list of successor
ids, state i's row being succ[at[i]:at[i + 1]], and each stage touches only
the states that changed: upward, it ORs in the successors of the states
reached last; downward, it keeps each state's count of predecessors inside
the mask and drops the states whose count reaches 0.  A chain then visits each
edge O(1) times, and masks are read and built in O(n) through bin() and int(_, 2).
"""
from __future__ import annotations

import random
from itertools import accumulate, chain, compress, count
from typing import Collection, Iterable, Iterator, Mapping

from .errors import NotPostFixed, NotPreFixed, Record

# Up to this many states, chains re-apply F to the whole mask; past it, they
# advance by their frontier.  Timing both chains of the safety check on 40
# sparse random systems plus a lockstep system per size, the whole-mask
# chains are ahead at 32 states (1.24 vs 1.48 ms) and behind at 64 (2.73 vs
# 2.16 ms) and 150 (9.3 vs 3.8 ms) on a 2-core machine, Python 3.11.7.  The
# crossover lies between 32 and 64; the benchmark's systems have at most 16
# states or at least 150, so any value in between runs them the same way.
WORD_STATES = 64

# Below this many indices, _mask_of_indices shifts each bit in rather than
# making one O(n) pass over flags.  On the same machine, shifting in 64
# random indices takes 5.1 us against 2.7 us for the pass at 65 states, and
# 14 us against 57 us at 20,000 states.
_SHIFT_INDICES = 64


_DIGIT_TO_FLAG = bytes.maketrans(b"01", b"\0\1")
_FLAG_TO_DIGIT = bytes.maketrans(b"\0\1", b"01")


def _mask_of_flags(flags: bytearray) -> int:
    """The mask whose bit i is flags[i] (0 or 1), built through int(_, 2) in O(n)."""
    return int(flags[::-1].translate(_FLAG_TO_DIGIT), 2)


def _mask_of_indices(indices: list[int], n: int) -> int:
    """The mask with the given bits below n: by shifts while they are fewer
    than _SHIFT_INDICES, else by one O(n) pass over flags."""
    if len(indices) < _SHIFT_INDICES:
        m = 0
        for i in indices:
            m |= 1 << i
        return m
    flags = bytearray(n)
    for i in indices:
        flags[i] = 1
    return _mask_of_flags(flags)


class TransitionSystem(Record):
    """States, successor relation, initial states, and safe states."""

    __slots__ = _fields = ("states", "delta", "init", "safe")

    def __init__(self, states: tuple[str, ...], delta: dict[str, frozenset[str]],
                 init: frozenset[str], safe: frozenset[str]):
        states = tuple(states)
        object.__setattr__(self, "states", states)
        state_set = set(states)
        if len(state_set) != len(states):
            raise ValueError("duplicate state names")
        norm: dict[str, frozenset[str]] = {}
        for x, succs in delta.items():
            if x not in state_set:
                raise ValueError(f"delta defined on non-state '{x}'")
            succs = frozenset(succs)
            if not succs <= state_set:
                raise ValueError(f"delta of '{x}' leaves the state set")
            norm[x] = succs
        for x in states:
            norm.setdefault(x, frozenset())
        object.__setattr__(self, "delta", norm)
        for field_name, value in (("init", init), ("safe", safe)):
            value = frozenset(value)
            if not value <= state_set:
                raise ValueError(f"{field_name} contains non-states")
            object.__setattr__(self, field_name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.states, self.delta, self.init, self.safe) == (
            other.states, other.delta, other.init, other.safe
        )

    def __hash__(self) -> int:
        return hash((self.states, self.delta, self.init, self.safe))


class MonotoneOp:
    """The successor image of a relation on a fixed finite state set:
    F(X) = union of successors over X.  It preserves unions, so it is
    monotone and has a right adjoint, `box_mask`.  Successors are masks up to
    WORD_STATES states and flat rows past it (see the module docstring).
    The operator remembers, for its lifetime, the mask of each frozenset
    given to `mask_of` and the mu/nu limit of each start mask."""

    def __init__(self, states: Iterable[str], successors: Mapping[str, Collection[str]]):
        self.states = tuple(states)
        self._index = {s: i for i, s in enumerate(self.states)}
        self._wide = len(self.states) > WORD_STATES
        if self._wide:
            rows = [successors[x] for x in self.states]
            self._succ = self._positions(chain.from_iterable(rows))
            self._at = [0, *accumulate(map(len, rows))]
        else:
            # rows go around the memo, whose fill would cost each of the
            # 12,804 operators that sweep's cartesian families build per pass
            self._succ_masks = [self._mask_of(successors[x]) for x in self.states]
        # galois_check repeats each start over every partner of the other
        # kind: frozenset starts keep their masks, and masks their limits,
        # for the operator's lifetime
        self._masks: dict[frozenset, int] = {}
        self._mu_cache: dict[int, int] = {}
        self._nu_cache: dict[int, int] = {}

    @classmethod
    def from_transition_system(cls, ts: TransitionSystem) -> "MonotoneOp":
        return cls(ts.states, ts.delta)

    @classmethod
    def from_machine(cls, coalg) -> "MonotoneOp":
        """The successor image of a `FinCoalgebra`: each state's successors
        are the arguments of its step.  Next-time is its right adjoint."""
        return cls(coalg.states, {x: args for x, (_, args) in coalg.step.items()})

    def _positions(self, subset: Iterable[str]) -> list[int]:
        try:
            return list(map(self._index.__getitem__, subset))
        except KeyError as missing:
            raise ValueError(f"'{missing.args[0]}' is not a state") from None

    def _successor_ids(self, ids: list[int]) -> list[int]:
        """The rows of ids concatenated, the flat list itself for every state.
        Chain stages slice inline: a call per stage slowed lockstep by a fifth."""
        if len(ids) == len(self.states):
            return self._succ
        succ, at = self._succ, self._at
        return [j for i in ids for j in succ[at[i]:at[i + 1]]]

    def _flags(self, mask: int) -> bytearray:
        """Byte i is bit i of mask, for at least every state, read through
        bin() in O(n)."""
        flags = bytearray(bin(mask)[:1:-1], "ascii").translate(_DIGIT_TO_FLAG)
        if len(flags) < len(self.states):
            flags.extend(bytes(len(self.states) - len(flags)))
        return flags

    def mask_of(self, subset: Iterable[str]) -> int:
        # galois_check calls this twice per pair of starts: 583,460 calls on
        # 97,496 distinct starts in each pass of sweep's systems family, whose
        # pass went from 623-845 to 456-647 ms when frozensets were remembered
        # (six interleaved rounds on a 2-core host, Python 3.11.7).  Only
        # frozensets: other iterables are unhashable, would be hashed anew
        # (tuples) or kept alive by their identity (generators).
        if type(subset) is not frozenset:
            return self._mask_of(subset)
        mask = self._masks.get(subset)
        if mask is None:
            mask = self._masks[subset] = self._mask_of(subset)
        return mask

    def _mask_of(self, subset: Iterable[str]) -> int:
        """The mask of subset, refused by the first unknown state met.  Up to
        WORD_STATES states it shifts each bit in: going through index lists
        at every size took sweep's op_tail_ms from 2.1 to 3.2 ms and its
        ops_per_s down by a fifth."""
        if self._wide:
            return _mask_of_indices(self._positions(subset), len(self.states))
        index, m = self._index, 0
        try:
            for s in subset:
                m |= 1 << index[s]
        except KeyError as missing:
            raise ValueError(f"'{missing.args[0]}' is not a state") from None
        return m

    def set_of(self, mask: int) -> frozenset[str]:
        return frozenset(compress(self.states, self._flags(mask)))

    def apply_mask(self, mask: int) -> int:
        if self._wide:
            image = self._successor_ids(list(compress(count(), self._flags(mask))))
            return _mask_of_indices(image, len(self.states))
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
        if self._wide:
            inside, succ, at = self._flags(mask).__getitem__, self._succ, self._at
            return _mask_of_flags(bytearray(all(map(inside, succ[a:b])) for a, b in zip(at, at[1:])))
        out = 0
        for i, need in enumerate(self._succ_masks):
            if need | mask == mask:
                out |= 1 << i
        return out

    def box_fixed_masks(self) -> list[int]:
        """The masks m with box_mask(m) == m, in increasing order.

        box_mask is a right adjoint, so it preserves meets: box(m) =
        box(m | y) & box(full - y) for a state y outside m.  Filling from the
        full mask downward gives one AND per mask.  Meets also split the
        states into a low and a high half, box(lo | hi) = box(lo | high half)
        & box(low half | hi), so two tables of about 2^(n/2) entries give
        every image with one more AND."""
        n = len(self.states)
        full = (1 << n) - 1

        def downward(ys: range) -> list[int]:
            # entry j: box of the full mask less the states ys[i] with bit i of j clear
            table = [full]
            for y in ys:
                keep = self.box_mask(full ^ 1 << y)
                table = [b & keep for b in table] + table
            return table

        k = n // 2
        low, high = downward(range(k)), downward(range(k, n))
        return [
            m
            for base, high_box in zip(range(0, 1 << n, 1 << k), high)
            for m, low_box in enumerate(low, base)
            if low_box & high_box == m
        ]

    def _min_state(self, mask: int) -> str:
        return self.states[(mask & -mask).bit_length() - 1]

    def chain(self, mask: int, upward: bool) -> Iterator[int]:
        """The iterates F^0(mask), F^1(mask), ... up to the first one F fixes.
        Upward, mask must be post-fixed (else NotPostFixed) and they climb to
        the least fixed point above it; downward, pre-fixed (else NotPreFixed)
        and they descend to the greatest fixed point below it.  The start is
        checked when the first iterate is asked for."""
        if not self._wide:
            return self._word_chain(mask, upward)
        return (self._rising_chain if upward else self._falling_chain)(mask)

    def _word_chain(self, mask: int, upward: bool) -> Iterator[int]:
        image = self.apply_mask(mask)
        stray = mask & ~image if upward else image & ~mask
        if stray:
            raise (NotPostFixed if upward else NotPreFixed)(self._min_state(stray))
        while True:
            yield mask
            if image == mask:
                return
            mask, image = image, self.apply_mask(image)

    def _rising_chain(self, mask: int) -> Iterator[int]:
        """F preserves unions, so F(m | d) = m | F(d) for m = F(m - d): each
        stage ORs in only the successors of the states reached last."""
        succ, at, n = self._succ, self._at, len(self.states)
        inside = self._flags(mask)
        start = list(compress(count(), inside))
        image = bytearray(n)
        for j in self._successor_ids(start):
            image[j] = 1
        stray = next((i for i in start if not image[i]), None)
        if stray is not None:
            raise NotPostFixed(self.states[stray])
        yield mask
        reached = [j for j in compress(count(), image) if not inside[j]]
        while reached:
            for j in reached:
                inside[j] = 1
            mask |= _mask_of_indices(reached, n)
            yield mask
            reached = list(dict.fromkeys(j for i in reached for j in succ[at[i]:at[i + 1]] if not inside[j]))

    def _falling_chain(self, mask: int) -> Iterator[int]:
        """Each state counts its predecessors inside the current mask; a
        removed state decrements its successors' counts, and a state whose
        count reaches 0 leaves at the next stage.  Every edge is visited
        O(1) times over the whole chain."""
        succ, at, n = self._succ, self._at, len(self.states)
        inside = self._flags(mask)
        start = list(compress(count(), inside))
        preds = [0] * n
        for j in self._successor_ids(start):
            preds[j] += 1
        stray = next((j for j in compress(count(), preds) if not inside[j]), None)
        if stray is not None:
            raise NotPreFixed(self.states[stray])
        yield mask
        gone = [i for i in start if not preds[i]]
        while gone:
            mask ^= _mask_of_indices(gone, n)
            yield mask
            last, gone = gone, []
            for i in last:
                for j in succ[at[i]:at[i + 1]]:
                    preds[j] -= 1
                    if not preds[j]:
                        gone.append(j)

    def mu_post_mask(self, mask: int) -> int:
        limit = self._mu_cache.get(mask)
        if limit is None:
            for limit in self.chain(mask, True):
                pass  # each iterate replaces the last, so a long chain holds one mask
            self._mu_cache[mask] = limit
        return limit

    def nu_pre_mask(self, mask: int) -> int:
        limit = self._nu_cache.get(mask)
        if limit is None:
            for limit in self.chain(mask, False):
                pass
            self._nu_cache[mask] = limit
        return limit


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


class SafetyVerdict(Record):
    __slots__ = _fields = ("result", "stage", "side", "witness")

    def __init__(self, result: str, stage: int, side: str | None = None, witness: str | None = None):
        object.__setattr__(self, "result", result)  # "safe" | "unsafe"
        object.__setattr__(self, "stage", stage)
        object.__setattr__(self, "side", side)
        object.__setattr__(self, "witness", witness)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.result, self.stage, self.side, self.witness) == (
            other.result, other.stage, other.side, other.witness
        )

    def __hash__(self) -> int:
        return hash((self.result, self.stage, self.side, self.witness))

    @property
    def is_safe(self) -> bool:
        return self.result == "safe"


def safety_check(ts: TransitionSystem) -> SafetyVerdict:
    """Unfold the reach chain from init and the trim chain from safe together.

    Requires init post-fixed and safe pre-fixed, checked in that order.  The
    verdict is decided at stage 0: F is monotone, so I <= P gives F^n(I) <=
    F^n(P) <= P and I <= F^n(I) <= F^n(P), and no later inclusion can fail
    (mu_post(I) <= P iff I <= nu_pre(P) iff I <= P).  Safe reports the stage
    at which the first of the two chains stabilizes.
    """
    op = MonotoneOp.from_transition_system(ts)
    i_mask = op.mask_of(ts.init)
    p_mask = op.mask_of(ts.safe)
    chains = zip(op.chain(i_mask, True), op.chain(p_mask, False))
    next(chains)  # the starts: I post-fixed, then P pre-fixed
    out = i_mask & ~p_mask
    if out:
        return SafetyVerdict("unsafe", 0, UNSAFE_FORWARD, op._min_state(out))
    return SafetyVerdict("safe", sum(1 for _ in chains))

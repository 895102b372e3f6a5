"""Monotone operators, fixed-point chains, and the safety check."""
import random
import subprocess
import sys
import tracemalloc
import weakref
from collections import Counter
from pathlib import Path
from typing import Iterator

import pytest

from relfix.errors import NotPostFixed, NotPreFixed
from relfix.finstruct import FinCoalgebra, is_wellfounded
from relfix.lattice import (
    UNSAFE_FORWARD,
    WORD_STATES,
    MonotoneOp,
    SafetyVerdict,
    TransitionSystem,
    f_apply,
    galois_check,
    mu_post,
    nu_pre,
    random_system,
    safety_check,
)

import cases
from gen import (
    MIXED,
    lockstep_system,
    random_mixed_machines,
    random_sparse_system,
    random_transition_system,
)
from oracles import all_subsets, bfs_reachable, naive_wellfounded

ROOT = Path(__file__).resolve().parent.parent


def chain_ts(init=("s0",), safe=("s0", "s1")) -> TransitionSystem:
    data = cases.chain_system()
    return TransitionSystem(data["states"], data["delta"], frozenset(init), frozenset(safe))


def chain_op() -> MonotoneOp:
    return MonotoneOp.from_transition_system(chain_ts())


class TestApply:
    def test_empty(self):
        assert f_apply(chain_op(), ()) == frozenset()

    def test_single(self):
        assert f_apply(chain_op(), {"s0"}) == frozenset({"s0", "s1"})

    def test_full(self):
        op = chain_op()
        assert f_apply(op, op.states) == frozenset(op.states)


class TestMuPost:
    def test_empty_start(self):
        assert mu_post(chain_op(), ()) == frozenset()

    def test_reaches_forward(self):
        op = chain_op()
        got = mu_post(op, {"s0"})
        assert got == frozenset({"s0", "s1"})
        assert got == bfs_reachable(chain_ts().delta, {"s0"})

    def test_fixed_start_stays(self):
        assert mu_post(chain_op(), {"s0", "s1"}) == frozenset({"s0", "s1"})

    def test_not_post_fixed(self):
        ts = TransitionSystem(("s0", "s1"), {"s0": {"s1"}, "s1": {"s1"}}, frozenset(), frozenset())
        op = MonotoneOp.from_transition_system(ts)
        with pytest.raises(NotPostFixed) as err:
            mu_post(op, {"s0"})
        assert err.value.witness == "s0"

    def test_result_is_fixed_point(self):
        rng = random.Random(2)
        for _ in range(50):
            ts = random_transition_system(rng)
            op = MonotoneOp.from_transition_system(ts)
            z = mu_post(op, ts.init)
            assert f_apply(op, z) == z
            assert ts.init <= z

    def test_chain_is_cumulative_and_short(self):
        rng = random.Random(8)
        for _ in range(30):
            ts = random_transition_system(rng)
            op = MonotoneOp.from_transition_system(ts)
            chain = [frozenset(ts.init)]
            for _ in range(len(ts.states)):
                chain.append(chain[-1] | f_apply(op, chain[-1]))
            for earlier, later in zip(chain, chain[1:]):
                assert earlier <= later
            assert chain[-1] == mu_post(op, ts.init)


class TestNuPre:
    def test_full_start(self):
        op = chain_op()
        assert nu_pre(op, op.states) == frozenset(op.states)

    def test_closed_pair_stays(self):
        assert nu_pre(chain_op(), {"s0", "s1"}) == frozenset({"s0", "s1"})

    def test_not_pre_fixed(self):
        with pytest.raises(NotPreFixed) as err:
            nu_pre(chain_op(), {"s0"})
        assert err.value.witness == "s1"

    def test_result_is_fixed_point(self):
        rng = random.Random(4)
        for _ in range(50):
            ts = random_transition_system(rng)
            op = MonotoneOp.from_transition_system(ts)
            z = nu_pre(op, ts.safe)
            assert f_apply(op, z) == z
            assert z <= ts.safe


class TestGalois:
    def test_exhaustive_on_chain_system(self):
        ts = chain_ts()
        op = MonotoneOp.from_transition_system(ts)
        posts = [i for i in all_subsets(ts.states) if i <= f_apply(op, i)]
        pres = [p for p in all_subsets(ts.states) if f_apply(op, p) <= p]
        for i in posts:
            for p in pres:
                assert galois_check(op, i, p) is True

    def test_unit_counit_style_inclusions(self):
        rng = random.Random(6)
        for _ in range(40):
            ts = random_transition_system(rng)
            op = MonotoneOp.from_transition_system(ts)
            z = mu_post(op, ts.init)
            # the least fixed point is itself pre-fixed, and the start embeds
            assert ts.init <= nu_pre(op, z)
            w = nu_pre(op, ts.safe)
            assert mu_post(op, w) <= ts.safe

    def test_refuses_a_bad_start_by_its_lowest_stray_state(self):
        # the adjunction holds on every valid pair, so only its refusals
        # tell a check from a constant True
        rng = random.Random(7)
        seen = Counter()
        for ts in memo_inputs(rng):
            op = MonotoneOp.from_transition_system(ts)
            u = frozenset(x for x in ts.states if rng.random() < 0.5)
            for stray, exc, args in (
                (u - plain_image(ts.delta, u), NotPostFixed, (u, ts.safe)),
                (plain_image(ts.delta, u) - u, NotPreFixed, (ts.init, u)),
            ):
                if not stray:
                    continue
                seen[len(ts.states) > WORD_STATES, exc] += 1
                with pytest.raises(exc) as err:
                    galois_check(op, *args)
                assert err.value.witness == first_state(ts, stray)
        for wide in (False, True):
            assert min(seen[wide, NotPostFixed], seen[wide, NotPreFixed]) >= 5


class TestBox:
    def test_right_adjoint_of_successor_image(self):
        # apply_mask(X) <= U iff X <= box_mask(U), for every X and U; a right
        # adjoint is unique, so this pins box_mask down completely
        machines = random_mixed_machines(seed=31, count=200)
        steps = [b.step[x] for b in machines for x in b.states]
        assert any(not args for _, args in steps)
        assert any(len(set(args)) < len(args) for _, args in steps)
        for b in machines:
            op = MonotoneOp.from_machine(b)
            masks = range(1 << len(b.states))
            image = [op.apply_mask(x) for x in masks]
            box = [op.box_mask(u) for u in masks]
            for x in masks:
                for u in masks:
                    assert (image[x] & ~u == 0) == (x & ~box[u] == 0)

    def test_images_against_plain_sets_on_both_sides_of_word_states(self):
        # masks come from set arithmetic here, so bit order and padding are
        # checked too; sparse and dense masks reach both ways of building one
        rng = random.Random(33)
        for low, high in ((40, WORD_STATES), (WORD_STATES + 1, 300)):
            for _ in range(15):
                ts = random_sparse_system(rng, low, high)
                op = MonotoneOp.from_transition_system(ts)
                for density in (0.0, 0.03, 0.5, 0.97, 1.0):
                    u = frozenset(x for x in ts.states if rng.random() < density)
                    m = plain_mask(ts, u)
                    assert op.mask_of(u) == m and op.set_of(m) == u
                    assert op.apply_mask(m) == plain_mask(ts, plain_image(ts.delta, u))
                    assert op.box_mask(m) == plain_mask(ts, (x for x in ts.states if ts.delta[x] <= u))
                    assert f_apply(op, u) == plain_image(ts.delta, u)


def memo_inputs(rng: random.Random) -> Iterator[TransitionSystem]:
    """Sparse systems of 1-8, 40-64 and 65-300 states: tiny word masks,
    full-width word masks and flat rows."""
    for low, high in ((1, 8), (40, WORD_STATES), (WORD_STATES + 1, 300)):
        for _ in range(15):
            yield random_sparse_system(rng, low, high)


class TestMaskMemo:
    """mask_of remembers the mask of each frozenset for the operator's
    lifetime.  galois_check reads both of its sides through the same mask,
    so a wrong memo cannot show there: these compare masks and fixed points
    with plain sets directly."""

    def test_remembered_masks_against_plain_sets(self):
        rng = random.Random(35)
        for ts in memo_inputs(rng):
            op = MonotoneOp.from_transition_system(ts)
            # many sets of one size: a memo keyed by anything coarser than the set shows
            for i, x in enumerate(ts.states):
                assert op.mask_of(frozenset({x})) == 1 << i
            for density in (0.0, 0.03, 0.5, 0.97, 1.0):
                u = frozenset(x for x in ts.states if rng.random() < density)
                m = plain_mask(ts, u)
                listed = list(u)
                rng.shuffle(listed)
                assert op.mask_of(u) == m and op.mask_of(u) == m
                assert op.mask_of(frozenset(listed)) == m  # equal, built apart
                assert op.mask_of(tuple(listed)) == m
                assert op.mask_of(listed + listed[::2]) == m  # repeats
                assert op.mask_of(x for x in listed) == m

    def test_unknown_state_is_refused_every_time(self):
        rng = random.Random(36)
        for ts in memo_inputs(rng):
            op = MonotoneOp.from_transition_system(ts)
            known = frozenset(x for x in ts.states if rng.random() < 0.5)
            for bad in (frozenset({"zz"}), known | {"zz"}):
                for _ in range(3):
                    with pytest.raises(ValueError, match="^'zz' is not a state$"):
                        op.mask_of(bad)
            assert op.mask_of(known) == plain_mask(ts, known)

    def test_fixed_points_of_remembered_starts_against_plain_sets(self):
        rng = random.Random(37)
        for ts in memo_inputs(rng):
            op = MonotoneOp.from_transition_system(ts)
            posts, pres = [ts.init], [ts.safe]
            for _ in range(4):
                u = frozenset(x for x in ts.states if rng.random() < 0.5)
                while not u <= plain_image(ts.delta, u):
                    u &= plain_image(ts.delta, u)
                v = frozenset(x for x in ts.states if rng.random() < 0.5)
                while not plain_image(ts.delta, v) <= v:
                    v |= plain_image(ts.delta, v)
                posts.append(u)
                pres.append(v)
            for _ in range(2):
                for i in posts:
                    least = bfs_reachable(ts.delta, i)
                    assert mu_post(op, i) == least and mu_post(op, frozenset(list(i))) == least
                for p in pres:
                    greatest = plain_chain(ts.delta, p)[-1]
                    assert nu_pre(op, p) == greatest and nu_pre(op, frozenset(list(p))) == greatest

    def test_holds_no_successor_row_and_no_generator(self):
        # the constructor's rows go around the memo, and only frozensets
        # enter it, so neither outlives its caller's last reference
        rng = random.Random(38)
        for n in (8, WORD_STATES, WORD_STATES + 1):
            states = tuple(f"s{i}" for i in range(n))
            rows = {x: frozenset(rng.sample(states, 3)) for x in states}
            refs = [weakref.ref(row) for row in rows.values()]
            op = MonotoneOp(states, rows)
            del rows
            assert [ref() for ref in refs] == [None] * n
            gen = (x for x in states[:3])
            ref = weakref.ref(gen)
            assert op.mask_of(gen) == 0b111
            del gen
            assert ref() is None


class TestRandomSystem:
    @pytest.mark.parametrize("max_states,density", [(5, 0.45), (7, 0.4)])
    def test_starts_meet_chain_preconditions(self, max_states, density):
        rng = random.Random(3)
        for _ in range(100):
            ts = random_system(rng, max_states, density)
            assert 1 <= len(ts.states) <= max_states
            assert ts.init <= frozenset(y for x in ts.init for y in ts.delta[x])
            assert frozenset(y for x in ts.safe for y in ts.delta[x]) <= ts.safe


def plain_image(delta, xs) -> frozenset:
    return frozenset(y for x in xs for y in delta[x])


def plain_mask(ts: TransitionSystem, xs) -> int:
    xs = frozenset(xs)
    return sum(1 << i for i, x in enumerate(ts.states) if x in xs)


def first_state(ts: TransitionSystem, xs) -> str:
    return next(x for x in ts.states if x in xs)


def chain_inputs(rng: random.Random) -> Iterator[TransitionSystem]:
    """300 dense systems of up to 6 states, then 60 sparse ones of 60-300
    states on both sides of WORD_STATES, where chains switch from word
    masks to frontier steps."""
    for _ in range(300):
        yield random_transition_system(rng)
    for low, high, count in ((60, WORD_STATES, 20), (WORD_STATES + 1, 300, 40)):
        for _ in range(count):
            yield random_sparse_system(rng, low, high)


def plain_verdict(ts: TransitionSystem, up, down) -> SafetyVerdict:
    """The safety verdict read off two checked chains with set arithmetic."""
    for stage, (reach, trim) in enumerate(zip(up, down)):
        if reach - ts.safe:
            return SafetyVerdict("unsafe", stage, UNSAFE_FORWARD, first_state(ts, reach - ts.safe))
        if ts.init - trim:
            return SafetyVerdict("unsafe", stage, "I ⊄ F^n(P)", first_state(ts, ts.init - trim))
    return SafetyVerdict("safe", stage)


class TestChain:
    """MonotoneOp.chain against plain set arithmetic on random systems."""

    def test_chains_against_plain_sets(self):
        seen = Counter()
        for ts in chain_inputs(random.Random(21)):
            op = MonotoneOp.from_transition_system(ts)
            up = [op.set_of(m) for m in op.chain(op.mask_of(ts.init), True)]
            down = [op.set_of(m) for m in op.chain(op.mask_of(ts.safe), False)]
            assert up[0] == ts.init and down[0] == ts.safe
            for chain, ascending in ((up, True), (down, False)):
                assert len(chain) <= len(ts.states) + 1
                for earlier, later in zip(chain, chain[1:]):
                    assert later == plain_image(ts.delta, earlier)
                    assert (earlier < later) if ascending else (later < earlier)
                assert plain_image(ts.delta, chain[-1]) == chain[-1]
            assert up[-1] == bfs_reachable(ts.delta, ts.init) == mu_post(op, ts.init)
            assert down[-1] == nu_pre(op, ts.safe)
            verdict = safety_check(ts)
            assert verdict == plain_verdict(ts, up, down)
            seen[len(ts.states) > WORD_STATES, verdict.result] += 1
        assert len(seen) == 4 and seen[False, "safe"] > 100 and seen[True, "safe"] > 20

    def test_bad_starts_raise_alike_everywhere(self):
        rng = random.Random(22)
        seen = Counter()
        for ts in chain_inputs(rng):
            op = MonotoneOp.from_transition_system(ts)
            init = frozenset(x for x in ts.states if rng.random() < 0.5)
            safe = frozenset(x for x in ts.states if rng.random() < 0.5)
            stray_init = init - plain_image(ts.delta, init)
            stray_safe = plain_image(ts.delta, safe) - safe
            bad = TransitionSystem(ts.states, ts.delta, init, safe)
            for start, stray, upward, exc, fixed_point in (
                (init, stray_init, True, NotPostFixed, mu_post),
                (safe, stray_safe, False, NotPreFixed, nu_pre),
            ):
                if not stray:
                    continue
                seen[len(ts.states) > WORD_STATES, exc] += 1
                witness = first_state(ts, stray)
                with pytest.raises(exc) as err:
                    next(op.chain(op.mask_of(start), upward))
                assert err.value.witness == witness
                with pytest.raises(exc) as err:
                    fixed_point(op, start)
                assert err.value.witness == witness
            # safety_check reports a bad init before a bad safe set
            if stray_init or stray_safe:
                exc, stray = (NotPostFixed, stray_init) if stray_init else (NotPreFixed, stray_safe)
                with pytest.raises(exc) as err:
                    safety_check(bad)
                assert err.value.witness == first_state(ts, stray)
        for wide, least in ((False, 50), (True, 30)):
            assert min(seen[wide, NotPostFixed], seen[wide, NotPreFixed]) > least


def flat_row_machine(rng: random.Random, n: int, acyclic: bool) -> FinCoalgebra:
    """A machine over MIXED on n states declared in shuffled order.  The
    first and last declared states and about a quarter of the rest are
    nullary (empty rows, so repeated offsets), and a third of the other
    steps repeat one argument, as in f(x, x).  An acyclic machine only
    points to states later in a hidden order, whose last state is nullary."""
    hidden = [f"x{i}" for i in range(n)]
    states = tuple(rng.sample(hidden, n))
    step = {}
    for k, x in enumerate(hidden):
        targets = hidden[k + 1:] if acyclic else hidden
        nullary = not targets or x in (states[0], states[-1]) or rng.random() < 0.25
        op, arity = MIXED.symbols[0] if nullary else rng.choice(MIXED.symbols[1:])
        if arity > 1 and rng.random() < 1 / 3:
            args = (rng.choice(targets),) * arity
        else:
            args = tuple(rng.choice(targets) for _ in range(arity))
        step[x] = (op, args)
    return FinCoalgebra(MIXED, states, step)


def plain_chain(delta, start: frozenset) -> list[frozenset]:
    """The iterates of the successor image from start up to the first fixed one."""
    out = [start]
    while plain_image(delta, out[-1]) != out[-1]:
        out.append(plain_image(delta, out[-1]))
    return out


class TestFlatRows:
    """Past WORD_STATES the successors are one flat id list with row offsets.
    Empty rows and repeated arguments, which count twice among a state's
    predecessors, are checked against set arithmetic on both sides."""

    def test_machines_against_plain_sets(self):
        rng = random.Random(41)
        sizes = [*range(60, 70), *(rng.randint(WORD_STATES + 1, 300) for _ in range(30))]
        seen = Counter()
        for n in sizes:
            for acyclic in (False, True):
                b = flat_row_machine(rng, n, acyclic)
                wide = n > WORD_STATES
                op = MonotoneOp.from_machine(b)
                delta = {x: frozenset(args) for x, (_, args) in b.step.items()}
                seen[wide, "repeated"] += sum(len(set(a)) < len(a) for _, a in b.step.values())
                assert is_wellfounded(b) == naive_wellfounded(b) == acyclic
                for density in (0.0, 0.1, 0.5, 0.9, 1.0):
                    u = frozenset(x for x in b.states if rng.random() < density)
                    m = plain_mask(b, u)
                    assert op.apply_mask(m) == plain_mask(b, plain_image(delta, u))
                    assert op.box_mask(m) == plain_mask(b, (x for x in b.states if delta[x] <= u))
                    post, pre = u, u
                    while not post <= plain_image(delta, post):
                        post &= plain_image(delta, post)
                    while not plain_image(delta, pre) <= pre:
                        pre |= plain_image(delta, pre)
                    image = plain_image(delta, u)
                    for upward, stray, fixed, exc in (
                        (True, u - image, post, NotPostFixed),
                        (False, image - u, pre, NotPreFixed),
                    ):
                        if stray:
                            seen[wide, exc] += 1
                            with pytest.raises(exc) as err:
                                next(op.chain(m, upward))
                            assert err.value.witness == first_state(b, stray)
                        want = plain_chain(delta, fixed)
                        fixed_mask = plain_mask(b, fixed)
                        assert [op.set_of(c) for c in op.chain(fixed_mask, upward)] == want
                        fixed_point = op.mu_post_mask if upward else op.nu_pre_mask
                        assert fixed_point(fixed_mask) == plain_mask(b, want[-1])
                        seen[wide, upward, len(want) > 3] += 1
        for wide in (False, True):
            assert seen[wide, "repeated"] > 50
            assert min(seen[wide, NotPostFixed], seen[wide, NotPreFixed]) > 20
            assert min(seen[wide, True, True], seen[wide, False, True]) > 5

    @pytest.mark.parametrize("n", [WORD_STATES, WORD_STATES + 1, 300])
    def test_unknown_successor_is_refused_by_its_name(self, n):
        # the first unknown name in declaration order, whatever the mapping's order
        states = [f"s{i}" for i in range(n)]
        successors = {x: [states[(i + 1) % n]] for i, x in enumerate(states)}
        successors["s50"] = ["s1", "ghost2", "s2"]
        successors["s20"] = ["s3", "ghost1"]
        successors = dict(reversed(successors.items()))
        with pytest.raises(ValueError, match=r"^'ghost1' is not a state$"):
            MonotoneOp(states, successors)


def timed_in_child(system: str, call: str, timeout: float = 10) -> tuple[float, str]:
    """Build `system` from gen and time `call` on it as `ts`, in a fresh
    interpreter killed after `timeout` seconds; return the call's wall time
    and the repr of its result."""
    code = (
        "import time, gen\n"
        "from relfix.lattice import MonotoneOp, nu_pre, safety_check\n"
        f"ts = gen.{system}\n"
        "start = time.perf_counter()\n"
        f"result = {call}\n"
        "print(time.perf_counter() - start)\n"
        "print(repr(result))\n"
    )
    env = cases.child_env(ROOT / "tests")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=timeout, env=env, check=True)
    seconds, result = proc.stdout.splitlines()
    return float(seconds), result


class TestChainScale:
    """Frontier steps keep long chains on large state sets linear."""

    def test_lockstep_safety_on_ten_thousand_states(self):
        seconds, result = timed_in_child("lockstep_system(5000)", "safety_check(ts)")
        assert result == repr(SafetyVerdict("safe", 4999))
        assert seconds < 2

    def test_nu_pre_on_a_twenty_thousand_state_ladder(self):
        seconds, result = timed_in_child(
            "ladder_graph(20000)", "sorted(nu_pre(MonotoneOp.from_transition_system(ts), ts.safe))"
        )
        assert result == repr(["s19999"])
        assert seconds < 2


    def test_fixed_points_keep_only_the_last_iterate(self):
        # 20,000 stages each: holding every iterate until the chain ends
        # peaks at tens of MiB
        ts = lockstep_system(20000)
        op = MonotoneOp.from_transition_system(ts)
        machine = cases.chk_chain(20000, True)
        for call, want in (
            (lambda: mu_post(op, ts.init), frozenset(ts.states[:20000])),
            (lambda: is_wellfounded(machine), True),
        ):
            tracemalloc.start()
            try:
                assert call() == want
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 16 * 2**20


class TestTransitionSystem:
    @pytest.mark.parametrize("states, delta, init, message", [
        (("s0", "s0"), {}, (), "duplicate state names"),
        (("s0",), {"s1": ()}, (), "delta defined on non-state 's1'"),
        (("s0",), {"s0": ("s1",)}, (), "delta of 's0' leaves the state set"),
        (("s0",), {}, ("s1",), "init contains non-states"),
    ], ids=["duplicate-states", "delta-on-non-state", "delta-leaves", "init-outside"])
    def test_bad_input_is_refused_by_name(self, states, delta, init, message):
        with pytest.raises(ValueError) as err:
            TransitionSystem(states, delta, frozenset(init), frozenset())
        assert str(err.value) == message


class TestSafety:
    def test_safe_chain(self):
        verdict = safety_check(chain_ts())
        assert verdict.is_safe
        assert verdict.result == "safe"

    def test_empty_init_safe_at_stage_zero(self):
        verdict = safety_check(chain_ts(init=()))
        assert verdict.is_safe and verdict.stage == 0

    def test_unsafe_reports_side_and_witness(self):
        verdict = safety_check(chain_ts(init=("s0",), safe=("s2",)))
        assert not verdict.is_safe
        assert verdict.side == UNSAFE_FORWARD
        assert verdict.witness == "s0"
        assert verdict.stage == 0

    def test_decided_at_stage_zero_on_both_sides_of_word_states(self):
        # with I post-fixed and P pre-fixed, mu_post(I) <= P iff I <= nu_pre(P) iff I <= P
        seen = Counter()
        for ts in chain_inputs(random.Random(23)):
            verdict = safety_check(ts)
            if ts.init <= ts.safe:
                assert verdict.is_safe
            else:
                witness = first_state(ts, ts.init - ts.safe)
                assert verdict == SafetyVerdict("unsafe", 0, UNSAFE_FORWARD, witness)
            seen[len(ts.states) > WORD_STATES, verdict.result] += 1
        assert len(seen) == 4

    def test_precondition_failure_raises(self):
        with pytest.raises(NotPreFixed) as err:
            safety_check(chain_ts(safe=("s0",)))
        assert err.value.witness == "s1"

    def test_agrees_with_reachability(self):
        rng = random.Random(12)
        for _ in range(100):
            ts = random_transition_system(rng)
            verdict = safety_check(ts)
            reachable = bfs_reachable(ts.delta, ts.init)
            assert verdict.is_safe == (reachable <= ts.safe)

    def test_deterministic(self):
        ts = chain_ts(init=("s0",), safe=("s2",))
        assert safety_check(ts) == safety_check(ts)

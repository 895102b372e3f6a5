"""Sweep random transition systems and confirm the two inclusion tests agree.

For each system the start sets are adjusted to be post- and pre-fixed, then
the least chain above init and the greatest chain below safe are compared
through both sides of the adjunction.  Also reports how many join steps the
least chain needs before it stabilizes.
"""
from __future__ import annotations

import argparse
import random
from collections import Counter

from relfix.lattice import MonotoneOp, f_apply, galois_check, mu_post, nu_pre, random_system, safety_check


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=500)
    parser.add_argument("--max-states", type=int, default=7)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    lengths = Counter()
    verdicts = Counter()
    for _ in range(args.count):
        ts = random_system(rng, args.max_states, 0.4)
        op = MonotoneOp.from_transition_system(ts)
        assert galois_check(op, ts.init, ts.safe)
        least = mu_post(op, ts.init)
        greatest = nu_pre(op, ts.safe)
        assert f_apply(op, least) == least
        assert f_apply(op, greatest) == greatest
        assert (least <= ts.safe) == (ts.init <= greatest)
        lengths[sum(1 for _ in op.chain(op.mask_of(ts.init), True)) - 1] += 1
        verdicts[safety_check(ts).result] += 1

    print(f"{args.count} systems, all adjunction checks passed")
    print("verdicts:", dict(sorted(verdicts.items())))
    print("join steps to stabilize the least chain:")
    for steps in sorted(lengths):
        print(f"  {steps:>2}: {lengths[steps]}")


if __name__ == "__main__":
    main()

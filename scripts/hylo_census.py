"""Count recursion-square solutions for every small unary machine.

Runs all machines over the two-symbol unary signature (chk flips a bit,
cross keeps it) against the flip algebra and tabulates the number of
solutions.  Each cycle whose chk count is odd kills every solution; each
even cycle doubles the count, so the observed values are 0 and powers of 2.
"""
from __future__ import annotations

import argparse
from collections import Counter
from pathlib import Path

from relfix.finstruct import all_coalgebras, enumerate_hylo, is_wellfounded
from relfix.jsonio import load_algebra

FLIP_PATH = Path(__file__).resolve().parent / "data" / "flip_algebra.json"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-states", type=int, default=4)
    args = parser.parse_args()

    flip = load_algebra(FLIP_PATH)
    print(f"{'states':>6} {'machines':>9}  solution counts")
    for n in range(1, args.max_states + 1):
        census = Counter()
        wellfounded = 0
        for machine in all_coalgebras(flip.sig, n):
            census[len(enumerate_hylo(machine, flip))] += 1
            wellfounded += is_wellfounded(machine)
        detail = ", ".join(f"{k}:{census[k]}" for k in sorted(census))
        total = sum(census.values())
        print(f"{n:>6} {total:>9}  {{{detail}}}  ({wellfounded} well-founded)")
        assert all(k == 0 or (k & (k - 1)) == 0 for k in census), "non power of 2"
        # a total unary machine always loops, so both sides here are zero
        assert census[1] == wellfounded, "unique solutions should match acyclicity"


if __name__ == "__main__":
    main()

"""Render carpet approximants and report how the filled area shrinks.

Each subdivision keeps 8 of 9 cells, so the filled fraction after d rounds
is (8/9)^d; the pixel counts below converge to that as resolution grows.
"""
from __future__ import annotations

import argparse
from fractions import Fraction

from relfix.fractal import render, write_pgm


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--depth", type=int, default=3)
    parser.add_argument("--res", type=int, default=243)
    parser.add_argument("--out", default="carpet.pgm")
    args = parser.parse_args()

    final = write_pgm(args.out, args.depth, args.res)
    print(f"wrote {args.out} ({args.res}x{args.res}, depth {args.depth})")
    print(f"{'depth':>5} {'inside':>10} {'fraction':>10} {'(8/9)^d':>10}")
    for d in range(args.depth + 1):
        pixels = final if d == args.depth else render(d, args.res)
        inside = pixels.count(0)
        fraction = inside / len(pixels)
        exact = float(Fraction(8, 9) ** d)
        print(f"{d:>5} {inside:>10} {fraction:>10.6f} {exact:>10.6f}")


if __name__ == "__main__":
    main()

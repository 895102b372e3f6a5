"""Command line front end.

Every subcommand reads versioned JSON problem files and returns its exit code
and one JSON document; `main` prints that document to stdout in canonical
form. The exit code is 0 on success, 1 when a search budget or bound is
exceeded or a `selftest` check fails, 2 on malformed input (including input
nested too deeply to walk) or an output file that cannot be written, 3 when a
safety check comes back unsafe.
"""
from __future__ import annotations

import argparse
import random
import sys
from itertools import product

from .errors import DEFAULT_BUDGET, BoundExceeded, BudgetExceeded, RelfixError

# Each command imports the modules it runs, so start-up loads no more of the
# package than the command needs.


def _cmd_mu_eq(args) -> tuple[int, dict]:
    from .jsonio import load_coalgebra
    from .mu import mu_equal
    from .sigterm import parse_term

    coalg = load_coalgebra(args.coalgebra)
    lhs = parse_term(coalg.sig, args.lhs)
    rhs = parse_term(coalg.sig, args.rhs)
    return 0, {
        "result": "equal" if mu_equal(coalg, lhs, rhs) else "distinct",
        "lhs": str(lhs),
        "rhs": str(rhs),
        "generators": [f"{x} = {op}({','.join(ys)})" for x, (op, ys) in coalg.step.items()],
    }


def _cmd_hylo(args) -> tuple[int, dict]:
    from .finstruct import enumerate_hylo
    from .jsonio import load_algebra, load_coalgebra

    coalg = load_coalgebra(args.coalgebra)
    alg = load_algebra(args.algebra)
    solutions = enumerate_hylo(coalg, alg, args.budget)
    out = {"count": len(solutions)}
    if args.list:
        out["morphisms"] = solutions
    return 0, out


def _cmd_safety(args) -> tuple[int, dict]:
    from .jsonio import load_transition_system
    from .lattice import safety_check

    verdict = safety_check(load_transition_system(args.system))
    out = {"result": verdict.result, "stage": verdict.stage}
    if not verdict.is_safe:
        out["side"] = verdict.side
        out["witness"] = verdict.witness
    return (0 if verdict.is_safe else 3), out


def _parse_state_set(text: str | None, fallback) -> tuple[str, ...]:
    """The states of a comma list, repeats dropped, in the order written, so
    an unknown one is reported as the first the user named."""
    if text is None:
        return tuple(fallback)
    return tuple(dict.fromkeys(s for s in text.split(",") if s))


def _cmd_galois(args) -> tuple[int, dict]:
    from .jsonio import load_transition_system
    from .lattice import MonotoneOp, galois_check, mu_post, nu_pre

    ts = load_transition_system(args.system)
    op = MonotoneOp.from_transition_system(ts)
    post_start = _parse_state_set(args.post, ts.init)
    pre_start = _parse_state_set(args.pre, ts.safe)
    least = mu_post(op, post_start)
    greatest = nu_pre(op, pre_start)
    return 0, {
        "holds": galois_check(op, post_start, pre_start),
        "forward": least <= frozenset(pre_start),
        "backward": frozenset(post_start) <= greatest,
        "mu_post": sorted(least),
        "nu_pre": sorted(greatest),
    }


def _cmd_nu_enum(args) -> tuple[int, dict]:
    from .jsonio import load_algebra, prefix_to_json
    from .nu import enum_nu_prefixes

    alg = load_algebra(args.algebra)
    prefixes = enum_nu_prefixes(alg, args.root, args.depth, args.budget)
    return 0, {
        "count": len(prefixes),
        "prefixes": [prefix_to_json(p) for p in prefixes],
    }


def _cmd_nu_check(args) -> tuple[int, dict]:
    from .jsonio import load_algebra, load_prefix
    from .nu import is_a_guided

    alg = load_algebra(args.algebra)
    prefix = load_prefix(args.prefix)
    return 0, {"guided": is_a_guided(alg, prefix)}


def _cmd_cartesian(args) -> tuple[int, dict]:
    from .jsonio import load_coalgebra
    from .nu import classify_cartesian

    coalg = load_coalgebra(args.coalgebra)
    pairs = classify_cartesian(coalg, args.bound, args.budget)
    out = {
        "count": len(pairs),
        "fixed_points": [list(subset) for subset, _ in pairs],
    }
    if args.classify:
        out["classification"] = [
            {"subset": list(subset), "morphism": chi} for subset, chi in pairs
        ]
    return 0, out


def _cmd_recursive(args) -> tuple[int, dict]:
    from .finstruct import all_algebras, count_algebras, enumerate_hylo
    from .jsonio import load_coalgebra

    if args.max_carrier < 1:  # no algebra tested would make any machine recursive
        raise ValueError(f"--max-carrier {args.max_carrier} is below 1")
    coalg = load_coalgebra(args.coalgebra)
    count_algebras(coalg.sig, args.max_carrier, args.budget)
    sizes = range(1, args.max_carrier + 1)
    algebras = (alg for size in sizes for alg in all_algebras(coalg.sig, size))
    # recursive: exactly one solution against every algebra, up to the first without
    for tested, alg in enumerate(algebras, 1):
        recursive = len(enumerate_hylo(coalg, alg, args.budget)) == 1
        if not recursive:
            break
    return 0, {
        "recursive": recursive,
        "algebras_tested": tested,
        "max_carrier": args.max_carrier,
    }


def _cmd_sierpinski(args) -> tuple[int, dict]:
    from .fractal import write_pgm

    pixels = write_pgm(args.out, args.depth, args.res)
    return 0, {
        "out": args.out,
        "depth": args.depth,
        "res": args.res,
        "inside": pixels.count(0),
    }


def _cmd_carpet_member(args) -> tuple[int, dict]:
    from .fractal import carpet_member

    return 0, {
        "member": carpet_member(args.x, args.y, args.depth),
        "depth": args.depth,
    }


def _random_machine(rng: random.Random):
    from .finstruct import FinCoalgebra
    from .sigterm import Signature

    sig = Signature((("f", 2), ("g", 1), ("c", 0)))
    n = rng.randrange(1, 5)
    states = tuple(f"x{i}" for i in range(n))
    step = {}
    for x in states:
        op, arity = sig.symbols[rng.randrange(3)]
        step[x] = (op, tuple(rng.choice(states) for _ in range(arity)))
    return FinCoalgebra(sig, states, step)


def _random_algebra(rng: random.Random, sig, size: int):
    from .finstruct import FinAlgebra

    carrier = tuple(str(i) for i in range(size))
    table = {}
    for op, arity in sig.symbols:
        for inputs in product(carrier, repeat=arity):
            table[(op, inputs)] = rng.choice(carrier)
    return FinAlgebra(sig, carrier, table)


def _cmd_selftest(args) -> tuple[int, dict]:
    from .finstruct import enumerate_hylo, is_ca_morphism
    from .lattice import (
        MonotoneOp,
        f_apply,
        galois_check,
        mu_post,
        nu_pre,
        random_system,
        safety_check,
    )
    from .nu import classify_cartesian

    rng = random.Random(args.seed)
    checks = 0
    failures = []

    def record(name: str, ok: bool) -> None:
        nonlocal checks
        checks += 1
        if not ok:
            failures.append(name)

    for trial in range(args.trials):
        ts = random_system(rng, 5, 0.45)
        op = MonotoneOp.from_transition_system(ts)
        record(f"galois[{trial}]", galois_check(op, ts.init, ts.safe))
        least = mu_post(op, ts.init)
        greatest = nu_pre(op, ts.safe)
        record(f"mu-fixed[{trial}]", f_apply(op, least) == least)
        record(f"nu-fixed[{trial}]", f_apply(op, greatest) == greatest)
        record(f"safety[{trial}]", safety_check(ts).is_safe == (least <= ts.safe))

        coalg = _random_machine(rng)
        alg = _random_algebra(rng, coalg.sig, rng.randrange(1, 4))
        solutions = enumerate_hylo(coalg, alg)
        record(
            f"hylo-sound[{trial}]",
            all(is_ca_morphism(coalg, alg, f) for f in solutions),
        )
        record(
            f"hylo-distinct[{trial}]",
            len({tuple(sorted(f.items())) for f in solutions}) == len(solutions),
        )
        try:
            classify_cartesian(coalg)
            record(f"cartesian[{trial}]", True)
        except RelfixError:
            record(f"cartesian[{trial}]", False)

    return (0 if not failures else 1), {
        "seed": args.seed,
        "trials": args.trials,
        "checks": checks,
        "failures": failures,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relfix",
        description="Relative fixed points of finite machines, algebras, and lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mu-eq", help="decide term equality in the initial quotient of a machine")
    p.add_argument("coalgebra", help="machine JSON file")
    p.add_argument("lhs", help="term over the machine signature, states as variables")
    p.add_argument("rhs", help="term over the machine signature, states as variables")
    p.set_defaults(func=_cmd_mu_eq)

    p = sub.add_parser("hylo", help="enumerate solutions of a machine against an algebra")
    p.add_argument("coalgebra", help="machine JSON file")
    p.add_argument("algebra", help="algebra JSON file")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--count", action="store_true", help="report the count only (default)")
    mode.add_argument("--list", action="store_true", help="include the solutions themselves")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(func=_cmd_hylo)

    p = sub.add_parser("safety", help="run the two-sided safety check on a transition system")
    p.add_argument("system", help="transition system JSON file")
    p.set_defaults(func=_cmd_safety)

    p = sub.add_parser("galois", help="compare the two inclusion tests on a transition system")
    p.add_argument("system", help="transition system JSON file")
    p.add_argument("--post", help="comma separated post-fixed start, default init")
    p.add_argument("--pre", help="comma separated pre-fixed start, default safe")
    p.set_defaults(func=_cmd_galois)

    p = sub.add_parser("nu-enum", help="enumerate guided tree prefixes of an algebra")
    p.add_argument("algebra", help="algebra JSON file")
    p.add_argument("--root", required=True, help="root label, a carrier element")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(func=_cmd_nu_enum)

    p = sub.add_parser("nu-check", help="check that a tree prefix is guided by an algebra")
    p.add_argument("algebra", help="algebra JSON file")
    p.add_argument("prefix", help="prefix JSON file")
    p.set_defaults(func=_cmd_nu_check)

    p = sub.add_parser("cartesian", help="list next-time fixed points of a machine")
    p.add_argument("coalgebra", help="machine JSON file")
    p.add_argument("--bound", type=int, default=16, help="largest state count enumerated")
    p.add_argument("--classify", action="store_true", help="include the indicator morphisms")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(func=_cmd_cartesian)

    p = sub.add_parser("recursive", help="test unique solvability against all small algebras")
    p.add_argument("coalgebra", help="machine JSON file")
    p.add_argument("--max-carrier", type=int, default=3)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(func=_cmd_recursive)

    p = sub.add_parser("sierpinski", help="render a carpet approximant to a PGM file")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--res", type=int, required=True)
    p.add_argument("--out", required=True, help="output PGM path")
    p.set_defaults(func=_cmd_sierpinski)

    p = sub.add_parser("carpet-member", help="test membership in a carpet approximant")
    p.add_argument("x", help="coordinate, decimal or p/q")
    p.add_argument("y", help="coordinate, decimal or p/q")
    p.add_argument("--depth", type=int, default=8)
    p.set_defaults(func=_cmd_carpet_member)

    p = sub.add_parser("selftest", help="run randomized consistency checks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=25)
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, document = args.func(args)
        # looked up when it runs, so a patched `jsonio.canonical_dumps` is called
        from .jsonio import canonical_dumps

        sys.stdout.write(canonical_dumps(document))
        return code
    except (BudgetExceeded, BoundExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RelfixError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError as exc:
        print(f"error: input nests too deeply ({exc})", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: input needs more memory than is available", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

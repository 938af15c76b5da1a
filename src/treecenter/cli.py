"""Command-line front end: solve instances, verify against the brute-force
oracle over seed ranges, and generate instances.

Every solve runs in exact rational arithmetic. With `--scalar float` the
instance may hold any finite decimals; each is read as a float and then
converted to the `Fraction` of exactly that float before solving."""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .oracle import ORACLE_SIZE_GUARD, oracle_solve
from .scalars import EXACT, FLOAT
from .solver import SolverConfig, solve
from .tree import ParseError, Tree, parse_tree, random_tree, serialize_tree

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_USAGE = 3
EXIT_INTERNAL = 4


def _fraction_str(value) -> str:
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


def _decimal_str(value) -> str:
    return format(float(value), ".17g")


def _center_json(center):
    if center.vertex is not None:
        return {"vertex": center.vertex + 1}
    u, v = center.edge
    return {"edge": [u + 1, v + 1], "offset": _fraction_str(center.offset)}


def run_report(tree, k, mode, result) -> dict:
    return {
        "n": tree.n,
        "k": k,
        "mode": mode,
        "lambda_star": _fraction_str(result.lambda_star),
        "lambda_star_decimal": _decimal_str(result.lambda_star),
        "centers": [_center_json(c) for c in result.centers],
        "tests": result.stats["tests"],
        "wall_ms": round(result.stats.get("wall_ms", 0.0), 3),
    }


def cmd_solve(args) -> int:
    try:
        if args.stdin:
            text = sys.stdin.read()
        else:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        tree, k_file = parse_tree(text, mode=args.scalar)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    k = args.k if args.k is not None else k_file
    if k < 1:
        print("error: k must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    if args.scalar == FLOAT:
        tree = Tree(
            n=tree.n,
            weights=tuple(Fraction(w) for w in tree.weights),
            edges=tuple((u, v, Fraction(length)) for u, v, length in tree.edges),
        )
    result = solve(tree, k, SolverConfig(mode=args.mode))
    report = run_report(tree, k, args.mode, result)
    if args.out == "json":
        print(json.dumps(report, sort_keys=True))
    else:
        print(f"n={report['n']} k={report['k']} mode={report['mode']}")
        print(
            f"lambda* = {report['lambda_star']} "
            f"(= {report['lambda_star_decimal']})"
        )
        print(f"centers ({len(report['centers'])}):")
        for c in report["centers"]:
            if "vertex" in c:
                print(f"  at vertex {c['vertex']}")
            else:
                u, v = c["edge"]
                print(f"  on edge ({u}, {v}) at {c['offset']} from {u}")
        print(f"feasibility tests: {report['tests']}")
    return EXIT_OK


def _parse_seed_range(text: str):
    if ".." in text:
        a, b = text.split("..", 1)
        return int(a), int(b)
    v = int(text)
    return v, v


def cmd_verify(args) -> int:
    try:
        lo, hi = _parse_seed_range(args.seeds)
    except ValueError:
        print("error: bad seed range", file=sys.stderr)
        return EXIT_USAGE
    if lo > hi:
        print("error: empty seed range", file=sys.stderr)
        return EXIT_USAGE
    if args.nmax < 2:
        print("error: nmax must be at least 2", file=sys.stderr)
        return EXIT_USAGE
    if args.nmax > ORACLE_SIZE_GUARD:
        print(f"error: nmax exceeds oracle guard {ORACLE_SIZE_GUARD}", file=sys.stderr)
        return EXIT_USAGE
    import random

    mismatches = 0
    for seed in range(lo, hi + 1):
        rng = random.Random(seed)
        n = rng.randint(2, args.nmax)
        k = rng.randint(1, n)
        tree = random_tree(n, seed=seed)
        want = oracle_solve(tree, k, args.mode)
        got = solve(tree, k, SolverConfig(mode=args.mode)).lambda_star
        if got != want:
            mismatches += 1
            path = f"verify_fail_seed{seed}.tree"
            try:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(serialize_tree(tree, k))
                dump = f"instance dumped to {path}"
            except OSError as exc:
                dump = f"instance not dumped: {exc}"
            print(
                f"seed {seed}: MISMATCH (n={n}, k={k}, mode={args.mode}): "
                f"solver {_fraction_str(got)} oracle {_fraction_str(want)}; {dump}"
            )
        elif not args.quiet:
            print(f"seed {seed}: ok (n={n}, k={k}, lambda*={_fraction_str(got)})")
    if mismatches:
        print(f"{mismatches} mismatches", file=sys.stderr)
        return EXIT_MISMATCH
    print(f"all {hi - lo + 1} seeds match")
    return EXIT_OK


def cmd_gen(args) -> int:
    if args.n < 1:
        print("error: n must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    k = args.k if args.k is not None else max(1, args.n // 10)
    if k < 1:
        print("error: k must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    tree = random_tree(
        args.n,
        seed=args.seed,
        shape=args.shape,
    )
    text = serialize_tree(tree, k)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT
    else:
        sys.stdout.write(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treecenter",
        description="Weighted k-center on trees: exact solver, oracle verifier, instance generator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one instance file")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="instance file path")
    src.add_argument("--stdin", action="store_true", help="read the instance from stdin")
    p.add_argument("--mode", choices=["continuous", "discrete"], default="continuous")
    p.add_argument("--k", type=int, default=None, help="override k from the file")
    p.add_argument("--scalar", choices=[EXACT, FLOAT], default=EXACT,
                   help="input format: integers (exact) or any finite decimals (float); "
                   "both are solved exactly")
    p.add_argument("--out", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="compare solver and oracle over a seed range")
    p.add_argument("--seeds", required=True, help="A..B inclusive")
    p.add_argument("--nmax", type=int, default=150)
    p.add_argument("--mode", choices=["continuous", "discrete"], default="continuous")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="generate a random instance file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--shape", default="uniform-attach",
                   choices=["uniform-attach", "path", "caterpillar", "star"])
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except Exception as exc:  # a fault of the program, not of its input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()

#!/usr/bin/env python3
"""Ad-hoc rows: time chosen instance families, reported and not gated.

    python3 perfbench/row.py --mode continuous,discrete --scalar float \
        --shape uniform-attach --weights 0..20 --n 1024,4096,16384
    python3 perfbench/row.py --mode continuous --scalar float --weights 0..1000000 \
        --shape path,caterpillar,uniform-attach --n 8192 \
        --config "" --config "use_phase0=False,use_phase1=False"

Every combination of the comma lists is one row, as in the ROADMAP
tables: `random_tree(n, seed=1000)` with `k = max(1, n // 50)`, serialized
and parsed like the benchmark, solved once with
`SolverConfig(mode, scalar, **config)`, and certified. A row prints the
solve time, the per-phase test counts, the certificate verdict and, per
doubling of n, the time ratio. Per-layer figures come from a traced
benchmark run (`run.py --trace 1`).
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import itertools
import math
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
SEED = 1000
K_DIV = 50


def parse_config(text: str, fields) -> dict:
    """"use_phase0=False,r=16" -> {"use_phase0": False, "r": 16}."""
    out = {}
    for item in filter(None, (part.strip() for part in text.split(","))):
        key, _, value = item.partition("=")
        if key not in fields or key in ("mode", "scalar"):
            raise SystemExit(f"error: unknown SolverConfig field {key!r}")
        out[key] = ast.literal_eval(value)
    return out


def run_row(mode, scalar, shape, weights, n, config, modules):
    from certify import Instance, certify

    program, solver = modules
    tree = program.random_tree(n, seed=SEED, weight_range=weights, shape=shape)
    text = program.serialize_tree(tree, max(1, n // K_DIV))
    parsed, k = program.parse_tree(text, scalar)
    cfg = solver.SolverConfig(mode=mode, scalar=scalar, **config)
    start = time.perf_counter()
    result = solver.solve(parsed, k, cfg)
    solve_s = time.perf_counter() - start
    return {
        "solve_s": solve_s,
        "tests": result.stats["tests"],
        "certified": certify(Instance(text), result.lambda_star, mode == "discrete",
                             scalar == "exact"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--mode", default="continuous")
    parser.add_argument("--scalar", default="exact")
    parser.add_argument("--shape", default="uniform-attach")
    parser.add_argument("--weights", default="0..1000000", help="LO..HI, comma list allowed")
    parser.add_argument("--n", default="1024")
    parser.add_argument("--config", action="append", default=None,
                        help="SolverConfig overrides, e.g. use_phase0=False,use_phase1=False")
    args = parser.parse_args(argv)

    import treecenter
    from treecenter import solver

    fields = {f.name for f in dataclasses.fields(solver.SolverConfig)}
    configs = [parse_config(c, fields) for c in (args.config or [""])]
    weights = [tuple(int(x) for x in w.split("..")) for w in args.weights.split(",")]
    sizes = [int(x) for x in args.n.split(",")]
    combos = itertools.product(args.mode.split(","), args.scalar.split(","),
                               args.shape.split(","), weights, configs)
    for mode, scalar, shape, wr, config in combos:
        previous = None
        for n in sizes:
            row = run_row(mode, scalar, shape, wr, n, config, (treecenter, solver))
            ratio = ""
            if previous and n != previous[0]:
                per_doubling = (row["solve_s"] / previous[1]) ** (1 / math.log2(n / previous[0]))
                ratio = f"x{per_doubling:.2f}/2n"
            previous = (n, row["solve_s"])
            tests = " ".join(f"{p}={c}" for p, c in row["tests"].items())
            print(f"{mode:10s} {scalar:5s} {shape:14s} w{wr[0]}..{wr[1]} n={n:<7d} "
                  f"{config or 'default'}: {row['solve_s']:.3f} s {ratio:9s} {tests} "
                  f"certified={row['certified']}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

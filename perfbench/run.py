#!/usr/bin/env python3
"""Closed-loop benchmark of the treecenter solver: one client, no threads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The workload's instances are generated
from the seed, serialized, and handed to the program as text only. The
run imports the program and parses them (set-up, timed again at
intervals during the run), then solves them back to back in passes until
the time is spent, and certifies every answer exactly outside the timed
region. Times are wall seconds. Untraced (`--trace 0`) it reports the
end-to-end metrics, the peak memory from a separate process (`memory.py`)
that only parses and solves each instance once; traced (`--trace 1`) it
alternates untraced and traced passes and reports the per-layer metrics
of `layers.py`. A table goes to standard output, the
full result (and, traced, the spans) to `perfbench/results/`, and the
last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPS = 9
# Set-up repetitions are spread over the run: one after an untraced solve
# whenever the repetitions so far took less than SETUP_SHARE of the time
# of the solves so far, and what is missing of SETUP_REPS at the end. The
# host switches between speed states that last from a fraction of a
# second to seconds, and repetitions back to back, all within one second,
# caught only one state.
SETUP_SHARE = 0.1

END_TO_END = {
    "solve_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile of a nonempty sample."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    i = int(pos)
    if i + 1 >= len(xs):
        return xs[-1]
    return xs[i] + (xs[i + 1] - xs[i]) * (pos - i)


def load_program() -> None:
    if not (SRC / "treecenter" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source under {SRC}")
    sys.path.insert(0, str(SRC))


def program_modules() -> list:
    return [m for m in sys.modules if m == "treecenter" or m.startswith("treecenter.")]


class Setup:
    """Timed set-ups: import the program and parse every instance text."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.seconds = []
        self.solved_s = 0.0  # untraced solve time so far

    def run(self):
        """Time one set-up in fresh program modules; returns (solver module,
        parsed (tree, k) list), which the run then uses."""
        for name in program_modules():
            del sys.modules[name]
        gc.collect()
        start = time.perf_counter()
        program = importlib.import_module("treecenter")
        solver = importlib.import_module("treecenter.solver")
        parsed = [program.parse_tree(job.text, job.scalar) for job in self.jobs]
        self.seconds.append(time.perf_counter() - start)
        return solver, parsed

    def repeat(self) -> None:
        """Time one more set-up, then put the run's own modules back."""
        kept = {name: sys.modules[name] for name in program_modules()}
        self.run()
        for name in program_modules():
            del sys.modules[name]
        sys.modules.update(kept)

    def after_solve(self, seconds: float) -> None:
        """Count an untraced solve, then time a set-up if they are behind."""
        self.solved_s += seconds
        if sum(self.seconds) < SETUP_SHARE * self.solved_s:
            self.repeat()

    def median(self) -> float:
        while len(self.seconds) < SETUP_REPS:
            self.repeat()
        return statistics.median(self.seconds)


class Outcome:
    """Solve times and answers of one job."""

    def __init__(self):
        self.seconds = {False: [], True: []}  # keyed by traced, one entry per pass
        self.answers = []  # lambda_star per solve, or an error string


class Passes:
    """Outcomes, pass counts and traced recorders of one run."""

    def __init__(self, jobs):
        self.outcomes = [Outcome() for _ in jobs]
        self.count = {False: 0, True: 0}
        self.traced = []  # (recorder, summed test counts)

    def solve_s(self, traced: bool = False) -> float:
        return sum(statistics.median(out.seconds[traced]) for out in self.outcomes)


def run_pass(solver, jobs, parsed, passes: Passes, solve, traced: bool, setup=None):
    """Solve every job once, telling `setup` (if given) of each solve.
    Returns the summed per-phase test counts (None for a phase not
    reported)."""
    tests = {}
    for job, (tree, k), out in zip(jobs, parsed, passes.outcomes):
        config = solver.SolverConfig(mode=job.mode, scalar=job.scalar)
        gc.collect()
        start = time.perf_counter()
        try:
            result = solve(tree, k, config)
        except Exception as exc:  # a failed solve is counted, not fatal
            end = time.perf_counter()
            out.answers.append(f"{type(exc).__name__}: {exc}")
        else:
            end = time.perf_counter()
            out.answers.append(result.lambda_star)
            phase_tests = result.stats.get("tests", {}) if isinstance(result.stats, dict) else {}
            for phase in ("pre", "phase0", "phase1", "phase2"):
                if phase in phase_tests and tests.get(phase, 0) is not None:
                    tests[phase] = tests.get(phase, 0) + phase_tests[phase]
                else:
                    tests[phase] = None
        out.seconds[traced].append(end - start)
        if setup is not None:
            setup.after_solve(end - start)
    passes.count[traced] += 1
    return tests


def certify_all(workload, jobs, outcomes):
    """Certify every answer: ((attempted, failed), (known attempted, known failed), notes).

    A failure is a solve that raised or whose answer the certificate
    rejects. Solves of a (mode, scalar) pair that the workload lists as a
    known defect are counted apart, in the second pair; all others in the
    first, which is what the result line reports and gates.
    """
    from certify import Instance, certify

    counts = {True: [0, 0], False: [0, 0]}  # keyed by gated: [attempted, failed]
    notes = {}
    for job, out in zip(jobs, outcomes):
        inst = Instance(job.text)
        verdicts = {}
        tally = counts[workload.gates(job)]
        for answer in out.answers:
            tally[0] += 1
            if isinstance(answer, str):
                ok = False
                notes[job.label] = answer
            else:
                key = (type(answer).__name__, answer)
                if key not in verdicts:
                    verdicts[key] = certify(inst, answer, job.mode == "discrete",
                                            job.scalar == "exact")
                ok = verdicts[key]
                if not ok:
                    notes[job.label] = f"certificate rejected {answer!r}"
            if not ok:
                tally[1] += 1
                if not workload.gates(job):
                    notes[job.label] += " (known defect, not gated)"
    return tuple(counts[True]), tuple(counts[False]), notes


def measure(args, jobs, solver, parsed, setup: Setup):
    """Run passes until the time is spent; traced runs alternate the kinds.

    An untraced run keeps time for the memory pass that follows it, about
    one more pass, so that the whole run stays near `--seconds`.
    """
    passes = Passes(jobs)
    tracer = None
    if args.trace:
        from layers import Recorder, Tracer

        tracer = Tracer()
    last = {False: 0.0, True: 0.0}
    kept = 1 if args.trace else 2
    traced = False
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        if traced:
            rec = Recorder()
            tracer.install(rec)
            try:
                parse = rec.wrap(sys.modules["treecenter"].parse_tree, "parse_tree", "tree.parse")
                for job in jobs:
                    parse(job.text, job.scalar)
                solve = rec.wrap(solver.solve, "solve", "solver.solve")
                tests = run_pass(solver, jobs, parsed, passes, solve, traced=True)
            finally:
                tracer.uninstall()
            passes.traced.append((rec, tests))
        else:
            run_pass(solver, jobs, parsed, passes, solver.solve, traced=False,
                     setup=None if args.trace else setup)
        last[traced] = time.perf_counter() - began
        if args.trace:
            traced = not traced
        spent = time.perf_counter() - start
        if spent + kept * last[traced] > args.seconds and (not args.trace or passes.traced):
            break
    return passes, tracer


def peak_rss_mb(jobs) -> float:
    """Peak resident set of a fresh process that parses and solves every job once."""
    payload = json.dumps([[job.text, job.mode, job.scalar] for job in jobs])
    done = subprocess.run([sys.executable, str(BENCH / "memory.py")], input=payload,
                          capture_output=True, text=True, timeout=150, check=True)
    return float(done.stdout.split()[-1])


def end_to_end(passes: Passes, setup_s: float, jobs) -> dict:
    times = [t for out in passes.outcomes for t in out.seconds[False]]
    return {
        "solve_s": passes.solve_s(),
        "latency_p50_ms": 1000 * quantile(times, 0.5),
        "latency_p90_ms": 1000 * quantile(times, 0.9),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(jobs),
    }


def per_layer(passes: Passes, tracer):
    """(values, missing) of the traced passes."""
    from layers import PER_LAYER, layer_values, missing_metrics

    per_pass = []
    missing = {}
    for rec, tests in passes.traced:
        values = layer_values(rec, tests)
        missing.update(missing_metrics(tracer.missing, values, rec))
        per_pass.append(values)
    values = {}
    for name in PER_LAYER:
        if name != "trace.overhead_ratio" and name not in missing:
            values[name] = statistics.median(v[name] for v in per_pass)
    values["trace.overhead_ratio"] = passes.solve_s(traced=True) / passes.solve_s()
    return values, missing


def write_spans(path: Path, rec) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for i, span in enumerate(rec.spans):
            if span is not None:
                name, start, end, parent = span
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


def main(argv=None) -> int:
    from workloads import WORKLOADS, make_jobs

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=str(BENCH / "results"),
                        help="directory for the result file (default: %(default)s)")
    args = parser.parse_args(argv)

    load_program()
    workload = WORKLOADS[args.workload]
    jobs = make_jobs(workload, args.seed)
    setup = Setup(jobs)
    solver, parsed = setup.run()
    passes, tracer = measure(args, jobs, solver, parsed, setup)
    (attempted, failed), (known_attempted, known_failed), notes = certify_all(
        workload, jobs, passes.outcomes)

    if args.trace:
        from layers import PER_LAYER

        values, missing = per_layer(passes, tracer)
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    else:
        values, missing, units = end_to_end(passes, setup.median(), jobs), {}, END_TO_END
    error_ratio = (failed + known_failed) / (attempted + known_attempted)

    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{len(jobs)} instances x {passes.count[False] + passes.count[True]} passes, "
          f"{attempted} gated solves, {failed} failed")
    if known_attempted:
        print(f"  known defect (not gated): {known_failed} of {known_attempted} solves failed")
    print(f"  {'error_ratio':32s} {error_ratio:.6g} ratio (all solves)")
    for name, value in values.items():
        print(f"  {name:32s} {value:.6g} {units[name]}")
    for name, why in sorted(missing.items()):
        print(f"  {name:32s} missing ({why})")
    for label, note in sorted(notes.items()):
        print(f"  failed {label}: {note}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    out_dir = Path(args.results)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    record = dict(result, workload=workload.name, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, error_ratio=error_ratio, missing=missing,
                  known_defect_attempted=known_attempted, known_defect_failed=known_failed,
                  failures=notes, setup_each_s=setup.seconds,
                  spans_dropped=passes.traced[0][0].dropped if passes.traced else 0,
                  jobs=[{"label": job.label, "measured_s": out.seconds[False],
                         "traced_measured_s": out.seconds[True]}
                        for job, out in zip(jobs, passes.outcomes)])
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if passes.traced:
        write_spans(out_dir / f"{stem}.spans.jsonl", passes.traced[0][0])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

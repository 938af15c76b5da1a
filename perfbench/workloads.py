"""The benchmark's workloads: seeded instance lists in the program's text format.

Every instance is drawn with `treecenter.random_tree` (integer weights and
edge lengths) and serialized with `serialize_tree`; the program under test
only ever receives that text. One seed always yields the same list.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WIDE = (0, 10**6)
SHAPES = ("uniform-attach", "path", "caterpillar", "star")


@dataclass(frozen=True)
class Job:
    """One solve: the instance text plus how the program is asked to solve it."""

    label: str
    text: str
    mode: str  # "continuous" or "discrete"
    scalar: str  # "exact" or "float"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    spec: object  # callable (rng) -> list of (mode, scalar, shape, weights, n, k)
    # (mode, scalar) pairs whose failures are a known defect: their solves
    # are timed like every other, but counted and reported apart from the
    # result line's `attempted` and `failed`, so they do not make the run
    # incorrect
    known_defects: tuple = ()

    def gates(self, job: Job) -> bool:
        """Whether a failure of `job` makes the run incorrect."""
        return (job.mode, job.scalar) not in self.known_defects


def _cont_exact_wide(rng):
    # the default mode users run; the arrangement search does almost all
    # the work, phases 1-2 run real tests on the path and the caterpillar
    return [("continuous", "exact", shape, WIDE, 96, 96 // 50)
            for shape in ("uniform-attach", "path", "caterpillar") for _ in range(4)]


def _disc_exact_wide(rng):
    # msearch square-splitting dominates on 1-row discrete arrays; three
    # paths to two caterpillars keep the median latency inside one shape
    # instead of in the gap between the two
    return [("discrete", "exact", shape, WIDE, 192, 192 // 50)
            for shape, count in (("path", 3), ("caterpillar", 2)) for _ in range(count)]


def _small_mixed(rng):
    # fixed per-solve cost dominates. Every shape, mode and scalar is solved
    # at five sizes near 12, 33, 54, 75 and 96; k is a fraction of n/4 drawn
    # stratified over the whole list, so every seed gets the same spread
    combos = [(shape, mode, scalar) for shape in SHAPES
              for mode in ("continuous", "discrete") for scalar in ("exact", "float")]
    count = 5 * len(combos)
    k_slots = rng.sample(range(count), count)
    out = []
    for size in (12, 33, 54, 75, 96):
        for shape, mode, scalar in combos:
            n = size + rng.randint(-3, 3)
            k = 1 + int(n // 4 * (k_slots[len(out)] + rng.random()) / count)
            out.append((mode, scalar, shape, WIDE, n, k))
    return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cont-exact-wide",
                 "default continuous exact mode; the arrangement search dominates, msearch is idle",
                 _cont_exact_wide),
        Workload("disc-exact-wide",
                 "discrete exact paths and caterpillars; msearch dominates, the arrangement runs once",
                 _disc_exact_wide),
        # continuous float solves return wrong optima, or trip the solver's
        # own "infeasible optimum" check, on some small instances (ROADMAP,
        # float mode is wrong today); the run reports them as failed
        Workload("small-mixed",
                 "many small solves of every shape, mode and scalar; fixed per-solve cost dominates",
                 _small_mixed, known_defects=(("continuous", "float"),)),
    )
}


def make_jobs(workload: Workload, seed: int) -> list:
    """The workload's instance list for `seed`, as program input text."""
    from treecenter import random_tree, serialize_tree

    rng = random.Random(f"{workload.name}/{seed}")
    jobs = []
    for mode, scalar, shape, weights, n, k in workload.spec(rng):
        tree = random_tree(n, seed=rng.randrange(2**32), weight_range=weights, shape=shape)
        label = f"{shape}/{mode}/{scalar}/n{n}/k{k}"
        jobs.append(Job(label, serialize_tree(tree, max(1, k)), mode, scalar))
    return jobs

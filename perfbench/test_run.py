"""Which failures make a run incorrect, and how set-ups are repeated.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from run import SETUP_REPS, Outcome, Setup, certify_all, program_modules  # noqa: E402
from workloads import WORKLOADS, Job  # noqa: E402
from treecenter import random_tree, serialize_tree  # noqa: E402

TEXT = serialize_tree(random_tree(6, seed=1, weight_range=(0, 9)), 1)


def failed_run(workload, mode, scalar):
    """certify_all on one job whose single solve raised."""
    out = Outcome()
    out.answers.append("AssertionError: solver produced an infeasible optimum")
    job = Job("job", TEXT, mode, scalar)
    return certify_all(WORKLOADS[workload], [job], [out])


def test_raise_is_gated_outside_the_known_defect():
    for workload, mode, scalar in (("small-mixed", "continuous", "exact"),
                                   ("small-mixed", "discrete", "float"),
                                   ("cont-exact-wide", "continuous", "float"),
                                   ("disc-exact-wide", "discrete", "float")):
        gated, known, notes = failed_run(workload, mode, scalar)
        assert (gated, known) == ((1, 1), (0, 0)), (workload, mode, scalar)


def test_known_defect_is_counted_apart_and_not_gated():
    gated, known, notes = failed_run("small-mixed", "continuous", "float")
    assert (gated, known) == ((0, 0), (1, 1))
    assert "known defect" in notes["job"]


def test_rejected_float_answer_is_gated_outside_the_known_defect():
    out = Outcome()
    out.answers.append(-1.0)
    job = Job("job", TEXT, "discrete", "float")
    assert certify_all(WORKLOADS["small-mixed"], [job], [out])[0] == (1, 1)


def test_repeated_setup_keeps_the_run_modules():
    before = {name: sys.modules[name] for name in program_modules()}
    try:
        setup = Setup([Job("job", TEXT, "discrete", "exact")])
        solver, parsed = setup.run()
        setup.repeat()
        assert sys.modules["treecenter.solver"] is solver
        assert setup.median() > 0 and len(setup.seconds) == SETUP_REPS
    finally:
        for name in program_modules():
            del sys.modules[name]
        sys.modules.update(before)

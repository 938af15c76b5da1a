"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. Everything uses exact
rational arithmetic and fixed seeds; expected values come from the
independent brute-force oracles.
"""

import math
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from treecenter.arrangement import find_boundary_vertices
from treecenter.feasibility import ftest0_feasible
from treecenter.oracle import (
    candidate_values,
    enumerate_arrangement_vertices,
    oracle_arrangement,
    oracle_solve,
    oracle_sublist_lowest,
)
from treecenter.solver import SolverConfig, _Session, solve
from treecenter.sorted_matrix import LambdaRange, SortedMatrix, msearch
from treecenter.stems import stem_arrays_discrete, stem_matrices_continuous, stem_lines
from treecenter.sublist_lp import EnvelopeIndex, HalfPlane, upper_envelope
from treecenter.tree import random_tree, root_at

from test_stems import random_stem, stem_tester

N_EXACTNESS = 500
SEED_BASE = 911_000


def _exactness_run(mode):
    rng = random.Random(SEED_BASE + (1 if mode == "continuous" else 2))
    recorded = []
    for i in range(N_EXACTNESS):
        n = rng.randint(2, 200)
        tree = random_tree(
            n,
            seed=rng.randrange(10**7),
            weight_range=(0, 20),
            length_range=(1, 20),
        )
        k = rng.randint(1, n)
        want = oracle_solve(tree, k, mode)
        res = solve(tree, k, SolverConfig(mode=mode, record_tests=True))
        assert res.lambda_star == want, (n, k, i)
        recorded.append((tree, k, res.tested))
    return recorded


@pytest.fixture(scope="module")
def continuous_runs():
    return _exactness_run("continuous")


@pytest.fixture(scope="module")
def discrete_runs():
    return _exactness_run("discrete")


def test_criterion_1_exactness_continuous(continuous_runs):
    assert len(continuous_runs) == N_EXACTNESS
    print(f"\nACCEPTANCE 1 exactness-continuous ({N_EXACTNESS} instances): PASS")


def test_criterion_2_exactness_discrete(discrete_runs):
    assert len(discrete_runs) == N_EXACTNESS
    print(f"\nACCEPTANCE 2 exactness-discrete ({N_EXACTNESS} instances): PASS")


def test_criterion_3_fast_test_equivalence(continuous_runs, discrete_runs):
    def replay(runs, discrete):
        """Kinds of the replayed verdicts. Every test after preprocessing
        ran on the reduced tree (or is the fast test over its tables), and
        must agree with the linear test on the original tree."""
        kinds = []
        for tree, k, tested in runs:
            rooted = root_at(tree, 0)
            for phase, kind, lam, verdict in tested:
                if phase == "pre":
                    continue
                assert ftest0_feasible(rooted, lam, k, discrete) == verdict
                kinds.append(kind)
        return kinds

    checked = replay(continuous_runs, False) + replay(discrete_runs, True)
    assert checked, "the default solves made no test on the reduced tree"
    # few values survive to the fast test at n <= 200, so also drive solver
    # runs with small blocks and grill the frozen fast test on a dense grid
    rng = random.Random(SEED_BASE + 3)
    gridded = 0
    for mode in ("continuous", "discrete"):
        discrete = mode == "discrete"
        for _ in range(60):
            n = rng.randint(8, 150)
            tree = random_tree(n, seed=rng.randrange(10**7))
            k = rng.randint(1, n)
            res = solve(
                tree, k, SolverConfig(mode=mode, r=rng.choice([3, 4, 6]),
                                      use_phase1=True, record_tests=True)
            )
            assert res.lambda_star == oracle_solve(tree, k, mode)
            checked += replay([(tree, k, res.tested)], discrete)
            session = _Session(tree, k, SolverConfig(mode=mode, r=4, use_phase1=True))
            if ftest0_feasible(session.rooted, 0, k, discrete):
                continue
            session.preprocess()
            session.phase0()
            session.phase1()
            lo, hi = session.range.lo, session.range.hi
            for t in range(20):
                lam = lo + (hi - lo) * Fraction(rng.randint(1, 9999), 10000)
                assert session.fast(lam) == ftest0_feasible(
                    session.rooted, lam, k, discrete
                )
                gridded += 1
    assert {"ftest1", "dftest1"} <= set(checked) and gridded >= 1500
    fast = sum(kind in ("ftest1", "dftest1") for kind in checked)
    print(
        f"\nACCEPTANCE 3 fast-test equivalence ({len(checked)} replayed "
        f"tests, {fast} of them fast, and {gridded} gridded tests): PASS"
    )


# ----------------------------------------------------------------------


def _random_planes(rng, m):
    out = []
    for _ in range(m):
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
        b = Fraction(rng.randint(-50, 50), rng.randint(1, 3))
        out.append(HalfPlane(a, b))
    return out


def _direct_lowest(planes):
    """One-shot envelope construction, independent of the range tree."""
    if min(p.a for p in planes) > 0 or max(p.a for p in planes) < 0:
        return None
    env, breaks = upper_envelope([(p.a, p.b) for p in planes])
    k = 0
    while k < len(env) and env[k][0] < 0:
        k += 1
    if k == 0:
        x = breaks[0] if env[0][0] == 0 and breaks else 0
    else:
        x = breaks[k - 1]
    return x, max(a * x + b for a, b in env)


def test_criterion_4_sublist_structure():
    rng = random.Random(SEED_BASE + 4)
    sizes = [rng.randint(1, 24) for _ in range(88)]
    sizes += [rng.randint(25, 64) for _ in range(8)]
    sizes += [96, 128, 128, 256]
    assert len(sizes) == 100 and max(sizes) <= 256
    queries = 0
    for m in sizes:
        planes = _random_planes(rng, m)
        idx = EnvelopeIndex(planes)
        pairs = [(i, j) for i in range(m) for j in range(i + 1, m + 1)]
        if m > 128:
            pairs = rng.sample(pairs, 3000)
        for lo, hi in pairs:
            got = idx.query_lowest(lo, hi)
            if m <= 24:
                want = oracle_sublist_lowest(planes, lo, hi)
            else:
                want = _direct_lowest(planes[lo:hi])
            if want is None:
                assert got is None
            else:
                assert got is not None and got[1] == want[1]
            x0 = Fraction(rng.randint(-40, 40), rng.randint(1, 3))
            assert idx.query_on_line(lo, hi, x0) == max(
                p.a * x0 + p.b for p in planes[lo:hi]
            )
            if m <= 24:
                extra = _random_planes(rng, 1)[0]
                ge = idx.query_lowest_extra(lo, hi, extra)
                we = oracle_sublist_lowest(planes, lo, hi, extra)
                if we is None:
                    assert ge is None
                else:
                    assert ge is not None and ge[1] == we[1]
            queries += 1
    print(f"\nACCEPTANCE 4 sublist lowest-point structure ({queries} ranges): PASS")


def test_criterion_5_matrix_search_engine():
    rng = random.Random(SEED_BASE + 5)
    for trial in range(100):
        mats = []
        values = []
        maxdim = 0
        total = 0
        target = rng.randint(64, 4096)
        while total < target:
            r = rng.randint(1, 12)
            c = rng.randint(max(r, 8), 64)
            rows = sorted((rng.randint(0, 10**5) for _ in range(r)), reverse=True)
            cols = sorted((rng.randint(0, 10**5) for _ in range(c)), reverse=True)
            data = [[rows[i] + cols[j] for j in range(c)] for i in range(r)]
            mats.append(SortedMatrix(rows=r, cols=c, eval=lambda i, j, d=data: d[i][j]))
            values.extend(v for row in data for v in row)
            maxdim = max(maxdim, c)
            total += r * c
        theta = rng.choice(values)
        rng_band = LambdaRange(min(values) - 1, max(values) + 1)
        calls = 0

        def tester(lam):
            nonlocal calls
            calls += 1
            return lam >= theta

        res = msearch(mats, rng_band, 0, tester)
        assert res.remaining == 0
        assert rng_band.hi == min(v for v in values if v >= theta)
        assert calls <= 4 * math.log2(maxdim) + 8, (trial, calls, maxdim)
    print("\nACCEPTANCE 5 sorted-matrix search engine (100 pools): PASS")


def test_criterion_6_arrangement_search():
    rng = random.Random(SEED_BASE + 6)
    total_calls = 0
    total_budget = 0.0
    runs = 0
    from treecenter.arrangement import Line

    while runs < 100:
        m = rng.randint(2, 128)
        lines = []
        for t in range(m):
            a = Fraction(rng.randint(-8, 8), rng.randint(1, 2))
            b = Fraction(rng.randint(-60, 60), rng.randint(1, 2))
            lines.append(Line(a, b, t, bias=1 if t % 2 else -1))
        verts = enumerate_arrangement_vertices(lines)
        if not verts:
            continue
        runs += 1
        ys = sorted({v[0] for v in verts})
        pool = [ys[0] - 1, ys[-1] + 1] + ys
        pool += [(a + b) / 2 for a, b in zip(ys, ys[1:])]
        theta = rng.choice(pool)
        calls = 0

        def tester(lam):
            nonlocal calls
            calls += 1
            return lam >= theta

        want1, want2 = oracle_arrangement(lines, lambda lam: lam >= theta)
        band = LambdaRange(ys[0] - 1, ys[-1] + 1)
        find_boundary_vertices(lines, band, tester, rng)
        assert band.hi == (ys[-1] + 1 if want1 is None else want1[1])
        assert band.lo == (ys[0] - 1 if want2 is None else want2[1])
        total_calls += calls
        total_budget += 3 * math.log2(m) + 5
    assert total_calls <= total_budget, (total_calls, total_budget)
    print(
        f"\nACCEPTANCE 6 arrangement boundary search "
        f"(mean {total_calls / runs:.2f} calls vs budget {total_budget / runs:.2f}): PASS"
    )


def test_criterion_7_stem_candidate_membership():
    rng = random.Random(SEED_BASE + 7)
    for trial in range(100):
        stem, band = random_stem(rng, max_m=16, discrete=False)
        lam_star, k = stem._lam, stem._k
        mats, _ = stem_matrices_continuous(stem)
        values = {
            mats[0].value(i, j)
            for i in range(mats[0].rows)
            for j in range(mats[0].cols)
        }
        for mat in mats[1:]:
            values.update(mat.value(0, j) for j in range(mat.cols))
        assert lam_star in values, trial
        tester = stem_tester(stem, k, False)
        r1 = LambdaRange(band.lo, band.hi)
        find_boundary_vertices(stem_lines(stem), r1, tester, rng)
        r2 = LambdaRange(band.lo, band.hi)
        msearch(mats, r2, 0, tester)
        assert r1.hi == r2.hi == lam_star, trial
    for trial in range(100):
        stem, band = random_stem(rng, max_m=16, discrete=True)
        lam_star, k = stem._lam, stem._k
        mats, _ = stem_arrays_discrete(stem)
        values = set()
        for mat in mats:
            values.update(mat.value(0, j) for j in range(mat.cols))
        assert lam_star in values, trial
        r = LambdaRange(band.lo, band.hi)
        msearch(mats, r, 0, stem_tester(stem, k, True))
        assert r.hi == lam_star, trial
    print("\nACCEPTANCE 7 stem candidate membership and route agreement (200 stems): PASS")


def _check_reduction(tree, k, config):
    """Phase 0 is faithful strictly inside its final bracket (lo, hi]: there
    the reduced tree with the remaining budget gives the original verdicts.
    Returns the number of probed values."""
    import treecenter.solver as SV

    mode = config.mode
    discrete = mode == "discrete"
    want = oracle_solve(tree, k, mode)
    s = _Session(tree, k, config)
    s.preprocess()
    try:
        s.phase0()
    except SV._BudgetExhausted:
        assert want == s.range.hi
        return 0
    lo, hi = s.range.lo, s.range.hi
    rooted_red = s.working.materialize()
    inside = [v for v in candidate_values(tree, mode) if lo < v < hi]
    ends = [lo] + inside + [hi]
    probes = inside + [(a + b) / 2 for a, b in zip(ends, ends[1:])]
    for lam in probes:
        assert ftest0_feasible(s.rooted, lam, k, discrete) == ftest0_feasible(
            rooted_red, lam, s.k_work, discrete
        ), lam
    got = oracle_solve(rooted_red.tree, max(s.k_work, 1), mode)
    if want < hi:
        assert got == want
    else:
        # at hi the reduction need not be faithful; the solver never tests hi
        assert want == hi and got >= want
        assert solve(tree, k, config).lambda_star == want
    return len(probes)


def test_criterion_8_reduction_preserves_optimum():
    rng = random.Random(SEED_BASE + 8)
    checked = 0
    probes = 0
    while checked < 200:
        n = rng.randint(4, 64)
        tree = random_tree(n, seed=rng.randrange(10**7))
        k = rng.randint(1, n)
        mode = "discrete" if checked % 2 else "continuous"
        config = SolverConfig(mode=mode, r=rng.choice([2, 3, 4]))
        if ftest0_feasible(root_at(tree, 0), 0, k, mode == "discrete"):
            continue
        checked += 1
        probes += _check_reduction(tree, k, config)
    # the bracket ends at hi == lambda* and the reduced optimum lies above it
    probes += _check_reduction(
        random_tree(14, seed=2642598), 8, SolverConfig(mode="continuous", r=4)
    )
    print(
        f"\nACCEPTANCE 8 leaf-stem reduction is faithful inside the bracket "
        f"(201 trees, {probes} probes): PASS"
    )


def test_criterion_9_scaling_report():
    """Runs the benchmark's scaling rows: every row must be certified
    optimal; the time ratios per doubling are reported, not asserted.

    Larger rows are a manual run of the same script, e.g.
    python perfbench/row.py --mode continuous,discrete --n 4096,8192,16384
    """
    repo = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, str(repo / "perfbench" / "row.py"),
         "--mode", "continuous,discrete", "--n", "256,512"],
        capture_output=True, text=True, check=False, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()
    assert len(rows) == 4
    assert all(row.endswith("certified=True") for row in rows)
    ratios = [re.search(r" n=512 .* x\d+\.\d+/2n ", row) for row in rows[1::2]]
    assert all(ratios), rows
    print("\nACCEPTANCE 9 scaling rows certified (time ratios reported, not asserted): PASS")

import random
from fractions import Fraction

import pytest

from treecenter.feasibility import dftest0, ftest0, ftest0_feasible
from treecenter.oracle import oracle_solve
from treecenter.solver import (
    SolverConfig,
    _Session,
    default_r,
    solve,
)
from treecenter.sorted_matrix import LambdaRange
from treecenter.stems import stem_arrays_discrete, stem_matrices_continuous
from treecenter.tree import random_tree, root_at

from conftest import F, make_tree, path_tree


def test_solve_path_weighted():
    tree = path_tree([1, 3], [4])
    res = solve(tree, 1)
    assert res.lambda_star == 3
    (c,) = res.centers
    # the single center sits at distance 3 from the unit-weight endpoint
    assert c.edge is not None and {c.edge[0], c.edge[1]} == {0, 1}
    off_from_v0 = c.offset if c.edge[0] == 0 else 4 - c.offset
    assert off_from_v0 == 3


def test_solve_unit_path_two_centers():
    tree = path_tree([1] * 5, [1] * 4)
    assert solve(tree, 2).lambda_star == 1


def test_solve_k_at_least_n():
    tree = path_tree([1] * 5, [1] * 4)
    res = solve(tree, 5)
    assert res.lambda_star == 0
    assert len(res.centers) <= 5


def test_solve_discrete_path():
    tree = path_tree([1, 3], [4])
    assert solve(tree, 1, SolverConfig(mode="discrete")).lambda_star == 4


def test_solve_single_vertex():
    tree = make_tree([7], [])
    res = solve(tree, 1)
    assert res.lambda_star == 0 and res.centers[0].vertex == 0


def test_solve_rejects_k_zero():
    tree = path_tree([1, 1], [1])
    with pytest.raises(ValueError):
        solve(tree, 0)


def test_preprocess_brackets_optimum():
    tree = path_tree([1, 1], [2])
    s = _Session(tree, 1, SolverConfig())
    s.preprocess()
    assert s.range.lo < 1 <= s.range.hi


def test_preprocess_star_deterministic():
    tree = make_tree([1, 1, 1, 1], [(0, 1, 2), (0, 2, 2), (0, 3, 2)])
    ranks = []
    for _ in range(2):
        s = _Session(tree, 1, SolverConfig())
        s.preprocess()
        ranks.append(s.ranks)
    assert ranks[0] == ranks[1]


def full_binary_tree(depth):
    n = 2 ** depth - 1
    edges = [(v, (v - 1) // 2, 1) for v in range(1, n)]
    return make_tree([1] * n, [((v - 1) // 2, v, 1) for v in range(1, n)])


def test_phase0_identity_when_few_leaves():
    tree = path_tree([1] * 6, [1] * 5)
    s = _Session(tree, 2, SolverConfig())
    s.preprocess()
    alive_before = set(s.working.alive)
    s.phase0()
    assert s.working.alive == alive_before


def test_phase0_leaf_count_decreases():
    # a full binary tree has (n - 1) / 2 < n / 2 non-root leaves, so the
    # limit 2n/r cuts into them only for r > 4
    tree = full_binary_tree(6)  # n = 63
    r = 16
    s = _Session(tree, 3, SolverConfig(r=r))
    s.preprocess()
    s.phase = "phase0"
    limit = 2 * tree.n / r
    counts = [s.working.leaf_count()]
    while counts[-1] > limit:
        stems = s.working.leaf_stems(max_len=r)
        s._reduce(s._narrow(stems, cut=sum(st.m for st in stems) // (2 * r)))
        counts.append(s.working.leaf_count())
        assert counts[-1] < counts[-2]
    assert len(counts) >= 3


@pytest.mark.parametrize("mode", ["continuous", "discrete"])
def test_phase0_preserves_optimum(mode):
    rng = random.Random(55)
    for _ in range(20):
        n = rng.randint(6, 48)
        tree = random_tree(n, seed=rng.randrange(10**6))
        k = rng.randint(1, max(1, n // 2))
        want = oracle_solve(tree, k, mode)
        s = _Session(tree, k, SolverConfig(mode=mode, r=3))
        if ftest0_feasible(s.rooted, 0, k, mode == "discrete"):
            continue
        s.preprocess()
        import treecenter.solver as SV

        try:
            s.phase0()
        except SV._BudgetExhausted:
            assert want == s.range.hi
            continue
        # the reduced instance, solved with the remaining budget, has the
        # same optimum as the original
        rooted_red = s.working.materialize()
        got = oracle_solve(rooted_red.tree, max(s.k_work, 1), mode)
        assert got == want
        assert s.range.lo < want <= s.range.hi


def test_phase1_no_active_candidate_values():
    rng = random.Random(66)
    for mode in ("continuous", "discrete"):
        for _ in range(8):
            n = rng.randint(4, 30)
            tree = random_tree(n, seed=rng.randrange(10**6))
            k = rng.randint(1, max(1, n // 2))
            s = _Session(tree, k, SolverConfig(mode=mode, r=3, use_phase1=True))
            if ftest0_feasible(s.rooted, 0, k, mode == "discrete"):
                continue
            s.preprocess()
            s.phase0()
            s.phase1()
            from treecenter.solver import _chop

            r = max(2, 3)
            for stem in s.working.stems():
                for sub in _chop(stem, r):
                    if mode == "discrete":
                        mats = stem_arrays_discrete(sub)[0]
                    else:
                        mats = stem_matrices_continuous(sub)[0]
                    for mat in mats:
                        for i in range(mat.rows):
                            for j in range(mat.cols):
                                assert not s.range.contains_open(mat.value(i, j))


def test_stem_tree_structure():
    tree = make_tree(
        [1] * 7,
        [(0, 1, 1), (1, 2, 1), (2, 3, 1), (2, 4, 1), (4, 5, 1), (4, 6, 1)],
    )
    s = _Session(tree, 2, SolverConfig(r=2, use_phase1=True))
    s.preprocess()
    s.phase1()
    tabs = s.fast.tabs
    children = s.fast.children
    # every child's top vertex is its parent's bottom vertex
    for pi, kids in enumerate(children):
        for c in kids:
            assert tabs[c].stem.backbone[-1] == tabs[pi].stem.backbone[0]
    order = s.fast.postorder
    seen = set()
    for idx in order:
        for c in children[idx]:
            assert c in seen
        seen.add(idx)


@pytest.mark.parametrize("mode", ["continuous", "discrete"])
def test_fast_test_agrees_with_scan(mode):
    rng = random.Random(44)
    discrete = mode == "discrete"
    trees = 0
    while trees < 60:
        n = rng.randint(3, 150)
        tree = random_tree(n, seed=rng.randrange(10**6))
        k = rng.randint(1, n)
        s = _Session(tree, k, SolverConfig(mode=mode, use_phase1=True))
        if ftest0_feasible(s.rooted, 0, k, discrete):
            continue
        trees += 1
        s.preprocess()
        s.phase0()
        s.phase1()
        for i in range(12):
            lam = s.range.lo + (s.range.hi - s.range.lo) * F(
                rng.randint(1, 9999), 10000
            )
            assert s.fast(lam) == ftest0_feasible(s.rooted, lam, k, discrete)


def test_fast_test_rejects_out_of_bracket():
    tree = path_tree([1, 2, 3], [2, 2])
    s = _Session(tree, 1, SolverConfig(use_phase1=True))
    s.preprocess()
    s.phase0()
    s.phase1()
    with pytest.raises(ValueError):
        s.fast(s.range.hi + 1)


def test_base_tester_rejects_bracket_ends():
    tree = path_tree([1, 2, 3], [2, 2])
    s = _Session(tree, 1, SolverConfig())
    s.preprocess()
    s.phase0()
    tester = s.base_tester()
    lo, hi = s.range.lo, s.range.hi
    for lam in (lo, hi):
        with pytest.raises(ValueError):
            tester(lam)
    # the bracket is read live: after it narrows, its old ends are outside too
    mid = F(lo + hi, 2)
    feasible = s.range.resolve(tester, mid)
    assert feasible == ftest0_feasible(s.rooted, mid, 1, False)
    with pytest.raises(ValueError):
        tester(hi if feasible else lo)


@pytest.mark.parametrize("mode", ["continuous", "discrete"])
def test_default_phase2_runs_linear_tests_on_the_reduced_tree(mode):
    discrete = mode == "discrete"
    rng = random.Random(f"phase2/{mode}")
    phase2 = 0
    for shape in ("uniform-attach", "caterpillar"):
        for _ in range(6):
            n = rng.randint(40, 120)
            tree = random_tree(n, seed=rng.randrange(10**6),
                               weight_range=(0, 10**6), shape=shape)
            k = max(1, n // 10)
            res = solve(tree, k, SolverConfig(mode=mode, record_tests=True))
            assert res.stats["tests"]["phase1"] == 0
            assert not {"ftest1", "dftest1"} & {kind for _, kind, _, _ in res.tested}
            rooted = root_at(tree, 0)
            for phase, kind, lam, verdict in res.tested:
                if phase == "phase2":
                    phase2 += 1
                    assert kind == ("dftest0" if discrete else "ftest0")
                    assert ftest0_feasible(rooted, lam, k, discrete) == verdict
    assert phase2 > 0


@pytest.mark.parametrize("mode", ["continuous", "discrete"])
def test_phase_toggles_fall_back(mode):
    rng = random.Random(31)
    for p0, p1 in ((False, True), (True, False), (False, False), (True, True)):
        for _ in range(4):
            n = rng.randint(2, 30)
            tree = random_tree(n, seed=rng.randrange(10**6))
            k = rng.randint(1, n)
            cfg = SolverConfig(mode=mode, use_phase0=p0, use_phase1=p1)
            assert solve(tree, k, cfg).lambda_star == oracle_solve(tree, k, mode)


def test_deterministic_runs():
    tree = random_tree(80, seed=12)
    a = solve(tree, 5, SolverConfig(seed=9, record_tests=True))
    b = solve(tree, 5, SolverConfig(seed=9, record_tests=True))
    assert a.lambda_star == b.lambda_star
    assert a.tested == b.tested
    assert [(_c.edge, _c.offset, _c.vertex) for _c in a.centers] == [
        (_c.edge, _c.offset, _c.vertex) for _c in b.centers
    ]


def test_bracket_narrows_monotonically():
    events = []

    class SpyRange(LambdaRange):
        def resolve(self, tester, value):
            out = super().resolve(tester, value)
            events.append((self.lo, self.hi))
            return out

    import treecenter.solver as SV

    tree = random_tree(60, seed=77)
    s = _Session(tree, 3, SolverConfig())
    s.preprocess()
    s.range = SpyRange(s.range.lo, s.range.hi)
    s.phase0()
    s.phase1()
    s.phase2()
    for (lo1, hi1), (lo2, hi2) in zip(events, events[1:]):
        assert lo2 >= lo1 and hi2 <= hi1 and lo2 < hi2


def test_recorded_tests_replay_against_scan():
    rng = random.Random(17)
    for mode in ("continuous", "discrete"):
        discrete = mode == "discrete"
        for _ in range(6):
            n = rng.randint(3, 60)
            tree = random_tree(n, seed=rng.randrange(10**6))
            k = rng.randint(1, n)
            res = solve(tree, k, SolverConfig(mode=mode, record_tests=True))
            rooted = root_at(tree, 0)
            for phase, kind, lam, verdict in res.tested:
                assert ftest0_feasible(rooted, lam, k, discrete) == verdict


def test_end_to_end_random_exactness():
    rng = random.Random(2024)
    for _ in range(25):
        n = rng.randint(2, 90)
        tree = random_tree(n, seed=rng.randrange(10**6))
        k = rng.randint(1, n)
        for mode in ("continuous", "discrete"):
            assert (
                solve(tree, k, SolverConfig(mode=mode)).lambda_star
                == oracle_solve(tree, k, mode)
            )


@pytest.mark.parametrize("mode", ["continuous", "discrete"])
@pytest.mark.parametrize("shape", ["path", "caterpillar", "star", "uniform-attach"])
def test_exact_matches_oracle_on_instance_families(shape, mode):
    # long stems and twigs (paths, caterpillars), one hub (stars), wide and
    # 0/1 weights (many zero weights), and the extreme budgets k = 1, n - 1, n
    rng = random.Random(f"families/{shape}/{mode}")
    for weights in ((0, 10**6), (0, 1)):
        for _ in range(3):
            n = rng.randint(2, 30)
            tree = random_tree(n, seed=rng.randrange(10**6), weight_range=weights, shape=shape)
            for k in sorted({1, max(1, n - 1), n}):
                want = oracle_solve(tree, k, mode)
                for r in (None, 2, 3):
                    got = solve(tree, k, SolverConfig(mode=mode, r=r)).lambda_star
                    assert got == want, (shape, mode, weights, n, k, r)


def _rational_instance(rng, family):
    n = rng.randint(2, 40)
    if family == "decimals":
        # read as floats and converted exactly, as `solve --scalar float` does
        weight = lambda: Fraction(float(f"{rng.uniform(0, 1000):.{rng.randint(0, 4)}f}"))
        length = lambda: Fraction(float(f"{rng.uniform(0.5, 100):.{rng.randint(1, 4)}f}"))
    else:
        weight = lambda: Fraction(rng.randint(0, 3000), rng.choice((1, 3, 7)))
        length = lambda: Fraction(rng.randint(1, 300), rng.choice((3, 7)))
    weights = [weight() for _ in range(n)]
    edges = [(rng.randrange(v), v, length()) for v in range(1, n)]
    return make_tree(weights, edges), rng.randint(1, max(1, n // 3))


@pytest.mark.parametrize("mode", ["continuous", "discrete"])
@pytest.mark.parametrize("family", ["decimals", "thirds-sevenths"])
def test_exact_matches_oracle_on_non_integer_input(family, mode, monkeypatch):
    # the solver's linear tests scale these trees to integers, never
    # falling back to the generic scan
    import treecenter.feasibility as feasibility

    def no_fallback(*args):
        raise AssertionError("an exact solve ran the generic scan")

    monkeypatch.setattr(feasibility, "_scan_feasible", no_fallback)
    rng = random.Random(f"rational/{family}/{mode}")
    for _ in range(20):
        tree, k = _rational_instance(rng, family)
        assert any(x.denominator > 1 for x in tree.weights + tuple(e[2] for e in tree.edges))
        assert solve(tree, k, SolverConfig(mode=mode)).lambda_star == oracle_solve(tree, k, mode)


def test_default_r():
    assert default_r(1) == 1
    assert default_r(2) == 1
    assert default_r(200) == 64
    assert default_r(4) == 4


def test_float_filter_is_a_pure_speedup(monkeypatch):
    # the exact arrangement orders sort by float keys first; with the float
    # conversion failing every pass takes the all-Fraction sort instead,
    # and every tested lambda and every optimum must be the same
    import treecenter.arrangement as arrangement

    filtered = 0
    real_filtered_order = arrangement._filtered_order

    def counted(*args):
        nonlocal filtered
        out = real_filtered_order(*args)
        filtered += out is not None
        return out

    cases = [
        (random_tree(72, seed=seed, weight_range=(0, 10**6), shape=shape), 72 // 10, mode)
        for seed, shape in ((5, "path"), (6, "path"), (7, "caterpillar"), (8, "caterpillar"))
        for mode in ("continuous", "discrete")
    ]
    monkeypatch.setattr(arrangement, "_filtered_order", counted)
    runs = [solve(tree, k, SolverConfig(mode=mode, record_tests=True))
            for tree, k, mode in cases]
    assert filtered > 0
    monkeypatch.setattr(arrangement, "_to_float", lambda value: None)
    filtered = 0
    for (tree, k, mode), res in zip(cases, runs):
        ref = solve(tree, k, SolverConfig(mode=mode, record_tests=True))
        assert res.tested == ref.tested
        assert res.lambda_star == ref.lambda_star
    assert filtered == 0

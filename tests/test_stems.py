import random
from fractions import Fraction

import pytest

from treecenter.arrangement import find_boundary_vertices
from treecenter.feasibility import dftest0, ftest0
from treecenter.oracle import oracle_solve
from treecenter.scalars import midpoint
from treecenter.sorted_matrix import LambdaRange, msearch
from treecenter.stems import (
    ContTwig,
    DiscTwig,
    Stem,
    Thorn,
    WorkingTree,
    build_stem_tables,
    cleanup_continuous,
    cleanup_discrete,
    discrete_points,
    postprocess_continuous,
    postprocess_discrete,
    stem_arrays_discrete,
    stem_lines,
    stem_matrices_continuous,
    stem_tree,
)
from treecenter.tree import Tree, path_distance, root_at

from conftest import F, make_tree, path_tree


def mk_stem(xs, ws, thorns=None, twigs=None, own_top=True, ids=None):
    xs = [F(x) for x in xs]
    return Stem(
        backbone=ids or list(range(100, 100 + len(xs))),
        x=xs,
        weights=[F(w) for w in ws],
        thorns=thorns or {},
        twigs=twigs or {},
        own_top=own_top,
    )


# ----------------------------------------------------------------------
# lines


def test_stem_lines_bare_vertex():
    stem = mk_stem([0], [2])
    lines = stem_lines(stem)
    got = {(ln.a, ln.b) for ln in lines}
    assert got == {(F(2), F(0)), (F(-2), F(0))}


def test_stem_lines_thorn_intersection():
    stem = mk_stem([0], [1], thorns={0: Thorn(tag=7, length=F(1), weight=F(3))})
    lines = stem_lines(stem)
    plus = next(ln for ln in lines if ln.tag[1] == "u" and ln.tag[3] == 1)
    minus = next(ln for ln in lines if ln.tag[1] == "u" and ln.tag[3] == -1)
    assert plus.a == 3 and minus.a == -3
    # l+ passes (-1, 0); l- passes (1, 0); they cross at (0, w*d) = (0, 3)
    assert plus.a * F(-1) + plus.b == 0
    assert minus.a * F(1) + minus.b == 0
    x = (minus.b - plus.b) / (plus.a - minus.a)
    assert x == 0 and plus.a * x + plus.b == 3


def test_stem_lines_weight_zero():
    stem = mk_stem([0], [1], thorns={0: Thorn(tag=7, length=F(2), weight=F(0))})
    zero = [ln for ln in stem_lines(stem) if ln.tag[1] == "u"]
    assert all(ln.a == 0 and ln.b == 0 for ln in zero)
    assert {ln.bias for ln in zero} == {1, -1}


# ----------------------------------------------------------------------
# matrices


def test_matrix_two_backbone_vertices():
    stem = mk_stem([0, 2], [1, 1])
    mats, _ = stem_matrices_continuous(stem)
    M = mats[0]
    assert [[M.value(i, j) for j in range(2)] for i in range(2)] == [
        [1, 0],
        [0, 0],
    ]


def test_matrix_zero_pad_region():
    stem = mk_stem([0, 1, 5], [1, 2, 1])
    M, _ = stem_matrices_continuous(stem)
    M = M[0]
    m = 3
    for i in range(m):
        for j in range(m):
            if i + j > m - 1:
                assert M.value(i, j) == 0


def test_twig_array_equalizing_point():
    stem = mk_stem([0], [1], twigs={0: ContTwig(tag=9, length=F(5), weight=F(1))})
    mats, _ = stem_matrices_continuous(stem)
    right = next(m for m in mats if m.owner == ("Ar", 0))
    assert right.value(0, 0) == F(5, 2)


def test_matrix_sortedness_enumeration():
    rng = random.Random(10)
    for _ in range(20):
        stem = random_stem(rng, max_m=8, discrete=False)[0]
        mats, _ = stem_matrices_continuous(stem)
        for mat in mats:
            rows = [[mat.value(i, j) for j in range(mat.cols)] for i in range(mat.rows)]
            for row in rows:
                assert all(a >= b for a, b in zip(row, row[1:]))
            for j in range(mat.cols):
                col = [rows[i][j] for i in range(mat.rows)]
                assert all(a >= b for a, b in zip(col, col[1:]))


def test_discrete_points_and_arrays():
    stem = mk_stem([0, 4], [1, 1])
    mats, pts = stem_arrays_discrete(stem)
    assert [p[0] for p in pts] == [0, 4]
    right0 = next(m for m in mats if m.owner == ("Dr", 0))
    assert [right0.value(0, j) for j in range(2)] == [4, 0]
    left1 = next(m for m in mats if m.owner == ("Dl", 1))
    assert left1.value(0, 1) == 0  # self pair


def test_discrete_arrays_sorted():
    rng = random.Random(11)
    for _ in range(20):
        stem = random_stem(rng, max_m=6, discrete=True)[0]
        mats, _ = stem_arrays_discrete(stem)
        for mat in mats:
            row = [mat.value(0, j) for j in range(mat.cols)]
            assert all(a >= b for a, b in zip(row, row[1:]))


# ----------------------------------------------------------------------
# partition


def tree_to_working(tree, root=0, discrete=False):
    rooted = root_at(tree, root)
    return WorkingTree(tree, rooted, discrete)


def test_partition_path_single_stem():
    tree = path_tree([1] * 5, [1] * 4)
    wk = tree_to_working(tree, root=0)
    stems = wk.stems()
    assert len(stems) == 1
    assert stems[0].m == 5
    assert stems[0].backbone[-1] == 0  # top is the root


def test_partition_star():
    tree = make_tree([1, 1, 1, 1], [(0, 1, 1), (0, 2, 1), (0, 3, 1)])
    wk = tree_to_working(tree, root=1)
    stems = wk.stems()
    assert len(stems) == 3
    tops = sorted(s.backbone[-1] for s in stems)
    assert tops == [0, 0, 1]  # hub tops two, root stem topped by the root


def test_leaf_stems_exclude_long():
    tree = path_tree([1] * 6, [1] * 5)
    wk = tree_to_working(tree, root=0)
    assert wk.leaf_stems(max_len=3) == []
    assert len(wk.leaf_stems()) == 1


def test_chop_shares_boundary():
    from treecenter.solver import _chop

    stem = mk_stem([0, 1, 2, 3, 4], [1] * 5, own_top=True)
    subs = _chop(stem, 3)
    assert [s.m for s in subs] == [3, 3]
    assert subs[0].backbone[-1] == subs[1].backbone[0]
    assert subs[1].own_top and not subs[0].own_top
    assert subs[1].x[0] == 0


# ----------------------------------------------------------------------
# post-processing


def test_postprocess_covered_emits_twig():
    stem = mk_stem([0, F(1, 2)], [1, 1], own_top=False, ids=[4, 5])
    rng = LambdaRange(F(2, 5), F(9, 20))
    ranks = {4: 1, 5: 2}
    repl = postprocess_continuous(stem, rng, ranks, resolver=lambda v: None)
    assert repl.kind == "twig"
    assert repl.attachment.tag == 4
    assert repl.attachment.length == F(1, 2)
    assert repl.centers_used == 0


def test_postprocess_uncovered_top_only():
    stem = mk_stem([0, 1, 2], [1, 1, 1], own_top=False, ids=[4, 5, 6])
    rng = LambdaRange(F(2, 5), F(9, 20))
    ranks = {4: 1, 5: 2, 6: 3}
    repl = postprocess_continuous(stem, rng, ranks, resolver=lambda v: None)
    # two centers placed, only the top remains uncovered; its own weight
    # already carries the constraint, so no thorn is needed
    assert repl.kind == "none"
    assert repl.centers_used == 2


def test_postprocess_uncovered_emits_thorn():
    # the middle vertex stays uncovered and within reach of the top
    stem = mk_stem([0, 10, 11], [1, 1, 1], own_top=False, ids=[4, 5, 6])
    rng = LambdaRange(F(1), F(3, 2))
    ranks = {4: 3, 5: 2, 6: 1}
    repl = postprocess_continuous(stem, rng, ranks, resolver=lambda v: None)
    assert repl.kind == "thorn"
    assert repl.attachment.tag == 5
    assert repl.attachment.length == 1
    assert repl.centers_used == 1


def test_postprocess_discrete_bud_twig():
    stem = mk_stem([0, 4, 5], [1, 3, 1], own_top=False, ids=[4, 5, 6])
    # pair values are {1,3,4,5,12}; (4, 5) is a quiet bracket around 4.5
    rng = LambdaRange(F(4), F(5))
    ranks = {4: 3, 5: 2, 6: 1}
    repl = postprocess_discrete(stem, rng, ranks, resolver=lambda v: None)
    assert repl.kind == "twig"
    att = repl.attachment
    assert att.bud_tag == 5 and att.tag == 4
    assert att.bud_len == 1 and att.twig_len == 4
    assert repl.centers_used == 0


def test_postprocess_resolver_called_for_straddled_boundary():
    stem = mk_stem([0, 5, 19], [18, 4, 17], own_top=False, ids=[5, 2, 1])
    rng = LambdaRange(F(250), F(882))
    ranks = {5: 3, 2: 2, 1: 1}
    calls = []

    def resolver(value):
        calls.append(value)
        # pretend the value is feasible
        rng.hi = value

    repl = postprocess_continuous(stem, rng, ranks, resolver)
    assert calls == [342]
    assert repl.kind == "twig" and repl.attachment.tag == 5


def test_apply_replacement_merges():
    tree = make_tree([1, 1, 1, 1], [(0, 1, 2), (1, 2, 3), (1, 3, 3)])
    wk = tree_to_working(tree, root=0)
    ranks = {0: 1, 1: 2, 2: 3, 3: 4}
    stems = sorted(wk.leaf_stems(), key=lambda s: s.backbone[0])
    # both leaf-stems top at vertex 1; install two thorns, larger rank wins
    from treecenter.stems import Replacement

    r1 = Replacement(kind="thorn", attachment=Thorn(tag=2, length=F(3), weight=F(1)))
    r2 = Replacement(kind="thorn", attachment=Thorn(tag=3, length=F(3), weight=F(1)))
    assert wk.apply_replacement(stems[0], r1, ranks) == 0
    assert wk.apply_replacement(stems[1], r2, ranks) == 0
    assert wk.thorn[1].tag == 3
    # twig merge charges one committed center
    wk2 = tree_to_working(tree, root=0)
    t1 = Replacement(kind="twig", attachment=ContTwig(tag=2, length=F(3), weight=F(1)))
    t2 = Replacement(kind="twig", attachment=ContTwig(tag=3, length=F(3), weight=F(1)))
    stems2 = sorted(wk2.leaf_stems(), key=lambda s: s.backbone[0])
    assert wk2.apply_replacement(stems2[0], t1, ranks) == 0
    assert wk2.apply_replacement(stems2[1], t2, ranks) == 1
    assert wk2.twig[1].tag == 2  # smaller rank kept


# ----------------------------------------------------------------------
# cleanup


def rankp_from_lines(stem, rng):
    from treecenter.arrangement import compute_ranks

    ranks = compute_ranks(stem_lines(stem, stem_id=0), rng)
    return lambda kind, pos, sign: ranks[(0, kind, pos, sign)]


def test_cleanup_no_twigs_keeps_all():
    stem = mk_stem([0, 1, 2], [1, 1, 1], thorns={1: Thorn(9, F(1), F(1))})
    vcov, ucov = cleanup_continuous(stem, True, rankp=lambda *a: 0)
    assert not any(vcov) and not ucov


def _crossing_free_subrange(stem, rng):
    """Largest gap between line crossings inside the bracket (cleanup rank
    lookups are only valid on a crossing-free band)."""
    from treecenter.oracle import enumerate_arrangement_vertices

    ys = sorted(
        {v[0] for v in enumerate_arrangement_vertices(stem_lines(stem, 0))}
    )
    bounds = [rng.lo] + [y for y in ys if rng.lo < y < rng.hi] + [rng.hi]
    lo, hi = max(
        zip(bounds, bounds[1:]), key=lambda ab: ab[1] - ab[0]
    )
    return LambdaRange(lo, hi)


def test_cleanup_continuous_matches_simulation():
    rng0 = random.Random(21)
    for _ in range(25):
        stem, rng = random_stem(rng0, max_m=8, discrete=False, force_twig=True)
        if not stem.twigs:
            continue
        band = _crossing_free_subrange(stem, rng)
        rankp = rankp_from_lines(stem, band)
        vcov, ucov = cleanup_continuous(stem, stem.own_top, rankp)
        lam = midpoint(band.lo, band.hi)
        hi = stem.m if stem.own_top else stem.m - 1
        for p in range(hi):
            want_v = _twig_covers(stem, p, None, lam)
            assert vcov[p] == want_v, (stem, p, lam)
            th = stem.thorns.get(p)
            if th is not None:
                want_u = _twig_covers(stem, p, th, lam)
                assert ucov.get(p, False) == want_u


def _twig_covers(stem, p, thorn, lam):
    """Direct simulation: does any twig-forced center cover the vertex."""
    for q, tw in stem.twigs.items():
        if isinstance(tw, DiscTwig):
            center_to_backbone = tw.bud_len
            wt = tw.weight
        else:
            center_to_backbone = tw.length - lam / tw.weight
            wt = tw.weight
        gap = abs(stem.x[p] - stem.x[q])
        dist = center_to_backbone + gap
        if thorn is not None:
            dist += thorn.length
            w = thorn.weight
        else:
            w = stem.weights[p]
        if w * dist <= lam:
            return True
    return False


def test_cleanup_discrete_matches_simulation():
    rng0 = random.Random(22)
    for _ in range(25):
        stem, rng = random_stem(rng0, max_m=8, discrete=True, force_twig=True)
        if not stem.twigs:
            continue
        lam = midpoint(rng.lo, rng.hi)
        vcov, ucov = cleanup_discrete(stem, stem.own_top, lam)
        hi = stem.m if stem.own_top else stem.m - 1
        for p in range(hi):
            assert vcov[p] == _twig_covers(stem, p, None, lam)
            th = stem.thorns.get(p)
            if th is not None:
                assert ucov.get(p, False) == _twig_covers(stem, p, th, lam)


# ----------------------------------------------------------------------
# tables


def test_tables_single_vertex():
    stem = mk_stem([0], [1], ids=[3])
    rng = LambdaRange(F(1), F(2))
    tabs = build_stem_tables(stem, True, "discrete", midpoint(rng.lo, rng.hi),
                             vertex_ranks={3: 1})
    assert tabs.t == 1
    assert tabs.ncen == [0]
    assert tabs.vbest[0].tag == 3


def test_tables_two_vertices_one_center():
    # a center at either endpoint vertex reaches the other at lam = 5/4
    stem = mk_stem([0, 1], [1, 1], ids=[3, 4])
    lam = F(5, 4)
    tabs = build_stem_tables(stem, True, "discrete", lam, vertex_ranks={3: 1, 4: 2})
    assert tabs.ncen == [0, 0]
    assert tabs.vbest[0].tag == 4  # larger rank dominates


def test_tables_two_vertices_two_centers():
    stem = mk_stem([0, 10], [1, 1], ids=[3, 4])
    lam = F(2)
    tabs = build_stem_tables(stem, True, "discrete", lam, vertex_ranks={3: 2, 4: 1})
    assert tabs.ncen == [1, 0]
    assert tabs.vbest[0].tag is tabs.vbest[1].tag


# ----------------------------------------------------------------------
# standalone stem solving: candidate membership and route agreement


def random_stem(rng, max_m=8, discrete=False, force_twig=False):
    """Random stem whose attachments satisfy the bracket invariants for
    the bracket that is returned with it."""
    while True:
        m = rng.randint(1, max_m)
        xs = [0]
        for _ in range(m - 1):
            xs.append(xs[-1] + rng.randint(1, 9))
        ws = [rng.randint(0, 8) for _ in range(m)]
        thorns = {}
        twigs = {}
        for p in range(m):
            roll = rng.random()
            if roll < 0.3:
                thorns[p] = Thorn(tag=1000 + p, length=F(rng.randint(1, 6)),
                                  weight=F(rng.randint(0, 6)))
            if roll > 0.8 or (force_twig and p == 0):
                if discrete:
                    twigs[p] = DiscTwig(
                        bud_tag=2000 + p,
                        bud_len=F(rng.randint(1, 4)),
                        tag=3000 + p,
                        twig_len=F(rng.randint(1, 4)),
                        weight=F(rng.randint(1, 6)),
                        bud_weight=F(rng.randint(0, 6)),
                    )
                else:
                    twigs[p] = ContTwig(tag=3000 + p, length=F(rng.randint(1, 8)),
                                        weight=F(rng.randint(1, 6)))
        stem = mk_stem(xs, ws, thorns, twigs, own_top=True,
                       ids=list(range(100, 100 + m)))
        k = rng.randint(1, max(1, m // 2) + len(twigs))
        rooted, _ = stem_tree(stem)
        lam_star = oracle_solve(rooted.tree, k,
                                "discrete" if discrete else "continuous")
        if lam_star == 0:
            continue
        thornmax = max(
            (th.weight * th.length for th in stem.thorns.values()), default=0
        )
        twig_ok = all(
            tw.weight * tw.length >= lam_star
            and (not discrete or tw.weight * tw.twig_len < lam_star)
            for tw in stem.twigs.values()
        )
        if thornmax >= lam_star or not twig_ok:
            continue
        twigmin = min(
            (tw.weight * tw.length for tw in stem.twigs.values()), default=None
        )
        lo = thornmax
        hi = twigmin if twigmin is not None else lam_star * 2
        if discrete and stem.twigs:
            budmax = max(tw.weight * tw.twig_len for tw in stem.twigs.values())
            if budmax > lo:
                lo = budmax
        if not lo < lam_star <= hi:
            continue
        stem._k = k
        stem._lam = lam_star
        return stem, LambdaRange(lo, hi)


def stem_tester(stem, k, discrete):
    rooted, _ = stem_tree(stem)
    test = dftest0 if discrete else ftest0

    def tester(lam):
        return test(rooted, lam, k).feasible

    return tester


@pytest.mark.parametrize("discrete", [False, True])
def test_stem_tree_distances(discrete):
    rng0 = random.Random(700 + discrete)
    for _ in range(12):
        stem, _rng = random_stem(rng0, max_m=8, discrete=discrete)
        rooted, to_orig = stem_tree(stem)
        local = {orig: i for i, orig in enumerate(to_orig)}
        weights = rooted.tree.weights
        x = stem.x
        assert to_orig[:stem.m] == stem.backbone
        assert rooted.root == stem.m - 1
        for p in range(stem.m):
            assert rooted.rootdist[p] == x[-1] - x[p] and weights[p] == stem.weights[p]
        for p, th in stem.thorns.items():
            u = local[th.tag]
            assert rooted.rootdist[u] == x[-1] - x[p] + th.length
            assert weights[u] == th.weight
        for p, tw in stem.twigs.items():
            u = local[tw.tag]
            assert rooted.rootdist[u] == x[-1] - x[p] + tw.length
            assert weights[u] == tw.weight
            if discrete:
                b = local[tw.bud_tag]
                assert rooted.rootdist[b] == x[-1] - x[p] + tw.bud_len
                assert weights[b] == tw.bud_weight
                assert path_distance(rooted.tree, b, u) == tw.twig_len
        assert rooted.tree.n == len(to_orig) == len(local)


def test_stem_tree_bud_only_twig():
    bud = DiscTwig(bud_tag=9, bud_len=F(3), tag=9, twig_len=F(0), weight=F(2), bud_weight=F(2))
    stem = mk_stem([0, 4], [1, 1], twigs={0: bud}, ids=[4, 5])
    rooted, to_orig = stem_tree(stem)
    assert to_orig == [4, 5, 9]
    assert rooted.tree.edges[-1] == (0, 2, F(3))
    assert rooted.rootdist[2] == 7 and rooted.tree.weights[2] == 2


@pytest.mark.parametrize("seed", range(8))
def test_continuous_stem_two_routes_agree(seed):
    rng0 = random.Random(400 + seed)
    for _ in range(6):
        stem, rng = random_stem(rng0, max_m=6, discrete=False)
        k, lam_star = stem._k, stem._lam
        tester = stem_tester(stem, k, False)
        # route one: arrangement search over the stem's lines
        r1 = LambdaRange(rng.lo, rng.hi)
        find_boundary_vertices(stem_lines(stem), r1, tester, random.Random(seed))
        # route two: matrix search over the one-center value pool
        r2 = LambdaRange(rng.lo, rng.hi)
        mats, _ = stem_matrices_continuous(stem)
        msearch(mats, r2, 0, tester)
        assert r1.hi == r2.hi == lam_star


@pytest.mark.parametrize("seed", range(8))
def test_discrete_stem_optimum_among_array_values(seed):
    rng0 = random.Random(500 + seed)
    for _ in range(6):
        stem, rng = random_stem(rng0, max_m=6, discrete=True)
        k, lam_star = stem._k, stem._lam
        mats, _ = stem_arrays_discrete(stem)
        values = set()
        for mat in mats:
            for j in range(mat.cols):
                values.add(mat.value(0, j))
        assert lam_star in values
        r = LambdaRange(rng.lo, rng.hi)
        msearch(mats, r, 0, stem_tester(stem, k, True))
        assert r.hi == lam_star


@pytest.mark.parametrize("seed", range(6))
def test_continuous_stem_optimum_among_matrix_values(seed):
    rng0 = random.Random(600 + seed)
    for _ in range(5):
        stem, _rng = random_stem(rng0, max_m=5, discrete=False)
        lam_star = stem._lam
        mats, _ = stem_matrices_continuous(stem)
        values = set()
        for mat in mats:
            for i in range(mat.rows):
                for j in range(mat.cols):
                    values.add(mat.value(i, j))
        assert lam_star in values


def test_postprocess_soundness_on_leaf_stems():
    """Reducing a leaf-stem preserves the optimum of the whole instance."""
    rng0 = random.Random(33)
    from treecenter.solver import SolverConfig, solve
    from treecenter.tree import random_tree

    checked = 0
    for trial in range(40):
        n = rng0.randint(4, 40)
        tree = random_tree(n, seed=rng0.randrange(10**6))
        k = rng0.randint(1, max(1, n // 2))
        for mode in ("continuous", "discrete"):
            want = oracle_solve(tree, k, mode)
            got = solve(tree, k, SolverConfig(mode=mode, r=2)).lambda_star
            assert got == want
            checked += 1
    assert checked >= 60

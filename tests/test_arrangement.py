import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from treecenter.arrangement import (
    Line,
    RankContractError,
    _band,
    _count_inversions,
    _float_lines,
    _inverted_pair,
    _order,
    _split,
    _to_float,
    compute_ranks,
    count_vertices_at_or_below,
    crossing_point,
    find_boundary_vertices,
)
from treecenter.oracle import enumerate_arrangement_vertices, oracle_arrangement
from treecenter.sorted_matrix import LambdaRange


def L(a, b, tag, bias=0):
    return Line(Fraction(a), Fraction(b), tag, bias)


def threshold(theta):
    return lambda lam: lam >= theta


def test_single_crossing():
    lines = [L(1, 1, "p"), L(-1, 1, "q")]
    rng = LambdaRange(Fraction(-10), Fraction(10))
    assert find_boundary_vertices(lines, rng, threshold(1), random.Random(1)) is None
    assert (rng.lo, rng.hi) == (-10, 1)


def test_three_crossing_levels():
    # crossings at y = 1, 2, 3; threshold between 2 and 3
    lines = [L(1, 1, 1), L(-1, 1, 2), L(0, 2, 3), L(0, 3, 4)]
    # crossings: lines 1&2 at y=1; 1&3,2&3 at y=2; 1&4,2&4 at y=3
    rng = LambdaRange(Fraction(-5), Fraction(50))
    find_boundary_vertices(lines, rng, threshold(Fraction(5, 2)), random.Random(2))
    assert (rng.lo, rng.hi) == (2, 3)


def test_always_feasible_returns_lowest_vertex():
    lines = [L(1, 0, "a"), L(-1, 4, "b"), L(2, -1, "c")]
    verts = enumerate_arrangement_vertices(lines)
    lowest = min(v[0] for v in verts)
    rng = LambdaRange(lowest - 1, max(v[0] for v in verts) + 1)
    find_boundary_vertices(lines, rng, lambda lam: True, random.Random(3))
    assert (rng.lo, rng.hi) == (lowest - 1, lowest)


def test_count_simple():
    two = [L(1, 0, 1), L(-1, 0, 2)]
    assert count_vertices_at_or_below(two, Fraction(1)) == 1
    assert count_vertices_at_or_below(two, Fraction(0)) == 1
    assert count_vertices_at_or_below(two, Fraction(-1, 2)) == 0
    par = [L(1, 0, 1), L(1, 5, 2)]
    assert count_vertices_at_or_below(par, Fraction(100)) == 0


def random_lines(rng, m, with_horizontal=True):
    lines = []
    for t in range(m):
        if with_horizontal and rng.random() < 0.15:
            a = Fraction(0)
        else:
            a = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        b = Fraction(rng.randint(-30, 30), rng.randint(1, 2))
        lines.append(Line(a, b, t, bias=1 if t % 2 else -1))
    return lines


@pytest.mark.parametrize("seed", range(15))
def test_count_matches_enumeration(seed):
    rng = random.Random(seed)
    m = rng.randint(2, 12)
    lines = random_lines(rng, m)
    verts = enumerate_arrangement_vertices(lines)
    for _ in range(8):
        lam = Fraction(rng.randint(-40, 40), rng.randint(1, 2))
        want = sum(1 for v in verts if v[0] <= lam)
        assert count_vertices_at_or_below(lines, lam) == want
    # also exactly at each vertex level
    for y in sorted({v[0] for v in verts}):
        want = sum(1 for v in verts if v[0] <= y)
        assert count_vertices_at_or_below(lines, y) == want


def test_count_monotone_and_jumps_at_vertices():
    rng = random.Random(99)
    lines = random_lines(rng, 9)
    verts = enumerate_arrangement_vertices(lines)
    ys = sorted({v[0] for v in verts})
    prev = count_vertices_at_or_below(lines, ys[0] - 1)
    assert prev == 0
    for y in ys:
        at = count_vertices_at_or_below(lines, y)
        assert at > prev
        prev = at


@pytest.mark.parametrize("seed", range(25))
def test_boundary_matches_oracle(seed):
    rng = random.Random(1000 + seed)
    m = rng.randint(2, 24)
    lines = random_lines(rng, m)
    verts = enumerate_arrangement_vertices(lines)
    if not verts:
        return
    ys = sorted({v[0] for v in verts})
    theta = rng.choice(
        [ys[0] - 1]
        + ys
        + [(a + b) / 2 for a, b in zip(ys, ys[1:])]
        + [ys[-1] + 1]
    )
    tester = threshold(theta)
    want1, want2 = oracle_arrangement(lines, tester)
    band = LambdaRange(ys[0] - 1, ys[-1] + 1)
    find_boundary_vertices(lines, band, tester, rng)
    assert band.hi == (ys[-1] + 1 if want1 is None else want1[1])
    assert band.lo == (ys[0] - 1 if want2 is None else want2[1])


def test_parallel_only_no_vertices():
    lines = [L(1, 0, 1), L(1, 3, 2), L(1, 9, 3)]
    rng = LambdaRange(Fraction(-5), Fraction(5))
    find_boundary_vertices(lines, rng, threshold(0), random.Random(4))
    assert (rng.lo, rng.hi) == (Fraction(-5), Fraction(5))


def test_compute_ranks_basic():
    lines = [L(1, 0, "up"), L(-1, 0, "down")]
    # crossing at y=0; any band above it is vertex-free
    rng = LambdaRange(Fraction(1), Fraction(2))
    ranks = compute_ranks(lines, rng)
    assert ranks == {"down": 1, "up": 2}


def test_compute_ranks_single_line():
    ranks = compute_ranks([L(2, 1, "only")], LambdaRange(0, 1))
    assert ranks == {"only": 1}


def test_compute_ranks_rejects_dirty_range():
    lines = [L(1, 0, 1), L(-1, 0, 2)]
    with pytest.raises(RankContractError):
        compute_ranks(lines, LambdaRange(Fraction(-1), Fraction(1)))


def test_compute_ranks_invariant_across_levels():
    rng = random.Random(7)
    lines = random_lines(rng, 10)
    verts = enumerate_arrangement_vertices(lines)
    ys = sorted({v[0] for v in verts})
    assert len(ys) >= 2
    lo, hi = ys[-2], ys[-1]
    base = compute_ranks(lines, LambdaRange(lo, hi))
    for i in range(1, 6):
        lam_lo = lo + (hi - lo) * Fraction(i, 7)
        lam_hi = lo + (hi - lo) * Fraction(i + 1, 7)
        assert compute_ranks(lines, LambdaRange(lam_lo, lam_hi)) == base


def test_horizontal_bias_orders_ranks():
    lines = [L(0, 5, "left", bias=-1), L(1, 0, "mid"), L(0, 5, "right", bias=1)]
    ranks = compute_ranks(lines, LambdaRange(Fraction(6), Fraction(7)))
    assert ranks["left"] == 1 and ranks["mid"] == 2 and ranks["right"] == 3


def test_crossing_point():
    x, y = crossing_point(L(1, 1, 1), L(-1, 1, 2))
    assert (x, y) == (0, 1)


def test_tester_call_budget(rng):
    total_calls = 0
    runs = 40
    for seed in range(runs):
        r = random.Random(3000 + seed)
        m = r.randint(8, 64)
        lines = random_lines(r, m, with_horizontal=False)
        verts = enumerate_arrangement_vertices(lines)
        if not verts:
            continue
        ys = sorted(v[0] for v in verts)
        theta = r.choice(ys)
        calls = 0

        def tester(lam):
            nonlocal calls
            calls += 1
            return lam >= theta

        band = LambdaRange(ys[0] - 1, ys[-1] + 1)
        find_boundary_vertices(lines, band, tester, r)
        total_calls += calls

    assert total_calls / runs <= 3 * math.log2(64) + 5


def test_one_band_pass_per_test_plus_the_last(monkeypatch):
    import treecenter.arrangement as arrangement

    real_band = arrangement._band
    passes = 0

    def counted(*args, **kwargs):
        nonlocal passes
        passes += 1
        return real_band(*args, **kwargs)

    monkeypatch.setattr(arrangement, "_band", counted)
    r = random.Random(4000)
    for _ in range(20):
        lines = random_lines(r, r.randint(2, 40))
        verts = enumerate_arrangement_vertices(lines)
        if not verts:
            continue
        ys = sorted(v[0] for v in verts)
        theta = r.choice(ys)
        calls = 0

        def tester(lam):
            nonlocal calls
            calls += 1
            return lam >= theta

        passes = 0
        band = LambdaRange(ys[0] - 1, ys[-1] + 1)
        arrangement.find_boundary_vertices(lines, band, tester, r)
        assert calls >= 1
        assert passes == calls + 1


def test_band_pass_sorts_only_the_end_that_moved(monkeypatch):
    import treecenter.arrangement as arrangement

    real_band, real_order = arrangement._band, arrangement._order
    passes = sorts = 0

    def counted_band(*args, **kwargs):
        nonlocal passes
        passes += 1
        return real_band(*args, **kwargs)

    def counted_order(*args, **kwargs):
        nonlocal sorts
        sorts += 1
        return real_order(*args, **kwargs)

    monkeypatch.setattr(arrangement, "_band", counted_band)
    monkeypatch.setattr(arrangement, "_order", counted_order)
    r = random.Random(4100)
    searched = 0
    for _ in range(20):
        lines = random_lines(r, r.randint(2, 40))
        ys = sorted({v[0] for v in enumerate_arrangement_vertices(lines)})
        if len(ys) < 3:
            continue
        tester = threshold(r.choice(ys[1:]))
        want1, want2 = oracle_arrangement(lines, tester)
        passes = sorts = 0
        band = LambdaRange(ys[0] - 1, ys[-1] + 1)
        arrangement.find_boundary_vertices(lines, band, tester, r)
        assert passes >= 3
        assert sorts <= passes + 1  # two sorts per pass before
        assert (band.lo, band.hi) == (want2[1], want1[1])
        searched += 1
    assert searched >= 10


# -- counting and drawing crossings -----------------------------------------


def brute_inversions(keys):
    return [(keys[p], keys[q]) for q in range(len(keys)) for p in range(q)
            if keys[p] > keys[q]]


def merge_count(keys):
    """Inversion count by a recursive merge sort: (count, sorted keys)."""
    if len(keys) < 2:
        return 0, list(keys)
    mid = len(keys) // 2
    cl, left = merge_count(keys[:mid])
    cr, right = merge_count(keys[mid:])
    count, out, i = cl + cr, [], 0
    for x in right:
        while i < len(left) and left[i] < x:
            out.append(left[i])
            i += 1
        count += len(left) - i
        out.append(x)
    out.extend(left[i:])
    return count, out


def small_permutations():
    r = random.Random(5000)
    for n in range(13):
        yield list(range(n))
        yield list(range(n))[::-1]
        for _ in range(4):
            yield r.sample(range(n), n)


def test_count_inversions_matches_brute_force():
    for keys in small_permutations():
        counts = _count_inversions(keys)
        assert len(counts) == len(keys)
        assert counts == [sum(1 for p in range(q) if keys[p] > keys[q])
                          for q in range(len(keys))]
    assert sum(_count_inversions(list(range(12)))) == 0
    assert sum(_count_inversions(list(range(12))[::-1])) == 66


def test_inverted_pair_numbers_every_inversion_once():
    for keys in small_permutations():
        counts = _count_inversions(keys)
        drawn = [_inverted_pair(keys, counts, r) for r in range(sum(counts))]
        assert sorted(drawn) == sorted(brute_inversions(keys))
        for big, small in drawn:
            assert big > small and keys.index(big) < keys.index(small)


def test_drawn_pairs_are_uniform():
    keys = random.Random(5001).sample(range(9), 9)
    counts = _count_inversions(keys)
    total = sum(counts)
    assert total == len(brute_inversions(keys)) >= 10
    r = random.Random(5002)
    draws = 200 * total
    seen = Counter(_inverted_pair(keys, counts, r.randrange(total)) for _ in range(draws))
    assert set(seen) == set(brute_inversions(keys))
    expected = draws / total
    chi2 = sum((c - expected) ** 2 / expected for c in seen.values())
    # Wilson-Hilferty upper 0.1% point of chi-square with total - 1 degrees
    df = total - 1
    bound = df * (1 - 2 / (9 * df) + 3.09 * math.sqrt(2 / (9 * df))) ** 3
    assert chi2 < bound


def test_count_inversions_matches_merge_count_at_scale():
    keys = random.Random(5003).sample(range(32768), 32768)
    count, ordered = merge_count(keys)
    assert ordered == sorted(keys)
    assert sum(_count_inversions(keys)) == count


def test_band_draws_every_crossing_uniformly():
    # all crossings of five lines in general position lie in one band
    lines = [L(a, b, t) for t, (a, b) in enumerate([(1, 0), (-1, 3), (2, 1),
                                                   (-3, 2), (5, -4)])]
    nonh, fl, horiz = _split(lines)
    lo_end, hi_end = ("val", Fraction(-1000), False), ("val", Fraction(1000), False)
    orders = (_order(nonh, fl, lo_end, False), _order(nonh, fl, hi_end, True))
    r = random.Random(5004)
    seen = Counter()
    for _ in range(2000):
        total, pair = _band(nonh, horiz, lo_end, hi_end, *orders, r)
        seen[frozenset(ln.tag for ln in pair)] += 1
    assert total == 10
    assert set(seen) == {frozenset(c) for c in itertools.combinations(range(5), 2)}
    assert min(seen.values()) > 120  # 200 expected per pair


# -- the float filter of exact sweep orders ---------------------------------


def near_tie_lines(rng, m):
    # intercepts around 2**60 that differ by 1: equal floats, distinct keys
    return [
        Line(Fraction(rng.choice([-3, -1, 1, 2, 3]), rng.randint(1, 3)),
             Fraction(2**60 + rng.randint(-2, 2)), t, bias=1 if t % 2 else -1)
        for t in range(m)
    ]


def wide_error_lines(rng, m):
    # slopes from 1e-6 to 9 give error bounds of very different widths: a
    # later key in float order can still tie an earlier one
    return [
        Line(Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.choice([1, 1000, 10**6])),
             Fraction(2**60 + rng.randint(-2**12, 2**12)), t, bias=1 if t % 2 else -1)
        for t in range(m)
    ]


def common_crossing_lines(rng, m):
    # most lines pass through (1/3, 7/2); the rest are random
    x0, y0 = Fraction(1, 3), Fraction(7, 2)
    lines = []
    for t in range(m):
        a = Fraction(rng.choice([-1, 1]) * (t + 1), rng.randint(1, 3))
        b = y0 - a * x0 if t < m - 3 else Fraction(rng.randint(-30, 30), 2)
        lines.append(Line(a, b, t, bias=1 if t % 2 else -1))
    return lines


def horizontal_lines(rng, m):
    return [
        Line(Fraction(0) if t % 2 else Fraction(rng.randint(-6, 6) or 1, rng.randint(1, 3)),
             Fraction(rng.randint(-8, 8)), t, bias=1 if t % 4 == 1 else -1)
        for t in range(m)
    ]


def scaled_lines(rng, m, scale):
    return [
        Line(Fraction(rng.randint(-6, 6) or 1, rng.randint(1, 3)),
             Fraction(scale) * rng.randint(-30, 30) + rng.randint(-2, 2), t,
             bias=1 if t % 2 else -1)
        for t in range(m)
    ]


FILTER_CASES = {
    "random": lambda r: random_lines(r, 14),
    "near-ties": lambda r: near_tie_lines(r, 12),
    "wide-errors": lambda r: wide_error_lines(r, 12),
    "common-crossing": lambda r: common_crossing_lines(r, 10),
    "horizontal": lambda r: horizontal_lines(r, 12),
    "overflow": lambda r: scaled_lines(r, 10, 10**400),
    "underflow": lambda r: [ln._replace(b=ln.b / 10**400)
                            for ln in scaled_lines(r, 10, 1)],
}


def _levels(lines):
    ys = sorted({v[0] for v in enumerate_arrangement_vertices(lines)})
    return [ys[0] - 1] + ys + [(a + b) / 2 for a, b in zip(ys, ys[1:])] + [ys[-1] + 1]


def _exact_ranks(lines, lam):
    def key(ln):
        if ln.a == 0:
            return (1 if ln.bias > 0 else -1, 0, 0, ln.tag)
        return (0, (lam - ln.b) / ln.a, ln.a, ln.tag)

    return {ln.tag: i + 1 for i, ln in enumerate(sorted(lines, key=key))}


@pytest.mark.parametrize("case", sorted(FILTER_CASES))
@pytest.mark.parametrize("seed", range(3))
def test_filtered_order_equals_exact_sort(case, seed):
    lines = FILTER_CASES[case](random.Random(f"{case}/{seed}"))
    nonh, fl, _ = _split(lines)
    assert (fl is None) == (case in ("overflow", "underflow"))
    for y in _levels(lines):
        for below in (False, True):
            sgn = -1 if below else 1
            want = sorted(range(len(nonh)), key=lambda i: (
                (y - nonh[i].b) / nonh[i].a, sgn / nonh[i].a, i))
            assert _order(nonh, fl, ("val", y, False), below) == want
        got = compute_ranks(lines, LambdaRange(y - 1, y + 1), strict=False)
        assert got == _exact_ranks(lines, y)


def test_unrepresentable_values_take_the_fallback():
    assert _to_float(10**400) is None
    assert _to_float(Fraction(1, 10**400)) is None
    assert _to_float(Fraction(-3, 2**1070)) is None  # subnormal
    assert _to_float(0) == 0.0 and _to_float(Fraction(3, 2)) == 1.5
    assert _float_lines([L(1, 2, 0), Line(1.0, 2.0, 1)]) is None  # float runs
    # normal lines at a level without a normal float copy
    nonh = [L(1, 0, 0), L(-1, 0, 1), L(2, 1, 2)]
    fl = _float_lines(nonh)
    assert fl is not None
    y = Fraction(10**400)
    want = sorted(range(3), key=lambda i: ((y - nonh[i].b) / nonh[i].a, 1 / nonh[i].a, i))
    assert _order(nonh, fl, ("val", y, False), False) == want


@pytest.mark.parametrize("case", sorted(FILTER_CASES))
def test_filter_cases_match_oracle(case):
    r = random.Random(f"oracle/{case}")
    for _ in range(4):
        lines = FILTER_CASES[case](r)
        ys = sorted({v[0] for v in enumerate_arrangement_vertices(lines)})
        theta = r.choice(ys)
        tester = threshold(theta)
        want1, want2 = oracle_arrangement(lines, tester)
        band = LambdaRange(ys[0] - 1, ys[-1] + 1)
        find_boundary_vertices(lines, band, tester, r)
        assert band.hi == want1[1] == theta
        assert band.lo == (ys[0] - 1 if want2 is None else want2[1])
        assert compute_ranks(lines, band) == _exact_ranks(lines, (band.lo + band.hi) / 2)

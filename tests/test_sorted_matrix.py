import math
import random
from fractions import Fraction

import pytest

from treecenter.sorted_matrix import LambdaRange, SortedMatrix, _weighted_median, msearch
from treecenter.stems import Stem, stem_arrays_discrete


def dense(rows):
    """SortedMatrix over a dense list-of-lists."""
    r, c = len(rows), len(rows[0])
    return SortedMatrix(rows=r, cols=c, eval=lambda i, j: rows[i][j])


def make_sorted(rng, r, c, hi=1000):
    """Random matrix with nonincreasing rows and columns."""
    a = sorted((rng.randint(0, hi) for _ in range(r)), reverse=True)
    b = sorted((rng.randint(0, hi) for _ in range(c)), reverse=True)
    return [[a[i] + b[j] for j in range(c)] for i in range(r)]


def threshold_tester(theta, log=None):
    def tester(lam):
        if log is not None:
            log.append(lam)
        return lam >= theta

    return tester


def test_single_element():
    rng = LambdaRange(0, 10)
    res = msearch([dense([[5]])], rng, 0, threshold_tester(5))
    assert rng.hi == 5
    assert res.remaining == 0


def test_two_by_two():
    rng = LambdaRange(0, 10)
    res = msearch([dense([[4, 2], [3, 1]])], rng, 0, threshold_tester(3))
    assert rng.hi == 3
    assert rng.lo >= 2
    assert res.remaining == 0


def test_stopping_count_already_met():
    rng = LambdaRange(0, 10)
    calls = []
    res = msearch([dense([[4, 2], [3, 1]])], rng, 4, threshold_tester(3, calls))
    assert calls == []
    assert (rng.lo, rng.hi) == (0, 10)
    assert res.remaining == 4


def test_negative_stopping_count_rejected():
    with pytest.raises(ValueError):
        msearch([dense([[1]])], LambdaRange(0, 2), -1, threshold_tester(1))


def _pool_values(mats):
    out = []
    for m in mats:
        for i in range(m.rows):
            for j in range(m.cols):
                out.append(m.value(i, j))
    return out


def make_ragged(rng, hi=1000):
    """1-row arrays of random lengths, each nonincreasing."""
    return [
        [sorted((rng.randint(0, hi) for _ in range(rng.randint(1, 20))), reverse=True)]
        for _ in range(rng.randint(1, 6))
    ]


def make_zero_padded(rng, m, hi=1000):
    """m x m rows shaped like the continuous stem matrix: row i holds m - i
    nonincreasing values, then zeros. Columns carry no order."""
    rows = []
    for i in range(m):
        vals = sorted((rng.randint(1, hi) for _ in range(m - i)), reverse=True)
        rows.append(vals + [0] * i)
    return rows


@pytest.mark.parametrize("seed", range(12))
def test_c0_lands_on_smallest_feasible(seed):
    rng0 = random.Random(seed)
    mats = []
    for _ in range(rng0.randint(1, 5)):
        r = rng0.randint(1, 12)
        c = rng0.randint(r, 16)
        mats.append(dense(make_sorted(rng0, r, c)))
    mats.extend(dense(rows) for rows in make_ragged(rng0))
    mats.append(dense(make_zero_padded(rng0, rng0.randint(1, 12))))
    values = sorted(set(_pool_values(mats)))
    theta = values[rng0.randrange(len(values))]
    rng = LambdaRange(min(values) - 1, max(values) + 1)
    res = msearch(mats, rng, 0, threshold_tester(theta))
    assert res.remaining == 0
    feasible = [v for v in values if v >= theta]
    assert rng.hi == min(feasible)
    # discard soundness: nothing remains strictly inside the final range
    assert all(not rng.contains_open(v) for v in _pool_values(mats))
    # bracket still valid
    assert rng.hi >= theta > rng.lo


def test_tester_called_only_inside_range():
    rng0 = random.Random(5)
    mats = [dense(make_sorted(rng0, 6, 9))]
    seen = []
    rng = LambdaRange(200, 1500)
    msearch(mats, rng, 0, threshold_tester(700, seen))
    assert all(200 < lam < 1500 for lam in seen)
    # strictly monotone narrowing throughout implies all calls distinct
    assert len(seen) == len(set(seen))


def test_remaining_per_matrix_with_positive_c():
    rng0 = random.Random(9)
    mats = [dense(make_sorted(rng0, 4, 4)) for _ in range(6)]
    rng = LambdaRange(-1, 10**5)
    res = msearch(mats, rng, 5, threshold_tester(900))
    assert res.remaining <= 5
    assert sum(res.remaining_per_matrix) == res.remaining
    assert len(res.remaining_per_matrix) == 6
    # a matrix with nothing left has no value strictly inside the bracket
    for mat, rem in zip(mats, res.remaining_per_matrix):
        if rem == 0:
            assert not any(rng.contains_open(v) for v in _pool_values([mat]))


def test_wide_matrices_and_transposed():
    rng0 = random.Random(1)
    rows = make_sorted(rng0, 2, 37)
    tall = [[rows[i][j] for i in range(2)] for j in range(37)]  # 37x2
    for mat in (dense(rows), dense(tall)):
        values = sorted(set(_pool_values([mat])))
        theta = values[len(values) // 2]
        rng = LambdaRange(min(values) - 1, max(values) + 1)
        msearch([mat], rng, 0, threshold_tester(theta))
        assert rng.hi == min(v for v in values if v >= theta)


def test_call_budget():
    rng0 = random.Random(42)
    for trial in range(20):
        mats = []
        maxdim = 0
        total = 0
        while total < 500:
            r = rng0.randint(1, 16)
            c = rng0.randint(r, 64)
            mats.append(dense(make_sorted(rng0, r, c)))
            maxdim = max(maxdim, c)
            total += r * c
        values = _pool_values(mats)
        theta = rng0.choice(values)
        rng = LambdaRange(min(values) - 1, max(values) + 1)
        res = msearch(mats, rng, 0, threshold_tester(theta))
        assert res.tester_calls <= 4 * math.log2(max(maxdim, 2)) + 8


def test_exact_fractions():
    rows = [[Fraction(7, 2), Fraction(1, 3)], [Fraction(5, 4), Fraction(1, 6)]]
    rng = LambdaRange(Fraction(0), Fraction(100))
    msearch([dense(rows)], rng, 0, threshold_tester(Fraction(5, 4)))
    assert rng.hi == Fraction(5, 4)


def test_discrete_stem_pool_evaluation_budget():
    # the 1-row arrays of a 200-vertex path stem: A = 400 arrays holding
    # N = 40,200 elements; each round evaluates one middle per active row
    rng0 = random.Random(3)
    xs, x = [], 0
    for _ in range(200):
        xs.append(Fraction(x))
        x += rng0.randint(1, 50)
    stem = Stem(
        backbone=list(range(200)),
        x=xs,
        weights=[Fraction(rng0.randint(1, 10**6)) for _ in range(200)],
        thorns={},
        twigs={},
        own_top=True,
    )
    mats, _ = stem_arrays_discrete(stem)
    values = sorted(set(_pool_values(mats)))
    n_arrays, n_elems = len(mats), sum(m.cols for m in mats)
    assert (n_arrays, n_elems) == (400, 40200)
    evals = 0

    def counted(ev):
        def f(i, j):
            nonlocal evals
            evals += 1
            return ev(i, j)

        return f

    pool = [SortedMatrix(m.rows, m.cols, counted(m.eval), m.owner) for m in mats]
    theta = values[len(values) // 3]
    rng = LambdaRange(-1, values[-1] + 1)
    msearch(pool, rng, 0, threshold_tester(theta))
    assert rng.hi == theta
    assert evals <= 2 * n_arrays * math.log2(n_elems)


@pytest.mark.parametrize("side", ["above", "below"])
def test_rows_outside_the_bracket_cost_at_most_two_evaluations(side):
    # continuous-style zero-padded matrices plus 1-element rows, every value
    # >= hi (or <= lo): no test is made and no row is searched
    rng0 = random.Random(11)
    rows_list = [make_zero_padded(rng0, m) for m in (1, 5, 16, 16)]
    rows_list.append([[rng0.randint(1, 1000)] for _ in range(6)])
    evals = 0

    def counted(rows):
        def f(i, j):
            nonlocal evals
            evals += 1
            return rows[i][j]

        return f

    pool = [SortedMatrix(len(r), len(r[0]), counted(r)) for r in rows_list]
    n_rows = sum(m.rows for m in pool)
    rng = LambdaRange(-1, 0) if side == "above" else LambdaRange(1000, 1001)
    calls = []
    res = msearch(pool, rng, 0, threshold_tester(500, calls))
    assert calls == [] and res.tester_calls == 0
    assert res.remaining == 0
    assert evals <= 2 * n_rows


def exact_weighted_median(pairs):
    ordered = sorted(pairs, key=lambda t: t[0])
    total, acc = sum(wt for _, wt in ordered), 0
    for value, wt in ordered:
        acc += 2 * wt
        if acc >= total:
            return value
    return ordered[-1][0]


@pytest.mark.parametrize("seed", range(20))
def test_weighted_median_of_values_equal_as_floats(seed):
    # 1 + i * 2**-70 all round to the float 1.0; m_eval returns the int 0
    r = random.Random(seed)
    values = [1 + Fraction(i, 2**70) for i in range(-6, 7)] + [0, Fraction(-1, 2**80)]
    pairs = [(v, r.randint(1, 9)) for v in values for _ in range(r.randint(1, 2))]
    r.shuffle(pairs)
    want = exact_weighted_median(list(pairs))
    got = _weighted_median(list(pairs))
    assert got == want and type(got) is type(want)


def test_weighted_median_beyond_the_float_range():
    pairs = [(Fraction(10**400), 3), (Fraction(-(10**400)), 1), (5, 1), (Fraction(1, 3), 1)]
    assert _weighted_median(list(pairs)) == exact_weighted_median(pairs) == 5

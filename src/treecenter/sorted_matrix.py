"""Searching pools of implicitly represented sorted rows.

A pool matrix is given by an evaluator; only its rows need to be sorted,
nonincreasing from left to right. `msearch` keeps one active index interval
per row and halves the intervals around the weighted median of their middle
elements (Frederickson & Johnson, SIAM J. Comput. 1984) until at most c
elements remain. It maintains an open-closed bracket (lo, hi] around the
optimum: lo stays strictly infeasible, hi stays feasible, and only values
strictly inside the open interval are ever submitted to the tester. An
interval only loses indices whose values lie outside the open bracket.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class LambdaRange:
    """The maintained bracket (lo, hi]: lo infeasible, hi feasible, lo < hi."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        if not lo < hi:
            raise ValueError("empty range")
        self.lo = lo
        self.hi = hi

    def contains_open(self, value) -> bool:
        return self.lo < value < self.hi

    def resolve(self, tester, value) -> bool:
        """Feasibility of `value`, testing only if strictly inside the bracket."""
        if value <= self.lo:
            return False
        if value >= self.hi:
            return True
        if tester(value):
            self.hi = value
            return True
        self.lo = value
        return False

    def __repr__(self):
        return f"LambdaRange(({self.lo}, {self.hi}])"


@dataclass(frozen=True)
class SortedMatrix:
    """rows x cols matrix given by an evaluator; every row is nonincreasing
    from left to right. Columns carry no order."""

    rows: int
    cols: int
    eval: object  # callable (i, j) -> scalar, 0-based
    owner: object = None

    def value(self, i: int, j: int):
        return self.eval(i, j)


@dataclass
class MSearchResult:
    remaining: int
    remaining_per_matrix: list = field(default_factory=list)
    tester_calls: int = 0


def _weighted_median(pairs):
    """Smallest value whose cumulative weight reaches half the total."""
    # float keys order exact values without reversing any two; equal floats
    # fall back to the exact compare. Values beyond the float range sort exactly.
    try:
        pairs.sort(key=lambda t: (float(t[0]), t[0]))
    except OverflowError:
        pairs.sort(key=lambda t: t[0])
    total = sum(wt for _, wt in pairs)
    acc = 0
    for value, wt in pairs:
        acc += 2 * wt
        if acc >= total:
            return value
    return pairs[-1][0]


def msearch(matrices, rng: LambdaRange, c: int, tester) -> MSearchResult:
    """Discard all but at most c pool elements, narrowing `rng` in place.

    `tester` is a monotone predicate lam -> bool called only on values
    strictly inside the current open interval. Rows wholly outside the
    bracket are dropped first, for at most two evaluations each. Each round
    evaluates the middle element of every active interval, resolves their
    weighted median (weight = interval length), and drops the half of each
    interval that the bracket now excludes; at least a quarter of the active
    elements go per round, so there are O(log N) rounds and one evaluation
    per active row per round.
    """
    if c < 0:
        raise ValueError("stopping count must be nonnegative")
    calls = 0

    def counted(value):
        nonlocal calls
        calls += 1
        return tester(value)

    # (matrix index, evaluator, row, start, end) of every nonempty row
    active = [(idx, m.eval, i, 0, m.cols)
              for idx, m in enumerate(matrices) if m.cols > 0
              for i in range(m.rows)]
    remaining = sum(e for *_, e in active)
    if remaining > c:
        # a row whose first value is <= lo or whose last is >= hi holds
        # nothing inside the bracket
        kept = []
        for row in active:
            _, ev, i, _, e = row
            first = ev(i, 0)
            if first > rng.lo and (first if e == 1 else ev(i, e - 1)) < rng.hi:
                kept.append(row)
        active = kept
        remaining = sum(e for *_, e in active)
    while remaining > c:
        mids = [ev(i, (s + e) // 2) for _, ev, i, s, e in active]
        rng.resolve(counted, _weighted_median(
            [(v, e - s) for v, (*_, s, e) in zip(mids, active)]))
        kept = []
        for v, (idx, ev, i, s, e) in zip(mids, active):
            mid = (s + e) // 2
            if v >= rng.hi:
                s = mid + 1  # values at indices <= mid are >= v
            elif v <= rng.lo:
                e = mid  # values at indices >= mid are <= v
            if s < e:
                kept.append((idx, ev, i, s, e))
        active = kept
        remaining = sum(e - s for *_, s, e in active)

    per_matrix = [0] * len(matrices)
    for idx, *_, s, e in active:
        per_matrix[idx] += e - s
    return MSearchResult(remaining=remaining, remaining_per_matrix=per_matrix,
                         tester_calls=calls)

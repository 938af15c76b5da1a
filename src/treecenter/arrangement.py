"""Narrowing a bracket around the lowest feasible crossing of a line arrangement.

Lines are y = a*x + b. Crossings inside a y-band are counted as
inversions between the left-to-right orders of the lines at the band's
two ends, by bisecting into the sorted list of earlier positions; one
more draw picks a uniformly random crossing from the band. One randomized
loop tests drawn crossings until the bracket's interior holds none, so
its ends become y(v2) and y(v1): the highest infeasible and the lowest
feasible crossing. Each test moves one end, and only the order at that
end is sorted again. The loop carries stall fuel for float runs. Later
phases read only the line order inside that bracket (`compute_ranks`).

Horizontal lines have no sweep position; a zero-slope line carries a
`bias` (+1 or -1) that places it at +infinity or -infinity in rank
orders, the limit of its family as the slope tends to zero.

Exact scalars (anything but `float`) are ordered at a level y through a
float filter (Shewchuk 1997; Fortune & Van Wyk 1993): the lines are sorted
by the float key (fy - fb) / fa of their sweep position x = (y - b) / a,
which is off by at most 2**-50 * (|fy| + |fb|) / |fa| plus an underflow
term. Lines whose error intervals chain together form a group, and only
groups of two or more are sorted by the exact key. Outside a group the
intervals are disjoint, so the float order is the exact one, and the
result equals the all-exact sort element for element. A pass falls back
to the all-exact sort when some value has no normal float copy (it
overflows, or a nonzero value becomes 0 or subnormal), where the bound
does not hold. Float runs sort by their own keys as before.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple

from .scalars import midpoint
from .sorted_matrix import LambdaRange


class Line(NamedTuple):
    a: object
    b: object
    tag: object
    bias: int = 0  # only meaningful when a == 0


# Band ends: ("ninf",) | ("val", y, include_crossings_at_y)


def _inv(a):
    if isinstance(a, Fraction) or isinstance(a, int):
        return Fraction(1, 1) / a
    return 1.0 / a


def _end_key(end, below_on_tie: bool):
    """Sort key function for non-horizontal lines at a band end."""
    if end[0] == "ninf":
        return lambda ln: (-_inv(ln.a), -ln.b / ln.a)
    y = end[1]
    sgn = -1 if below_on_tie else 1
    return lambda ln: ((y - ln.b) / ln.a, sgn * _inv(ln.a))


def _order(nonh, fl, end, below_on_tie):
    """Indices of `nonh` in left-to-right order at a band end; `fl` holds
    their float copies (`_float_lines`) or is None."""
    filtered = fl is not None and end[0] == "val"
    if filtered:
        end = ("val", Fraction(end[1]), end[2])  # ints would divide to floats
    key = _end_key(end, below_on_tie)

    def full_key(i):
        return key(nonh[i]) + (i,)

    idx = _filtered_order(fl, end[1], full_key) if filtered else None
    if idx is None:
        idx = sorted(range(len(nonh)), key=full_key)
    return idx


# Relative error bound of the float sweep key, c * u with u = 2**-53 and c = 8:
# the three input conversions and the two operations of (fy - fb) / fa
# contribute at most about 4u * (|y| + |b|) / |a|; the margin covers the
# rounding of the bound itself. _TINY covers underflow of the last division.
_REL = 2.0 ** -50
_TINY = 2.0 ** -1060


def _to_float(v):
    """float(v), or None when v has no normal float copy: it overflows, or
    it is nonzero and becomes 0 or subnormal."""
    try:
        f = float(v)
    except OverflowError:
        return None
    if abs(f) < 2.2250738585072014e-308 and v != 0:
        return None
    return f


def _float_lines(nonh):
    """(fa, fb, |fa|, |fb|) of every non-horizontal line, or None when the
    lines are floats or some slope or intercept has no normal float copy."""
    fl = []
    for ln in nonh:
        if isinstance(ln.a, float) or isinstance(ln.b, float):
            return None
        fa, fb = _to_float(ln.a), _to_float(ln.b)
        if fa is None or fb is None:
            return None
        fl.append((fa, fb, abs(fa), abs(fb)))
    return fl


def _filtered_order(fl, y, exact_key):
    """Indices of the lines of `fl` sorted by exact_key(i), whose first
    component is the sweep position at level y; None when y has no normal
    float copy or the error bound overflows."""
    fy = _to_float(y)
    if fy is None:
        return None
    ay = abs(fy)
    xs = [(fy - fb) / fa for fa, fb, _, _ in fl]
    errs = [(ay + afb) / afa * _REL + _TINY for _, _, afa, afb in fl]
    if not math.isfinite(max(errs, default=0.0)):
        return None
    idx = sorted(range(len(fl)), key=xs.__getitem__)
    # positions p < q lie in different groups when every interval from q on
    # starts above every interval up to p; then x_p < x_q exactly
    reach = list(accumulate([xs[i] + errs[i] for i in idx], max))
    floor = list(accumulate([xs[i] - errs[i] for i in reversed(idx)], min))[::-1]
    cuts = [0] + [p for p in range(1, len(idx)) if floor[p] > reach[p - 1]]
    cuts.append(len(idx))
    for s, t in zip(cuts, cuts[1:]):
        if t - s > 1:
            idx[s:t] = sorted(idx[s:t], key=exact_key)
    return idx


def _count_inversions(keys):
    """Per position q of `keys` (distinct ints), the number of earlier keys
    greater than keys[q]; their sum is the inversion count. Each count
    bisects the sorted list of the keys before q."""
    seen = []
    counts = []
    for q, x in enumerate(keys):
        i = bisect_right(seen, x)
        counts.append(q - i)
        seen.insert(i, x)
    return counts


def _inverted_pair(keys, counts, r):
    """The r-th inverted pair (keys[p], keys[q]), p < q and keys[p] > keys[q],
    for 0 <= r < sum(counts), numbered by q and then by keys[p]; `counts`
    is `_count_inversions(keys)`. A uniform r gives a uniform pair."""
    sums = list(accumulate(counts))
    q = bisect_right(sums, r)
    r -= sums[q] - counts[q]  # the r-th of the counts[q] greater earlier keys
    return sorted(keys[:q])[q - counts[q] + r], keys[q]


def _horiz_in_band(b, lo_end, hi_end) -> bool:
    if lo_end[0] == "val":
        if lo_end[2]:
            if not (b >= lo_end[1]):
                return False
        elif not (b > lo_end[1]):
            return False
    if hi_end[0] == "val":
        if hi_end[2]:
            if not (b <= hi_end[1]):
                return False
        elif not (b < hi_end[1]):
            return False
    return True


def _split(lines):
    """(non-horizontal lines, their float copies or None, horizontal lines)."""
    nonh, horiz = [], []
    for ln in lines:
        (nonh if ln.a != 0 else horiz).append(ln)
    return nonh, _float_lines(nonh), horiz


def _band(nonh, horiz, lo_end, hi_end, order_lo, order_hi, rand=None):
    """(crossing-pair count in the band, one uniform pair or None) of the
    lines `_split` returned, given their `_order`s at both ends.

    The ends control whether crossings exactly at a "val" level count; the
    orders must break ties at each end to match.
    """
    # a crossing is a pair of lines in one order at the low end and in the
    # other at the high end: an inversion of the high-end positions
    pos_hi = [0] * len(nonh)
    for p, i in enumerate(order_hi):
        pos_hi[i] = p
    keys = [pos_hi[i] for i in order_lo]
    counts = _count_inversions(keys)
    inv_count = sum(counts)

    band_horiz = [h for h in horiz if _horiz_in_band(h.b, lo_end, hi_end)]
    horiz_count = len(band_horiz) * len(nonh)

    total = inv_count + horiz_count
    if rand is None or total == 0:
        return total, None
    r = rand.randrange(total)
    if r < inv_count:
        pair = _inverted_pair(keys, counts, r)
        return total, (nonh[order_hi[pair[0]]], nonh[order_hi[pair[1]]])
    r -= inv_count
    h = band_horiz[r // len(nonh)]
    ln = nonh[r % len(nonh)]
    return total, (h, ln)


def _band_count(split, lo_end, hi_end) -> int:
    """Number of crossing pairs in the band of the lines `_split` returned."""
    nonh, fl, horiz = split
    order_lo = _order(nonh, fl, lo_end, lo_end[0] == "val" and lo_end[2])
    order_hi = _order(nonh, fl, hi_end, hi_end[0] == "val" and not hi_end[2])
    return _band(nonh, horiz, lo_end, hi_end, order_lo, order_hi)[0]


def crossing_point(l1: Line, l2: Line):
    """(x, y) of the crossing of two non-parallel lines."""
    x = (l2.b - l1.b) / (l1.a - l2.a)
    return x, l1.a * x + l1.b


def count_vertices_at_or_below(lines, lam) -> int:
    """Number of crossing pairs with y <= lam; parallel pairs contribute none."""
    return _band_count(_split(lines), ("ninf",), ("val", lam, True))


def find_boundary_vertices(lines, rng: LambdaRange, tester, rand) -> None:
    """Narrow `rng` in place until its open interior holds no crossing.

    Each pass counts the crossings strictly inside the bracket and tests
    the y of one drawn uniformly among them; the tester is only called
    strictly inside the bracket. Afterwards `rng.hi` is y(v1), the lowest
    crossing with feasible y, and `rng.lo` is y(v2), the highest crossing
    strictly below it, wherever these lie inside the initial bracket;
    otherwise that end is unchanged.

    With exact scalars every sampled crossing narrows the bracket. Float
    arithmetic can disagree with the sweep-order keys by rounding, so the
    loop carries stall fuel and settles for the current bracket when spent.
    """
    nonh, fl, horiz = _split(lines)
    # the order at an end depends only on its level: sort again only at the
    # end that the last test moved
    lo = hi = None
    fuel = 64
    while True:
        if rng.lo != lo:
            lo = rng.lo
            order_lo = _order(nonh, fl, ("val", lo, False), False)
        if rng.hi != hi:
            hi = rng.hi
            order_hi = _order(nonh, fl, ("val", hi, False), True)
        cnt, pair = _band(nonh, horiz, ("val", lo, False), ("val", hi, False),
                          order_lo, order_hi, rand)
        if cnt == 0:
            return
        _x, y = crossing_point(*pair)
        rng.resolve(tester, y)
        if rng.lo == lo and rng.hi == hi:
            fuel -= 1
            if fuel <= 0:
                return


class RankContractError(RuntimeError):
    """The supplied range's interior contained an arrangement crossing."""


def compute_ranks(lines, rng: LambdaRange, strict: bool = True) -> dict:
    """tag -> 1-based position in the left-to-right crossing order at any
    level strictly inside `rng` (constant there; raises if not).

    `strict=False` skips the interior check; float runs cannot always
    empty the band exactly and settle for the midpoint order.
    """
    nonh, fl, horiz = split = _split(lines)
    if strict and _band_count(split, ("val", rng.lo, False), ("val", rng.hi, False)) != 0:
        raise RankContractError("range interior contains arrangement vertices")
    lam = midpoint(rng.lo, rng.hi)
    if fl is not None:
        lam = Fraction(lam)  # ints would divide to floats

    def key(i):
        ln = nonh[i]
        return ((lam - ln.b) / ln.a, ln.a, _tagkey(ln.tag), i)

    order = None if fl is None else _filtered_order(fl, lam, key)
    if order is None:
        order = sorted(range(len(nonh)), key=key)
    horiz.sort(key=lambda ln: _tagkey(ln.tag))
    ordered = ([ln for ln in horiz if ln.bias <= 0] + [nonh[i] for i in order]
               + [ln for ln in horiz if ln.bias > 0])
    return {ln.tag: i + 1 for i, ln in enumerate(ordered)}


def _tagkey(tag):
    # tags may be ints, strings, or nested tuples; normalize for total ordering
    if isinstance(tag, tuple):
        return (1, tuple(_tagkey(t) for t in tag))
    return (0, type(tag).__name__, tag)

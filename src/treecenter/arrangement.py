"""Narrowing a bracket around the lowest feasible crossing of a line arrangement.

Lines are y = a*x + b. Crossings below a horizontal sweep level are
counted as inversions between the left-to-right orders of the lines at
two levels, via a merge sort; the same merge draws a uniformly random
crossing from a y-band. One randomized loop tests drawn crossings until
the bracket's interior holds none, so its ends become y(v2) and y(v1):
the highest infeasible and the lowest feasible crossing. The loop carries
stall fuel for float runs. Later phases read only the line order inside
that bracket (`compute_ranks`).

Horizontal lines have no sweep position; a zero-slope line carries a
`bias` (+1 or -1) that places it at +infinity or -infinity in rank
orders, the limit of its family as the slope tends to zero.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .scalars import midpoint
from .sorted_matrix import LambdaRange


class Line(NamedTuple):
    a: object
    b: object
    tag: object
    bias: int = 0  # only meaningful when a == 0


# Band ends: ("ninf",) | ("pinf",) | ("val", y, include_crossings_at_y)


def _inv(a):
    if isinstance(a, Fraction) or isinstance(a, int):
        return Fraction(1, 1) / a
    return 1.0 / a


def _end_key(end, below_on_tie: bool):
    """Sort key function for non-horizontal lines at a band end."""
    kind = end[0]
    if kind == "ninf":
        return lambda ln: (-_inv(ln.a), -ln.b / ln.a)
    if kind == "pinf":
        return lambda ln: (_inv(ln.a), -ln.b / ln.a)
    y = end[1]
    sgn = -1 if below_on_tie else 1
    return lambda ln: ((y - ln.b) / ln.a, sgn * _inv(ln.a))


def _order(nonh, end, below_on_tie):
    key = _end_key(end, below_on_tie)
    idx = list(range(len(nonh)))
    idx.sort(key=lambda i: key(nonh[i]) + (i,))
    return idx


def _merge_count_sample(seq, rand):
    """Inversion count of `seq` (distinct ints paired with payloads) plus a
    uniformly random inverted pair, via bottom-up merge sort."""
    arr = list(seq)
    total = 0
    sample = None
    run = 1
    while run < len(arr):
        out = []
        for start in range(0, len(arr), 2 * run):
            left = arr[start:start + run]
            right = arr[start + run:start + 2 * run]
            i = j = 0
            while i < len(left) and j < len(right):
                if right[j][0] < left[i][0]:
                    c = len(left) - i
                    total += c
                    if rand is not None and rand.randrange(total) < c:
                        pick = left[i + rand.randrange(c)]
                        sample = (pick[1], right[j][1])
                    out.append(right[j])
                    j += 1
                else:
                    out.append(left[i])
                    i += 1
            out.extend(left[i:])
            out.extend(right[j:])
        arr = out
        run *= 2
    return total, sample


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


def _band(lines, lo_end, hi_end, rand=None):
    """(crossing-pair count in the band, one uniform pair or None).

    The ends control whether crossings exactly at a "val" level count.
    """
    nonh = [ln for ln in lines if ln.a != 0]
    horiz = [ln for ln in lines if ln.a == 0]

    inv_count = 0
    inv_sample = None
    if len(nonh) >= 2:
        lo_tie_below = lo_end[0] == "val" and lo_end[2]
        hi_tie_below = hi_end[0] == "val" and not hi_end[2]
        order_lo = _order(nonh, lo_end, lo_tie_below)
        order_hi = _order(nonh, hi_end, hi_tie_below)
        pos_hi = [0] * len(nonh)
        for p, i in enumerate(order_hi):
            pos_hi[i] = p
        seq = [(pos_hi[i], i) for i in order_lo]
        inv_count, pair = _merge_count_sample(seq, rand)
        if pair is not None:
            inv_sample = (nonh[pair[0]], nonh[pair[1]])

    band_horiz = [h for h in horiz if _horiz_in_band(h.b, lo_end, hi_end)]
    horiz_count = len(band_horiz) * len(nonh)

    total = inv_count + horiz_count
    if rand is None or total == 0:
        return total, None
    r = rand.randrange(total)
    if r < inv_count:
        return total, inv_sample
    r -= inv_count
    h = band_horiz[r // len(nonh)]
    ln = nonh[r % len(nonh)]
    return total, (h, ln)


def crossing_point(l1: Line, l2: Line):
    """(x, y) of the crossing of two non-parallel lines."""
    x = (l2.b - l1.b) / (l1.a - l2.a)
    return x, l1.a * x + l1.b


def count_vertices_at_or_below(lines, lam) -> int:
    """Number of crossing pairs with y <= lam; parallel pairs contribute none."""
    return _band(lines, ("ninf",), ("val", lam, True))[0]


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
    lines = list(lines)
    fuel = 64
    while True:
        cnt, pair = _band(
            lines, ("val", rng.lo, False), ("val", rng.hi, False), rand
        )
        if cnt == 0:
            return
        _x, y = crossing_point(*pair)
        lo0, hi0 = rng.lo, rng.hi
        rng.resolve(tester, y)
        if rng.lo == lo0 and rng.hi == hi0:
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
    lines = list(lines)
    if strict and _band(lines, ("val", rng.lo, False), ("val", rng.hi, False))[0] != 0:
        raise RankContractError("range interior contains arrangement vertices")
    lam = midpoint(rng.lo, rng.hi)

    def key(ln: Line):
        if ln.a == 0:
            group = 1 if ln.bias > 0 else -1
            return (group, 0, ln.a, _tagkey(ln.tag))
        return (0, (lam - ln.b) / ln.a, ln.a, _tagkey(ln.tag))

    ordered = sorted(lines, key=key)
    return {ln.tag: i + 1 for i, ln in enumerate(ordered)}


def _tagkey(tag):
    # tags may be ints, strings, or nested tuples; normalize for total ordering
    if isinstance(tag, tuple):
        return (1, tuple(_tagkey(t) for t in tag))
    return (0, type(tag).__name__, tag)

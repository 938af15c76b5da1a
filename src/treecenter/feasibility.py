"""Linear-time greedy feasibility tests for a given coverage bound.

`ftest0` answers whether k centers placed anywhere on the edges can bring
every vertex v within weighted distance w(v) * d <= lam of a center;
`dftest0` restricts centers to vertices. Both run one post-order pass,
maintaining for each vertex the distance to the closest center already
placed in its subtree (sup) and the largest distance at which one more
center would still cover everything uncovered below (dem). An unset sup
or dem is `math.inf`, which a Fraction or a float compares with exactly.
No length is ever added to or subtracted from it: a sum with an int or a
Fraction beyond the float range would raise OverflowError.

`ftest0_feasible`, the verdict-only test behind every step of the
solver's search, runs the same scan on Python ints when the tree and lam
are exact: each sup/dem value is a sum of edge lengths plus or minus
lam / w(x), held as an integer fraction and compared by
cross-multiplication, and a tree with non-integer rationals is scaled to
integers first. `ftest0` and `dftest0`, which also place the centers,
run on the scalars they are given.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf, lcm

from .tree import RootedTree


@dataclass(frozen=True)
class Center:
    """A placed center: on `edge` at `offset` from its lower endpoint, or at `vertex`."""

    edge: tuple | None  # (u, parent(u)) in original ids, or None
    offset: object | None  # distance from u along the edge, or None
    vertex: int | None  # set for discrete and root placements


@dataclass
class FeasibilityOutcome:
    feasible: bool
    count: int
    centers: list
    classes: list = field(default_factory=list)  # center index -> covered vertices
    sup_root: object = None
    dem_root: object = None
    sup_center: int = -1  # center realizing sup at the root, -1 if none
    uncovered: list = field(default_factory=list)  # only when the root step is deferred


def _scan(rooted: RootedTree, lam, discrete: bool, defer_root: bool):
    """Shared post-order scan. Returns a partially filled FeasibilityOutcome."""
    tree = rooted.tree
    n = tree.n
    w = tree.weights
    sup = [inf] * n
    supc = [-1] * n
    dem = [None] * n
    # pending[v]: uncovered positive-weight vertices of the subtree at v,
    # kept as a linked list so merges are O(1)
    head = [-1] * n
    tail = [-1] * n
    nxt = [-1] * n
    for v in range(n):
        if w[v] > 0:
            dem[v] = lam / w[v]
            head[v] = tail[v] = v
        else:
            dem[v] = inf

    centers = []
    classes = []

    def absorb(list_head: int, cidx: int):
        x = list_head
        while x != -1:
            classes[cidx].append(x)
            x = nxt[x]

    count = 0
    for v in rooted.postorder:
        sv = sup[v]
        sc = supc[v]
        dv = dem[v]
        for u in rooted.children[v]:
            d_uv = rooted.parent_len[u]
            if sup[u] <= dem[u]:
                # the closest center below u mops up whatever is pending there
                if head[u] != -1:
                    absorb(head[u], supc[u])
                if sup[u] < sv:  # else sup[u] + d_uv >= sv; skips inf + d_uv
                    cand = sup[u] + d_uv
                    if cand < sv:
                        sv = cand
                        sc = supc[u]
            elif dem[u] < d_uv:
                cidx = len(centers)
                if discrete:
                    centers.append(Center(edge=None, offset=None, vertex=u))
                    cand = d_uv
                else:
                    centers.append(Center(edge=(u, v), offset=dem[u], vertex=None))
                    cand = d_uv - dem[u]
                classes.append([])
                absorb(head[u], cidx)
                count += 1
                if cand < sv:
                    sv = cand
                    sc = cidx
            else:
                nd = dem[u] - d_uv
                if nd < dv:
                    dv = nd
                if head[u] != -1:
                    if head[v] == -1:
                        head[v], tail[v] = head[u], tail[u]
                    else:
                        nxt[tail[v]] = head[u]
                        tail[v] = tail[u]
        sup[v] = sv
        supc[v] = sc
        dem[v] = dv

    root = rooted.root
    uncovered = []
    if defer_root:
        x = head[root]
        while x != -1:
            uncovered.append(x)
            x = nxt[x]
    else:
        if sup[root] > dem[root]:
            cidx = len(centers)
            centers.append(Center(edge=None, offset=None, vertex=root))
            classes.append([])
            absorb(head[root], cidx)
            count += 1
        elif head[root] != -1:
            absorb(head[root], supc[root])

    return FeasibilityOutcome(
        feasible=False,
        count=count,
        centers=centers,
        classes=classes,
        sup_root=sup[root],
        dem_root=dem[root],
        sup_center=supc[root],
        uncovered=uncovered,
    )


def ftest0(
    rooted: RootedTree,
    lam,
    k: int,
    *,
    discrete: bool = False,
    defer_root: bool = False,
) -> FeasibilityOutcome:
    """Feasibility test: minimum greedy center count vs k, with centers
    anywhere on the edges, or only at vertices when `discrete`."""
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    out = _scan(rooted, lam, discrete=discrete, defer_root=defer_root)
    out.feasible = out.count <= k
    return out


def dftest0(
    rooted: RootedTree,
    lam,
    k: int,
    *,
    defer_root: bool = False,
) -> FeasibilityOutcome:
    """Discrete feasibility test: `ftest0` with centers restricted to vertices."""
    return ftest0(rooted, lam, k, discrete=True, defer_root=defer_root)


def ftest0_feasible(rooted: RootedTree, lam, k: int, discrete: bool = False) -> bool:
    """Lean verdict-only variant used in solver hot loops.

    Exact input (ints and Fractions) runs `_int_feasible`; a float tree or a
    float lam runs `_scan_feasible`, the same scan on plain arithmetic."""
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    tree = rooted.tree
    lens = list(rooted.parent_len)
    lens[rooted.root] = 0
    try:
        p, q = lam.numerator, lam.denominator
        wscale = lcm(*{w.denominator for w in tree.weights})
        lscale = lcm(*{d.denominator for d in lens})
    except AttributeError:  # floats carry no numerator/denominator
        return _scan_feasible(rooted, lam, k, discrete)
    # w(v) * d <= lam  iff  (wscale * w(v)) * (lscale * d) <= wscale * lscale * lam
    if wscale == 1:
        weights = [w.numerator for w in tree.weights]
    else:
        weights = [w.numerator * (wscale // w.denominator) for w in tree.weights]
    if lscale == 1:
        lq = [d.numerator * q for d in lens]
    else:
        lq = [d.numerator * (lscale // d.denominator) * q for d in lens]
    return _int_feasible(rooted, weights, lq, p * wscale * lscale, k, discrete)


def _int_feasible(rooted: RootedTree, weights: list, lq: list, p: int, k: int,
                  discrete: bool) -> bool:
    """The scan of `_scan_feasible` on ints, for lam = p/q.

    `weights` are ints and lq[u] = q * (length of u's parent edge). Every
    sup/dem value is A + s*lam/w(x) (A a sum of lengths, s in {-1, 0, 1}),
    held as a pair (num, den) with q * value = num/den: den is w(x), or 1,
    or 0 with num = 1 for +inf. Comparisons cross-multiply; the denominators
    are never negative, so +inf compares above every finite value.
    """
    n = len(weights)
    sn = [1] * n
    sd = [0] * n
    dn = [p if w else 1 for w in weights]
    dd = weights  # a zero weight is dem = +inf
    count = 0
    children = rooted.children
    for v in rooted.postorder:
        an, ad = 1, 0  # sup(v)
        bn, bd = dn[v], dd[v]  # dem(v)
        for u in children[v]:
            s, t = sn[u], sd[u]
            c, e = dn[u], dd[u]
            d = lq[u]
            if s * e <= c * t:
                # sup(u) <= dem(u); a finite sup(u) reaches v at sup(u) + d
                if t:
                    s += d * t
                    if s * ad < an * t:
                        an, ad = s, t
            elif c < d * e:
                # dem(u) < d, with dem(u) finite since sup(u) > dem(u)
                count += 1
                if count > k:
                    return False
                if discrete:
                    s, t = d, 1
                else:
                    s, t = d * e - c, e
                if s * ad < an * t:
                    an, ad = s, t
            else:
                c -= d * e
                if c * bd < bn * e:
                    bn, bd = c, e
        sn[v] = an
        sd[v] = ad
        dn[v] = bn
        dd[v] = bd
    r = rooted.root
    if sn[r] * dd[r] > dn[r] * sd[r]:
        count += 1
    return count <= k


def _scan_feasible(rooted: RootedTree, lam, k: int, discrete: bool) -> bool:
    """The verdict of `ftest0` on any scalar type: a float tree or lam here."""
    tree = rooted.tree
    n = tree.n
    w = tree.weights
    sup = [inf] * n
    dem = [None] * n
    for v in range(n):
        dem[v] = lam / w[v] if w[v] > 0 else inf
    count = 0
    for v in rooted.postorder:
        sv = sup[v]
        dv = dem[v]
        for u in rooted.children[v]:
            d_uv = rooted.parent_len[u]
            if sup[u] <= dem[u]:
                if sup[u] < sv:  # as in `_scan`
                    cand = sup[u] + d_uv
                    if cand < sv:
                        sv = cand
            elif dem[u] < d_uv:
                count += 1
                if count > k:
                    return False
                cand = d_uv if discrete else d_uv - dem[u]
                if cand < sv:
                    sv = cand
            else:
                nd = dem[u] - d_uv
                if nd < dv:
                    dv = nd
        sup[v] = sv
        dem[v] = dv
    root = rooted.root
    if sup[root] > dem[root]:
        count += 1
    return count <= k

"""Linear-time greedy feasibility tests for a given coverage bound.

`ftest0` answers whether k centers placed anywhere on the edges can bring
every vertex v within weighted distance w(v) * d <= lam of a center;
`dftest0` restricts centers to vertices. Both run one post-order pass,
maintaining for each vertex the distance to the closest center already
placed in its subtree (sup) and the largest distance at which one more
center would still cover everything uncovered below (dem).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .scalars import INF
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
    assignment: list  # vertex -> center index, None for unconstrained vertices
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
    sup = [INF] * n
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
            dem[v] = INF

    centers = []
    classes = []
    assignment = [None] * n

    def absorb(list_head: int, cidx: int):
        x = list_head
        while x != -1:
            assignment[x] = cidx
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
        assignment=assignment,
        classes=classes,
        sup_root=sup[root],
        dem_root=dem[root],
        sup_center=supc[root],
        uncovered=uncovered,
    )


def _assign_weightless(rooted: RootedTree, assignment: list) -> None:
    """Attach zero-weight vertices to the class of the nearest assigned ancestor."""
    for v in rooted.preorder:
        if assignment[v] is None:
            p = rooted.parent[v]
            if p >= 0 and assignment[p] is not None:
                assignment[v] = assignment[p]


def ftest0(
    rooted: RootedTree,
    lam,
    k: int,
    *,
    discrete: bool = False,
    want_partition: bool = False,
    defer_root: bool = False,
) -> FeasibilityOutcome:
    """Feasibility test: minimum greedy center count vs k, with centers
    anywhere on the edges, or only at vertices when `discrete`."""
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    out = _scan(rooted, lam, discrete=discrete, defer_root=defer_root)
    out.feasible = out.count <= k
    if want_partition:
        _assign_weightless(rooted, out.assignment)
    return out


def dftest0(
    rooted: RootedTree,
    lam,
    k: int,
    *,
    want_partition: bool = False,
    defer_root: bool = False,
) -> FeasibilityOutcome:
    """Discrete feasibility test: `ftest0` with centers restricted to vertices."""
    return ftest0(
        rooted, lam, k, discrete=True, want_partition=want_partition, defer_root=defer_root
    )


def ftest0_feasible(rooted: RootedTree, lam, k: int, discrete: bool = False) -> bool:
    """Lean verdict-only variant used in solver hot loops."""
    tree = rooted.tree
    n = tree.n
    w = tree.weights
    sup = [INF] * n
    dem = [None] * n
    for v in range(n):
        dem[v] = lam / w[v] if w[v] > 0 else INF
    count = 0
    for v in rooted.postorder:
        sv = sup[v]
        dv = dem[v]
        for u in rooted.children[v]:
            d_uv = rooted.parent_len[u]
            if sup[u] <= dem[u]:
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

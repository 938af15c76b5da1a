"""Stem machinery: backbone paths with attachments, their candidate-value
structures, per-stem reduction (post-processing), cleanup, and the tables
that power the sublinear feasibility test.

A stem is a path of the working tree (its backbone, listed bottom to top)
together with attachments hanging off backbone vertices. A thorn is an
attachment coverable from the backbone under every bracketed value; a twig
is one that forces a dedicated center. In discrete mode a twig has a bud,
the vertex where that forced center must sit.

Attachments of a vertex shared by several paths belong to the path where
the vertex is interior or bottom; tops never own attachments except the
global root's stem.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from .arrangement import Line
from .feasibility import ftest0
from .sorted_matrix import SortedMatrix
from .sublist_lp import EnvelopeIndex, HalfPlane
from .tree import RootedTree, Tree, path_distance


class StemContractError(RuntimeError):
    """An emitted attachment violated its thorn/twig bound."""


@dataclass(frozen=True)
class Thorn:
    tag: int
    length: object
    weight: object


@dataclass(frozen=True)
class ContTwig:
    tag: int
    length: object
    weight: object


@dataclass(frozen=True)
class DiscTwig:
    bud_tag: int
    bud_len: object  # d(backbone vertex, bud)
    tag: int         # the twig vertex
    twig_len: object  # d(bud, twig vertex)
    weight: object   # weight of the twig vertex
    bud_weight: object

    @property
    def length(self):
        return self.bud_len + self.twig_len


@dataclass
class Stem:
    backbone: list  # original vertex ids, bottom v_1 .. top v_m
    x: list         # x[i] = d(v_1, backbone[i])
    weights: list
    thorns: dict    # position -> Thorn
    twigs: dict     # position -> ContTwig | DiscTwig
    own_top: bool   # top vertex attachments/coverage belong to this stem

    @property
    def m(self) -> int:
        return len(self.backbone)


@dataclass
class Replacement:
    kind: str  # "thorn" | "twig" | "none"
    attachment: object = None  # Thorn | ContTwig | DiscTwig
    centers_used: int = 0


# ----------------------------------------------------------------------
# Working tree


class WorkingTree:
    """The tree being reduced: original edges plus accumulated attachments.

    Vertices keep their original ids throughout; attachment tags are ids of
    vertices that were removed, so the id spaces never collide.
    """

    def __init__(self, tree: Tree, rooted: RootedTree, discrete: bool):
        self.weights = list(tree.weights)
        self.rootdist = rooted.rootdist
        self.root = rooted.root
        self.discrete = discrete
        self.alive = set(range(tree.n))
        self.adj = {v: {} for v in range(tree.n)}
        for u, v, length in tree.edges:
            self.adj[u][v] = length
            self.adj[v][u] = length
        self.thorn = {}
        self.twig = {}

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def leaf_count(self) -> int:
        """Leaves of the attachment-stripped tree, not counting the root."""
        return sum(
            1 for v in self.alive if v != self.root and self.degree(v) <= 1
        )

    # -- stem extraction ------------------------------------------------
    def stems(self) -> list:
        if len(self.alive) == 1:
            return [self._make_stem([self.root])]
        endpoints = {
            v for v in self.alive if self.degree(v) != 2 or v == self.root
        }
        used = set()
        out = []
        for e in sorted(endpoints):
            for u in sorted(self.adj[e]):
                key = (min(e, u), max(e, u))
                if key in used:
                    continue
                path = [e, u]
                used.add(key)
                while path[-1] not in endpoints:
                    v = path[-1]
                    nxts = [w for w in self.adj[v] if w != path[-2]]
                    path.append(nxts[0])
                    used.add((min(v, nxts[0]), max(v, nxts[0])))
                # orient bottom -> top (top is nearer the root)
                if self.rootdist[path[0]] < self.rootdist[path[-1]]:
                    path.reverse()
                out.append(self._make_stem(path))
        return out

    def _make_stem(self, path: list) -> Stem:
        xs = [0]
        for a, b in zip(path, path[1:]):
            xs.append(xs[-1] + self.adj[a][b])
        own_top = path[-1] == self.root
        m = len(path)
        hi = m if own_top else m - 1
        thorns = {}
        twigs = {}
        for p in range(hi):
            v = path[p]
            if v in self.thorn:
                thorns[p] = self.thorn[v]
            if v in self.twig:
                twigs[p] = self.twig[v]
        return Stem(
            backbone=path,
            x=xs,
            weights=[self.weights[v] for v in path],
            thorns=thorns,
            twigs=twigs,
            own_top=own_top,
        )

    def leaf_stems(self, max_len=None) -> list:
        out = []
        for stem in self.stems():
            if self.degree(stem.backbone[0]) > 1:
                continue
            if max_len is not None and stem.m > max_len:
                continue
            out.append(stem)
        return out

    # -- reduction --------------------------------------------------------
    def apply_replacement(self, stem: Stem, repl: Replacement, ranks) -> int:
        """Remove the stem below its top and attach the replacement.

        Returns the number of additional committed centers from merges.
        """
        z = stem.backbone[-1]
        for v in stem.backbone[:-1]:
            for u in list(self.adj[v]):
                del self.adj[u][v]
            del self.adj[v]
            self.alive.discard(v)
            self.thorn.pop(v, None)
            self.twig.pop(v, None)
        extra = 0
        att = repl.attachment
        if repl.kind == "thorn":
            old = self.thorn.get(z)
            if old is None or ranks[att.tag] > ranks[old.tag]:
                self.thorn[z] = att
        elif repl.kind == "twig":
            old = self.twig.get(z)
            if old is None:
                self.twig[z] = att
            else:
                extra = 1
                if self.discrete:
                    keep_new = att.bud_len < old.bud_len
                else:
                    keep_new = ranks[att.tag] < ranks[old.tag]
                if keep_new:
                    self.twig[z] = att
        return extra

    # -- materialization ---------------------------------------------------
    def materialize(self) -> RootedTree:
        """Rooted tree over the current vertices and attachments."""
        base = sorted(self.alive)
        edges = []
        seen = set()
        for v in self.alive:
            for u, length in self.adj[v].items():
                key = (min(u, v), max(u, v))
                if key not in seen:
                    seen.add(key)
                    edges.append((u, v, length))
        attachments = sorted(self.thorn.items()) + sorted(self.twig.items())
        rooted, _ = attached_tree(
            base, [self.weights[v] for v in base], edges, attachments, self.root
        )
        return rooted


# ----------------------------------------------------------------------
# Trees with attachments


def attached_tree(base, weights, edges, attachments, root) -> tuple:
    """A rooted tree over base vertices plus one attachment per pair.

    `base` lists original vertex ids with their `weights`; `edges` are
    (u, v, length) triples and `root` an id, all in original ids.
    `attachments` are (anchor, attachment) pairs: a Thorn or ContTwig hangs
    its vertex off the anchor, a DiscTwig its bud and then, unless the bud
    is the twig vertex, its twig vertex off the bud. Local ids follow
    `base`, then the attachment vertices in pair order. Returns
    (rooted, to_orig), to_orig mapping local ids back to original ids.
    """
    to_orig = list(base)
    weights = list(weights)
    edges = list(edges)
    for anchor, att in attachments:
        if isinstance(att, DiscTwig):
            to_orig.append(att.bud_tag)
            weights.append(att.bud_weight)
            edges.append((anchor, att.bud_tag, att.bud_len))
            if att.tag == att.bud_tag:
                continue  # bud-only twig: the forced center binds itself
            anchor, length = att.bud_tag, att.twig_len
        else:
            length = att.length
        to_orig.append(att.tag)
        weights.append(att.weight)
        edges.append((anchor, att.tag, length))
    index = {orig: i for i, orig in enumerate(to_orig)}
    tree = Tree(
        n=len(to_orig),
        weights=tuple(weights),
        edges=tuple((index[u], index[v], length) for u, v, length in edges),
    )
    return RootedTree(tree, index[root]), to_orig


def stem_tree(stem: Stem) -> tuple:
    """The stem with its attachments as a tree rooted at its top vertex:
    (rooted, to_orig), as `attached_tree` returns them."""
    bb = stem.backbone
    edges = [(bb[p], bb[p + 1], stem.x[p + 1] - stem.x[p]) for p in range(stem.m - 1)]
    attachments = [
        (bb[p], att)
        for p, att in sorted(stem.thorns.items()) + sorted(stem.twigs.items())
    ]
    return attached_tree(bb, stem.weights, edges, attachments, bb[-1])


# ----------------------------------------------------------------------
# Lines and half-planes


def stem_lines(stem: Stem, stem_id=0) -> list:
    """The line set of a stem: two lines per backbone vertex and per
    attachment vertex. Zero-weight lines carry the sign of their family
    as the rank bias."""
    lines = []

    def add(kind, pos, xanchor, weight, length):
        xl = xanchor - length
        xr = xanchor + length
        lines.append(
            Line(weight, -weight * xl, (stem_id, kind, pos, 1), bias=1)
        )
        lines.append(
            Line(-weight, weight * xr, (stem_id, kind, pos, -1), bias=-1)
        )

    for p in range(stem.m):
        add("v", p, stem.x[p], stem.weights[p], 0)
    for p, th in stem.thorns.items():
        add("u", p, stem.x[p], th.weight, th.length)
    for p, tw in stem.twigs.items():
        add("w", p, stem.x[p], tw.weight, tw.length)
    return lines


_XAXIS = HalfPlane(0, 0)


def _vertex_planes(xanchor, weight, length):
    """The pair of upper half-planes of one vertex at distance `length`
    from backbone position `xanchor`."""
    return (
        HalfPlane(weight, -weight * (xanchor - length)),
        HalfPlane(-weight, weight * (xanchor + length)),
    )


def stem_halfplanes(stem: Stem) -> list:
    """Four planes per backbone position: the vertex pair, then the thorn
    pair (the x-axis when the thorn is absent)."""
    planes = []
    for p in range(stem.m):
        planes.extend(_vertex_planes(stem.x[p], stem.weights[p], 0))
        th = stem.thorns.get(p)
        if th is None:
            planes.extend((_XAXIS, _XAXIS))
        else:
            planes.extend(_vertex_planes(stem.x[p], th.weight, th.length))
    return planes


# ----------------------------------------------------------------------
# Candidate-value structures


def stem_matrices_continuous(stem: Stem, env: EnvelopeIndex = None):
    """The m x m matrix plus one pair of arrays per twig; every row is
    nonincreasing. Elements evaluate through sublist lowest-point queries.

    No solve calls it: continuous mode narrows on the stems' line
    crossings, which include these values. Tests check its matrices, and
    the benchmark's tracer resolves it as `treecenter.solver` names it."""
    if env is None:
        env = EnvelopeIndex(stem_halfplanes(stem))
    m = stem.m

    def alpha(i, j):
        # one-center optimum over backbone+thorn vertices at positions i..j
        return env.query_lowest(4 * i, 4 * (j + 1))[1]

    def m_eval(i, j):
        if i + j <= m - 1:
            return alpha(i, m - 1 - j)
        return 0

    mats = [SortedMatrix(rows=m, cols=m, eval=m_eval, owner=("M",))]
    for p, tw in sorted(stem.twigs.items()):
        hplus, hminus = _vertex_planes(stem.x[p], tw.weight, tw.length)

        def right_eval(_i, j, p=p, hplus=hplus):
            return env.query_lowest_extra(4 * p, 4 * (m - j), hplus)[1]

        def left_eval(_i, j, p=p, hminus=hminus):
            return env.query_lowest_extra(4 * j, 4 * (p + 1), hminus)[1]

        mats.append(
            SortedMatrix(rows=1, cols=m - p, eval=right_eval, owner=("Ar", p))
        )
        mats.append(
            SortedMatrix(rows=1, cols=p + 1, eval=left_eval, owner=("Al", p))
        )
    return mats, env


def discrete_points(stem: Stem) -> list:
    """The flattened point list: backbone vertices plus both reflections of
    every thorn, bud, and twig vertex, sorted by x. Entries are (x, weight)."""
    pts = []
    for p in range(stem.m):
        pts.append((stem.x[p], stem.weights[p]))
    for p, th in stem.thorns.items():
        pts.append((stem.x[p] - th.length, th.weight))
        pts.append((stem.x[p] + th.length, th.weight))
    for p, tw in stem.twigs.items():
        pts.append((stem.x[p] - tw.bud_len, tw.bud_weight))
        pts.append((stem.x[p] + tw.bud_len, tw.bud_weight))
        d = tw.length
        pts.append((stem.x[p] - d, tw.weight))
        pts.append((stem.x[p] + d, tw.weight))
    pts.sort(key=lambda t: t[0])
    return pts


def stem_arrays_discrete(stem: Stem):
    """Per flattened point, the two sorted arrays of weighted distances to
    points on its right and on its left."""
    pts = discrete_points(stem)
    t = len(pts)
    xs = [x for x, _ in pts]
    mats = []
    for i, (xi, wi) in enumerate(pts):
        def right_eval(_r, j, xi=xi, wi=wi):
            return wi * (xs[t - 1 - j] - xi)

        def left_eval(_r, j, xi=xi, wi=wi):
            return wi * (xi - xs[j])

        mats.append(SortedMatrix(rows=1, cols=t - i, eval=right_eval, owner=("Dr", i)))
        mats.append(SortedMatrix(rows=1, cols=i + 1, eval=left_eval, owner=("Dl", i)))
    return mats, pts


# ----------------------------------------------------------------------
# Post-processing


def _emit_common(stem: Stem, rooted: RootedTree, ids: list, out, ranks, discrete: bool):
    """Pick the replacement from a deferred-root scan outcome over
    `stem_tree(stem)`, whose root distances are distances to the top."""
    zloc = stem.m - 1
    weights = rooted.tree.weights
    buds = {tw.bud_tag for tw in stem.twigs.values()} if discrete else ()
    covered = out.sup_root <= out.dem_root
    if covered and out.count == 0:
        return Replacement(kind="none", centers_used=0)
    if covered:
        qidx = out.sup_center
        members = [v for v in out.classes[qidx] if v != zloc]
        members += [v for v in out.uncovered if v != zloc]
        if discrete:
            # old buds cannot anchor the new twig, but the center vertex
            # itself can when its own slack binds the placement
            qloc = out.centers[qidx].vertex  # scan ids are stem-local
            members = [v for v in members if ids[v] not in buds]
            members.append(qloc)
        u = max(members, key=lambda v: ranks[ids[v]])
        if discrete:
            att = DiscTwig(
                bud_tag=ids[qloc],
                bud_len=rooted.rootdist[qloc],
                tag=ids[u],
                twig_len=path_distance(rooted.tree, qloc, u),
                weight=weights[u],
                bud_weight=weights[qloc],
            )
        else:
            att = ContTwig(tag=ids[u], length=rooted.rootdist[u], weight=weights[u])
        return Replacement(kind="twig", attachment=att, centers_used=out.count - 1)
    members = [v for v in out.uncovered if v != zloc and ids[v] not in buds]
    if not members:
        return Replacement(kind="none", centers_used=out.count)
    u = max(members, key=lambda v: ranks[ids[v]])
    att = Thorn(tag=ids[u], length=rooted.rootdist[u], weight=weights[u])
    return Replacement(kind="thorn", attachment=att, centers_used=out.count)


def _check_replacement(repl: Replacement, rng, discrete: bool):
    att = repl.attachment
    if repl.kind == "twig":
        if not att.weight * att.length >= rng.hi:
            raise StemContractError("emitted twig below the feasible bound")
        if discrete and not att.weight * att.twig_len <= rng.lo:
            raise StemContractError("emitted bud cannot be forced")
    elif repl.kind == "thorn":
        if not att.weight * att.length <= rng.lo:
            raise StemContractError("emitted thorn above the infeasible bound")


def _postprocess(stem: Stem, rng, ranks, resolver, discrete: bool) -> Replacement:
    """Scan the stem at the bracket midpoint and compress it to one
    attachment at its top.

    The emitted attachment's boundary values (its weighted distances to the
    top and, discretely, to its bud) decide whether it acts as a thorn or a
    twig; when the bracket still straddles one, it is resolved through the
    feasibility tester, the bracket narrows, and the scan is redone.
    """
    from .scalars import midpoint

    rooted, ids = stem_tree(stem)
    guard = 0
    while True:
        guard += 1
        if guard > 16 * len(ids) ** 2 + 64:
            raise StemContractError("post-processing failed to stabilize")
        lam = midpoint(rng.lo, rng.hi)
        out = ftest0(rooted, lam, 4 * stem.m + 8, discrete=discrete, defer_root=True)
        repl = _emit_common(stem, rooted, ids, out, ranks, discrete=discrete)
        pending = []
        if repl.kind != "none":
            att = repl.attachment
            pending.append(att.weight * att.length)
            if discrete and repl.kind == "twig":
                pending.append(att.weight * att.twig_len)
        pending = [v for v in pending if rng.lo < v < rng.hi]
        if not pending:
            _check_replacement(repl, rng, discrete=discrete)
            return repl
        resolver(pending[0])


def postprocess_continuous(stem: Stem, rng, ranks, resolver) -> Replacement:
    return _postprocess(stem, rng, ranks, resolver, discrete=False)


def postprocess_discrete(stem: Stem, rng, ranks, resolver) -> Replacement:
    return _postprocess(stem, rng, ranks, resolver, discrete=True)


# ----------------------------------------------------------------------
# Cleanup and tables for the sublinear feasibility test


@dataclass
class VEntry:
    kind: str      # "v" backbone, "u" thorn
    pos: int       # backbone position
    tag: int
    weight: object
    length: object  # attachment length (0 for backbone vertices)


@dataclass
class SubstemTables:
    stem: Stem
    owned_hi: int
    ventries: list = field(default_factory=list)
    vpos: list = field(default_factory=list)  # positions of V's backbone vertices
    env: EnvelopeIndex = None
    ncen: list = field(default_factory=list)
    vbest: list = field(default_factory=list)   # index into ventries
    qbest: list = field(default_factory=list)   # backbone position or None
    ntwigs: int = 0
    # twig indices for crossing-over coverage (None when no twig exists)
    a_info: tuple = None  # continuous: (pos, length, weight); discrete: d(v_1, bud)
    b_info: tuple = None  # continuous: (pos, length, weight); discrete: d(bud, v_m)

    @property
    def t(self) -> int:
        return len(self.vpos)


def _owned_hi(stem: Stem, owns_top: bool) -> int:
    return stem.m if owns_top else stem.m - 1


def cleanup_continuous(stem: Stem, owns_top: bool, rankp) -> tuple:
    """Mark backbone/thorn vertices covered by twig-forced centers, for any
    value in the bracket. `rankp(kind, pos, sign)` gives the line ranks."""
    hi = _owned_hi(stem, owns_top)
    vcov = [False] * hi
    ucov = {}
    twig_pos = sorted(stem.twigs)
    # left-to-right: twigs at or below cover upward
    best = None
    for p in range(hi):
        if p in stem.twigs:
            if best is None or rankp("w", p, 1) > rankp("w", best, 1):
                best = p
        if best is not None:
            rb = rankp("w", best, 1)
            if rb > rankp("v", p, -1):
                vcov[p] = True
            if p in stem.thorns and rb > rankp("u", p, -1):
                ucov[p] = True
    # right-to-left: twigs at or above cover downward
    best = None
    for p in range(hi - 1, -1, -1):
        if p in stem.twigs:
            if best is None or rankp("w", p, -1) < rankp("w", best, -1):
                best = p
        if best is not None:
            rb = rankp("w", best, -1)
            if rb < rankp("v", p, 1):
                vcov[p] = True
            if p in stem.thorns and rb < rankp("u", p, 1):
                ucov[p] = True
    return vcov, ucov


def cleanup_discrete(stem: Stem, owns_top: bool, lam) -> tuple:
    """Same marking with buds: center positions are fixed, so distances are
    compared against `lam` directly."""
    hi = _owned_hi(stem, owns_top)
    vcov = [False] * hi
    ucov = {}
    # left-to-right (buds at or below)
    best = None  # (distance from its backbone vertex, position)
    for p in range(hi):
        tw = stem.twigs.get(p)
        if tw is not None:
            if best is None or tw.bud_len <= best[0] + (stem.x[p] - stem.x[best[1]]):
                best = (tw.bud_len, p)
        if best is not None:
            dist = best[0] + (stem.x[p] - stem.x[best[1]])
            if stem.weights[p] * dist <= lam:
                vcov[p] = True
            th = stem.thorns.get(p)
            if th is not None and th.weight * (th.length + dist) <= lam:
                ucov[p] = True
    # right-to-left
    best = None
    for p in range(hi - 1, -1, -1):
        tw = stem.twigs.get(p)
        if tw is not None:
            if best is None or tw.bud_len <= best[0] + (stem.x[best[1]] - stem.x[p]):
                best = (tw.bud_len, p)
        if best is not None:
            dist = best[0] + (stem.x[best[1]] - stem.x[p])
            if stem.weights[p] * dist <= lam:
                vcov[p] = True
            th = stem.thorns.get(p)
            if th is not None and th.weight * (th.length + dist) <= lam:
                ucov[p] = True
    return vcov, ucov


def _collect_v(stem: Stem, owns_top: bool, vcov, ucov) -> tuple:
    """Surviving vertices, with a covered backbone vertex rescued whenever
    its thorn survives."""
    hi = _owned_hi(stem, owns_top)
    ventries = []
    vpos = []
    for p in range(hi):
        th = stem.thorns.get(p)
        thorn_alive = th is not None and not ucov.get(p, False)
        if vcov[p] and not thorn_alive:
            continue
        vpos.append(p)
        ventries.append(VEntry("v", p, stem.backbone[p], stem.weights[p], 0))
        if thorn_alive:
            ventries.append(VEntry("u", p, th.tag, th.weight, th.length))
    return vpos, ventries


def build_stem_tables(
    stem: Stem,
    owns_top: bool,
    mode: str,
    lam,
    rankp=None,
    vertex_ranks=None,
) -> SubstemTables:
    """Cleanup plus the per-suffix center-count and dominating-vertex tables."""
    discrete = mode == "discrete"
    if discrete:
        vcov, ucov = cleanup_discrete(stem, owns_top, lam)
    else:
        vcov, ucov = cleanup_continuous(stem, owns_top, rankp)
    vpos, ventries = _collect_v(stem, owns_top, vcov, ucov)

    tables = SubstemTables(stem=stem, owned_hi=_owned_hi(stem, owns_top))
    tables.vpos = vpos
    tables.ventries = ventries
    tables.ntwigs = len(stem.twigs)
    if stem.twigs:
        if discrete:
            a_pos = min(
                stem.twigs, key=lambda p: (stem.x[p] + stem.twigs[p].bud_len, p)
            )
            b_pos = min(
                stem.twigs,
                key=lambda p: (stem.x[-1] - stem.x[p] + stem.twigs[p].bud_len, p),
            )
            tables.a_info = stem.x[a_pos] + stem.twigs[a_pos].bud_len
            tables.b_info = stem.x[-1] - stem.x[b_pos] + stem.twigs[b_pos].bud_len
        else:
            a_pos = min(stem.twigs, key=lambda p: rankp("w", p, -1))
            b_pos = max(stem.twigs, key=lambda p: rankp("w", p, 1))
            tables.a_info = (a_pos, stem.twigs[a_pos].length, stem.twigs[a_pos].weight)
            tables.b_info = (b_pos, stem.twigs[b_pos].length, stem.twigs[b_pos].weight)

    t = len(vpos)
    if t == 0:
        return tables

    entry_of = {}
    for e in ventries:
        entry_of.setdefault(e.pos, []).append(e)

    planes = []
    for p in vpos:
        group = entry_of[p]
        planes.extend(_vertex_planes(stem.x[p], group[0].weight, 0))
        if len(group) > 1:
            planes.extend(_vertex_planes(stem.x[p], group[1].weight, group[1].length))
        else:
            planes.extend((_XAXIS, _XAXIS))
    env = EnvelopeIndex(planes)
    tables.env = env

    def dominates(e_new: VEntry, e_old: VEntry) -> bool:
        if discrete:
            return vertex_ranks[e_new.tag] > vertex_ranks[e_old.tag]
        return rankp(e_new.kind, e_new.pos, 1) < rankp(e_old.kind, e_old.pos, 1)

    def covers(i: int, j: int) -> bool:
        # can one center cover V positions vpos[i..j] under lam
        p = env.query_lowest(4 * i, 4 * (j + 1))
        if discrete:
            return _alpha_discrete(env, stem, 4 * i, 4 * (j + 1), p)[0] <= lam
        return p[1] <= lam

    def dvm(e: VEntry):
        return stem.x[-1] - stem.x[e.pos] + e.length

    def pick_q(e: VEntry):
        if e.weight == 0 or e.weight * dvm(e) < lam:
            return None
        limit = stem.x[e.pos] - e.length + lam / e.weight
        return bisect_right(stem.x, limit) - 1

    ncen = [0] * t
    vbest = [None] * t
    qbest = [None] * t

    grp = entry_of[vpos[t - 1]]
    best = grp[0]
    for e in grp[1:]:
        if dominates(e, best):
            best = e
    vbest[t - 1] = best
    if discrete:
        qbest[t - 1] = pick_q(best)
    jnc = t  # smallest group start whose prefix from i is not one-coverable
    for i in range(t - 2, -1, -1):
        while jnc > i + 1 and not covers(i, jnc - 1):
            jnc -= 1
        if jnc < t:
            ncen[i] = ncen[jnc] + 1
            vbest[i] = vbest[jnc]
            qbest[i] = qbest[jnc]
        else:
            ncen[i] = 0
            best = vbest[i + 1]
            for e in entry_of[vpos[i]]:
                if dominates(e, best):
                    best = e
            vbest[i] = best
            if discrete:
                qbest[i] = pick_q(best)
    tables.ncen = ncen
    tables.vbest = vbest
    tables.qbest = qbest
    return tables


def _alpha_discrete(env: EnvelopeIndex, stem: Stem, lo: int, hi: int, p):
    """Snap the unconstrained one-center optimum to the better neighboring
    backbone vertex: (value, backbone x position)."""
    x, y = p
    xs = stem.x
    i = bisect_left(xs, x)
    if i < len(xs) and xs[i] == x:
        return y, x
    best = None
    if i > 0:
        best = (env.query_on_line(lo, hi, xs[i - 1]), xs[i - 1])
    if i < len(xs):
        cand = (env.query_on_line(lo, hi, xs[i]), xs[i])
        if best is None or cand[0] < best[0]:
            best = cand
    return best

"""End-to-end solver: preprocessing, leaf-stem reduction, and the final
narrowing that pins the optimum exactly, all with the linear feasibility
test on the tree as reduced so far. The substem tables with a sublinear
feasibility test (phase 1) are opt-in.

The solver maintains a bracket (lo, hi] with lo strictly infeasible and hi
feasible. Candidate values are generated per stem (line crossings in
continuous mode, weighted point distances in discrete mode) and resolved
through monotone feasibility tests until the bracket's interior is free of
candidates; hi is then the optimum.
"""

from __future__ import annotations

import math
import random
import time
from bisect import bisect_right
from dataclasses import dataclass, field

from .arrangement import Line, compute_ranks, find_boundary_vertices
from .feasibility import dftest0, ftest0, ftest0_feasible
from .scalars import EXACT, INF, INF_HIGH, INF_LOW, midpoint
from .sorted_matrix import LambdaRange, msearch
from .stems import (
    SubstemTables,
    build_stem_tables,
    postprocess_continuous,
    postprocess_discrete,
    stem_arrays_discrete,
    stem_lines,
    # no solve calls it; perfbench/layers.py traces it under this module
    stem_matrices_continuous,
    WorkingTree,
    _alpha_discrete,
)
from .tree import Tree, root_at


@dataclass
class SolverConfig:
    mode: str = "continuous"  # or "discrete"
    scalar: str = EXACT
    r: int | None = None      # substem length cap; default ceil(log2 n)^2
    use_phase0: bool = True
    use_phase1: bool = False  # substem tables and the fast test in phase 2
    seed: int = 0x5EED
    record_tests: bool = False


@dataclass
class SolveResult:
    lambda_star: object
    centers: list
    stats: dict
    tested: list = field(default_factory=list)  # (phase, kind, lam, verdict)


def default_r(n: int) -> int:
    if n <= 2:
        return 1
    return min(n, math.ceil(math.log2(n)) ** 2)


# ----------------------------------------------------------------------
# The sublinear feasibility test over frozen substem tables


class FastFeasibility:
    """Feasibility for values inside the frozen bracket, in time roughly
    proportional to the number of substems."""

    def __init__(self, tabs, children, postorder, root_index, k, lo, hi, discrete):
        self.tabs = tabs
        self.children = children
        self.postorder = postorder
        self.root_index = root_index
        self.k = k
        self.lo = lo
        self.hi = hi
        self.discrete = discrete

    def __call__(self, lam) -> bool:
        return self.feasible(lam)

    def feasible(self, lam) -> bool:
        if not (self.lo < lam < self.hi):
            raise ValueError("lambda outside the frozen bracket")
        n = len(self.tabs)
        sup_out = [None] * n
        dem_out = [None] * n
        count = 0
        for idx in self.postorder:
            s, d = INF, INF_LOW
            for c in self.children[idx]:
                if sup_out[c] < s:
                    s = sup_out[c]
                if dem_out[c] < d:
                    d = dem_out[c]
            count, s, d = self._process(self.tabs[idx], lam, count, s, d)
            sup_out[idx] = s
            dem_out[idx] = d
        if sup_out[self.root_index] > dem_out[self.root_index]:
            count += 1
        return count <= self.k

    # -- per-substem step ------------------------------------------------
    def _process(self, tab: SubstemTables, lam, count, s, d):
        count += tab.ntwigs
        x = tab.stem.x
        dv1vm = x[-1]
        t = tab.t
        supb = self._twig_b(tab, lam)

        def group(i, count):
            v = tab.vbest[i]
            count += tab.ncen[i]
            dvm_v = x[-1] - x[v.pos] + v.length
            if v.weight == 0:
                return count, supb, INF_LOW
            if v.weight * dvm_v <= lam:
                # coverable from the top vertex or above; the equality case
                # postpones too, so a center landing exactly on the shared
                # vertex is placed (once) by the block that owns it
                return count, supb, lam / v.weight - dvm_v
            count += 1
            if self.discrete:
                scand = x[-1] - x[tab.qbest[i]]
            else:
                scand = dvm_v - lam / v.weight
            return count, min(scand, supb), INF_LOW

        if s <= d:
            # the nearest center below v_1 absorbs the pending demand
            i = self._covered_prefix(tab, lam, -s) if t else 0
            if i == t:
                return count, min(s + dv1vm, supb), INF_LOW
            return group(i, count)

        reach_a = self._twig_a(tab, lam)
        if d >= reach_a:
            if t == 0:
                return count, supb, INF_LOW
            return group(0, count)

        i = self._dem_prefix(tab, lam, d) if t else 0
        if i < t:
            count += 1  # the center that absorbs the pending demand
            return group(i, count)

        # i == t: one backbone center within reach could finish everything
        v = tab.vbest[0] if t else None
        slack = v is None or v.weight == 0 or v.weight * (x[-1] - x[v.pos] + v.length) <= lam
        if slack and d >= dv1vm:
            d2 = d - dv1vm
            if v is not None and v.weight > 0:
                cand = lam / v.weight - (x[-1] - x[v.pos] + v.length)
                if cand < d2:
                    d2 = cand
            return count, supb, d2
        count += 1
        if self.discrete:
            j = bisect_right(x, d) - 1
            delta = x[-1] - x[j]
            if t and tab.qbest[0] is not None:
                other = x[-1] - x[tab.qbest[0]]
                if other > delta:
                    delta = other
        else:
            delta = dv1vm - d
            if v is not None and v.weight > 0:
                other = (x[-1] - x[v.pos] + v.length) - lam / v.weight
                if other > delta:
                    delta = other
        return count, min(delta, supb), INF_LOW

    # -- helpers -----------------------------------------------------------
    @staticmethod
    def _twig_b(tab, lam):
        if tab.b_info is None:
            return INF_HIGH
        if isinstance(tab.b_info, tuple):
            pos, length, weight = tab.b_info
            return (tab.stem.x[-1] - tab.stem.x[pos] + length) - lam / weight
        return tab.b_info  # discrete: d(bud, v_m)

    @staticmethod
    def _twig_a(tab, lam):
        if tab.a_info is None:
            return INF_HIGH
        if isinstance(tab.a_info, tuple):
            pos, length, weight = tab.a_info
            return (tab.stem.x[pos] + length) - lam / weight
        return tab.a_info  # discrete: d(v_1, bud)

    @staticmethod
    def _covered_prefix(tab, lam, xq):
        """Largest i with V[0..i) covered by a center at x = xq."""
        lo, hi = 0, tab.t
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if tab.env.query_on_line(0, 4 * mid, xq) <= lam:
                lo = mid
            else:
                hi = mid - 1
        return lo

    def _dem_prefix(self, tab, lam, dval):
        """Largest i such that some backbone center q with d(v_1, q) <= dval
        covers V[0..i)."""
        x = tab.stem.x

        def pred(i):
            p = tab.env.query_lowest(0, 4 * i)
            if self.discrete:
                alpha, xq = _alpha_discrete(tab.env, tab.stem, 0, 4 * i, p)
                if not alpha <= lam:
                    return False
                if xq <= dval:
                    return True
                j = bisect_right(x, dval) - 1
                return tab.env.query_on_line(0, 4 * i, x[j]) <= lam
            xq, y = p
            if not y <= lam:
                return False
            if xq <= dval:
                return True
            return tab.env.query_on_line(0, 4 * i, dval) <= lam

        lo, hi = 0, tab.t
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if pred(mid):
                lo = mid
            else:
                hi = mid - 1
        return lo


# ----------------------------------------------------------------------
# Session


class _Session:
    def __init__(self, tree: Tree, k: int, config: SolverConfig):
        self.tree = tree
        self.k = k
        self.config = config
        self.discrete = config.mode == "discrete"
        self.exact = config.scalar == EXACT
        self.rand = random.Random(config.seed)
        n = tree.n
        if n == 1:
            self.root = 0
        else:
            deg = [0] * n
            for u, v, _ in tree.edges:
                deg[u] += 1
                deg[v] += 1
            self.root = min(v for v in range(n) if deg[v] == 1)
        self.rooted = root_at(tree, self.root)
        self.k_work = k
        self.phase = "pre"
        self.stats = {
            "n": n,
            "k": k,
            "mode": config.mode,
            "tests": {"pre": 0, "phase0": 0, "phase1": 0, "phase2": 0},
        }
        self.tested = []
        self.range = None
        self.ranks = None
        self.working = None
        self.cur_rooted = None
        self.fast = None

    # -- testers -----------------------------------------------------------
    def _record(self, kind, lam, verdict):
        self.stats["tests"][self.phase] += 1
        if self.config.record_tests:
            self.tested.append((self.phase, kind, lam, verdict))

    def base_tester(self):
        """The linear test on the current reduced tree with the remaining
        budget; the reduction is faithful only inside the live bracket."""
        rooted = self.cur_rooted
        k = self.k_work
        discrete = self.discrete
        rng = self.range

        def tester(lam):
            if not (rng.lo < lam < rng.hi):
                raise ValueError("lambda outside the live bracket")
            verdict = ftest0_feasible(rooted, lam, k, discrete)
            self._record("dftest0" if discrete else "ftest0", lam, verdict)
            return verdict

        return tester

    def fast_tester(self):
        fast = self.fast
        discrete = self.discrete

        def tester(lam):
            verdict = fast(lam)
            self._record("dftest1" if discrete else "ftest1", lam, verdict)
            return verdict

        return tester

    # -- preprocessing -------------------------------------------------------
    def preprocess(self):
        tree, rooted = self.tree, self.rooted
        ub = max(
            (tree.weights[v] * rooted.rootdist[v] for v in range(tree.n)),
            default=0,
        )
        self.range = LambdaRange(0, ub)
        lines = [
            Line(-tree.weights[v], tree.weights[v] * rooted.rootdist[v], v, bias=-1)
            for v in range(tree.n)
        ]
        self.working = WorkingTree(tree, rooted, self.discrete)
        self.cur_rooted = self.working.materialize()
        find_boundary_vertices(lines, self.range, self.base_tester(), self.rand)
        self.ranks = compute_ranks(lines, self.range, strict=self.exact)

    # -- phase 0 ---------------------------------------------------------------
    def phase0(self):
        self.phase = "phase0"
        n = self.tree.n
        r = self.config.r or default_r(n)
        limit = 2 * n / r
        guard = 0
        while self.working.leaf_count() > limit:
            guard += 1
            if guard > 4 * math.ceil(math.log2(max(n, 2))) + 32:
                raise AssertionError("leaf-stem reduction failed to converge")
            stems = self.working.leaf_stems(max_len=r)
            if not stems:
                break
            cut = sum(st.m for st in stems) // (2 * r)
            self._reduce(self._narrow(stems, cut=cut))

    def _reduce(self, stems):
        """Fold `stems` into their parents, settling each postprocessing
        value with the current tester, then rebuild the tree that the linear
        test runs on (a frozen fast test needs no rebuild)."""
        post = postprocess_discrete if self.discrete else postprocess_continuous
        tester = self._tester()

        def resolver(value):
            self.range.resolve(tester, value)

        for st in sorted(stems, key=lambda s: s.backbone[0]):
            repl = post(st, self.range, self.ranks, resolver)
            extra = self.working.apply_replacement(st, repl, self.ranks)
            self.k_work -= repl.centers_used + extra
            if self.k_work < 0:
                raise _BudgetExhausted
        if self.fast is None:
            self.cur_rooted = self.working.materialize()

    # -- phase 1 -----------------------------------------------------------------
    def phase1(self):
        self.phase = "phase1"
        if not self.config.use_phase1:
            return
        n = self.tree.n
        r = max(2, self.config.r or default_r(n))
        subs = []
        for stem in self.working.stems():
            subs.extend(_chop(stem, r))
        children, order, root_index = _stem_tree(subs, self.working.root)
        self._narrow(subs)
        lam = midpoint(self.range.lo, self.range.hi)
        if self.discrete:
            tabs = [
                build_stem_tables(
                    sub, sub.own_top, "discrete", lam, vertex_ranks=self.ranks
                )
                for sub in subs
            ]
        else:
            pool = []
            for si, sub in enumerate(subs):
                pool.extend(stem_lines(sub, stem_id=si))
            rank_all = compute_ranks(pool, self.range, strict=self.exact)
            tabs = []
            for si, sub in enumerate(subs):
                rankp = lambda kind, pos, sign, si=si: rank_all[(si, kind, pos, sign)]
                tabs.append(
                    build_stem_tables(sub, sub.own_top, "continuous", lam, rankp=rankp)
                )
        self.fast = FastFeasibility(
            tabs,
            children,
            order,
            root_index,
            self.k_work,
            self.range.lo,
            self.range.hi,
            self.discrete,
        )

    # -- phase 2 ------------------------------------------------------------------
    def phase2(self):
        self.phase = "phase2"
        n = self.tree.n
        guard = 0
        while True:
            stems = self.working.leaf_stems()
            if len(stems) <= 1:
                break
            guard += 1
            if guard > 4 * math.ceil(math.log2(max(n, 2))) + 40:
                raise AssertionError("leaf-stem elimination failed to converge")
            self._reduce(self._narrow(stems))
        self._narrow(self.working.stems())
        return self.range.hi

    def _tester(self):
        """The frozen fast test after phase 1, else the linear test on the
        tree as reduced so far."""
        return self.fast_tester() if self.fast is not None else self.base_tester()

    def _narrow(self, stems, cut=None):
        """Narrow the bracket over the candidate values of `stems` and return
        the stems to fold. Discrete mode searches the sorted point-distance
        arrays; with `cut` (phase 0) that search stops once at most `cut`
        pool elements remain inside the bracket, and only the stems with
        none of them left are kept. Continuous mode resolves every line
        crossing of `stems`, in every phase, and keeps them all."""
        if self.discrete:
            pool, owners = [], []
            for si, st in enumerate(stems):
                mats = stem_arrays_discrete(st)[0]
                pool.extend(mats)
                owners.extend([si] * len(mats))
            res = msearch(pool, self.range, cut or 0, self._tester())
            if cut is not None:
                hot = {owners[i] for i, rem in enumerate(res.remaining_per_matrix) if rem > 0}
                stems = [st for si, st in enumerate(stems) if si not in hot]
        else:
            # the line crossings settle every postprocessing value (one-center
            # optima, twig reach et al.) of the stems
            pool = []
            for si, st in enumerate(stems):
                pool.extend(stem_lines(st, stem_id=si))
            find_boundary_vertices(pool, self.range, self._tester(), self.rand)
        return stems


class _BudgetExhausted(Exception):
    """More centers committed than k allows: every value in the open
    bracket is infeasible, so the optimum is the bracket's feasible end."""


def _chop(stem, r: int) -> list:
    """Substems of length at most r; adjacent blocks share one vertex, and
    the shared vertex (with its attachments) goes to the upper block."""
    from .stems import Stem

    m = stem.m
    if m <= r:
        return [stem]
    subs = []
    p1 = m - 1
    top_block = True
    while p1 > 0:
        p0 = max(0, p1 - (r - 1))
        owns_top = top_block and stem.own_top
        hi = p1 + 1 if owns_top else p1
        thorns = {
            q - p0: stem.thorns[q] for q in stem.thorns if p0 <= q < hi
        }
        twigs = {q - p0: stem.twigs[q] for q in stem.twigs if p0 <= q < hi}
        subs.append(
            Stem(
                backbone=stem.backbone[p0:p1 + 1],
                x=[xi - stem.x[p0] for xi in stem.x[p0:p1 + 1]],
                weights=stem.weights[p0:p1 + 1],
                thorns=thorns,
                twigs=twigs,
                own_top=owns_top,
            )
        )
        p1 = p0
        top_block = False
    subs.reverse()
    return subs


def _stem_tree(subs, root_vertex):
    """Parent/child structure over substems; parent owns the shared vertex."""
    by_bottom = {}
    for i, sub in enumerate(subs):
        by_bottom[sub.backbone[0]] = i
    children = [[] for _ in subs]
    root_index = None
    for i, sub in enumerate(subs):
        top = sub.backbone[-1]
        if top == root_vertex and sub.own_top:
            root_index = i
            continue
        parent = by_bottom.get(top)
        if parent is None or parent == i:
            root_index = i
            continue
        children[parent].append(i)
    order = []
    stack = [root_index]
    seen = {root_index}
    while stack:
        v = stack.pop()
        order.append(v)
        for c in children[v]:
            if c not in seen:
                seen.add(c)
                stack.append(c)
    order.reverse()
    return children, order, root_index


# ----------------------------------------------------------------------
# Public entry point


def solve(tree: Tree, k: int, config: SolverConfig | None = None) -> SolveResult:
    """Optimal coverage bound and a witness set of at most k centers."""
    if k < 1:
        raise ValueError("k must be at least 1")
    config = config or SolverConfig()
    discrete = config.mode == "discrete"
    started = time.perf_counter()
    session = _Session(tree, k, config)

    test0 = dftest0 if discrete else ftest0
    if ftest0_feasible(session.rooted, 0, k, discrete):
        out = test0(session.rooted, 0, k)
        session.stats["wall_ms"] = (time.perf_counter() - started) * 1000
        return SolveResult(0, out.centers, session.stats, session.tested)

    session.preprocess()
    try:
        if config.use_phase0:
            session.phase0()
        session.phase1()
        lam_star = session.phase2()
    except _BudgetExhausted:
        lam_star = session.range.hi

    out = test0(session.rooted, lam_star, k)
    if not out.feasible:
        raise AssertionError("solver produced an infeasible optimum")
    session.stats["wall_ms"] = (time.perf_counter() - started) * 1000
    return SolveResult(lam_star, out.centers, session.stats, session.tested)


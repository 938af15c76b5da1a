import itertools
import random
from fractions import Fraction

import pytest

import treecenter.feasibility as feasibility
import treecenter.solver as solver
from treecenter.feasibility import Center, _scan_feasible, dftest0, ftest0, ftest0_feasible
from treecenter.oracle import all_pairs_distances, candidate_values, oracle_solve
from treecenter.tree import random_tree, root_at

from conftest import F, make_tree, path_tree


def test_ftest0_two_vertex_feasible():
    tree = path_tree([1, 1], [2])
    rooted = root_at(tree, 1)
    out = ftest0(rooted, F(1), 1)
    assert out.feasible and out.count == 1
    (c,) = out.centers
    assert c.edge == (0, 1) and c.offset == 1


def test_ftest0_two_vertex_infeasible():
    tree = path_tree([1, 1], [2])
    rooted = root_at(tree, 1)
    out = ftest0(rooted, F(9, 10), 1)
    assert not out.feasible and out.count == 2


def test_ftest0_single_vertex_zero_lambda():
    tree = make_tree([3], [])
    out = ftest0(root_at(tree, 0), F(0), 1)
    assert out.feasible and out.count == 1
    assert out.centers[0].vertex == 0


def test_dftest0_center_forced_at_root():
    tree = path_tree([1, 3], [4])
    rooted = root_at(tree, 1)
    out = dftest0(rooted, F(4), 1)
    assert out.feasible and out.count == 1
    assert out.centers[0].vertex == 1


def test_dftest0_two_centers():
    tree = path_tree([1, 3], [4])
    rooted = root_at(tree, 1)
    out = dftest0(rooted, F(39, 10), 1)
    assert not out.feasible and out.count == 2
    assert {c.vertex for c in out.centers} == {0, 1}


def test_dftest0_single_vertex():
    tree = make_tree([2], [])
    out = dftest0(root_at(tree, 0), F(0), 1)
    assert out.feasible and out.count == 1


def test_zero_weight_vertices_never_force_centers():
    tree = path_tree([0, 0, 0], [5, 5])
    out = ftest0(root_at(tree, 0), F(0), 1)
    assert out.feasible and out.count == 0


@pytest.mark.parametrize("discrete", [False, True])
def test_zero_weight_leaf_beyond_the_float_range(discrete):
    # the leaf's unset sup must not be added to a length no float can hold
    huge = 10**400
    tree = path_tree([0, 1, 1], [huge, 1])
    rooted = root_at(tree, 1)
    test = dftest0 if discrete else ftest0
    near = Center(None, None, 2) if discrete else Center((2, 1), F(0), None)
    out = test(rooted, F(0), 1)
    assert (out.count, out.centers, out.classes) == (2, [near, Center(None, None, 1)], [[2], [1]])
    out = test(rooted, F(0), 1, defer_root=True)
    assert (out.count, out.centers, out.uncovered) == (1, [near], [1])
    out = test(rooted, F(1), 1)
    assert (out.count, out.centers, out.classes) == (1, [Center(None, None, 1)], [[1, 2]])
    out = test(rooted, F(1), 1, defer_root=True)
    assert (out.count, out.centers, out.uncovered) == (0, [], [1, 2])
    for lam, k, verdict in ((F(0), 1, False), (F(0), 2, True), (F(1), 1, True)):
        assert _scan_feasible(rooted, lam, k, discrete) is verdict
        assert ftest0_feasible(rooted, lam, k, discrete) is verdict
    res = solver.solve(tree, 1, solver.SolverConfig(mode="discrete" if discrete else "continuous"))
    assert res.lambda_star == (1 if discrete else F(1, 2))


def _center_distance(c, v, dist):
    """d(v, c) for a center at a vertex or at an offset along an edge."""
    if c.vertex is not None:
        return dist[v][c.vertex]
    u, p = c.edge
    return min(dist[v][u] + c.offset, dist[v][p] + dist[u][p] - c.offset)


def _weighted_cover_radius(tree, centers, dist):
    """Max over vertices of w(v) * distance to the nearest center."""
    worst = 0
    for v in range(tree.n):
        if tree.weights[v] == 0:
            continue
        best = None
        for c in centers:
            d = _center_distance(c, v, dist)
            if best is None or d < best:
                best = d
        if best is None:
            return None
        worst = max(worst, tree.weights[v] * best)
    return worst


@pytest.mark.parametrize("discrete", [False, True])
def test_monotonicity_and_validity_random(discrete):
    rng = random.Random(20)
    for _ in range(25):
        n = rng.randint(2, 40)
        tree = random_tree(n, seed=rng.randrange(10**6))
        rooted = root_at(tree, rng.randrange(n))
        dist = all_pairs_distances(tree)
        test = dftest0 if discrete else ftest0
        lams = sorted(
            Fraction(rng.randint(0, 400), rng.randint(1, 4)) for _ in range(6)
        )
        prev_count = None
        for lam in lams:
            out = test(rooted, lam, 1)
            if prev_count is not None:
                assert out.count <= prev_count
            prev_count = out.count
            radius = _weighted_cover_radius(tree, out.centers, dist)
            if out.count:
                assert radius <= lam
            # greedy count is also what the lean variant reports
            assert ftest0_feasible(rooted, lam, out.count, discrete) is True
            if out.count > 1:
                assert ftest0_feasible(rooted, lam, out.count - 1, discrete) is False


def test_classes_are_covered_by_their_center():
    # post-processing of a stem reads the class of a center as vertices
    # that center covers
    rng = random.Random(77)
    for _ in range(20):
        n = rng.randint(2, 25)
        tree = random_tree(n, seed=rng.randrange(10**6))
        rooted = root_at(tree, rng.randrange(n))
        dist = all_pairs_distances(tree)
        lam = Fraction(rng.randint(1, 400), rng.randint(1, 3))
        for discrete, defer_root in itertools.product((False, True), repeat=2):
            out = ftest0(rooted, lam, 2, discrete=discrete, defer_root=defer_root)
            assert len(out.classes) == len(out.centers) == out.count
            for c, members in zip(out.centers, out.classes):
                for v in members:
                    assert tree.weights[v] * _center_distance(c, v, dist) <= lam


def _min_discrete_count(tree, lam, dist):
    """Smallest vertex set covering everything at lam, by subset enumeration."""
    n = tree.n
    need = [v for v in range(n) if tree.weights[v] > 0]
    for size in range(0, n + 1):
        for cand in itertools.combinations(range(n), size):
            if all(
                any(tree.weights[v] * dist[v][c] <= lam for c in cand)
                for v in need
            ):
                return size
    return n


def test_discrete_count_is_optimal_small():
    rng = random.Random(4)
    for _ in range(12):
        n = rng.randint(2, 9)
        tree = random_tree(n, seed=rng.randrange(10**6), weight_range=(0, 6), length_range=(1, 8))
        rooted = root_at(tree, rng.randrange(n))
        dist = all_pairs_distances(tree)
        lam = Fraction(rng.randint(0, 40))
        out = dftest0(rooted, lam, 1)
        assert out.count == _min_discrete_count(tree, lam, dist)


def _continuous_candidate_positions(tree, dist):
    """Vertices plus pairwise equalizing points, as (edge, offset) or vertex."""
    n = tree.n
    adj = tree.adjacency()
    positions = [("v", v) for v in range(n)]

    def tree_path(u, v):
        parent = {u: None}
        stack = [u]
        while stack:
            x = stack.pop()
            if x == v:
                break
            for y, L in adj[x]:
                if y not in parent:
                    parent[y] = (x, L)
                    stack.append(y)
        path = [v]
        while parent[path[-1]] is not None:
            path.append(parent[path[-1]][0])
        return path[::-1]

    for u in range(n):
        for v in range(u + 1, n):
            wu, wv = tree.weights[u], tree.weights[v]
            if wu + wv == 0 or wu == 0 or wv == 0:
                continue
            t = wv * dist[u][v] / (wu + wv)  # distance from u along the path
            path = tree_path(u, v)
            acc = 0
            for a, b in zip(path, path[1:]):
                elen = dist[a][b]
                if acc + elen >= t:
                    positions.append(("e", a, b, t - acc))
                    break
                acc += elen
    return positions


def _pos_distance(tree, dist, pos, v):
    if pos[0] == "v":
        return dist[v][pos[1]]
    _, a, b, off = pos
    return min(dist[v][a] + off, dist[v][b] + dist[a][b] - off)


def test_continuous_count_is_optimal_small():
    rng = random.Random(11)
    checked = 0
    while checked < 8:
        n = rng.randint(2, 8)
        tree = random_tree(n, seed=rng.randrange(10**6), weight_range=(1, 6), length_range=(1, 6))
        rooted = root_at(tree, 0)
        dist = all_pairs_distances(tree)
        lam = Fraction(rng.randint(1, 30), 2)
        out = ftest0(rooted, lam, 1)
        if out.count > 3:
            continue
        checked += 1
        positions = _continuous_candidate_positions(tree, dist)
        need = [v for v in range(n) if tree.weights[v] > 0]
        best = None
        for size in range(0, out.count + 1):
            ok = any(
                all(
                    any(
                        tree.weights[v] * _pos_distance(tree, dist, p, v) <= lam
                        for p in combo
                    )
                    for v in need
                )
                for combo in itertools.combinations(positions, size)
            )
            if ok:
                best = size
                break
        assert best == out.count


def test_lambda_zero_is_legal():
    tree = path_tree([2, 5], [3])
    out = ftest0(root_at(tree, 0), 0, 2)
    assert out.feasible and out.count == 2


def test_lean_test_rejects_negative_lambda():
    # as ftest0 does; a negative lam used to read as infeasible
    rooted = root_at(path_tree([1, 1], [2]), 1)
    for lam in (-1, F(-1, 3), -0.5):
        with pytest.raises(ValueError, match="lam must be nonnegative"):
            ftest0_feasible(rooted, lam, 1)


# The integer scan of `ftest0_feasible` against the same scan run on
# Fractions (`_scan_feasible`), which needs no conversion or scaling.

def _assert_same_verdict(rooted, lam, k, discrete):
    got = ftest0_feasible(rooted, lam, k, discrete)
    assert got == _scan_feasible(rooted, lam, k, discrete), (lam, k, discrete)
    return got


@pytest.mark.parametrize("mode", ["continuous", "discrete"])
@pytest.mark.parametrize("shape", ["uniform-attach", "path", "caterpillar", "star"])
def test_integer_scan_matches_fraction_scan_on_solver_calls(shape, mode, monkeypatch):
    calls = []
    real = solver.ftest0_feasible

    def recorder(rooted, lam, k, discrete=False):
        calls.append((rooted, lam, k, discrete))
        return real(rooted, lam, k, discrete)

    def no_fallback(*args):
        raise AssertionError("an exact solve ran the generic scan")

    monkeypatch.setattr(solver, "ftest0_feasible", recorder)
    monkeypatch.setattr(feasibility, "_scan_feasible", no_fallback)
    rng = random.Random(f"solver-calls/{shape}/{mode}")
    for weights in ((0, 10**6), (0, 3)):
        for _ in range(3):
            n = rng.randint(20, 90)
            tree = random_tree(n, seed=rng.randrange(10**6), weight_range=weights, shape=shape)
            solver.solve(tree, rng.randint(1, n // 5), solver.SolverConfig(mode=mode))
    assert len(calls) > 20
    for rooted, lam, k, discrete in calls:
        _assert_same_verdict(rooted, lam, k, discrete)


def _family_tree(rng, family, n):
    def ints(lo, hi):
        return Fraction(rng.randint(lo, hi))

    weight, length = {
        # many zero weights: dem(v) = +inf on those vertices
        "zero-weights": (lambda: Fraction(rng.choice((0, 0, 0, 1, 5))), lambda: ints(1, 9)),
        # every float loses these: the spacing of doubles there is 2 and more
        "near-2**53": (lambda: ints(2**53 - 9, 2**53 + 9), lambda: ints(2**53 - 9, 2**53 + 9)),
        "above-2**53": (lambda: ints(0, 2**70), lambda: ints(2**60, 2**64)),
        "halves": (lambda: Fraction(rng.randint(0, 40), 2), lambda: Fraction(rng.randint(1, 40), 2)),
        "thirds": (lambda: Fraction(rng.randint(0, 60), 3), lambda: Fraction(rng.randint(1, 60), 3)),
        # decimals as `solve --scalar float` reads them: the exact binary fraction
        "dyadic-decimals": (lambda: Fraction(round(rng.uniform(0, 50), 2)),
                            lambda: Fraction(round(rng.uniform(0.01, 20), 3))),
    }[family]
    weights = [weight() for _ in range(n)]
    edges = [(rng.randrange(v), v, length()) for v in range(1, n)]
    return make_tree(weights, edges)


@pytest.mark.parametrize("family", ["zero-weights", "near-2**53", "above-2**53", "halves",
                                    "thirds", "dyadic-decimals"])
def test_integer_scan_matches_fraction_scan_at_candidate_values(family):
    # every candidate value of the oracle, where the scan's comparisons tie,
    # and the midpoints between them; k = 1, 2 and n; at each k the optimum
    # is feasible and the candidate just below it is not
    rng = random.Random(f"candidates/{family}")
    for _ in range(5):
        n = rng.randint(1, 8)
        tree = _family_tree(rng, family, n)
        rooted = root_at(tree, rng.randrange(n))
        for mode in ("continuous", "discrete"):
            discrete = mode == "discrete"
            values = candidate_values(tree, mode)
            lams = values + [(a + b) / 2 for a, b in zip(values, values[1:])]
            for k in sorted({1, min(2, n), n}):
                for lam in lams:
                    _assert_same_verdict(rooted, lam, k, discrete)
                at = values.index(oracle_solve(tree, k, mode))
                assert _assert_same_verdict(rooted, values[at], k, discrete)
                if at > 0:
                    assert not _assert_same_verdict(rooted, values[at - 1], k, discrete)

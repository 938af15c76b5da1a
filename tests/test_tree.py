from fractions import Fraction

import pytest

from treecenter.tree import (
    ParseError,
    parse_tree,
    path_distance,
    random_tree,
    root_at,
    serialize_tree,
    validate_tree,
)

from conftest import make_tree, path_tree


def test_parse_minimal():
    tree, k = parse_tree("2 1\n1 1\n1 2 2\n")
    assert tree.n == 2 and k == 1
    assert tree.weights == (1, 1)
    assert tree.edges == ((0, 1, 2),)


def test_parse_single_vertex():
    tree, k = parse_tree("1 1\n5\n")
    assert tree.n == 1 and tree.weights == (5,) and tree.edges == ()


def test_parse_duplicate_edge_rejected():
    with pytest.raises(ParseError):
        parse_tree("3 1\n1 1 1\n1 2 1\n1 2 1\n")


@pytest.mark.parametrize(
    "text",
    [
        "2 1\n1 1\n1 2 0\n",      # zero length
        "2 1\n1 -1\n1 2 1\n",     # negative weight
        "3 1\n1 1 1\n1 2 1\n",    # missing edge
        "2 1\n1\n1 2 1\n",        # wrong weight count
        "2 1\n1 1\n1 3 1\n",      # endpoint out of range
    ],
)
def test_parse_rejects(text):
    with pytest.raises(ParseError):
        parse_tree(text)


@pytest.mark.parametrize(
    "text",
    [
        "2 1\nnan 1\n1 2 1\n",     # weight
        "2 1\n1 inf\n1 2 1\n",
        "2 1\n1 1\n1 2 1e400\n",   # length that overflows to inf
        "2 1\n1 1\n1 2 nan\n",
    ],
)
def test_parse_float_rejects_non_finite(text):
    with pytest.raises(ParseError):
        parse_tree(text, "float")


def test_parse_error_names_line():
    with pytest.raises(ParseError) as err:
        parse_tree("2 1\n1 1\n1 2 0\n")
    assert err.value.line_no == 3


def test_root_at_path():
    tree = path_tree([1, 1, 1], [1, 1])
    assert root_at(tree, 0).rootdist == [0, 1, 2]
    assert root_at(tree, 1).rootdist == [1, 0, 1]


def test_root_at_star():
    tree = make_tree([1, 1, 1], [(0, 1, 4), (0, 2, 5)])
    assert root_at(tree, 0).rootdist == [0, 4, 5]


def test_root_out_of_range():
    tree = path_tree([1, 1], [1])
    with pytest.raises(ValueError):
        root_at(tree, 2)


def test_path_distance():
    tree = path_tree([1, 1, 1], [1, 1])
    assert path_distance(tree, 0, 2) == 2
    assert all(path_distance(tree, v, v) == 0 for v in range(3))
    star = make_tree([1, 1, 1], [(0, 1, 4), (0, 2, 5)])
    assert path_distance(star, 1, 2) == 9


def test_ancestor_distance_matches_path_distance():
    tree = random_tree(60, seed=7)
    rooted = root_at(tree, 0)
    for v in range(1, 60):
        anc = rooted.parent[v]
        while anc != -1:
            assert rooted.ancestor_distance(anc, v) == path_distance(tree, anc, v)
            anc = rooted.parent[anc]
            if rooted.rootdist[v] - (rooted.rootdist[anc] if anc >= 0 else 0) > 60:
                break


def test_serialize_roundtrip():
    tree = random_tree(40, seed=3)
    text = serialize_tree(tree, 5)
    back, k = parse_tree(text)
    assert k == 5
    assert back.weights == tree.weights
    assert sorted((min(u, v), max(u, v), L) for u, v, L in back.edges) == sorted(
        (min(u, v), max(u, v), L) for u, v, L in tree.edges
    )
    assert serialize_tree(back, 5) == text


def test_random_tree_shapes_and_determinism():
    assert random_tree(1, seed=1).n == 1
    p = random_tree(5, seed=2, shape="path")
    assert len(p.edges) == 4
    assert sorted((u, v) for u, v, _ in p.edges) == [(0, 1), (1, 2), (2, 3), (3, 4)]
    a = random_tree(1000, seed=9)
    b = random_tree(1000, seed=9)
    assert a == b
    s = random_tree(6, seed=4, shape="star")
    assert all(u == 0 for u, _, _ in s.edges)


@pytest.mark.parametrize("n", [1, 2, 3, 17, 100, 1000])
def test_random_tree_valid_many_seeds(n):
    for seed in range(0, 120, 7):
        for shape in ("uniform-attach", "path", "caterpillar", "star"):
            validate_tree(random_tree(n, seed=seed, shape=shape))


def test_random_tree_rejects_bad_ranges():
    with pytest.raises(ValueError):
        random_tree(5, seed=1, length_range=(3, 2))
    with pytest.raises(ValueError):
        random_tree(5, seed=1, length_range=(0, 2))


def test_weights_can_be_fractions_from_parse():
    tree, _ = parse_tree("2 1\n0 3\n1 2 7\n")
    assert tree.weights[0] == 0
    assert isinstance(tree.weights[1], Fraction)

"""Tree representation, parsing, rooting, and random instance generation.

File format (UTF-8 text): line 1 is "n k", line 2 holds n whitespace
separated vertex weights, then n-1 lines "u v length" with 1-based vertex
ids. Vertices are 0-based everywhere inside the library; the parser and
serializer own the boundary.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .scalars import EXACT, make_scalar


class ParseError(ValueError):
    """Malformed instance text; carries the 1-based offending line."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class Tree:
    """An n-vertex tree with nonnegative vertex weights and positive edge lengths."""

    n: int
    weights: tuple
    edges: tuple  # (u, v, length) with 0-based u < n, v < n

    def adjacency(self):
        adj = [[] for _ in range(self.n)]
        for u, v, length in self.edges:
            adj[u].append((v, length))
            adj[v].append((u, length))
        return adj


class RootedTree:
    """A tree plus a root, parent pointers, root distances, and a postorder."""

    def __init__(self, tree: Tree, root: int):
        n = tree.n
        self.tree = tree
        self.root = root
        self.parent = [-1] * n
        self.parent_len = [None] * n  # length of the edge to the parent
        self.children = [[] for _ in range(n)]
        self.rootdist = [None] * n
        adj = tree.adjacency()
        order = []
        stack = [root]
        self.rootdist[root] = 0
        seen = [False] * n
        seen[root] = True
        while stack:
            v = stack.pop()
            order.append(v)
            for u, length in adj[v]:
                if not seen[u]:
                    seen[u] = True
                    self.parent[u] = v
                    self.parent_len[u] = length
                    self.children[v].append(u)
                    self.rootdist[u] = self.rootdist[v] + length
                    stack.append(u)
        if len(order) != n:
            raise ValueError("tree is not connected")
        self.postorder = order[::-1]

    def ancestor_distance(self, anc: int, v: int):
        """d(anc, v) for an ancestor pair, by root-distance subtraction."""
        return self.rootdist[v] - self.rootdist[anc]


def validate_tree(tree: Tree) -> None:
    """Check the Tree invariants; raise ValueError on violation."""
    n = tree.n
    if n < 1:
        raise ValueError("vertex count must be at least 1")
    if len(tree.weights) != n:
        raise ValueError("weight count does not match n")
    for w in tree.weights:
        if w < 0:
            raise ValueError("negative vertex weight")
    if len(tree.edges) != n - 1:
        raise ValueError(f"expected {n - 1} edges, found {len(tree.edges)}")
    seen_pairs = set()
    for u, v, length in tree.edges:
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise ValueError(f"bad edge endpoints ({u}, {v})")
        if length <= 0:
            raise ValueError("edge length must be positive")
        key = (min(u, v), max(u, v))
        if key in seen_pairs:
            raise ValueError(f"duplicate edge ({u + 1}, {v + 1})")
        seen_pairs.add(key)
    # connectivity: n-1 distinct edges and no cycle iff all reachable
    if n > 1:
        RootedTree(tree, 0)


def parse_tree(text: str, mode: str = EXACT):
    """Parse instance text into (Tree, k). Rejects malformed or disconnected input."""
    lines = text.splitlines()
    idx = 0

    def next_line():
        nonlocal idx
        while idx < len(lines) and not lines[idx].strip():
            idx += 1
        if idx >= len(lines):
            raise ParseError(idx + 1, "unexpected end of input")
        idx += 1
        return idx, lines[idx - 1]

    def number(token: str, line_no: int, allow_zero: bool, what: str):
        try:
            if mode == EXACT:
                value = Fraction(token)
                if value.denominator != 1:
                    raise ValueError
                value = make_scalar(value, mode)
            else:
                value = make_scalar(token, mode)
                if not math.isfinite(value):
                    raise ValueError
        except ValueError:
            raise ParseError(line_no, f"bad {what}: {token!r}") from None
        if value < 0 or (value == 0 and not allow_zero):
            raise ParseError(line_no, f"{what} out of range: {token!r}")
        return value

    ln, header = next_line()
    parts = header.split()
    if len(parts) != 2:
        raise ParseError(ln, "expected 'n k' header")
    try:
        n, k = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError(ln, "expected integers in 'n k' header") from None
    if n < 1:
        raise ParseError(ln, "n must be at least 1")

    ln, wline = next_line()
    wtokens = wline.split()
    if len(wtokens) != n:
        raise ParseError(ln, f"expected {n} weights, found {len(wtokens)}")
    weights = tuple(number(t, ln, True, "weight") for t in wtokens)

    edges = []
    for _ in range(n - 1):
        ln, eline = next_line()
        etok = eline.split()
        if len(etok) != 3:
            raise ParseError(ln, "expected 'u v length'")
        try:
            u, v = int(etok[0]), int(etok[1])
        except ValueError:
            raise ParseError(ln, "bad edge endpoints") from None
        if not (1 <= u <= n and 1 <= v <= n):
            raise ParseError(ln, f"edge endpoint out of range: {eline.strip()!r}")
        length = number(etok[2], ln, False, "length")
        edges.append((u - 1, v - 1, length))

    while idx < len(lines):
        if lines[idx].strip():
            raise ParseError(idx + 1, "trailing content after edge list")
        idx += 1

    tree = Tree(n=n, weights=weights, edges=tuple(edges))
    try:
        validate_tree(tree)
    except ValueError as exc:
        raise ParseError(1, str(exc)) from None
    return tree, k


def _fmt(value) -> str:
    if isinstance(value, Fraction) and value.denominator == 1:
        return str(value.numerator)
    return repr(value) if isinstance(value, float) else str(value)


def serialize_tree(tree: Tree, k: int) -> str:
    """Emit the canonical text form (edges sorted by (min id, max id))."""
    out = [f"{tree.n} {k}"]
    out.append(" ".join(_fmt(w) for w in tree.weights))
    canon = sorted(
        ((min(u, v), max(u, v), length) for u, v, length in tree.edges)
    )
    for u, v, length in canon:
        out.append(f"{u + 1} {v + 1} {_fmt(length)}")
    return "\n".join(out) + "\n"


def root_at(tree: Tree, root: int) -> RootedTree:
    """Root the tree and precompute root distances in one traversal."""
    if not (0 <= root < tree.n):
        raise ValueError(f"root {root} out of range")
    return RootedTree(tree, root)


def path_distance(tree: Tree, u: int, v: int):
    """Length of the unique u-v path (general pairs; used by oracles)."""
    if not (0 <= u < tree.n and 0 <= v < tree.n):
        raise ValueError("vertex out of range")
    if u == v:
        return 0
    adj = tree.adjacency()
    dist = {u: 0}
    stack = [u]
    while stack:
        x = stack.pop()
        if x == v:
            return dist[v]
        for y, length in adj[x]:
            if y not in dist:
                dist[y] = dist[x] + length
                stack.append(y)
    return dist[v]


def random_tree(
    n: int,
    seed: int,
    weight_range=(0, 20),
    length_range=(1, 20),
    shape: str = "uniform-attach",
) -> Tree:
    """Deterministic random instance with integer weights and lengths."""
    if n < 1:
        raise ValueError("n must be at least 1")
    wlo, whi = weight_range
    llo, lhi = length_range
    if wlo > whi or llo > lhi or llo < 1 or wlo < 0:
        raise ValueError("empty or invalid range")
    rng = random.Random(seed)
    weights = tuple(Fraction(rng.randint(wlo, whi)) for _ in range(n))
    edges = []
    for v in range(1, n):
        if shape == "path":
            u = v - 1
        elif shape == "star":
            u = 0
        elif shape == "caterpillar":
            # spine on even ids, legs on odd ids
            u = v - 1 if v % 2 == 1 else max(v - 2, 0)
        elif shape == "uniform-attach":
            u = rng.randrange(v)
        else:
            raise ValueError(f"unknown shape: {shape!r}")
        edges.append((u, v, Fraction(rng.randint(llo, lhi))))
    return Tree(n=n, weights=weights, edges=tuple(edges))

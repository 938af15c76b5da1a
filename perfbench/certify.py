"""Exact optimality certificates for weighted k-center answers on trees.

The certificate reads the instance text itself and decides feasibility
with its own greedy test, so it shares no code with the solver it checks.
Weights and edge lengths in the text are integers, so the instance is
held exactly as Python ints and every coverage bound as a Fraction.

Proof sketch (continuous mode). The optimum is one of the values
w(v) * d(v, u) or w(u) * w(v) * d(u, v) / (w(u) + w(v)); each is a
rational whose reduced denominator is at most 2W, W the largest weight.
Two distinct such rationals p/q != p'/q' differ by at least
1/(q * q') >= 1/(4W^2) > delta = 1/(4W^2 + 1). So a value lam with
denominator <= 2W that is feasible, while lam - delta is infeasible, has
no candidate in [lam - delta, lam) and is therefore the optimum. Discrete
candidates are integers, so the same check with denominator 1 applies.

A float answer is accepted when the exact optimum lies in its rounding
interval: feasible at the midpoint to the next float up and infeasible
at the midpoint to the next float down.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational


class Instance:
    """An instance read from its text form, rooted at vertex 0."""

    __slots__ = ("n", "k", "weights", "postorder", "children", "parent_len", "max_weight")

    def __init__(self, text: str):
        rows = [line.split() for line in text.splitlines() if line.strip()]
        n, k = int(rows[0][0]), int(rows[0][1])
        weights = [int(t) for t in rows[1]]
        if len(weights) != n or len(rows) != n + 1:
            raise ValueError("instance text does not match its header")
        adj = [[] for _ in range(n)]
        for u, v, length in rows[2:]:
            u, v, length = int(u) - 1, int(v) - 1, int(length)
            adj[u].append((v, length))
            adj[v].append((u, length))
        parent_len = [0] * n
        children = [[] for _ in range(n)]
        seen = [False] * n
        seen[0] = True
        order = []
        stack = [0]
        while stack:
            v = stack.pop()
            order.append(v)
            for u, length in adj[v]:
                if not seen[u]:
                    seen[u] = True
                    parent_len[u] = length
                    children[v].append(u)
                    stack.append(u)
        if len(order) != n:
            raise ValueError("instance is not a tree")
        self.n = n
        self.k = k
        self.weights = weights
        self.postorder = order[::-1]
        self.children = children
        self.parent_len = parent_len
        self.max_weight = max(weights)


def feasible(inst: Instance, lam, discrete: bool) -> bool:
    """Can k centers cover every vertex v within w(v) * distance <= lam?

    One bottom-up greedy pass. For each vertex, `near` is the distance to
    the closest center placed below it and `slack` the largest distance at
    which a center still covers every uncovered vertex below it. A center
    is placed only when the uncovered vertices would otherwise leave its
    reach: on the edge at distance `slack` above the child (continuous),
    or at the child itself (discrete). While a child still has uncovered
    vertices, the center that will cover them is nearer to everything
    outside the child's subtree than any center inside it, so the inner
    center is dropped.
    """
    if lam < 0:
        return False
    near = [None] * inst.n  # None: no center below
    slack = [lam / wv if wv > 0 else None for wv in inst.weights]  # None: all covered
    count = 0
    for v in inst.postorder:
        nv = near[v]
        sv = slack[v]
        for u in inst.children[v]:
            d = inst.parent_len[u]
            nu, su = near[u], slack[u]
            if su is None or (nu is not None and nu <= su):
                if nu is not None and (nv is None or nu + d < nv):
                    nv = nu + d
            elif su < d:
                count += 1
                if count > inst.k:
                    return False
                nu = d if discrete else d - su
                if nv is None or nu < nv:
                    nv = nu
            elif sv is None or su - d < sv:
                sv = su - d
        near[v] = nv
        slack[v] = sv
    root = inst.postorder[-1]
    if slack[root] is not None and (near[root] is None or near[root] > slack[root]):
        count += 1
    return count <= inst.k


def certify_exact(inst: Instance, lam, discrete: bool) -> bool:
    """True iff `lam` is exactly the optimum (see the module docstring)."""
    if not isinstance(lam, Rational):
        return False
    lam = Fraction(lam)
    if inst.max_weight == 0:
        return lam == 0
    if lam.denominator > (1 if discrete else 2 * inst.max_weight):
        return False
    delta = Fraction(1, 4 * inst.max_weight ** 2 + 1)
    return feasible(inst, lam, discrete) and not feasible(inst, lam - delta, discrete)


def certify_float(inst: Instance, lam, discrete: bool) -> bool:
    """True iff the exact optimum rounds to the float answer `lam`."""
    if not isinstance(lam, (float, int)) or not math.isfinite(lam) or lam < 0:
        return False
    lam = float(lam)
    here = Fraction(lam)
    up = (here + Fraction(math.nextafter(lam, math.inf))) / 2
    down = (here + Fraction(math.nextafter(lam, 0.0))) / 2 if lam > 0 else Fraction(-1)
    return feasible(inst, up, discrete) and not feasible(inst, down, discrete)


def certify(inst: Instance, lam, discrete: bool, exact: bool) -> bool:
    return (certify_exact if exact else certify_float)(inst, lam, discrete)

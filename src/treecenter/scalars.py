"""Scalar arithmetic support: exact rationals or floats, plus tagged infinities.

The core algorithms are written against plain Python arithmetic and
comparisons, so they run on `fractions.Fraction` (exact mode, the
default for everything that must be verified) and on `float` (benchmark
mode). The exception is the lean feasibility test
`feasibility.ftest0_feasible`: on exact input it converts the tree to
Python ints and uses no scalar of this module. Infinite sentinels are
represented by `Ext` instances, never by numeric magic values, so that
exact comparisons stay exact.
"""

from __future__ import annotations

from fractions import Fraction

EXACT = "exact"
FLOAT = "float"


def make_scalar(value, mode: str):
    """Convert a parsed number into the scalar type of the given mode."""
    if mode == EXACT:
        return Fraction(value)
    if mode == FLOAT:
        return float(value)
    raise ValueError(f"unknown scalar mode: {mode!r}")


def midpoint(lo, hi):
    """A value strictly between lo and hi (exact in rational mode)."""
    return (lo + hi) / 2


class Ext:
    """A signed infinity with a level.

    Levels order infinities of the same sign: Ext(+1, 0) < Ext(+1, 1).
    Adding or subtracting a finite scalar keeps the tag; arithmetic
    between two Ext values is never needed and raises.
    """

    __slots__ = ("sign", "level")

    def __init__(self, sign: int, level: int = 1):
        self.sign = sign
        self.level = level

    # comparisons ------------------------------------------------------
    def _cmp(self, other) -> int:
        if isinstance(other, Ext):
            if self.sign != other.sign:
                return -1 if self.sign < other.sign else 1
            if self.level == other.level:
                return 0
            s = -1 if self.level < other.level else 1
            return s if self.sign > 0 else -s
        # other is finite
        return 1 if self.sign > 0 else -1

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __eq__(self, other):
        return isinstance(other, Ext) and self._cmp(other) == 0

    def __hash__(self):
        return hash((self.sign, self.level))

    # reflected comparisons for `finite <op> Ext`
    def _rcmp(self, other) -> int:
        return -self._cmp(other)

    # arithmetic -------------------------------------------------------
    def __add__(self, other):
        if isinstance(other, Ext):
            raise TypeError("Ext + Ext is undefined")
        return self

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Ext):
            raise TypeError("Ext - Ext is undefined")
        return self

    def __rsub__(self, other):
        # finite - inf flips the sign, keeping the level
        if isinstance(other, Ext):
            raise TypeError("Ext - Ext is undefined")
        return Ext(-self.sign, self.level)

    def __neg__(self):
        return Ext(-self.sign, self.level)

    def __repr__(self):
        s = "+inf" if self.sign > 0 else "-inf"
        return f"{s}(level={self.level})"


# Plain positive infinity, used for sup()/dem() in the linear-time tests.
INF = Ext(+1, 1)
# "Infinitely large but still below INF": seeds the pending demand of the
# block feasibility tests so the first comparison takes the demand branch.
INF_LOW = Ext(+1, 0)
# Above every other infinity; stands in for values whose referent (a twig
# that does not exist) is missing, so comparisons against it always fail.
INF_HIGH = Ext(+1, 2)

"""Integer boxes in N^r with a held-out outer shell."""

import itertools

from .errors import ContractViolation


def box_points(lo, hi):
    """All lattice points of the box [lo, hi], ascending lexicographically."""
    return list(itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))))


class GridBox:
    """Componentwise interval [lo, hi] plus a shell width for validation."""

    __slots__ = ("lo", "hi", "shell")

    def __init__(self, lo, hi, shell=1):
        lo = tuple(int(v) for v in lo)
        hi = tuple(int(v) for v in hi)
        if len(lo) != len(hi) or not lo:
            raise ContractViolation("box corners need equal positive dimension")
        if any(a < 0 for a in lo) or any(a > b for a, b in zip(lo, hi)):
            raise ContractViolation("box needs 0 <= lo <= hi componentwise")
        if shell < 1:
            raise ContractViolation("shell width must be at least 1")
        self.lo = lo
        self.hi = hi
        self.shell = int(shell)

    @property
    def r(self):
        return len(self.lo)

    def points(self):
        """All lattice points, ascending lexicographically."""
        return box_points(self.lo, self.hi)

    def fit_points(self):
        """Points below the held-out shell on the shortest axis; a fit of
        degree cap d needs d + 1."""
        return min(h - self.shell - a + 1 for h, a in zip(self.hi, self.lo))

    def shell_floor(self):
        return tuple(max(a, b - self.shell) for a, b in zip(self.lo, self.hi))

    def shell_points(self):
        floor = self.shell_floor()
        return [p for p in self.points() if all(x >= f for x, f in zip(p, floor))]

    def contains(self, p):
        return all(a <= x <= b for x, a, b in zip(p, self.lo, self.hi))

    def __repr__(self):
        return "GridBox(%r, %r, shell=%d)" % (self.lo, self.hi, self.shell)

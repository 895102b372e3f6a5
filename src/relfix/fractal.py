"""The carpet fractal as a greatest solution: subdivision, membership, metrics.

The carpet keeps eight of the nine thirds of the unit square at every scale,
dropping the open middle.  A depth-d approximant is a set of cells in the
3^d grid; the carpet itself is the intersection of all approximants.
Membership at depth d asks whether a point lies in the closure of some
retained cell, so points on shared gridlines count as inside whenever any
adjacent retained cell contains them.
"""
from __future__ import annotations

import re
from fractions import Fraction
from math import log
from typing import Union

from .errors import BoundExceeded, DepthLimit, Record

# kept thirds: all of {0,1,2}^2 except the middle (1,1)
KEEP = ((0, 0), (0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1), (2, 2))

DEPTH_LIMIT = 10
# largest render side: the raster holds res * res bytes
RES_LIMIT = 4096
# largest res * depth: a render takes that many base-3 digit steps, and the
# most that one membership coordinate may take
STEP_LIMIT = 2**21
# largest digit steps * denominator bits of one membership coordinate: each
# step divides by the denominator, so a long one slows every step
BIT_STEP_LIMIT = STEP_LIMIT * 64

Coord = Union[Fraction, int, float, str]

# the exponent of a decimal string, which `Fraction` raises 10 to before any check
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


class CellSet(Record):
    """Cells of the 3^depth grid, addressed (column, row) from the lower left."""

    __slots__ = _fields = ("depth", "cells")

    def __init__(self, depth: int, cells: frozenset[tuple[int, int]]):
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "cells", frozenset(cells))
        side = 3**depth
        for i, j in self.cells:
            if not (0 <= i < side and 0 <= j < side):
                raise ValueError(f"cell {(i, j)} outside the depth-{depth} grid")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.depth, self.cells) == (other.depth, other.cells)

    def __hash__(self) -> int:
        return hash((self.depth, self.cells))

    @staticmethod
    def full() -> "CellSet":
        return CellSet(0, frozenset({(0, 0)}))

    def __len__(self) -> int:
        return len(self.cells)


def subdivide(c: CellSet) -> CellSet:
    """Replace each cell by its eight kept thirds."""
    if c.depth >= DEPTH_LIMIT:
        raise DepthLimit(f"subdividing past depth {DEPTH_LIMIT}")
    cells = frozenset(
        (3 * i + di, 3 * j + dj) for i, j in c.cells for di, dj in KEEP
    )
    return CellSet(c.depth + 1, cells)


def approximant(depth: int) -> CellSet:
    c = CellSet.full()
    for _ in range(depth):
        c = subdivide(c)
    return c


def _middle_levels(v: Fraction, depth: int) -> int:
    """Bit k set iff base-3 digit k+1 of v is 1, for the levels before v
    first lands on a cut (or before `depth`, if it never does).

    From a cut, v can always pick a third other than the middle one, and
    afterwards it sits at 0 or 1, which never have digit 1 again.  So a
    point lies in the closed approximant iff its two masks share no bit.
    """
    if depth < 0:
        raise ValueError("depth must be non-negative")
    num, den = v.numerator, v.denominator
    bits = []  # least significant first; one int() at the end keeps this linear
    for _ in range(depth):
        digit, num = divmod(3 * num, den)
        if num == 0:
            break
        bits.append("1" if digit == 1 else "0")
    return int("".join(reversed(bits)) or "0", 2)


def carpet_member(x: Coord, y: Coord, depth: int) -> bool:
    """Is (x, y) in the closed depth-`depth` approximant?

    Exact rational arithmetic throughout; strings like "1/3" are accepted.
    Points on a gridline count as inside whenever an adjacent retained
    cell contains them.
    """
    for name, v in (("x", x), ("y", y)):
        exponent = _EXPONENT.search(v) if isinstance(v, str) else None
        if exponent:
            digits = exponent[1].lstrip("+-").replace("_", "").lstrip("0")
            if len(digits) > len(str(STEP_LIMIT)) or int(digits or 0) > STEP_LIMIT:
                raise BoundExceeded(
                    f"{name} has decimal exponent {exponent[1]}, over the bound {STEP_LIMIT}"
                )
    try:
        fx, fy = Fraction(x), Fraction(y)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in ({x}, {y})") from None
    if not (0 <= fx <= 1 and 0 <= fy <= 1):
        raise ValueError("the carpet lives in the unit square")
    for name, v in (("x", fx), ("y", fy)):
        # v lands on a cut at digit k exactly when its denominator is 3^k;
        # from k = depth on, either way all `depth` digits are scanned
        k = round(log(v.denominator, 3))
        steps = k if k < depth and 3**k == v.denominator else depth
        if steps > STEP_LIMIT:
            raise BoundExceeded(f"{name} needs {steps} digit steps, over the bound {STEP_LIMIT}")
        bits = v.denominator.bit_length()
        if steps * bits > BIT_STEP_LIMIT:
            raise BoundExceeded(
                f"{name} needs {steps} digit steps on a {bits}-bit denominator, "
                f"{steps * bits} bit-steps over the bound {BIT_STEP_LIMIT}"
            )
    return _middle_levels(fx, depth) & _middle_levels(fy, depth) == 0


def render(depth: int, res: int) -> bytes:
    """Raster of res x res pixel-center membership tests, top row first;
    inside pixels are byte 0, outside 255."""
    if res <= 0:
        raise ValueError("resolution must be positive")
    if res > RES_LIMIT:
        raise BoundExceeded(f"res {res} exceeds the render bound {RES_LIMIT}")
    if res * depth > STEP_LIMIT:
        raise BoundExceeded(f"res * depth {res * depth} exceeds the render bound {STEP_LIMIT}")
    # v -> 1 - v swaps base-3 digits 0 and 2 and keeps the cuts, so row r
    # counted from the top has the mask of column r
    masks = [_middle_levels(Fraction(2 * i + 1, 2 * res), depth) for i in range(res)]
    return bytes(0 if row & col == 0 else 255 for row in masks for col in masks)


def pgm_bytes(depth: int, res: int) -> bytes:
    header = f"P5\n{res} {res}\n255\n".encode("ascii")
    return header + render(depth, res)


def write_pgm(path, depth: int, res: int) -> bytes:
    """Write the approximant as a binary PGM and return its raster."""
    data = pgm_bytes(depth, res)
    with open(path, "wb") as fh:
        fh.write(data)
    return data[-res * res:]


EDGES = ("bottom", "right", "top", "left")


class BoundaryPoint(Record):
    """A point on the boundary of the unit square.

    The parameter is the x coordinate on the bottom and top edges and the
    y coordinate on the left and right edges, so corners have two equivalent
    descriptions, e.g. (bottom, 1) and (right, 0).
    """

    __slots__ = _fields = ("edge", "t")

    def __init__(self, edge: str, t: Fraction):
        object.__setattr__(self, "edge", edge)
        if edge not in EDGES:
            raise ValueError(f"unknown edge {edge!r}")
        t = Fraction(t)
        if not 0 <= t <= 1:
            raise ValueError("edge parameter must lie in [0, 1]")
        object.__setattr__(self, "t", t)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.edge, self.t) == (other.edge, other.t)

    def __hash__(self) -> int:
        return hash((self.edge, self.t))

    @property
    def xy(self) -> tuple[Fraction, Fraction]:
        t = self.t
        return {
            "bottom": (t, Fraction(0)),
            "right": (Fraction(1), t),
            "top": (t, Fraction(1)),
            "left": (Fraction(0), t),
        }[self.edge]

    @property
    def arc(self) -> Fraction:
        """Position along the counterclockwise walk from (0,0), in [0, 4)."""
        t = self.t
        pos = {
            "bottom": t,
            "right": 1 + t,
            "top": 3 - t,
            "left": 4 - t,
        }[self.edge]
        return pos % 4


def d_taxicab(p: BoundaryPoint, q: BoundaryPoint) -> Fraction:
    """Coordinate distance |dx| + |dy| between the two points."""
    (px, py), (qx, qy) = p.xy, q.xy
    return abs(qx - px) + abs(qy - py)


def d_path(p: BoundaryPoint, q: BoundaryPoint) -> Fraction:
    """Shorter way around the boundary between the two points."""
    straight = abs(p.arc - q.arc)
    return min(straight, 4 - straight)

"""Discrete grid sample space: domains, cuboids of grid cells, and seeded sampling.

The sample space is a finite axis-aligned grid.  A cuboid is a box of whole
grid cells; no subdivision ever goes below one cell.  All types are immutable
values and safe to share between threads; random streams are always passed in
explicitly.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import OutOfDomainError, UnsplittableCuboidError


@dataclass(frozen=True)
class GridDomain:
    """An axis-aligned grid of cells covering a world-coordinate box.

    ``extents[a]`` counts cells along axis ``a``; cell index ``i`` maps to the
    world coordinate of its center, ``origin[a] + (i + 0.5) * cell_size[a]``.
    Origin defaults to zero and cells to unit size.
    """

    extents: tuple[int, ...]
    origin: tuple[float, ...] | None = None
    cell_size: tuple[float, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "extents", tuple(int(e) for e in self.extents))
        if self.origin is None:
            object.__setattr__(self, "origin", (0.0,) * len(self.extents))
        if self.cell_size is None:
            object.__setattr__(self, "cell_size", (1.0,) * len(self.extents))
        object.__setattr__(self, "origin", tuple(float(o) for o in self.origin))
        object.__setattr__(self, "cell_size", tuple(float(c) for c in self.cell_size))
        d = len(self.extents)
        if d < 1:
            raise ValueError("domain needs at least one axis")
        if len(self.origin) != d or len(self.cell_size) != d:
            raise ValueError("extents, origin and cell_size must have equal length")
        if any(e < 1 for e in self.extents):
            raise ValueError(f"extents must be >= 1, got {self.extents}")
        if not all(map(math.isfinite, self.origin + self.cell_size)):
            raise ValueError(f"origin {self.origin} and cell sizes {self.cell_size} must be finite")
        if any(c <= 0 for c in self.cell_size):
            raise ValueError(f"cell sizes must be > 0, got {self.cell_size}")

    @property
    def ndim(self) -> int:
        return len(self.extents)

    @property
    def cell_count(self) -> int:
        return math.prod(self.extents)

    def root_cuboid(self) -> GridCuboid:
        return GridCuboid((0,) * self.ndim, self.extents)

    def contains_index(self, index: tuple[int, ...]) -> bool:
        return len(index) == self.ndim and all(
            0 <= i < e for i, e in zip(index, self.extents)
        )

    def world(self, index: tuple[int, ...]) -> tuple[float, ...]:
        """World coordinate of the center of cell ``index``."""
        return tuple(
            o + (i + 0.5) * c for i, o, c in zip(index, self.origin, self.cell_size)
        )

    def point(self, index: tuple[int, ...]) -> GridPoint:
        index = tuple(int(i) for i in index)
        if not self.contains_index(index):
            raise OutOfDomainError(f"cell index {index} outside extents {self.extents}")
        return GridPoint(index, self.world(index))

    def world_from_linear(self, lins: list[int]) -> np.ndarray:
        """World coordinates of many cells' centers, as a ``(len(lins), ndim)`` array.

        Computed exactly as :meth:`world`.  Raises ValueError if an index lies
        outside ``[0, cell_count)``.
        """
        return np.stack(self._unravel_world(lins)[1], axis=-1).reshape(len(lins), self.ndim)

    @np.errstate(invalid="ignore")
    def index_from_world(self, world: np.ndarray) -> np.ndarray:
        """The inverse of :meth:`world_from_linear`, axis by axis: for each coordinate of the
        ``(k, ndim)`` ``world``, the index along its axis of the cell whose center it is,
        computed as :meth:`world` computes centers, and -1 where no one cell's is."""
        world = np.asarray(world, dtype=np.float64)
        o, c, e = np.array(self.origin), np.array(self.cell_size), np.array(self.extents)
        center = lambda i: o + (i + 0.5) * c
        guess = np.clip(np.rint((world - o) / c - 0.5), 0, e - 1).astype(np.int64)
        # Centers rise with the index, so the one cell is the guess when its neighbours differ.
        exact = ((center(guess) == world) & ((guess == 0) | (center(guess - 1) != world))
                 & ((guess == e - 1) | (center(guess + 1) != world)))
        return np.where(exact, guess, -1)

    def points_from_linear(self, lins: list[int]) -> list[GridPoint]:
        """The cells of many row-major linear indices, computed as arrays.

        Raises ValueError if an index lies outside ``[0, cell_count)``.
        """
        index, world = self._unravel_world(lins)
        make = GridPoint.__new__
        points = []
        for ix, w in zip(zip(*(a.tolist() for a in index)), zip(*(a.tolist() for a in world))):
            # The fields are already int and float tuples; skip the frozen
            # dataclass __init__, the bulk of the cost here.
            point = make(GridPoint)
            object.__setattr__(point, "index", ix)
            object.__setattr__(point, "world", w)
            points.append(point)
        return points

    def _unravel_world(self, lins: list[int]) -> tuple[tuple[np.ndarray, ...], list[np.ndarray]]:
        index = np.unravel_index(np.asarray(lins, dtype=np.int64), self.extents)
        return index, [o + (i + 0.5) * c for i, o, c in zip(index, self.origin, self.cell_size)]


@dataclass(frozen=True)
class GridCuboid:
    """A box of grid cells: ``lo`` inclusive, ``hi`` exclusive, per axis."""

    lo: tuple[int, ...]
    hi: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "lo", tuple(int(i) for i in self.lo))
        object.__setattr__(self, "hi", tuple(int(i) for i in self.hi))
        if len(self.lo) != len(self.hi):
            raise ValueError("lo and hi must have equal length")
        if any(l >= h for l, h in zip(self.lo, self.hi)):
            raise ValueError(f"empty cuboid: lo={self.lo} hi={self.hi}")

    @property
    def ndim(self) -> int:
        return len(self.lo)

    @property
    def cell_count(self) -> int:
        return math.prod(map(operator.sub, self.hi, self.lo))

    @property
    def grid_diameter(self) -> float:
        """Euclidean length of the extent vector, in grid cells."""
        return math.sqrt(sum((h - l) ** 2 for l, h in zip(self.lo, self.hi)))

    def split(self) -> list[GridCuboid]:
        """Cut the box in half along every axis of extent >= 2.

        Axes of extent 1 are left alone, so a box with ``n`` splittable axes
        yields ``2**n`` children.  Children are ordered lexicographically by
        (low half = 0, high half = 1) per axis, first axis most significant.
        The children partition the parent exactly, also on odd extents where
        the low half gets ``extent // 2`` cells.
        """
        halves = []
        for l, h in zip(self.lo, self.hi):
            if h - l >= 2:
                cut = l + (h - l) // 2
                halves.append(((l, cut), (cut, h)))
            else:
                halves.append(((l, h),))
        if all(len(ranges) == 1 for ranges in halves):
            raise UnsplittableCuboidError(f"cannot split single-cell cuboid {self.lo}")
        return [_trusted_cuboid(tuple(r[0] for r in ranges), tuple(r[1] for r in ranges))
                for ranges in itertools.product(*halves)]


def _trusted_cuboid(lo: tuple[int, ...], hi: tuple[int, ...]) -> GridCuboid:
    """A GridCuboid from int tuples already known to be valid, unchecked."""
    box = object.__new__(GridCuboid)
    object.__setattr__(box, "lo", lo)
    object.__setattr__(box, "hi", hi)
    return box


@dataclass(frozen=True)
class GridPoint:
    """One grid cell, identified by its index; carries its world coordinate.

    Equality and hashing use the index only, so points are usable as cache
    keys regardless of floating-point coordinates.
    """

    index: tuple[int, ...]
    world: tuple[float, ...] = field(compare=False)


def sample_cell_indices(cuboid: GridCuboid, k: int, rng: np.random.Generator) -> np.ndarray:
    """Row-major cell offsets (within the cuboid) of a without-replacement draw.

    Draws ``min(k, cell_count)`` distinct cells uniformly; asking for at least
    ``cell_count`` returns every offset once, in order, without touching
    ``rng``.  The same stream yields the same offsets on every run.
    """
    if k < 1:
        raise ValueError(f"sample size must be >= 1, got {k}")
    n = cuboid.cell_count
    if k >= n:
        return np.arange(n, dtype=np.int64)
    return rng.choice(n, size=k, replace=False)

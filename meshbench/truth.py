"""The benchmark's own truth: mesh decoding, closed-form profiles, a ray caster.

Nothing here calls meshprof.  Meshes are read either from the program's tree
objects (by their public attributes) or from the mesh JSON as a user would
decode it, into flat leaf arrays; every check then compares those arrays with
values computed here from first principles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class LeafArrays:
    """Every leaf of a mesh as arrays, in the tree's depth-first order."""

    extents: tuple[int, ...]
    lo: np.ndarray        # (leaves, ndim) int64
    hi: np.ndarray        # (leaves, ndim) int64
    value: np.ndarray     # (leaves, arity) float64
    lo_seen: np.ndarray   # (leaves, arity)
    hi_seen: np.ndarray   # (leaves, arity)
    samples: np.ndarray   # (leaves,) int64
    branches: int

    @property
    def count(self) -> int:
        return len(self.value)


def _collect(root, extents, box_of, children_of, leaf_fields) -> LeafArrays:
    lo, hi, fields = [], [], []
    branches = 0
    stack = [root]
    while stack:
        node = stack.pop()
        kids = children_of(node)
        if kids is None:
            a, b = box_of(node)
            lo.append(a)
            hi.append(b)
            fields.append(leaf_fields(node))
        else:
            branches += 1
            stack.extend(reversed(kids))
    value, lo_seen, hi_seen, samples = (list(col) for col in zip(*fields))
    return LeafArrays(tuple(extents), np.array(lo, dtype=np.int64), np.array(hi, dtype=np.int64),
                      np.array(value, dtype=np.float64), np.array(lo_seen, dtype=np.float64),
                      np.array(hi_seen, dtype=np.float64), np.array(samples, dtype=np.int64),
                      branches)


def leaves_of_tree(sub) -> LeafArrays:
    """Leaf arrays of a meshprof Subdivision, read from its node attributes."""
    return _collect(
        sub.root, sub.domain.extents,
        lambda n: (n.box.lo, n.box.hi),
        lambda n: getattr(n, "children", None),
        lambda n: (n.value, n.lo_seen, n.hi_seen, n.samples))


def leaves_of_json(doc: dict) -> LeafArrays:
    """Leaf arrays of a mesh JSON document, decoded without meshprof."""
    return _collect(
        doc["root"], doc["domain"]["extents"],
        lambda n: (n["box"]["lo"], n["box"]["hi"]),
        lambda n: n.get("children"),
        lambda n: (n["value"], n["lo_seen"], n["hi_seen"], n["samples"]))


def tiles_domain(leaves: LeafArrays) -> bool:
    """True iff the leaf boxes cover every cell of the domain exactly once."""
    if (leaves.lo < 0).any() or (leaves.hi > np.array(leaves.extents)).any() \
            or (leaves.hi <= leaves.lo).any():
        return False
    volume = int(np.prod(leaves.hi - leaves.lo, axis=1).sum())
    if volume != math.prod(leaves.extents):
        return False
    cover = np.zeros(leaves.extents, dtype=np.uint8)
    for a, b in zip(leaves.lo.tolist(), leaves.hi.tolist()):
        cover[tuple(slice(x, y) for x, y in zip(a, b))] += 1
    return bool((cover == 1).all())


def dense(leaves: LeafArrays) -> np.ndarray:
    """Leaf values painted onto the grid, shape ``extents + (arity,)``."""
    out = np.full(leaves.extents + (leaves.value.shape[1],), np.nan)
    for a, b, v in zip(leaves.lo.tolist(), leaves.hi.tolist(), leaves.value):
        out[tuple(slice(x, y) for x, y in zip(a, b))] = v
    return out


# -- Closed-form profiles (unit cells from the origin) ----------------------


def ramp_grid(extents: tuple[int, ...]) -> np.ndarray:
    """The ramp, the sum of cell-center coordinates, at every cell."""
    grid = np.zeros(extents)
    for axis, n in enumerate(extents):
        shape = [1] * len(extents)
        shape[axis] = n
        grid = grid + (np.arange(n) + 0.5).reshape(shape)
    return grid


def ramp_box_range(leaves: LeafArrays) -> tuple[np.ndarray, np.ndarray]:
    """True (min, max) of the ramp over each leaf box."""
    return (leaves.lo + 0.5).sum(axis=1), (leaves.hi - 0.5).sum(axis=1)


def step_box_range(leaves: LeafArrays, height: float, at: float) -> tuple[np.ndarray, np.ndarray]:
    """True (min, max) over each leaf box of 0 below world x = ``at`` and ``height`` from it on."""
    first, last = leaves.lo[:, 0] + 0.5, leaves.hi[:, 0] - 0.5
    return np.where(first >= at, height, 0.0), np.where(last >= at, height, 0.0)


def step_abs_error_sum(leaves: LeafArrays, height: float, at: float) -> float:
    """Sum over all cells of |leaf value - step|, counted per leaf without a dense grid."""
    start = math.ceil(at - 0.5)  # first cell index whose center reaches ``at``
    ext = leaves.hi - leaves.lo
    rest = np.prod(ext[:, 1:], axis=1)
    high = np.clip(leaves.hi[:, 0] - np.maximum(leaves.lo[:, 0], start), 0, None) * rest
    low = ext[:, 0] * rest - high
    v = leaves.value[:, 0]
    return float((high * np.abs(v - height) + low * np.abs(v)).sum())


def outside_range(value: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per leaf: does any component lie outside [lo, hi]?"""
    return ((value < lo) | (value > hi)).any(axis=1)


def leaf_mean_fault(leaves: LeafArrays) -> np.ndarray:
    """Per leaf: outside its own [lo_seen, hi_seen] only by the leaf-mean rounding fault.

    That fault needs every sample equal (lo_seen == hi_seen) and puts the
    mean at most two units in the last place away from that sample.
    """
    v, lo, hi = leaves.value, leaves.lo_seen, leaves.hi_seen
    near = np.abs(v - lo) <= 2 * np.spacing(np.abs(lo))
    return (((v < lo) | (v > hi)) & (lo == hi) & near).any(axis=1)


# -- Ray casting in the 2-D visibility world --------------------------------
#
# From each observer, 4*R rays leave at the centers of 4*R equal angular
# slots starting at -45 degrees; side k (east, north, west, south) owns rays
# [k*R, (k+1)*R).  An object is visible along a ray when the ray reaches its
# box strictly before any blocker.  A ray reaches a box where its slab
# interval [enter, exit] is nonempty and exit > 0, at distance max(enter, 0).


def _ray_dirs(rays_per_side: int) -> np.ndarray:
    slot = 90.0 / rays_per_side
    angles = np.deg2rad(-45.0 + (np.arange(4 * rays_per_side) + 0.5) * slot)
    return np.stack([np.cos(angles), np.sin(angles)], axis=1)


def _first_hit(px: np.ndarray, py: np.ndarray, dirs: np.ndarray, rects: np.ndarray) -> np.ndarray:
    """Distance along each ray to each rect, shape (points, rays, rects); inf on a miss."""
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / dirs
        x0 = (rects[None, None, :, 0] - px[:, None, None]) * inv[None, :, 0, None]
        x1 = (rects[None, None, :, 2] - px[:, None, None]) * inv[None, :, 0, None]
        y0 = (rects[None, None, :, 1] - py[:, None, None]) * inv[None, :, 1, None]
        y1 = (rects[None, None, :, 3] - py[:, None, None]) * inv[None, :, 1, None]
    enter = np.maximum(np.minimum(x0, x1), np.minimum(y0, y1))
    leave = np.minimum(np.maximum(x0, x1), np.maximum(y0, y1))
    return np.where((leave >= enter) & (leave > 0), np.maximum(enter, 0.0), np.inf)


def ray_visible(objects: np.ndarray, blockers: np.ndarray, rays_per_side: int,
                points: np.ndarray, chunk: int = 32) -> tuple[np.ndarray, np.ndarray]:
    """Ray-visible object counts per observer: (total, per side (E, N, W, S)).

    ``objects`` and ``blockers`` are (n, 4) arrays of (x0, y0, x1, y1);
    ``points`` is (p, 2).
    """
    dirs = _ray_dirs(rays_per_side)
    r = rays_per_side
    total = np.zeros(len(points), dtype=np.int64)
    sides = np.zeros((len(points), 4), dtype=np.int64)
    for at in range(0, len(points), chunk):
        px, py = points[at:at + chunk, 0], points[at:at + chunk, 1]
        wall = _first_hit(px, py, dirs, blockers).min(axis=2, initial=np.inf)
        seen = _first_hit(px, py, dirs, objects) < wall[:, :, None]
        total[at:at + chunk] = seen.any(axis=1).sum(axis=1)
        for k in range(4):
            sides[at:at + chunk, k] = seen[:, k * r:(k + 1) * r].any(axis=1).sum(axis=1)
    return total, sides


def observer_points(extents: tuple[int, int], world: tuple[float, float]) -> np.ndarray:
    """World observer of every cell of a grid laid over the scene, row-major, (cells, 2)."""
    sx, sy = world[0] / extents[0], world[1] / extents[1]
    i, j = np.meshgrid(np.arange(extents[0]), np.arange(extents[1]), indexing="ij")
    return np.stack([((i + 0.5) * sx).ravel(), ((j + 0.5) * sy).ravel()], axis=1)


# -- Weighted means and images ----------------------------------------------


def table_weights(extents: tuple[int, ...], table_extents: tuple[int, ...],
                  table_cell: tuple[float, ...], table_weights_: np.ndarray) -> np.ndarray:
    """Weight of every unit grid cell: that of the table cell its center falls into."""
    index = [np.floor((np.arange(n) + 0.5) / c).astype(np.int64)
             for n, c in zip(extents, table_cell)]
    for idx, m in zip(index, table_extents):
        if idx.max() >= m:
            raise ValueError("weight table does not cover the grid")
    return table_weights_[np.ix_(*index)]


def gray_pgm(grid: np.ndarray) -> bytes:
    """Binary PGM of a 2-D (x, y) grid: linear 0..255 over its range, highest y on top."""
    lo, hi = float(grid.min()), float(grid.max())
    if hi > lo:
        pixels = np.round((grid - lo) / (hi - lo) * 255.0)
    else:
        pixels = np.full_like(grid, 128.0)
    width, height = grid.shape
    return f"P5\n{width} {height}\n255\n".encode("ascii") + \
        pixels.astype(np.uint8).T[::-1].tobytes()

"""Shared test utilities: meshes made as levels from leaf records, oracles that walk the
levels, and the dense scene reference."""

from __future__ import annotations

import heapq
import json
import math
from collections import namedtuple

import numpy as np

from meshprof.builder import ProfileFunction
from meshprof.domain import GridCuboid, GridDomain
from meshprof.fixtures.scene import CullStats, _hit_distances, _quadtree, _ray_dirs, _rect_arrays
from meshprof.mesh import Level, Subdivision, _split_bounds, leaf_arrays

# One leaf of a mesh: its box and the fields of its row in the levels.
Record = namedtuple("Record", "box value samples lo_seen hi_seen saturated degenerate",
                    defaults=(False, False))


def leveled(domain: GridDomain, arity: int, leaves, metadata: dict | None = None) -> Subdivision:
    """The subdivision whose leaves are the ``Record``s ``leaves``, made as levels from the
    root down: a box that is a leaf's box becomes that leaf, and any other box splits by
    ``_split_bounds``.  Raises ValueError if the leaves do not tile the domain."""
    by_box = {(r.box.lo, r.box.hi): r for r in leaves}
    if len(by_box) != len(leaves):
        raise ValueError("two leaves share a box")
    lo = np.zeros((1, domain.ndim), dtype=np.int64)
    hi = np.array([domain.extents], dtype=np.int64)
    levels = []
    while len(lo):
        here = [by_box.pop(box, None) for box in zip(map(tuple, lo.tolist()),
                                                      map(tuple, hi.tolist()))]
        leaf = np.array([r is not None for r in here], dtype=bool)
        below_lo, below_hi, children = _split_bounds(lo[~leaf], hi[~leaf])
        if (children == 1).any():
            raise ValueError(f"a cell at depth {len(levels)} is in no leaf")
        rows = [r for r in here if r is not None]
        floats = (np.array([getattr(r, name) for r in rows], dtype=np.float64)
                  .reshape(len(rows), arity) for name in ("value", "lo_seen", "hi_seen"))
        levels.append(Level(lo, hi, leaf, children, *floats,
                            np.array([r.samples for r in rows], dtype=np.int64),
                            np.array([r.saturated for r in rows], dtype=bool),
                            np.array([r.degenerate for r in rows], dtype=bool)))
        lo, hi = below_lo, below_hi
    if by_box:
        raise ValueError(f"the leaf of box {next(iter(by_box))} is not a box of the split")
    return Subdivision(domain, arity, metadata=metadata, levels=levels)


def random_leaves(rng: np.random.Generator, domain: GridDomain, arity: int = 1,
                  split_prob: float = 0.55, max_depth: int = 6,
                  value_scale: float = 10.0) -> list[Record]:
    """The leaves of a random tiling, depth-first in split order, with random constant
    values: each box splits with chance ``split_prob`` down to ``max_depth``."""

    def make(box: GridCuboid, depth: int):
        splittable = box.cell_count > 1
        if splittable and depth < max_depth and rng.random() < split_prob:
            for child in box.split():
                yield from make(child, depth + 1)
            return
        value = tuple(float(v) for v in rng.normal(0.0, value_scale, size=arity))
        yield Record(box, value, 1, value, value)

    return list(make(domain.root_cuboid(), 0))


def random_subdivision(rng: np.random.Generator, domain: GridDomain, arity: int = 1,
                       *args, **kwargs) -> Subdivision:
    """The subdivision of the ``random_leaves`` of the same arguments."""
    return leveled(domain, arity, random_leaves(rng, domain, arity, *args, **kwargs))


def fold_levels(sub: Subdivision, on_leaf, on_branch):
    """The tree of ``sub.levels`` folded by a recursive preorder walk: ``on_leaf(record,
    depth)`` of each leaf, ``on_branch(box, the results of its children)`` of each branch.
    The walk meets each depth's nodes in index order, so a node's leaf row and a branch's
    number of children are found by counting.  Each box must be its place in
    ``GridCuboid.split`` of its parent's, and every node must be met."""
    boxes = [list(zip(map(tuple, level.lo.tolist()), map(tuple, level.hi.tolist())))
             for level in sub.levels]
    fields = []  # per depth, each leaf's fields in the order of ``Record``'s
    for level in sub.levels:
        value, lo_seen, hi_seen = (list(map(tuple, rows.tolist()))
                                   for rows in (level.value, level.lo_seen, level.hi_seen))
        fields.append(list(zip(value, level.samples.tolist(), lo_seen, hi_seen,
                               level.saturated.tolist(), level.degenerate.tolist())))
    # Per depth: the nodes, the leaves and the branches met so far.
    nodes, leaves, branches = ([0] * len(sub.levels) for _ in range(3))

    def visit(depth: int, box: GridCuboid):
        level, i = sub.levels[depth], nodes[depth]
        assert boxes[depth][i] == (box.lo, box.hi), (depth, i, box)
        nodes[depth] += 1
        if level.leaf[i]:
            leaves[depth] += 1
            return on_leaf(Record(box, *fields[depth][leaves[depth] - 1]), depth)
        branches[depth] += 1
        kids = box.split()
        assert level.children[branches[depth] - 1] == len(kids), (depth, box)
        return on_branch(box, [visit(depth + 1, kid) for kid in kids])

    out = visit(0, sub.domain.root_cuboid())
    assert (nodes, leaves, branches) == tuple([len(getattr(level, name)) for level in sub.levels]
                                              for name in ("leaf", "value", "children"))
    return out


def walk_leaves(sub: Subdivision) -> list[tuple[Record, int]]:
    """Every leaf of ``sub`` as (its record, its depth), depth-first in split order."""
    out = []
    fold_levels(sub, lambda leaf, depth: out.append((leaf, depth)), lambda box, kids: None)
    return out


def dense_eval(sub: Subdivision) -> np.ndarray:
    """Evaluate every grid cell from a walk of the levels, independent of to_dense."""
    shape = sub.domain.extents + ((sub.value_arity,) if sub.value_arity > 1 else ())
    out = np.full(shape, np.nan)
    for leaf, _ in walk_leaves(sub):
        block = tuple(slice(l, h) for l, h in zip(leaf.box.lo, leaf.box.hi))
        out[block] = leaf.value if sub.value_arity > 1 else leaf.value[0]
    return out


def dense_reference(sub: Subdivision) -> np.ndarray:
    """Every cell's value, of shape ``extents + (arity,)``, from the leaves of
    ``leaf_arrays``: each leaf's cells unravelled from its box's low corner, last
    axis fastest.  The reference for the cell lookup and the box read, which
    read the levels instead."""
    table = leaf_arrays(sub)
    widths = table.hi - table.lo
    sizes = widths.prod(axis=1)
    owner = np.repeat(np.arange(len(sizes)), sizes)
    rank = np.arange(sub.domain.cell_count) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    index = []
    for a in reversed(range(sub.domain.ndim)):
        rank, offset = np.divmod(rank, widths[owner, a])
        index.insert(0, table.lo[owner, a] + offset)
    out = np.empty(sub.domain.extents + (sub.value_arity,), dtype=np.float64)
    out[tuple(index)] = table.value[owner]
    return out


def oracle_text(sub: Subdivision) -> str:
    """``json.dumps(oracle_doc(sub), separators=(",", ":"))``: the v1 text that ``serialize``
    must reproduce byte for byte."""
    return json.dumps(oracle_doc(sub), separators=(",", ":"))


def oracle_doc(sub: Subdivision) -> dict:
    """The v1 mesh document as nested dicts and lists, built the way the first
    v1 writer built it, from a walk of the levels.  That writer spelled it
    ``json.dumps(doc, indent=2)``; the writer now spells it compactly, as
    ``oracle_text`` does, and the reader reads both."""

    def box_doc(box: GridCuboid) -> dict:
        return {"lo": list(box.lo), "hi": list(box.hi)}

    def leaf_doc(leaf: Record, depth: int) -> dict:
        doc = {
            "box": box_doc(leaf.box),
            "value": list(leaf.value),
            "samples": leaf.samples,
            "lo_seen": list(leaf.lo_seen),
            "hi_seen": list(leaf.hi_seen),
        }
        if leaf.saturated:
            doc["saturated"] = True
        if leaf.degenerate:
            doc["degenerate"] = True
        return doc

    return {
        "domain": {
            "extents": list(sub.domain.extents),
            "origin": list(sub.domain.origin),
            "cell_size": list(sub.domain.cell_size),
        },
        "value_arity": sub.value_arity,
        "metadata": sub.metadata,
        "root": fold_levels(sub, leaf_doc,
                            lambda box, kids: {"box": box_doc(box), "children": kids}),
    }


class Recording:
    """A profile that passes ``f``'s answers on and keeps each cell's first finite one, as a
    build's query cache keeps its distinct queries.  Build with ``.profile``; ``f.batch``,
    if any, must answer in the shape ``ProfileFunction`` documents."""

    def __init__(self, f: ProfileFunction, domain: GridDomain):
        self.answers: dict[tuple[int, ...], tuple[float, ...]] = {}

        def query(p):
            value = f.query(p)
            self.answers.setdefault(p.index, tuple(map(float, value)))
            return value

        def batch(world):
            values = f.batch(world)
            rows = np.asarray(values, dtype=np.float64).reshape(len(world), f.arity)
            for index, row in zip(domain.index_from_world(world).tolist(), rows.tolist()):
                if all(map(math.isfinite, row)):
                    self.answers.setdefault(tuple(index), tuple(row))
            return values

        self.profile = ProfileFunction(f.arity, query, f.pure, f.name,
                                       batch if f.batch else None)

    def log(self) -> str:
        """The kept answers as CSV rows ordered by cell: cell indices, then value components."""
        return "".join(",".join([*map(str, index), *map(repr, value)]) + "\n"
                       for index, value in sorted(self.answers.items()))


# -- Dense scene reference ------------------------------------------------------


def _dense_entry_exit(rel: np.ndarray, inv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Slab test of rays against rects: ``rel`` (..., 4) rects relative to the rays'
    origin, ``inv`` (..., 2) reciprocal directions; returns (enter, exit)."""
    tx_a = rel[..., 0] * inv[..., 0]
    tx_b = rel[..., 2] * inv[..., 0]
    ty_a = rel[..., 1] * inv[..., 1]
    ty_b = rel[..., 3] * inv[..., 1]
    enter = np.maximum(np.minimum(tx_a, tx_b), np.minimum(ty_a, ty_b))
    exit_ = np.minimum(np.maximum(tx_a, tx_b), np.maximum(ty_a, ty_b))
    return enter, exit_


def _dense_fan_dirs(px: float, py: float, boxes: np.ndarray, count: int) -> np.ndarray:
    """``count`` directions from p spread evenly across each box's angular span,
    for (n, 4) boxes: shape (n, count, 2)."""
    angles = np.arctan2(boxes[:, [1, 1, 3, 3]] - py, boxes[:, [0, 2, 0, 2]] - px)
    ref = angles[:, :1]
    rel = (angles - ref + np.pi) % (2 * np.pi) - np.pi
    lo, hi = ref + rel.min(axis=1, keepdims=True), ref + rel.max(axis=1, keepdims=True)
    fan = lo + (np.arange(count) + 0.5) * (hi - lo) / count
    return np.stack([np.cos(fan), np.sin(fan)], axis=-1)


@np.errstate(divide="ignore", invalid="ignore")
def dense_visibility(scene, pw: tuple[float, float]) -> tuple[int, tuple[int, ...]]:
    """(total ray-visible objects, per-side counts) from world point ``pw``, by slab
    tests of every shared ray against every object: the scene's visibility before
    its rays were paired with the rects they can reach."""
    origin = np.array(pw + pw)
    obj_rects, blk_rects = _rect_arrays(scene)
    inv = 1.0 / _ray_dirs(scene.rays_per_side)[:, None]
    obj_t = _hit_distances(*_dense_entry_exit(obj_rects - origin, inv))
    blk_t = _hit_distances(*_dense_entry_exit(blk_rects - origin, inv)).min(
        axis=1, initial=np.inf)
    seen = obj_t < blk_t[:, None]
    r = scene.rays_per_side
    sides = tuple(int(seen[k * r:(k + 1) * r].any(axis=0).sum()) for k in range(4))
    return int(seen.any(axis=0).sum()), sides


@np.errstate(divide="ignore", invalid="ignore")
def dense_cull(scene, max_depth: int, pw: tuple[float, float], side):
    """The culling renderer's ``CullStats`` from world point ``pw``, by slab tests of
    every shared ray against every node box and a heap-ordered front-to-back walk:
    the renderer before its rays were paired with the boxes they can reach."""
    dirs = _ray_dirs(scene.rays_per_side)
    if side is not None:
        dirs = dirs.reshape(4, -1, 2)[side]
    px, py = pw
    origin = np.array(pw + pw)
    obj_rects, blk_rects = _rect_arrays(scene)
    boxes, parent, _, _, owner, _ = _quadtree(scene, max_depth)
    children = [[] for _ in boxes]
    for c in range(1, len(boxes)):
        children[parent[c]].append(c)
    direct = [np.flatnonzero(owner == k).tolist() for k in range(len(boxes))]
    blk_rel = blk_rects - origin
    inv = 1.0 / dirs[:, None]
    min_blk = _hit_distances(*_dense_entry_exit(blk_rel, inv)).min(axis=1, initial=np.inf)
    enter, exit_ = _dense_entry_exit(boxes - origin, inv)
    toward = (exit_ >= enter) & (exit_ > 0)
    unblocked = (toward & (min_blk[:, None] >= np.maximum(enter, 0.0))).any(axis=0)

    failed = np.flatnonzero(~unblocked)
    fan_inv = 1.0 / _dense_fan_dirs(px, py, boxes[failed], scene.rays_per_side)
    enter, exit_ = _dense_entry_exit((boxes[failed] - origin)[:, None], fan_inv)
    fan_t = np.maximum(enter, 0.0)
    fan_blk = _hit_distances(*_dense_entry_exit(blk_rel, fan_inv[:, :, None])).min(
        axis=2, initial=np.inf)
    is_open = (exit_ >= enter) & (exit_ > 0) & (fan_blk >= fan_t)
    open_inv, open_t = fan_inv[is_open][:, None], fan_t[is_open][:, None]
    counts = is_open.sum(axis=1).tolist()
    ends = np.cumsum(counts).tolist()
    spans = {k: (e - c, e) for k, c, e in zip(failed.tolist(), counts, ends) if c}

    obj_rel = obj_rects - origin
    occluders = np.empty_like(obj_rel)
    n = 0
    gap = np.maximum(np.maximum(boxes[:, :2] - pw, 0.0), pw - boxes[:, 2:])
    dist = list(map(math.hypot, gap[:, 0].tolist(), gap[:, 1].tolist()))
    unblocked = unblocked.tolist()
    heap = [(dist[0], 0)]
    tests = classified = polys = 0
    while heap:
        _, k = heapq.heappop(heap)
        tests += 1
        if not unblocked[k]:
            span = spans.get(k)
            if span is None:
                continue
            if n:
                rays = slice(*span)
                enter, exit_ = _dense_entry_exit(occluders[:n], open_inv[rays])
                blocked = ((exit_ >= enter) & (exit_ > 0)
                           & (np.maximum(enter, 0.0) < open_t[rays]))
                if np.logical_or.reduce(blocked, axis=1).all():
                    continue
        for i in direct[k]:
            obj = scene.objects[i]
            classified += 1
            polys += obj.polys
            if not (obj.box[0] <= px <= obj.box[2] and obj.box[1] <= py <= obj.box[3]):
                occluders[n] = obj_rel[i]
                n += 1
        for c in children[k]:
            heapq.heappush(heap, (dist[c], c))
    return CullStats(classified, tests, polys)

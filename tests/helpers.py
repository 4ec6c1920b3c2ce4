"""Shared test utilities: random tree construction, dense and JSON oracles, and the
dense scene reference."""

from __future__ import annotations

import heapq
import math

import numpy as np

from meshprof.domain import GridCuboid, GridDomain
from meshprof.fixtures.scene import CullStats, _hit_distances, _quadtree, _ray_dirs, _rect_arrays
from meshprof.mesh import Branch, Leaf, Node, Subdivision, leaf_arrays


def random_tree(rng: np.random.Generator, domain: GridDomain,
                arity: int = 1, split_prob: float = 0.55,
                max_depth: int = 6, value_scale: float = 10.0) -> Node:
    """A structurally valid random tree with random constant leaf values."""

    def make(box: GridCuboid, depth: int):
        splittable = box.cell_count > 1
        if splittable and depth < max_depth and rng.random() < split_prob:
            return Branch(box, tuple(make(b, depth + 1) for b in box.split()))
        value = tuple(float(v) for v in rng.normal(0.0, value_scale, size=arity))
        return Leaf(box, value, 1, value, value)

    return make(domain.root_cuboid(), 0)


def random_subdivision(rng: np.random.Generator, domain: GridDomain, arity: int = 1,
                       *args, **kwargs) -> Subdivision:
    """The subdivision of the ``random_tree`` of the same arguments."""
    return Subdivision(domain, arity, random_tree(rng, domain, arity, *args, **kwargs))


def walk_leaves(sub: Subdivision):
    """Yield (leaf, depth) depth-first in split order, by recursion over ``sub.root``."""

    def walk(node, depth):
        if isinstance(node, Leaf):
            yield node, depth
        else:
            for child in node.children:
                yield from walk(child, depth + 1)

    yield from walk(sub.root, 0)


def dense_eval(sub: Subdivision) -> np.ndarray:
    """Evaluate every grid cell from a walk of the tree, independent of to_dense."""
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


def oracle_doc(sub: Subdivision) -> dict:
    """The v1 mesh document as nested dicts and lists, built the way the first
    v1 writer built it; ``json.dumps(oracle_doc(sub), indent=2)`` is the v1
    text that ``serialize`` must reproduce byte for byte."""

    def node_doc(node) -> dict:
        box = {"lo": list(node.box.lo), "hi": list(node.box.hi)}
        if isinstance(node, Branch):
            return {"box": box, "children": [node_doc(c) for c in node.children]}
        doc = {
            "box": box,
            "value": list(node.value),
            "samples": node.samples,
            "lo_seen": list(node.lo_seen),
            "hi_seen": list(node.hi_seen),
        }
        if node.saturated:
            doc["saturated"] = True
        if node.degenerate:
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
        "root": node_doc(sub.root),
    }


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

"""A deterministic 2D visibility world and a toy hierarchical culling renderer.

The scene is a flat rectangle populated by axis-aligned objects (each with a
polygon count) and opaque blockers.  Ground-truth visibility from a point is
ray-sampled: 4*R rays leave the point, R per 90-degree side sector, and an
object counts as visible if at least one ray reaches its rectangle before
hitting any blocker.  Objects themselves are transparent to these rays.

The culling renderer builds a quadtree over the objects (bounded depth, one
object stored at the deepest node that fully contains it), walks nodes
front-to-back from the viewpoint, and occlusion-tests each node against the
blockers plus everything rendered so far.  It is deliberately conservative:
whatever the shared ray set can see, the renderer also classifies visible.

Precomputed once per scene: its hash and its object and blocker rects as
arrays; per (scene, depth): the quadtree in preorder, as one (N, 4) array of
node boxes plus each node's parent, level, subtree size and polygon total and
each object's owner.  Points are answered a chunk of a few at a time.  Seen
from each point of a chunk, every node box and object spans an angle, and a
shared ray is slab-tested against it (Kay and Kajiya, SIGGRAPH 1986) only if
the rect contains the point or the ray's angle lies within one ray spacing of
that span: any other ray passes the rect at a wide angle, so each pair left out
is a certain miss and every count equals that of testing all rays against all
rects.  Blockers meet every ray.  A chunk's culls reach the quadtree level by
level, for all its points at once, and build the fan of a reached node only if
the shared rays leave it blocked; a cull of the same points on another side
reuses those fans, so ``cullcost_sides`` asks all four sides of a chunk before
the next chunk.  Only the check of a fan against the objects rendered so far
depends on traversal order.  No node lies nearer a point than its parent, so a
front-to-back heap pops nodes in the sorted order of (distance, preorder)
(Hjaltason and Samet, ACM TODS 1999): the Python loop runs over just the nodes
that need that check, in that order, and a node that fails it drops its
subtree.  All quantities are pure functions of (scene, config, point), kept in
one bounded memo for culls and one for visibility, which single-point calls and
a profile's batch share.  Equal scenes share them too, whatever instance they
come from: every cache holds one instance per scene value, so ``numvisible``
and ``sides`` read one visibility memo, and ``cullcost``, ``polygons`` and
``occltests`` at one depth one cull memo, and a hit compares no objects.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress

import numpy as np

from ..analysis import CostModel, UnitCost
from ..builder import ProfileFunction
from ..domain import GridPoint
from ..errors import OutOfDomainError

Rect = tuple[float, float, float, float]

# Default unit costs for the simulated renderer, in milliseconds: one drawn
# polygon is cheap, one hierarchical occlusion test is five orders pricier.
DEFAULT_POLY_COST_MS = 4e-6
DEFAULT_TEST_COST_MS = 0.052


@dataclass(frozen=True)
class SceneObject:
    box: Rect
    polys: int


@dataclass(frozen=True)
class Scene2D:
    """World rectangle, transparent objects, opaque blockers, ray budget."""

    world: tuple[float, float]
    objects: tuple[SceneObject, ...]
    blockers: tuple[Rect, ...]
    rays_per_side: int = 16

    def __post_init__(self):
        w, h = self.world
        if w <= 0 or h <= 0:
            raise ValueError(f"world extents must be positive, got {self.world}")
        if self.rays_per_side < 8:
            raise ValueError(f"rays_per_side must be >= 8, got {self.rays_per_side}")
        for obj in self.objects:
            _check_rect(obj.box, self.world, "object")
            if obj.polys < 1:
                raise ValueError(f"object polygon count must be >= 1, got {obj.polys}")
        for rect in self.blockers:
            _check_rect(rect, self.world, "blocker")
        # Every cache lookup hashes its scene: hash the nested tuples once.
        object.__setattr__(self, "_hash", hash(
            (self.world, self.objects, self.blockers, self.rays_per_side)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def total_polys(self) -> int:
        return sum(obj.polys for obj in self.objects)


@dataclass(frozen=True)
class CullingConfig:
    max_tree_depth: int

    def __post_init__(self):
        if not 1 <= self.max_tree_depth <= 12:
            raise ValueError(
                f"max_tree_depth must lie in [1, 12], got {self.max_tree_depth}")


@dataclass(frozen=True)
class CullStats:
    classified_visible: int
    occlusion_tests: int
    polygons_rendered: int


def _check_rect(rect: Rect, world: tuple[float, float], kind: str) -> None:
    x0, y0, x1, y1 = rect
    if not (0 <= x0 < x1 <= world[0] and 0 <= y0 < y1 <= world[1]):
        raise ValueError(f"{kind} box {rect} must lie inside the world {world}")


# -- Ray casting ----------------------------------------------------------


@lru_cache(maxsize=32)
def _ray_dirs(rays_per_side: int) -> np.ndarray:
    """4*R unit direction vectors; side k owns rows [k*R, (k+1)*R).

    Side sectors are centered on east, north, west, south; rays sit at the
    centers of equal angular slots, so no ray lies on a sector boundary.
    """
    r = rays_per_side
    sector = 90.0 / r
    angles = np.deg2rad(-45.0 + (np.arange(4 * r) + 0.5) * sector)
    return np.stack([np.cos(angles), np.sin(angles)], axis=1)


def _entry_exit(rel: np.ndarray, inv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Slab test of rays against rects, broadcast over leading axes: (enter, exit).

    ``rel`` holds rects (..., 4) relative to the rays' origin, ``inv`` reciprocal
    ray directions (..., 2); ``inv[:, None]`` against (K, 4) pairs all with all.
    A ray parallel to an axis makes inf * 0, so callers ignore invalid-value
    warnings."""
    tx_a = rel[..., 0] * inv[..., 0]
    tx_b = rel[..., 2] * inv[..., 0]
    ty_a = rel[..., 1] * inv[..., 1]
    ty_b = rel[..., 3] * inv[..., 1]
    enter = np.maximum(np.minimum(tx_a, tx_b), np.minimum(ty_a, ty_b))
    exit_ = np.minimum(np.maximum(tx_a, tx_b), np.maximum(ty_a, ty_b))
    return enter, exit_


def _hit_distances(enter: np.ndarray, exit_: np.ndarray) -> np.ndarray:
    """Distance at which each ray first reaches each rect; inf where it never does."""
    hit = (exit_ >= enter) & (exit_ > 0)
    return np.where(hit, np.maximum(enter, 0.0), np.inf)


def _checked_xy(scene: Scene2D, p: GridPoint) -> tuple[float, float]:
    """``p``'s world x and y; raises OutOfDomainError if they lie outside the scene."""
    pw = (float(p.world[0]), float(p.world[1]))
    if not (0 <= pw[0] <= scene.world[0] and 0 <= pw[1] <= scene.world[1]):
        raise OutOfDomainError(f"point {pw} lies outside the scene world {scene.world}")
    return pw


# Points per chunk: a chunk's arrays grow with it, and 8 points keep peak memory flat.
_CHUNK = 8
_MEMO_SIZE = 300_000
_VISIBILITY: OrderedDict = OrderedDict()
_CULLS: OrderedDict = OrderedDict()


@lru_cache(maxsize=256)
def _canonical(scene: Scene2D) -> Scene2D:
    """The first scene equal to ``scene`` to come here, among the 256 used most recently."""
    return scene


def _memoized(memo: OrderedDict, head: tuple, points: list[tuple[float, float]],
              compute) -> list:
    """``compute(*head, chunk)`` for each point, kept in ``memo`` under ``head + (point,)``.

    The head's scene is replaced by its ``_canonical`` instance, so the keys of equal
    scenes hold one instance and compare by identity, not object by object.  The points
    that ``memo`` lacks go to ``compute`` once each, ``_CHUNK`` at a time.  ``memo``
    drops its least recently used entries beyond ``_MEMO_SIZE``.
    """
    head = (_canonical(head[0]),) + head[1:]
    keys = [head + (pw,) for pw in points]
    found = {}
    for key in keys:
        if key in memo:
            memo.move_to_end(key)
            found[key] = memo[key]
    todo = [key for key in dict.fromkeys(keys) if key not in found]
    for a in range(0, len(todo), _CHUNK):
        chunk = todo[a:a + _CHUNK]
        found.update(zip(chunk, compute(*head, [key[-1] for key in chunk])))
    for key in todo:
        memo[key] = found[key]
        if len(memo) > _MEMO_SIZE:
            memo.popitem(last=False)
    return [found[key] for key in keys]


@lru_cache(maxsize=256)
def _rect_arrays(scene: Scene2D) -> tuple[np.ndarray, np.ndarray]:
    """The scene's object rects and blocker rects, each as an (n, 4) array."""
    return (np.array([o.box for o in scene.objects], dtype=np.float64).reshape(-1, 4),
            np.array(scene.blockers, dtype=np.float64).reshape(-1, 4))


def _spans(rel: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each rect's angular span seen from the rays' origin, as (n, 1) arrays ``lo`` and
    ``hi`` in radians, for (n, 4) rects relative to it: the corners' angles, unwrapped
    around the first corner so that a span never straddles the cut.  Meaningless for a
    rect that contains the origin."""
    angles = np.arctan2(rel[:, [1, 1, 3, 3]], rel[:, [0, 2, 0, 2]])
    ref = angles[:, :1]
    turn = (angles - ref + np.pi) % (2 * np.pi) - np.pi
    return ref + turn.min(axis=1, keepdims=True), ref + turn.max(axis=1, keepdims=True)


def _ray_pairs(rel: np.ndarray, lo: np.ndarray, hi: np.ndarray,
               rays_per_side: int) -> tuple[np.ndarray, np.ndarray]:
    """The shared rays that may hit each rect, as pairs: the rect's row and the ray.

    ``rel`` holds (n, 4) rects relative to the rays' origin, ``lo`` and ``hi`` their
    ``_spans``.  Ray ``r`` leaves at ``-45° + (r + 0.5)·90°/R``.  A rect that contains
    the origin pairs with all 4*R rays.  Any other spans less than 180° and pairs with
    the rays within one ray spacing of its span: a ray further off passes it at a wide
    angle, so its slab test could only report a miss."""
    n = 4 * rays_per_side
    # Angles in ray slots, where ray r sits at slot r.
    slot, shift = n / (2 * np.pi), rays_per_side / 2 - 0.5
    first = np.ceil(lo[:, 0] * slot + (shift - 1.0))
    last = np.floor(hi[:, 0] * slot + (shift + 1.0))
    first = first.astype(np.int64)
    count = np.where((rel * _INSIDE >= 0).all(axis=1), n, last - first + 1).astype(np.int64)
    ends = np.cumsum(count)
    row = np.repeat(np.arange(len(rel)), count)
    ray = (np.arange(len(row)) - np.repeat(ends - count - first, count)) % n
    return row, ray


# A rect (x0, y0, x1, y1) relative to a point contains it where every signed entry is >= 0.
_INSIDE = np.array([-1.0, -1.0, 1.0, 1.0])


def _blocker_distances(blk_rel: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """(P, rays): how far each ray travels from each of P points before a blocker,
    for (P, B, 4) blocker rects relative to the points and (rays, 2) reciprocal directions."""
    return _hit_distances(*_entry_exit(blk_rel[:, None], inv[:, None])).min(
        axis=2, initial=np.inf)


@np.errstate(divide="ignore", invalid="ignore")
def _visibility_chunk(scene: Scene2D, points: list[tuple[float, float]]
                      ) -> list[tuple[int, tuple[int, ...]]]:
    """(total ray-visible objects, per-side counts) from each world point."""
    r = scene.rays_per_side
    origin = np.array([pw + pw for pw in points])
    obj_rects, blk_rects = _rect_arrays(scene)
    inv = 1.0 / _ray_dirs(r)
    blk_t = _blocker_distances(blk_rects - origin[:, None], inv)
    obj_rel = (obj_rects - origin[:, None]).reshape(-1, 4)
    row, ray = _ray_pairs(obj_rel, *_spans(obj_rel), r)
    point, obj = np.unravel_index(row, (len(points), len(obj_rects)))
    seen = _hit_distances(*_entry_exit(obj_rel[row], inv[ray])) < blk_t[point, ray]
    hit = np.zeros((len(points), 4, len(obj_rects)), dtype=bool)
    hit[point[seen], ray[seen] // r, obj[seen]] = True
    totals = hit.any(axis=1).sum(axis=1).tolist()
    return list(zip(totals, map(tuple, hit.sum(axis=2).tolist())))


def _visibility(scene: Scene2D, points: list[tuple[float, float]]
                ) -> list[tuple[int, tuple[int, ...]]]:
    return _memoized(_VISIBILITY, (scene,), points, _visibility_chunk)


def num_visible(scene: Scene2D, p: GridPoint) -> int:
    """Objects reached by at least one of the 4*R rays before any blocker."""
    return _visibility(scene, [_checked_xy(scene, p)])[0][0]


def visible_by_side(scene: Scene2D, p: GridPoint) -> tuple[int, ...]:
    """Ray-visible object count restricted to each side's R rays (E, N, W, S)."""
    return _visibility(scene, [_checked_xy(scene, p)])[0][1]


# -- Quadtree culling -----------------------------------------------------


def _fits(rect: Rect, box: Rect) -> bool:
    return (box[0] <= rect[0] and rect[2] <= box[2]
            and box[1] <= rect[1] and rect[3] <= box[3])


@lru_cache(maxsize=256)
def _quadtree(scene: Scene2D, max_depth: int) -> tuple:
    """The quadtree in preorder, so a node's index is its tie-break order: node boxes
    as one (N, 4) array, each node's parent (the root's is 0), the nodes of each
    level, each node's subtree size, which makes its subtree the index range
    [k, k + size), each object's owner (the node that stores it), and per node its
    number of objects, of children and of polygons, as one (N, 3) array."""
    rects = [o.box for o in scene.objects]
    boxes: list[Rect] = []
    parent: list[int] = []
    level: list[int] = []
    size: list[int] = []
    owner = [0] * len(rects)

    def add(box: Rect, items: list[int], up: int, depth: int) -> None:
        k = len(boxes)
        boxes.append(box)
        parent.append(up)
        level.append(depth)
        size.append(1)
        x0, y0, x1, y1 = box
        mx, my = (x0 + x1) / 2.0, (y0 + y1) / 2.0
        quads = ((x0, y0, mx, my), (mx, y0, x1, my), (x0, my, mx, y1), (mx, my, x1, y1))
        per_quad: list[list[int]] = [[], [], [], []]
        for i in items:
            owner[i] = k
            if depth + 1 < max_depth:
                for q, quad in enumerate(quads):
                    if _fits(rects[i], quad):
                        per_quad[q].append(i)
                        break
        for quad, bucket in zip(quads, per_quad):
            if bucket:
                add(quad, bucket, k, depth + 1)
        size[k] = len(boxes) - k

    add((0.0, 0.0, scene.world[0], scene.world[1]), list(range(len(rects))), 0, 0)
    parent, level, owner = np.array(parent), np.array(level), np.array(owner, dtype=np.int64)
    counts = np.zeros((len(boxes), 3), dtype=np.int64)
    np.add.at(counts, (owner, 0), 1)
    np.add.at(counts, (parent[1:], 1), 1)
    np.add.at(counts, (owner, 2), [o.polys for o in scene.objects])
    return (np.array(boxes, dtype=np.float64), parent,
            tuple(np.flatnonzero(level == d) for d in range(level.max() + 1)), tuple(size),
            owner, counts)


def _fan_dirs(lo: np.ndarray, hi: np.ndarray, count: int) -> np.ndarray:
    """``count`` directions spread evenly across each of n ``_spans``: shape (n, count, 2)."""
    fan = lo + (np.arange(count) + 0.5) * (hi - lo) / count
    return np.stack([np.cos(fan), np.sin(fan)], axis=-1)


@lru_cache(maxsize=1)
@np.errstate(divide="ignore", invalid="ignore")
def _shared_rays(scene: Scene2D, max_depth: int, points: tuple[tuple[float, float], ...]
                 ) -> tuple:
    """What the culls of ``points`` share, whatever their side, kept for the next cull
    of the same points, with rows for (point, node) pairs: blockers (P, B, 4) and node
    boxes (P*N, 4) relative to the points; the boxes' ``_spans``; the row and side of
    each shared ray that may hit a box, with whether it reaches the box before any
    blocker; each point's distance to each node's box (P, N), its nodes in walk order
    (by that distance, ties by preorder, as a stable sort leaves them) and each node's
    rank in that order; the objects (P, M, 4) relative to the points and which of them
    hold their point; and the fans, filled as culls reach their rows: per row its
    number of open rays (-1 until filled), which of its R rays are open, and per ray
    its reciprocal direction and the largest float below its distance to the box."""
    origin = np.array([pw + pw for pw in points])
    obj_rects, blk_rects = _rect_arrays(scene)
    boxes = _quadtree(scene, max_depth)[0]
    r = scene.rays_per_side
    inv = 1.0 / _ray_dirs(r)
    blk_rel = blk_rects - origin[:, None]
    min_blk = _blocker_distances(blk_rel, inv)
    box_rel = (boxes - origin[:, None]).reshape(-1, 4)
    lo, hi = _spans(box_rel)
    row, ray = _ray_pairs(box_rel, lo, hi, r)
    enter, exit_ = _entry_exit(box_rel[row], inv[ray])
    # A blocker is reached at a distance >= 0, so a box entered no further is
    # reached before it.
    clear = (enter <= np.minimum(exit_, min_blk[row // len(boxes), ray])) & (exit_ > 0)
    xy = origin[:, None, :2]
    gap = np.maximum(np.maximum(boxes[:, :2] - xy, 0.0), xy - boxes[:, 2:]).reshape(-1, 2)
    dist = np.array(list(map(math.hypot, gap[:, 0].tolist(), gap[:, 1].tolist())),
                    dtype=np.float64).reshape(len(points), len(boxes))
    walk = np.argsort(dist, axis=1, kind="stable")
    rank = np.empty_like(walk)
    rank[np.arange(len(points))[:, None], walk] = np.arange(len(boxes))
    obj_rel = obj_rects - origin[:, None]
    fans = (np.full(len(box_rel), -1), np.zeros((len(box_rel), r), dtype=bool),
            np.empty((len(box_rel), r, 3)))
    return (blk_rel, box_rel, lo, hi, row, ray // r, clear, dist, walk, rank, obj_rel,
            (obj_rel * _INSIDE >= 0).all(axis=2), fans)


@np.errstate(divide="ignore", invalid="ignore")
def _cull_chunk(scene: Scene2D, max_depth: int, side: int | None,
                points: list[tuple[float, float]]) -> list[CullStats]:
    # The occlusion test has two halves.  The shared ground-truth rays are
    # checked against blockers only: whenever one of them reaches an object
    # before any blocker, it also reaches every enclosing box unblocked, so
    # conservativeness (classified >= ray-visible) holds by construction.
    # The culling power beyond blockers comes from the fan: directions
    # spread over the box's whole projected span, checked against blockers
    # plus everything rendered so far — the analog of testing a bounding box
    # against the current depth buffer.  Only that last check depends on
    # traversal order, so only it runs point by point, in a Python loop.
    r = scene.rays_per_side
    _, parent, levels, size, owner, counts = _quadtree(scene, max_depth)
    (blk_rel, box_rel, lo, hi, row, sector, clear, _, walk, rank, obj_rel, held,
     (n_open, is_open, fans)) = _shared_rays(scene, max_depth, tuple(points))
    n = len(parent)
    if side is not None:
        clear = clear & (sector == side)
    passes = np.zeros(len(box_rel), dtype=bool)
    passes[row[clear]] = True
    blocked = ~passes.reshape(-1, n)

    # 1. Reach the tree level by level: a node is reached if its parent is live, and
    # a reached node is live if it passes.  A row passes if a shared ray reaches its
    # box, or else if its fan has an open ray, one that meets the box before any
    # blocker.  A fan is built for a blocked row once it is reached, and kept for the
    # other sides' culls of the same points.
    live = np.zeros(blocked.shape, dtype=bool)
    reached = np.ones((len(points), 1), dtype=bool)
    for nodes in levels:
        if nodes[0]:    # below the root
            reached = live[:, parent[nodes]]
            if not reached.any():
                break
        at, j = np.nonzero(reached & blocked[:, nodes])
        rows = at * n + nodes[j]
        new = rows[n_open[rows] < 0] if len(rows) else rows
        if len(new):
            inv = 1.0 / _fan_dirs(lo[new], hi[new], r)
            enter, exit_ = _entry_exit(box_rel[new][:, None], inv)
            t = np.maximum(enter, 0.0)
            blk_t = _hit_distances(*_entry_exit(blk_rel[new // n][:, None],
                                                inv[:, :, None])).min(axis=2, initial=np.inf)
            is_open[new] = opened = (exit_ >= enter) & (exit_ > 0) & (blk_t >= t)
            fans[new, :, :2] = inv
            # An occluder never holds the viewpoint, so it is entered at a distance
            # >= 0, and entered before the box exactly when no further than this.
            fans[new, :, 2] = np.nextafter(t, -np.inf)
            n_open[new] = opened.sum(axis=1)    # last: it marks the rows filled
        if len(rows):
            passes[rows] = n_open[rows] > 0
        live[:, nodes] = reached & passes.reshape(-1, n)[:, nodes]

    # 2. The order-dependent checks: each point's live rows that pass by their fan
    # alone, in walk order.  Each is tested against the occluders of the live nodes
    # ranked before it; if they block every open ray, the row fails, and with it its
    # subtree, which the walk ranks after it, and the subtree's objects occlude no
    # later check.
    each = np.arange(len(points))[:, None]
    at, place = np.nonzero((live & blocked)[each, walk])
    if len(at):
        nodes = walk[at, place]
        rows = at * n + nodes
        rays = fans[rows][is_open[rows]]
        open_inv, open_t = rays[:, None, :2], rays[:, 2:]
        opens = n_open[rows]
        # Each point's objects of live nodes in the walk order of their owners, so
        # that a check's occluders are a prefix; other objects rank last, at n.  So
        # do objects that hold their point: a box containing the camera would
        # otherwise occlude the whole world at distance zero.
        ranks = np.where(live[:, owner] & ~held, rank[:, owner], n)
        by_rank = np.argsort(ranks, axis=1, kind="stable")
        occ_rel, occ_owner = obj_rel[each, by_rank], owner[by_rank]
        occ_rank = ranks[each, by_rank]
        p = -1
        for a, i, k, end, count in zip(at.tolist(), place.tolist(), nodes.tolist(),
                                       np.cumsum(opens).tolist(), opens.tolist()):
            if a != p:
                p, occluders, owners = a, occ_rel[a], occ_owner[a]
                before = occ_rank[a].tolist()
            if not live[p, k]:
                continue
            upto = bisect_left(before, i)
            if upto:
                span = slice(end - count, end)
                enter, exit_ = _entry_exit(occluders[:upto], open_inv[span])
                hidden = (enter <= np.minimum(exit_, open_t[span])) & (exit_ > 0)
                if hidden.any(axis=1).all():
                    live[p, k:k + size[k]] = False
                    kept = (owners < k) | (owners >= k + size[k])
                    occluders, owners = occluders[kept], owners[kept]
                    before = list(compress(before, kept.tolist()))

    # 3. Count: a test for every reached node, the root and each live node's
    # children, and the objects of every live node.
    return [CullStats(shown, 1 + tests, polys)
            for shown, tests, polys in (live @ counts).tolist()]


def _cull(scene: Scene2D, max_depth: int, side: int | None,
          points: list[tuple[float, float]]) -> list[CullStats]:
    return _memoized(_CULLS, (scene, max_depth, side), points, _cull_chunk)


def cull_render(scene: Scene2D, config: CullingConfig, p: GridPoint,
                side: int | None = None) -> CullStats:
    """Run the culling renderer from ``p`` and count its work.

    Nodes are visited front-to-back (ties broken by tree order); each visit
    costs one occlusion test.  A node survives if any ray toward its box is
    not stopped earlier by a blocker or an already-rendered object; its
    directly stored objects are then rendered.  ``side`` restricts the ray
    set to one side sector.
    """
    return _cull(scene, config.max_tree_depth, side, [_checked_xy(scene, p)])[0]


# -- Simulated costs ------------------------------------------------------


def default_cost_model(combinator: str = "sequential") -> CostModel:
    return CostModel((UnitCost("polygons", DEFAULT_POLY_COST_MS),
                      UnitCost("occlusion_tests", DEFAULT_TEST_COST_MS)), combinator)


def simulated_cost(scene: Scene2D, config: CullingConfig, p: GridPoint,
                   model: CostModel | None = None, side: int | None = None) -> float:
    """Model cost of culling+rendering from ``p``.

    The model's unit costs are applied positionally to (polygons rendered,
    occlusion tests).
    """
    return _model_cost(model or default_cost_model(), cull_render(scene, config, p, side))


def _model_cost(model: CostModel, stats: CullStats) -> float:
    return model.apply([stats.polygons_rendered, stats.occlusion_tests])


def brute_force_cost(scene: Scene2D, poly_cost: float = DEFAULT_POLY_COST_MS) -> float:
    """Cost of rendering every polygon in the scene, with no tests at all."""
    return poly_cost * scene.total_polys


# -- Profile functions ----------------------------------------------------


_VECTOR_QUANTITIES = ("sides", "cullcost_sides")
_NEEDS_CONFIG = ("polygons", "occltests", "cullcost", "cullcost_sides")


def scene_profile(scene: Scene2D, quantity: str,
                  config: CullingConfig | None = None) -> ProfileFunction:
    """Wrap a scene quantity as a buildable profile function.

    Scalar quantities: numvisible, polygons, occltests, cullcost, brutecost.
    Vector (arity 4, one component per side): sides, cullcost_sides.
    Extra grid axes beyond x, y (for degenerate 3D grids) are ignored.  The
    ``batch`` answers many points through the same memo as ``query``, leaving
    rows outside the scene's world non-finite, for ``query`` to refuse.
    """
    if quantity in _NEEDS_CONFIG:
        config = config or CullingConfig(4)
    name = f"scene:{quantity}"
    if config is not None:
        name += f":depth={config.max_tree_depth}"
    arity = 4 if quantity in _VECTOR_QUANTITIES else 1
    model = default_cost_model()

    def culls(points, side=None):
        return _cull(scene, config.max_tree_depth, side, points)

    if quantity == "brutecost":
        cost = brute_force_cost(scene)
        return ProfileFunction(1, lambda p: (cost,), name=name,
                               batch=lambda world: np.full(len(world), cost))
    if quantity == "numvisible":
        rows = lambda points: [(float(total),) for total, _ in _visibility(scene, points)]
    elif quantity == "sides":
        rows = lambda points: [tuple(map(float, by_side))
                               for _, by_side in _visibility(scene, points)]
    elif quantity == "polygons":
        rows = lambda points: [(float(s.polygons_rendered),) for s in culls(points)]
    elif quantity == "occltests":
        rows = lambda points: [(float(s.occlusion_tests),) for s in culls(points)]
    elif quantity == "cullcost":
        rows = lambda points: [(_model_cost(model, s),) for s in culls(points)]
    elif quantity == "cullcost_sides":
        # All four sides of a chunk of points before the next chunk: they share its rays.
        rows = lambda points: [row for a in range(0, len(points), _CHUNK) for row in zip(*(
            [_model_cost(model, s) for s in culls(points[a:a + _CHUNK], k)] for k in range(4)))]
    else:
        raise ValueError(f"unknown scene quantity {quantity!r}")

    def batch(world: np.ndarray) -> np.ndarray:
        xy = np.asarray(world, dtype=np.float64)[:, :2]
        inside = ((xy >= 0) & (xy <= scene.world)).all(axis=1)
        out = np.full((len(xy), arity), np.nan)
        out[inside] = np.array(rows(list(map(tuple, xy[inside].tolist()))),
                               dtype=np.float64).reshape(-1, arity)
        return out

    return ProfileFunction(arity, lambda p: rows([_checked_xy(scene, p)])[0], name=name,
                           batch=batch)


# -- Canonical scenes -----------------------------------------------------


def default_scene(rays_per_side: int = 16) -> Scene2D:
    """A 256x256 world: 10x10 jittered thin trees plus three opaque walls.

    Two walls seal off the lower-left quarter into a pocket (the region
    where culling pays off); a third wall shades part of the upper right.
    Object sizes, positions, and polygon counts come from a fixed seed, so
    the scene is one deterministic value.
    """
    return scene_variant(1405, rays_per_side, jitter=5.0)


def scene_variant(seed: int, rays_per_side: int = 16, jitter: float = 6.0) -> Scene2D:
    """The default scene's walls, with a tree layout drawn from ``seed``.

    Each tree is moved off its grid slot by up to ``jitter`` per axis.
    """
    rng = np.random.default_rng(seed)
    objects = []
    for j in range(10):
        for i in range(10):
            cx = (i + 0.5) * 25.6 + rng.uniform(-jitter, jitter)
            cy = (j + 0.5) * 25.6 + rng.uniform(-jitter, jitter)
            w = rng.uniform(2.0, 4.0)
            h = rng.uniform(2.0, 4.0)
            polys = int(round(math.exp(rng.uniform(math.log(1e2), math.log(1e4)))))
            box = (max(0.0, cx - w / 2), max(0.0, cy - h / 2),
                   min(256.0, cx + w / 2), min(256.0, cy + h / 2))
            objects.append(SceneObject(box, max(1, polys)))
    blockers = (
        (0.0, 100.0, 103.0, 103.0),     # pocket wall, horizontal
        (100.0, 0.0, 103.0, 103.0),     # pocket wall, vertical
        (140.0, 180.0, 250.0, 183.0),   # free-standing wall upper right
    )
    return Scene2D((256.0, 256.0), tuple(objects), blockers, rays_per_side)


def _rotations(rect: Rect) -> tuple[Rect, ...]:
    """Orbit of a rect under 90-degree rotations about the world center (128, 128)."""
    x0, y0, x1, y1 = rect
    return (
        (x0, y0, x1, y1),
        (256.0 - y1, x0, 256.0 - y0, x1),
        (256.0 - x1, 256.0 - y1, 256.0 - x0, 256.0 - y0),
        (y0, 256.0 - x1, y1, 256.0 - x0),
    )


def symmetric_scene(rays_per_side: int = 16) -> Scene2D:
    """A scene invariant under 90-degree rotation about the world center.

    Seen from the exact center, all four side sectors are interchangeable,
    so every directional quantity has four equal components there.
    """
    objects = []
    for base, polys in (
        ((170.0, 100.0, 178.0, 112.0), 500),
        ((200.0, 150.0, 208.0, 157.0), 800),
        ((150.0, 60.0, 157.0, 68.0), 300),
        ((228.0, 120.0, 233.0, 128.0), 1200),
    ):
        for rect in _rotations(base):
            objects.append(SceneObject(rect, polys))
    blockers = _rotations((180.0, 40.0, 216.0, 44.0))
    return Scene2D((256.0, 256.0), tuple(objects), tuple(blockers), rays_per_side)


def named_scene(name: str, rays_per_side: int = 16) -> Scene2D:
    if name == "default":
        return default_scene(rays_per_side)
    if name == "symmetric":
        return symmetric_scene(rays_per_side)
    if name.startswith("variant"):
        return scene_variant(int(name[len("variant"):]), rays_per_side)
    raise ValueError(f"unknown scene {name!r} (try default, symmetric, variantN)")

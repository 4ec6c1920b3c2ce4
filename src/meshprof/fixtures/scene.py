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
node boxes plus each node's objects and children as indices.  Per point, the
shared rays' test of every node is one (rays x nodes) slab test, and every
blocked node's fan is tested against its box and the blockers at once; only
the check of a fan against the objects rendered so far depends on traversal
order, so it runs when the traversal reaches the node.  All quantities are
pure functions of (scene, config, point), memoized per point.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache

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
    centers of equal angular slots, so no ray ever lies on a sector boundary
    or an axis.
    """
    r = rays_per_side
    sector = 90.0 / r
    angles = np.deg2rad(-45.0 + (np.arange(4 * r) + 0.5) * sector)
    return np.stack([np.cos(angles), np.sin(angles)], axis=1)


def _entry_exit(rel: np.ndarray, inv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Slab test of rays against rects, broadcast over leading axes: (enter, exit).

    ``rel`` holds rects (..., 4) relative to the rays' origin, ``inv`` reciprocal
    ray directions (..., 2); ``inv[:, None]`` against (K, 4) pairs all with all.
    Axis-parallel rays make inf * 0, so callers ignore invalid-value warnings."""
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


def _require_inside(scene: Scene2D, pw: tuple[float, float]) -> None:
    if not (0 <= pw[0] <= scene.world[0] and 0 <= pw[1] <= scene.world[1]):
        raise OutOfDomainError(f"point {pw} lies outside the scene world {scene.world}")


def _world_xy(p: GridPoint) -> tuple[float, float]:
    return (float(p.world[0]), float(p.world[1]))


@lru_cache(maxsize=256)
def _rect_arrays(scene: Scene2D) -> tuple[np.ndarray, np.ndarray]:
    """The scene's object rects and blocker rects, each as an (n, 4) array."""
    return (np.array([o.box for o in scene.objects], dtype=np.float64).reshape(-1, 4),
            np.array(scene.blockers, dtype=np.float64).reshape(-1, 4))


@lru_cache(maxsize=300_000)
@np.errstate(divide="ignore", invalid="ignore")
def _visibility(scene: Scene2D, pw: tuple[float, float]) -> tuple[int, tuple[int, ...]]:
    """(total ray-visible objects, per-side counts) from world point pw."""
    origin = np.array(pw + pw)
    obj_rects, blk_rects = _rect_arrays(scene)
    inv = 1.0 / _ray_dirs(scene.rays_per_side)[:, None]
    obj_t = _hit_distances(*_entry_exit(obj_rects - origin, inv))
    blk_t = _hit_distances(*_entry_exit(blk_rects - origin, inv)).min(axis=1, initial=np.inf)
    seen = obj_t < blk_t[:, None]
    r = scene.rays_per_side
    sides = tuple(int(seen[k * r:(k + 1) * r].any(axis=0).sum()) for k in range(4))
    return int(seen.any(axis=0).sum()), sides


def num_visible(scene: Scene2D, p: GridPoint) -> int:
    """Objects reached by at least one of the 4*R rays before any blocker."""
    pw = _world_xy(p)
    _require_inside(scene, pw)
    return _visibility(scene, pw)[0]


def visible_by_side(scene: Scene2D, p: GridPoint) -> tuple[int, ...]:
    """Ray-visible object count restricted to each side's R rays (E, N, W, S)."""
    pw = _world_xy(p)
    _require_inside(scene, pw)
    return _visibility(scene, pw)[1]


# -- Quadtree culling -----------------------------------------------------


def _fits(rect: Rect, box: Rect) -> bool:
    return (box[0] <= rect[0] and rect[2] <= box[2]
            and box[1] <= rect[1] and rect[3] <= box[3])


@lru_cache(maxsize=256)
def _quadtree(scene: Scene2D, max_depth: int) -> tuple[np.ndarray, tuple, tuple]:
    """The quadtree in preorder, so a node's index is its tie-break order:
    node boxes as one (N, 4) array, then each node's objects and children."""
    rects = [o.box for o in scene.objects]
    boxes: list[Rect] = []
    direct: list[tuple[int, ...]] = []
    children: list[tuple[int, ...]] = []

    def add(box: Rect, items: list[int], levels_left: int) -> int:
        k = len(boxes)
        boxes.append(box)
        direct.append(tuple(items))
        children.append(())
        if levels_left <= 1:
            return k
        x0, y0, x1, y1 = box
        mx, my = (x0 + x1) / 2.0, (y0 + y1) / 2.0
        quads = ((x0, y0, mx, my), (mx, y0, x1, my), (x0, my, mx, y1), (mx, my, x1, y1))
        own: list[int] = []
        per_quad: list[list[int]] = [[], [], [], []]
        for i in items:
            for q, quad in enumerate(quads):
                if _fits(rects[i], quad):
                    per_quad[q].append(i)
                    break
            else:
                own.append(i)
        direct[k] = tuple(own)
        children[k] = tuple(add(quad, bucket, levels_left - 1)
                            for quad, bucket in zip(quads, per_quad) if bucket)
        return k

    add((0.0, 0.0, scene.world[0], scene.world[1]), list(range(len(rects))), max_depth)
    return np.array(boxes, dtype=np.float64), tuple(direct), tuple(children)


def _fan_dirs(px: float, py: float, boxes: np.ndarray, count: int) -> np.ndarray:
    """``count`` directions from p spread evenly across each box's angular span,
    for (n, 4) boxes: shape (n, count, 2)."""
    angles = np.arctan2(boxes[:, [1, 1, 3, 3]] - py, boxes[:, [0, 2, 0, 2]] - px)
    # Unwrap around the first corner so the span never straddles the cut.
    ref = angles[:, :1]
    rel = (angles - ref + np.pi) % (2 * np.pi) - np.pi
    lo, hi = ref + rel.min(axis=1, keepdims=True), ref + rel.max(axis=1, keepdims=True)
    fan = lo + (np.arange(count) + 0.5) * (hi - lo) / count
    return np.stack([np.cos(fan), np.sin(fan)], axis=-1)


@lru_cache(maxsize=300_000)
@np.errstate(divide="ignore", invalid="ignore")
def _cull(scene: Scene2D, max_depth: int, pw: tuple[float, float],
          side: int | None) -> CullStats:
    # The occlusion test has two halves.  The shared ground-truth rays are
    # checked against blockers only: whenever one of them reaches an object
    # before any blocker, it also reaches every enclosing box unblocked, so
    # conservativeness (classified >= ray-visible) holds by construction.
    # The culling power beyond blockers comes from the fan: directions
    # spread over the box's whole projected span, checked against blockers
    # plus everything rendered so far — the analog of testing a bounding box
    # against the current depth buffer.  Only that last check depends on
    # traversal order; all else runs for every node at once.
    dirs = _ray_dirs(scene.rays_per_side)
    if side is not None:
        dirs = dirs.reshape(4, -1, 2)[side]
    px, py = pw
    origin = np.array(pw + pw)
    obj_rects, blk_rects = _rect_arrays(scene)
    boxes, direct, children = _quadtree(scene, max_depth)
    blk_rel = blk_rects - origin
    inv = 1.0 / dirs[:, None]
    min_blk = _hit_distances(*_entry_exit(blk_rel, inv)).min(axis=1, initial=np.inf)
    enter, exit_ = _entry_exit(boxes - origin, inv)
    toward = (exit_ >= enter) & (exit_ > 0)
    unblocked = (toward & (min_blk[:, None] >= np.maximum(enter, 0.0))).any(axis=0)

    # Fans of the nodes the shared rays leave blocked, (C, F, 2); the open
    # rays go into one flat array, node by node, with spans[k] = (start, end).
    failed = np.flatnonzero(~unblocked)
    fan_inv = 1.0 / _fan_dirs(px, py, boxes[failed], scene.rays_per_side)
    enter, exit_ = _entry_exit((boxes[failed] - origin)[:, None], fan_inv)
    fan_t = np.maximum(enter, 0.0)
    fan_blk = _hit_distances(*_entry_exit(blk_rel, fan_inv[:, :, None])).min(
        axis=2, initial=np.inf)
    is_open = (exit_ >= enter) & (exit_ > 0) & (fan_blk >= fan_t)
    open_inv, open_t = fan_inv[is_open][:, None], fan_t[is_open][:, None]
    counts = is_open.sum(axis=1).tolist()
    ends = np.cumsum(counts).tolist()
    spans = {k: (e - c, e) for k, c, e in zip(failed.tolist(), counts, ends) if c}

    obj_rel = obj_rects - origin
    occluders = np.empty_like(obj_rel)   # rendered objects, rows [0, n)
    n = 0
    # Front-to-back: distance from p to each node's box, ties by preorder.
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
                enter, exit_ = _entry_exit(occluders[:n], open_inv[rays])
                blocked = (exit_ >= enter) & (exit_ > 0) & (np.maximum(enter, 0.0) < open_t[rays])
                if np.logical_or.reduce(blocked, axis=1).all():
                    continue
        for i in direct[k]:
            obj = scene.objects[i]
            classified += 1
            polys += obj.polys
            # A rendered object occludes later fan tests unless the viewpoint
            # sits inside it; a box containing the camera would otherwise
            # occlude the whole world at distance zero.
            if not (obj.box[0] <= px <= obj.box[2] and obj.box[1] <= py <= obj.box[3]):
                occluders[n] = obj_rel[i]
                n += 1
        for c in children[k]:
            heapq.heappush(heap, (dist[c], c))
    return CullStats(classified, tests, polys)


def cull_render(scene: Scene2D, config: CullingConfig, p: GridPoint,
                side: int | None = None) -> CullStats:
    """Run the culling renderer from ``p`` and count its work.

    Nodes are visited front-to-back (ties broken by tree order); each visit
    costs one occlusion test.  A node survives if any ray toward its box is
    not stopped earlier by a blocker or an already-rendered object; its
    directly stored objects are then rendered.  ``side`` restricts the ray
    set to one side sector.
    """
    pw = _world_xy(p)
    _require_inside(scene, pw)
    return _cull(scene, config.max_tree_depth, pw, side)


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
    stats = cull_render(scene, config, p, side)
    model = model or default_cost_model()
    return model.apply([stats.polygons_rendered, stats.occlusion_tests])


def brute_force_cost(scene: Scene2D, poly_cost: float = DEFAULT_POLY_COST_MS) -> float:
    """Cost of rendering every polygon in the scene, with no tests at all."""
    return poly_cost * scene.total_polys


# -- Directional profiles and profile functions ----------------------------


_VECTOR_QUANTITIES = ("sides", "cullcost_sides")
_NEEDS_CONFIG = ("polygons", "occltests", "cullcost", "cullcost_sides")


def directional_profile(scene: Scene2D, quantity: str, p: GridPoint,
                        config: CullingConfig | None = None) -> tuple[float, ...]:
    """The chosen quantity measured per side sector (east, north, west, south).

    ``numvisible`` restricts the ground-truth rays to one side at a time;
    cull quantities run one independent single-side traversal per side.
    """
    if quantity == "numvisible" or quantity == "sides":
        return tuple(float(v) for v in visible_by_side(scene, p))
    config = config or CullingConfig(4)
    if quantity == "cullcost" or quantity == "cullcost_sides":
        return tuple(simulated_cost(scene, config, p, side=k) for k in range(4))
    if quantity == "polygons":
        return tuple(float(cull_render(scene, config, p, side=k).polygons_rendered)
                     for k in range(4))
    if quantity == "occltests":
        return tuple(float(cull_render(scene, config, p, side=k).occlusion_tests)
                     for k in range(4))
    raise ValueError(f"unknown directional quantity {quantity!r}")


def scene_profile(scene: Scene2D, quantity: str,
                  config: CullingConfig | None = None) -> ProfileFunction:
    """Wrap a scene quantity as a buildable profile function.

    Scalar quantities: numvisible, polygons, occltests, cullcost, brutecost.
    Vector (arity 4, one component per side): sides, cullcost_sides.
    Extra grid axes beyond x, y (for degenerate 3D grids) are ignored.
    """
    if quantity in _NEEDS_CONFIG:
        config = config or CullingConfig(4)
    name = f"scene:{quantity}"
    if config is not None:
        name += f":depth={config.max_tree_depth}"

    if quantity == "numvisible":
        fn = lambda p: (float(num_visible(scene, p)),)
    elif quantity == "brutecost":
        cost = brute_force_cost(scene)
        fn = lambda p: (cost,)
    elif quantity == "polygons":
        fn = lambda p: (float(cull_render(scene, config, p).polygons_rendered),)
    elif quantity == "occltests":
        fn = lambda p: (float(cull_render(scene, config, p).occlusion_tests),)
    elif quantity == "cullcost":
        fn = lambda p: (simulated_cost(scene, config, p),)
    elif quantity in _VECTOR_QUANTITIES:
        return ProfileFunction(4, lambda p: directional_profile(scene, quantity, p, config),
                               name=name)
    else:
        raise ValueError(f"unknown scene quantity {quantity!r}")
    return ProfileFunction(1, fn, name=name)


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

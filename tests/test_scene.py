"""The 2D visibility world: ray ground truth, quadtree culling, cost model."""

import hashlib
import heapq
import math
from collections import OrderedDict

import numpy as np
import pytest
from helpers import dense_cull, dense_visibility
from hypothesis import given, settings
from hypothesis import strategies as st

from meshprof.domain import GridDomain, GridPoint
from meshprof.errors import OutOfDomainError
from meshprof.fixtures import (
    CullingConfig,
    Scene2D,
    SceneObject,
    brute_force_cost,
    cull_render,
    default_cost_model,
    default_scene,
    named_scene,
    num_visible,
    resolve_fixture,
    scene_profile,
    scene_variant,
    simulated_cost,
    symmetric_scene,
    visible_by_side,
)
from meshprof.analysis import CostModel, UnitCost
from meshprof.fixtures import scene as scene_module
from meshprof.fixtures.scene import (
    _canonical,
    _cull,
    _cull_chunk,
    _quadtree,
    _shared_rays,
    _visibility_chunk,
)


def P(x, y):
    return GridPoint((0, 0), (float(x), float(y)))


def ray_visible_oracle(scene, px, py):
    """Independent pure-python reimplementation of the ray ground truth."""
    r = scene.rays_per_side
    angles = [math.radians(-45.0 + (j + 0.5) * 90.0 / r) for j in range(4 * r)]
    def first_hit(dx, dy, rect):
        ts = []
        for (lo, hi, p0, d) in ((rect[0], rect[2], px, dx), (rect[1], rect[3], py, dy)):
            a, b = (lo - p0) / d, (hi - p0) / d
            ts.append((min(a, b), max(a, b)))
        enter = max(t[0] for t in ts)
        exit_ = min(t[1] for t in ts)
        if exit_ >= enter and exit_ > 0:
            return max(enter, 0.0)
        return math.inf
    seen = set()
    for a in angles:
        dx, dy = math.cos(a), math.sin(a)
        block = min((first_hit(dx, dy, b) for b in scene.blockers), default=math.inf)
        for i, obj in enumerate(scene.objects):
            if first_hit(dx, dy, obj.box) < block:
                seen.add(i)
    return len(seen)


class TestValidation:
    def test_world_must_be_positive(self):
        with pytest.raises(ValueError):
            Scene2D((0.0, 10.0), (), ())

    def test_minimum_ray_budget(self):
        with pytest.raises(ValueError):
            Scene2D((10.0, 10.0), (), (), rays_per_side=4)

    def test_object_must_fit_world(self):
        with pytest.raises(ValueError):
            Scene2D((10.0, 10.0), (SceneObject((5.0, 5.0, 12.0, 6.0), 10),), ())

    def test_degenerate_box_rejected(self):
        with pytest.raises(ValueError):
            Scene2D((10.0, 10.0), (), ((3.0, 3.0, 3.0, 6.0),))

    def test_polygon_count_positive(self):
        with pytest.raises(ValueError):
            Scene2D((10.0, 10.0), (SceneObject((1.0, 1.0, 2.0, 2.0), 0),), ())

    def test_culling_depth_range(self):
        for bad in (0, 13):
            with pytest.raises(ValueError):
                CullingConfig(bad)

    def test_viewpoint_must_lie_in_world(self):
        with pytest.raises(OutOfDomainError):
            num_visible(default_scene(), P(-1.0, 10.0))
        with pytest.raises(OutOfDomainError):
            cull_render(default_scene(), CullingConfig(2), P(10.0, 500.0))


class TestGroundTruth:
    def test_single_object_straight_east(self):
        scene = Scene2D((100.0, 100.0), (SceneObject((70.0, 45.0, 80.0, 55.0), 10),), ())
        p = P(20.0, 50.0)
        assert num_visible(scene, p) == 1
        sides = visible_by_side(scene, p)
        assert sides[0] == 1 and sides[1:] == (0, 0, 0)

    def test_sealed_viewpoint_sees_nothing(self):
        walls = ((20.0, 20.0, 80.0, 22.0), (20.0, 78.0, 80.0, 80.0),
                 (20.0, 22.0, 22.0, 78.0), (78.0, 22.0, 80.0, 78.0))
        scene = Scene2D((100.0, 100.0),
                        (SceneObject((5.0, 5.0, 10.0, 10.0), 100),
                         SceneObject((90.0, 90.0, 95.0, 95.0), 100)), walls)
        p = P(50.0, 50.0)
        assert num_visible(scene, p) == 0
        assert visible_by_side(scene, p) == (0, 0, 0, 0)

    def test_ring_of_objects_counts_each_side(self):
        scene = Scene2D((100.0, 100.0), (
            SceneObject((80.0, 40.0, 90.0, 60.0), 10),   # east
            SceneObject((40.0, 80.0, 60.0, 90.0), 10),   # north
            SceneObject((10.0, 40.0, 20.0, 60.0), 10),   # west
            SceneObject((40.0, 10.0, 60.0, 20.0), 10),   # south
        ), ())
        p = P(50.0, 50.0)
        assert num_visible(scene, p) == 4
        assert visible_by_side(scene, p) == (1, 1, 1, 1)

    def test_side_counts_bound_the_total(self):
        scene = default_scene()
        for xy in [(30.0, 30.0), (128.0, 128.0), (200.0, 40.0), (60.0, 220.0)]:
            p = P(*xy)
            sides = visible_by_side(scene, p)
            total = num_visible(scene, p)
            assert max(sides) <= total <= sum(sides)

    def test_matches_independent_ray_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            objects = []
            for _ in range(int(rng.integers(1, 7))):
                x0, y0 = rng.uniform(2.0, 50.0, size=2)
                w, h = rng.uniform(1.0, 9.0, size=2)
                objects.append(SceneObject((x0, y0, x0 + w, y0 + h), 10))
            blockers = []
            for _ in range(int(rng.integers(0, 3))):
                x0, y0 = rng.uniform(2.0, 50.0, size=2)
                w, h = rng.uniform(1.0, 9.0, size=2)
                blockers.append((x0, y0, x0 + w, y0 + h))
            scene = Scene2D((64.0, 64.0), tuple(objects), tuple(blockers))
            for _ in range(3):
                px, py = rng.uniform(1.0, 63.0, size=2)
                assert num_visible(scene, P(px, py)) == ray_visible_oracle(scene, px, py)


class TestCulling:
    def test_depth_one_tree_costs_one_test_and_renders_everything(self):
        scene = Scene2D((100.0, 100.0), (
            SceneObject((10.0, 10.0, 20.0, 20.0), 100),
            SceneObject((70.0, 70.0, 80.0, 80.0), 250),
        ), ())
        stats = cull_render(scene, CullingConfig(1), P(50.0, 50.0))
        assert stats.occlusion_tests == 1
        assert stats.classified_visible == 2
        assert stats.polygons_rendered == 350

    def test_full_width_blocker_culls_everything_behind(self):
        scene = Scene2D((100.0, 100.0), (
            SceneObject((10.0, 60.0, 20.0, 70.0), 100),
            SceneObject((70.0, 80.0, 90.0, 95.0), 250),
        ), ((0.0, 48.0, 100.0, 52.0),))
        p = P(50.0, 10.0)
        assert num_visible(scene, p) == 0
        stats = cull_render(scene, CullingConfig(3), p)
        assert stats.polygons_rendered == 0
        assert stats.classified_visible == 0
        # a depth-1 tree cannot separate the far side and renders it all
        coarse = cull_render(scene, CullingConfig(1), p)
        assert coarse.polygons_rendered == 350

    def test_viewpoint_inside_object_does_not_shadow_the_world(self):
        scene = Scene2D((100.0, 100.0), (
            SceneObject((40.0, 40.0, 60.0, 60.0), 100),
            SceneObject((80.0, 45.0, 90.0, 55.0), 250),
        ), ())
        p = P(50.0, 50.0)
        assert num_visible(scene, p) == 2
        stats = cull_render(scene, CullingConfig(4), p)
        assert stats.classified_visible == 2
        assert stats.polygons_rendered == 350

    def test_depth_sweep_trades_tests_for_polygons(self):
        scene = default_scene()
        for xy in [(30.0, 30.0), (150.0, 60.0), (128.0, 128.0), (220.0, 220.0),
                   (60.0, 200.0), (8.0, 132.0)]:
            prev = None
            for d in range(1, 9):
                stats = cull_render(scene, CullingConfig(d), P(*xy))
                if prev is not None:
                    assert stats.occlusion_tests >= prev.occlusion_tests
                    assert stats.polygons_rendered <= prev.polygons_rendered
                prev = stats

    def test_directional_traversals_bound_the_scalar_one(self):
        scene = default_scene()
        for xy in [(30.0, 30.0), (128.0, 128.0), (200.0, 40.0), (60.0, 220.0)]:
            for d in (2, 3, 4):
                per_side = [cull_render(scene, CullingConfig(d), P(*xy), side=k)
                            for k in range(4)]
                full = cull_render(scene, CullingConfig(d), P(*xy))
                rendered = [s.polygons_rendered for s in per_side]
                assert max(rendered) <= full.polygons_rendered <= sum(rendered)


class TestCosts:
    def test_simulated_cost_identity(self):
        scene = default_scene()
        cfg = CullingConfig(3)
        p = P(40.0, 40.0)
        stats = cull_render(scene, cfg, p)
        expected = 4e-6 * stats.polygons_rendered + 0.052 * stats.occlusion_tests
        assert simulated_cost(scene, cfg, p) == expected

    def test_parallel_model_takes_slower_stream(self):
        scene = default_scene()
        cfg = CullingConfig(3)
        p = P(40.0, 40.0)
        stats = cull_render(scene, cfg, p)
        expected = max(4e-6 * stats.polygons_rendered, 0.052 * stats.occlusion_tests)
        parallel = CostModel(default_cost_model().unit_costs, "parallel")
        assert simulated_cost(scene, cfg, p, parallel) == expected

    def test_custom_model(self):
        scene = Scene2D((100.0, 100.0), (SceneObject((60.0, 45.0, 70.0, 55.0), 7),), ())
        model = CostModel((UnitCost("polygons", 2.0), UnitCost("tests", 100.0)))
        assert simulated_cost(scene, CullingConfig(1), P(20.0, 50.0), model) == 114.0

    def test_brute_force_cost_of_default_scene(self):
        scene = default_scene()
        assert scene.total_polys == 194677
        assert brute_force_cost(scene) == pytest.approx(0.778708)

    def test_culling_beats_brute_force_in_the_pocket(self):
        scene = default_scene()
        p = P(50.0, 50.0)  # sealed lower-left quarter
        assert simulated_cost(scene, CullingConfig(2), p) < brute_force_cost(scene)


class TestDirectionalProfiles:
    def test_sides_quantity_equals_ground_truth_split(self):
        scene = default_scene()
        p = P(70.0, 180.0)
        assert scene_profile(scene, "sides").query(p) == \
            tuple(float(v) for v in visible_by_side(scene, p))

    def test_cost_components_come_from_single_side_runs(self):
        scene = default_scene()
        cfg = CullingConfig(3)
        p = P(70.0, 180.0)
        got = scene_profile(scene, "cullcost_sides", cfg).query(p)
        assert got == tuple(simulated_cost(scene, cfg, p, side=k) for k in range(4))

    def test_unknown_quantity(self):
        with pytest.raises(ValueError):
            scene_profile(default_scene(), "sparkle")

    def test_profile_arities(self):
        scene = default_scene()
        assert scene_profile(scene, "numvisible").arity == 1
        assert scene_profile(scene, "cullcost").arity == 1
        assert scene_profile(scene, "brutecost").arity == 1
        assert scene_profile(scene, "sides").arity == 4
        assert scene_profile(scene, "cullcost_sides").arity == 4

    def test_brutecost_profile_is_constant(self):
        scene = default_scene()
        pf = scene_profile(scene, "brutecost")
        dom = GridDomain((4, 4), cell_size=(64.0, 64.0))
        vals = {pf.query(dom.point((i, j))) for i in range(4) for j in range(4)}
        assert vals == {(brute_force_cost(scene),)}


class TestSymmetricScene:
    def test_rotation_carries_sides_one_sector_over(self):
        scene = symmetric_scene()
        for xy in [(40.0, 60.0), (200.0, 90.0), (128.0, 20.0), (70.0, 190.0)]:
            x, y = xy
            s = visible_by_side(scene, P(x, y))
            rotated = visible_by_side(scene, P(256.0 - y, x))
            assert rotated == (s[3], s[0], s[1], s[2])
            assert num_visible(scene, P(x, y)) == num_visible(scene, P(256.0 - y, x))

    def test_center_is_isotropic(self):
        scene = symmetric_scene()
        center = P(128.0, 128.0)
        assert visible_by_side(scene, center) == (4, 4, 4, 4)
        costs = scene_profile(scene, "cullcost_sides", CullingConfig(4)).query(center)
        assert len(set(costs)) == 1


class TestSceneFiles:
    def test_named_scenes(self):
        assert named_scene("default") == default_scene()
        assert named_scene("symmetric") == symmetric_scene()
        assert named_scene("variant7") == scene_variant(7)
        with pytest.raises(ValueError):
            named_scene("atlantis")


class TestConservativeness:
    """Culling may over-render but never under-counts the ray-visible objects."""

    def test_default_scene_exhaustive(self):
        scene = default_scene()
        dom = GridDomain((32, 32), cell_size=(8.0, 8.0))
        for i in range(32):
            for j in range(32):
                p = dom.point((i, j))
                truth = num_visible(scene, p)
                for d in range(1, 9):
                    stats = cull_render(scene, CullingConfig(d), p)
                    assert stats.classified_visible >= truth, (i, j, d)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_variant_scenes(self, seed):
        scene = scene_variant(seed)
        dom = GridDomain((16, 16), cell_size=(16.0, 16.0))
        for i in range(16):
            for j in range(16):
                p = dom.point((i, j))
                truth = num_visible(scene, p)
                for d in (3, 4):
                    stats = cull_render(scene, CullingConfig(d), p)
                    assert stats.classified_visible >= truth, (i, j, d)


def _observers(scene_name):
    """The observer set a golden digest covers, as GridPoints in world coordinates."""
    if scene_name == "default":
        dom = GridDomain((32, 32), cell_size=(8.0, 8.0))
        return [dom.point((i, j)) for i in range(32) for j in range(32)]
    dom = GridDomain((16, 16), cell_size=(16.0, 16.0))
    grid = [dom.point((i, j)) for i in range(16) for j in range(16)]
    # Corners, edge midpoints and the world centre: zero-distance ties and
    # rays that graze the world's rim.
    rim = [P(x, y) for x in (0.0, 128.0, 256.0) for y in (0.0, 128.0, 256.0)]
    return grid + rim


_GOLDEN_SCENES = {
    "default": default_scene,
    "symmetric": symmetric_scene,
    "variant77": lambda: scene_variant(77, rays_per_side=9),
}


def _digest(rows):
    return hashlib.sha256("\n".join(map(repr, rows)).encode()).hexdigest()


def cull_digest(scene_name):
    scene = _GOLDEN_SCENES[scene_name]()
    rows = []
    for p in _observers(scene_name):
        for d in range(1, 7):
            for side in (None, 0, 1, 2, 3):
                s = cull_render(scene, CullingConfig(d), p, side)
                rows.append((p.world, d, side, s.classified_visible, s.occlusion_tests,
                             s.polygons_rendered))
    return _digest(rows)


def visibility_digest(scene_name):
    scene = _GOLDEN_SCENES[scene_name]()
    return _digest([(p.world, num_visible(scene, p), visible_by_side(scene, p))
                    for p in _observers(scene_name)])


class TestGoldenResults:
    """SHA-256 pins of every culling and visibility result over fixed observer sets.

    The digests were taken from the one-node-at-a-time renderer that predates
    the flat, vectorized node tests; any change to a count, to the front-to-back
    tie order or to what the fan test treats as an occluder changes them.
    """

    CULL = {
        "default": "bb9e01ced9ce958b3ba93ea57354c1434202338f6ac979920fe4bfc3c5174199",
        "symmetric": "3fb8ccf571f35cd707f087f10dabfd4c10e4b2794fa0286c5fea5c636eadea51",
        "variant77": "80abe14f2c7a2cfd838d1a782646946e9c9bd040109e632e01b046eaead49188",
    }
    VISIBILITY = {
        "default": "30086b7ead9922a24f8219d70fa1e58d46cb434f894c37aec3a90e47cb38746a",
        "symmetric": "803a126055a52cb5f619f20cc97d27c70e30e45d5c89a2c45d22696b28647cb2",
        "variant77": "3c4c3b93a5772db5bd5fe8177bd8b6973f87f9b3845aebbebdbd859f9c19f14d",
    }

    @pytest.mark.parametrize("scene_name", sorted(_GOLDEN_SCENES))
    def test_cull_render(self, scene_name):
        assert cull_digest(scene_name) == self.CULL[scene_name]

    @pytest.mark.parametrize("scene_name", sorted(_GOLDEN_SCENES))
    def test_visibility(self, scene_name):
        assert visibility_digest(scene_name) == self.VISIBILITY[scene_name]


# Per scene layout, observers that cover every (rays, depth, side) case of the chunk
# scenes in which some point of a 12-unit grid sees a failed fan check drop a
# subtree that holds later order-dependent checks.
_DROPPING = {
    "default": [(232.0, 232.0), (244.0, 244.0)],
    "symmetric": [(232.0, 208.0), (4.0, 28.0)],
    "variant77": [(196.0, 4.0), (136.0, 232.0), (232.0, 232.0), (220.0, 220.0)],
}


def _observers_of(scene, depth, name):
    """World points anywhere, on the world's rim, and on or inside the scene's rects:
    objects, blockers and the depth's quadtree boxes, at their corners, edges, centers
    and interiors; and the ``_DROPPING`` observers of the scene layout ``name``."""
    w, h = scene.world
    rects = ([o.box for o in scene.objects] + list(scene.blockers)
             + _quadtree(scene, depth)[0].tolist())

    def along(lo, hi):
        return st.sampled_from([lo, hi, (lo + hi) / 2]) | st.floats(lo, hi)

    on_rect = st.sampled_from(rects).flatmap(
        lambda r: st.tuples(along(r[0], r[2]), along(r[1], r[3])))
    rim = (st.tuples(st.sampled_from([0.0, w]), st.floats(0.0, h))
           | st.tuples(st.floats(0.0, w), st.sampled_from([0.0, h])))
    return (st.tuples(st.floats(0.0, w), st.floats(0.0, h)) | rim | on_rect
            | st.sampled_from(_DROPPING[name]))


_CHUNK_SCENES = {(name, rays): make(rays) for rays in (8, 9, 16) for name, make in (
    ("default", default_scene), ("symmetric", symmetric_scene),
    ("variant77", lambda r: scene_variant(77, r)))}


class TestChunks:
    """Ray tests paired by angle, over chunks of points, count what dense slab tests
    of every ray against every rect count, whatever the chunking and order."""

    @settings(max_examples=250, deadline=None, derandomize=True, database=None)
    @given(st.data(), st.sampled_from(sorted(_CHUNK_SCENES)), st.integers(1, 7),
           st.sampled_from([None, 0, 1, 2, 3]), st.integers(1, 10))
    def test_chunks_equal_the_dense_reference(self, data, key, depth, side, chunk):
        # Chunks of 1 to 10 points straddle _CHUNK, the chunk size of a profile's batch.
        scene = _CHUNK_SCENES[key]
        points = data.draw(st.lists(_observers_of(scene, depth, key[0]), min_size=1,
                                    max_size=10))
        points = data.draw(st.permutations(points))
        # A cull of a chunk after one of another side reuses its shared-ray tests
        # and the fans that the first cull built.
        sides = (side, data.draw(st.sampled_from([s for s in (None, 0, 1, 2, 3) if s != side])))
        culls, seen = {s: [] for s in sides}, []
        for a in range(0, len(points), chunk):
            for s in sides:
                culls[s] += _cull_chunk(scene, depth, s, points[a:a + chunk])
            seen += _visibility_chunk(scene, points[a:a + chunk])
        for s in sides:
            assert culls[s] == [dense_cull(scene, depth, pw, s) for pw in points]
        assert seen == [dense_visibility(scene, pw) for pw in points]

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.data(), st.sampled_from(sorted(_CHUNK_SCENES)), st.integers(1, 7))
    def test_the_walk_order_is_the_heap_order(self, data, key, depth):
        """No node lies nearer a point than its parent and each follows its parent in
        preorder, so a heap of (distance, preorder) keys pops every node in the sorted
        order of those keys, which is the order the culls walk.  The distances are the
        exact math.hypot floats."""
        scene = _CHUNK_SCENES[key]
        points = tuple(data.draw(st.lists(_observers_of(scene, depth, key[0]), min_size=1,
                                          max_size=8)))
        boxes, parent, *_ = _quadtree(scene, depth)
        dist, walk = _shared_rays(scene, depth, points)[7:9]
        assert dist.dtype == np.float64 and dist.shape == (len(points), len(parent))
        child = np.arange(1, len(parent))
        assert (parent[child] < child).all()
        assert (dist[:, child] >= dist[:, parent[child]]).all()
        children = [[] for _ in parent]
        for k in child.tolist():
            children[parent[k]].append(k)
        for (px, py), row, order in zip(points, dist.tolist(), walk.tolist()):
            assert row == [math.hypot(max(x0 - px, 0.0, px - x1), max(y0 - py, 0.0, py - y1))
                           for x0, y0, x1, y1 in boxes.tolist()]
            heap, popped = [(row[0], 0)], []
            while heap:
                _, k = heapq.heappop(heap)
                popped.append(k)
                for c in children[k]:
                    heapq.heappush(heap, (row[c], c))
            assert popped == order == sorted(range(len(row)), key=lambda k: (row[k], k))

    def test_the_four_sides_of_a_batch_share_each_chunks_rays(self, monkeypatch):
        scene, config = scene_variant(31), CullingConfig(4)
        world = GridDomain((32, 32), cell_size=(8.0, 8.0)).world_from_linear(
            list(range(0, 1024, 16)))
        monkeypatch.setattr(scene_module, "_CULLS", OrderedDict())
        _shared_rays.cache_clear()
        rows = scene_profile(scene, "cullcost_sides", config).batch(world)
        chunks = len(world) // scene_module._CHUNK
        assert _shared_rays.cache_info()[:2] == (3 * chunks, chunks)  # hits, misses
        monkeypatch.setattr(scene_module, "_CULLS", OrderedDict())
        assert rows.tolist() == [[simulated_cost(scene, config, P(*pw), side=k)
                                  for k in range(4)] for pw in world.tolist()]

    def test_single_point_calls_share_the_memo_of_a_batch(self):
        scene = scene_variant(5, rays_per_side=13)
        points = [(float(x), float(y)) for x in (0.0, 37.5, 128.0) for y in (3.25, 200.0)]
        batch = _cull(scene, 4, 2, points)
        assert batch == [dense_cull(scene, 4, pw, 2) for pw in points]
        for pw, stats in zip(points, batch):
            assert cull_render(scene, CullingConfig(4), P(*pw), 2) is stats


class TestSharedMemo:
    """Profiles of equal scenes share one memo whatever instance they come from, and a
    batch that hits it compares its scene with the memo's once, not once per point."""

    @staticmethod
    def _count(monkeypatch, chunk_name):
        counts = {"eq": 0, "chunks": 0}
        eq, chunk = SceneObject.__eq__, getattr(scene_module, chunk_name)

        def counted_eq(a, b):
            counts["eq"] += 1
            return eq(a, b)

        def counted_chunk(*args):
            counts["chunks"] += 1
            return chunk(*args)

        monkeypatch.setattr(SceneObject, "__eq__", counted_eq)
        monkeypatch.setattr(scene_module, chunk_name, counted_chunk)
        return counts

    def test_sides_reads_the_visibility_that_numvisible_stored(self, monkeypatch):
        dom = GridDomain((24, 24))
        first = resolve_fixture("scene:default:numvisible", dom)
        second = resolve_fixture("scene:default:sides", dom)
        world = dom.world_from_linear(list(range(0, dom.cell_count, 3)))
        first.batch(world)
        counts = self._count(monkeypatch, "_visibility_chunk")
        per_batch = []
        for rows in (world[:16], world):
            before = counts["eq"]
            got = second.batch(rows)
            per_batch.append(counts["eq"] - before)
        assert counts["chunks"] == 0
        # At most one comparison of two equal scenes, whatever the number of points.
        assert per_batch[0] == per_batch[1] <= len(default_scene().objects)
        monkeypatch.undo()
        scale = default_scene().world[0] / 24
        fresh = scene_module._visibility_chunk(
            default_scene(), [(x * scale, y * scale) for x, y in world.tolist()])
        assert got.tolist() == [list(map(float, by_side)) for _, by_side in fresh]

    def test_cull_render_reads_the_culls_of_an_equal_scene(self, monkeypatch):
        one, other = default_scene(), default_scene()
        assert one == other and one is not other
        points = [(float(x), float(y)) for x in range(5, 256, 25) for y in (7.0, 131.0, 250.0)]
        world = np.array(points)
        scene_profile(one, "cullcost", CullingConfig(3)).batch(world)
        counts = self._count(monkeypatch, "_cull_chunk")
        polygons = scene_profile(other, "polygons", CullingConfig(3)).batch(world)
        assert counts["chunks"] == 0
        assert counts["eq"] <= len(one.objects)
        before = counts["eq"]
        stats = [cull_render(other, CullingConfig(3), P(*pw)) for pw in points]
        assert counts["chunks"] == 0
        assert counts["eq"] - before <= len(one.objects) * len(points)
        monkeypatch.undo()
        fresh = _cull_chunk(default_scene(), 3, None, points)
        assert stats == fresh
        assert polygons[:, 0].tolist() == [float(s.polygons_rendered) for s in fresh]

    def test_the_registry_is_bounded(self):
        assert _canonical.cache_info().maxsize is not None

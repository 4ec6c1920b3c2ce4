"""Grid domain, cuboid splitting, and seeded point sampling."""

import itertools
import math

import numpy as np
import pytest
from scipy import stats

from meshprof.domain import GridCuboid, GridDomain, sample_cell_indices
from meshprof.errors import OutOfDomainError, UnsplittableCuboidError


def cells_of(box: GridCuboid) -> set:
    return set(itertools.product(*(range(l, h) for l, h in zip(box.lo, box.hi))))


class TestGridDomain:
    def test_cell_centers(self):
        dom = GridDomain((4, 4), origin=(10.0, -2.0), cell_size=(2.0, 0.5))
        assert dom.world((0, 0)) == (11.0, -1.75)
        assert dom.world((3, 1)) == (17.0, -1.25)

    def test_defaults_are_unit_cells_at_zero(self):
        dom = GridDomain((5, 3))
        assert dom.origin == (0.0, 0.0)
        assert dom.cell_size == (1.0, 1.0)
        assert dom.cell_count == 15

    def test_validation(self):
        with pytest.raises(ValueError):
            GridDomain(())
        with pytest.raises(ValueError):
            GridDomain((4, 0))
        with pytest.raises(ValueError):
            GridDomain((4,), cell_size=(0.0,))
        with pytest.raises(ValueError):
            GridDomain((4, 4), origin=(0.0,))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["origin", "cell_size"])
    def test_non_finite_origin_or_cell_size_is_refused(self, field, bad):
        # A NaN cell size passed the check for sizes <= 0, and infinities passed every check.
        with pytest.raises(ValueError, match="finite"):
            GridDomain((4, 4), **{field: (1.0, bad)})
        with pytest.raises(ValueError, match="finite"):
            GridDomain((4,), **{field: (bad,)})

    def test_point_bounds(self):
        dom = GridDomain((8, 8))
        p = dom.point((7, 0))
        assert p.index == (7, 0) and p.world == (7.5, 0.5)
        with pytest.raises(OutOfDomainError):
            dom.point((8, 0))
        with pytest.raises(OutOfDomainError):
            dom.point((-1, 3))

    def test_linear_index_roundtrip(self):
        dom = GridDomain((3, 5, 2))
        seen = set()
        for index in np.ndindex(*dom.extents):
            lin = int(np.ravel_multi_index(index, dom.extents))
            seen.add(lin)
            assert dom.points_from_linear([lin])[0].index == index
        assert seen == set(range(30))

    def test_points_from_linear_rejects_indices_outside_the_domain(self):
        dom = GridDomain((4, 4))
        for lin in (-1, 16, 17, -16):
            with pytest.raises(ValueError):
                dom.points_from_linear([lin])
            with pytest.raises(ValueError):
                dom.points_from_linear([0, lin, 5])

    def test_points_from_linear_match_point(self):
        dom = GridDomain((3, 5, 2), origin=(0.1, -2.0, 7.0), cell_size=(0.3, 1.5, 0.7))
        lins = [29, 0, 17, 4, 11]
        batch = dom.points_from_linear(lins)
        expected = [dom.point(np.unravel_index(lin, dom.extents)) for lin in lins]
        assert [(p.index, p.world) for p in batch] == [(p.index, p.world) for p in expected]
        assert all(type(i) is int for p in batch for i in p.index)
        assert all(type(w) is float for p in batch for w in p.world)
        with pytest.raises(ValueError):
            dom.points_from_linear([30])

    def test_world_from_linear_matches_world(self):
        dom = GridDomain((3, 5, 2), origin=(0.1, -2.0, 7.0), cell_size=(0.3, 1.5, 0.7))
        lins = [29, 0, 17, 4, 11]
        world = dom.world_from_linear(lins)
        assert world.shape == (5, 3)
        assert [tuple(row) for row in world.tolist()] == [
            dom.world(p.index) for p in dom.points_from_linear(lins)]
        with pytest.raises(ValueError):
            dom.world_from_linear([30])

    # The domains of the build-matrix digest in test_builder.py.
    @pytest.mark.parametrize("dom", [
        GridDomain((12, 10), (0.1, -0.2), (0.3, 0.7)),
        GridDomain((16, 12), (0.1, -0.2), (0.3, 0.7)),
        GridDomain((5, 6, 7), (0.1,) * 3, (0.3,) * 3), GridDomain((64,)), GridDomain((12, 12)),
    ], ids=["12x10", "16x12", "5x6x7", "64", "12x12"])
    def test_index_from_world_inverts_world_from_linear(self, dom):
        lins = np.arange(dom.cell_count)
        index = dom.index_from_world(dom.world_from_linear(lins))
        assert index.dtype == np.int64
        assert index.tolist() == np.stack(np.unravel_index(lins, dom.extents), axis=-1).tolist()

    def test_index_from_world_is_minus_one_off_every_center(self):
        dom = GridDomain((4, 3), origin=(0.1, -0.2), cell_size=(0.3, 0.7))
        x, y = dom.world((1, 2))
        off = [x + 0.1, math.nextafter(x, math.inf), (x + dom.world((2, 2))[0]) / 2,
               dom.world((-1, 2))[0], dom.world((4, 2))[0], math.nan, math.inf, -math.inf]
        index = dom.index_from_world(np.array([[v, y] for v in off]))
        assert index.tolist() == [[-1, 2]] * len(off)


class TestSplit:
    def test_power_of_two_quadrants(self):
        children = GridCuboid((0, 0), (4, 4)).split()
        assert [c.lo + c.hi for c in children] == [
            (0, 0, 2, 2), (0, 2, 2, 4), (2, 0, 4, 2), (2, 2, 4, 4)]

    def test_degenerate_axis_not_cut(self):
        children = GridCuboid((0, 0), (3, 1)).split()
        assert [(c.lo, c.hi) for c in children] == [((0, 0), (1, 1)), ((1, 0), (3, 1))]

    def test_odd_1d(self):
        children = GridCuboid((0,), (5,)).split()
        assert [(c.lo, c.hi) for c in children] == [((0,), (2,)), ((2,), (5,))]

    def test_children_equal_checked_cuboids(self):
        children = GridCuboid((1, 0, 4), (6, 1, 8)).split()
        rebuilt = [GridCuboid(c.lo, c.hi) for c in children]
        assert children == rebuilt
        assert {hash(c) for c in children} == {hash(c) for c in rebuilt}
        assert all(type(i) is int for c in children for i in c.lo + c.hi)

    def test_single_cell_is_unsplittable(self):
        with pytest.raises(UnsplittableCuboidError):
            GridCuboid((2, 3), (3, 4)).split()

    def test_partition_exact_on_random_cuboids(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            d = int(rng.integers(1, 4))
            lo = rng.integers(0, 5, size=d)
            ext = rng.integers(1, 12, size=d)
            box = GridCuboid(tuple(lo), tuple(lo + ext))
            if box.cell_count == 1:
                continue
            children = box.split()
            union = set()
            for child in children:
                cs = cells_of(child)
                assert not (union & cs), "children overlap"
                union |= cs
            assert union == cells_of(box)
            assert len(children) == 2 ** sum(e >= 2 for e in ext)

    def test_grid_diameter(self):
        assert GridCuboid((0, 0), (256, 256)).grid_diameter == pytest.approx(256 * np.sqrt(2))
        assert GridCuboid((3,), (8,)).grid_diameter == 5.0


class TestSampling:
    def test_exhaustion_returns_every_cell_once(self):
        box = GridCuboid((4, 4), (6, 6))
        assert sample_cell_indices(box, 10, np.random.default_rng(0)).tolist() == [0, 1, 2, 3]

    def test_deterministic_for_fixed_seed(self):
        box = GridDomain((16, 16)).root_cuboid()
        a = sample_cell_indices(box, 2, np.random.default_rng(42))
        b = sample_cell_indices(box, 2, np.random.default_rng(42))
        assert a.tolist() == b.tolist() and len(a) == 2

    def test_without_replacement(self):
        box = GridDomain((9, 7)).root_cuboid()
        for seed in range(20):
            offsets = sample_cell_indices(box, 30, np.random.default_rng(seed)).tolist()
            assert len(offsets) == len(set(offsets)) == 30

    def test_points_stay_inside_cuboid(self):
        box = GridCuboid((3, 11), (9, 17))
        offsets = sample_cell_indices(box, 25, np.random.default_rng(7))
        assert offsets.min() >= 0 and offsets.max() < box.cell_count == 36

    def test_empirical_uniformity(self):
        # 1000 fixed seeds, 20 draws each from 100 cells; every cell's hit
        # count should sit in the binomial bulk and the aggregate should not
        # reject uniformity.
        box = GridCuboid((0, 0), (10, 10))
        counts = np.zeros(100)
        for seed in range(1000):
            np.add.at(counts, sample_cell_indices(box, 20, np.random.default_rng(seed)), 1)
        sigma = np.sqrt(1000 * 0.2 * 0.8)
        assert np.abs(counts - 200.0).max() <= 3.05 * sigma
        _, p = stats.chisquare(counts)
        assert p > 0.01

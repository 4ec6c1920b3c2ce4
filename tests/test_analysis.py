"""Averaging, combination, cost models, selection, and view blending."""

import functools
import itertools
import math
import operator
from fractions import Fraction

import numpy as np
import pytest

from meshprof.analysis import (
    CostModel,
    ErrorStats,
    UnitCost,
    WeightTable,
    combine,
    cost_estimate,
    error_vs_oracle,
    evaluate_view,
    parameter_profile,
    parameter_sweep,
    select,
    selection_map,
    view_weights,
    weighted_average,
)
from meshprof.builder import BuildConfig, FixedSampling, ProfileFunction, build
from meshprof.domain import GridCuboid, GridDomain
from meshprof.errors import ProfileQueryError
from meshprof.fixtures import resolve_fixture
from meshprof.mesh import Subdivision, constant, evaluate, leaf_arrays

from helpers import Record, dense_eval, leveled, random_subdivision


def quadrant_tree(values):
    """4x4 domain split once; quadrant order is lexicographic by lower corner."""
    dom = GridDomain((4, 4))
    return leveled(dom, 1, [Record(b, (float(v),), 1, (float(v),), (float(v),))
                            for b, v in zip(dom.root_cuboid().split(), values)])


class TestWeightedAverage:
    def test_uniform_equals_dense_mean(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            sub = random_subdivision(rng, GridDomain((16, 12)))
            avg = weighted_average(sub)
            assert avg[0] == pytest.approx(float(dense_eval(sub).mean()), rel=1e-12)

    def test_uniform_vector_values(self):
        rng = np.random.default_rng(3)
        sub = random_subdivision(rng, GridDomain((8, 8)), arity=3)
        avg = weighted_average(sub)
        dense = dense_eval(sub)
        for c in range(3):
            assert avg[c] == pytest.approx(float(dense[..., c].mean()), rel=1e-12)

    def test_table_masks_quadrant(self):
        sub = quadrant_tree([1.0, 2.0, 3.0, 4.0])
        table = WeightTable(GridDomain((2, 2), cell_size=(2.0, 2.0)), (1.0, 0.0, 0.0, 0.0))
        assert weighted_average(sub, table) == (1.0,)

    def test_table_mixes_quadrants(self):
        sub = quadrant_tree([1.0, 2.0, 3.0, 4.0])
        table = WeightTable(GridDomain((2, 2), cell_size=(2.0, 2.0)), (1.0, 0.0, 0.0, 3.0))
        # masses 4*1 and 4*3 on values 1 and 4: (4 + 48) / 16
        assert weighted_average(sub, table) == (3.25,)

    def test_table_matches_dense_reweighting(self):
        rng = np.random.default_rng(7)
        sub = random_subdivision(rng, GridDomain((16, 16)))
        w = rng.uniform(0.0, 1.0, size=16)
        w[rng.integers(0, 16)] = 0.0
        table = WeightTable(GridDomain((4, 4), cell_size=(4.0, 4.0)), tuple(w))
        dense = dense_eval(sub)
        per_cell = np.repeat(np.repeat(w.reshape(4, 4), 4, axis=0), 4, axis=1)
        expected = float((dense * per_cell).sum() / per_cell.sum())
        assert weighted_average(sub, table)[0] == pytest.approx(expected, rel=1e-12)

    def test_zero_mass_rejected(self):
        sub = quadrant_tree([1.0, 2.0, 3.0, 4.0])
        # one table cell spans the whole 4x4 domain and carries weight zero
        table = WeightTable(GridDomain((2, 2), cell_size=(4.0, 4.0)), (0.0, 1.0, 1.0, 1.0))
        with pytest.raises(ValueError, match="zero total mass"):
            weighted_average(sub, table)

    def test_table_must_cover_domain(self):
        sub = quadrant_tree([1.0, 2.0, 3.0, 4.0])
        table = WeightTable(GridDomain((2, 2)), (1.0, 1.0, 1.0, 1.0))
        with pytest.raises(ValueError, match="cover"):
            weighted_average(sub, table)

    def test_table_dimensionality_must_match(self):
        sub = quadrant_tree([1.0, 2.0, 3.0, 4.0])
        table = WeightTable(GridDomain((4,), cell_size=(8.0,)), (1.0, 1.0, 1.0, 1.0))
        with pytest.raises(ValueError, match="dimensionality"):
            weighted_average(sub, table)

    def test_center_on_a_table_boundary_counts_once(self):
        # the center of cell 1, 0.05 + 1.5/3 = 0.55, lies on a table-cell boundary
        dom = GridDomain((5,), (0.05,), (1 / 3,))
        sub = leveled(dom, 1, [Record(b, (v,), 1, (v,), (v,))
                               for b, v in zip(dom.root_cuboid().split(), (1.0, 5.0))])
        table = WeightTable(GridDomain((20,), (0.05,), (0.1,)), (1.0,) * 20)
        assert weighted_average(sub, table) == weighted_average(sub) == (3.4,)

    def test_all_ones_table_equals_uniform_on_non_dyadic_grids(self):
        rng = np.random.default_rng(5)
        sizes = (0.1, 0.3, 1 / 3, 0.7, 1.0)
        shifts = (0.0, 0.05, 1 / 3)
        for extents in ((7,), (16,), (5, 9)):
            for cell, origin, t_cell, t_shift in itertools.product(sizes, shifts, sizes, shifts):
                dom = GridDomain(extents, (origin,) * len(extents), (cell,) * len(extents))
                sub = random_subdivision(rng, dom)
                t_extents = tuple(math.ceil((e * cell + t_shift) / t_cell) + 1 for e in extents)
                table = WeightTable(GridDomain(t_extents, (origin - t_shift,) * len(extents),
                                               (t_cell,) * len(extents)),
                                    (1.0,) * math.prod(t_extents))
                assert weighted_average(sub, table) == weighted_average(sub), (dom, table.domain)

    def test_table_validation(self):
        dom = GridDomain((2, 2))
        with pytest.raises(ValueError):
            WeightTable(dom, (1.0, 1.0))
        with pytest.raises(ValueError):
            WeightTable(dom, (1.0, -0.5, 1.0, 1.0))
        with pytest.raises(ValueError):
            WeightTable(dom, (0.0, 0.0, 0.0, 0.0))
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                WeightTable(dom, (1.0, bad, 1.0, 1.0))

    def test_table_average_matches_exact_rational_reference(self):
        # Non-dyadic cell sizes, origins and weights, so every product rounds.
        rng = np.random.default_rng(19)
        dom = GridDomain((23, 17), (0.1, -0.3), (0.3, 1 / 3))
        sub = random_subdivision(rng, dom, max_depth=5)
        table = WeightTable(GridDomain((5, 4), (0.0, -0.5), (1.7, 1.6)),
                            tuple(rng.uniform(0.1, 1.0, size=20).round(3)))
        cells = [np.floor((o + (np.arange(e) + 0.5) * c - to) / tc).astype(int)
                 for e, o, c, to, tc in zip(dom.extents, dom.origin, dom.cell_size,
                                            table.domain.origin, table.domain.cell_size)]
        w = table.array()
        dense = dense_eval(sub)
        num = den = Fraction(0)
        for i, j in itertools.product(range(dom.extents[0]), range(dom.extents[1])):
            weight = Fraction(w[cells[0][i], cells[1][j]])
            num += weight * Fraction(dense[i, j])
            den += weight
        exact = num / den
        got, = weighted_average(sub, table)
        assert abs(Fraction(got) - exact) <= abs(exact) * Fraction(1, 10**12)

    def test_uniform_average_of_negative_zero_is_positive_zero(self):
        dom = GridDomain((8, 8))
        sub, _ = build(resolve_fixture("const:-0", dom), dom,
                       BuildConfig(threshold=(1.0,), policy=FixedSampling(4)))
        assert leaf_arrays(sub).value.tolist() == [[-0.0]]
        avg = weighted_average(sub)
        assert avg == (0.0,) and math.copysign(1.0, avg[0]) == 1.0


class TestCombine:
    OPS = {
        "subtract": lambda a, b: a - b,
        "add": lambda a, b: a + b,
        "min": np.minimum,
        "max": np.maximum,
        "ratio": lambda a, b: np.where(b == 0.0, 0.0, a / np.where(b == 0.0, 1.0, b)),
    }

    @pytest.mark.parametrize("op", sorted(OPS))
    def test_exact_on_common_refinement(self, op):
        rng = np.random.default_rng(hash(op) % 2**32)
        dom = GridDomain((12, 12))
        a = random_subdivision(rng, dom)
        b = random_subdivision(rng, dom)
        out = combine(a, b, op)
        np.testing.assert_allclose(dense_eval(out),
                                   self.OPS[op](dense_eval(a), dense_eval(b)),
                                   rtol=1e-12)

    def test_ratio_zero_denominator_flags_degenerate(self):
        dom = GridDomain((4, 4))
        out = leaf_arrays(combine(constant(dom, (6.0,)), constant(dom, (0.0,)), "ratio"))
        assert out.value.tolist() == [[0.0]] and out.degenerate.tolist() == [True]

    def test_healthy_ratio_not_degenerate(self):
        dom = GridDomain((4, 4))
        out = leaf_arrays(combine(constant(dom, (6.0,)), constant(dom, (2.0,)), "ratio"))
        assert out.value.tolist() == [[3.0]] and out.degenerate.tolist() == [False]

    def test_rejects_mismatched_domains(self):
        with pytest.raises(ValueError):
            combine(constant(GridDomain((4, 4)), (1.0,)),
                    constant(GridDomain((8, 8)), (1.0,)), "add")

    def test_rejects_mismatched_arity(self):
        dom = GridDomain((4, 4))
        with pytest.raises(ValueError):
            combine(constant(dom, (1.0,)), constant(dom, (1.0, 2.0)), "add")

    def test_rejects_unknown_op(self):
        dom = GridDomain((4, 4))
        with pytest.raises(ValueError, match="unknown op"):
            combine(constant(dom, (1.0,)), constant(dom, (1.0,)), "divide")


class TestCostModels:
    MODEL = CostModel((UnitCost("poly", 1.5), UnitCost("test", 10.0)))

    def test_apply_sequential_and_parallel(self):
        assert self.MODEL.apply([2.0, 3.0]) == 33.0
        par = CostModel(self.MODEL.unit_costs, combinator="parallel")
        assert par.apply([2.0, 3.0]) == 30.0

    def test_validation(self):
        with pytest.raises(ValueError):
            UnitCost("poly", -1.0)
        with pytest.raises(ValueError):
            CostModel(())
        with pytest.raises(ValueError):
            CostModel((UnitCost("a", 1.0), UnitCost("a", 2.0)))
        with pytest.raises(ValueError):
            CostModel((UnitCost("a", 1.0),), combinator="weird")

    def test_estimate_on_constants(self):
        dom = GridDomain((4, 4))
        out = cost_estimate([constant(dom, (2.0,)), constant(dom, (3.0,))], self.MODEL)
        assert evaluate(out, dom.point((1, 1))) == (33.0,)

    def test_estimate_matches_dense_apply(self):
        rng = np.random.default_rng(13)
        dom = GridDomain((8, 8))
        a = random_subdivision(rng, dom)
        b = random_subdivision(rng, dom)
        out = cost_estimate([a, b], self.MODEL)
        np.testing.assert_allclose(dense_eval(out),
                                   1.5 * dense_eval(a) + 10.0 * dense_eval(b),
                                   rtol=1e-12)

    def test_estimate_arity_checks(self):
        dom = GridDomain((4, 4))
        with pytest.raises(ValueError):
            cost_estimate([constant(dom, (1.0,))], self.MODEL)
        with pytest.raises(ValueError):
            cost_estimate([constant(dom, (1.0,)), constant(dom, (1.0, 2.0))], self.MODEL)


class TestSelection:
    def test_scalar_select_prefers_smaller(self):
        dom = GridDomain((4, 4))
        idx, value = select([constant(dom, (5.0,)), constant(dom, (3.0,))],
                            dom.point((0, 0)))
        assert (idx, value) == (1, (3.0,))

    def test_tie_goes_to_lowest_index(self):
        dom = GridDomain((4, 4))
        idx, _ = select([constant(dom, (3.0,)), constant(dom, (3.0,))], dom.point((0, 0)))
        assert idx == 0

    def test_selection_invariant_under_positive_scaling(self):
        rng = np.random.default_rng(17)
        dom = GridDomain((8, 8))
        a = random_subdivision(rng, dom)
        b = random_subdivision(rng, dom)
        scaled = [combine(c, constant(dom, (0.0,)), "add") for c in (a, b)]
        for idx in [(0, 0), (3, 5), (7, 7)]:
            p = dom.point(idx)
            assert select([a, b], p)[0] == select(scaled, p)[0]

    def test_selection_map_matches_pointwise_argmin(self):
        rng = np.random.default_rng(19)
        dom = GridDomain((16, 16))
        cands = [random_subdivision(rng, dom) for _ in range(3)]
        label = selection_map(cands)
        stacked = np.stack([dense_eval(c) for c in cands])
        np.testing.assert_array_equal(dense_eval(label), np.argmin(stacked, axis=0))

    def test_directional_select_uses_view(self):
        dom = GridDomain((4, 4))
        east_heavy = constant(dom, (10.0, 0.0, 0.0, 0.0))
        west_heavy = constant(dom, (0.0, 0.0, 10.0, 0.0))
        p = dom.point((2, 2))
        assert select([east_heavy, west_heavy], p, view=(0.0, 90.0))[0] == 1
        assert select([east_heavy, west_heavy], p, view=(180.0, 90.0))[0] == 0

    def test_view_selection_map_equals_per_cell_select(self):
        rng = np.random.default_rng(23)
        dom = GridDomain((8, 8))
        cands = [random_subdivision(rng, dom, arity=4) for _ in range(2)]
        for view in ((30.0, 90.0), (200.0, 120.0), (0.0, 360.0)):
            label = selection_map(cands, view)
            for index in np.ndindex(*dom.extents):
                p = dom.point(index)
                assert evaluate(label, p) == (float(select(cands, p, view)[0]),)

    def test_view_argument_validation(self):
        dom = GridDomain((4, 4))
        scalar = constant(dom, (1.0,))
        vector = constant(dom, (1.0, 2.0, 3.0, 4.0))
        with pytest.raises(ValueError):
            select([scalar], dom.point((0, 0)), view=(0.0, 90.0))
        with pytest.raises(ValueError):
            select([vector], dom.point((0, 0)))
        with pytest.raises(ValueError):
            select([], dom.point((0, 0)))


class TestParameterSweep:
    def test_picks_minimum_average(self):
        dom = GridDomain((4, 4))
        builds = [(3.0, constant(dom, (10.0,))),
                  (4.0, constant(dom, (8.0,))),
                  (5.0, constant(dom, (9.0,)))]
        best, table = parameter_sweep(builds)
        assert best == 4.0
        assert table == [(3.0, (10.0,)), (4.0, (8.0,)), (5.0, (9.0,))]

    def test_tie_goes_to_smaller_parameter(self):
        dom = GridDomain((4, 4))
        best, _ = parameter_sweep([(5.0, constant(dom, (8.0,))),
                                   (3.0, constant(dom, (8.0,)))])
        assert best == 3.0

    def test_single_entry(self):
        dom = GridDomain((4, 4))
        assert parameter_sweep([(2.0, constant(dom, (1.0,)))])[0] == 2.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            parameter_sweep([])


class TestParameterProfile:
    def test_matches_argmin_of_truth(self):
        dom = GridDomain((5, 4))
        truth = np.array([[(2 * i + j * j) % 5 for j in range(4)] for i in range(5)],
                         dtype=np.float64)
        pf = ProfileFunction(1, lambda p: (truth[p.index],))
        sub, _ = build(pf, dom, BuildConfig(threshold=(0.5,), policy=FixedSampling(32), seed=0))
        np.testing.assert_array_equal(parameter_profile(sub, 1), np.argmin(truth, axis=1))

    def test_flat_profile_picks_first_index(self):
        sub = constant(GridDomain((3, 6)), (2.0,))
        np.testing.assert_array_equal(parameter_profile(sub, 1), np.zeros(3, dtype=int))

    def test_validation(self):
        with pytest.raises(ValueError):
            parameter_profile(constant(GridDomain((3, 3)), (1.0, 2.0)), 1)
        with pytest.raises(ValueError):
            parameter_profile(constant(GridDomain((6,)), (1.0,)), 0)
        with pytest.raises(ValueError):
            parameter_profile(constant(GridDomain((3, 3)), (1.0,)), 5)


class TestViewWeights:
    def test_cone_inside_one_sector(self):
        assert view_weights(0.0, 90.0) == (1.0, 0.0, 0.0, 0.0)
        assert view_weights(90.0, 90.0) == (0.0, 1.0, 0.0, 0.0)

    def test_cone_straddling_two_sectors(self):
        assert view_weights(45.0, 90.0) == (0.5, 0.5, 0.0, 0.0)

    def test_full_circle_is_isotropic(self):
        assert view_weights(0.0, 360.0) == (0.25, 0.25, 0.25, 0.25)

    def test_wide_cone(self):
        assert view_weights(90.0, 180.0) == (0.25, 0.5, 0.25, 0.0)

    def test_wraparound(self):
        assert view_weights(350.0, 40.0) == (1.0, 0.0, 0.0, 0.0)
        w = view_weights(-90.0, 90.0)  # due south
        assert w == (0.0, 0.0, 0.0, 1.0)

    def test_sum_is_one_everywhere(self):
        rng = np.random.default_rng(23)
        for _ in range(500):
            d = float(rng.uniform(-720, 720))
            fov = float(rng.uniform(1.0, 360.0))
            w = view_weights(d, fov)
            assert all(x >= 0.0 for x in w)
            assert abs(sum(w) - 1.0) <= 1e-12

    def test_fov_bounds(self):
        for fov in (0.0, -10.0, 361.0):
            with pytest.raises(ValueError):
                view_weights(0.0, fov)


class TestEvaluateView:
    def test_blends_components(self):
        dom = GridDomain((4, 4))
        sub = constant(dom, (1.0, 2.0, 3.0, 4.0))
        p = dom.point((2, 2))
        assert evaluate_view(sub, p, 0.0, 90.0) == 1.0
        assert evaluate_view(sub, p, 45.0, 90.0) == 1.5
        assert evaluate_view(sub, p, 0.0, 360.0) == 2.5

    def test_requires_four_components(self):
        dom = GridDomain((4, 4))
        with pytest.raises(ValueError):
            evaluate_view(constant(dom, (1.0,)), dom.point((0, 0)), 0.0, 90.0)


# Signed zeros, extremes whose sums and ratios overflow, infinities and a NaN.
SPECIAL = (0.0, -0.0, 1.0, -2.5, 1e308, -1e308, 5e-324, math.inf, -math.inf, math.nan)


def cells(rows) -> Subdivision:
    """A 1-D subdivision split down to single cells, cell ``i`` holding ``rows[i]``."""
    dom = GridDomain((len(rows),))
    return leveled(dom, len(rows[0]), [Record(GridCuboid((i,), (i + 1,)), tuple(row), 0,
                                              tuple(row), tuple(row))
                                       for i, row in enumerate(rows)])


def hexes(values) -> list[str]:
    return [float(v).hex() for v in values]


def left_to_right(terms) -> float:
    """``terms`` added from +0.0 in order, as ``sum`` adds floats on Python 3.11."""
    return functools.reduce(operator.add, terms, 0.0)


class TestPythonFloatBits:
    """The algebra's array ops give the bits of the pointwise Python float ops."""

    PAIRS = list(itertools.product(SPECIAL, repeat=2))

    @pytest.mark.parametrize("op, fn", [
        ("subtract", operator.sub), ("add", operator.add), ("min", min), ("max", max),
        ("ratio", lambda x, y: x / y if y else 0.0)])
    def test_combine(self, op, fn):
        a, b = (cells([(pair[k],) for pair in self.PAIRS]) for k in (0, 1))
        got = leaf_arrays(combine(a, b, op))
        assert hexes(got.value[:, 0]) == hexes(fn(x, y) for x, y in self.PAIRS)
        assert got.degenerate.tolist() == [op == "ratio" and 0.0 in (y,) for _, y in self.PAIRS]

    @pytest.mark.parametrize("combinator", ["sequential", "parallel"])
    def test_cost_estimate(self, combinator):
        model = CostModel((UnitCost("a", 1.0), UnitCost("b", 1.0), UnitCost("c", 0.5)),
                          combinator)
        triples = list(itertools.product(SPECIAL, repeat=3))
        counts = [cells([(t[k],) for t in triples]) for k in range(3)]
        got = leaf_arrays(cost_estimate(counts, model)).value[:, 0]
        add = left_to_right if combinator == "sequential" else max
        assert hexes(got) == hexes(add([u.per_unit * c for u, c in zip(model.unit_costs, t)])
                                   for t in triples)

    @pytest.mark.parametrize("view", [(0.0, 90.0), (45.0, 90.0), (200.0, 120.0), (0.0, 360.0)])
    def test_view_keys_and_labels(self, view):
        rows = list(itertools.product((0.0, -0.0, 2.5, 1e308, -math.inf), repeat=4))
        first, second = cells(rows), cells(rows[::-1])
        w = view_weights(*view)

        def key(row):
            return left_to_right(wi * vi for wi, vi in zip(w, row))

        labels = leaf_arrays(selection_map([first, second], view)).value[:, 0]
        for i, (row, other) in enumerate(zip(rows, rows[::-1])):
            p = first.domain.point((i,))
            assert evaluate_view(first, p, *view).hex() == float(key(row)).hex()
            keys = [key(row), key(other)]
            best = min(range(2), key=keys.__getitem__)
            assert labels[i] == best and select([first, second], p, view)[0] == best


class TestErrorVsOracle:
    def test_exact_tree_has_zero_error(self):
        dom = GridDomain((8, 8))
        pf = ProfileFunction(1, lambda p: (float(p.index[0] % 3),))
        sub, _ = build(pf, dom, BuildConfig(threshold=(0.5,), policy=FixedSampling(64), seed=0))
        stats = error_vs_oracle(sub, pf)
        assert stats == ErrorStats(64, 0.0, 0.0)

    def test_constant_vs_zero_oracle(self):
        dom = GridDomain((4, 4))
        zero = ProfileFunction(1, lambda p: (0.0,))
        stats = error_vs_oracle(constant(dom, (5.0,)), zero)
        assert stats.mean_abs == 5.0 and stats.max_abs == 5.0 and stats.cells == 16
        assert stats.row() == {"cells": 16, "mean_abs_error": 5.0, "max_abs_error": 5.0}

    def test_batch_and_pointwise_oracles_give_identical_stats(self):
        def query(p):
            x, y = p.world
            return (x, y * y, x - y, 0.1 * x * y)

        def batch(world):
            x, y = world[:, 0], world[:, 1]
            return np.stack([x, y * y, x - y, 0.1 * x * y], axis=1)

        def holes(world):  # leaves some rows to point queries
            out = batch(world)
            out[::3, 1] = np.nan
            return out

        rng = np.random.default_rng(29)
        dom = GridDomain((12, 10), (-1.0, 0.5), (0.3, 0.7))
        sub = random_subdivision(rng, dom, arity=4)
        pointwise = error_vs_oracle(sub, ProfileFunction(4, query))
        assert pointwise.mean_abs > 0
        for b in (batch, holes, lambda world: 1 / 0, lambda world: batch(world)[:-1]):
            assert error_vs_oracle(sub, ProfileFunction(4, query, batch=b)) == pointwise
        scalar = random_subdivision(rng, dom)
        ramp = resolve_fixture("ramp", dom)
        assert ramp.batch is not None
        assert error_vs_oracle(scalar, ramp) == error_vs_oracle(
            scalar, ProfileFunction(1, ramp.query))

    def test_cell_guard(self):
        dom = GridDomain((64, 64))
        with pytest.raises(ValueError, match="guard"):
            error_vs_oracle(constant(dom, (1.0,)), ProfileFunction(1, lambda p: (0.0,)),
                            max_cells=100)

    def test_arity_guard(self):
        dom = GridDomain((4, 4))
        with pytest.raises(ValueError):
            error_vs_oracle(constant(dom, (1.0, 2.0)), ProfileFunction(1, lambda p: (0.0,)))

    @pytest.mark.parametrize("batched", [False, True], ids=["query", "batch-then-query"])
    @pytest.mark.parametrize("bad, reason", [
        ((1.0,), "expected 2 components, got 1"),
        ((math.nan, 2.0), "non-finite value (nan, 2.0)"),
        (RuntimeError("oracle down"), "oracle down"),
        (5.0, "'float' object is not iterable"),
    ], ids=["one-component", "nan", "raises", "bare-float"])
    def test_a_bad_answer_fails_naming_the_first_bad_point(self, bad, reason, batched):
        """As a build refuses it: the oracle is asked cell by cell in row-major order,
        after a batch that answers every other cell and leaves the bad ones to ``query``."""
        dom = GridDomain((4, 4))
        bad_cells = [(1, 3), (2, 0), (3, 3)]

        def query(p):
            if p.index not in bad_cells:
                return (1.0, 2.0)
            if isinstance(bad, Exception):
                raise bad
            return bad

        def batch(world):
            out = np.tile([1.0, 2.0], (len(world), 1))
            for cell in bad_cells:
                out[(world == dom.world(cell)).all(axis=1)] = np.nan
            return out

        oracle = ProfileFunction(2, query, batch=batch if batched else None)
        with pytest.raises(ProfileQueryError) as err:
            error_vs_oracle(constant(dom, (0.5, 0.5)), oracle)
        assert err.value.point.index == (1, 3)
        assert str(err.value) == f"query at (1, 3) failed: {reason}"

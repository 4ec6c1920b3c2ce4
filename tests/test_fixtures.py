"""Closed-form ground-truth profiles and the CLI token registry."""

import math

import numpy as np
import pytest

from meshprof.domain import GridDomain, GridPoint
from meshprof.mesh import serialize
from meshprof.fixtures import (
    constant,
    grid_moments,
    hidden_spike,
    max_adjacent_slope,
    named_scene,
    num_visible,
    ramp,
    resolve_fixture,
    sqrt_tent,
    square_gap,
    step,
    zero_mean_ramp,
)


class TestDeclaredSmoothness:
    """Exhaustive finite differences never exceed the declared constants."""

    CASES = [
        (constant(3.0), (64,)),
        (ramp(), (32, 32)),
        (step(100.0, 32.0), (64,)),
        (square_gap(16), (16, 16)),
        (hidden_spike(64, 24), (64,)),
        (sqrt_tent(64), (64,)),
        (zero_mean_ramp(64, 0.1), (64,)),
    ]

    @pytest.mark.parametrize("fix,extents", CASES, ids=lambda c: getattr(c, "name", str(c)))
    def test_constant_is_an_upper_bound(self, fix, extents):
        assert max_adjacent_slope(fix, extents) <= fix.lipschitz + 1e-12

    def test_tent_slope_is_tight(self):
        assert max_adjacent_slope(sqrt_tent(64), (64,)) == 1.0

    def test_step_jump_is_tight(self):
        assert max_adjacent_slope(step(100.0, 32.0), (64,)) == 100.0


class TestSpike:
    def test_zero_outside_support(self):
        fix = hidden_spike(256, 24)
        assert fix.fn(0.5) == 0.0
        assert fix.fn(200.0) == 0.0
        assert fix.fn(255.5) == 0.0

    def test_peak_height_is_half_width(self):
        fix = hidden_spike(256, 24)
        center = 3.0 * 256 / 8.0
        assert fix.fn(center) == 12.0

    def test_moments_match_closed_form(self):
        fix = hidden_spike(256, 24)
        m = grid_moments(fix, 256)
        assert m["abs_integral"] == fix.abs_integral  # midpoint rule exact on tents
        assert m["square_integral"] == pytest.approx(fix.square_integral, rel=2e-3)


class TestTent:
    def test_peak_is_sqrt_of_length(self):
        fix = sqrt_tent(256)
        assert fix.fn(128.0) == 16.0
        assert fix.fn(120.0) == 8.0
        assert fix.fn(0.25) == 0.0  # clamped outside the support

    def test_moments_match_closed_form(self):
        fix = sqrt_tent(256)
        m = grid_moments(fix, 256)
        assert m["abs_integral"] == fix.abs_integral
        assert m["square_integral"] == pytest.approx(fix.square_integral, rel=2e-3)


class TestZeroMeanRamp:
    def test_grid_mean_nearly_vanishes(self):
        fix = zero_mean_ramp(256, 0.1)
        m = grid_moments(fix, 256)
        assert abs(m["mean"]) < 1e-3
        assert m["std"] == pytest.approx(fix.std, rel=1e-4)
        assert m["abs_integral"] == pytest.approx(fix.abs_integral, rel=1e-4)

    def test_std_decays_slower_than_mean_concentrates(self):
        # the spread stays macroscopic even though the average is zero
        for n in (64, 256, 1024):
            fix = zero_mean_ramp(n, 0.1)
            assert fix.mean == 0.0
            assert fix.std > 0.1 * n ** 0.5

    def test_tail_value_is_constant(self):
        fix = zero_mean_ramp(256, 0.1)
        assert fix.fn(250.0) == fix.fn(255.0) < 0.0


class TestParameterValidation:
    def test_small_n_rejected(self):
        for bad in (hidden_spike, sqrt_tent, zero_mean_ramp):
            with pytest.raises(ValueError):
                bad(8)

    def test_spike_width(self):
        with pytest.raises(ValueError):
            hidden_spike(64, 0)

    def test_zramp_eps_range(self):
        for eps in (0.0, 0.25, 0.5, -0.1):
            with pytest.raises(ValueError):
                zero_mean_ramp(256, eps)

    def test_square_gap_size(self):
        with pytest.raises(ValueError):
            square_gap(1)

    def test_moments_need_batch_evaluator(self):
        with pytest.raises(ValueError):
            grid_moments(square_gap(16), 16)

    def test_slope_audit_guard(self):
        with pytest.raises(ValueError):
            max_adjacent_slope(ramp(), (256, 256))


class TestProfileWrapper:
    def test_profile_evaluates_world_coordinates(self):
        pf = sqrt_tent(64).profile()
        dom = GridDomain((64,))
        assert pf.arity == 1
        assert pf.query(dom.point((32,))) == (8.0 - 0.5,)

    def test_extra_axes_ignored(self):
        pf = hidden_spike(64, 24).profile()
        dom = GridDomain((64, 1))
        center = 3.0 * 64 / 8.0  # 24.0
        assert pf.query(dom.point((24, 0))) == (12.0 - 0.5,)
        assert center == 24.0


class TestResolveFixture:
    def test_const(self):
        dom = GridDomain((4, 4))
        assert resolve_fixture("const:7.25", dom).query(dom.point((1, 2))) == (7.25,)

    def test_ramp(self):
        dom = GridDomain((4, 4))
        assert resolve_fixture("ramp", dom).query(dom.point((2, 3))) == (6.0,)

    def test_step_defaults_to_domain_midpoint(self):
        dom = GridDomain((64, 1))
        pf = resolve_fixture("step", dom)
        assert pf.query(dom.point((31, 0))) == (0.0,)
        assert pf.query(dom.point((32, 0))) == (100.0,)

    def test_step_custom_height_and_position(self):
        dom = GridDomain((64, 1))
        pf = resolve_fixture("step:7:10", dom)
        assert pf.query(dom.point((9, 0))) == (0.0,)
        assert pf.query(dom.point((10, 0))) == (7.0,)

    def test_line_fixtures_size_from_first_axis(self):
        dom = GridDomain((64,))
        assert resolve_fixture("tent", dom).query(dom.point((32,))) == (7.5,)
        spike = resolve_fixture("spike:24", dom)
        assert spike.query(dom.point((24,))) == (11.5,)
        zr = resolve_fixture("zramp:0.15", dom)
        assert math.isfinite(zr.query(dom.point((5,)))[0])

    def test_sqdiff(self):
        dom = GridDomain((16, 16))
        assert resolve_fixture("sqdiff", dom).query(dom.point((2, 5))) == (9.0,)

    def test_scene_scalar_quantity(self):
        dom = GridDomain((8, 8))
        pf = resolve_fixture("scene:default:numvisible", dom)
        assert pf.arity == 1
        v = pf.query(dom.point((1, 1)))
        assert v[0] >= 0.0 and float(v[0]).is_integer()

    def test_scene_directional_quantity_has_four_components(self):
        dom = GridDomain((8, 8))
        pf = resolve_fixture("scene:default:sides", dom)
        assert pf.arity == 4

    def test_scene_grid_rescaling_matches_direct_query(self):
        dom = GridDomain((8, 8))
        pf = resolve_fixture("scene:default:numvisible", dom)
        scene = named_scene("default", 16)
        direct = num_visible(scene, GridPoint((1, 1), (48.0, 48.0)))
        assert pf.query(dom.point((1, 1))) == (float(direct),)

    def test_scene_options_parse(self):
        dom = GridDomain((8, 8))
        pf = resolve_fixture("scene:default:cullcost:depth=2:rays=8", dom)
        assert pf.query(dom.point((4, 4)))[0] > 0.0

    def test_scene_needs_two_axes(self):
        with pytest.raises(ValueError):
            resolve_fixture("scene:default:numvisible", GridDomain((64,)))

    @pytest.mark.parametrize("token", [
        "nope",
        "step:abc",
        "spike:0",
        "ramp:3",
        "scene:default:bogus",
        "scene:nowhere:numvisible",
        "scene:default:numvisible:frobs=3",
        "zramp:0.5",
    ])
    def test_malformed_tokens(self, token):
        with pytest.raises(ValueError):
            resolve_fixture(token, GridDomain((64, 64)))


def test_fixture_batches_match_point_queries_bit_for_bit():
    dom = GridDomain((48, 3), origin=(-0.3, 0.25), cell_size=(0.75, 1.3))
    lins = list(range(dom.cell_count))
    points = dom.points_from_linear(lins)
    for fix in (constant(2.5), ramp(), step(4.0, 10.0), square_gap(16),
                hidden_spike(64, 8), sqrt_tent(16), zero_mean_ramp(256)):
        pf = fix.profile()
        assert pf.batch is not None, fix.name
        got = np.asarray(pf.batch(dom.world_from_linear(lins)), dtype=np.float64)
        want = np.array([pf.query(p)[0] for p in points])
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), fix.name


@pytest.mark.parametrize("token", ["scene:default:numvisible", "scene:symmetric:sides",
                                   "scene:variant77:cullcost:depth=5:rays=9",
                                   "scene:default:cullcost_sides:depth=3:rays=8",
                                   "scene:default:polygons:depth=2", "scene:default:occltests",
                                   "scene:default:brutecost"])
def test_scene_batches_match_point_queries_bit_for_bit(token):
    # Non-zero origin, fractional cells and a degenerate third axis: the batch
    # recovers each row's cell index from its world coordinates.
    dom = GridDomain((12, 10, 1), origin=(-3.7, 41.2, 5.0), cell_size=(0.3, 1.1, 2.5))
    lins = list(range(dom.cell_count))
    pf = resolve_fixture(token, dom)
    got = np.asarray(pf.batch(dom.world_from_linear(lins)), dtype=np.float64)
    want = np.array([pf.query(p) for p in dom.points_from_linear(lins)])
    assert got.reshape(want.shape).tobytes() == want.tobytes()


def test_scene_batch_leaves_rows_of_no_cell_to_the_query():
    dom = GridDomain((8, 8), origin=(1.0, 2.0), cell_size=(0.5, 0.25))
    pf = resolve_fixture("scene:default:numvisible", dom)
    world = dom.world_from_linear([0, 9, 63, 63])
    world[1, 0] += 0.1     # between cell centers
    world[2, 1] = 99.0     # outside the grid
    world[3, 0] = np.nan
    got = pf.batch(world)
    assert np.isfinite(got[0]).all() and np.isnan(got[1:]).all()
    assert tuple(got[0]) == pf.query(dom.point((0, 0)))


def test_scene_build_survives_purity_checks_of_every_hit():
    from meshprof.builder import BuildConfig, DiameterSampling, build

    dom = GridDomain((16, 16))
    pf = resolve_fixture("scene:default:cullcost:depth=4", dom)
    config = BuildConfig(threshold=(0.2,), policy=DiameterSampling(0.5), seed=3,
                         purity_check_rate=1.0)
    sub, report = build(pf, dom, config)
    again, _ = build(pf, dom, BuildConfig(threshold=(0.2,), policy=DiameterSampling(0.5),
                                          seed=3))
    assert report.total_requests > report.distinct_queries > 0
    assert serialize(sub) == serialize(again)

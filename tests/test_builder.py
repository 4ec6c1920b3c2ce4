"""Adaptive build loop: sampling policies, spread tests, cache, batches."""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshprof.builder import (
    BuildConfig,
    DiameterSampling,
    FixedSampling,
    ProfileFunction,
    QueryCache,
    RmsSampling,
    SupNormSampling,
    build,
    sample_size,
    _box_states,
    _draw_each,
    _replay_choice,
    _sample_cells,
    _segment_means,
    _stream,
)
from meshprof.domain import GridCuboid, GridDomain
from meshprof.errors import NonDeterministicProfileError, ProfileQueryError
from meshprof.fixtures import resolve_fixture
from meshprof.fixtures.lipschitz import ramp
from meshprof.mesh import _split_bounds, deserialize, leaf_arrays, serialize

from helpers import Recording


def world_profile(fn):
    """A scalar profile of world coordinates, e.g. ``lambda x, y: x + y``."""
    return ProfileFunction(1, lambda p: (float(fn(*p.world)),))


RAMP = world_profile(lambda x, y: x + y)


def config(threshold, policy, **kw):
    t = (threshold,) if isinstance(threshold, float) else threshold
    return BuildConfig(threshold=t, policy=policy, **kw)


class TestSampleSize:
    def test_diameter_default_on_square_root(self):
        dom = GridDomain((256, 256))
        k = sample_size(DiameterSampling(), dom.root_cuboid(), config(1.0, DiameterSampling()), dom)
        assert k == 182  # ceil(0.5 * 256 * sqrt(2))

    def test_fixed_clamps_to_cell_count(self):
        dom = GridDomain((16, 16))
        cfg = config(1.0, FixedSampling(7))
        assert sample_size(FixedSampling(7), dom.root_cuboid(), cfg, dom) == 7
        small = GridCuboid((0, 0), (2, 2))
        assert sample_size(FixedSampling(7), small, cfg, dom) == 4

    def test_sup_policy_oversamples_then_clamps(self):
        dom = GridDomain((16, 16))
        box = GridCuboid((0, 0), (2, 2))
        cfg = config(1.0, SupNormSampling(1.0))
        # k' = 4 * (1*1/1)^2 = 4; 4 * ln(4)^2 = 7.68... -> 8, clamped to 4 cells
        assert sample_size(SupNormSampling(1.0), box, cfg, dom) == 4

    def test_sup_policy_unclamped_value(self):
        dom = GridDomain((64, 64))
        box = dom.root_cuboid()
        cfg = config(8.0, SupNormSampling(1.0))
        k_prime = 4096 * (1.0 * 1.0 / 8.0) ** 2  # 64
        expected = math.ceil(k_prime * math.log(k_prime) ** 2)  # 1107 < 4096 cells
        assert sample_size(SupNormSampling(1.0), box, cfg, dom) == expected

    def test_rms_policy_formula(self):
        dom = GridDomain((64, 64))
        box = dom.root_cuboid()
        cfg = config(4.0, RmsSampling(1.0))
        d = box.grid_diameter
        k_prime = math.sqrt(d) + 1.0 * d * 1.0 / 4.0
        expected = math.ceil(k_prime * math.log(k_prime) ** 2)
        assert sample_size(RmsSampling(1.0), box, cfg, dom) == expected

    def test_min_samples_floor(self):
        dom = GridDomain((32, 32))
        box = GridCuboid((0, 0), (4, 4))
        cfg = config(1.0, DiameterSampling(0.1), min_samples=5)
        assert sample_size(DiameterSampling(0.1), box, cfg, dom) == 5

    def test_policy_tokens(self):
        assert DiameterSampling().token() == "diam:0.5"
        assert SupNormSampling(1.0).token() == "sup:c=1"
        assert RmsSampling(0.5).token() == "rms:c=0.5"
        assert FixedSampling(8).token() == "fixed:8"

    def test_fixed_requires_two(self):
        with pytest.raises(ValueError):
            FixedSampling(1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -3.0, -1e-300])
    def test_policies_refuse_a_non_finite_or_negative_constant(self, bad):
        for policy, name in ((DiameterSampling, "factor"), (SupNormSampling, "c"),
                             (RmsSampling, "c")):
            with pytest.raises(ValueError, match=f"{name} must be finite and >= 0"):
                policy(bad)
        assert (DiameterSampling(0.0).factor, SupNormSampling(0.0).c, RmsSampling(0.0).c) == (
            0.0, 0.0, 0.0)

    def test_config_refuses_a_nan_threshold_and_a_non_finite_exponent(self):
        for threshold in ((math.nan,), (1.0, math.nan), (math.nan, 1.0)):
            with pytest.raises(ValueError, match="thresholds must be > 0"):
                BuildConfig(threshold=threshold)
        for exponent in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="oversample_exponent must be finite"):
                BuildConfig(threshold=(1.0,), oversample_exponent=exponent)
        # An infinite threshold stays a valid library value: one leaf, as wide as it gets.
        sub, report = build(RAMP, GridDomain((16, 16)),
                            BuildConfig(threshold=(math.inf,), oversample_exponent=-1.0))
        assert report.leaf_count == 1 and report.distinct_queries < 256


class TestSpreadTest:
    """The leaf test as a build decides it, on 1-D domains sampled exhaustively."""

    @staticmethod
    def leaves_of(rows, threshold, spread_mode="range"):
        """(lo, hi, value, lo_seen, hi_seen) per leaf; cell i holds ``rows[i]``."""
        pf = ProfileFunction(len(rows[0]), lambda p: rows[p.index[0]])
        sub, _ = build(pf, GridDomain((len(rows),)),
                       BuildConfig(threshold=threshold, policy=FixedSampling(len(rows)),
                                   spread_mode=spread_mode))
        t = leaf_arrays(sub)
        return [(lo, hi, tuple(v), tuple(ls), tuple(hs)) for lo, hi, v, ls, hs in zip(
            t.lo[:, 0].tolist(), t.hi[:, 0].tolist(), t.value.tolist(), t.lo_seen.tolist(),
            t.hi_seen.tolist())]

    def test_samples_whose_sum_overflows_keep_their_mean(self):
        # Each component is summed alone: one that overflows leaves the other's bits as they were.
        assert _segment_means(np.array([[1e308], [1.5e308]]), np.array([0]),
                              np.array([2])).tolist() == [[1.25e308]]
        assert self.leaves_of([(1e308, 0.1), (1.5e308, 0.2)], (math.inf, math.inf)) == [
            (0, 2, (1.25e308, (0.1 + 0.2) / 2), (1e308, 0.1), (1.5e308, 0.2))]
        assert self.leaves_of([(-1e308,), (-1.5e308,), (-1.5e308,)], (math.inf,)) == [
            (0, 3, (-1.5e308 / 3 * 2 + -1e308 / 3,), (-1.5e308,), (-1e308,))]

    def test_spread_exactly_at_threshold_passes(self):
        assert self.leaves_of([(1.0,), (1.5,), (2.0,)], (1.0,)) == [
            (0, 3, (1.5,), (1.0,), (2.0,))]

    def test_spread_over_threshold_fails(self):
        assert self.leaves_of([(1.0,), (2.01,)], (1.0,)) == [
            (0, 1, (1.0,), (1.0,), (1.0,)), (1, 2, (2.01,), (2.01,), (2.01,))]

    def test_per_component_rule(self):
        rows = [(0.0, 5.0), (0.0, 7.0)]
        assert len(self.leaves_of(rows, (10.0, 1.0))) == 2
        assert self.leaves_of(rows, (10.0, 2.0)) == [(0, 2, (0.0, 6.0), (0.0, 5.0), (0.0, 7.0))]

    def test_mean_deviation_variant(self):
        # max |v - mean| = 1 for {0, 2} with mean 1, while max - min = 2
        rows = [(0.0,), (2.0,)]
        assert self.leaves_of(rows, (1.0,), "mean_dev") == [(0, 2, (1.0,), (0.0,), (2.0,))]
        assert len(self.leaves_of(rows, (0.99,), "mean_dev")) == 2
        assert len(self.leaves_of(rows, (1.0,), "range")) == 2


class TestBuild:
    def test_constant_profile_single_leaf(self):
        dom = GridDomain((64, 64))
        sub, report = build(world_profile(lambda x, y: 5.0), dom,
                            config(1.0, FixedSampling(8), seed=1))
        assert len(leaf_arrays(sub).depth) == 1
        assert report.distinct_queries == 8
        assert report.leaf_count == 1 and report.depth == 0

    def test_step_profile_leaves_respect_threshold(self):
        dom = GridDomain((64, 64))
        f = world_profile(lambda x, y: 0.0 if x < 32 else 100.0)
        for seed in range(8):
            sub, _ = build(f, dom, config(10.0, FixedSampling(16), seed=seed))
            t = leaf_arrays(sub)
            for lo, hi, value in zip(t.lo[:, 0].tolist(), t.hi[:, 0].tolist(), t.value):
                cell_vals = {0.0 if (x + 0.5) < 32 else 100.0 for x in range(lo, hi)}
                if max(cell_vals) - min(cell_vals) > 10.0:
                    # a straddling leaf may only survive if its samples missed
                    # one side entirely; its value must still be one plateau
                    assert value[0] in cell_vals
                else:
                    assert min(cell_vals) - 10.0 <= value[0] <= max(cell_vals) + 10.0

    def test_leaf_mean_between_observed_extremes(self):
        dom = GridDomain((32, 32))
        noisy = world_profile(lambda x, y: math.sin(x * 0.7) * 10 + y)
        sub, _ = build(noisy, dom, config(3.0, DiameterSampling(), seed=4))
        t = leaf_arrays(sub)
        assert (t.lo_seen <= t.value).all() and (t.value <= t.hi_seen).all()

    def test_single_cell_leaves_are_exact_and_saturated(self):
        dom = GridDomain((8, 8))
        f = world_profile(lambda x, y: 100.0 * ((int(x) + int(y)) % 2))
        sub, _ = build(f, dom, config(1.0, FixedSampling(64), seed=0))
        t = leaf_arrays(sub)
        assert ((t.hi - t.lo) == 1).all()
        assert t.value[:, 0].tolist() == [100.0 * ((x + y) % 2) for x, y in t.lo.tolist()]
        assert t.saturated.sum() == 64

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            build(RAMP, GridDomain((4, 4)), BuildConfig(threshold=(1.0, 1.0)))

    def test_termination_depth_bound(self):
        dom = GridDomain((48, 64))
        bound = max(math.ceil(math.log2(e)) for e in dom.extents)
        f = world_profile(lambda x, y: x * y)
        sub, report = build(f, dom, config(1.0, FixedSampling(6), seed=2))
        assert report.depth <= bound

    def test_smooth_profile_stops_early(self):
        # spread over the whole root is far below the threshold
        sub, report = build(RAMP, GridDomain((64, 64)), config(200.0, DiameterSampling(), seed=0))
        assert report.depth == 0 and len(leaf_arrays(sub).depth) == 1

    def test_report_counters(self):
        sub, report = build(RAMP, GridDomain((16, 16)), config(4.0, FixedSampling(12), seed=3))
        assert report.distinct_queries <= report.total_requests
        assert report.distinct_queries <= 256
        t = leaf_arrays(sub)
        assert report.leaf_count == len(t.depth)
        assert report.depth == t.depth.max()
        assert report.saturated_leaves == t.saturated.sum()
        assert report.wall_time_s >= 0.0
        doc = report.to_dict()
        assert doc["leaf_count"] == report.leaf_count

    def test_metadata_echoes_config_without_jobs(self):
        cfg = config(4.0, FixedSampling(12), seed=3)
        sub, _ = build(RAMP, GridDomain((16, 16)), cfg)
        echo = sub.metadata["config"]
        assert echo["threshold"] == [4.0]
        assert echo["seed"] == 3
        assert "jobs" not in echo


class TestDeterminismAndCache:
    def test_same_seed_same_tree(self):
        dom = GridDomain((32, 32))
        f = world_profile(lambda x, y: math.hypot(x - 16, y - 16))
        a, _ = build(f, dom, config(2.0, DiameterSampling(), seed=12))
        b, _ = build(f, dom, config(2.0, DiameterSampling(), seed=12))
        assert serialize(a) == serialize(b)

    def test_different_seed_may_differ_but_stays_valid(self):
        dom = GridDomain((32, 32))
        f = world_profile(lambda x, y: math.hypot(x - 16, y - 16))
        trees = {serialize(build(f, dom, config(2.0, DiameterSampling(), seed=s))[0])
                 for s in range(4)}
        for text in trees:  # structure may coincide; every text must load and be valid
            t = leaf_arrays(deserialize(text))
            covered = np.zeros(dom.extents, dtype=int)
            for lo, hi in zip(t.lo, t.hi):
                covered[tuple(map(slice, lo, hi))] += 1
            assert (covered == 1).all()
            assert ((t.lo_seen <= t.value) & (t.value <= t.hi_seen)).all()
            assert serialize(deserialize(text)) == text

    def test_box_stream_is_seed_sequence_of_seed_and_box(self):
        rng = np.random.default_rng(2)
        boxes = [GridCuboid((0, 3), (70000, 9)), GridCuboid((2**32, 1), (2**33 + 5, 2)),
                 GridCuboid((7,), (9,)), GridCuboid((1, 2, 3), (4, 5, 6))]
        for _ in range(40):
            lo = rng.integers(0, 1000, size=2)
            boxes.append(GridCuboid(tuple(lo), tuple(lo + rng.integers(1, 50, size=2))))
        for seed in (0, 5, 2**32 - 1, 2**32, 2**64 - 1):
            for ndim in (1, 2, 3):
                group = [box for box in boxes if box.ndim == ndim]
                state, inc = _box_states(seed, np.array([box.lo for box in group]),
                                         np.array([box.hi for box in group]))
                assert state.dtype == inc.dtype == np.uint64
                for box, (s_hi, s_lo), (c_hi, c_lo) in zip(group, state.tolist(), inc.tolist(),
                                                           strict=True):
                    ref = np.random.PCG64(np.random.SeedSequence((seed, *box.lo, *box.hi)))
                    assert ref.state == {"bit_generator": "PCG64", "has_uint32": 0,
                                         "uinteger": 0,
                                         "state": {"state": s_hi << 64 | s_lo,
                                                   "inc": c_hi << 64 | c_lo}}

    def test_batched_queries_match_per_cell_queries(self):
        dom = GridDomain((8, 8), (1.0, -2.0), (0.5, 3.0))
        logs = ([], [])
        caches = [QueryCache(ProfileFunction(1, lambda p, log=log: log.append(p) or
                                             (p.world[0] * p.world[1],)),
                             dom, config(1.0, FixedSampling(4), seed=3, purity_check_rate=0.5))
                  for log in logs]
        rng = np.random.default_rng(0)
        for _ in range(20):
            lins = rng.choice(64, size=int(rng.integers(1, 20)), replace=False)
            batched = caches[0].query_many(lins)
            single = np.concatenate([caches[1].query_many(lins[i:i + 1])
                                     for i in range(len(lins))])
            assert np.array_equal(batched, single)
        assert [(p.index, p.world) for p in logs[0]] == [(p.index, p.world) for p in logs[1]]
        assert len(logs[0]) > 64  # purity spot-checks re-queried some hits
        assert np.array_equal(caches[0]._keys, caches[1]._keys)
        assert np.array_equal(caches[0]._values, caches[1]._values)
        assert caches[0].total_requests == caches[1].total_requests

    def test_failed_batch_falls_back_to_point_queries(self):
        dom = GridDomain((8, 8))
        ref, _ = build(ProfileFunction(1, lambda p: (p.world[0],)), dom,
                       config(0.5, FixedSampling(10), seed=1))
        for batch in (lambda w: 1 / 0, lambda w: np.zeros((len(w), 2)),
                      lambda w: np.full(len(w), np.inf)):
            calls = []
            pf = ProfileFunction(1, lambda p: calls.append(p) or (p.world[0],), batch=batch)
            sub, report = build(pf, dom, config(0.5, FixedSampling(10), seed=1))
            assert serialize(sub) == serialize(ref)
            assert len({p.index for p in calls}) == report.distinct_queries

    def test_batch_failure_is_reported_at_its_point(self):
        def batch(world):
            return np.where((world[:, 0] == 2.5) & (world[:, 1] == 5.5), np.nan, 0.0)
        pf = ProfileFunction(1, lambda p: (math.nan if p.index == (2, 5) else 0.0,),
                             batch=batch)
        with pytest.raises(ProfileQueryError) as err:
            build(pf, GridDomain((8, 8)), config(1.0, FixedSampling(64), seed=0))
        assert "(2, 5)" in str(err.value)

    def test_batch_keeps_its_finite_rows(self):
        calls = []

        def batch(world):
            return np.where(world[:, 0] == 2.5, np.nan, world[:, 0])
        pf = ProfileFunction(1, lambda p: calls.append(p.index) or (p.world[0],), batch=batch)
        sub, _ = build(pf, GridDomain((8, 8)),
                       config(0.5, FixedSampling(64), seed=0, purity_check_rate=0.0))
        assert sorted(calls) == [(2, j) for j in range(8)]
        ref, _ = build(ProfileFunction(1, lambda p: (p.world[0],)), GridDomain((8, 8)),
                       config(0.5, FixedSampling(64), seed=0, purity_check_rate=0.0))
        assert serialize(sub) == serialize(ref)

    def test_batch_disagreeing_with_query_is_caught(self):
        pf = ProfileFunction(1, lambda p: (p.world[0],), batch=lambda w: w[:, 0] + 1.0)
        with pytest.raises(NonDeterministicProfileError):
            build(pf, GridDomain((16, 16)),
                  config(0.5, FixedSampling(256), seed=0, purity_check_rate=1.0))

    def test_batch_build_matches_point_build(self):
        dom = GridDomain((32, 24), (-1.0, 2.0), (0.5, 1.5))
        pf = ramp().profile()
        pointwise = ProfileFunction(1, pf.query, name=pf.name)
        for cfg in (config(1.5, SupNormSampling(1.0), seed=4),
                    config(1.5, RmsSampling(1.0), seed=2, spread_mode="mean_dev")):
            runs = []
            for f in (pf, pointwise):
                recording = Recording(f, dom)
                sub, report = build(recording.profile, dom, cfg)
                counts = report.to_dict()
                counts.pop("wall_time_s")
                runs.append((serialize(sub), counts, recording.log()))
            assert runs[0] == runs[1]

    def test_query_failure_carries_point(self):
        def bad(p):
            if p.index == (3, 3):
                raise RuntimeError("boom")
            return (0.0,)
        with pytest.raises(ProfileQueryError) as err:
            build(ProfileFunction(1, bad), GridDomain((8, 8)),
                  config(1.0, FixedSampling(64), seed=0))
        assert "(3, 3)" in str(err.value)

    def test_nonfinite_value_rejected(self):
        pf = ProfileFunction(1, lambda p: (float("inf"),))
        with pytest.raises(ProfileQueryError):
            build(pf, GridDomain((4, 4)), config(1.0, FixedSampling(4), seed=0))

    def test_impure_profile_detected(self):
        calls = {}
        def drifting(p):
            calls[p.index] = calls.get(p.index, 0) + 1
            return (p.world[0] + p.world[1] + 100.0 * (calls[p.index] - 1),)
        with pytest.raises(NonDeterministicProfileError):
            build(ProfileFunction(1, drifting, pure=True), GridDomain((16, 16)),
                  config(0.5, FixedSampling(256), seed=0, purity_check_rate=1.0))

    def test_declared_impure_profile_is_never_spot_checked(self):
        calls = {}
        def drifting(p):
            calls[p.index] = calls.get(p.index, 0) + 1
            return (p.world[0] + 100.0 * (calls[p.index] - 1),)
        pf = ProfileFunction(1, drifting, pure=False)
        _, report = build(pf, GridDomain((16, 16)),
                          config(0.5, FixedSampling(256), seed=0, purity_check_rate=1.0))
        assert report.leaf_count >= 1


class TestThresholdMonotonicity:
    def test_distinct_queries_and_split_sets_nest(self):
        from meshprof.fixtures import resolve_fixture
        dom = GridDomain((32, 32))
        pf = resolve_fixture("scene:default:numvisible", dom)

        def split_boxes(sub):
            return {(tuple(lo), tuple(hi)) for level in sub.levels
                    for lo, hi in zip(level.lo[~level.leaf].tolist(),
                                      level.hi[~level.leaf].tolist())}

        prev_distinct = None
        prev_splits = None
        for s in (80.0, 40.0, 20.0, 10.0):  # coarse to fine
            sub, report = build(pf, dom, config(s, DiameterSampling(), seed=21))
            splits = split_boxes(sub)
            if prev_splits is not None:
                assert prev_splits <= splits
                assert prev_distinct <= report.distinct_queries
            prev_splits, prev_distinct = splits, report.distinct_queries


def test_sample_log_rows_sorted_by_cell():
    dom = GridDomain((4, 4))
    recording = Recording(RAMP, dom)
    _, report = build(recording.profile, dom, config(0.5, FixedSampling(4), seed=1))
    rows = [line.split(",") for line in recording.log().splitlines()]
    assert len(rows) == report.distinct_queries
    cells = [(int(r[0]), int(r[1])) for r in rows]
    assert cells == sorted(cells)
    for r in rows:
        i, j = int(r[0]), int(r[1])
        assert float(r[2]) == (i + 0.5) + (j + 0.5)


# Digest of the build matrix below, recorded on the per-box builder that the
# array-level builder replaced, when meshes were written indented; they are hashed
# re-spelled so.  A change to it means some mesh, report or sample log (the
# distinct queries and their answers, ordered by cell) changed.
MATRIX_DIGEST = "5f059eac0723a74fa8351ee028d843c6a2d20ddc3597f133a95b5fd73dd24921"


def test_build_matrix_digest():
    """Meshes, report counts and sample logs over fixtures x policies x seeds x modes."""
    plane = dict(origin=(0.1, -0.2), cell_size=(0.3, 0.7))
    cases = [("const:2.5", GridDomain((12, 10), **plane)), ("ramp", GridDomain((16, 12), **plane)),
             ("ramp", GridDomain((5, 6, 7), (0.1,) * 3, (0.3,) * 3)),
             ("step:40:1.3", GridDomain((16, 16), **plane)), ("spike:6", GridDomain((64,))),
             ("tent", GridDomain((64,))), ("zramp", GridDomain((64,))),
             ("sqdiff", GridDomain((12, 12)))]
    policies = (SupNormSampling(1.0), RmsSampling(1.0), DiameterSampling(0.5), FixedSampling(6))
    digest = hashlib.sha256()
    for token, dom in cases:
        pf = resolve_fixture(token, dom)
        for policy in policies:
            for seed in (3, 2**64 - 1):
                for mode in ("range", "mean_dev"):
                    recording = Recording(pf, dom)
                    sub, report = build(recording.profile, dom,
                                        config(1.0, policy, seed=seed, spread_mode=mode))
                    counts = report.to_dict()
                    del counts["wall_time_s"]
                    indented = json.dumps(json.loads(serialize(sub)), indent=2)
                    for part in (indented, repr(sorted(counts.items())), recording.log()):
                        digest.update(part.encode())
    assert digest.hexdigest() == MATRIX_DIGEST


@st.composite
def levels(draw):
    """Boxes of one dimensionality, each axis as (lo, extent)."""
    ndim = draw(st.integers(1, 3))
    axis = st.tuples(st.integers(0, 40), st.integers(1, 9))
    return draw(st.lists(st.lists(axis, min_size=ndim, max_size=ndim), min_size=1, max_size=8))


@given(levels())
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
def test_array_split_is_the_cuboid_split(boxes):
    """``_split_bounds`` of a level of boxes equals ``GridCuboid.split`` of each box."""
    cuboids = [GridCuboid(tuple(lo for lo, _ in axes), tuple(lo + e for lo, e in axes))
               for axes in boxes]
    cuboids = [box for box in cuboids if box.cell_count > 1]
    if not cuboids:
        return
    lo, hi, children = _split_bounds(np.array([box.lo for box in cuboids]),
                                     np.array([box.hi for box in cuboids]))
    assert children.tolist() == [len(box.split()) for box in cuboids]
    assert [GridCuboid(tuple(l), tuple(h)) for l, h in zip(lo.tolist(), hi.tolist())] == [
        child for box in cuboids for child in box.split()]


@given(levels(), st.integers(0, 2**64 - 1))
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
def test_sample_cells_groups_shapes_in_row_order(boxes, seed):
    """Shapes meet the size policy in sorted row order, and each box draws as if alone."""
    lo = np.array([[l for l, _ in axes] for axes in boxes])
    hi = lo + np.array([[e for _, e in axes] for axes in boxes])
    dom = GridDomain(tuple(hi.max(axis=0).tolist()))
    cfg = config(1.0, DiameterSampling(0.5), seed=seed)
    sizes: dict = {}
    rng = np.random.Generator(np.random.PCG64(0))
    counts, lins = _sample_cells(lo, hi, cfg, dom, sizes, rng)
    assert list(sizes) == sorted(set(map(tuple, (hi - lo).tolist())))
    starts = np.cumsum(counts) - counts
    for i, (k, start) in enumerate(zip(counts.tolist(), starts.tolist())):
        assert k == sizes[tuple((hi[i] - lo[i]).tolist())][0]
        alone = _sample_cells(lo[i:i + 1], hi[i:i + 1], cfg, dom, {}, rng)[1]
        assert alone.tolist() == lins[start:start + k].tolist()


# -- Replayed draws ---------------------------------------------------------


def numpy_choice(seed, lo, hi, k):
    """The draw the builder pins: ``choice`` on the box's own ``default_rng``."""
    n = math.prod(h - l for l, h in zip(lo, hi))
    rng = np.random.default_rng(np.random.SeedSequence((seed, *lo, *hi)))
    return rng.choice(n, k, replace=False).tolist()


def replayed(seed, lo, hi, k):
    """``_replay_choice`` for boxes of one shape, each as a list of offsets."""
    lo, hi = np.array(lo, dtype=np.uint64), np.array(hi, dtype=np.uint64)
    state, inc = _box_states(seed, lo, hi)
    return _replay_choice(state, inc, int(np.prod(hi[0] - lo[0])), k).tolist()


def lemire_rejections(seed, lo, hi, k):
    """Per box, how many of its first ``2k - 1`` stream words Lemire's method rejects."""
    n = math.prod(h - l for l, h in zip(lo[0], hi[0]))
    state, inc = _box_states(seed, np.array(lo, dtype=np.uint64), np.array(hi, dtype=np.uint64))
    words = _stream(state, inc, 0, k)[:, :2 * k - 1]
    span = np.concatenate([np.arange(n - k, n), np.arange(k - 1, 0, -1)]).astype(np.uint64) + 1
    return ((words * span & np.uint64(0xFFFFFFFF)) < (2**32 - span) % span).sum(axis=1).tolist()


CORNER = st.one_of(st.integers(0, 2**10), st.integers(2**32 - 3, 2**33),
                   st.integers(2**63, 2**64 - 2**12))


@st.composite
def same_shape_boxes(draw):
    """``(seed, lo, hi, k)``: 1-6 boxes of one shape in 1-3 dimensions, and ``1 <= k < n``."""
    seed = draw(st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1]),
                          st.integers(0, 2**64 - 1)))
    ndim = draw(st.integers(1, 3))
    shape = draw(st.lists(st.integers(1, 14), min_size=ndim, max_size=ndim)
                 .filter(lambda extents: math.prod(extents) > 1))
    lo = draw(st.lists(st.lists(CORNER, min_size=ndim, max_size=ndim), min_size=1, max_size=6))
    hi = [[l + e for l, e in zip(corner, shape)] for corner in lo]
    return seed, lo, hi, draw(st.integers(1, math.prod(shape) - 1))


class TestReplayedDraws:
    @given(same_shape_boxes())
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    def test_replay_is_numpy_choice_on_each_box_stream(self, case):
        seed, lo, hi, k = case
        assert replayed(seed, lo, hi, k) == [numpy_choice(seed, l, h, k) for l, h in zip(lo, hi)]

    def test_large_boxes_where_lemire_rejects_and_the_stream_refills(self):
        # Floyd's draw in [0, j] is rejected with chance (2**32 mod (j + 1)) / 2**32:
        # 256 * (2**24 - j - 1) / 2**32 in a 4096x4096 box, about a dozen of its
        # first 20,000 draws, and about one in two in a box just over 2**31 cells.
        for seed, shape, k in ((11, (4096, 4096), 20000), (2**64 - 1, (46341, 46341), 40)):
            lo = [[0, 0], [2**32 + 5, 17], [123456, 2**40]]
            hi = [[l + e for l, e in zip(corner, shape)] for corner in lo]
            rejected = lemire_rejections(seed, lo, hi, k)
            assert max(rejected) >= 2  # 2k - 1 draws and one spare word: a refill
            assert replayed(seed, lo, hi, k) == [numpy_choice(seed, l, h, k)
                                                  for l, h in zip(lo, hi)]

    def test_box_drawn_alone_equals_the_same_box_within_a_level(self):
        dom = GridDomain((320, 200))
        cfg = config(1.0, FixedSampling(10), seed=2**32 + 9)
        corners = np.array([(x, y) for x in range(0, 320, 8) for y in range(0, 200, 8)])
        assert len(corners) == 1000
        lo, hi = corners, corners + 8
        rng = np.random.Generator(np.random.PCG64(0))
        counts, lins = _sample_cells(lo, hi, cfg, dom, {}, rng)
        assert counts.tolist() == [10] * 1000
        for i in (0, 1, 417, 999):
            alone_counts, alone = _sample_cells(lo[i:i + 1], hi[i:i + 1], cfg, dom, {}, rng)
            assert alone_counts.tolist() == [10]
            assert alone.tolist() == lins[10 * i:10 * i + 10].tolist()

    def test_replay_and_per_box_helpers_agree_on_a_level(self):
        corners = np.array([(x, y) for x in range(0, 600, 12) for y in range(0, 240, 12)])
        lo, hi = corners, corners + (12, 6)
        state, inc = _box_states(77, lo, hi)
        box = GridCuboid((0, 0), (12, 6))
        for k in (1, 2, 30, 71):
            each = _draw_each(state, inc, box, k, np.random.Generator(np.random.PCG64(0)))
            assert np.array_equal(_replay_choice(state, inc, 72, k), each)

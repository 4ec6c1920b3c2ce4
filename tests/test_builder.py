"""Adaptive build loop: sampling policies, spread tests, cache, batches."""

import io
import math

import numpy as np
import pytest

from meshprof.builder import (
    BuildConfig,
    DiameterSampling,
    FixedSampling,
    ProfileFunction,
    QueryCache,
    RmsSampling,
    SupNormSampling,
    build,
    median_of_repeats,
    sample_size,
    _box_states,
)
from meshprof.domain import GridCuboid, GridDomain
from meshprof.errors import NonDeterministicProfileError, OutOfDomainError, ProfileQueryError
from meshprof.fixtures.lipschitz import ramp
from meshprof.mesh import leaf_arrays, serialize, to_dense


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
        assert len(trees) >= 1  # structure may coincide; all must deserialize
        for _ in trees:
            pass

    def test_preload_skips_profile_calls(self):
        dom = GridDomain((16, 16))
        calls = []
        def f(p):
            calls.append(p.index)
            return (p.world[0],)
        pf = ProfileFunction(1, f)
        cfg = config(0.5, FixedSampling(10), seed=1, purity_check_rate=0.0)
        _, report = build(pf, dom, cfg)
        full = {int(np.ravel_multi_index(i, dom.extents)): (dom.world(i)[0],)
                for i in np.ndindex(16, 16)}
        calls.clear()
        again, _ = build(pf, dom, cfg, preload=full)
        assert calls == []
        assert serialize(again) == serialize(build(pf, dom, cfg)[0])

    def test_preload_receives_every_answer(self):
        dom = GridDomain((16, 16))
        store = {0: (0.5,)}
        _, report = build(ramp().profile(), dom, config(0.5, FixedSampling(10), seed=1),
                          preload=store)
        assert len(store) == report.distinct_queries > 1
        assert all(v == (sum(dom.point_from_linear(lin).world),) for lin, v in store.items()
                   if lin != 0)

    def test_preload_outside_the_domain_rejected(self):
        for lin in (-1, 16):
            with pytest.raises(OutOfDomainError):
                build(RAMP, GridDomain((4, 4)), config(1.0, FixedSampling(4)),
                      preload={lin: (1.0,)})

    def test_preload_of_wrong_arity_rejected(self):
        with pytest.raises(ValueError, match="components"):
            build(RAMP, GridDomain((4, 4)), config(1.0, FixedSampling(4)),
                  preload={3: (1.0, 2.0)})

    def test_preload_of_non_finite_value_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="non-finite"):
                build(RAMP, GridDomain((4, 4)), config(1.0, FixedSampling(4)),
                      preload={3: (bad,)})

    def test_box_stream_is_seed_sequence_of_seed_and_box(self):
        rng = np.random.default_rng(2)
        boxes = [GridCuboid((0, 3), (70000, 9)), GridCuboid((2**32, 1), (2**33 + 5, 2)),
                 GridCuboid((7,), (9,)), GridCuboid((1, 2, 3), (4, 5, 6))]
        for _ in range(40):
            lo = rng.integers(0, 1000, size=2)
            boxes.append(GridCuboid(tuple(lo), tuple(lo + rng.integers(1, 50, size=2))))
        for seed in (0, 5, 2**32 - 1, 2**32, 2**64 - 1):
            for box, state in zip(boxes, _box_states(seed, boxes), strict=True):
                ref = np.random.PCG64(np.random.SeedSequence((seed, *box.lo, *box.hi)))
                assert state == ref.state

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
        assert caches[0].store == caches[1].store
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
                log = io.StringIO()
                sub, report = build(f, dom, cfg, sample_log=log)
                counts = report.to_dict()
                counts.pop("wall_time_s")
                runs.append((serialize(sub), counts, log.getvalue()))
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
            out = set()
            def walk(node):
                if hasattr(node, "children"):
                    out.add((node.box.lo, node.box.hi))
                    for c in node.children:
                        walk(c)
            walk(sub.root)
            return out

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
    log = io.StringIO()
    dom = GridDomain((4, 4))
    build(RAMP, dom, config(0.5, FixedSampling(4), seed=1), sample_log=log)
    rows = [line.split(",") for line in log.getvalue().splitlines()]
    cells = [(int(r[0]), int(r[1])) for r in rows]
    assert cells == sorted(cells)
    for r in rows:
        i, j = int(r[0]), int(r[1])
        assert float(r[2]) == (i + 0.5) + (j + 0.5)


def test_median_of_repeats_takes_median():
    seq = {}
    def jittery(p):
        n = seq.get(p.index, 0)
        seq[p.index] = n + 1
        return (float([5.0, 100.0, 6.0][n % 3]),)
    wrapped = median_of_repeats(ProfileFunction(1, jittery, pure=False), repeats=3)
    assert not wrapped.pure
    dom = GridDomain((4,))
    assert wrapped.query(dom.point((0,))) == (6.0,)


def test_median_of_repeats_repeats_the_batch():
    rounds = iter([[1.0, 9.0], [5.0, 2.0], [3.0, 4.0]])
    pf = ProfileFunction(1, lambda p: (0.0,), batch=lambda w: np.array(next(rounds)))
    wrapped = median_of_repeats(pf, repeats=3)
    assert wrapped.batch(np.zeros((2, 1))).tolist() == [[3.0], [4.0]]
    assert median_of_repeats(ProfileFunction(1, lambda p: (0.0,)), 3).batch is None


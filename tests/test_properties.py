"""Property tests of the builder's invariants over random grids, fixtures, policies and seeds.

Each case builds one mesh from a fixture token, a small grid, a sampling
policy, a seed, a spread mode and a threshold, then checks that the leaves
tile the domain, that every leaf value lies within the range of its own
samples, that every leaf the builder chose to stop at passes its spread
mode's test on its stored fields, and that serialization round-trips bit for
bit and writes the same text as the v1 oracle encoder.  ``leaf_arrays`` must
read, from a build's levels and from levels made from leaf records alike,
exactly what a recursive walk of the levels reads.  The cell lookup,
``evaluate``, ``to_dense`` and ``slice_grid`` must read what the leaves of
``leaf_arrays`` unravel to, on builds, loaded meshes, algebra results and
one-leaf meshes.  The runs are
derandomized so that the suite is repeatable; the explicit examples are the
cases where a leaf mean used to land an ulp outside its samples' range.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest
from helpers import dense_reference, oracle_text, random_subdivision, walk_leaves
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from meshprof.analysis import combine, selection_map
from meshprof.builder import (
    BuildConfig,
    DiameterSampling,
    FixedSampling,
    RmsSampling,
    SupNormSampling,
    build,
)
from meshprof.domain import GridDomain
from meshprof.fixtures import resolve_fixture
from meshprof.export import slice_grid
from meshprof.mesh import (_leaf_rows, constant, deserialize, evaluate, leaf_arrays, serialize,
                           to_dense)

PROPERTY_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None,
                             suppress_health_check=[HealthCheck.too_slow])

UNEVEN = ("const:0.1", (32, 32), DiameterSampling(0.5), 0, "range", 0.2)
SCENE = ("scene:default:brutecost", (32, 32), DiameterSampling(0.5), 0, "range", 0.2)


@st.composite
def cases(draw):
    """(fixture token, extents, policy, seed, spread mode, threshold)."""
    shape = draw(st.sampled_from(["line", "plane", "box"]))
    if shape == "line":
        extents = (draw(st.integers(1, 160)),)
    elif shape == "plane":
        extents = tuple(draw(st.lists(st.integers(1, 24), min_size=2, max_size=2)))
    else:
        extents = tuple(draw(st.lists(st.integers(1, 7), min_size=3, max_size=3)))
    value = draw(st.floats(-1e3, 1e3, allow_nan=False) | st.sampled_from([0.1, 0.3, 1 / 3]))
    tokens = [f"const:{value!r}", "ramp",
              f"step:{draw(st.floats(-50, 50)):g}:{draw(st.floats(0, extents[0])):g}"]
    if extents[0] >= 64:
        tokens += [f"spike:{draw(st.integers(1, 24))}", "tent", "zramp"]
    if len(extents) == 2 and extents[0] >= 2:
        tokens.append("sqdiff")
        if max(extents) <= 12:
            tokens += ["scene:default:brutecost", "scene:default:numvisible"]
    token = draw(st.sampled_from(tokens))
    policy = draw(st.one_of(
        st.builds(DiameterSampling, st.floats(0.05, 2.0)),
        st.builds(FixedSampling, st.integers(2, 40)),
        st.builds(SupNormSampling, st.floats(0.05, 4.0)),
        st.builds(RmsSampling, st.floats(0.05, 4.0)),
    ))
    seed = draw(st.integers(0, 2**64 - 1))
    spread_mode = draw(st.sampled_from(["range", "mean_dev"]))
    threshold = draw(st.floats(0.01, 100.0))
    return token, extents, policy, seed, spread_mode, threshold


def build_case(case):
    token, extents, policy, seed, spread_mode, threshold = case
    domain = GridDomain(extents)
    profile = resolve_fixture(token, domain)
    config = BuildConfig(threshold=(threshold,) * profile.arity, policy=policy, seed=seed,
                         spread_mode=spread_mode)
    return build(profile, domain, config)[0]


@PROPERTY_SETTINGS
@given(cases())
def test_leaves_tile_the_domain(case):
    sub = build_case(case)
    cover = np.zeros(sub.domain.extents, dtype=np.int64)
    table = leaf_arrays(sub)
    for lo, hi in zip(table.lo, table.hi):
        cover[tuple(map(slice, lo, hi))] += 1
    assert (cover == 1).all()


@PROPERTY_SETTINGS
@given(cases())
@example(UNEVEN)
@example(SCENE)
def test_leaf_values_lie_within_their_samples(case):
    table = leaf_arrays(build_case(case))
    outside = (table.value < table.lo_seen) | (table.value > table.hi_seen)
    assert not outside.any(), table.lo[outside.any(axis=1)]


@PROPERTY_SETTINGS
@given(cases())
@example(UNEVEN)
def test_unsaturated_leaves_pass_their_spread_test(case):
    *_, spread_mode, threshold = case
    table = leaf_arrays(build_case(case))
    value, lo, hi = table.value, table.lo_seen, table.hi_seen
    spread = hi - lo if spread_mode == "range" else np.maximum(hi - value, value - lo)
    failing = (spread > threshold).any(axis=1) & ~table.saturated
    assert not failing.any(), table.lo[failing]


def bits(sub):
    """Every leaf column as raw bytes, which tell -0.0 from 0.0."""
    table = leaf_arrays(sub)
    return [getattr(table, f.name).tobytes() for f in dataclasses.fields(table)]


def walked_rows(sub):
    """One row per leaf from a recursive walk of ``sub``'s levels, floats as hex."""
    return [(list(leaf.box.lo), list(leaf.box.hi),
             [[v.hex() for v in vs] for vs in (leaf.value, leaf.lo_seen, leaf.hi_seen)],
             leaf.samples, leaf.saturated, leaf.degenerate, depth)
            for leaf, depth in walk_leaves(sub)]


def table_rows(sub):
    """The same rows read from ``leaf_arrays``, after checking its column types."""
    table = leaf_arrays(sub)
    n, nd, m = len(table.depth), sub.domain.ndim, sub.value_arity
    for name, dtype, shape in (("lo", np.int64, (n, nd)), ("hi", np.int64, (n, nd)),
                               ("value", np.float64, (n, m)), ("lo_seen", np.float64, (n, m)),
                               ("hi_seen", np.float64, (n, m)), ("samples", np.int64, (n,)),
                               ("saturated", np.bool_, (n,)), ("degenerate", np.bool_, (n,)),
                               ("depth", np.int64, (n,))):
        column = getattr(table, name)
        assert (column.dtype, column.shape) == (np.dtype(dtype), shape), name
    return [(lo, hi, [[v.hex() for v in vs] for vs in floats], samples, saturated,
             degenerate, depth)
            for lo, hi, *floats, samples, saturated, degenerate, depth in zip(
                table.lo.tolist(), table.hi.tolist(), table.value.tolist(),
                table.lo_seen.tolist(), table.hi_seen.tolist(), table.samples.tolist(),
                table.saturated.tolist(), table.degenerate.tolist(), table.depth.tolist())]


@PROPERTY_SETTINGS
@given(cases())
@example(UNEVEN)
@example(SCENE)
def test_leaf_arrays_are_the_tree_walk_bit_for_bit(case):
    sub = build_case(case)
    assert table_rows(sub) == walked_rows(sub)


# hand_built_mixed_2d.json holds a NaN value, which the reader refuses.
LOADABLE = sorted(p for p in (Path(__file__).resolve().parent / "data" / "mesh_v1").glob("*.json")
                  if p.name != "hand_built_mixed_2d.json")


@pytest.mark.parametrize("path", LOADABLE, ids=lambda p: p.name)
def test_leaf_arrays_are_the_tree_walk_on_the_golden_corpus(path):
    sub = deserialize(path.read_text())
    assert table_rows(sub) == walked_rows(sub)


@st.composite
def trees(draw):
    """Two random meshes on one domain, from ``helpers.random_subdivision``, and their arity."""
    ndim = draw(st.integers(1, 3))
    extents = tuple(draw(st.lists(st.integers(1, 40 if ndim == 1 else 12),
                                  min_size=ndim, max_size=ndim)))
    arity = draw(st.sampled_from([1, 2, 4]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    split = draw(st.floats(0.0, 1.0))
    domain = GridDomain(extents)
    return [random_subdivision(rng, domain, arity, split, draw(st.integers(0, 7)))
            for _ in range(2)], arity


@PROPERTY_SETTINGS
@given(trees(), st.sampled_from(["subtract", "ratio", "max"]))
def test_leaf_arrays_of_tree_levels_are_the_tree_walk_bit_for_bit(pair, op):
    (a, b), arity = pair
    derived = [a, combine(a, b, op)]
    if arity in (1, 4):
        derived.append(selection_map([a, b], view=(30.0, 90.0) if arity == 4 else None))
    for sub in derived:
        assert table_rows(sub) == walked_rows(sub)


@PROPERTY_SETTINGS
@given(cases())
@example(UNEVEN)
def test_serialization_round_trips_bit_exactly(case):
    sub = build_case(case)
    text = serialize(sub)
    again = deserialize(text)
    assert again.domain == sub.domain and again.value_arity == sub.value_arity
    assert again.metadata == sub.metadata
    assert bits(again) == bits(sub)
    assert serialize(again) == text


@PROPERTY_SETTINGS
@given(cases())
@example(UNEVEN)
@example(SCENE)
def test_serialize_matches_the_v1_oracle_encoder(case):
    sub = build_case(case)
    assert serialize(sub) == oracle_text(sub)


@st.composite
def meshes(draw):
    """A mesh of a kind that lookups meet, in 1-D, 2-D or 3-D with axes of extent 1 among
    them: a build of a ramp or a step, the same read back from its text, a ``combine`` or
    ``selection_map`` result of two random trees, or a one-leaf mesh.  Thresholds and
    split chances are drawn so that most meshes have many leaves."""
    kind = draw(st.sampled_from(["build", "loaded", "combine", "selection", "constant"]))
    ndim = draw(st.integers(1, 3))
    extents = tuple(draw(st.lists(st.integers(1, 40 if ndim == 1 else 12),
                                  min_size=ndim, max_size=ndim)))
    domain = GridDomain(extents)
    if kind == "constant":
        value = draw(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=4))
        return constant(domain, tuple(value))
    if kind in ("build", "loaded"):
        token = draw(st.sampled_from(["ramp", f"step:10:{draw(st.integers(0, extents[0]))}"]))
        config = BuildConfig(threshold=(draw(st.floats(0.5, 8.0)),),
                             policy=FixedSampling(draw(st.integers(2, 16))),
                             seed=draw(st.integers(0, 2**32 - 1)))
        sub = build(resolve_fixture(token, domain), domain, config)[0]
        return deserialize(serialize(sub)) if kind == "loaded" else sub
    arity = draw(st.sampled_from([1, 2, 4]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    split, depth = draw(st.floats(0.3, 1.0)), draw(st.integers(1, 7))
    a, b = (random_subdivision(rng, domain, arity, split, depth) for _ in range(2))
    if kind == "combine" or arity == 2:
        return combine(a, b, draw(st.sampled_from(["subtract", "ratio", "max"])))
    return selection_map([a, b], view=(30.0, 90.0) if arity == 4 else None)


def flat_map():
    """A selection map of two trees with many leaves over an axis of extent 1."""
    rng = np.random.default_rng(3)
    return selection_map([random_subdivision(rng, GridDomain((1, 9, 4)), 1, 0.9, 6)
                          for _ in range(2)])


FLAT_BUILD = build_case(("ramp", (6, 1, 5), FixedSampling(4), 0, "range", 0.5))


@PROPERTY_SETTINGS
@given(meshes(), st.integers(0, 2**32 - 1))
@example(FLAT_BUILD, 0)
@example(flat_map(), 1)
def test_lookups_and_box_reads_are_the_dense_reference(sub, seed):
    """Every cell's lookup, ``to_dense``, ``evaluate`` at a few cells and ``slice_grid`` of a
    random slice equal the reference bit for bit."""
    rng = np.random.default_rng(seed)
    nd, m, extents = sub.domain.ndim, sub.value_arity, sub.domain.extents
    ref = dense_reference(sub)
    cells = np.indices(extents).reshape(nd, -1).T
    values = np.concatenate([level.value for level in sub.levels])
    assert values[_leaf_rows(sub, cells)].tobytes() == ref.reshape(-1, m).tobytes()
    assert to_dense(sub).tobytes() == (ref[..., 0] if m == 1 else ref).tobytes()
    for cell in map(tuple, rng.integers(0, extents, size=(3, nd)).tolist()):
        assert np.array(evaluate(sub, sub.domain.point(cell))).tobytes() == ref[cell].tobytes()
    if m == 1:
        fixed = {int(a): int(rng.integers(0, extents[a]))
                 for a in rng.permutation(nd)[:rng.integers(max(nd - 2, 0), nd + 1)]}
        want = ref[tuple(fixed.get(a, slice(None)) for a in range(nd))][..., 0]
        grid = slice_grid(sub, fixed)
        assert grid.tobytes() == (want if want.ndim == 2 else want.reshape(-1, 1)).tobytes()

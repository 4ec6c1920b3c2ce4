"""Property tests of the builder's invariants over random grids, fixtures, policies and seeds.

Each case builds one mesh from a fixture token, a small grid, a sampling
policy, a seed, a spread mode and a threshold, then checks that the leaves
tile the domain, that every leaf value lies within the range of its own
samples, that every leaf the builder chose to stop at passes its spread
mode's test on its stored fields, and that serialization round-trips bit for
bit and writes the same text as the v1 oracle encoder.  The runs are
derandomized so that the suite is repeatable; the explicit examples are the
cases where a leaf mean used to land an ulp outside its samples' range.
"""

import json

import numpy as np
from helpers import oracle_doc
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

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
from meshprof.mesh import deserialize, iter_leaf_nodes, serialize

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
    for leaf, _ in iter_leaf_nodes(sub):
        cover[tuple(slice(lo, hi) for lo, hi in zip(leaf.box.lo, leaf.box.hi))] += 1
    assert (cover == 1).all()


@PROPERTY_SETTINGS
@given(cases())
@example(UNEVEN)
@example(SCENE)
def test_leaf_values_lie_within_their_samples(case):
    sub = build_case(case)
    for leaf, _ in iter_leaf_nodes(sub):
        for value, lo, hi in zip(leaf.value, leaf.lo_seen, leaf.hi_seen):
            assert lo <= value <= hi, (leaf.box, value, lo, hi)


@PROPERTY_SETTINGS
@given(cases())
@example(UNEVEN)
def test_unsaturated_leaves_pass_their_spread_test(case):
    *_, spread_mode, threshold = case
    sub = build_case(case)
    for leaf, _ in iter_leaf_nodes(sub):
        if leaf.saturated:
            continue
        for value, lo, hi in zip(leaf.value, leaf.lo_seen, leaf.hi_seen):
            spread = hi - lo if spread_mode == "range" else max(hi - value, value - lo)
            assert spread <= threshold, (leaf.box, value, lo, hi)


def bits(sub):
    """Every leaf with its floats as hex strings, which tell -0.0 from 0.0."""
    return [(leaf.box, depth, leaf.samples, leaf.saturated, leaf.degenerate,
             [v.hex() for v in leaf.value + leaf.lo_seen + leaf.hi_seen])
            for leaf, depth in iter_leaf_nodes(sub)]


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
    assert serialize(sub) == json.dumps(oracle_doc(sub), indent=2)

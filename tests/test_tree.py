"""The tree kept beside the levels: ``Leaf`` and ``Branch``, a hand-built tree made into
levels by ``Subdivision``, and ``Subdivision.root``, assembled from the levels when read.

Every other test makes its meshes as levels (``helpers.leveled``) and reads them from
their levels.  These are the tests whose subject is the tree itself; they go with it.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import leveled, random_leaves, random_subdivision, walk_leaves
from meshprof import mesh
from meshprof.analysis import (CostModel, UnitCost, combine, cost_estimate, error_vs_oracle,
                               evaluate_view, select, selection_map, weighted_average)
from meshprof.builder import BuildConfig, SupNormSampling, build
from meshprof.domain import GridCuboid, GridDomain
from meshprof.export import leaf_csv
from meshprof.fixtures import resolve_fixture
from meshprof.mesh import (Branch, Leaf, Level, Node, Subdivision, deserialize, evaluate,
                           leaf_arrays, serialize, serialize_pieces, to_dense)
from test_properties import PROPERTY_SETTINGS, trees


def tree(domain: GridDomain, leaves) -> Node:
    """The tree of ``Leaf``s and ``Branch``es whose leaves are the records ``leaves``."""
    by_box = {(leaf.box.lo, leaf.box.hi): leaf for leaf in leaves}

    def make(box: GridCuboid) -> Node:
        leaf = by_box.get((box.lo, box.hi))
        return Leaf(*leaf) if leaf else Branch(box, tuple(map(make, box.split())))

    return make(domain.root_cuboid())


CONFIG = BuildConfig(threshold=(2.0,), policy=SupNormSampling(1.0))


@pytest.fixture
def built(monkeypatch):
    """A 32x32 ramp build, and a list that records each call of the assembler."""
    calls = []
    assemble = mesh._assemble
    monkeypatch.setattr(mesh, "_assemble", lambda levels: calls.append(1) or assemble(levels))
    dom = GridDomain((32, 32))
    profile = resolve_fixture("ramp", dom)
    sub, _ = build(profile, dom, CONFIG)
    return sub, profile, calls


def test_readers_of_a_build_assemble_no_tree(built):
    sub, profile, calls = built
    loaded = deserialize(serialize(build(profile, sub.domain, CONFIG)[0]))
    sides = deserialize((Path(__file__).parent / "data" / "mesh_v1" /
                         "plane_arity4_2d.json").read_text(encoding="utf-8"))
    made, twin = (random_subdivision(np.random.default_rng(5), sub.domain, split_prob=0.9)
                  for _ in range(2))
    calls.clear()
    p = sub.domain.point((3, 17))
    derived = [combine(sub, loaded, "ratio"), selection_map([loaded, sub]),
               cost_estimate([sub, loaded], CostModel((UnitCost("a", 2.0),
                                                       UnitCost("b", 0.5))))]
    for read in (sub, loaded, made, *derived):
        table = leaf_arrays(read)
        to_dense(read)
        weighted_average(read)
        error_vs_oracle(read, profile)
        leaf_csv(read)
        evaluate(read, p)
        assert "".join(serialize_pieces(read)) == serialize(read)
        assert len(table.depth) > 1
    select([sub, loaded], p)
    evaluate_view(sides, sides.domain.point((4, 2)), 30.0, 120.0)
    assert loaded == sub
    assert combine(loaded, sub, "ratio") == derived[0] != derived[1]
    assert made == twin != sub
    assert calls == []
    assert not any("root" in vars(read) for read in (sub, loaded, sides, made, *derived))


def test_root_is_assembled_once_and_kept(built):
    sub, _, calls = built
    assert sub.root is sub.root
    assert calls == [1]


def test_assembled_tree_equals_the_tree_its_levels_came_from():
    rng = np.random.default_rng(41)
    for extents in ((16, 16), (9, 5, 3), (40,)):
        root = tree(GridDomain(extents), random_leaves(rng, GridDomain(extents), arity=2))
        sub = Subdivision(GridDomain(extents), 2, root)
        assert "root" not in vars(sub)
        assert sub.root == root and sub.root is not root


def test_level_made_meshes_round_trip_through_their_tree():
    rng = np.random.default_rng(43)
    for extents, arity in (((16, 16), 1), ((9, 5, 3), 2), ((40,), 4), ((1, 7), 1)):
        domain = GridDomain(extents)
        leaves = random_leaves(rng, domain, arity, split_prob=0.7)
        sub = leveled(domain, arity, leaves, {"note": "x"})
        again = Subdivision(domain, arity, sub.root, sub.metadata)
        assert again == sub and serialize(again) == serialize(sub)
        assert sub.root == tree(domain, leaves)


def test_leaf_arrays_of_a_childless_branch():
    # A branch whose children are not the split of its box is refused.  At the
    # parent, the misordered branch read [2, 2, 1, 1] by to_dense and 1, 1, 2, 2 by
    # evaluate, and each tree was written as a file that the reader refuses.
    dom = GridDomain((4,))
    box = dom.root_cuboid()
    lo, hi = box.split()
    one, two = Leaf(hi, (1.0,), 1, (1.0,), (1.0,)), Leaf(lo, (2.0,), 1, (2.0,), (2.0,))
    cell = GridCuboid((0,), (1,))
    for root in (Branch(box, (Branch(lo, ()), one)),
                 Branch(box, (one, two)),
                 Branch(box, (two,)),
                 Branch(box, (Branch(lo, (Branch(cell, (Leaf(cell, (1.0,), 1, (1.0,),
                                                              (1.0,)),)),
                                          Leaf(GridCuboid((1,), (2,)), (1.0,), 1, (1.0,),
                                               (1.0,)))), one))):
        with pytest.raises(ValueError):
            Subdivision(dom, 1, root)
    assert leaf_arrays(Subdivision(dom, 1, Branch(box, (two, one)))).lo.tolist() == [[0], [2]]


def test_samples_of_a_hand_built_leaf_are_a_count():
    # At the parent, samples=2.5 was kept as 2, and True as 1.
    dom = GridDomain((4,))
    for samples, error in ((2.5, TypeError), (True, TypeError), (np.int64(2), TypeError),
                           (-1, ValueError)):
        with pytest.raises(error):
            Subdivision(dom, 1, Leaf(dom.root_cuboid(), (1.0,), samples, (1.0,), (1.0,)))
    sub = Subdivision(dom, 1, Leaf(dom.root_cuboid(), (1.0,), 0, (1.0,), (1.0,)))
    assert sub.levels[0].samples.tolist() == [0]


def test_a_leaf_of_another_arity_is_refused():
    # Read as levels, the first two trees held the dense values [5, 5, 6, 6] and
    # [1, 1, 1, 1], and each was written as a file that the reader refuses.
    dom = GridDomain((4,))
    box = dom.root_cuboid()
    lo, hi = box.split()
    two = (5.0, 6.0)
    for root in (Branch(box, (Leaf(lo, (), 1, (), ()), Leaf(hi, two, 1, two, two))),
                 Leaf(box, (1.0, 2.0), 1, (1.0, 2.0), (1.0, 2.0)),
                 Leaf(box, (1.0,), 2, (1.0,), (1.0, 2.0))):
        with pytest.raises(ValueError):
            Subdivision(dom, 1, root)


@pytest.mark.parametrize("value", [np.float32(0.5), np.int64(3), None, "1.0", [1.0]])
def test_serialize_refuses_what_is_not_a_json_number(value):
    dom = GridDomain((4,))
    with pytest.raises(TypeError):
        Subdivision(dom, 1, Leaf(dom.root_cuboid(), (value,), 0, (0.0,), (0.0,)))


def test_extremes_share_the_value_only_when_bit_for_bit_equal():
    # A one-sample leaf of value -0.0 whose samples' maximum was written as 0.0,
    # as in the golden file special_floats_1d.json.
    one = np.ones(1, dtype=bool)
    level = Level(np.array([[0]]), np.array([[8]]), one, np.zeros(0, dtype=np.int64),
                  np.array([[-0.0]]), np.array([[-0.0]]), np.array([[0.0]]),
                  np.ones(1, dtype=np.int64), ~one, ~one)
    root = Subdivision(GridDomain((8,)), 1, levels=[level]).root
    assert root.lo_seen is root.value
    assert math.copysign(1.0, root.hi_seen[0]) == 1.0


def with_value(sub: Subdivision, index: int, value: tuple) -> Subdivision:
    """``sub`` made again from its leaves, with its ``index``-th leaf (depth first) holding
    ``value``."""
    leaves = [leaf for leaf, _ in walk_leaves(sub)]
    leaves[index] = leaves[index]._replace(value=value)
    return leveled(sub.domain, sub.value_arity, leaves, sub.metadata)


@PROPERTY_SETTINGS
@given(trees(), st.integers(0, 2**16), st.floats(-1e3, 1e3))
def test_equality_of_levels_is_equality_of_trees(pair, index, shift):
    (a, b), arity = pair
    index %= len(leaf_arrays(a).depth)
    value = walk_leaves(a)[index][0].value
    zeros = [with_value(a, index, (zero,) * arity) for zero in (0.0, -0.0)]
    for x, y in ((a, b), (a, deserialize(serialize(a))), (a, with_value(a, index, value)),
                 (a, with_value(a, index, tuple(v + shift for v in value))), zeros):
        assert (x == y) == (x.root == y.root)
    assert a == deserialize(serialize(a)) and zeros[0] == zeros[1]

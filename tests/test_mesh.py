"""Subdivision trees: evaluation, traversal, serialization."""

import json

import numpy as np
import pytest

from helpers import dense_eval, random_subdivision
from meshprof.domain import GridCuboid, GridDomain
from meshprof.errors import MeshFormatError, OutOfDomainError
from meshprof.mesh import (
    Branch,
    Leaf,
    Subdivision,
    constant,
    descend,
    deserialize,
    evaluate,
    leaf_arrays,
    serialize,
    to_dense,
)


def one_split_tree(values=(1.0, 5.0, 2.0, 4.0)):
    dom = GridDomain((4, 4))
    root_box = dom.root_cuboid()
    kids = tuple(
        Leaf(b, (v,), 1, (v,), (v,)) for b, v in zip(root_box.split(), values)
    )
    return Subdivision(dom, 1, Branch(root_box, kids))


def test_constant_tree_evaluates_everywhere():
    dom = GridDomain((8, 8))
    sub = constant(dom, (7.0,))
    for index in ((0, 0), (3, 5), (7, 7)):
        assert evaluate(sub, dom.point(index)) == (7.0,)


def test_out_of_domain_point_rejected():
    sub = constant(GridDomain((4, 4)), (0.0,))
    other = GridDomain((8, 8))
    with pytest.raises(OutOfDomainError):
        evaluate(sub, other.point((6, 6)))


def test_evaluate_matches_leaf_scan():
    rng = np.random.default_rng(11)
    for trial in range(15):
        dom = GridDomain(tuple(int(e) for e in rng.integers(1, 17, size=rng.integers(1, 4))))
        sub = random_subdivision(rng, dom)
        oracle = dense_eval(sub)
        for index in np.ndindex(*dom.extents):
            assert evaluate(sub, dom.point(index))[0] == oracle[index]


def test_leaves_partition_and_order():
    sub = one_split_tree()
    got = leaf_arrays(sub)
    assert got.lo.tolist() == [[0, 0], [0, 2], [2, 0], [2, 2]]
    assert got.depth.tolist() == [1, 1, 1, 1]
    assert got.value.tolist() == [[1.0], [5.0], [2.0], [4.0]]
    assert (got.hi - got.lo).prod(axis=1).sum() == sub.domain.cell_count


def test_leaf_tiling_is_exact_on_random_trees():
    rng = np.random.default_rng(23)
    for _ in range(10):
        dom = GridDomain(tuple(int(e) for e in rng.integers(2, 33, size=2)))
        sub = random_subdivision(rng, dom)
        covered = np.zeros(dom.extents, dtype=int)
        got = leaf_arrays(sub)
        for lo, hi in zip(got.lo, got.hi):
            covered[tuple(map(slice, lo, hi))] += 1
        assert np.all(covered == 1)


def test_descend_step_count_bounded_by_depth():
    rng = np.random.default_rng(9)
    dom = GridDomain((256, 256))
    sub = random_subdivision(rng, dom, split_prob=0.7, max_depth=8)
    d = leaf_arrays(sub).depth.max()
    assert d <= 8
    for _ in range(50):
        index = tuple(int(i) for i in rng.integers(0, 256, size=2))
        _, steps = descend(sub, dom.point(index))
        assert steps <= d


def test_depth_bound_halving_all_axes_together():
    # All splittable axes halve in one step, so depth is governed by the
    # largest axis alone, not the sum over axes.
    rng = np.random.default_rng(17)
    for extents in ((64, 4), (33, 33), (128, 2, 2)):
        sub = random_subdivision(rng, GridDomain(extents), split_prob=1.0, max_depth=99)
        assert leaf_arrays(sub).depth.max() == max(int(np.ceil(np.log2(e))) for e in extents)


def test_to_dense_matches_evaluate():
    rng = np.random.default_rng(5)
    sub = random_subdivision(rng, GridDomain((12, 7)), arity=2)
    dense = to_dense(sub)
    assert dense.shape == (12, 7, 2)
    assert np.array_equal(dense, dense_eval(sub))


class TestSerialization:
    def test_single_leaf_roundtrip(self):
        sub = constant(GridDomain((4, 4), origin=(1.0, 2.0), cell_size=(0.5, 0.5)), (7.5,))
        assert deserialize(serialize(sub)) == sub

    def test_large_tree_roundtrip_bit_exact(self):
        rng = np.random.default_rng(31)
        dom = GridDomain((64, 64))
        sub = random_subdivision(rng, dom, split_prob=0.75, max_depth=6,
                                 value_scale=1e-3)
        again = deserialize(serialize(sub))
        assert again == sub
        assert len(leaf_arrays(again).depth) == len(leaf_arrays(sub).depth)

    def test_awkward_floats_roundtrip(self):
        dom = GridDomain((2,))
        for v in (0.1, 1e-300, 1e300, -0.0, np.pi):
            sub = constant(dom, (float(v),))
            got = deserialize(serialize(sub))
            assert got.root.value == (v,)

    def test_metadata_carried(self):
        sub = constant(GridDomain((2, 2)), (0.0,))
        tagged = Subdivision(sub.domain, 1, sub.root, {"note": "x"})
        assert deserialize(serialize(tagged)).metadata == {"note": "x"}

    def test_wrong_child_count_is_named_error(self):
        doc = json.loads(serialize(one_split_tree()))
        doc["root"]["children"] = doc["root"]["children"][:3]
        with pytest.raises(MeshFormatError) as err:
            deserialize(json.dumps(doc))
        assert "children" in str(err.value)

    def test_wrong_box_rejected(self):
        doc = json.loads(serialize(one_split_tree()))
        doc["root"]["children"][0]["box"]["hi"] = [3, 3]
        with pytest.raises(MeshFormatError):
            deserialize(json.dumps(doc))

    def test_nonfinite_value_rejected(self):
        doc = json.loads(serialize(constant(GridDomain((2, 2)), (1.0,))))
        doc["root"]["value"] = [float("nan")]
        text = json.dumps(doc).replace("NaN", "1e999")
        with pytest.raises(MeshFormatError):
            deserialize(text)

    def test_garbage_rejected(self):
        with pytest.raises(MeshFormatError):
            deserialize("{not json")
        with pytest.raises(MeshFormatError):
            deserialize(json.dumps({"domain": {"extents": [2]}}))

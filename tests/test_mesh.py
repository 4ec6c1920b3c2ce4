"""Subdivision trees: evaluation, traversal, serialization, and the levels a build keeps."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from helpers import dense_eval, random_subdivision, random_tree, walk_leaves
from meshprof import mesh
from meshprof.analysis import (CostModel, UnitCost, combine, cost_estimate, error_vs_oracle,
                               evaluate_view, select, selection_map, weighted_average)
from meshprof.builder import BuildConfig, SupNormSampling, build
from meshprof.domain import GridCuboid, GridDomain
from meshprof.errors import MeshFormatError, OutOfDomainError
from meshprof.export import leaf_csv
from meshprof.fixtures import resolve_fixture
from meshprof.mesh import (
    Branch,
    Leaf,
    Level,
    Subdivision,
    constant,
    deserialize,
    evaluate,
    leaf_arrays,
    serialize,
    serialize_pieces,
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


# hand_built_mixed_2d.json holds a NaN value, which the reader refuses.
GOLDEN = sorted(p for p in (Path(__file__).parent / "data" / "mesh_v1").glob("*.json")
                if p.name != "hand_built_mixed_2d.json")


@pytest.mark.parametrize("path", GOLDEN, ids=lambda p: p.name)
def test_evaluate_is_the_batch_lookup_bit_for_bit(path):
    text = path.read_text()
    sub, twin = deserialize(text), deserialize(text)
    rng = np.random.default_rng(29)
    cells = np.column_stack([rng.integers(0, e, size=40) for e in sub.domain.extents])
    rows = mesh._leaf_rows(sub, cells)
    values = np.concatenate([level.value for level in sub.levels])
    leaves = [leaf for leaf, _ in walk_leaves(sub)]
    for cell, row in zip(map(tuple, cells.tolist()), rows.tolist()):
        got = np.array(evaluate(sub, sub.domain.point(cell)), dtype=np.float64)
        assert got.tobytes() == values[row].tobytes()
        holder, = (leaf for leaf in leaves
                   if all(lo <= c < hi for c, lo, hi in zip(cell, leaf.box.lo, leaf.box.hi)))
        assert got.tobytes() == np.array(holder.value, dtype=np.float64).tobytes()
    # The lookup's tables, kept on the subdivision, take no part in == or the writer.
    assert "_lookup" in vars(sub) and "_lookup" not in vars(twin)
    assert sub == twin and twin == sub
    assert serialize(sub) == serialize(twin)


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


class TestLevels:
    """A build keeps its levels; the tree is assembled only when ``root`` is read."""

    CONFIG = BuildConfig(threshold=(2.0,), policy=SupNormSampling(1.0))

    @pytest.fixture
    def built(self, monkeypatch):
        """A 32x32 ramp build, and a list that records each call of the assembler."""
        calls = []
        assemble = mesh._assemble
        monkeypatch.setattr(mesh, "_assemble", lambda levels: calls.append(1) or assemble(levels))
        dom = GridDomain((32, 32))
        profile = resolve_fixture("ramp", dom)
        sub, _ = build(profile, dom, self.CONFIG)
        return sub, profile, calls

    def test_readers_of_a_build_assemble_no_tree(self, built):
        sub, profile, calls = built
        loaded = deserialize(serialize(build(profile, sub.domain, self.CONFIG)[0]))
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

    def test_root_is_assembled_once_and_kept(self, built):
        sub, _, calls = built
        assert sub.root is sub.root
        assert calls == [1]

    def test_build_equals_its_round_trip(self, built):
        sub, _, _ = built
        again = deserialize(serialize(sub))
        assert "root" not in vars(again)
        assert again == sub
        assert serialize(again) == serialize(sub)

    def test_levels_of_a_tree_are_one_per_depth_in_split_order(self):
        sub = one_split_tree()
        top, below = sub.levels
        assert top.leaf.tolist() == [False] and top.children.tolist() == [4]
        assert below.leaf.tolist() == [True] * 4 and below.children.tolist() == []
        assert below.lo.tolist() == [[0, 0], [0, 2], [2, 0], [2, 2]]
        assert below.value.tolist() == [[1.0], [5.0], [2.0], [4.0]]

    def test_assembled_tree_equals_the_tree_its_levels_came_from(self):
        rng = np.random.default_rng(41)
        for extents in ((16, 16), (9, 5, 3), (40,)):
            tree = random_tree(rng, GridDomain(extents), arity=2)
            sub = Subdivision(GridDomain(extents), 2, tree)
            assert "root" not in vars(sub)
            assert sub.root == tree and sub.root is not tree

    def test_leaf_arrays_of_a_childless_branch(self):
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

    def test_samples_of_a_hand_built_leaf_are_a_count(self):
        # At the parent, samples=2.5 was kept as 2, and True as 1.
        dom = GridDomain((4,))
        for samples, error in ((2.5, TypeError), (True, TypeError), (np.int64(2), TypeError),
                               (-1, ValueError)):
            with pytest.raises(error):
                Subdivision(dom, 1, Leaf(dom.root_cuboid(), (1.0,), samples, (1.0,), (1.0,)))
        sub = Subdivision(dom, 1, Leaf(dom.root_cuboid(), (1.0,), 0, (1.0,), (1.0,)))
        assert sub.levels[0].samples.tolist() == [0]

    def test_a_leaf_of_another_arity_is_refused(self):
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

    def test_extremes_share_the_value_only_when_bit_for_bit_equal(self):
        # A one-sample leaf of value -0.0 whose samples' maximum was written as 0.0,
        # as in the golden file special_floats_1d.json.
        one = np.ones(1, dtype=bool)
        level = Level(np.array([[0]]), np.array([[8]]), one, np.zeros(0, dtype=np.int64),
                      np.array([[-0.0]]), np.array([[-0.0]]), np.array([[0.0]]),
                      np.ones(1, dtype=np.int64), ~one, ~one)
        root = Subdivision(GridDomain((8,)), 1, levels=[level]).root
        assert root.lo_seen is root.value
        assert math.copysign(1.0, root.hi_seen[0]) == 1.0
        text = serialize(Subdivision(GridDomain((8,)), 1, levels=[level]))
        assert '"hi_seen": [\n      0.0\n    ]' in text

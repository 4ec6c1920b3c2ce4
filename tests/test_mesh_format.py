"""The v1 mesh JSON format: a golden corpus, the writer against its oracle encoder.

Each file under ``tests/data/mesh_v1/`` but one is the v1 text of one
subdivision from ``corpus()``, written by the v1 writer when the corpus was
added.  ``serialize`` must reproduce every such file byte for byte, and each
must load back to the same subdivision.  The files are fixed on purpose: a
writer change that alters one of them changes the format.  The other file,
``hand_built_mixed_2d.json``, holds numbers that no subdivision holds, and
stays as a file that the reader must refuse.  To add a case, add it to
``corpus()`` and write only the new file, from the repository root, with
``PYTHONPATH=src python tests/test_mesh_format.py NAME``.  The file under
``refusals/`` pins how the reader refuses each mutation of the loadable files.
"""

import json
import math
import re
import sys
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import oracle_doc, random_subdivision
from meshprof import mesh
from meshprof.analysis import combine
from meshprof.builder import BuildConfig, SupNormSampling, build
from meshprof.domain import GridDomain
from meshprof.errors import MeshFormatError
from meshprof.fixtures import resolve_fixture
from meshprof.mesh import (Branch, Leaf, Subdivision, constant, deserialize, serialize,
                           serialize_pieces)

CORPUS_DIR = Path(__file__).resolve().parent / "data" / "mesh_v1"


def built(token, domain, threshold, seed=0):
    profile = resolve_fixture(token, domain)
    config = BuildConfig(threshold=(threshold,) * profile.arity, policy=SupNormSampling(1.0),
                         seed=seed)
    return build(profile, domain, config)[0]


def halves(box, leaf_fields):
    """``box`` split in two, then each half in two, with one leaf per quarter."""
    quarters = [q for half in box.split() for q in half.split()]
    leaves = [Leaf(q, *fields) for q, fields in zip(quarters, leaf_fields)]
    return Branch(box, tuple(Branch(half, tuple(leaves[2 * i:2 * i + 2]))
                             for i, half in enumerate(box.split())))


def corpus() -> dict:
    """File name -> the tree whose v1 text the file holds."""
    line = GridDomain((37,), origin=(-2.5,), cell_size=(0.25,))
    plane = GridDomain((6, 5), origin=(10.0, -3.5), cell_size=(0.5, 2.0))
    cube = GridDomain((5, 4, 3), origin=(1.0, 2.0, -1.0), cell_size=(0.5, 0.5, 2.0))
    numerator = built("ramp", GridDomain((8, 8)), 3.0)
    denominator = built("step:1:4", GridDomain((8, 8)), 0.5)
    floats = GridDomain((8,))
    return {
        "line_ramp_1d.json": built("ramp", line, 1.5, seed=3),
        "plane_arity4_2d.json": random_subdivision(np.random.default_rng(1), plane, arity=4,
                                                   split_prob=0.7, max_depth=2),
        "cube_step_3d.json": built("step:5:2", cube, 0.5, seed=1),
        "spike_saturated_1d.json": built("spike:4", GridDomain((32,)), 0.1, seed=2),
        "ratio_derived_2d.json": combine(numerator, denominator, "ratio"),
        "constant_empty_metadata_2d.json": constant(GridDomain((3, 3)), (7.5,)),
        "special_floats_1d.json": Subdivision(
            floats, 1,
            halves(floats.root_cuboid(), [((-0.0,), 1, (-0.0,), (0.0,)),
                                          ((5e-324,), 2, (0.0,), (1e-323,)),
                                          ((1e16,), 1, (1e16,), (1e16,)),
                                          ((0.1,), 4, (1e-7,), (0.1,))]),
            {"fixture": "hand-built", "note": "Größe – 視界",
             "nested": {"名前": ["ü", 1, 2.5, None, True], "empty": {}, "list": []}}),
    }


def golden(name: str) -> str:
    return (CORPUS_DIR / name).read_text(encoding="utf-8")


# The one golden file the reader must refuse: its leaf holds a JSON ``true``.  It was
# written from a hand-built tree of ints, bools and floats; a subdivision now holds its
# leaves' numbers as floats, so no writer makes it.
UNLOADABLE = {"hand_built_mixed_2d.json": "$.root.value[1]"}


@pytest.mark.parametrize("name", sorted(corpus()))
def test_serialize_reproduces_golden_file(name):
    sub = corpus()[name]
    assert serialize(sub) == golden(name)
    assert serialize(sub) == json.dumps(oracle_doc(sub), indent=2)


@pytest.mark.parametrize("name", sorted(corpus()))
def test_golden_file_loads_and_writes_back(name):
    text = golden(name)
    again = deserialize(text)
    assert serialize(again) == text


@pytest.mark.parametrize("name", sorted(corpus()))
def test_golden_file_loads_three_nodes_of_a_depth_at_a_time(name, monkeypatch):
    text = golden(name)
    whole = deserialize(text)
    monkeypatch.setattr(mesh, "_READ_NODES", 3)
    again = deserialize(text)
    assert serialize(again) == text
    for a, b in zip(again.levels, whole.levels, strict=True):
        assert all(np.array_equal(x, y) and x.dtype == y.dtype and x.shape == y.shape
                   for x, y in zip(a, b))


@pytest.mark.parametrize("name", sorted(UNLOADABLE))
def test_golden_file_outside_the_reader_is_refused(name):
    with pytest.raises(MeshFormatError) as err:
        deserialize(golden(name))
    assert err.value.path == UNLOADABLE[name]


def test_corpus_covers_its_cases():
    trees = corpus()
    texts = {name: golden(name) for name in trees}
    assert {t.domain.ndim for t in trees.values()} == {1, 2, 3}
    assert {t.value_arity for t in trees.values()} >= {1, 4}
    assert '"saturated": true' in texts["spike_saturated_1d.json"]
    assert '"degenerate": true' in texts["ratio_derived_2d.json"]
    assert '"samples": 0' in texts["ratio_derived_2d.json"]
    assert '"metadata": {}' in texts["constant_empty_metadata_2d.json"]
    for spelled in ("-0.0", "5e-324", "1e+16", "1e-07", "0.1", "\\u00df"):
        assert spelled in texts["special_floats_1d.json"]


@pytest.mark.parametrize("value", [(math.nan,), (math.inf, -math.inf), (np.float64("-inf"),),
                                   (), (2**70, False), (np.float64(1e-310), -0.0)])
def test_serialize_spells_every_number_as_json_does(value):
    dom = GridDomain((4,))
    lo, hi = dom.root_cuboid().split()
    first, second = lo.split()
    for root in (Leaf(dom.root_cuboid(), value, 0, value, value),
                 Branch(dom.root_cuboid(), (Leaf(lo, value, 1, value, value),
                                            Leaf(hi, value, 2, value, value))),
                 Branch(dom.root_cuboid(), (Branch(lo, (Leaf(first, value, 3, value, value),
                                                        Leaf(second, value, 1, value, value))),
                                            Leaf(hi, value, 0, value, value)))):
        if not value:
            with pytest.raises(ValueError):
                Subdivision(dom, len(value), root)
            continue
        sub = Subdivision(dom, len(value), root)
        assert serialize(sub) == json.dumps(oracle_doc(sub), indent=2)


@pytest.mark.parametrize("value", [np.float32(0.5), np.int64(3), None, "1.0", [1.0]])
def test_serialize_refuses_what_is_not_a_json_number(value):
    dom = GridDomain((4,))
    with pytest.raises(TypeError):
        Subdivision(dom, 1, Leaf(dom.root_cuboid(), (value,), 0, (0.0,), (0.0,)))


# -- The text in pieces -------------------------------------------------------


def node_texts(text: str) -> list[str]:
    """``text`` cut before each node's opening brace: every cut holds one node's text."""
    return re.split(r'(?=\{\n *"box")', text)


@pytest.mark.parametrize("bound", [None, 1, 200, 2000])
@pytest.mark.parametrize("name", sorted(corpus()))
def test_pieces_join_to_the_golden_file(name, bound, monkeypatch):
    if bound is not None:
        monkeypatch.setattr(mesh, "_PIECE_CHARS", bound)
    sub = corpus()[name]
    pieces = list(serialize_pieces(sub))
    assert "".join(pieces) == serialize(sub) == golden(name)
    if bound is None:
        assert len(pieces) == 1  # every corpus file is far below a mebibyte
    assert all(pieces)


@pytest.mark.parametrize("bound", [1, 500, 5000, 50000])
def test_no_piece_passes_the_bound_by_more_than_one_node(bound, monkeypatch):
    sub = random_subdivision(np.random.default_rng(4), GridDomain((32, 32)), arity=2,
                             split_prob=1.0, max_depth=4)
    text = serialize(sub)
    longest = max(map(len, node_texts(text)))
    monkeypatch.setattr(mesh, "_PIECE_CHARS", bound)
    pieces = list(serialize_pieces(sub))
    assert "".join(pieces) == text
    assert len(pieces) > 1
    assert all(len(piece) < bound + longest for piece in pieces)
    # Only the last piece may stop short of the bound.
    assert all(len(piece) >= bound for piece in pieces[:-1])


@pytest.mark.parametrize("name", sorted(corpus()))
def test_a_piece_is_handed_out_when_it_reaches_the_bound(name, monkeypatch):
    """A bound of exactly the text before the root, or before the root's first child,
    ends the first piece there."""
    texts = node_texts(golden(name))
    for k in (1, 2):
        monkeypatch.setattr(mesh, "_PIECE_CHARS", len("".join(texts[:k])))
        assert next(serialize_pieces(corpus()[name])) == "".join(texts[:k])


@pytest.mark.parametrize("bound", [None, 1, 300, 5000])
def test_a_depth_62_line_round_trips_in_pieces(bound, monkeypatch):
    """The writer's walk descends once per depth: a line of 2**62 cells, cut down to
    single cells with the branch on the high and the low child in turn, is written in
    pieces that join to the oracle's text, and the reader loads it back equal."""
    lo, hi, shape = np.zeros((1, 1), dtype=np.int64), np.full((1, 1), 2**62), []
    while True:
        leaf = np.ones(len(lo), dtype=bool)
        if len(shape) < 62:
            leaf[len(shape) % len(lo)] = False
        below_lo, below_hi, children = mesh._split_bounds(lo[~leaf], hi[~leaf])
        shape.append((lo, hi, leaf, children))
        if leaf.all():
            break
        lo, hi = below_lo, below_hi
    sub = mesh._derived(GridDomain((2**62,)), shape, np.arange(63.0)[:, None])
    assert len(sub.levels) == 63 and (shape[-1][1] - shape[-1][0]).tolist() == [[1], [1]]
    if bound is not None:
        monkeypatch.setattr(mesh, "_PIECE_CHARS", bound)
    pieces = list(serialize_pieces(sub))
    text = "".join(pieces)
    assert text == json.dumps(oracle_doc(sub), indent=2)
    assert all(pieces) and all(len(piece) >= (bound or 0) for piece in pieces[:-1])
    assert len(pieces) == 1 if bound is None else len(pieces) > 1
    loaded = deserialize(text)
    assert loaded == sub and serialize(loaded) == text


FLOATS = st.floats(width=64) | st.sampled_from(
    [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, math.inf, -math.inf, math.nan])


@st.composite
def level_made(draw):
    """A subdivision made from levels: the shape of a ``random_subdivision`` tree in 1-3
    dimensions, with arity 1-4 and drawn leaf fields."""
    ndim = draw(st.integers(1, 3))
    extents = tuple(draw(st.lists(st.integers(1, 40 if ndim == 1 else 9),
                                  min_size=ndim, max_size=ndim)))
    arity = draw(st.integers(1, 4))
    shape = random_subdivision(np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
                               GridDomain(extents), arity, draw(st.floats(0.0, 1.0)),
                               draw(st.integers(0, 6)))
    levels = []
    for level in shape.levels:
        k = len(level.value)
        rows = [np.array(draw(st.lists(FLOATS, min_size=k * arity, max_size=k * arity)),
                         dtype=np.float64).reshape(k, arity) for _ in range(3)]
        samples = np.array(draw(st.lists(st.integers(0, 2**63 - 1), min_size=k, max_size=k)),
                           dtype=np.int64)
        flags = [np.array(draw(st.lists(st.booleans(), min_size=k, max_size=k)), dtype=bool)
                 for _ in range(2)]
        levels.append(level._replace(value=rows[0], lo_seen=rows[1], hi_seen=rows[2],
                                     samples=samples, saturated=flags[0], degenerate=flags[1]))
    return Subdivision(shape.domain, arity, metadata={"drawn": True}, levels=levels)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(level_made(), st.integers(1, 3000))
def test_levels_are_written_as_the_oracle_writes_their_tree(sub, bound):
    text = serialize(sub)
    assert "root" not in vars(sub)
    assert text == json.dumps(oracle_doc(sub), indent=2)
    longest = max(map(len, node_texts(text)))
    with patch.object(mesh, "_PIECE_CHARS", bound):
        pieces = list(serialize_pieces(sub))
    assert "".join(pieces) == text
    assert all(len(piece) < bound + longest for piece in pieces)
    assert all(len(piece) >= bound for piece in pieces[:-1])


# -- Malformed documents ------------------------------------------------------


def document(name: str) -> dict:
    return json.loads(golden(name))


def rejected(doc) -> MeshFormatError:
    with pytest.raises(MeshFormatError) as err:
        deserialize(json.dumps(doc))
    return err.value


def leaf_docs(node: dict):
    if "children" in node:
        for child in node["children"]:
            yield from leaf_docs(child)
    else:
        yield node


@pytest.mark.parametrize("text", ["[" * 100000, '{"domain": ' * 100000, "1" * 5000],
                         ids=["deep-array", "deep-object", "long-integer"])
def test_unreadable_json_is_a_format_error(text):
    with pytest.raises(MeshFormatError) as err:
        deserialize(text)
    assert err.value.path == "$"


@pytest.mark.parametrize("key, value, path", [
    ("extents", [1.5], "$.domain.extents[0]"),
    ("extents", [True], "$.domain.extents[0]"),
    ("extents", [0], "$.domain"),
    ("origin", ["nan"], "$.domain.origin[0]"),
    ("origin", [None], "$.domain.origin[0]"),
    ("cell_size", [float("nan")], "$.domain.cell_size[0]"),
    ("cell_size", [10**400], "$.domain.cell_size[0]"),
    ("cell_size", [-0.25], "$.domain"),
])
def test_bad_domain_is_named(key, value, path):
    doc = document("line_ramp_1d.json")
    doc["domain"][key] = value
    assert rejected(doc).path == path


@pytest.mark.parametrize("key, value", [
    ("samples", True), ("samples", -1), ("samples", 2.0),
    ("saturated", 1), ("degenerate", "yes"), ("value", [True]), ("hi_seen", ["0.5"]),
])
def test_bad_leaf_field_is_named(key, value):
    doc = document("line_ramp_1d.json")
    next(leaf_docs(doc["root"]))[key] = value
    assert rejected(doc).path.startswith("$.root.children[0]")


@pytest.mark.parametrize("value", [True, 0, 2.0, "1"])
def test_bad_value_arity_is_named(value):
    doc = document("line_ramp_1d.json")
    doc["value_arity"] = value
    assert rejected(doc).path == "$.value_arity"


@pytest.mark.parametrize("name", ["plane_arity4_2d.json", "constant_empty_metadata_2d.json"])
def test_value_arity_past_the_text_is_named(name):
    # No leaf could spell that many components; numpy could not hold one empty row of them.
    doc = document(name)
    doc["value_arity"] = 2**62
    assert rejected(doc).path == "$.value_arity"


def test_children_of_a_single_cell_box_are_refused():
    doc = document("spike_saturated_1d.json")
    leaf = next(leaf for leaf in leaf_docs(doc["root"]) if leaf.get("saturated"))
    assert leaf["box"]["hi"][0] - leaf["box"]["lo"][0] == 1
    leaf["children"] = [dict(leaf), dict(leaf)]
    assert rejected(doc).path.endswith(".children")


def test_leaves_an_ulp_or_two_outside_their_samples_still_load():
    # Meshes written before leaf means were clamped into their sample range.
    doc = document("line_ramp_1d.json")
    leaf = next(leaf_docs(doc["root"]))
    outside = math.nextafter(math.nextafter(leaf["hi_seen"][0], math.inf), math.inf)
    leaf["value"] = [outside]
    loaded = deserialize(json.dumps(doc)).root
    while isinstance(loaded, Branch):
        loaded = loaded.children[0]
    assert loaded.value == (outside,) and loaded.hi_seen[0] < outside


LOADABLE = sorted(corpus())
KINDS = {"integer": 7, "number": 2.5, "bool": True, "string": "x", "null": None,
         "array": [], "object": {}}


def kind(value) -> str:
    for name, types in (("bool", bool), ("integer", int), ("number", float), ("string", str),
                        ("array", list), ("object", dict)):
        if isinstance(value, types):
            return name
    return "null"


def sites(doc, path=()):
    """(path, value) of the document and everything in it, except inside metadata."""
    yield path, doc
    children = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, value in children:
        if path == () and key == "metadata":
            yield (key,), value
        else:
            yield from sites(value, path + (key,))


def replaced(doc, path, value):
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


def mutations(doc):
    """Every (mutation, path, new value) of the six kinds the reader must refuse."""
    for path, value in sites(doc):
        if isinstance(value, list) and value:
            for keep in range(len(value)):
                yield "truncated list", path, value[:keep]
        if path and path[-1] == "children":
            yield "child count", path, value[:-1]
            yield "child count", path, value + value[:1]
        if isinstance(value, float):
            for bad in (math.nan, math.inf, -math.inf):
                yield "non-finite", path, bad
        if len(path) >= 2 and path[-2] in ("lo", "hi"):
            for delta in (-2, -1, 1, 2):
                yield "box off the tiling", path, value + delta
        if kind(value) == "integer":
            for beyond in (2**63, -2**63 - 1, 2**64):
                yield "beyond int64", path, beyond
        # A float slot takes an integer; every other swap of kind is wrong.
        allowed = {kind(value)} | ({"integer"} if isinstance(value, float) else set())
        for name, other in KINDS.items():
            if name not in allowed:
                yield "wrong type", path, other


@pytest.mark.parametrize("name", LOADABLE)
def test_every_count_beyond_int64_is_a_format_error(name):
    """Extents, the value arity and every leaf's samples; box bounds take the pinned replay."""
    doc = document(name)
    for what, path, value in mutations(doc):
        if what == "beyond int64" and "box" not in path:
            with pytest.raises(MeshFormatError) as err:
                deserialize(json.dumps(replaced(doc, path, value)))
            key = path[-1]
            assert err.value.path.endswith(f"[{key}]" if isinstance(key, int) else f".{key}")


REFUSALS = json.loads((CORPUS_DIR / "refusals" / "mutations.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("chunk", [None, 1, 2],
                         ids=["whole-depths", "one-node-at-a-time", "two-nodes-at-a-time"])
@pytest.mark.parametrize("name", LOADABLE)
def test_every_mutation_is_refused_with_its_pinned_path_and_reason(name, chunk, monkeypatch):
    """``refusals/mutations.json`` holds, per loadable file, the [path, reason] of each of
    ``mutations()`` in order: a problem is named by the first node in level order, and
    within a node by the first of its fields in the order box, children or value,
    samples, lo_seen, hi_seen, saturated, degenerate, as the per-node check names it
    once the column checks refuse a chunk.  One-node chunks name a node from every
    offset of its depth."""
    if chunk is not None:
        monkeypatch.setattr(mesh, "_READ_NODES", chunk)
    doc = document(name)
    got = []
    for what, path, value in mutations(doc):
        with pytest.raises(MeshFormatError) as err:
            deserialize(json.dumps(replaced(doc, path, value)))
        got.append([err.value.path, err.value.reason])
    assert got == REFUSALS[name]


def node_paths(node, path=("root",)):
    yield path
    for i, child in enumerate(node.get("children", ())):
        yield from node_paths(child, path + ("children", i))


def spelled(path) -> str:
    return "$" + "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path)


def node_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


NODES = [(name, path) for name in LOADABLE for path in node_paths(document(name)["root"])]
# Nodes on one cell, drawn as often again: a box that has no split.
ONE_CELL = [(name, path) for name, path in NODES
            if all(h - l == 1 for l, h in zip(*node_at(document(name), path)["box"].values()))]
NODE_KEYS = ("box", "children", "value", "samples", "lo_seen", "hi_seen", "saturated",
             "degenerate")
DELETE = object()
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.text(max_size=2) | st.integers(-3, 40) | st.integers()
    | st.sampled_from([2**63 - 1, 2**63, -2**63 - 1, 2**64, 10**400])
    | st.floats(-50, 50) | st.sampled_from([math.nan, math.inf, -math.inf, 1.0, 2.0]),
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.sampled_from(["lo", "hi", "x"]), inner, max_size=2),
    max_leaves=8)


def node_sites(node):
    """Paths in one node document to replace or delete: the node, its fields, their
    entries, and the node fields it lacks, but nothing inside its children."""
    own = [path for path, _ in sites(node) if path[:1] != ("children",) or len(path) == 1]
    return own + [(key,) for key in NODE_KEYS if key not in node]


def nearby(value) -> list:
    """Values a little off ``value``: an integer moved by one, past int64, or spelled as a
    float or a bool, and a list one entry shorter or longer."""
    if type(value) is int:
        return [value - 1, value + 1, -1, 2**63, float(value), value == 1]
    if isinstance(value, list) and value:
        return [value[:-1], value + value[:1]]
    return [value]


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_the_column_checks_refuse_exactly_what_the_per_node_check_names(data):
    """A golden node with one field replaced by a drawn JSON value, or deleted, read as a
    one-node chunk with its true box: the column checks refuse it exactly when the
    per-node check names a problem, and reading the whole document raises nothing but
    that problem as a MeshFormatError."""
    name, at = data.draw(st.sampled_from(NODES) | st.sampled_from(ONE_CELL))
    doc = document(name)
    node = node_at(doc, at)
    lo, hi = (np.array([node["box"][key]], dtype=np.int64) for key in ("lo", "hi"))
    paths = node_sites(node)
    if at == ("root",):
        paths.remove(())  # the header checks name a root that is no object `$.root`
    path = data.draw(st.sampled_from(paths))
    # A field the node lacks is drawn near a list of two objects, as children might be.
    values = JSON_VALUES | st.sampled_from(nearby(dict(sites(node)).get(path, [{}, {}])))
    value = data.draw((st.just(DELETE) | values) if path else values)
    if value is DELETE:
        mutated = json.loads(json.dumps(node))
        target = node_at(mutated, path[:-1])
        if isinstance(target, list):
            del target[path[-1]]
        else:
            target.pop(path[-1], None)
    else:
        mutated = replaced(node, path, value)
    arity = doc["value_arity"]
    problem = mesh._node_problem(mutated, lo[0].tolist(), hi[0].tolist(), arity)
    assert (mesh._read_columns([mutated], lo, hi, arity) is None) == (problem is not None)
    try:
        deserialize(json.dumps(replaced(doc, at, mutated)))
    except MeshFormatError as err:
        if problem is not None:
            assert (err.path, err.reason) == (spelled(at) + problem[0], problem[1])
    else:
        assert problem is None


def test_integers_in_float_slots_load_as_float_of_the_integer():
    doc = document("plane_arity4_2d.json")
    leaves = list(leaf_docs(doc["root"]))
    assert len(leaves) > 2
    # Ints and floats mixed in one depth and one row, past 2**53 and past int64.
    big = [2**53 + 1, 2**63 + 2**11 + 1, 2**70, -(2**64) - 1]
    leaves[0]["value"] = big
    leaves[0]["lo_seen"] = [min(big)] * 4
    leaves[0]["hi_seen"] = [max(big)] * 4
    leaves[1]["value"] = [3, 0.5, -7, 1e300]
    leaves[1]["lo_seen"] = [-7] * 4
    leaves[1]["hi_seen"] = [1e300] * 4
    loaded = mesh.leaf_arrays(deserialize(json.dumps(doc)))
    rows = {tuple(row) for row in loaded.value.tolist()}
    assert tuple(map(float, big)) in rows and (3.0, 0.5, -7.0, 1e300) in rows
    assert all(type(v) is float for row in rows for v in row)


@pytest.mark.parametrize("key, value, path, reason", [
    ("value", 10**400, ".value[0]", "not a finite number"),
    ("lo_seen", -(10**400), ".lo_seen[0]", "not a finite number"),
    ("samples", 2**63, ".samples", "expected an integer from 0 to 2**63 - 1, got 9223372036854775808"),
    ("samples", 2**63 - 1, None, None),
], ids=["value-10**400", "lo_seen--10**400", "samples-2**63", "samples-2**63-1"])
def test_integers_at_the_edges_of_their_slots(key, value, path, reason):
    doc = document("line_ramp_1d.json")
    first = next(leaf_docs(doc["root"]))
    first[key] = [value] if key != "samples" else value
    if path is None:
        assert mesh.leaf_arrays(deserialize(json.dumps(doc))).samples[0] == value
        return
    err = rejected(doc)
    assert (err.path, err.reason) == ("$.root.children[0].children[0]" + path, reason)


def test_mutations_reach_every_kind_and_key():
    doc = document("ratio_derived_2d.json")
    found = list(mutations(doc))
    assert {what for what, _, _ in found} == {"truncated list", "child count", "non-finite",
                                              "box off the tiling", "wrong type", "beyond int64"}
    keys = {path[-1] for _, path, _ in found if path and isinstance(path[-1], str)}
    assert keys >= {"domain", "extents", "origin", "cell_size", "value_arity", "metadata", "root",
                    "box", "lo", "hi", "children", "value", "samples", "lo_seen", "hi_seen",
                    "degenerate"}


def write(names) -> None:
    CORPUS_DIR.mkdir(parents=True, exist_ok=True)
    trees = corpus()
    for name in names:
        (CORPUS_DIR / name).write_text(serialize(trees[name]), encoding="utf-8")


if __name__ == "__main__":
    write(sys.argv[1:])

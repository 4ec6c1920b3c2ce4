"""The hierarchical subdivision: constant-valued leaves over grid cuboids.

A subdivision stores one piecewise-constant approximation of a profiled
quantity.  Leaves tile the domain; every internal node's children are exactly
the canonical split of its box, so lookup is a walk from the root choosing the
one child that contains the query cell.  It is held as levels, columns per
depth, in the manner of Gargantini's linear quadtree (CACM 1982): builds, the
reader and the algebra make them, and a hand-built tree becomes levels when
its subdivision is made.  The writer and ``==`` read the levels; the tree of
``root`` is assembled only when it is read, and then kept.
"""

from __future__ import annotations

import functools
import gc
import json
import math
from bisect import bisect_right
from collections import namedtuple
from dataclasses import dataclass
from itertools import chain, compress, repeat
from operator import attrgetter, contains
from typing import Union

import numpy as np

from .domain import GridCuboid, GridDomain, GridPoint, _trusted_cuboid
from .errors import MeshFormatError, OutOfDomainError


@dataclass(frozen=True)
class Leaf:
    """A constant piece: the mean of the samples that produced it.

    ``lo_seen``/``hi_seen`` are the componentwise extremes of those samples;
    ``saturated`` marks single-cell leaves that were forced by the grid floor
    rather than by the spread test passing.  Derived leaves (from combining
    trees) carry ``samples == 0``; ``degenerate`` flags a ratio leaf whose
    denominator was zero.
    """

    box: GridCuboid
    value: tuple[float, ...]
    samples: int
    lo_seen: tuple[float, ...]
    hi_seen: tuple[float, ...]
    saturated: bool = False
    degenerate: bool = False


@dataclass(frozen=True)
class Branch:
    box: GridCuboid
    children: tuple["Node", ...]


Node = Union[Leaf, Branch]


# One depth of a subdivision: its boxes' int64 bounds ``lo``/``hi``, ``leaf`` mask and
# branches' numbers of ``children``, then one row per leaf of each Leaf field.  The boxes
# are the children of the branches above, branch by branch in split order.
Level = namedtuple("Level", "lo hi leaf children value lo_seen hi_seen samples saturated degenerate")


class Subdivision:
    """A piecewise-constant approximation over a grid domain.

    ``value_arity`` is the number of components each leaf value carries
    (1 for scalar profiles, 4 for per-side directional profiles in 2D).
    ``metadata`` echoes the build configuration and sample statistics.
    Builds, the reader and the algebra pass ``levels``; a hand-built ``root`` tree is
    turned into levels here.  ``root`` is assembled from the levels on first read.
    """

    def __init__(self, domain: GridDomain, value_arity: int, root: Node | None = None,
                 metadata: dict | None = None, *, levels: tuple[Level, ...] | None = None):
        if value_arity < 1:
            raise ValueError("value arity must be >= 1")
        if levels is None:
            if root.box != domain.root_cuboid():
                raise ValueError("root box must cover the whole domain")
            levels = _tree_levels(root, domain.ndim, value_arity)
        self.domain, self.value_arity, self.metadata = domain, value_arity, metadata or {}
        self.levels = tuple(levels)

    @functools.cached_property
    def root(self) -> Node:
        return _assemble(self.levels)

    def __eq__(self, other):
        """Equal domains, arities, metadata and levels, column by column: what equality of
        the two trees means, read with no tree assembled."""
        fields = attrgetter("domain", "value_arity", "metadata")
        return (isinstance(other, Subdivision) and fields(self) == fields(other)
                and len(self.levels) == len(other.levels)
                and all(map(np.array_equal, chain(*self.levels), chain(*other.levels))))

    @functools.cached_property
    def _lookup(self) -> tuple[list[tuple[np.ndarray, ...]], list[int]]:
        """``_leaf_rows``'s tables, made on first use: per level, each node's number of
        leaves before it, and per branch its first child's node number a level down, its
        cut (``lo + extent // 2``) and the weight of each cut axis in its child's number
        (0 for an axis not cut); and each level's first level-order row."""
        tables = []
        for level in self.levels:
            lo, hi = level.lo[~level.leaf], level.hi[~level.leaf]
            can = hi - lo >= 2
            later = can.sum(axis=1, keepdims=True) - np.cumsum(can, axis=1)  # cut axes after
            tables.append((np.cumsum(level.leaf) - level.leaf,
                           np.cumsum(level.children) - level.children,
                           lo + (hi - lo) // 2, np.left_shift(can, later)))
        return tables, np.cumsum([0] + [len(level.value) for level in self.levels]).tolist()


def _tree_levels(root: Node, nd: int, m: int) -> list[Level]:
    """One ``Level`` per depth of the tree ``root``, the root's first, from one breadth-first
    pass.  Raises ValueError for a branch whose children are not the split of its box (a
    childless branch and a branch on one cell included), for a leaf whose ``value``,
    ``lo_seen`` or ``hi_seen`` does not hold ``m`` components or whose ``samples`` is
    negative, and TypeError for a leaf that holds a number that is not an int or a float,
    or a ``samples`` that is not an int."""
    def boxes(items, name: str) -> np.ndarray:
        flat = chain.from_iterable(map(attrgetter(name), items))
        return np.fromiter(flat, np.int64, len(items) * nd).reshape(len(items), nd)

    def rows(items, name: str) -> np.ndarray:
        tuples = list(map(attrgetter(name), items))
        wrong = set(map(len, tuples)) - {m}
        if wrong:
            raise ValueError(f"a leaf's {name} has {min(wrong)} components, expected {m}")
        flat = list(chain.from_iterable(tuples))
        for t in set(map(type, flat)):
            if not issubclass(t, (int, float)):
                raise TypeError(f"a leaf's {name} holds a {t.__name__}, not an int or a float")
        return np.fromiter(flat, np.float64, len(flat)).reshape(len(tuples), m)

    def counts(items) -> np.ndarray:
        samples = list(map(attrgetter("samples"), items))
        for t in set(map(type, samples)) - {int}:
            raise TypeError(f"a leaf's samples is a {t.__name__}, not an int")
        if samples and min(samples) < 0:
            raise ValueError(f"a leaf's samples is {min(samples)}, not >= 0")
        return np.array(samples, dtype=np.int64)

    levels, nodes, want = [], [root], None
    while nodes:
        leaf = np.array([isinstance(node, Leaf) for node in nodes], dtype=bool)
        leaves, branches = (list(compress(nodes, mask)) for mask in (leaf, ~leaf))
        box = [node.box for node in nodes]
        lo, hi = boxes(box, "lo"), boxes(box, "hi")
        if want is not None and not (np.array_equal(lo, want[0]) and np.array_equal(hi, want[1])):
            raise ValueError(f"the boxes at depth {len(levels)} are not the split of the "
                             f"branches above")
        children = np.array([len(branch.children) for branch in branches], dtype=np.int64)
        *want, split = _split_bounds(lo[~leaf], hi[~leaf])
        if (split == 1).any():
            raise ValueError(f"a branch at depth {len(levels)} is on one cell, which has no split")
        if not np.array_equal(children, split):
            raise ValueError(f"a branch at depth {len(levels)} does not have as many children "
                             f"as the split of its box")
        levels.append(Level(
            lo, hi, leaf, children,
            *(rows(leaves, name) for name in ("value", "lo_seen", "hi_seen")), counts(leaves),
            *(np.fromiter(map(attrgetter(name), leaves), bool, len(leaves))
              for name in ("saturated", "degenerate"))))
        nodes = [kid for branch in branches for kid in branch.children]
    return levels


def _assemble(levels: tuple[Level, ...]) -> Node:
    """The tree of ``levels``, built bottom-up; returns its root.  The tree holds no
    reference cycles, so the cyclic collector, which would only rescan the growing heap
    while it is built, is paused meanwhile."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        nodes: list[Node] = []
        for (lo, hi, leaf, children, value, lo_seen, hi_seen, samples, saturated,
             degenerate) in reversed(levels):
            boxes = list(map(_trusted_cuboid, map(tuple, lo.tolist()), map(tuple, hi.tolist())))
            bits = value.view(np.int64)
            value = list(map(tuple, value.tolist()))
            # Extremes bit for bit equal to the value, as in one-sample and derived leaves,
            # share its tuple.
            lo_seen, hi_seen = (
                [v if same else tuple(row) for v, same, row in
                 zip(value, (seen.view(np.int64) == bits).all(axis=1).tolist(), seen.tolist())]
                for seen in (lo_seen, hi_seen))
            leaves = map(Leaf, compress(boxes, leaf.tolist()), value, samples.tolist(),
                         lo_seen, hi_seen, saturated.tolist(), degenerate.tolist())
            children = iter(children.tolist())
            above, pos = [], 0
            for box, is_leaf in zip(boxes, leaf.tolist()):
                if is_leaf:
                    above.append(next(leaves))
                else:
                    n = next(children)
                    above.append(Branch(box, tuple(nodes[pos:pos + n])))
                    pos += n
            nodes = above
        return nodes[0]
    finally:
        if enabled:
            gc.enable()


def constant(domain: GridDomain, value: tuple[float, ...]) -> Subdivision:
    """A single-leaf subdivision holding ``value`` everywhere."""
    root = (np.zeros((1, domain.ndim), dtype=np.int64), np.array([domain.extents], dtype=np.int64),
            np.ones(1, dtype=bool), np.zeros(0, dtype=np.int64))
    return _derived(domain, [root], np.array([value], dtype=np.float64))


def _derived(domain: GridDomain, shape: list[tuple], value: np.ndarray,
             metadata: dict | None = None, degenerate: np.ndarray | None = None) -> Subdivision:
    """The subdivision of ``shape``, each depth's box bounds, leaf mask and child counts,
    whose leaves hold the rows of ``value`` in level order: with no samples, extremes
    equal to the value, and flagged where ``degenerate`` is true."""
    none = np.zeros(len(value), dtype=np.int64)
    degenerate = none.astype(bool) if degenerate is None else degenerate
    cuts = np.cumsum([np.count_nonzero(leaf) for _, _, leaf, _ in shape])[:-1]
    parts = [np.split(column, cuts) for column in (value, none, none.astype(bool), degenerate)]
    levels = [Level(*depth, v, v, v, n, s, d) for depth, v, n, s, d in zip(shape, *parts)]
    return Subdivision(domain, value.shape[1], metadata=metadata, levels=levels)


def evaluate(sub: Subdivision, p: GridPoint) -> tuple[float, ...]:
    """Constant value of the leaf whose box contains ``p``."""
    if not sub.domain.contains_index(p.index):
        raise OutOfDomainError(f"point {p.index} outside domain {sub.domain.extents}")
    row = int(_leaf_rows(sub, np.array([p.index], dtype=np.int64))[0])
    starts = sub._lookup[1]
    depth = bisect_right(starts, row) - 1
    return tuple(sub.levels[depth].value[row - starts[depth]].tolist())


def _leaf_rows(sub: Subdivision, cells: np.ndarray) -> np.ndarray:
    """The level-order row (that of the levels' ``value`` rows concatenated) of the leaf that
    holds each of the ``(k, ndim)`` in-domain ``cells``: point location in a linear quadtree
    (Gargantini, CACM 1982), depth by depth.  A cell's child counts in binary over its
    branch's cut axes, the first most significant, as in ``_split_bounds``."""
    rows = np.empty(len(cells), dtype=np.int64)
    # The cells still in branches and their node numbers.
    ask, node = np.arange(len(cells)), np.zeros(len(cells), dtype=np.int64)
    for level, (before, first, cut, weight), above in zip(sub.levels, *sub._lookup):
        leaf, rank = level.leaf[node], before[node]
        rows[ask[leaf]] = above + rank[leaf]
        go = ~leaf
        ask, branch = ask[go], (node - rank)[go]
        if not len(ask):
            break
        node = first[branch] + ((cells[ask] >= cut[branch]) * weight[branch]).sum(axis=1)
    return rows


def _split_bounds(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``GridCuboid.split`` of every box at once.

    Returns the children's bounds, concatenated box by box in split order,
    and each box's number of children.  Every axis of extent >= 2 is cut at
    ``lo + extent // 2``; the children of one box count in binary over its
    cut axes, the first axis most significant.
    """
    cut = lo + (hi - lo) // 2
    can = hi - lo >= 2
    children = np.left_shift(1, can.sum(axis=1))
    owner = np.repeat(np.arange(len(lo)), children)
    rank = np.arange(len(owner)) - np.repeat(np.cumsum(children) - children, children)
    lo, hi, cut, can = lo[owner], hi[owner], cut[owner], can[owner]
    for a in range(lo.shape[1] - 1, -1, -1):
        upper = rank & 1 == 1
        lo[:, a] = np.where(can[:, a] & upper, cut[:, a], lo[:, a])
        hi[:, a] = np.where(can[:, a] & ~upper, cut[:, a], hi[:, a])
        rank = np.where(can[:, a], rank >> 1, rank)
    return lo, hi, children


@dataclass(frozen=True)
class LeafArrays:
    """Every leaf of a subdivision as one row, depth-first in split order."""

    lo: np.ndarray          # (leaves, ndim) int64
    hi: np.ndarray          # (leaves, ndim) int64
    value: np.ndarray       # (leaves, arity) float64
    lo_seen: np.ndarray     # (leaves, arity) float64
    hi_seen: np.ndarray     # (leaves, arity) float64
    samples: np.ndarray     # (leaves,) int64
    saturated: np.ndarray   # (leaves,) bool
    degenerate: np.ndarray  # (leaves,) bool
    depth: np.ndarray       # (leaves,) int64, the root at 0


def leaf_arrays(sub: Subdivision) -> LeafArrays:
    """The leaves of ``sub`` as columns, read from its levels.  A leaf's row is its rank
    depth-first in split order: leaves per box are counted bottom-up, then each branch's
    children take its first rank plus their elder siblings' leaf counts, top-down."""
    levels = sub.levels
    # totals[d] is 0, then the running leaf count over depth d's boxes.
    totals = [np.zeros(1, dtype=np.int64)]
    for level in reversed(levels):
        count, ends = np.ones(len(level.leaf), np.int64), np.cumsum(level.children)
        count[~level.leaf] = totals[0][ends] - totals[0][ends - level.children]
        totals.insert(0, np.concatenate([[0], np.cumsum(count)]))
    rank, ranks = np.zeros(1, dtype=np.int64), []
    for level, below in zip(levels, totals[1:]):
        ranks.append(rank[level.leaf])
        starts = np.cumsum(level.children) - level.children
        rank = np.repeat(rank[~level.leaf] - below[starts], level.children) + below[:-1]
    row = np.argsort(np.concatenate(ranks))
    parts = [(level.lo[level.leaf], level.hi[level.leaf], *level[4:], np.full(len(r), depth))
             for depth, (level, r) in enumerate(zip(levels, ranks))]
    return LeafArrays(*(np.concatenate(column)[row] for column in zip(*parts)))


def to_dense(sub: Subdivision, max_cells: int = 10**6) -> np.ndarray:
    """Materialize the subdivision on the full grid.

    Returns an array of shape ``extents`` for scalar trees and
    ``extents + (arity,)`` otherwise.  Guarded: refuses domains larger than
    ``max_cells`` cells.
    """
    n = sub.domain.cell_count
    if n > max_cells:
        raise ValueError(f"domain has {n} cells, dense guard is {max_cells}")
    return _box_values(sub, (0,) * sub.domain.ndim, sub.domain.extents)


def _box_values(sub: Subdivision, lo, hi) -> np.ndarray:
    """``to_dense`` of the box of cells from ``lo`` to ``hi``: every leaf clipped to it, each
    clipped leaf's cells unravelled from its low corner, last axis fastest."""
    lo, hi = np.asarray(lo, dtype=np.int64), np.asarray(hi, dtype=np.int64)
    leaf = np.concatenate([level.leaf for level in sub.levels])
    low = np.maximum(np.concatenate([level.lo for level in sub.levels])[leaf], lo)
    high = np.minimum(np.concatenate([level.hi for level in sub.levels])[leaf], hi)
    widths = np.maximum(high - low, 0)  # 0 on some axis for a leaf outside the box
    sizes = widths.prod(axis=1)
    owner = np.repeat(np.arange(len(sizes)), sizes)
    rank = np.arange(len(owner)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    index = []
    for a in reversed(range(len(lo))):
        rank, offset = np.divmod(rank, widths[owner, a])
        index.insert(0, low[owner, a] - lo[a] + offset)
    out = np.empty(tuple((hi - lo).tolist()) + (sub.value_arity,), dtype=np.float64)
    out[tuple(index)] = np.concatenate([level.value for level in sub.levels])[owner]
    return out[..., 0] if sub.value_arity == 1 else out


# -- JSON serialization ---------------------------------------------------
#
# Layout:  {"domain": {...}, "value_arity": m, "metadata": {...}, "root": node}
# node:    {"box": {"lo": [...], "hi": [...]}, "children": [node, ...]}
#     or   {"box": ..., "value": [...], "samples": n,
#           "lo_seen": [...], "hi_seen": [...]}   (+ "saturated"/"degenerate": true)
#
# The text is exactly what ``json.dumps(doc, indent=2)`` makes of that layout
# from the levels' int64 and float64 columns.  The tree part is written directly:
# json's indenting encoder is pure Python and several times slower.  Floats
# use repr, which round-trips bit-exactly.  The reader checks the document a
# depth at a time, ``_READ_NODES`` nodes at a time: checks over whole columns of
# the nodes accept them, and only if one refuses are the nodes checked one by
# one, to name the first problem.


def _number(v: float) -> str:
    """A non-finite float, spelled as ``json.dumps`` spells it."""
    return "NaN" if v != v else "Infinity" if v > 0 else "-Infinity"


@functools.cache
class _Layout:
    """The constant text around one node's fields at one nesting level; one per level."""

    def __init__(self, level: int):
        i0, i1, i2, i3 = ("\n" + "  " * (level + k) for k in range(4))
        self.open = '{' + i1 + '"box": {' + i2 + '"lo": '
        self.hi = ',' + i2 + '"hi": '
        self.value = i1 + '},' + i1 + '"value": '
        self.samples = ',' + i1 + '"samples": '
        self.lo_seen = ',' + i1 + '"lo_seen": '
        self.hi_seen = ',' + i1 + '"hi_seen": '
        self.saturated = ',' + i1 + '"saturated": true'
        self.degenerate = ',' + i1 + '"degenerate": true'
        self.children = i1 + '},' + i1 + '"children": [' + i2
        self.no_children = i1 + '},' + i1 + '"children": []' + i0 + '}'
        self.child_sep = ',' + i2
        self.children_end = i1 + ']' + i0 + '}'
        self.close = i0 + '}'
        # (open, separator, close) of number arrays: box bounds sit two
        # levels in, leaf fields one.
        self.box = ('[' + i3, ',' + i3, i2 + ']')
        self.field = ('[' + i2, ',' + i2, i1 + ']')


_PIECE_CHARS = 1 << 20  # characters per piece of ``serialize_pieces``
_BLOCK = 64  # nodes of one depth spelled at a time


def _slots(n: int, start: str, sep: str, end: str) -> str:
    """The ``%`` template of an array of ``n`` numbers."""
    return start + sep.join(["%s"] * n) + end if n else "[]"


def _level_texts(level: Level, depth: int):
    """Each node of one depth as (its text, its number of children), in index order: a leaf
    or a childless branch is whole, a branch's text ends where its first child's begins.
    Spelled ``_BLOCK`` nodes at a time: numbers as Python's ints and floats, which ``%s``
    spells as ``json.dumps`` does, except non-finite floats, which ``_number`` spells; one
    ``%`` template per node."""
    f = _Layout(1 + 2 * depth)
    nd, m = level.lo.shape[1], level.value.shape[1]
    box, field = f.open + _slots(nd, *f.box) + f.hi + _slots(nd, *f.box), _slots(m, *f.field)
    leaf_text = box + f.value + field + f.samples + "%s" + f.lo_seen + field + f.hi_seen + field
    # By saturated * 2 + degenerate, and by whether a branch has children.
    leaf_templates = [leaf_text + s + d + f.close for s in ("", f.saturated)
                      for d in ("", f.degenerate)]
    branch_templates = [box + f.no_children, box + f.children]
    leaves = branches = 0
    for a in range(0, len(level.leaf), _BLOCK):
        leaf = level.leaf[a:a + _BLOCK]
        n, k = len(leaf), int(np.count_nonzero(leaf))
        own = slice(leaves, leaves + k)  # the block's leaves
        boxes = np.concatenate([level.lo[a:a + n], level.hi[a:a + n]], axis=1).astype(object)
        floats = np.concatenate([level.value[own], level.lo_seen[own], level.hi_seen[own]], axis=1)
        spelled = floats.astype(object)
        for i, j in zip(*np.nonzero(~np.isfinite(floats))):
            spelled[i, j] = _number(spelled[i, j])
        samples = level.samples[own, None].astype(object)
        cells = np.concatenate([boxes[leaf], spelled[:, :m], samples, spelled[:, m:]], axis=1)
        code = 2 * level.saturated[own] + level.degenerate[own]
        kids = level.children[branches:branches + n - k]
        texts = np.empty(n, dtype=object)
        texts[leaf] = list(map(str.__mod__, map(leaf_templates.__getitem__, code.tolist()),
                               map(tuple, cells.tolist())))
        texts[~leaf] = list(map(str.__mod__, map(branch_templates.__getitem__,
                                                 (kids > 0).tolist()),
                                map(tuple, boxes[~leaf].tolist())))
        sizes = np.zeros(n, dtype=np.int64)
        sizes[~leaf] = kids
        yield from zip(texts.tolist(), sizes.tolist())
        leaves, branches = leaves + k, branches + n - k


def serialize_pieces(sub: Subdivision):
    """The v1 text of ``sub`` in pieces of about ``_PIECE_CHARS`` characters, which join to
    ``serialize(sub)``.  A piece is handed out once it reaches the bound, so none passes it
    by more than one node's text, and the whole text is never held at once.

    The nodes are written in preorder, which meets each depth's nodes in index order, so
    each depth's level is spelled in blocks as the walk reaches them."""
    dom = sub.domain
    header = json.dumps({"domain": {"extents": list(dom.extents), "origin": list(dom.origin),
                                    "cell_size": list(dom.cell_size)},
                         "value_arity": sub.value_arity, "metadata": sub.metadata}, indent=2)
    depths = [_level_texts(level, depth) for depth, level in enumerate(sub.levels)]

    def nodes(depth: int, count: int):
        # The next ``count`` nodes of one depth, each followed by its subtree.
        for i in range(count):
            text, kids = next(depths[depth])
            yield text if i == 0 else _Layout(2 * depth - 1).child_sep + text
            if kids:
                yield from nodes(depth + 1, kids)
                yield _Layout(2 * depth + 1).children_end

    # The header ends in "\n}"; the root goes in as its last key.
    out, size = [], 0
    for item in chain([header[:-2] + ',\n  "root": '], nodes(0, 1), ["\n}"]):
        out.append(item)
        size += len(item)
        if size >= _PIECE_CHARS:
            # Neither the piece nor its parts stay referenced here once it is out.
            piece, out, size = "".join(out), [], 0
            yield piece
            del piece
    if out:
        yield "".join(out)


def serialize(sub: Subdivision) -> str:
    """The v1 JSON text of ``sub``: ``json.dumps`` of the layout above, ``indent=2``, and
    ``serialize_pieces`` joined; a writer of large meshes writes the pieces instead."""
    return "".join(serialize_pieces(sub))


def _expect(doc, key: str, types, path: str):
    if not isinstance(doc, dict):
        raise MeshFormatError(path, f"expected object, got {type(doc).__name__}")
    if key not in doc:
        raise MeshFormatError(f"{path}.{key}", "missing")
    value = doc[key]
    if not isinstance(value, types):
        raise MeshFormatError(f"{path}.{key}", f"unexpected type {type(value).__name__}")
    return value


# json.loads makes exact int, float and bool objects, so the checks below
# test exact types: JSON true and false are not integers here.  Integers
# must fit the int64 columns of the levels.

_READ_NODES = 1024  # nodes of one depth that the reader checks at a time


def _as_float(v) -> float:
    """A float slot's number as ``float`` makes it, infinity for an integer too large, and
    NaN for anything that is not a JSON number."""
    if type(v) is int:
        try:
            return float(v)
        except OverflowError:
            return math.inf
    return v if type(v) is float else math.nan


def _float_array(values: list) -> np.ndarray:
    """``values`` as float64, each as ``_as_float`` makes it."""
    if {float} >= set(map(type, values)):
        return np.array(values, dtype=np.float64)
    return np.fromiter(map(_as_float, values), np.float64, len(values))


def _domain_from_doc(doc) -> GridDomain:
    dom_doc = _expect(doc, "domain", dict, "$")
    extents = _expect(dom_doc, "extents", list, "$.domain")
    for i, e in enumerate(extents):
        if type(e) is not int or not -2**63 <= e < 2**63:
            raise MeshFormatError(f"$.domain.extents[{i}]", "not a 64-bit integer")
    floats = {}
    for key in ("origin", "cell_size"):
        floats[key] = _float_array(_expect(dom_doc, key, list, "$.domain"))
        finite = np.isfinite(floats[key])
        if not finite.all():
            raise MeshFormatError(f"$.domain.{key}[{np.argmin(finite)}]", "not a finite number")
    try:
        return GridDomain(tuple(extents), floats["origin"].tolist(), floats["cell_size"].tolist())
    except ValueError as e:
        raise MeshFormatError("$.domain", str(e)) from e


def _node_path(levels: list[Level], i: int) -> str:
    """The JSON path of node ``i`` of the depth below ``levels``."""
    steps = []
    for level in reversed(levels):
        ends = np.cumsum(level.children)
        branch = int(np.searchsorted(ends, i, side="right"))
        steps.append(f".children[{i - ends[branch] + level.children[branch]}]")
        i = int(np.flatnonzero(~level.leaf)[branch])
    return "$.root" + "".join(reversed(steps))


def _read_columns(docs: list, lo: np.ndarray, hi: np.ndarray,
                  arity: int) -> tuple[tuple, list] | None:
    """The ``Level`` columns after ``lo``/``hi`` of node documents of one depth, whose boxes
    must be ``lo``/``hi``, and the documents of their children; None if any node breaks a
    rule of ``_node_problem``.  Each check is one pass over a whole column of the nodes."""
    if {dict} != set(map(type, docs)):
        return None
    boxes = list(map(dict.get, docs, repeat("box")))
    if {dict} != set(map(type, boxes)):
        return None
    got = [list(map(dict.get, boxes, repeat(key))) for key in ("lo", "hi")]
    # Equal in value, and exact ints: JSON 1.0 and true also equal 1.
    if got != [lo.tolist(), hi.tolist()] or {int} != set(map(type, chain(*got[0], *got[1]))):
        return None
    branch = list(map(contains, docs, repeat("children")))
    leaf = ~np.array(branch, dtype=bool)
    kids = [node["children"] for node in compress(docs, branch)]
    if not {list} >= set(map(type, kids)):
        return None
    sizes = np.array(list(map(len, kids)), dtype=np.int64)
    want = np.left_shift(1, (hi[~leaf] - lo[~leaf] >= 2).sum(axis=1))
    if not np.array_equal(sizes, want) or (want == 1).any():
        return None
    leaves = list(compress(docs, leaf.tolist()))
    samples = list(map(dict.get, leaves, repeat("samples")))
    if samples and not ({int} >= set(map(type, samples))
                        and 0 <= min(samples) and max(samples) < 2**63):
        return None
    flags = [list(map(dict.get, leaves, repeat(key), repeat(False)))
             for key in ("saturated", "degenerate")]
    if not {bool} >= set(map(type, chain(*flags))):
        return None
    floats = []
    for key in ("value", "lo_seen", "hi_seen"):
        rows = list(map(dict.get, leaves, repeat(key)))
        if not ({list} >= set(map(type, rows)) and {arity} >= set(map(len, rows))):
            return None
        floats.append(_float_array(list(chain.from_iterable(rows))).reshape(-1, arity))
        if not np.isfinite(floats[-1]).all():
            return None
    return ((leaf, sizes, *floats, np.array(samples, dtype=np.int64),
             *(np.array(flag, dtype=bool) for flag in flags)),
            list(chain.from_iterable(kids)))


def _node_problem(node, lo: list, hi: list, arity: int) -> tuple[str, str] | None:
    """The first problem of one node document whose box must be ``lo``/``hi``, as (its path
    below the node, the reason), or None.  The fields are checked in the order box, then
    children or value, samples, lo_seen, hi_seen, saturated, degenerate."""
    try:
        box = _expect(node, "box", dict, "")
        got = [_expect(box, key, list, ".box") for key in ("lo", "hi")]
        if got != [lo, hi] or {int} != set(map(type, got[0] + got[1])):
            return ".box", f"expected lo={tuple(lo)} hi={tuple(hi)}, got lo={got[0]} hi={got[1]}"
        if "children" in node:
            size = len(_expect(node, "children", list, ""))
            count = 1 << sum(h - l >= 2 for l, h in zip(lo, hi))
            if count == 1:
                return ".children", "a single-cell box cannot have children"
            if size != count:
                return ".children", f"expected {count} children for this box, got {size}"
            return None
        for key in ("value", "samples", "lo_seen", "hi_seen"):
            got = _expect(node, key, int if key == "samples" else list, "")
            if key == "samples":
                if type(got) is not int or not 0 <= got < 2**63:
                    return ".samples", f"expected an integer from 0 to 2**63 - 1, got {got!r}"
            elif len(got) != arity:
                return f".{key}", f"expected {arity} components, got {len(got)}"
            elif not (finite := np.isfinite(_float_array(got))).all():
                return f".{key}[{np.argmin(finite)}]", "not a finite number"
    except MeshFormatError as e:  # from ``_expect``: a field missing or of the wrong type
        return e.path, e.reason
    for key in ("saturated", "degenerate"):
        flag = node.get(key, False)
        if type(flag) is not bool:
            return f".{key}", f"expected true or false, got {type(flag).__name__}"
    return None


def _read_nodes(docs: list, lo: np.ndarray, hi: np.ndarray, arity: int,
                levels: list[Level], first: int) -> tuple[tuple, list]:
    """``_read_columns`` of node documents of one depth, from its node ``first`` on, below
    ``levels``.  If the column checks refuse them, ``_node_problem`` checks the nodes one by
    one, to raise naming the first problem in level order."""
    read = _read_columns(docs, lo, hi, arity)
    if read is not None:
        return read
    for i, (node, l, h) in enumerate(zip(docs, lo.tolist(), hi.tolist())):
        problem = _node_problem(node, l, h, arity)
        if problem is not None:
            raise MeshFormatError(_node_path(levels, first + i) + problem[0], problem[1])
    raise AssertionError("the column checks refused nodes that the per-node check accepts")


def _levels_from_doc(doc: dict, domain: GridDomain, arity: int) -> list[Level]:
    """The levels of the tree that ``doc["root"]`` holds, read one depth at a time, and
    within a depth ``_READ_NODES`` nodes at a time: a depth's boxes must split the
    branches above.  The documents of the nodes read are freed before the next ones."""
    docs, levels = [_expect(doc, "root", dict, "$")], []
    del doc["root"]
    lo, hi = np.zeros((1, domain.ndim), dtype=np.int64), np.array([domain.extents], dtype=np.int64)
    while docs:
        parts, below = [], []
        for a in range(0, len(docs), _READ_NODES):
            chunk = docs[a:a + _READ_NODES]
            docs[a:a + _READ_NODES] = repeat(None, len(chunk))
            part, kids = _read_nodes(chunk, lo[a:a + len(chunk)], hi[a:a + len(chunk)], arity,
                                     levels, a)
            parts.append(part)
            below += kids
        level = Level(lo, hi, *map(np.concatenate, zip(*parts)))
        levels.append(level)
        lo, hi, _ = _split_bounds(lo[~level.leaf], hi[~level.leaf])
        docs = below
    return levels


def deserialize(text: str) -> Subdivision:
    """The subdivision in v1 JSON ``text``, read into levels.

    Raises MeshFormatError, naming the JSON path of the first problem in level
    order, on any document that is not a well-formed v1 mesh.
    """
    # A mesh document holds no reference cycles, so the cyclic collector
    # would only rescan the growing heap while it is parsed.
    enabled = gc.isenabled()
    gc.disable()
    try:
        try:
            doc = json.loads(text)
        except (RecursionError, ValueError) as e:
            # JSONDecodeError, an integer literal too long to convert, or nesting too deep.
            raise MeshFormatError("$", f"invalid JSON: {e}") from None
        domain = _domain_from_doc(doc)
        arity = _expect(doc, "value_arity", int, "$")
        if type(arity) is not int or not 1 <= arity < 2**63:
            raise MeshFormatError("$.value_arity",
                                  f"expected an integer from 1 to 2**63 - 1, got {arity!r}")
        if arity > len(text):
            # Every mesh has a leaf, which spells each of its value's components.
            raise MeshFormatError("$.value_arity", f"{arity} components cannot fit in "
                                                   f"{len(text)} characters")
        metadata = doc.get("metadata", {})
        if not isinstance(metadata, dict):
            raise MeshFormatError("$.metadata", "expected object")
        return Subdivision(domain, arity, metadata=metadata,
                           levels=_levels_from_doc(doc, domain, arity))
    finally:
        if enabled:
            gc.enable()

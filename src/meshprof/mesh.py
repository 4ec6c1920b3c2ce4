"""The hierarchical subdivision: constant-valued leaves over grid cuboids.

A subdivision stores one piecewise-constant approximation of a profiled
quantity.  Leaves tile the domain; every internal node's children are exactly
the canonical split of its box, so lookup is a walk from the root choosing the
one child that contains the query cell.  It is held as levels, columns per
depth, which builds, the reader and the algebra make; its tree is assembled
on first read of ``root`` and kept, and a subdivision made from a tree derives
its levels on first read.  Nothing else changes; the first reads from several
threads may each build the missing form, into equal copies.
"""

from __future__ import annotations

import functools
import gc
import json
import math
from collections import namedtuple
from dataclasses import dataclass
from itertools import chain, compress
from operator import attrgetter
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
    Builds, the reader and the algebra pass ``levels`` in place of ``root``, which is
    assembled on first read.
    """

    def __init__(self, domain: GridDomain, value_arity: int, root: Node | None = None,
                 metadata: dict | None = None, *, levels: tuple[Level, ...] | None = None):
        if value_arity < 1:
            raise ValueError("value arity must be >= 1")
        if levels is None and root.box != domain.root_cuboid():
            raise ValueError("root box must cover the whole domain")
        self.domain, self.value_arity, self.metadata = domain, value_arity, metadata or {}
        self.__dict__.update({"root": root} if levels is None else {"levels": tuple(levels)})

    @functools.cached_property
    def root(self) -> Node:
        return _assemble(self.levels)

    @functools.cached_property
    def levels(self) -> tuple[Level, ...]:
        """One ``Level`` per depth, the root's first, from one breadth-first pass of the tree."""
        def rows(items, name: str, dtype, width: int) -> np.ndarray:
            flat = chain.from_iterable(map(attrgetter(name), items))
            return np.fromiter(flat, dtype, len(items) * width).reshape(len(items), width)

        nd, m = self.domain.ndim, self.value_arity
        levels, nodes = [], [self.root]
        while nodes:
            leaf = np.array([isinstance(node, Leaf) for node in nodes], dtype=bool)
            leaves, branches = (list(compress(nodes, mask)) for mask in (leaf, ~leaf))
            boxes = [node.box for node in nodes]
            levels.append(Level(
                *(rows(boxes, name, np.int64, nd) for name in ("lo", "hi")), leaf,
                np.array([len(branch.children) for branch in branches], dtype=np.int64),
                *(rows(leaves, name, np.float64, m) for name in ("value", "lo_seen", "hi_seen")),
                *(np.fromiter(map(attrgetter(name), leaves), t, len(leaves)) for name, t in
                  (("samples", np.int64), ("saturated", bool), ("degenerate", bool)))))
            nodes = [kid for branch in branches for kid in branch.children]
        return tuple(levels)

    def __eq__(self, other):
        fields = attrgetter("domain", "value_arity", "metadata", "root")
        return isinstance(other, Subdivision) and fields(self) == fields(other)


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
    """Constant value of the leaf whose box contains ``p``, found depth by depth: the
    child of a branch that holds ``p`` is its rank in ``GridCuboid.split`` order."""
    if not sub.domain.contains_index(p.index):
        raise OutOfDomainError(f"point {p.index} outside domain {sub.domain.extents}")
    node = 0
    for level in sub.levels:
        leaves = int(np.count_nonzero(level.leaf[:node]))
        if level.leaf[node]:
            return tuple(level.value[leaves].tolist())
        child = 0
        for i, l, h in zip(p.index, level.lo[node].tolist(), level.hi[node].tolist()):
            if h - l >= 2:
                child = 2 * child + (i >= l + (h - l) // 2)
        node = int(level.children[:node - leaves].sum()) + child


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
    table = leaf_arrays(sub)
    widths = table.hi - table.lo
    sizes = widths.prod(axis=1)
    # Every cell once: the leaf that holds it, and its rank in that leaf's box
    # unravelled into an offset from the box's low corner, last axis fastest.
    owner = np.repeat(np.arange(len(sizes)), sizes)
    rank = np.arange(n) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    index = []
    for a in reversed(range(sub.domain.ndim)):
        rank, offset = np.divmod(rank, widths[owner, a])
        index.insert(0, table.lo[owner, a] + offset)
    out = np.empty(sub.domain.extents + (sub.value_arity,), dtype=np.float64)
    out[tuple(index)] = table.value[owner]
    return out[..., 0] if sub.value_arity == 1 else out


# -- JSON serialization ---------------------------------------------------
#
# Layout:  {"domain": {...}, "value_arity": m, "metadata": {...}, "root": node}
# node:    {"box": {"lo": [...], "hi": [...]}, "children": [node, ...]}
#     or   {"box": ..., "value": [...], "samples": n,
#           "lo_seen": [...], "hi_seen": [...]}   (+ "saturated"/"degenerate": true)
#
# The text is exactly what ``json.dumps(doc, indent=2)`` makes of that layout
# when box and leaf fields hold numbers.  The tree part is written directly:
# json's indenting encoder is pure Python and several times slower.  Floats
# use repr, which round-trips bit-exactly.


def _number(v) -> str:
    """One box or leaf component, spelled as ``json.dumps`` spells it."""
    if isinstance(v, float):
        if v != v:
            return "NaN"
        if v == math.inf:
            return "Infinity"
        if v == -math.inf:
            return "-Infinity"
        return float.__repr__(v)
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, int):
        return int.__repr__(v)
    raise TypeError(f"cannot write a {type(v).__name__} as a mesh number")


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


def _array(values, start: str, sep: str, end: str) -> str:
    if not values:
        return "[]"
    return start + sep.join(map(_number, values)) + end


_PIECE_CHARS = 1 << 20  # characters per piece of ``serialize_pieces``


def serialize_pieces(sub: Subdivision):
    """The v1 text of ``sub`` in pieces of about ``_PIECE_CHARS`` characters, which join to
    ``serialize(sub)``.  A piece is handed out once it reaches the bound, so none passes it
    by more than one node's text, and the whole text is never held at once."""
    dom = sub.domain
    header = json.dumps({"domain": {"extents": list(dom.extents), "origin": list(dom.origin),
                                    "cell_size": list(dom.cell_size)},
                         "value_arity": sub.value_arity, "metadata": sub.metadata}, indent=2)
    out, size = [], 0
    # (node, nesting level, text before it), or constant text; popped in text order.
    # The header ends in "\n}"; the root goes in as its last key.
    stack: list = ["\n}", (sub.root, 1, ""), header[:-2] + ',\n  "root": ']
    while stack:
        item = stack.pop()
        if type(item) is not str:
            node, level, before = item
            f, box = _Layout(level), node.box
            parts = [before, f.open, _array(box.lo, *f.box), f.hi, _array(box.hi, *f.box)]
            if type(node) is not Branch:
                parts += (f.value, _array(node.value, *f.field), f.samples, _number(node.samples),
                          f.lo_seen, _array(node.lo_seen, *f.field),
                          f.hi_seen, _array(node.hi_seen, *f.field),
                          f.saturated if node.saturated else "",
                          f.degenerate if node.degenerate else "", f.close)
            elif kids := node.children:
                parts.append(f.children)
                stack.append(f.children_end)
                stack += [(kid, level + 2, f.child_sep) for kid in reversed(kids[1:])]
                stack.append((kids[0], level + 2, ""))
            else:
                parts.append(f.no_children)
            item = "".join(parts)
        out.append(item)
        size += len(item)
        if size >= _PIECE_CHARS or not stack:
            # Neither the piece nor its parts stay referenced here once it is out.
            piece, out, size = "".join(out), [], 0
            yield piece
            del piece


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
_INT_ONLY = {int}


def _count(doc, key: str, minimum: int, path: str) -> int:
    value = _expect(doc, key, int, path)
    if type(value) is not int or not minimum <= value < 2**63:
        raise MeshFormatError(f"{path}.{key}",
                              f"expected an integer from {minimum} to 2**63 - 1, got {value!r}")
    return value


def _floats(doc, key: str, arity: int | None, path: str) -> list[float]:
    raw = _expect(doc, key, list, path)
    if arity is not None and len(raw) != arity:
        raise MeshFormatError(f"{path}.{key}", f"expected {arity} components, got {len(raw)}")
    out = []
    for i, v in enumerate(raw):
        if type(v) is int:
            try:
                v = float(v)
            except OverflowError:
                v = math.inf
        if type(v) is not float or not math.isfinite(v):
            raise MeshFormatError(f"{path}.{key}[{i}]", "not a finite number")
        out.append(v)
    return out


def _flag(doc, key: str, path: str) -> bool:
    value = doc.get(key, False)
    if type(value) is not bool:
        raise MeshFormatError(f"{path}.{key}", f"expected true or false, got {type(value).__name__}")
    return value


def _domain_from_doc(doc) -> GridDomain:
    dom_doc = _expect(doc, "domain", dict, "$")
    extents = _expect(dom_doc, "extents", list, "$.domain")
    for i, e in enumerate(extents):
        if type(e) is not int or not -2**63 <= e < 2**63:
            raise MeshFormatError(f"$.domain.extents[{i}]", "not a 64-bit integer")
    origin = _floats(dom_doc, "origin", None, "$.domain")
    cell_size = _floats(dom_doc, "cell_size", None, "$.domain")
    try:
        return GridDomain(tuple(extents), origin, cell_size)
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


def _check_boxes(bounds: list, lo: np.ndarray, hi: np.ndarray, levels: list[Level]) -> None:
    """Raise naming the first node, in order, whose box lists in ``bounds`` (lo, hi, lo,
    hi, ... of one depth's nodes) are not its rows of ``lo``/``hi`` in exact integers."""
    want = np.stack([lo, hi], axis=1)[:len(bounds) // 2].reshape(-1, lo.shape[1]).tolist()
    if bounds == want and _INT_ONLY >= set(map(type, chain.from_iterable(bounds))):
        return
    for i in range(0, len(bounds), 2):
        got = bounds[i:i + 2]
        if got != want[i:i + 2] or _INT_ONLY != set(map(type, got[0] + got[1])):
            raise MeshFormatError(_node_path(levels, i // 2) + ".box", f"expected lo="
                                  f"{tuple(want[i])} hi={tuple(want[i + 1])}, got lo={got[0]} "
                                  f"hi={got[1]}")


def _levels_from_doc(doc: dict, domain: GridDomain, arity: int) -> list[Level]:
    """The levels of the tree that ``doc["root"]`` holds, read one depth at a time: a
    depth's boxes must split the branches above, and its nodes are checked in order,
    each box first.  Each node's document is freed once it is read."""
    docs, levels = [_expect(doc, "root", dict, "$")], []
    del doc["root"]
    lo, hi = np.zeros((1, domain.ndim), dtype=np.int64), np.array([domain.extents], dtype=np.int64)
    while docs:
        count = np.left_shift(1, (hi - lo >= 2).sum(axis=1)).tolist()
        leaf, bounds, children, below = np.ones(len(docs), dtype=bool), [], [], []
        value, samples, lo_seen, hi_seen, saturated, degenerate = ([] for _ in range(6))
        try:
            for i, node in enumerate(docs):
                box = _expect(node, "box", dict, "")
                bounds += (_expect(box, "lo", list, ".box"), _expect(box, "hi", list, ".box"))
                if "children" in node:
                    kids = _expect(node, "children", list, "")
                    if count[i] == 1:
                        raise MeshFormatError(".children", "a single-cell box cannot have children")
                    if len(kids) != count[i]:
                        raise MeshFormatError(".children", f"expected {count[i]} children "
                                                           f"for this box, got {len(kids)}")
                    leaf[i] = False
                    children.append(len(kids))
                    below += kids
                else:
                    value += _floats(node, "value", arity, "")
                    samples.append(_count(node, "samples", 0, ""))
                    lo_seen += _floats(node, "lo_seen", arity, "")
                    hi_seen += _floats(node, "hi_seen", arity, "")
                    saturated.append(_flag(node, "saturated", ""))
                    degenerate.append(_flag(node, "degenerate", ""))
                docs[i] = None
        except MeshFormatError as e:
            _check_boxes(bounds, lo, hi, levels)
            raise MeshFormatError(_node_path(levels, i) + e.path, e.reason) from None
        _check_boxes(bounds, lo, hi, levels)
        levels.append(Level(
            lo, hi, leaf, np.array(children, dtype=np.int64),
            *(np.array(c, dtype=np.float64).reshape(-1, arity) for c in (value, lo_seen, hi_seen)),
            np.array(samples, dtype=np.int64), np.array(saturated, dtype=bool),
            np.array(degenerate, dtype=bool)))
        lo, hi, _ = _split_bounds(lo[~leaf], hi[~leaf])
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
        doc = json.loads(text)
    except (RecursionError, ValueError) as e:
        # JSONDecodeError, an integer literal too long to convert, or nesting too deep.
        raise MeshFormatError("$", f"invalid JSON: {e}") from None
    finally:
        if enabled:
            gc.enable()
    domain = _domain_from_doc(doc)
    arity = _count(doc, "value_arity", 1, "$")
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise MeshFormatError("$.metadata", "expected object")
    return Subdivision(domain, arity, metadata=metadata,
                       levels=_levels_from_doc(doc, domain, arity))

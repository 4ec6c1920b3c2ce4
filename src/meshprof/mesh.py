"""The hierarchical subdivision tree: constant-valued leaves over grid cuboids.

A subdivision stores one piecewise-constant approximation of a profiled
quantity.  Leaves tile the domain; every internal node's children are exactly
the canonical split of its box, so lookup is a walk from the root choosing the
one child that contains the query cell.  Instances are immutable and safe to
evaluate from many threads at once.
"""

from __future__ import annotations

import gc
import json
import math
from dataclasses import dataclass, field
from typing import Iterator, Union

import numpy as np

from .domain import GridCuboid, GridDomain, GridPoint
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


@dataclass(frozen=True)
class Subdivision:
    """A piecewise-constant approximation over a grid domain.

    ``value_arity`` is the number of components each leaf value carries
    (1 for scalar profiles, 4 for per-side directional profiles in 2D).
    ``metadata`` echoes the build configuration and sample statistics.
    """

    domain: GridDomain
    value_arity: int
    root: Node
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.value_arity < 1:
            raise ValueError("value arity must be >= 1")
        if self.root.box != self.domain.root_cuboid():
            raise ValueError("root box must cover the whole domain")


def constant(domain: GridDomain, value: tuple[float, ...]) -> Subdivision:
    """A single-leaf subdivision holding ``value`` everywhere."""
    value = tuple(float(v) for v in value)
    leaf = Leaf(domain.root_cuboid(), value, 0, value, value)
    return Subdivision(domain, len(value), leaf)


def descend(sub: Subdivision, p: GridPoint) -> tuple[Leaf, int]:
    """Leaf containing ``p`` plus the number of descent steps taken."""
    if not sub.domain.contains_index(p.index):
        raise OutOfDomainError(f"point {p.index} outside domain {sub.domain.extents}")
    node = sub.root
    steps = 0
    while isinstance(node, Branch):
        node = node.children[node.box.child_index(p.index)]
        steps += 1
    return node, steps


def evaluate(sub: Subdivision, p: GridPoint) -> tuple[float, ...]:
    """Constant value of the leaf whose box contains ``p``."""
    leaf, _ = descend(sub, p)
    return leaf.value


def leaves(sub: Subdivision) -> Iterator[tuple[GridCuboid, tuple[float, ...], int]]:
    """Yield (box, value, depth) for each leaf, depth-first in split order."""
    for leaf, depth in iter_leaf_nodes(sub):
        yield leaf.box, leaf.value, depth


def iter_leaf_nodes(sub: Subdivision) -> Iterator[tuple[Leaf, int]]:
    stack: list[tuple[Node, int]] = [(sub.root, 0)]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, Leaf):
            yield node, depth
        else:
            stack.extend((c, depth + 1) for c in reversed(node.children))


def leaf_count(sub: Subdivision) -> int:
    return sum(1 for _ in iter_leaf_nodes(sub))


def depth(sub: Subdivision) -> int:
    return max(d for _, d in iter_leaf_nodes(sub))


def to_dense(sub: Subdivision, max_cells: int = 10**6) -> np.ndarray:
    """Materialize the subdivision on the full grid.

    Returns an array of shape ``extents`` for scalar trees and
    ``extents + (arity,)`` otherwise.  Guarded: refuses domains larger than
    ``max_cells`` cells.
    """
    n = sub.domain.cell_count
    if n > max_cells:
        raise ValueError(f"domain has {n} cells, dense guard is {max_cells}")
    shape = sub.domain.extents + (sub.value_arity,)
    out = np.empty(shape, dtype=np.float64)
    for box, value, _ in leaves(sub):
        sl = tuple(slice(l, h) for l, h in zip(box.lo, box.hi))
        out[sl] = value
    if sub.value_arity == 1:
        return out[..., 0]
    return out


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


class _Layout:
    """The constant text around one node's fields, for a node at one nesting level."""

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
        self.children_end = i1 + ']'
        self.close = i0 + '}'
        # (open, separator, close) of number arrays: box bounds sit two
        # levels in, leaf fields one.
        self.box = ('[' + i3, ',' + i3, i2 + ']')
        self.field = ('[' + i2, ',' + i2, i1 + ']')


def _write_node(node: Node, level: int, layouts: list[_Layout], out: list[str]) -> None:
    while len(layouts) <= level:
        layouts.append(_Layout(len(layouts)))
    f = layouts[level]
    box = node.box
    parts = [f.open, _array(box.lo, *f.box), f.hi, _array(box.hi, *f.box)]
    if isinstance(node, Branch):
        if not node.children:
            parts.append(f.no_children)
            out.append("".join(parts))
            return
        parts.append(f.children)
        out.append("".join(parts))
        for i, child in enumerate(node.children):
            if i:
                out.append(f.child_sep)
            _write_node(child, level + 2, layouts, out)
        out.append(f.children_end + f.close)
        return
    parts += (f.value, _array(node.value, *f.field),
              f.samples, _number(node.samples),
              f.lo_seen, _array(node.lo_seen, *f.field),
              f.hi_seen, _array(node.hi_seen, *f.field))
    if node.saturated:
        parts.append(f.saturated)
    if node.degenerate:
        parts.append(f.degenerate)
    parts.append(f.close)
    out.append("".join(parts))


def _array(values, start: str, sep: str, end: str) -> str:
    if not values:
        return "[]"
    return start + sep.join(map(_number, values)) + end


def serialize(sub: Subdivision) -> str:
    """The v1 JSON text of ``sub``: ``json.dumps`` of the layout above, ``indent=2``."""
    header = json.dumps({
        "domain": {
            "extents": list(sub.domain.extents),
            "origin": list(sub.domain.origin),
            "cell_size": list(sub.domain.cell_size),
        },
        "value_arity": sub.value_arity,
        "metadata": sub.metadata,
    }, indent=2)
    # The header ends in "\n}"; the root goes in as its last key.
    out = [header[:-2], ',\n  "root": ']
    _write_node(sub.root, 1, [], out)
    out.append("\n}")
    return "".join(out)


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
# test exact types: JSON true and false are not integers here.
_INT_ONLY = {int}


def _count(doc, key: str, minimum: int, path: str) -> int:
    value = _expect(doc, key, int, path)
    if type(value) is not int or value < minimum:
        raise MeshFormatError(f"{path}.{key}", f"expected an integer >= {minimum}, got {value!r}")
    return value


def _floats(doc, key: str, arity: int | None, path: str) -> tuple[float, ...]:
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
    return tuple(out)


def _flag(doc, key: str, path: str) -> bool:
    value = doc.get(key, False)
    if type(value) is not bool:
        raise MeshFormatError(f"{path}.{key}", f"expected true or false, got {type(value).__name__}")
    return value


def _domain_from_doc(doc) -> GridDomain:
    dom_doc = _expect(doc, "domain", dict, "$")
    extents = _expect(dom_doc, "extents", list, "$.domain")
    for i, e in enumerate(extents):
        if type(e) is not int:
            raise MeshFormatError(f"$.domain.extents[{i}]", "not an integer")
    origin = _floats(dom_doc, "origin", None, "$.domain")
    cell_size = _floats(dom_doc, "cell_size", None, "$.domain")
    try:
        return GridDomain(tuple(extents), origin, cell_size)
    except ValueError as e:
        raise MeshFormatError("$.domain", str(e)) from e


def _node_from_doc(doc, box: GridCuboid, arity: int, path: str) -> Node:
    got = _expect(doc, "box", dict, path)
    lo = _expect(got, "lo", list, f"{path}.box")
    hi = _expect(got, "hi", list, f"{path}.box")
    if tuple(lo) != box.lo or tuple(hi) != box.hi or _INT_ONLY != set(map(type, lo + hi)):
        raise MeshFormatError(f"{path}.box", f"expected lo={box.lo} hi={box.hi}, got lo={lo} hi={hi}")
    if "children" in doc:
        raw = _expect(doc, "children", list, path)
        if box.cell_count == 1:
            raise MeshFormatError(f"{path}.children", "a single-cell box cannot have children")
        expected = box.split()
        if len(raw) != len(expected):
            raise MeshFormatError(
                f"{path}.children",
                f"expected {len(expected)} children for this box, got {len(raw)}",
            )
        children = tuple(
            _node_from_doc(c, b, arity, f"{path}.children[{i}]")
            for i, (c, b) in enumerate(zip(raw, expected))
        )
        return Branch(box, children)
    value = _floats(doc, "value", arity, path)
    samples = _count(doc, "samples", 0, path)
    lo_seen = _floats(doc, "lo_seen", arity, path)
    hi_seen = _floats(doc, "hi_seen", arity, path)
    return Leaf(box, value, samples, lo_seen, hi_seen,
                _flag(doc, "saturated", path), _flag(doc, "degenerate", path))


def deserialize(text: str) -> Subdivision:
    """The subdivision in v1 JSON ``text``.

    Raises MeshFormatError, naming the JSON path of the first problem, on
    any document that is not a well-formed v1 mesh.
    """
    # A mesh document and its tree hold no reference cycles, so the cyclic
    # collector would only rescan the growing heap while they are built.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _from_text(text)
    except RecursionError:
        raise MeshFormatError("$", "nested too deeply") from None
    finally:
        if enabled:
            gc.enable()


def _from_text(text: str) -> Subdivision:
    try:
        doc = json.loads(text)
    except ValueError as e:
        # JSONDecodeError, or an integer literal too long to convert.
        raise MeshFormatError("$", f"invalid JSON: {e}") from e
    domain = _domain_from_doc(doc)
    arity = _count(doc, "value_arity", 1, "$")
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise MeshFormatError("$.metadata", "expected object")
    root = _node_from_doc(_expect(doc, "root", dict, "$"), domain.root_cuboid(), arity, "$.root")
    return Subdivision(domain, arity, root, metadata)

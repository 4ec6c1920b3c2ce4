"""Shared test utilities: random tree construction and dense and JSON oracles."""

from __future__ import annotations

import numpy as np

from meshprof.domain import GridCuboid, GridDomain
from meshprof.mesh import Branch, Leaf, Node, Subdivision


def random_tree(rng: np.random.Generator, domain: GridDomain,
                arity: int = 1, split_prob: float = 0.55,
                max_depth: int = 6, value_scale: float = 10.0) -> Node:
    """A structurally valid random tree with random constant leaf values."""

    def make(box: GridCuboid, depth: int):
        splittable = box.cell_count > 1
        if splittable and depth < max_depth and rng.random() < split_prob:
            return Branch(box, tuple(make(b, depth + 1) for b in box.split()))
        value = tuple(float(v) for v in rng.normal(0.0, value_scale, size=arity))
        return Leaf(box, value, 1, value, value)

    return make(domain.root_cuboid(), 0)


def random_subdivision(rng: np.random.Generator, domain: GridDomain, arity: int = 1,
                       *args, **kwargs) -> Subdivision:
    """The subdivision of the ``random_tree`` of the same arguments."""
    return Subdivision(domain, arity, random_tree(rng, domain, arity, *args, **kwargs))


def walk_leaves(sub: Subdivision):
    """Yield (leaf, depth) depth-first in split order, by recursion over ``sub.root``."""

    def walk(node, depth):
        if isinstance(node, Leaf):
            yield node, depth
        else:
            for child in node.children:
                yield from walk(child, depth + 1)

    yield from walk(sub.root, 0)


def dense_eval(sub: Subdivision) -> np.ndarray:
    """Evaluate every grid cell from a walk of the tree, independent of to_dense."""
    shape = sub.domain.extents + ((sub.value_arity,) if sub.value_arity > 1 else ())
    out = np.full(shape, np.nan)
    for leaf, _ in walk_leaves(sub):
        block = tuple(slice(l, h) for l, h in zip(leaf.box.lo, leaf.box.hi))
        out[block] = leaf.value if sub.value_arity > 1 else leaf.value[0]
    return out


def oracle_doc(sub: Subdivision) -> dict:
    """The v1 mesh document as nested dicts and lists, built the way the first
    v1 writer built it; ``json.dumps(oracle_doc(sub), indent=2)`` is the v1
    text that ``serialize`` must reproduce byte for byte."""

    def node_doc(node) -> dict:
        box = {"lo": list(node.box.lo), "hi": list(node.box.hi)}
        if isinstance(node, Branch):
            return {"box": box, "children": [node_doc(c) for c in node.children]}
        doc = {
            "box": box,
            "value": list(node.value),
            "samples": node.samples,
            "lo_seen": list(node.lo_seen),
            "hi_seen": list(node.hi_seen),
        }
        if node.saturated:
            doc["saturated"] = True
        if node.degenerate:
            doc["degenerate"] = True
        return doc

    return {
        "domain": {
            "extents": list(sub.domain.extents),
            "origin": list(sub.domain.origin),
            "cell_size": list(sub.domain.cell_size),
        },
        "value_arity": sub.value_arity,
        "metadata": sub.metadata,
        "root": node_doc(sub.root),
    }

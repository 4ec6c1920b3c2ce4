"""Algebra over subdivisions: differences, averages, costs, and selection.

Everything here consumes finished subdivisions and produces either derived
subdivisions (pointwise combination, cost composition, per-cell selection
labels) or plain numbers (weighted averages, best parameters, error
statistics).  Derived subdivisions live on the common refinement of their
inputs, computed on their levels one depth at a time — the canonical split
rule guarantees that boxes at equal depth coincide, so refinement is a few
array operations per depth, not a geometric intersection problem.

All operations are pure; inputs are never mutated.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .domain import GridDomain, GridPoint
from .mesh import (DENSE_GUARD, Subdivision, _derived, _split_bounds, evaluate, leaf_arrays,
                   to_dense)

if TYPE_CHECKING:
    from .builder import ProfileFunction

_SIDE_COUNT = 4           # value components of a directional subdivision
_SECTOR_DEG = 90.0        # angular width of one side's sector


# -- Distributions over grid cells ----------------------------------------


@dataclass(frozen=True)
class Uniform:
    """Every grid cell carries the same weight."""


@dataclass(frozen=True)
class WeightTable:
    """Piecewise-constant cell weights given on a (usually coarser) grid.

    A cell of the target domain gets the weight of the table cell its center
    falls into; a center on a table-cell boundary falls into the upper cell.
    Weights must be finite and nonnegative with at least one positive entry;
    normalization happens at use time.
    """

    domain: GridDomain
    weights: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if len(self.weights) != self.domain.cell_count:
            raise ValueError(
                f"{len(self.weights)} weights for {self.domain.cell_count} table cells")
        if not all(map(math.isfinite, self.weights)):
            raise ValueError("weights must be finite")
        if any(w < 0 for w in self.weights) or not any(w > 0 for w in self.weights):
            raise ValueError("weights must be nonnegative and not all zero")

    def array(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=np.float64).reshape(self.domain.extents)


Distribution = Uniform | WeightTable


def _cell_bounds(table: WeightTable, domain: GridDomain) -> list[np.ndarray]:
    """Per axis, the first mesh cell of each table cell, then the extent.

    Cell ``i`` of axis ``a`` belongs to table cell
    ``floor((center - t_origin) / t_cell)``, so a center on a boundary
    belongs to the upper cell.  Raises unless every center has a table cell.
    """
    t = table.domain
    if t.ndim != domain.ndim:
        raise ValueError("weight table dimensionality differs from the domain")
    bounds = []
    for a in range(domain.ndim):
        centers = domain.origin[a] + (np.arange(domain.extents[a]) + 0.5) * domain.cell_size[a]
        cells = np.floor((centers - t.origin[a]) / t.cell_size[a]).astype(np.int64)
        if cells[0] < 0 or cells[-1] >= t.extents[a]:
            raise ValueError(f"weight table does not cover the domain along axis {a}")
        bounds.append(np.searchsorted(cells, np.arange(t.extents[a] + 1)))
    return bounds


def _masses(lo: np.ndarray, hi: np.ndarray, cell_bounds: list[np.ndarray],
            w: np.ndarray) -> np.ndarray:
    """Summed weight over each box ``[lo, hi)``, where table cell ``t`` of axis ``a`` holds
    the mesh cells from ``cell_bounds[a][t]`` up to ``cell_bounds[a][t + 1]``.

    Per axis a box's cell count in each table cell is a difference of
    cumulative counts; axes are contracted one at a time.
    """
    mass = w
    for a, bounds in enumerate(cell_bounds):
        counts = np.diff(np.minimum(hi[:, a, None], bounds) - np.minimum(lo[:, a, None], bounds))
        mass = np.einsum("it,it...->i..." if a else "it,t...->i...", counts, mass)
    return mass


def weighted_average(sub: Subdivision, dist: Distribution = Uniform()) -> tuple[float, ...]:
    """Average of the subdivision under a cell-weight distribution.

    Under ``Uniform`` this is exactly the mean of ``evaluate`` over all grid
    cells; a ``WeightTable`` reweights cells by the table cell containing
    their centers.  Leaves are summed in split order.  Raises on a
    distribution with zero total mass over the domain.
    """
    domain = sub.domain
    if isinstance(dist, WeightTable):
        bounds, w = _cell_bounds(dist, domain), dist.array()
    else:
        # One table cell of weight 1 holding every cell.
        bounds = [np.array([0, e]) for e in domain.extents]
        w = np.ones((1,) * domain.ndim)
    total = _masses(np.zeros((1, domain.ndim), np.int64), np.array([domain.extents]), bounds, w)[0]
    if total <= 0.0:
        raise ValueError("distribution has zero total mass over the domain")
    leaves = leaf_arrays(sub)
    rows = leaves.value * _masses(leaves.lo, leaves.hi, bounds, w)[:, None]
    # Summed left to right from +0.0, as a running total would: a leaf of
    # zero mass adds nothing and an all -0.0 mesh averages to +0.0.
    acc = np.add.accumulate(np.vstack([np.zeros((1, sub.value_arity)), rows]))[-1]
    return tuple(float(v) for v in acc / total)


# -- Pointwise combination on the common refinement ------------------------


# Each as Python's operator on two floats: min and max keep x on a tie or a NaN.
_BINARY_OPS = {
    "subtract": np.subtract, "add": np.add,
    "min": lambda x, y: np.where(y < x, y, x), "max": lambda x, y: np.where(y > x, y, x),
    # A zero denominator gives 0, and combine flags the leaf degenerate.
    "ratio": lambda x, y: np.where(y == 0, 0.0, x / np.where(y == 0, 1.0, y)),
}


def _refine(subs: Sequence[Subdivision]) -> tuple[list[tuple], list[np.ndarray]]:
    """The common refinement of ``subs``: each depth's box bounds, leaf mask and child
    counts, and per operand its value rows at the refinement's leaves in level order.

    A box branches where any operand branches there, into the split that the
    operands share; an operand's leaf carries its value row down into it.
    """
    root = subs[0].domain.root_cuboid()
    lo, hi = np.array([root.lo], dtype=np.int64), np.array([root.hi], dtype=np.int64)
    # Per operand, at each box of this depth: its node there, or -1 below one of its
    # leaves, and the value row of the leaf that covers the box.
    nodes = [np.zeros(1, dtype=np.int64) for _ in subs]
    carried = [np.zeros((1, s.value_arity)) for s in subs]
    shape, rows = [], []
    for depth in range(max(len(s.levels) for s in subs)):
        starts = []  # per operand, where it branches: its first child's position below
        for s, node, carry in zip(subs, nodes, carried):
            start, here = np.full(len(node), -1), np.flatnonzero(node >= 0)
            if len(here):
                level = s.levels[depth]
                leaf = level.leaf[node[here]]
                carry[here[leaf]] = level.value[np.cumsum(level.leaf)[node[here[leaf]]] - 1]
                first = np.cumsum(level.children) - level.children
                start[here[~leaf]] = first[np.cumsum(~level.leaf)[node[here[~leaf]]] - 1]
            starts.append(start)
        leaf = np.all(np.array(starts) < 0, axis=0)
        rows.append([carry[leaf] for carry in carried])
        below_lo, below_hi, children = _split_bounds(lo[~leaf], hi[~leaf])
        shape.append((lo, hi, leaf, children))
        owner = np.repeat(np.flatnonzero(~leaf), children)
        rank = np.arange(len(owner)) - np.repeat(np.cumsum(children) - children, children)
        nodes = [np.where(start[owner] >= 0, start[owner] + rank, -1) for start in starts]
        carried = [carry[owner] for carry in carried]
        lo, hi = below_lo, below_hi
    return shape, [np.concatenate(column) for column in zip(*rows)]


def _require_same_domain(subs: Sequence[Subdivision]) -> GridDomain:
    domain = subs[0].domain
    for s in subs[1:]:
        if s.domain != domain:
            raise ValueError("subdivisions live on different grid domains")
    return domain


def combine(a: Subdivision, b: Subdivision, op: str) -> Subdivision:
    """Componentwise op of two subdivisions on their common refinement.

    ``op`` is one of subtract, add, min, max, ratio.  The result is exact:
    at every grid point it equals the op applied to the two evaluations.
    Ratio leaves whose denominator is zero get value 0 and the degenerate
    flag.
    """
    domain = _require_same_domain([a, b])
    if a.value_arity != b.value_arity:
        raise ValueError(f"value arity mismatch: {a.value_arity} vs {b.value_arity}")
    if op not in _BINARY_OPS:
        raise ValueError(f"unknown op {op!r}; expected one of {tuple(_BINARY_OPS)}")
    shape, (va, vb) = _refine([a, b])
    # Overflow and NaN pass quietly, as in Python's float arithmetic.
    with np.errstate(all="ignore"):
        value = _BINARY_OPS[op](va, vb)
    return _derived(domain, shape, value, {"derived": f"combine:{op}"},
                    (op == "ratio") & (vb == 0).any(axis=1))


# -- Cost models ----------------------------------------------------------


@dataclass(frozen=True)
class UnitCost:
    name: str
    per_unit: float
    units: str = "ms"

    def __post_init__(self):
        if self.per_unit < 0:
            raise ValueError(f"unit cost {self.name} must be >= 0")


@dataclass(frozen=True)
class CostModel:
    """Per-operation unit costs plus the rule for combining them.

    ``sequential`` sums the per-operation costs; ``parallel`` takes their
    maximum (the slowest stream dominates).
    """

    unit_costs: tuple[UnitCost, ...]
    combinator: str = "sequential"

    def __post_init__(self):
        object.__setattr__(self, "unit_costs", tuple(self.unit_costs))
        if not self.unit_costs:
            raise ValueError("cost model needs at least one unit cost")
        names = [u.name for u in self.unit_costs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate unit cost names in {names}")
        if self.combinator not in ("sequential", "parallel"):
            raise ValueError(f"unknown combinator {self.combinator!r}")

    def apply(self, counts: Sequence[float]) -> float:
        terms = [u.per_unit * c for u, c in zip(self.unit_costs, counts)]
        return sum(terms) if self.combinator == "sequential" else max(terms)

    def describe(self) -> dict:
        return {
            "combinator": self.combinator,
            "unit_costs": [[u.name, u.per_unit, u.units] for u in self.unit_costs],
        }


def cost_estimate(counts: Sequence[Subdivision], model: CostModel) -> Subdivision:
    """Compose per-operation count subdivisions into one cost subdivision.

    Takes one scalar count tree per unit cost, in model order, and returns
    their common refinement with leaf value t_1*f_1 + ... (sequential) or
    max_i t_i*f_i (parallel).
    """
    if len(counts) != len(model.unit_costs):
        raise ValueError(
            f"{len(counts)} count subdivisions for {len(model.unit_costs)} unit costs")
    domain = _require_same_domain(counts)
    for s in counts:
        if s.value_arity != 1:
            raise ValueError("count subdivisions must be scalar")

    shape, rows = _refine(counts)
    with np.errstate(all="ignore"):
        terms = [u.per_unit * r[:, 0] for u, r in zip(model.unit_costs, rows)]
        # From +0.0 left to right, as ``apply`` on Python 3.11, or the first largest term.
        value = (sum(terms) if model.combinator == "sequential"
                 else functools.reduce(_BINARY_OPS["max"], terms))
    return _derived(domain, shape, value[:, None],
                    {"derived": "cost_estimate", "model": model.describe()})


# -- Selection ------------------------------------------------------------


def _selection_keys(values: np.ndarray, view) -> np.ndarray:
    """The keys that candidates' value rows compete by: a scalar value itself,
    or a 4-component value weighted by the view, added from +0.0 component by
    component as Python 3.11's ``sum`` adds floats."""
    if view is None:
        if values.shape[1] != 1:
            raise ValueError("selection over vector subdivisions needs a view (direction, fov)")
        return values[:, 0]
    direction, fov = view
    w = view_weights(direction, fov)
    if values.shape[1] != len(w):
        raise ValueError(f"view selection needs {len(w)} components, got {values.shape[1]}")
    keys = np.zeros(len(values))
    with np.errstate(all="ignore"):
        for wi, column in zip(w, values.T):
            keys = keys + wi * column
    return keys


def select(candidates: Sequence[Subdivision], p: GridPoint,
           view: tuple[float, float] | None = None) -> tuple[int, tuple[float, ...]]:
    """Pick the candidate predicting the smallest value at ``p``.

    Scalar candidates compare directly; 4-component directional candidates
    compare through ``evaluate_view`` with the given (direction, fov).  Ties
    go to the lowest index.  Returns (index, winning value vector).
    """
    if not candidates:
        raise ValueError("need at least one candidate")
    _require_same_domain(candidates)
    values = [evaluate(c, p) for c in candidates]
    keys = [_selection_keys(np.array([value]), view)[0] for value in values]
    best = min(range(len(keys)), key=keys.__getitem__)
    return best, values[best]


def selection_map(candidates: Sequence[Subdivision],
                  view: tuple[float, float] | None = None) -> Subdivision:
    """Label every region with the index of its winning candidate.

    The result is a scalar subdivision over the common refinement whose leaf
    values are candidate indices (as floats); ties go to the lowest index.
    """
    if not candidates:
        raise ValueError("need at least one candidate")
    domain = _require_same_domain(candidates)
    arity = candidates[0].value_arity
    for c in candidates:
        if c.value_arity != arity:
            raise ValueError("candidates must share one value arity")
    shape, rows = _refine(candidates)
    keys = [_selection_keys(r, view) for r in rows]
    best, low = np.zeros(len(keys[0])), keys[0]
    for index, key in enumerate(keys[1:], 1):
        better = key < low
        best[better] = index
        low = np.where(better, key, low)
    return _derived(domain, shape, best[:, None],
                    {"derived": "selection_map", "candidates": len(candidates)})


# -- Parameter optimization -----------------------------------------------


def parameter_sweep(builds: Sequence[tuple[float, Subdivision]],
                    dist: Distribution = Uniform()) -> tuple[float, list[tuple[float, tuple[float, ...]]]]:
    """Average each parameter's subdivision and return the winner plus the table.

    ``builds`` pairs a parameter value with the subdivision built under it.
    The winner minimizes the weighted average; exact ties go to the smaller
    parameter value.
    """
    if not builds:
        raise ValueError("need at least one (parameter, subdivision) pair")
    table = [(param, weighted_average(sub, dist)) for param, sub in builds]
    ordered = sorted(table, key=lambda row: row[0])
    best_param, best_avg = ordered[0]
    for param, avg in ordered[1:]:
        if avg < best_avg:
            best_param, best_avg = param, avg
    return best_param, table


def parameter_profile(sub: Subdivision, parameter_axis: int,
                      max_cells: int = DENSE_GUARD) -> np.ndarray:
    """Best parameter cell index per input cell, from a scalar subdivision.

    The domain is read as (input axes x parameter axis); for every
    combination of input cells the returned array holds the index along
    ``parameter_axis`` minimizing the subdivision's value.  Ties go to the
    lowest parameter index.
    """
    if sub.value_arity != 1:
        raise ValueError("parameter_profile needs a scalar subdivision")
    if sub.domain.ndim < 2:
        raise ValueError("domain needs at least one input axis and one parameter axis")
    if not 0 <= parameter_axis < sub.domain.ndim:
        raise ValueError(f"no axis {parameter_axis} in a {sub.domain.ndim}-d domain")
    dense = to_dense(sub, max_cells)
    return np.argmin(dense, axis=parameter_axis)


# -- Direction-dependent evaluation ---------------------------------------


def view_weights(direction_deg: float, fov_deg: float) -> tuple[float, ...]:
    """Angular overlap of a view cone with the four side sectors, as fractions.

    Side k's sector spans [90k - 45, 90k + 45) degrees (east, north, west,
    south).  The cone is [direction - fov/2, direction + fov/2); each weight
    is the fraction of the cone falling in that sector, so the weights are
    nonnegative and sum to 1.
    """
    if not 0.0 < fov_deg <= 360.0:
        raise ValueError(f"fov must lie in (0, 360], got {fov_deg}")
    direction = float(direction_deg) % 360.0
    lo = direction - fov_deg / 2.0
    hi = direction + fov_deg / 2.0
    overlaps = []
    for k in range(_SIDE_COUNT):
        s_lo = _SECTOR_DEG * k - _SECTOR_DEG / 2.0
        overlap = 0.0
        for shift in (-360.0, 0.0, 360.0):
            a = max(lo, s_lo + shift)
            b = min(hi, s_lo + shift + _SECTOR_DEG)
            if b > a:
                overlap += b - a
        overlaps.append(overlap)
    # Normalizing by the summed overlap rather than the nominal fov keeps
    # the weights summing to exactly 1 even when boundary clipping rounds
    # the individual pieces.
    total = sum(overlaps)
    return tuple(o / total for o in overlaps)


def evaluate_view(sub: Subdivision, p: GridPoint, direction_deg: float,
                  fov_deg: float) -> float:
    """Blend a 4-component directional subdivision over a view cone at ``p``, as select does."""
    return float(_selection_keys(np.array([evaluate(sub, p)]), (direction_deg, fov_deg))[0])


# -- Error against the ground truth ---------------------------------------


@dataclass(frozen=True)
class ErrorStats:
    cells: int
    mean_abs: float
    max_abs: float

    def row(self) -> dict:
        return {"cells": self.cells, "mean_abs_error": self.mean_abs,
                "max_abs_error": self.max_abs}


def error_vs_oracle(sub: Subdivision, f: ProfileFunction,
                    max_cells: int = DENSE_GUARD) -> ErrorStats:
    """Exhaustive |subdivision - f| statistics over every grid cell.

    Asks ``f`` for every cell as a build does (``_answer_cells``), so the
    domain is guarded to ``max_cells``, and an answer that fails, has the
    wrong arity or is not finite raises ProfileQueryError naming its point.
    For vector values the absolute error is taken per component and pooled;
    the cells' errors are added in row-major order, from +0.0.
    """
    from .builder import _answer_cells

    domain = sub.domain
    if domain.cell_count > max_cells:
        raise ValueError(
            f"domain has {domain.cell_count} cells, over the exhaustive guard {max_cells}")
    if f.arity != sub.value_arity:
        raise ValueError(f"oracle arity {f.arity} != subdivision arity {sub.value_arity}")
    n, arity = domain.cell_count, sub.value_arity
    truth = np.empty((n, arity))
    _answer_cells(f, domain, np.arange(n), truth, np.ones(n, dtype=bool))
    err = np.abs(to_dense(sub, max_cells).reshape(n, arity) - truth)
    total = np.add.accumulate(np.concatenate([[0.0], err.sum(axis=1)]))[-1]
    return ErrorStats(n, float(total) / (n * arity), max(0.0, float(err.max())))

"""Adaptive piecewise-constant profiling of blackbox quantities on grids.

The package approximates an expensive per-input quantity (runtime, work
counts, visibility numbers) by sampling it at randomly chosen grid cells and
recursively subdividing the domain wherever the sampled values spread more
than a threshold.  The resulting trees support exact pointwise algebra,
distribution-weighted averages, cost models, per-cell selection among
alternatives, and export to images and CSV.
"""

from .analysis import (
    CostModel,
    ErrorStats,
    Uniform,
    UnitCost,
    WeightTable,
    combine,
    cost_estimate,
    error_vs_oracle,
    evaluate_view,
    parameter_profile,
    parameter_sweep,
    select,
    selection_map,
    view_weights,
    weighted_average,
)
from .builder import (
    BuildConfig,
    BuildReport,
    DiameterSampling,
    FixedSampling,
    ProfileFunction,
    QueryCache,
    RmsSampling,
    SupNormSampling,
    build,
    sample_size,
)
from .domain import GridCuboid, GridDomain, GridPoint
from .errors import (
    MeshFormatError,
    MeshprofError,
    NonDeterministicProfileError,
    OutOfDomainError,
    ProfileQueryError,
    UnsplittableCuboidError,
)
from .export import leaf_csv, slice_grid, write_heatmap, write_leaf_csv
from .mesh import (
    Branch,
    Leaf,
    Subdivision,
    constant,
    deserialize,
    evaluate,
    leaf_arrays,
    serialize,
    to_dense,
)

__version__ = "0.1.0"

"""Adaptive piecewise-constant profiling of blackbox quantities on grids.

The package approximates an expensive per-input quantity (runtime, work
counts, visibility numbers) by sampling it at randomly chosen grid cells and
recursively subdividing the domain wherever the sampled values spread more
than a threshold.  The resulting trees support exact pointwise algebra,
distribution-weighted averages, cost models, per-cell selection among
alternatives, and export to images and CSV.

Each name below is imported from its submodule on first access (PEP 562), so
``import meshprof`` loads no submodule until one is used.
"""

import importlib

# Each exported name, and each submodule reached as an attribute, to its submodule.
_HOME = {name: module for module, names in {
    "analysis": ("CostModel", "ErrorStats", "Uniform", "UnitCost", "WeightTable", "combine",
                 "cost_estimate", "error_vs_oracle", "evaluate_view", "parameter_profile",
                 "parameter_sweep", "select", "selection_map", "view_weights",
                 "weighted_average"),
    "builder": ("BuildConfig", "BuildReport", "DiameterSampling", "FixedSampling",
                "ProfileFunction", "QueryCache", "RmsSampling", "SupNormSampling", "build",
                "sample_size"),
    "domain": ("GridCuboid", "GridDomain", "GridPoint"),
    "errors": ("MeshFormatError", "MeshprofError", "NonDeterministicProfileError",
               "OutOfDomainError", "ProfileQueryError", "UnsplittableCuboidError"),
    "export": ("leaf_csv", "slice_grid", "write_heatmap", "write_leaf_csv"),
    "mesh": ("Branch", "Leaf", "Subdivision", "constant", "deserialize", "evaluate",
             "leaf_arrays", "serialize", "to_dense"),
}.items() for name in (module, *names)}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_HOME[name]}", __name__)
    return module if name == _HOME[name] else getattr(module, name)


def __dir__():
    return sorted({*globals(), *__all__})

"""Ground-truth profile functions and the token registry the CLI uses."""

from __future__ import annotations

import numpy as np

from ..builder import ProfileFunction
from ..domain import GridDomain, GridPoint
from .lipschitz import (
    LipschitzFixture,
    constant,
    grid_moments,
    hidden_spike,
    max_adjacent_slope,
    ramp,
    sqrt_tent,
    square_gap,
    step,
    zero_mean_ramp,
)
from .scene import (
    CullingConfig,
    CullStats,
    Scene2D,
    SceneObject,
    brute_force_cost,
    cull_render,
    default_cost_model,
    default_scene,
    named_scene,
    num_visible,
    scene_profile,
    scene_variant,
    simulated_cost,
    symmetric_scene,
    visible_by_side,
)

FIXTURE_HELP = """fixture tokens:
  const:V                     constant V everywhere
  ramp                        sum of world coordinates
  step[:H[:AT]]               0 then H from world x = AT on (defaults 100, domain midpoint)
  spike[:W]                   flat line hiding a tent of support W (default 24)
  tent                        tent peaking at sqrt(L) over a length-L line
  zramp[:EPS]                 zero-mean ramp with slow variance decay (default 0.1)
  sqdiff                      (p - x)^2 over a square input-by-parameter grid
  scene:NAME:QUANTITY[:depth=D][:rays=R]
                              visibility world NAME (default, symmetric, variantN);
                              QUANTITY one of numvisible, sides, polygons, occltests,
                              cullcost, cullcost_sides, brutecost"""


def _line_length(domain: GridDomain) -> int:
    return int(round(domain.extents[0] * domain.cell_size[0]))


def _fit_to_domain(inner: ProfileFunction, world: tuple[float, float],
                   domain: GridDomain) -> ProfileFunction:
    """Rescale grid cells onto the scene's world box.

    The scene is fixed; the grid chooses the profiling resolution.  Cell
    (i, j) is observed from the world position at the center of the cell's
    share of the scene, so any extents cover the whole world.  The ``batch``
    recovers each row's cell index from its world coordinates and rescales as
    ``query`` does; a row whose index is not recovered exactly is left
    non-finite, for ``query``.
    """
    if domain.ndim < 2:
        raise ValueError("scene fixtures need at least 2 grid axes")
    scale = (world[0] / domain.extents[0], world[1] / domain.extents[1])

    def query(p):
        scaled = tuple((i + 0.5) * s for i, s in zip(p.index[:2], scale))
        return inner.query(GridPoint(p.index, scaled + p.world[2:]))

    def batch(rows: np.ndarray) -> np.ndarray:
        rows = np.array(rows, dtype=np.float64)
        index = domain.index_from_world(rows)[:, :2]
        exact = (index >= 0).all(axis=1)
        rows[:, :2] = (index + 0.5) * scale
        out = np.full((len(rows), inner.arity), np.nan)
        out[exact] = np.asarray(inner.batch(rows[exact]), dtype=np.float64).reshape(
            -1, inner.arity)
        return out

    return ProfileFunction(inner.arity, query, pure=inner.pure, name=inner.name,
                           batch=batch if inner.batch is not None else None)


def resolve_fixture(token: str, domain: GridDomain) -> ProfileFunction:
    """Turn a CLI fixture token into a profile function for ``domain``.

    One-dimensional constructions (spike, tent, zramp) size themselves from
    the domain's world length along the first axis; scene quantities ignore
    any degenerate extra grid axes.  Raises ValueError on unknown or
    malformed tokens.
    """
    parts = token.split(":")
    head = parts[0]
    try:
        if head == "const":
            return constant(float(parts[1])).profile()
        if head == "ramp" and len(parts) == 1:
            return ramp().profile()
        if head == "step":
            height = float(parts[1]) if len(parts) > 1 else 100.0
            midpoint = domain.origin[0] + domain.extents[0] * domain.cell_size[0] / 2.0
            at = float(parts[2]) if len(parts) > 2 else midpoint
            return step(height, at).profile()
        if head == "spike":
            width = int(parts[1]) if len(parts) > 1 else 24
            return hidden_spike(_line_length(domain), width).profile()
        if head == "tent" and len(parts) == 1:
            return sqrt_tent(_line_length(domain)).profile()
        if head == "zramp":
            eps = float(parts[1]) if len(parts) > 1 else 0.1
            return zero_mean_ramp(_line_length(domain), eps).profile()
        if head == "sqdiff" and len(parts) == 1:
            return square_gap(_line_length(domain)).profile()
        if head == "scene":
            name, quantity = parts[1], parts[2]
            rays = 16
            depth = None
            for extra in parts[3:]:
                key, _, raw = extra.partition("=")
                if key == "depth":
                    depth = int(raw)
                elif key == "rays":
                    rays = int(raw)
                else:
                    raise ValueError(f"unknown scene option {extra!r}")
            config = CullingConfig(depth) if depth is not None else None
            scene = named_scene(name, rays)
            return _fit_to_domain(scene_profile(scene, quantity, config),
                                  scene.world, domain)
    except (IndexError, ValueError) as e:
        raise ValueError(f"bad fixture token {token!r}: {e}\n{FIXTURE_HELP}") from None
    raise ValueError(f"unknown fixture token {token!r}\n{FIXTURE_HELP}")

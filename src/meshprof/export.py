"""Flat-file exports: binary PGM/PPM heatmaps and CSV leaf tables.

Images are one pixel per grid cell on a chosen 2D slice.  The grayscale
palette maps values linearly onto 0..255 black-to-white; the diverging
palette is for signed data (difference subdivisions) and fades white at zero
into red for positive and blue for negative, symmetric about zero.  The
value range behind either ramp lands in a JSON sidecar next to the image,
since the pixels alone cannot be inverted back to values.

Nothing here timestamps its output: identical subdivisions yield identical
bytes.  Every file goes through a temporary file beside it and lands with
``os.replace``, so a failed write never leaves a partial file.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .mesh import DENSE_GUARD, Subdivision, _box_values, leaf_arrays, write_files


@dataclass(frozen=True)
class HeatmapInfo:
    path: str
    width: int
    height: int
    vmin: float
    vmax: float
    palette: str

    def to_dict(self) -> dict:
        return {"path": os.path.basename(self.path), "width": self.width,
                "height": self.height, "min": self.vmin, "max": self.vmax,
                "palette": self.palette}


def slice_grid(sub: Subdivision, fixed: dict[int, int] | None = None) -> np.ndarray:
    """Dense values on a 2D slice, axis order (x, y).

    ``fixed`` pins axes to cell indices until at most two stay free; a
    single free axis renders as a one-pixel-tall strip.  Scalar
    subdivisions only.  Only the slice's cells are read, so the dense guard
    counts its pixels, not the domain's cells.
    """
    if sub.value_arity != 1:
        raise ValueError(
            f"heatmaps need scalar values, got arity {sub.value_arity}")
    fixed = dict(fixed or {})
    for axis, index in fixed.items():
        if not 0 <= axis < sub.domain.ndim:
            raise ValueError(f"no axis {axis} in a {sub.domain.ndim}-d domain")
        if not 0 <= index < sub.domain.extents[axis]:
            raise ValueError(f"index {index} out of range for axis {axis}")
    free = [a for a in range(sub.domain.ndim) if a not in fixed]
    if len(free) > 2:
        raise ValueError(
            f"{len(free)} axes left free; fix {len(free) - 2} more with slices")
    lo = [fixed.get(a, 0) for a in range(sub.domain.ndim)]
    hi = [fixed[a] + 1 if a in fixed else e for a, e in enumerate(sub.domain.extents)]
    shape = [sub.domain.extents[a] for a in free] + [1] * (2 - len(free))
    if math.prod(shape) > DENSE_GUARD:
        raise ValueError(f"slice has {math.prod(shape)} pixels, dense guard is {DENSE_GUARD}")
    return _box_values(sub, lo, hi).reshape(shape)


def _gray_bytes(grid: np.ndarray, vmin: float, vmax: float) -> bytes:
    if vmax > vmin:
        scaled = np.round((grid - vmin) / (vmax - vmin) * 255.0)
    else:
        scaled = np.full_like(grid, 128.0)
    # Image rows run top to bottom, so the highest y index comes first.
    return scaled.astype(np.uint8).T[::-1].tobytes()


def _diverging_bytes(grid: np.ndarray, extreme: float) -> bytes:
    if extreme > 0:
        t = np.clip(grid / extreme, -1.0, 1.0)
    else:
        t = np.zeros_like(grid)
    fade = np.round(255.0 * (1.0 - np.abs(t))).astype(np.uint8)
    full = np.full_like(fade, 255)
    r = np.where(t >= 0, full, fade)
    g = fade
    b = np.where(t <= 0, full, fade)
    rgb = np.stack([r, g, b], axis=-1)
    return rgb.transpose(1, 0, 2)[::-1].tobytes()


def write_heatmap(sub: Subdivision, path: str, palette: str = "gray",
                  fixed: dict[int, int] | None = None) -> HeatmapInfo:
    """Write a PGM (gray) or PPM (diverging) heatmap plus its JSON sidecar.

    Returns the sidecar contents.  The sidecar lands at ``path + ".json"``
    and records the value range so the image stays interpretable.
    """
    grid = slice_grid(sub, fixed)
    width, height = grid.shape
    vmin, vmax = float(grid.min()), float(grid.max())
    if palette == "gray":
        header = f"P5\n{width} {height}\n255\n".encode("ascii")
        payload = _gray_bytes(grid, vmin, vmax)
    elif palette == "diverging":
        header = f"P6\n{width} {height}\n255\n".encode("ascii")
        payload = _diverging_bytes(grid, max(abs(vmin), abs(vmax)))
    else:
        raise ValueError(f"unknown palette {palette!r} (gray or diverging)")
    info = HeatmapInfo(path, width, height, vmin, vmax, palette)
    sidecar = dict(info.to_dict(), fixed_axes={str(a): i for a, i in (fixed or {}).items()})
    sidecar_text = json.dumps(sidecar, indent=2, sort_keys=True) + "\n"
    write_files([(path, [header, payload]), (path + ".json", [sidecar_text.encode("utf-8")])])
    return info


def leaf_csv(sub: Subdivision) -> str:
    """One CSV row per leaf: box bounds, value components, sample count, flags."""
    nd = sub.domain.ndim
    m = sub.value_arity
    header = (
        [f"lo_{a}" for a in range(nd)] + [f"hi_{a}" for a in range(nd)]
        + [f"value_{j}" for j in range(m)] + ["samples", "saturated", "degenerate"]
    )
    table = leaf_arrays(sub)
    columns = (table.lo.T.tolist() + table.hi.T.tolist() + table.value.T.tolist()
               + [table.samples.tolist(), table.saturated.astype(int).tolist(),
                  table.degenerate.astype(int).tolist()])
    # str of a Python float is its repr, so values keep every bit.
    lines = [",".join(header)]
    lines += map(",".join, zip(*(list(map(str, c)) for c in columns)))
    return "\n".join(lines) + "\n"


def write_leaf_csv(sub: Subdivision, path: str) -> None:
    write_files([(path, [leaf_csv(sub).encode("utf-8")])])

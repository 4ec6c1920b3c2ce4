"""Closed-form ground-truth profiles with known smoothness and integrals.

These fixtures play two roles in the test suite: smooth ramps validate the
error guarantees of the sampling policies, and the adversarial constructions
(a spike hidden in a flat line, a tent of height sqrt(n), a zero-mean ramp
with slowly decaying variance) exhibit the cases where small samples must
fail.  All are exact functions of world coordinates; grids lay over them with
unit cells starting at the origin unless a caller chooses otherwise.

A fixture's ``lipschitz`` constant is declared for steps between adjacent
grid cells: |f(a) - f(b)| <= c * cell_size whenever a and b are axis
neighbours.  Tests verify the declared constants by exhaustive finite
differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..builder import ProfileFunction


@dataclass(frozen=True)
class LipschitzFixture:
    """A named closed-form profile with declared smoothness and moments.

    ``fn`` takes one world coordinate per axis (extra coordinates from
    degenerate grid axes are accepted and ignored).  Each coordinate may be a
    float or an array, and ``fn`` uses only operations that give the same
    result either way, so one expression serves point queries, batch queries
    and the quadrature helpers alike.  The declared integrals are the
    continuous values over the fixture's natural support, where known.
    """

    name: str
    fn: Callable[..., float | np.ndarray]
    lipschitz: float
    abs_integral: float | None = None
    square_integral: float | None = None
    mean: float | None = None
    std: float | None = None

    def values(self, *coords: np.ndarray) -> np.ndarray:
        """``fn`` over arrays of coordinates, broadcast to their shape."""
        return np.broadcast_to(self.fn(*coords), np.shape(coords[0]))

    def profile(self) -> ProfileFunction:
        return ProfileFunction(1, lambda p: (float(self.fn(*p.world)),), name=self.name,
                               batch=lambda world: self.values(*world.T))


def constant(value: float) -> LipschitzFixture:
    v = float(value)
    return LipschitzFixture(f"const:{value:g}", lambda *w: v, 0.0, mean=v, std=0.0)


def ramp() -> LipschitzFixture:
    """f = sum of coordinates; changes by exactly one cell size per axis step."""
    return LipschitzFixture("ramp", lambda *w: sum(w, 0.0), 1.0)


def step(height: float = 100.0, at: float = 32.0) -> LipschitzFixture:
    """Flat 0, then flat ``height`` from ``at`` on; the whole jump sits between two cells."""
    h, a = float(height), float(at)
    return LipschitzFixture(
        f"step:{height:g}@{at:g}",
        lambda x, *_: np.where(x >= a, h, 0.0),
        abs(h),
    )


def square_gap(n: int) -> LipschitzFixture:
    """f(x, p) = (p - x)^2 on an n-by-n world; minimal in p exactly at p = x."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return LipschitzFixture(f"sqdiff:{n}", lambda x, p, *_: (p - x) ** 2, 2.0 * n)


def hidden_spike(n: int, width: int = 24) -> LipschitzFixture:
    """A 1-Lipschitz tent of support ``width`` in an otherwise flat [0, n].

    Height is width/2, so narrow spikes are both short and easy to miss:
    a sampler that never lands on the support sees a constant function.
    """
    _check_n(n)
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    center = 3.0 * n / 8.0
    height = width / 2.0
    return LipschitzFixture(
        f"spike:{width}", lambda x, *_: np.maximum(0.0, height - np.abs(x - center)), 1.0,
        abs_integral=height * height, square_integral=2.0 * height ** 3 / 3.0,
    )


def sqrt_tent(n: int) -> LipschitzFixture:
    """A 1-Lipschitz tent on [0, n] peaking at sqrt(n).

    Its area grows linearly in n while its squared integral grows like
    n^(3/2) — the gap that separates absolute-error from RMS-error sampling
    budgets.
    """
    _check_n(n)
    h = math.sqrt(n)
    center = n / 2.0
    return LipschitzFixture(
        f"tent:{n}", lambda x, *_: np.maximum(0.0, h - np.abs(x - center)), 1.0,
        abs_integral=float(n), square_integral=2.0 * h ** 3 / 3.0,
    )


def zero_mean_ramp(n: int, eps: float = 0.1) -> LipschitzFixture:
    """Slope -1 down from n^(1-2*eps), then a constant tail chosen for mean 0.

    The descending stretch ends at the depth -delta that makes the integral
    over [0, n] vanish exactly; the standard deviation then decays only like
    n^(1-3*eps), so the function looks constant almost everywhere while its
    average hides a rare excursion.
    """
    _check_n(n)
    if not 0.0 < eps < 0.25:
        raise ValueError(f"eps must lie in (0, 1/4), got {eps}")
    b = n ** (1.0 - 2.0 * eps)
    d = n - b
    if d * d < b * b:
        raise ValueError(f"n={n} too small for eps={eps}: ramp would overrun the domain")
    delta = d - math.sqrt(d * d - b * b)
    m = b + delta
    var = (b ** 3 + delta ** 3) / (3.0 * n) + delta * delta * (n - m) / n
    return LipschitzFixture(
        f"zramp:{eps:g}", lambda x, *_: np.where(x <= m, b - x, -delta), 1.0,
        abs_integral=(b * b + delta * delta) / 2.0 + delta * (n - m),
        square_integral=var * n, mean=0.0, std=math.sqrt(var),
    )


def _check_n(n: int) -> None:
    if n < 16:
        raise ValueError(f"n must be >= 16, got {n}")


# -- Grid quadrature ------------------------------------------------------


def grid_moments(fix: LipschitzFixture, n: int) -> dict[str, float]:
    """Riemann sums of |f|, f^2, f and the std over n unit cells at centers."""
    try:
        values = fix.values(np.arange(n, dtype=np.float64) + 0.5)
    except TypeError:
        raise ValueError(f"fixture {fix.name} is not a function of one coordinate") from None
    return {
        "abs_integral": float(np.sum(np.abs(values))),
        "square_integral": float(np.sum(values * values)),
        "mean": float(np.mean(values)),
        "std": float(np.std(values)),
    }


def max_adjacent_slope(fix: LipschitzFixture, extents: tuple[int, ...],
                       cell_size: float = 1.0) -> float:
    """Largest |df|/cell_size over all axis-adjacent cell centers, exhaustively.

    Guarded to grids of at most 2^14 points; use it to audit a fixture's
    declared constant, not as a general-purpose estimator.
    """
    cells = math.prod(extents)
    if cells > 2 ** 14:
        raise ValueError(f"grid of {cells} cells exceeds the exhaustive-check guard")
    centers = [cell_size * (np.arange(e) + 0.5) for e in extents]
    grids = np.meshgrid(*centers, indexing="ij")
    values = fix.values(*grids)
    worst = 0.0
    for axis in range(len(extents)):
        if extents[axis] < 2:
            continue
        diffs = np.abs(np.diff(values, axis=axis))
        worst = max(worst, float(diffs.max()) / cell_size)
    return worst

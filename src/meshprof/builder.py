"""Adaptive construction of subdivisions from blackbox profile functions.

The builder samples a cuboid, checks the spread of the observed values against
the splitting threshold, and either emits a constant leaf (the sample mean) or
cuts the cuboid in half along every splittable axis.  It works one depth
level at a time: the samples of every box of a level go to the profile as one
batch, and one set of per-box reductions over that batch (min, max, mean)
decides every box of the level and fills its leaves.  Sample counts come
from a pluggable policy; every queried point goes through a memoizing cache
so refinement never pays twice for the same grid cell.

Each cuboid draws from its own random stream derived from (seed, box), so a
subtree's construction is reproducible in isolation and independent of build
order.  Queries run on the calling thread; a profile that gains from running
points at once, such as an external command, does so inside its ``batch``.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .domain import GridCuboid, GridDomain, GridPoint, sample_cell_indices
from .errors import NonDeterministicProfileError, OutOfDomainError, ProfileQueryError
from .mesh import Branch, Leaf, Node, Subdivision

@dataclass(frozen=True)
class ProfileFunction:
    """A blackbox, per-point measurable quantity of some algorithm.

    ``query`` maps a grid point to an m-component value vector.  ``pure``
    declares that repeated queries at one point return identical vectors
    (spot-checked during builds).  ``batch``, if given, evaluates many points
    in one call: it maps a ``(k, ndim)`` array of world coordinates to a
    ``(k, arity)`` array (or a ``(k,)`` array when the arity is 1) holding
    exactly what ``query`` returns point by point.  Builds then send each
    level's new cells to it at once; a row with a non-finite value is left
    unanswered and asked of ``query``.
    """

    arity: int
    query: Callable[[GridPoint], tuple[float, ...]]
    pure: bool = True
    name: str = ""
    batch: Callable[[np.ndarray], np.ndarray] | None = None


def median_of_repeats(f: ProfileFunction, repeats: int = 5) -> ProfileFunction:
    """Query ``f`` several times per point and keep the componentwise median.

    Intended for noisy measurements such as wall-clock timings; the result is
    steadier but still not pure, so it stays exempt from purity spot-checks.
    A ``batch`` of ``f`` is repeated the same way, a whole batch per round.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")

    def median(rounds) -> np.ndarray:
        return np.median(np.array(rounds, dtype=np.float64), axis=0)

    def query(p: GridPoint) -> tuple[float, ...]:
        return tuple(median([f.query(p) for _ in range(repeats)]).tolist())

    def batch(world: np.ndarray) -> np.ndarray:
        return median([np.reshape(f.batch(world), (len(world), f.arity))
                       for _ in range(repeats)])

    return ProfileFunction(f.arity, query, pure=False,
                           name=f"median{repeats}({f.name})" if f.name else "",
                           batch=batch if f.batch is not None else None)


# -- Sample-size policies -------------------------------------------------


@dataclass(frozen=True)
class DiameterSampling:
    """k proportional to the cuboid's diameter in grid cells."""

    factor: float = 0.5

    def token(self) -> str:
        return f"diam:{self.factor:g}"


@dataclass(frozen=True)
class SupNormSampling:
    """Volume-proportional k with log^2 oversampling; targets worst-case error.

    ``c`` is the (hinted) Lipschitz constant of the profiled quantity with
    respect to world coordinates.
    """

    c: float

    def token(self) -> str:
        return f"sup:c={self.c:g}"


@dataclass(frozen=True)
class RmsSampling:
    """Diameter-proportional k with log^2 oversampling; targets RMS error."""

    c: float

    def token(self) -> str:
        return f"rms:c={self.c:g}"


@dataclass(frozen=True)
class FixedSampling:
    k: int

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("fixed sample size must be >= 2")

    def token(self) -> str:
        return f"fixed:{self.k}"


SamplePolicy = DiameterSampling | SupNormSampling | RmsSampling | FixedSampling


@dataclass(frozen=True)
class BuildConfig:
    """Knobs of one build: threshold, sampling policy, seed, and modes.

    ``threshold`` has one positive component per value component; a cuboid
    becomes a leaf only if every component's spread stays within it.
    ``spread_mode`` selects the leaf test: ``"range"`` compares max - min
    against the threshold, ``"mean_dev"`` compares each sample's deviation
    from the componentwise mean.  ``oversample_exponent`` is the power on the
    log factor of the sup-norm/RMS policies.
    """

    threshold: tuple[float, ...]
    policy: SamplePolicy = DiameterSampling()
    oversample_exponent: float = 2.0
    seed: int = 0
    min_samples: int = 2
    spread_mode: str = "range"
    purity_check_rate: float = 0.01

    def __post_init__(self):
        object.__setattr__(self, "threshold", tuple(float(t) for t in self.threshold))
        if not self.threshold or any(t <= 0 for t in self.threshold):
            raise ValueError(f"thresholds must be > 0, got {self.threshold}")
        if self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        if self.spread_mode not in ("range", "mean_dev"):
            raise ValueError(f"unknown spread mode {self.spread_mode!r}")

    def echo(self) -> dict:
        return {
            "threshold": list(self.threshold),
            "policy": self.policy.token(),
            "oversample_exponent": self.oversample_exponent,
            "seed": self.seed,
            "min_samples": self.min_samples,
            "spread_mode": self.spread_mode,
        }


def _oversample(k_prime: float, exponent: float) -> float:
    # Clamp to >= e so the log factor never goes through zero or negative.
    k_prime = max(k_prime, math.e)
    return k_prime * math.log(k_prime) ** exponent


def sample_size(policy: SamplePolicy, cuboid: GridCuboid, config: BuildConfig,
                domain: GridDomain) -> int:
    """Number of points to draw in ``cuboid``, clamped to [min_samples, cells]."""
    n = cuboid.cell_count
    if isinstance(policy, FixedSampling):
        raw = policy.k
    elif isinstance(policy, DiameterSampling):
        raw = math.ceil(policy.factor * cuboid.grid_diameter)
    elif isinstance(policy, SupNormSampling):
        h = max(domain.cell_size)
        s = min(config.threshold)
        k_prime = n * (policy.c * h / s) ** domain.ndim
        raw = math.ceil(_oversample(k_prime, config.oversample_exponent))
    elif isinstance(policy, RmsSampling):
        h = max(domain.cell_size)
        s = min(config.threshold)
        g = cuboid.grid_diameter
        k_prime = math.sqrt(g) + policy.c * g * h / s
        raw = math.ceil(_oversample(k_prime, config.oversample_exponent))
    else:
        raise TypeError(f"unknown policy {policy!r}")
    return min(max(raw, config.min_samples), n)


# -- Query cache ----------------------------------------------------------


class QueryCache:
    """Memoizes profile queries by grid cell and counts traffic.

    A small fraction of cache hits re-queries the profile and compares, to
    catch quantities that were declared pure but are not.  ``preload``, keyed
    by linear cell index, becomes the store itself: it starts with its values
    and receives every new answer as soon as it arrives.
    """

    def __init__(self, f: ProfileFunction, domain: GridDomain, config: BuildConfig,
                 preload: dict | None = None):
        self._f = f
        self._domain = domain
        self._check_rate = config.purity_check_rate if f.pure else 0.0
        self._check_rng = random.Random(config.seed ^ 0x5EEDCAFE)
        self.store: dict[int, tuple[float, ...]] = {} if preload is None else preload
        self.total_requests = 0
        n = domain.cell_count
        for lin, value in self.store.items():
            if not 0 <= lin < n:
                raise OutOfDomainError(f"preloaded cell {lin} lies outside the domain's "
                                       f"{n} cells")
            if len(value) != f.arity:
                raise ValueError(f"preloaded cell {lin} has {len(value)} components, "
                                 f"profile arity is {f.arity}")
            if not all(map(math.isfinite, value)):
                raise ValueError(f"preloaded cell {lin} has non-finite value {value}")

    @property
    def distinct_queries(self) -> int:
        return len(self.store)

    def _run_query(self, point: GridPoint) -> tuple[float, ...]:
        try:
            raw = self._f.query(point)
        except ProfileQueryError:
            raise
        except Exception as e:
            raise ProfileQueryError(point, str(e)) from e
        value = tuple(map(float, raw))
        if len(value) != self._f.arity:
            raise ProfileQueryError(
                point, f"expected {self._f.arity} components, got {len(value)}")
        if not all(map(math.isfinite, value)):
            raise ProfileQueryError(point, f"non-finite value {value}")
        return value

    def query_many(self, lins: np.ndarray) -> np.ndarray:
        """Values at distinct cells, in order, as a ``(len(lins), arity)`` array.

        Each cell counts one request.  One pass looks up every cell and draws
        a purity spot-check for each hit, in order; only misses and checked
        hits then reach the profile.  Misses go to the profile's ``batch`` in
        one call where it has one.  The misses it leaves unanswered and the
        checked hits are then queried one by one, in order.
        """
        keys = lins.tolist()
        self.total_requests += len(keys)
        rows = list(map(self.store.get, keys))
        rate, draw = self._check_rate, self._check_rng.random
        checked = [i for i, row in enumerate(rows)
                   if row is not None and draw() < rate] if rate > 0 else []
        if checked or None in rows:
            misses = [i for i, row in enumerate(rows) if row is None]
            if misses and self._f.batch is not None:
                misses = self._answer_batch(keys, rows, misses)
            todo = sorted(misses + checked)
            for i, point in zip(todo, self._domain.points_from_linear([keys[i] for i in todo])):
                value = self._run_query(point)
                if rows[i] is None:
                    rows[i] = self.store[keys[i]] = value
                elif value != rows[i]:
                    raise NonDeterministicProfileError(
                        f"profile declared pure but point {point.index} "
                        f"returned {value} after {rows[i]}")
        flat = np.fromiter(itertools.chain.from_iterable(rows), dtype=np.float64,
                           count=len(rows) * self._f.arity)
        return flat.reshape(len(rows), self._f.arity)

    def _answer_batch(self, keys: list[int], rows: list, misses: list[int]) -> list[int]:
        """Answer ``misses`` in one batch call; return the ones left unanswered.

        Every finite row answers its cell.  A row with a non-finite value is
        left to a point query, so that an error names its point.  If the call
        raises, or returns an array of the wrong shape, nothing is answered.
        """
        k, arity = len(misses), self._f.arity
        try:
            values = np.asarray(
                self._f.batch(self._domain.world_from_linear([keys[i] for i in misses])),
                dtype=np.float64)
        except Exception:
            return misses
        if not (values.shape == (k, arity) or (arity == 1 and values.shape == (k,))):
            return misses
        values = values.reshape(k, arity)
        finite = np.isfinite(values).all(axis=1).tolist()
        left = []
        for i, value, ok in zip(misses, values.tolist(), finite):
            if ok:
                rows[i] = self.store[keys[i]] = tuple(value)
            else:
                left.append(i)
        return left

    def sorted_rows(self) -> list[tuple[tuple[int, ...], tuple[float, ...]]]:
        """Distinct queries as (index, value), ordered by linear index."""
        return [
            (self._domain.point_from_linear(lin).index, value)
            for lin, value in sorted(self.store.items())
        ]


# -- Build ----------------------------------------------------------------


@dataclass(frozen=True)
class BuildReport:
    distinct_queries: int
    total_requests: int
    leaf_count: int
    depth: int
    saturated_leaves: int
    wall_time_s: float

    def to_dict(self) -> dict:
        return asdict(self)


def _strides(extents: tuple[int, ...]) -> np.ndarray:
    strides = [1] * len(extents)
    for a in range(len(extents) - 2, -1, -1):
        strides[a] = strides[a + 1] * extents[a + 1]
    return np.asarray(strides, dtype=np.int64)


# -- Per-box random streams -------------------------------------------------
#
# Box (lo, hi) draws from default_rng(SeedSequence((seed, *lo, *hi))).  Making
# that generator costs more than the draw itself, so a level's streams are
# seeded together: SeedSequence's hash runs over all boxes at once in uint32
# array arithmetic, and one PCG64 is then set to each box's seeded state in
# turn.  Tests pin both against NumPy's own SeedSequence and PCG64.

_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL_SIZE = 4
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK_128 = (1 << 128) - 1


def _entropy_words(seed: int, box: GridCuboid) -> list[int]:
    """``(seed, *lo, *hi)`` as the little-endian uint32 words SeedSequence reads."""
    words = []
    for n in (seed, *box.lo, *box.hi):
        words.append(n & 0xFFFFFFFF)
        n >>= 32
        while n:
            words.append(n & 0xFFFFFFFF)
            n >>= 32
    return words


def _seed_sequence_states(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(row).generate_state(4, np.uint64)`` for each row of ``entropy``.

    ``entropy`` is a ``(boxes, words)`` uint32 array; all arithmetic wraps
    modulo 2**32, as in SeedSequence.
    """
    const = _HASH_INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _HASH_MULT_A & 0xFFFFFFFF
        value = value * np.uint32(const)
        return value ^ value >> np.uint32(16)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        out = _MIX_MULT_L * x - _MIX_MULT_R * y
        return out ^ out >> np.uint32(16)

    boxes, length = entropy.shape
    pool = [hashmix(entropy[:, i] if i < length else np.zeros(boxes, dtype=np.uint32))
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, length):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))
    const = _HASH_INIT_B
    words = []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ np.uint32(const)
        const = const * _HASH_MULT_B & 0xFFFFFFFF
        value = value * np.uint32(const)
        words.append(value ^ value >> np.uint32(16))
    return np.stack(words, axis=1).astype("<u4").view("<u8").astype(np.uint64)


def _box_states(seed: int, boxes: list[GridCuboid]) -> list[dict]:
    """Per box, the PCG64 state of ``default_rng(SeedSequence((seed, *lo, *hi)))``."""
    entropy = [_entropy_words(seed, box) for box in boxes]
    by_length: dict[int, list[int]] = {}
    for i, words in enumerate(entropy):
        by_length.setdefault(len(words), []).append(i)
    states: list[dict] = [{}] * len(boxes)
    for rows in by_length.values():
        seeded = _seed_sequence_states(np.array([entropy[i] for i in rows], dtype=np.uint32))
        for i, (seed_hi, seed_lo, inc_hi, inc_lo) in zip(rows, seeded.tolist()):
            # PCG64's seeding: odd increment from the second pair, then a step
            # from zero, the first pair added, and one more step.
            inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & _MASK_128
            state = ((inc + (seed_hi << 64 | seed_lo)) * _PCG_MULT + inc) & _MASK_128
            states[i] = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                         "has_uint32": 0, "uinteger": 0}
    return states


def _level_offsets(level: list[GridCuboid], shapes: list[tuple[int, ...]],
                   config: BuildConfig, domain: GridDomain, seed: int,
                   sizes: dict[tuple[int, ...], int],
                   rng: np.random.Generator) -> list[np.ndarray]:
    """Row-major cell offsets of each box's sample, in draw order.

    ``sizes`` memoizes the sample size per box shape, the only thing it
    depends on.  ``rng`` is set to each drawing box's own stream in turn.
    """
    offsets: list = []
    drawn = []
    for box, shape in zip(level, shapes):
        n = math.prod(shape)
        k = 1 if n == 1 else sizes.get(shape)
        if k is None:
            k = sizes[shape] = sample_size(config.policy, box, config, domain)
        if k >= n:
            # An exhaustive draw takes every cell and never touches the stream.
            offsets.append(np.arange(n, dtype=np.int64))
        else:
            drawn.append((len(offsets), box, k))
            offsets.append(None)
    for (at, box, k), state in zip(drawn, _box_states(seed, [box for _, box, _ in drawn])):
        rng.bit_generator.state = state
        offsets[at] = sample_cell_indices(box, k, rng)
    return offsets


def _linear_indices(level: list[GridCuboid], shapes: list[tuple[int, ...]],
                    offsets: list[np.ndarray], strides: np.ndarray) -> np.ndarray:
    """Domain linear indices of every box's offsets, concatenated in level order."""
    owner = np.repeat(np.arange(len(level)), [len(o) for o in offsets])
    lo = np.array([box.lo for box in level], dtype=np.int64)[owner]
    shape = np.array(shapes, dtype=np.int64)[owner]
    rest = np.concatenate(offsets)
    lin = np.zeros(len(rest), dtype=np.int64)
    for a in range(len(strides) - 1, -1, -1):
        rest, coord = np.divmod(rest, shape[:, a])
        lin += (coord + lo[:, a]) * strides[a]
    return lin


def _build_levels(domain: GridDomain, config: BuildConfig,
                  cache: QueryCache) -> tuple[Node, int, int, int]:
    """Build the tree one depth level at a time.

    Boxes of one level are disjoint, so their samples go to the cache as one
    batch of distinct cells.  Per box, one min, max and mean over its segment
    of that batch decide the level: ``range`` passes a box when max - min
    stays within the threshold, ``mean_dev`` when max(max - mean, mean - min)
    does, which is the largest |sample - mean| since float subtraction is
    monotone.  A passing box becomes a Leaf holding those three, its mean
    clamped into [min, max]; a failing one hands its ``split()`` children to
    the next level.  The tree is then assembled bottom-up.  Returns the root
    plus the leaf count, depth and saturated-leaf count.
    """
    seed = config.seed & 0xFFFFFFFFFFFFFFFF
    strides = _strides(domain.extents)
    threshold = np.asarray(config.threshold, dtype=np.float64)
    sizes: dict[tuple[int, ...], int] = {}
    rng = np.random.Generator(np.random.PCG64(0))  # reseeded per box before use
    levels = []  # per depth: (boxes, each box's Leaf or its number of children)
    n_leaves = max_depth = saturated = 0
    level = [domain.root_cuboid()]
    while level:
        depth = len(levels)
        shapes = [box.extents() for box in level]
        offsets = _level_offsets(level, shapes, config, domain, seed, sizes, rng)
        values = cache.query_many(_linear_indices(level, shapes, offsets, strides))
        counts = [len(o) for o in offsets]
        starts = np.cumsum(counts) - counts
        lo = np.minimum.reduceat(values, starts)
        hi = np.maximum.reduceat(values, starts)
        # One add.reduce per box, as sample.mean(axis=0) sums: add.reduceat
        # adds in another order and would move the means' last bits.
        mean = np.array([np.add.reduce(values[s:s + k], axis=0)
                         for s, k in zip(starts.tolist(), counts)]) / np.array(counts)[:, None]
        spread = hi - lo if config.spread_mode == "range" else np.maximum(hi - mean, mean - lo)
        passed = np.all(spread <= threshold, axis=1).tolist()
        # sum / k can land an ulp outside the samples' range, e.g. when they
        # are all equal; clamp it back.
        mean = np.minimum(np.maximum(mean, lo), hi)
        outcome, below = [], []
        for box, shape, k, ok, value, lo_seen, hi_seen in zip(
                level, shapes, counts, passed, mean.tolist(), lo.tolist(), hi.tolist()):
            if max(shape) == 1:
                # Reached the grid floor: the value is exact, but when a parent
                # split forced us here the spread above was still over threshold.
                value = tuple(lo_seen)
                leaf = Leaf(box, value, 1, value, value, saturated=depth > 0)
            elif ok:
                leaf = Leaf(box, tuple(value), k, tuple(lo_seen), tuple(hi_seen))
            else:
                children = box.split()
                outcome.append(len(children))
                below.extend(children)
                continue
            outcome.append(leaf)
            n_leaves += 1
            max_depth = depth
            saturated += leaf.saturated
        levels.append((level, outcome))
        level = below

    nodes: list[Node] = []
    for level, outcome in reversed(levels):
        above, pos = [], 0
        for box, out in zip(level, outcome):
            if isinstance(out, Leaf):
                above.append(out)
            else:
                above.append(Branch(box, tuple(nodes[pos:pos + out])))
                pos += out
        nodes = above
    return nodes[0], n_leaves, max_depth, saturated


def build(f: ProfileFunction, domain: GridDomain, config: BuildConfig, *,
          sample_log=None, preload: dict | None = None) -> tuple[Subdivision, BuildReport]:
    """Approximate ``f`` over ``domain`` by an adaptive subdivision.

    Returns the subdivision plus a report with query counts, tree shape, and
    wall time.  ``sample_log`` may be a writable text file; every distinct
    query is appended as a CSV row (cell indices, then value components),
    ordered by cell.  ``preload`` seeds the cache with known values, keyed by
    row-major linear cell index, and receives each new answer as it arrives,
    also when the build then fails (used for resuming external profiling runs).
    """
    if f.arity != len(config.threshold):
        raise ValueError(
            f"profile arity {f.arity} does not match threshold arity {len(config.threshold)}")
    started = time.perf_counter()
    cache = QueryCache(f, domain, config, preload)
    root, n_leaves, max_depth, saturated = _build_levels(domain, config, cache)
    wall = time.perf_counter() - started

    report = BuildReport(cache.distinct_queries, cache.total_requests,
                         n_leaves, max_depth, saturated, wall)
    stats = report.to_dict()
    del stats["wall_time_s"]  # varies run to run; meshes and manifests must not
    metadata = {"profile": f.name, "config": config.echo(), "stats": stats}
    sub = Subdivision(domain, f.arity, root, metadata)
    if sample_log is not None:
        for index, value in cache.sorted_rows():
            row = list(map(str, index)) + [repr(v) for v in value]
            sample_log.write(",".join(row) + "\n")
    return sub, report

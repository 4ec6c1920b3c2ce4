"""Adaptive construction of subdivisions from blackbox profile functions.

The builder samples a cuboid, checks the spread of the observed values against
the splitting threshold, and either emits a constant leaf (the sample mean) or
cuts the cuboid in half along every splittable axis.  It works one depth
level at a time, and a level is two integer arrays of box bounds: sample
counts, sample cells, the per-box reductions (min, max, mean) that decide
the boxes and the split of the failing ones are array operations over the
whole level, and the samples of every box go to the profile as one batch.
The subdivision keeps the finished levels, and its box, leaf and branch
objects are made only when its tree is first read.  Sample counts come from
a pluggable policy; every queried point goes through a memoizing cache so
refinement never pays twice for the same grid cell.

Each cuboid draws from its own random stream derived from (seed, box), so a
subtree's construction is reproducible in isolation and independent of build
order.  A level's draws are replayed as arrays, bit-identical to
``Generator.choice`` on each box's own stream; the call itself runs per box
only for a shape with fewer boxes than draws, in NumPy's tail-shuffle branch,
and for boxes of 2**32 - 1 cells or more.  Queries run on the calling thread;
a profile that gains from running points at once, such as an external
command, does so inside its ``batch``.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .domain import GridCuboid, GridDomain, GridPoint, sample_cell_indices
from .errors import NonDeterministicProfileError, ProfileQueryError
from .mesh import Level, Subdivision, _split_bounds

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


def _answer_cells(f: ProfileFunction, domain: GridDomain, lins: np.ndarray, rows: np.ndarray,
                  todo: np.ndarray, check: np.ndarray | None = None) -> None:
    """Ask ``f`` for ``rows[i]``, the value at cell ``lins[i]``, where ``todo[i]`` is set.

    ``todo`` is cleared as each row is answered.  The rows go to ``f.batch`` in
    one call where ``f`` has one, and every finite row it returns answers its
    cell; if the call raises or returns another shape, nothing is answered.  The
    rows left, and the rows marked in ``check`` (answered already, and asked
    again to compare), are then asked of ``f.query`` one by one, in order.  A
    query that raises, or answers with anything but ``f.arity`` finite numbers,
    raises ProfileQueryError naming its point.
    """
    ask = np.flatnonzero(todo)
    if f.batch is not None and len(ask):
        try:
            values = np.asarray(f.batch(domain.world_from_linear(lins[ask])), dtype=np.float64)
        except Exception:
            values = np.empty(0)
        if values.shape == (len(ask), f.arity) or (f.arity == 1 and values.shape == ask.shape):
            values = values.reshape(len(ask), f.arity)
            finite = np.isfinite(values).all(axis=1)
            rows[ask[finite]] = values[finite]
            todo[ask[finite]] = False
    order = np.flatnonzero(todo if check is None else todo | check).tolist()
    for i, point in zip(order, domain.points_from_linear(lins[order])):
        try:
            value = tuple(map(float, f.query(point)))
        except ProfileQueryError:
            raise
        except Exception as e:
            raise ProfileQueryError(point, str(e)) from e
        if len(value) != f.arity:
            raise ProfileQueryError(point, f"expected {f.arity} components, got {len(value)}")
        if not all(map(math.isfinite, value)):
            raise ProfileQueryError(point, f"non-finite value {value}")
        if todo[i]:
            rows[i] = value
            todo[i] = False
        elif value != tuple(rows[i].tolist()):
            raise NonDeterministicProfileError(
                f"profile declared pure but point {point.index} "
                f"returned {value} after {tuple(rows[i].tolist())}")


# -- Sample-size policies -------------------------------------------------


def _check_nonnegative(name: str, value: float) -> None:
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {value}")


@dataclass(frozen=True)
class DiameterSampling:
    """k proportional to the cuboid's diameter in grid cells."""

    factor: float = 0.5

    def __post_init__(self):
        _check_nonnegative("factor", self.factor)

    def token(self) -> str:
        return f"diam:{self.factor:g}"


@dataclass(frozen=True)
class SupNormSampling:
    """Volume-proportional k with log^2 oversampling; targets worst-case error.

    ``c`` is the (hinted) Lipschitz constant of the profiled quantity with
    respect to world coordinates.
    """

    c: float

    def __post_init__(self):
        _check_nonnegative("c", self.c)

    def token(self) -> str:
        return f"sup:c={self.c:g}"


@dataclass(frozen=True)
class RmsSampling:
    """Diameter-proportional k with log^2 oversampling; targets RMS error."""

    c: float

    def __post_init__(self):
        _check_nonnegative("c", self.c)

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
    from the componentwise mean.  ``oversample_exponent`` is the (finite) power
    on the log factor of the sup-norm/RMS policies.
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
        if not self.threshold or not all(t > 0 for t in self.threshold):
            raise ValueError(f"thresholds must be > 0, got {self.threshold}")
        if not math.isfinite(self.oversample_exponent):
            raise ValueError(f"oversample_exponent must be finite, got {self.oversample_exponent}")
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


_MASK_64 = (1 << 64) - 1


class QueryCache:
    """Memoizes profile queries by grid cell and counts traffic.

    The store is one sorted array of linear cell indices with one row of
    values per index.  Each call looks its cells up with ``searchsorted`` and
    merges its new answers in once, so memory grows with the distinct cells
    queried, never with the domain.

    A small fraction of cache hits re-queries the profile and compares, to
    catch quantities that were declared pure but are not; each call draws
    those checks as one array over its hits, in order.  The store starts
    empty: a profile that keeps answers across runs, such as the CLI's
    external command, keeps them itself.
    """

    def __init__(self, f: ProfileFunction, domain: GridDomain, config: BuildConfig):
        self._f = f
        self._domain = domain
        self._check_rate = config.purity_check_rate if f.pure else 0.0
        self._check_rng = np.random.default_rng((config.seed ^ 0x5EEDCAFE) & _MASK_64)
        self.total_requests = 0
        self._keys = np.empty(0, dtype=np.int64)
        self._values = np.empty((0, f.arity))

    @property
    def distinct_queries(self) -> int:
        return len(self._keys)

    def query_many(self, lins: np.ndarray) -> np.ndarray:
        """Values at distinct cells, in order, as a ``(len(lins), arity)`` array.

        Each cell counts one request.  Hits are read from the store, and a
        purity spot-check is drawn for each hit, in order; only misses and
        checked hits then reach the profile, through ``_answer_cells``.  New
        answers join the store when the call ends, also when it fails.
        """
        lins = np.asarray(lins, dtype=np.int64)
        self.total_requests += len(lins)
        at = np.searchsorted(self._keys, lins)
        hit = at < len(self._keys)
        hit[hit] = self._keys[at[hit]] == lins[hit]
        rows = np.empty((len(lins), self._f.arity))
        rows[hit] = self._values[at[hit]]
        check = np.zeros_like(hit)
        if self._check_rate > 0:
            check[hit] = self._check_rng.random(np.count_nonzero(hit)) < self._check_rate
        todo = ~hit
        try:
            _answer_cells(self._f, self._domain, lins, rows, todo, check)
        finally:
            answered = ~(hit | todo)
            self._merge(lins[answered], rows[answered])
        return rows

    def _merge(self, keys: np.ndarray, values: np.ndarray) -> None:
        if len(keys):
            keys, first = np.unique(keys, return_index=True)
            at = np.searchsorted(self._keys, keys)
            self._keys = np.insert(self._keys, at, keys)
            self._values = np.insert(self._values, at, values[first], axis=0)

    def sorted_rows(self) -> list[tuple[tuple[int, ...], tuple[float, ...]]]:
        """Distinct queries as (index, value), ordered by linear index."""
        index = np.unravel_index(self._keys, self._domain.extents)
        return list(zip(zip(*(axis.tolist() for axis in index)),
                        map(tuple, self._values.tolist())))


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


# -- Per-box random streams -------------------------------------------------
#
# Box (lo, hi) draws from default_rng(SeedSequence((seed, *lo, *hi))).  A level's
# streams are made together: SeedSequence's hash in uint32 arithmetic, PCG64's
# 128-bit seeding, steps and output on 32-bit limbs held in uint64 arrays.

_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL_SIZE = 4
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK_128 = (1 << 128) - 1
_LOW_32 = np.uint64(0xFFFFFFFF)
_REPLAY_WORDS = 1 << 14     # stream words per chunk of replayed boxes


def _seed_sequence_words(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(row).generate_state(8)`` for each row of a ``(boxes, words)``
    uint32 array; all arithmetic wraps modulo 2**32, as in SeedSequence."""
    const, mult = _HASH_INIT_A, _HASH_MULT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & 0xFFFFFFFF
        value = value * np.uint32(const)
        return value ^ value >> np.uint32(16)

    boxes, length = entropy.shape
    pool = [hashmix(entropy[:, i] if i < length else np.zeros(boxes, dtype=np.uint32))
            for i in range(_POOL_SIZE)]
    for src in range(max(length, _POOL_SIZE)):
        for dst in range(_POOL_SIZE):
            if src != dst:
                mixed = (_MIX_MULT_L * pool[dst] - _MIX_MULT_R
                         * hashmix(pool[src] if src < _POOL_SIZE else entropy[:, src]))
                pool[dst] = mixed ^ mixed >> np.uint32(16)
    const, mult = _HASH_INIT_B, _HASH_MULT_B
    return np.stack([hashmix(pool[i % _POOL_SIZE]) for i in range(2 * _POOL_SIZE)], axis=1)


def _state_limbs(words: np.ndarray) -> list[np.ndarray]:
    """A ``(boxes, 2)`` array of high and low words as four ``(boxes, 1)`` limbs."""
    high, low = words[:, :1], words[:, 1:]
    return [low & _LOW_32, low >> np.uint64(32), high & _LOW_32, high >> np.uint64(32)]


def _mul_add(a: list, b: list, c: list, d: list) -> list[np.ndarray]:
    """``(a*b + c*d) mod 2**128`` on 32-bit limbs; operands broadcast."""
    cols: list = [0, 0, 0, 0]   # at most fourteen 32-bit halves of limb products each
    for x, y in ((a, b), (c, d)):
        for i in range(4):
            for j in range(4 - i):
                product = x[i] * y[j]
                cols[i + j] = cols[i + j] + (product & _LOW_32)
                if i + j < 3:
                    cols[i + j + 1] = cols[i + j + 1] + (product >> np.uint64(32))
    for i in range(3):
        cols[i + 1] = cols[i + 1] + (cols[i] >> np.uint64(32))
    return [col & _LOW_32 for col in cols]


def _box_states(seed: int, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per box, the PCG64 ``(state, inc)`` of ``default_rng(SeedSequence((seed, *lo, *hi)))``.

    ``lo`` and ``hi`` are ``(boxes, ndim)`` arrays of non-negative integers;
    each result is a ``(boxes, 2)`` uint64 array of high and low words.
    SeedSequence reads a number as one uint32 word below 2**32 and two above,
    so boxes are hashed in groups that share one layout of words.
    """
    seed_words = [seed >> shift & 0xFFFFFFFF for shift in range(0, max(seed.bit_length(), 1), 32)]
    numbers = np.concatenate([lo, hi], axis=1).astype(np.uint64)
    # Bit c of a box's layout is set when its number c takes two words.
    wide = (numbers >> np.uint64(32) != 0) @ (1 << np.arange(numbers.shape[1]))
    layouts, which = np.unique(wide, return_inverse=True)
    seeded = np.empty((len(numbers), 2 * _POOL_SIZE), dtype=np.uint32)
    for i, layout in enumerate(layouts.tolist()):
        rows = np.flatnonzero(which == i)
        words = [np.full(len(rows), w, dtype=np.uint64) for w in seed_words]
        for column, number in enumerate(numbers[rows].T):
            words += [number & _LOW_32, number >> np.uint64(32)][:1 + (layout >> column & 1)]
        seeded[rows] = _seed_sequence_words(np.stack(words, axis=1).astype(np.uint32))
    # PCG64's seeding reads high and low words of a start, then of an
    # increment, which it makes odd; the state is M * start + (M + 1) * inc.
    seeded = seeded.astype("<u4").view("<u8").astype(np.uint64)
    inc = np.stack([seeded[:, 2] << np.uint64(1) | seeded[:, 3] >> np.uint64(63),
                    seeded[:, 3] << np.uint64(1) | np.uint64(1)], axis=1)
    step = _jump_table(2)   # M is the multiplier for one step, M + 1 is G_2
    l0, l1, l2, l3 = _mul_add(_state_limbs(step[:1, 0]), _state_limbs(seeded[:, :2]),
                              _state_limbs(step[1:, 1]), _state_limbs(inc))
    return np.concatenate([l3 << np.uint64(32) | l2, l1 << np.uint64(32) | l0], axis=1), inc


@functools.lru_cache(maxsize=None)
def _jump_table(size: int) -> np.ndarray:
    """High and low words of ``M**t`` and ``G_t = M**(t-1) + ... + 1`` for t = 1..size,
    as ``(size, 2, 2)``: ``t`` PCG64 steps take a state s to ``M**t * s + G_t * inc``."""
    rows, m, g = [], 1, 0
    for _ in range(size):
        m, g = m * _PCG_MULT & _MASK_128, (g * _PCG_MULT + 1) & _MASK_128
        rows.append([[m >> 64, m & _MASK_64], [g >> 64, g & _MASK_64]])
    return np.array(rows, dtype=np.uint64)


def _stream(state: np.ndarray, inc: np.ndarray, start: int, count: int) -> np.ndarray:
    """Words ``2*start`` to ``2*(start + count)`` of each box's ``next_uint32`` stream:
    output ``t`` is the XSL-RR of the state after ``t + 1`` steps, low half first."""
    table = _jump_table(1 << (start + count - 1).bit_length())[start:start + count]
    mult, add = ([limb.T for limb in _state_limbs(table[:, i])] for i in (0, 1))
    l0, l1, l2, l3 = _mul_add(mult, _state_limbs(state), add, _state_limbs(inc))
    x = (l3 ^ l1) << np.uint64(32) | l2 ^ l0
    rot = l3 >> np.uint64(26)
    out = x >> rot | x << (np.uint64(64) - rot & np.uint64(63))
    return np.stack([out & _LOW_32, out >> np.uint64(32)], axis=2).reshape(len(state), -1)


def _replay_choice(state: np.ndarray, inc: np.ndarray, n: int, k: int) -> np.ndarray:
    """``Generator.choice(n, k, replace=False)`` on each box's stream, bit for bit.

    ``state`` and ``inc`` are ``_box_states`` rows; returns ``(boxes, k)``
    offsets.  NumPy's algorithm for ``n < 2**32 - 1`` outside its tail-shuffle
    branch (``n > 10000`` and ``k > n // 50``) is Floyd's selection (Bentley
    and Floyd, CACM 1987), then a Fisher-Yates shuffle.  Its ``2k - 1`` draws
    are Lemire's bounded integers (ACM TOMACS 2019): Floyd's in [0, j] for
    j = n-k..n-1, the shuffle's in [0, i] for i = k-1..1.
    """
    # A draw is the high word of word * span, unless the low word is below
    # 2**32 mod span: that word is skipped, and every later draw moves on too.
    span = np.concatenate([np.arange(n - k, n), np.arange(k - 1, 0, -1)]).astype(np.uint64) + 1
    threshold = (np.uint64(1 << 32) - span) % span
    words = _stream(state, inc, 0, k)
    pos = np.broadcast_to(np.arange(2 * k - 1), (len(state), 2 * k - 1))
    while True:
        product = np.take_along_axis(words, pos, axis=1) * span
        rejected = (product & _LOW_32) < threshold
        if not rejected.any():
            break
        pos = pos + np.logical_or.accumulate(rejected, axis=1)
        if pos[:, -1].max() == words.shape[1]:
            words = np.concatenate([words, _stream(state, inc, words.shape[1] // 2, 1)], axis=1)
    drawn = (product >> np.uint64(32)).astype(np.int64)
    floyd = drawn[:, :k]
    # Floyd takes j for a draw picked before: one equal to an earlier draw, or
    # to the j of an earlier step that took its j.  Links followed by doubling.
    step = np.arange(k)
    order = np.argsort(floyd, axis=1, kind="stable")
    ranked = np.take_along_axis(floyd, order, axis=1)
    taken = np.zeros(floyd.shape, dtype=bool)
    np.put_along_axis(taken, order[:, 1:], ranked[:, 1:] == ranked[:, :-1], axis=1)
    link = np.where(floyd >= n - k, floyd - (n - k), step)
    for _ in range(k.bit_length()):
        taken |= np.take_along_axis(taken, link, axis=1)
        link = np.take_along_axis(link, link, axis=1)
    picks = np.where(taken, step + (n - k), floyd)
    boxes = np.arange(len(picks))
    for i, j in zip(range(k - 1, 0, -1), drawn[:, k:].T):
        picks[boxes, j], picks[:, i] = picks[:, i].copy(), picks[boxes, j]
    return picks


def _draw_each(state: np.ndarray, inc: np.ndarray, box: GridCuboid, k: int,
               rng: np.random.Generator) -> np.ndarray:
    """``(boxes, k)`` offsets: ``rng`` set to each box's state, then ``sample_cell_indices``."""
    picks = np.empty((len(state), k), dtype=np.int64)
    for i, (s_hi, s_lo, c_hi, c_lo) in enumerate(np.concatenate([state, inc], axis=1).tolist()):
        rng.bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                                   "state": {"state": s_hi << 64 | s_lo, "inc": c_hi << 64 | c_lo}}
        picks[i] = sample_cell_indices(box, k, rng)
    return picks


# -- Levels as arrays -------------------------------------------------------


def _sample_cells(lo: np.ndarray, hi: np.ndarray, config: BuildConfig, domain: GridDomain,
                  sizes: dict, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Each box's sample count, and the linear indices of all samples in level order.

    Counts come from one ``sample_size`` per distinct box shape: ``sizes``
    keeps each shape's count and a cuboid of that shape for the whole build.
    A box that asks for all its cells takes them in row-major order.  Any
    other box draws from its own stream, bit for bit as ``Generator.choice``:
    the boxes of one shape as arrays, or, where that does not pay or NumPy
    takes another branch, with ``rng`` set to each box's state in turn.
    """
    shape = hi - lo
    # Shapes as mixed-radix numbers, the first axis most significant, sort as the rows do.
    low = shape.min(axis=0)
    place = np.append(np.cumprod((shape.max(axis=0) - low + 1)[:0:-1])[::-1], 1)
    _, first, which = np.unique((shape - low) @ place, return_index=True, return_inverse=True)
    picked = []
    for row in map(tuple, shape[first].tolist()):
        if row not in sizes:
            box = GridCuboid((0,) * len(row), row)
            sizes[row] = (1 if box.cell_count == 1
                          else sample_size(config.policy, box, config, domain), box)
        picked.append(sizes[row])
    counts = np.array([k for k, _ in picked], dtype=np.int64)[which]
    starts = np.cumsum(counts) - counts
    owner = np.repeat(np.arange(len(lo)), counts)
    offset = np.arange(len(owner)) - starts[owner]
    draws = counts < shape.prod(axis=1)
    if draws.any():
        drawing = np.flatnonzero(draws)
        state, inc = _box_states(config.seed & _MASK_64, lo[drawing], hi[drawing])
        for u, (k, box) in enumerate(picked):
            rows = np.flatnonzero(which[drawing] == u)
            n = box.cell_count
            if not len(rows):
                continue
            replay = len(rows) >= k and n < 2**32 - 1 and not (n > 10000 and k > n // 50)
            step = max(k, _REPLAY_WORDS // (2 * k)) if replay else len(rows)
            for part in np.split(rows, range(step, len(rows), step)):
                offset[starts[drawing[part], None] + np.arange(k)] = (
                    _replay_choice(state[part], inc[part], n, k) if replay
                    else _draw_each(state[part], inc[part], box, k, rng))
    cell = lo[owner]
    shape = shape[owner]
    for a in range(domain.ndim - 1, -1, -1):
        offset, coord = np.divmod(offset, shape[:, a])
        cell[:, a] += coord
    return counts, np.ravel_multi_index(tuple(cell.T), domain.extents)


def _segment_means(values: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Mean of each box's ``counts`` consecutive rows of ``values`` from ``starts``.

    Boxes with equal counts are summed together, as one ``(boxes, k, arity)``
    array reduced along its middle axis; that adds each box's rows in the
    order ``values[s:s + k].sum(axis=0)`` does, which ``add.reduceat`` would
    not.
    """
    sums = np.empty((len(counts), values.shape[1]))
    ks, group = np.unique(counts, return_inverse=True)
    for g, k in enumerate(ks.tolist()):
        boxes = np.flatnonzero(group == g)
        sums[boxes] = np.add.reduce(values[starts[boxes, None] + np.arange(k)], axis=1)
    return sums / counts[:, None]


def _build_levels(domain: GridDomain, config: BuildConfig,
                  cache: QueryCache) -> list[Level]:
    """Build the subdivision's levels one depth at a time.

    A level is a pair of ``(boxes, ndim)`` bound arrays.  Its boxes are
    disjoint, so their samples go to the cache as one batch of distinct
    cells.  Per box, one min, max and mean over its rows of that batch decide
    the level: ``range`` passes a box when max - min stays within the
    threshold, ``mean_dev`` when max(max - mean, mean - min) does, which is
    the largest |sample - mean| since float subtraction is monotone.  A
    passing box, or a single-cell one, becomes a leaf holding those three,
    its mean clamped into [min, max]; the failing boxes' split children form
    the next level.
    """
    threshold = np.asarray(config.threshold, dtype=np.float64)
    sizes: dict = {}
    rng = np.random.Generator(np.random.PCG64(0))  # reseeded per box before use
    levels: list[Level] = []
    lo = np.zeros((1, domain.ndim), dtype=np.int64)
    hi = np.array([domain.extents], dtype=np.int64)
    while len(lo):
        counts, lins = _sample_cells(lo, hi, config, domain, sizes, rng)
        values = cache.query_many(lins)
        starts = np.cumsum(counts) - counts
        lo_seen = np.minimum.reduceat(values, starts)
        hi_seen = np.maximum.reduceat(values, starts)
        mean = _segment_means(values, starts, counts)
        spread = (hi_seen - lo_seen if config.spread_mode == "range"
                  else np.maximum(hi_seen - mean, mean - lo_seen))
        # A single-cell box reached the grid floor: its one sample is exact,
        # but below the root a parent's split forced it, so it is saturated.
        floor = (hi - lo).prod(axis=1) == 1
        leaf = np.all(spread <= threshold, axis=1) | floor
        # sum / k can land an ulp outside the samples' range, e.g. when they
        # are all equal; clamp it back.
        mean = np.minimum(np.maximum(mean, lo_seen), hi_seen)
        forced = floor[leaf] & (len(levels) > 0)
        below_lo, below_hi, children = _split_bounds(lo[~leaf], hi[~leaf])
        levels.append(Level(lo, hi, leaf, children, mean[leaf], lo_seen[leaf], hi_seen[leaf],
                            counts[leaf], forced, np.zeros_like(forced)))
        lo, hi = below_lo, below_hi
    return levels


def build(f: ProfileFunction, domain: GridDomain, config: BuildConfig, *,
          sample_log=None) -> tuple[Subdivision, BuildReport]:
    """Approximate ``f`` over ``domain`` by an adaptive subdivision.

    Returns the subdivision plus a report with query counts, tree shape, and
    wall time.  ``sample_log`` may be a writable text file; every distinct
    query is appended as a CSV row (cell indices, then value components),
    ordered by cell.  Every query goes to ``f`` or to this build's own cache,
    which starts empty; a profile that must keep its answers across runs, or
    through a failed build, records them itself.
    """
    if f.arity != len(config.threshold):
        raise ValueError(
            f"profile arity {f.arity} does not match threshold arity {len(config.threshold)}")
    started = time.perf_counter()
    cache = QueryCache(f, domain, config)
    levels = _build_levels(domain, config, cache)
    wall = time.perf_counter() - started

    report = BuildReport(cache.distinct_queries, cache.total_requests,
                         sum(len(level.samples) for level in levels), len(levels) - 1,
                         sum(int(level.saturated.sum()) for level in levels), wall)
    stats = report.to_dict()
    del stats["wall_time_s"]  # varies run to run; meshes and manifests must not
    metadata = {"profile": f.name, "config": config.echo(), "stats": stats}
    sub = Subdivision(domain, f.arity, metadata=metadata, levels=levels)
    if sample_log is not None:
        for index, value in cache.sorted_rows():
            row = list(map(str, index)) + [repr(v) for v in value]
            sample_log.write(",".join(row) + "\n")
    return sub, report

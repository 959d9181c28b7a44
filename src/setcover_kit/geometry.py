"""Compact sets in finite-dimensional normed spaces.

Provides the metric context (selectable norms), a closed catalog of
compact-set representations, and the set-level operations used by the
rest of the kit: point-set distance, excess (one-sided discrepancy),
Hausdorff distance, enlargements and seeded sampling.

Every value is immutable after construction and every operation is a
pure function of its arguments plus an explicit seed, so concurrent use
is safe and results are schedule-independent.

Closed forms are used wherever they exist (balls, boxes, spheres,
orthants, finite vertex sets); euclidean distances to halfspace
intersections come from a projection checked by its KKT conditions.
Where only an iterative scheme or a bracket is available (polytope
projection, region distances under p-norms) the result carries an
``approximate`` flag and an error estimate instead of a silently wrong
value; ``+inf`` is the sentinel for an excess that no bounded target can
absorb.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.random.bit_generator import ISeedSequence
from scipy.optimize import nnls

from ._lp import (LPAnomalyError, basis_extents, coordinate_extent, extent_bases,
                  max_norm_fit)

DEFAULT_TOL = 1e-9
BOX_CORNER_CAP = 256  # largest corner count a box's exact excess enumerates
# most form-row subsets a region's projection enumerates as active sets; rows past it
# solve a least-distance program each
PROJECTION_SUBSET_CAP = 1024
_PAIR_CHUNK = 1 << 14  # (row, subset) pairs evaluated at once by the projection
# a one-element 0.0 operand: numpy converts a Python float operand on every
# call, which costs more than the arithmetic on a few rows
_ZERO = np.zeros(1)
_ZERO.setflags(write=False)
# the error, approximate flag and note of one exact row, shared read-only
_EXACT_ROW = (_ZERO, np.zeros(1, dtype=bool), ("",))
_EXACT_ROW[1].setflags(write=False)

__all__ = [
    "DEFAULT_TOL",
    "DimensionMismatchError",
    "SamplingBudgetError",
    "Distance",
    "Distances",
    "Family",
    "Rounds",
    "Regions",
    "NormedSpace",
    "SetRep",
    "Ball",
    "Box",
    "VPolytope",
    "PointCloud",
    "FormGroup",
    "SublevelRegion",
    "Orthant",
    "Sphere",
    "EnlargedSet",
    "BoundednessFlag",
    "boundedness",
    "is_convex",
    "contains_point",
    "dist_point",
    "dists",
    "outer_radius",
    "excess",
    "hausdorff",
    "enlarge",
    "translate_set",
    "sample",
    "sample_enlargement",
    "rng_for",
]


class DimensionMismatchError(ValueError):
    """A point or set does not live in the expected space."""


class SamplingBudgetError(RuntimeError):
    """Rejection sampling exhausted its budget on a thin set."""


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    """Deterministic generator for (root seed, substream indices).

    Trials derive their generators from the root seed and their own
    index, so certificates do not depend on evaluation order.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=tuple(stream)))


# ---------------------------------------------------------------------------
# batched seeding: NumPy's SeedSequence hash (NEP 19, after O'Neill's seed_seq
# for PCG) run for many (seed, stream) keys at once, so that a certificate
# derives its trials' generator states together; rng_for stays the one-key
# path, and the reference

_M32 = 0xFFFFFFFF
_POOL_HASH = (0x43B0D7E5, 0x931E8875)  # (init, multiplier): entropy into the pool
_STATE_HASH = (0x8B51F9DD, 0x58F38DED)  # the pool out into the state words
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hash_steps(hash_pair: tuple[int, int], start: int, n: int):
    """Columns (xor, mult) of n hash steps from step `start`: step j xors
    init * mult**j and multiplies by init * mult**(j + 1), mod 2**32."""
    init, mult = hash_pair
    c = np.array([init * pow(mult, j, 1 << 32) & _M32 for j in range(start, start + n + 1)],
                 dtype=np.uint32)[:, None]
    return c[:-1], c[1:]


def _hashmix(v, xor, mult):
    v = (v ^ xor) * mult
    return v ^ (v >> 16)


def _mix(x, y):
    r = x * _MIX_L - y * _MIX_R
    return r ^ (r >> 16)


_FIRST = _hash_steps(_POOL_HASH, 0, 4)
# the pool's cross mixing: for source lane s, the other lanes take steps
# 4 + 3s.. in order; lane s itself is left as it was (its constant is unused)
_CROSS = [[np.insert(c, s, 0, axis=0) for c in _hash_steps(_POOL_HASH, 4 + 3 * s, 3)]
          for s in range(4)]
_STATE = _hash_steps(_STATE_HASH, 0, 8)


@functools.cache
def _word_steps(width: int):
    """(xor, mult) of the hash steps that mix `width` entropy words past the first
    four into the pool, shaped (width, 4, 1): word i takes steps 16 + 4i.., one per
    lane.  Built once per width, as _FIRST, _CROSS and _STATE are once, and read-only."""
    steps = tuple(c.reshape(width, 4, 1) for c in _hash_steps(_POOL_HASH, 16, 4 * width))
    for c in steps:
        c.setflags(write=False)
    return steps


def _u32_words(*ints) -> list[int]:
    """SeedSequence's entropy words of nonnegative ints: each one's 32-bit words, low first."""
    out = []
    for n in map(operator.index, ints):  # numpy integers too, as SeedSequence reads them
        if n < 0:
            raise ValueError("expected non-negative integer")
        out.append(n & _M32)
        while n > _M32:
            n >>= 32
            out.append(n & _M32)
    return out


def _mixed_words(pool: np.ndarray, words: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Mix each key's entropy past its first four words into its first-phase
    pool, (4, 1) shared or (4, k), and read out its four uint64 PCG64 seed
    words: (k, 4).  Key i takes the first lengths[i] rows of words (width, k),
    one round of array operations over the stacked (4, k) lanes per row."""
    width, k = words.shape
    pool = np.broadcast_to(pool, (4, k))
    xor, mult = _word_steps(width)
    hashed = _hashmix(words[:, None, :], xor, mult)  # each word into every lane
    every = lengths.min(initial=width)  # rows that every key takes
    for i in range(width):
        mixed = _mix(pool, hashed[i])
        pool = mixed if i < every else np.where(i < lengths, mixed, pool)
    state = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], *_STATE)
    # generate_state(4, np.uint64): each pair of uint32 words as one little-endian word
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64, copy=False)


def _seed_words(seed: int, streams) -> np.ndarray:
    """(k, 4) uint64: row i holds SeedSequence(entropy=seed, spawn_key=streams[i])
    .generate_state(4, np.uint64), the words PCG64 seeds rng_for(seed, *streams[i])
    from; the low 32 bits of its word 0 are generate_state(1)[0]."""
    tails = [_u32_words(*stream) for stream in streams]
    lengths = np.array([len(tail) for tail in tails], dtype=int)
    width = int(lengths.max(initial=0))
    words = np.array([tail + [0] * (width - len(tail)) for tail in tails], dtype=np.uint32)
    return _key_words(seed, words.reshape(len(streams), width).T, lengths)


def _trial_seed_words(seed: int, trials: int, sub: int | None = None) -> np.ndarray:
    """_seed_words(seed, keys) for the trial keys (0,), ..., (trials - 1,), followed
    with sub by (0, sub), ..., (trials - 1, sub): the keys assembled as arrays."""
    t = np.arange(trials, dtype=np.uint32)
    if sub is None:
        return _key_words(seed, t[None], np.ones(trials, dtype=int))
    words = np.zeros((2, 2 * trials), dtype=np.uint32)
    words[0] = np.tile(t, 2)
    words[1, trials:] = sub
    return _key_words(seed, words, np.repeat([1, 2], trials))


def _key_words(seed: int, words: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """_seed_words of the keys whose entropy words are the columns of words (width, k),
    key i taking the first lengths[i] rows.  The keys share the seed, so its
    first-phase pool is hashed once, by NumPy."""
    seed = operator.index(seed)
    run = np.array(_u32_words(seed)[4:], dtype=np.uint32)  # the seed's entropy past the pool
    words = np.concatenate([np.broadcast_to(run[:, None], (run.size, words.shape[1])), words])
    pool = np.random.SeedSequence(seed & (1 << 128) - 1).pool[:, None]
    return _mixed_words(pool, words, lengths + run.size)


def _sampling_words(seeds) -> np.ndarray:
    """(k, 2, 4): the seed words of rng_for(seed, 0) and rng_for(seed, 1), the two
    generators of sample_enlargement(..., seed), for each uint32 seed.  Each
    seed's first-phase pool is hashed once, as uint32 array operations over
    the seeds' stacked (4, k) lanes, one round per source lane."""
    k = len(seeds)
    pool = np.zeros((4, k), dtype=np.uint32)
    pool[0] = seeds  # a one-word seed, padded with zeros to the pool size
    pool = _hashmix(pool, *_FIRST)
    for s, (xor, mult) in enumerate(_CROSS):
        mixed = _mix(pool, _hashmix(pool[s], xor, mult))
        mixed[s] = pool[s]
        pool = mixed
    streams = (np.arange(2 * k, dtype=np.uint32) % 2)[None]  # streams 0 and 1 of each seed
    return _mixed_words(np.repeat(pool, 2, axis=1), streams,
                        np.ones(2 * k, dtype=int)).reshape(k, 2, 4)


class _SeedWords(ISeedSequence):
    """A seed that hands PCG64 the four words _seed_words derived for it."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words  # PCG64 asks for its four uint64 seed words


def _rng(words: np.ndarray) -> np.random.Generator:
    """The generator of one _seed_words row: rng_for's generator for that key, state for state."""
    return np.random.Generator(np.random.PCG64(_SeedWords(words)))


@functools.lru_cache(maxsize=1024)
def _stream_words(seed: int, stream: int) -> np.ndarray:
    """The four PCG64 seed words of rng_for(seed, stream), hashed once per key and kept."""
    words = np.random.SeedSequence(entropy=seed, spawn_key=(stream,)).generate_state(4, np.uint64)
    words.setflags(write=False)
    return words


def _pristine_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """A new generator in the initial state of rng_for(seed, stream), without hashing a
    key seen before again: each call is a fresh copy of that one generator."""
    return _rng(_stream_words(seed, stream))


class Distance(float):
    """A nonnegative float that can carry approximation metadata.

    Behaves as a plain float in arithmetic.  ``approximate`` is True when
    the value came from a budgeted scheme; ``error`` then bounds (or
    estimates) the gap to the true value.  ``math.inf`` is used as the
    sentinel for unabsorbable excesses.
    """

    approximate: bool
    error: float
    note: str

    def __new__(cls, value: float, approximate: bool = False, error: float = 0.0, note: str = ""):
        obj = super().__new__(cls, value)
        obj.approximate = approximate
        obj.error = error
        obj.note = note
        return obj

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self)


@dataclass(frozen=True, eq=False)
class NormedSpace:
    """R^dim equipped with one of the euclidean, max, or p-norms."""

    dim: int
    norm: str = "euclidean"  # "euclidean" | "max" | "p"
    p: float | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.norm not in ("euclidean", "max", "p"):
            raise ValueError(f"unknown norm selector {self.norm!r}")
        if self.norm == "p":
            if self.p is None or self.p < 1:
                raise ValueError("p-norm requires p >= 1")
        elif self.p is not None:
            raise ValueError("p is only meaningful for the p-norm selector")

    def check_point(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float).reshape(-1)
        if y.shape != (self.dim,):
            raise DimensionMismatchError(f"expected point of dim {self.dim}, got shape {y.shape}")
        return y

    def norms(self, v) -> np.ndarray:
        """Norms along the last axis: one per row of an (n, dim) array.

        Each equals np.linalg.norm, max|.| or sum(|.|**p)**(1/p) of its row
        bit for bit: vecdot runs the BLAS dot np.linalg.norm runs on one
        row (a square-and-sum rounds differently), and the p-th root is
        taken on Python floats, as numpy's array power may differ from the
        scalar one in the last bit.
        """
        v = np.ascontiguousarray(v, dtype=float)  # strided BLAS dots may round differently
        if self.norm == "euclidean":
            return np.sqrt(np.vecdot(v, v))
        if self.norm == "max":
            return np.abs(v).max(axis=-1, initial=0.0)
        # object dtype: each root is a Python float power
        return np.asarray((np.abs(v) ** self.p).sum(axis=-1).astype(object) ** (1.0 / self.p),
                          dtype=float)

    def norm_of(self, v) -> float:
        return float(self.norms(v))

    def dist(self, x, y) -> float:
        return self.norm_of(np.asarray(x, dtype=float) - np.asarray(y, dtype=float))

    def dual_norms(self, v) -> np.ndarray:
        """Norms of linear forms (the dual norm) along the last axis, one per row.

        The dual of the max norm is the 1-norm, that of the p-norm the
        q-norm with 1/p + 1/q = 1; rows are computed as in norms.
        """
        v = np.ascontiguousarray(v, dtype=float)
        if self.norm == "euclidean":
            return np.sqrt(np.vecdot(v, v))
        if self.norm == "max":
            return np.abs(v).sum(axis=-1)
        if self.p == 1.0:
            return np.abs(v).max(axis=-1, initial=0.0)
        q = self.p / (self.p - 1.0)
        return np.asarray((np.abs(v) ** q).sum(axis=-1).astype(object) ** (1.0 / q), dtype=float)

    def dual_norm_of(self, v) -> float:
        """Norm of a linear form, i.e. the dual norm of the space norm."""
        return float(self.dual_norms(v))

    def unit(self, v) -> np.ndarray:
        """v scaled to norm 1 along the last axis; a zero vector becomes the first basis vector."""
        v = np.asarray(v, dtype=float)
        n = self.norms(v)[..., None]
        if np.count_nonzero(n) == n.size:  # no zero vector: skip the masking
            return v / n
        zero = n == 0.0
        return np.where(zero, np.eye(1, self.dim)[0], v / np.where(zero, 1.0, n))


def _freeze(obj, name: str, value: np.ndarray) -> None:
    value = np.asarray(value, dtype=float)
    value.setflags(write=False)
    object.__setattr__(obj, name, value)


def _memo(obj, name: str, compute):
    """compute(), kept on the frozen obj under name on first use.

    Derived data thus lives and dies with its object.  Two racing first
    uses at worst compute the same value twice.
    """
    cache = obj.__dict__
    if name not in cache:
        cache[name] = compute()
    return cache[name]


class SetRep:
    """Base class of the closed-set catalog; all variants are nonempty and closed.

    Each kind carries its rules, which the module functions call once they
    have checked their arguments: convex, _dists(space, ys) for dists,
    _farthest(space, ys) for the largest of those distances, _excess(space, b,
    n_samples, seed) for excess over b, outer_radius(space,
    p), contains(space, y, tol), sample(space, n, seed, rng, box) with rng =
    rng_for(seed, 0), translate(v), enlarge(space, r) and affine_image(space_in,
    space_out, mat, off).  A kind without its own rule raises TypeError, except
    that contains falls back to the distance, _excess to the sampled supremum,
    enlarge to EnlargedSet and affine_image to a ValueError.
    """

    dim: int

    def _no_rule(self, *args):
        raise TypeError(f"unknown set representation {type(self).__name__}")

    _dists = outer_radius = sample = translate = _no_rule
    convex = property(_no_rule)

    def contains(self, space: NormedSpace, y: np.ndarray, tol: float) -> bool:
        """dist <= tol, where the kind has no exact membership test."""
        d = dist_point(space, y, self)
        return d <= tol + d.error

    def _excess(self, space: NormedSpace, b: SetRep, n_samples: int, seed: int) -> Distance:
        """The sampled supremum, where the kind has no closed form; +inf where the set
        is not certified bounded."""
        flag = boundedness(space, self)
        if not flag.bounded:
            return Distance(math.inf, note="region not certified bounded; excess sentinel")
        return _sampled_excess(space, self, b, n_samples, seed, flag)

    def _farthest(self, space: NormedSpace, ys: np.ndarray) -> Distance:
        """The largest distance of a row of ys to the set: the farthest row's value and
        note (the first such row's; 0.0 and "" where no row is outside), with every
        row's approximate flag and largest error."""
        d = dists(space, ys, self)
        i = int(np.argmax(d.value))
        far = d.value[i] > 0.0
        return Distance(float(d.value[i]) if far else 0.0, approximate=bool(d.approximate.any()),
                        error=float(d.error.max(initial=0.0)), note=d.note[i] if far else "")

    def enlarge(self, space: NormedSpace, r: float) -> SetRep:
        """The implicit wrapper, where the kind has no exact enlargement."""
        return EnlargedSet(self, r)

    def affine_image(self, space_in: NormedSpace, space_out: NormedSpace, mat: np.ndarray,
                     off: np.ndarray) -> SetRep:
        """{M y + off : y in the set}, the set measured in space_in and its image in space_out."""
        raise ValueError(f"affine image of {type(self).__name__} leaves the catalog")


@dataclass(frozen=True, eq=False)
class _Round(SetRep):
    """The fields, checks and shared rules of a ball and a sphere."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        _freeze(self, "center", self.center)
        if self.radius < 0:
            raise ValueError(f"{type(self).__name__.lower()} radius must be >= 0")
        object.__setattr__(self, "dim", self.center.shape[0])

    def outer_radius(self, space, p):
        return Distance(space.dist(self.center, p) + self.radius)

    def translate(self, v):
        return type(self)(self.center + v, self.radius)

    def sample(self, space, n, seed, rng, box):
        return Rounds(self.center[None], np.array([self.radius]), type(self) is Sphere).sample(
            space, n, [seed], lambda i, stream: rng, box)[0]

    def _dists(self, space, ys):
        return _exact(self._gap(space.norms(ys - self.center) - self.radius))

    def _excess(self, space, b, n_samples, seed):
        if isinstance(b, _Round):
            return Distance(Family.of([self]).excesses(space, Family.of([b])).item(0))
        if isinstance(b, PointCloud) and b.points.shape[0] == 1:
            return outer_radius(space, self, b.points[0])
        return super()._excess(space, b, n_samples, seed)

    def affine_image(self, space_in, space_out, mat, off):
        lam = _ball_image_factor(space_in, space_out, mat)
        return type(self)(mat @ self.center + off, lam * self.radius)


def _axis_points(centers: np.ndarray, radii, out: np.ndarray) -> None:
    """Write center + r e_1, center - r e_1, center + r e_2, ... into the last two axes of
    out, (..., 2 dim, dim), for each center (..., dim) and radius (...)."""
    steps = np.asarray(radii)[..., None, None] * np.eye(centers.shape[-1])
    out[..., 0::2, :] = centers[..., None, :] + steps
    out[..., 1::2, :] = centers[..., None, :] - steps


@dataclass(frozen=True, eq=False)
class Ball(_Round):
    convex = True

    @staticmethod
    def _gap(v):
        """The distance from its gap d(y, center) - radius: max(0.0, gap), NaN included."""
        return np.fmax(v, _ZERO)

    def contains(self, space, y, tol):
        return space.dist(y, self.center) <= self.radius + tol * max(1.0, self.radius)

    @staticmethod
    def _draw(space, out, center, radius, budget, rng):
        """Fill out (m, dim) with random points of the ball: cube candidates in chunks,
        at most budget of them, then radial draws."""
        m, d = out.shape
        filled = 0
        while filled < m and budget > 0:
            # one chunk draws the candidates one-at-a-time draws would; they are taken in order
            k = min(budget, 2 * (m - filled) + 16)
            cand = rng.uniform(-radius, radius, size=(k, d))
            budget -= k
            taken = cand[space.norms(cand) <= radius][:m - filled]
            out[filled:filled + len(taken)] = center + taken
            filled += len(taken)
        if filled < m:  # rejection starves in high dimension: radial draws fill the rest
            g = rng.standard_normal((m - filled, d))
            t = radius * rng.uniform(size=(m - filled, 1)) ** (1.0 / d)
            out[filled:] = center + t * space.unit(g)

    def enlarge(self, space, r):
        return Ball(self.center, self.radius + r)


@dataclass(frozen=True, eq=False)
class Sphere(_Round):
    @property
    def convex(self):
        return self.radius == 0.0

    _gap = staticmethod(np.abs)  # the distance from its gap d(y, center) - radius

    def contains(self, space, y, tol):
        return abs(space.dist(y, self.center) - self.radius) <= tol * max(1.0, self.radius)

    @staticmethod
    def _draw(space, out, center, radius, budget, rng):
        """Fill out (m, dim) with random points of the sphere, by normalised normal draws."""
        out[:] = center + radius * space.unit(rng.standard_normal(out.shape))


@dataclass(frozen=True, eq=False)
class Box(SetRep):
    lo: np.ndarray
    hi: np.ndarray

    convex = True

    def __post_init__(self):
        _freeze(self, "lo", self.lo)
        _freeze(self, "hi", self.hi)
        if self.lo.shape != self.hi.shape:
            raise DimensionMismatchError("box corners must have equal shape")
        if np.any(self.lo > self.hi):
            raise ValueError("box requires lo <= hi componentwise")
        object.__setattr__(self, "dim", self.lo.shape[0])

    def corners(self, cap: int = BOX_CORNER_CAP) -> np.ndarray:
        n = self.lo.shape[0]
        if 2**n > cap:
            raise ValueError(f"box has 2^{n} corners, above cap {cap}")
        return self.first_corners(2**n)

    def first_corners(self, k: int) -> np.ndarray:
        """The first min(k, 2^dim) corners in corners() order, building no others.

        Row r takes hi in coordinate i when bit b_i of r is set, where
        b = (1, 0, 2, 3, ...): the order of meshgrid's "xy" indexing.
        """
        n = self.lo.shape[0]
        bits = np.arange(n)
        if n >= 2:
            bits[:2] = (1, 0)
        rows = np.arange(min(k, 2**n))[:, None]
        masks = (rows >> np.minimum(bits, 62)) & 1  # rows < 2^62: higher bits are 0
        return np.where(masks == 0, self.lo, self.hi).astype(float)

    def _dists(self, space, ys):
        return _exact(space.norms(np.clip(ys, self.lo, self.hi) - ys))

    def _excess(self, space, b, n_samples, seed):
        if b.convex and 2**self.dim <= BOX_CORNER_CAP:  # as VPolytope; above the cap, sampled
            return b._farthest(space, self.corners())
        return super()._excess(space, b, n_samples, seed)

    def outer_radius(self, space, p):
        return Distance(_box_radius(space, self.lo, self.hi, p))

    def contains(self, space, y, tol):
        scale = 1.0 + float(np.max(np.abs(np.concatenate([self.lo, self.hi]))))
        return bool(np.all(y >= self.lo - tol * scale) and np.all(y <= self.hi + tol * scale))

    def sample(self, space, n, seed, rng, box):
        pts = list(self.first_corners(min(n, 64)))
        while len(pts) < n:
            pts.append(rng.uniform(self.lo, self.hi))
        return np.array(pts[:n])

    def translate(self, v):
        return Box(self.lo + v, self.hi + v)

    def affine_image(self, space_in, space_out, mat, off):
        return VPolytope(self.corners() @ mat.T + off)


@dataclass(frozen=True, eq=False)
class VPolytope(SetRep):
    """Convex hull of finitely many vertices (>= 1)."""

    vertices: np.ndarray

    convex = True

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[0] < 1:
            raise ValueError("VPolytope needs a (k, dim) vertex array with k >= 1")
        _freeze(self, "vertices", v)
        object.__setattr__(self, "dim", v.shape[1])

    def _dists(self, space, ys):
        rows = [_dist_polytope(space, y, self) for y in ys]
        return Distances(np.array([float(d) for d in rows]),
                         np.array([d.error for d in rows], dtype=float),
                         np.array([d.approximate for d in rows], dtype=bool),
                         tuple(d.note for d in rows))

    def _excess(self, space, b, n_samples, seed):
        if b.convex:  # dist(., convex) is convex: its vertex max is exact
            return b._farthest(space, self.vertices)
        return super()._excess(space, b, n_samples, seed)

    def outer_radius(self, space, p):
        return Distance(float(space.norms(self.vertices - p).max()))

    def sample(self, space, n, seed, rng, box):
        pts = list(self.vertices[:n])
        k = self.vertices.shape[0]
        while len(pts) < n:
            w = rng.dirichlet(np.ones(k))
            pts.append(w @ self.vertices)
        return np.array(pts[:n])

    def translate(self, v):
        return VPolytope(self.vertices + v)

    def affine_image(self, space_in, space_out, mat, off):
        return VPolytope(self.vertices @ mat.T + off)


@dataclass(frozen=True, eq=False)
class PointCloud(SetRep):
    """A finite, nonempty set of points (not its hull)."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ValueError("PointCloud needs a (k, dim) array with k >= 1")
        _freeze(self, "points", pts)
        object.__setattr__(self, "dim", pts.shape[1])

    @property
    def convex(self):
        return self.points.shape[0] == 1

    def _dists(self, space, ys):
        return _exact(space.norms(ys[:, None, :] - self.points).min(axis=1))

    def _excess(self, space, b, n_samples, seed):
        return b._farthest(space, self.points)

    def outer_radius(self, space, p):
        return Distance(float(space.norms(self.points - p).max()))

    def contains(self, space, y, tol):
        return bool((space.norms(self.points - y) <= tol).any())

    def sample(self, space, n, seed, rng, box):
        reps = int(np.ceil(n / self.points.shape[0]))
        return np.tile(self.points, (reps, 1))[:n]

    def translate(self, v):
        return PointCloud(self.points + v)

    def affine_image(self, space_in, space_out, mat, off):
        return PointCloud(self.points @ mat.T + off)


@dataclass(frozen=True, eq=False)
class FormGroup:
    """One constraint group: max_j <a[j], y> <= b."""

    a: np.ndarray
    b: float

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        if a.ndim != 2 or a.shape[0] < 1:
            raise ValueError("form group needs a (m, dim) array with m >= 1")
        _freeze(self, "a", a)


@dataclass(frozen=True, eq=False)
class SublevelRegion(SetRep):
    """{y : max_j <a_ij, y> <= b_i for every group i}; closed, convex, possibly unbounded."""

    groups: tuple[FormGroup, ...]

    convex = True

    def __post_init__(self):
        groups = tuple(self.groups)
        if not groups:
            raise ValueError("sublevel region needs at least one group")
        dims = {g.a.shape[1] for g in groups}
        if len(dims) != 1:
            raise DimensionMismatchError("all form groups must share the ambient dimension")
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "dim", dims.pop())

    def forms(self) -> tuple[np.ndarray, np.ndarray]:
        """Every form row stacked as (A, b), so that the region is {y : A y <= b}.

        Built on first use and kept on the region; both arrays are read-only.
        """
        def stack():
            a = np.concatenate([g.a for g in self.groups])
            b = np.array([g.b for g in self.groups for _ in range(g.a.shape[0])], dtype=float)
            a.setflags(write=False)
            b.setflags(write=False)
            return a, b
        return _memo(self, "_forms", stack)

    def extent(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Coordinate bounds (lo, hi) and the extreme points attaining them.

        Found on first use and kept on the region.  A row of a `Regions`
        family reads it from the optimal bases its family's form region
        keeps, by one linear solve per end, where every basis point is
        feasible (`_lp.basis_extents`); a region that is no such row, or a
        row the bases do not serve, solves 2*dim small LPs
        (`_lp.coordinate_extent`).  Either way the extent depends only on
        the form rows and bounds.
        """
        def solve():
            a, b = self.forms()
            form = self.__dict__.get("_form_region")
            served = None if form is None else _basis_extents(form, b[None])[0]
            return coordinate_extent(a, b) if served is None else served
        return _memo(self, "_extent", solve)

    def _dists(self, space, ys):
        b = self.forms()[1]
        return _dists_region(space, ys, self, np.broadcast_to(b, (ys.shape[0], b.shape[0])))

    def _farthest(self, space, ys):
        """Under the max norm, bounds first: a row outside the region costs one LP, and
        is solved only while its upper bound can reach the largest value found.

        The outside row with the largest single-halfspace lower bound is solved first;
        where its LP is infeasible the region is empty, +inf exact.  Each other outside
        row's upper bound is its distance along a segment to a member (`_exit_bounds`):
        the extent's argpoints, their mean and the first LP's point.  The rows go in
        decreasing order of bound, and stop at the first bound below the largest value
        by more than 1e-6 relative, a margin over the members' feasibility slack and the
        LP tolerances.  Each LP is the one `dists` solves for its row, from scratch, and
        a row that can tie the largest value is solved, so the result is that of the
        every-row maximum bit for bit.
        """
        if space.norm != "max":
            return super()._farthest(space, ys)
        a, b = self.forms()
        viol = np.vecdot(ys[:, None, :], a) - b
        out = np.flatnonzero(~np.logical_and.reduce(viol <= _ZERO, axis=1))
        if out.size == 0:
            return Distance(0.0)
        eye, k = np.eye(self.dim), int(np.argmax(_halfspace_bounds(space, self, viol[out])))
        res = max_norm_fit(eye, ys[out[k]], a_ub=a, b_ub=b)
        if res is None:
            return Distance(math.inf, note="empty region")
        best = float(res.fun)
        rest = np.delete(out, k)
        if rest.size:
            try:  # asked only now: the extent raises on an empty region
                members = self.extent()[2]
            except LPAnomalyError:  # an extent LP failed where the distance LP did not
                members = np.zeros((0, self.dim))
            if members.shape[0]:
                members = np.vstack([members, members.mean(axis=0)])
            bound = _exit_bounds(a, b, np.vstack([members, res.x[:-1]]), ys[rest])
            for j in np.argsort(-bound, kind="stable").tolist():
                if bound[j] < best - 1e-6 * (1.0 + best):
                    break
                res = max_norm_fit(eye, ys[rest[j]], a_ub=a, b_ub=b)
                if res is None:
                    return Distance(math.inf, note="empty region")
                best = max(best, float(res.fun))
        return Distance(best if best > 0.0 else 0.0)

    def outer_radius(self, space, p):
        lo, hi, _ = self.extent()
        if np.all(np.isfinite(lo)) and np.all(np.isfinite(hi)):
            val = _box_radius(space, lo, hi, p)
            return Distance(val, approximate=True, error=val,
                            note="box overestimate of the region's outer radius")
        return Distance(math.inf, note="unbounded region")

    def contains(self, space, y, tol):
        a, b = self.forms()
        val = np.vecdot(a, y)
        return not (val > b + tol * np.maximum(np.maximum(1.0, np.abs(val)), np.abs(b))).any()

    def sample(self, space, n, seed, rng, box):
        a, b = self.forms()
        lo, hi, argpoints = self.extent()
        if box is None:
            scale = 1.0 + float(np.abs(b).max())
            lo = np.where(np.isfinite(lo), lo, -10.0 * scale)
            hi = np.where(np.isfinite(hi), hi, 10.0 * scale)
        else:
            lo, hi = np.asarray(box[0], dtype=float), np.asarray(box[1], dtype=float)
        lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)  # LP roundoff can cross degenerate bounds
        # extreme candidates: per-coordinate LP optima are vertices of the region
        pts: list[np.ndarray] = list(argpoints[:n])
        budget = 60 * n + 600  # candidates
        while len(pts) < n and budget > 0:
            # as in Ball.sample; a chunk never outruns the budget, so the fallbacks
            # below draw from where one-at-a-time draws would have left the stream
            k = min(budget, 2 * (n - len(pts)) + 16)
            cand = rng.uniform(lo, hi, size=(k, lo.shape[0]))
            budget -= k
            inside = (np.vecdot(a, cand[:, None, :]) <= b + 1e-12).all(axis=1)
            pts.extend(cand[inside][:n - len(pts)])
        if len(pts) < n:
            # thin region: project box samples onto it instead of rejecting forever
            state = rng.bit_generator.state
            z = _project_region(self, b, rng.uniform(lo, hi, size=(n - len(pts), lo.shape[0])))[0]
            slack = 1e-9 * np.maximum(1.0, np.abs(b))
            inside = (np.vecdot(a, z[:, None, :]) <= b + slack).all(axis=1)
            j = int(np.argmin(inside)) if not inside.all() else z.shape[0]
            pts.extend(z[:j])
            if j < z.shape[0]:
                # projection j ends outside: sampling stops there, so the stream goes
                # on from where drawing the first j + 1 box points one at a time leaves it
                rng.bit_generator.state = state
                rng.uniform(lo, hi, size=(j + 1, lo.shape[0]))
        if len(pts) < n:
            # the projection ends outside; the LP argpoints are members, and so are
            # their convex combinations
            if len(argpoints) == 0:
                raise SamplingBudgetError(
                    "could not produce region samples; supply an explicit bounding box")
            pts.extend(rng.dirichlet(np.ones(len(argpoints)), size=n - len(pts)) @ argpoints)
        return np.array(pts[:n])

    def translate(self, v):
        # translation shifts each form's bound; groups split into singletons
        groups = []
        for g in self.groups:
            for row in g.a:
                groups.append(FormGroup(row.reshape(1, -1), g.b + float(row @ v)))
        return SublevelRegion(tuple(groups))

    def affine_image(self, space_in, space_out, mat, off):
        if mat.shape[0] != mat.shape[1]:
            raise ValueError("region images need an invertible matrix")
        inv_t = np.linalg.inv(mat).T
        groups = []
        for grp in self.groups:
            # the forms' offsets differ: one group per form row (same set, finer groups)
            for row in grp.a @ inv_t.T:
                groups.append(FormGroup(row.reshape(1, -1), grp.b + float(row @ off)))
        return SublevelRegion(tuple(groups))


@dataclass(frozen=True, eq=False)
class Orthant(SetRep):
    """apex + nonnegative cone."""

    apex: np.ndarray

    convex = True

    def __post_init__(self):
        _freeze(self, "apex", self.apex)
        object.__setattr__(self, "dim", self.apex.shape[0])

    def _dists(self, space, ys):
        return _exact(space.norms(np.maximum(0.0, self.apex - ys)))

    def _excess(self, space, b, n_samples, seed):
        if isinstance(b, Orthant):
            return Distance(space.norm_of(np.maximum(0.0, b.apex - self.apex)))
        return Distance(math.inf, note="unbounded orthant over a non-absorbing target")

    def outer_radius(self, space, p):
        return Distance(math.inf, note="orthant is unbounded")

    def contains(self, space, y, tol):
        scale = 1.0 + float(np.max(np.abs(self.apex)))
        return bool(np.all(y >= self.apex - tol * scale))

    def sample(self, space, n, seed, rng, box):
        scale = 1.0 + float(np.max(np.abs(self.apex)))
        # one (n - 1)-row draw takes the stream of n - 1 one-row draws
        steps = np.abs(rng.standard_normal((n - 1, space.dim))) * scale
        return np.vstack([self.apex, self.apex + steps])

    def translate(self, v):
        return Orthant(self.apex + v)

    def enlarge(self, space, r):
        if space.norm == "max":
            return Orthant(self.apex - r)
        return super().enlarge(space, r)


@dataclass(frozen=True, eq=False)
class EnlargedSet(SetRep):
    """Implicit r-enlargement of a base set: membership via dist <= margin.

    Used when no lossless concrete representation of the enlargement
    exists in the catalog.
    """

    base: SetRep
    margin: float

    def __post_init__(self):
        if self.margin < 0:
            raise ValueError("enlargement margin must be >= 0")
        object.__setattr__(self, "dim", self.base.dim)

    @property
    def convex(self):
        return self.base.convex  # enlargement preserves convexity in a normed space

    def _dists(self, space, ys):
        value, *rest = self.base._dists(space, ys)
        return Distances(np.fmax(value - self.margin, _ZERO), *rest)

    def _excess(self, space, b, n_samples, seed):
        if isinstance(b, Ball):
            rad = outer_radius(space, self, b.center)
            return Distance(max(0.0, float(rad) - b.radius),
                            approximate=rad.approximate, error=rad.error)
        inner = excess(space, self.base, b, n_samples=n_samples, seed=seed)
        if inner.is_infinite:
            return inner
        # sup over the enlargement is within [inner, inner + margin], inner within its error
        return Distance(float(inner) + self.margin, approximate=True,
                        error=inner.error + self.margin,
                        note="enlargement excess bracketed by its margin")

    def outer_radius(self, space, p):
        inner = outer_radius(space, self.base, p)
        return Distance(float(inner) + self.margin, approximate=inner.approximate,
                        error=inner.error)

    def contains(self, space, y, tol):
        d = dist_point(space, y, self.base)
        return d <= self.margin + tol * max(1.0, self.margin) + d.error

    def sample(self, space, n, seed, rng, box):
        base_pts = sample(space, self.base, n, seed, box=box)
        depth, dirs = [], []
        for i in range(len(base_pts)):
            depth.append(1.0 if i % 2 == 0 else rng.uniform())
            dirs.append(rng.standard_normal(space.dim))
        return base_pts + (self.margin * np.array(depth))[:, None] * space.unit(dirs)

    def translate(self, v):
        return EnlargedSet(translate_set(self.base, v), self.margin)

    def enlarge(self, space, r):
        return enlarge(space, self.base, self.margin + r)

    def affine_image(self, space_in, space_out, mat, off):
        lam = _ball_image_factor(space_in, space_out, mat)
        return EnlargedSet(self.base.affine_image(space_in, space_out, mat, off), lam * self.margin)


# _ball_image_factor's answers, kept: a map's images ask for the factor on every
# evaluation, and the orthogonality test alone takes tens of microseconds
_FACTORS: dict = {}
_FACTORS_KEPT = 4096


def _ball_image_factor(space_in: NormedSpace, space_out: NormedSpace, mat: np.ndarray) -> float:
    """lam with ||M v||_out = lam ||v||_in for every v, so that M maps each ball of
    space_in onto a ball of space_out; raises ValueError where no such lam is known.

    Two cases: euclidean to euclidean with M scaled-orthogonal, and the same max or
    p-norm on both sides with M = lam times a signed permutation.  Any other matrix
    or norm pair maps a ball to a set that is not a ball of space_out.
    """
    # the norm selectors and the matrix by value and layout (the products below may
    # round differently for another memory order)
    key = (space_in.norm, space_in.p, space_out.norm, space_out.p, mat.dtype.str, mat.shape,
           mat.strides, mat.tobytes())
    lam = _FACTORS.get(key, False)
    if lam is False:
        lam = None
        if (space_in.norm, space_in.p) == (space_out.norm, space_out.p):
            lam = (_scaled_orthogonal_factor(mat) if space_in.norm == "euclidean"
                   else _signed_permutation_factor(mat))
        if len(_FACTORS) < _FACTORS_KEPT:
            _FACTORS[key] = lam
    if lam is None:
        raise ValueError("ball images need a scaled-orthogonal matrix to stay in the catalog "
                         "(euclidean norms), or a scaled signed permutation (the same max or "
                         "p-norm on both sides)")
    return lam


def _signed_permutation_factor(mat: np.ndarray) -> float | None:
    """lam > 0 with M = lam times a signed permutation matrix, or None."""
    if mat.shape[0] != mat.shape[1]:
        return None
    nonzero = mat != 0.0
    lam = float(np.abs(mat).max(initial=0.0))
    if lam > 0.0 and (nonzero.sum(axis=0) == 1).all() and (nonzero.sum(axis=1) == 1).all() \
            and (np.abs(mat[nonzero]) == lam).all():
        return lam
    return None


def _scaled_orthogonal_factor(mat: np.ndarray) -> float | None:
    """lam with M^T M = lam^2 I, or None."""
    if mat.shape[0] != mat.shape[1]:
        return None
    gram = mat.T @ mat
    lam2 = float(np.trace(gram)) / mat.shape[0]
    if lam2 <= 0:
        return None
    if np.allclose(gram, lam2 * np.eye(mat.shape[0]), atol=1e-9 * max(1.0, lam2)):
        return math.sqrt(lam2)
    return None


@dataclass(frozen=True)
class BoundednessFlag:
    bounded: bool
    radius_hint: float | None = None


def boundedness(space: NormedSpace, s: SetRep) -> BoundednessFlag:
    """Conservative boundedness certificate with an outer-radius hint about the origin."""
    radius = outer_radius(space, s, np.zeros(space.dim))
    return BoundednessFlag(False) if radius.is_infinite else BoundednessFlag(True, float(radius))


def is_convex(s: SetRep) -> bool:
    return s.convex


# ---------------------------------------------------------------------------
# membership and point-set distance


def contains_point(space: NormedSpace, s: SetRep, y, tol: float = DEFAULT_TOL) -> bool:
    """Exact membership test where the representation allows, else dist <= tol."""
    return s.contains(space, space.check_point(y), tol)


class Distances(NamedTuple):
    """Distances of the rows of an (n, dim) point set to one set.

    value[i], error[i], approximate[i] and note[i] are the fields
    dist_point reports for row i; row(i) builds that Distance.
    """

    value: np.ndarray
    error: np.ndarray
    approximate: np.ndarray
    note: tuple[str, ...]

    def row(self, i: int) -> Distance:
        return Distance(self.value.item(i), self.approximate.item(i), self.error.item(i),
                        self.note[i])


def dist_point(space: NormedSpace, y, s: SetRep) -> Distance:
    """Distance from a point to a set under the space norm: one row of dists."""
    y = space.check_point(y)
    _check_set(space, s)
    return s._dists(space, y[None]).row(0)


def dists(space: NormedSpace, ys, s: SetRep) -> Distances:
    """Distances from each row of an (n, dim) array to a set, in one call.

    Row i is dist_point(space, ys[i], s) bit for bit.  Closed forms (balls,
    spheres, boxes, orthants, finite point sets, enlargements of any of
    these) are computed for all rows at once, and so are the certified
    euclidean projections onto halfspace intersections.  Polytopes run a
    budgeted convex projection per row, and region distances under p-norms
    are brackets; those rows carry an error bracket and are flagged
    approximate when the bracket exceeds the default tolerance.
    """
    ys = np.asarray(ys, dtype=float)
    if ys.ndim != 2 or ys.shape[1] != space.dim:
        raise DimensionMismatchError(
            f"expected an (n, {space.dim}) point array, got shape {ys.shape}")
    _check_set(space, s)
    return s._dists(space, ys)


class Family:
    """k sets, one per row of a point array: a map's images at k points, say.

    A row whose set could not be built holds None, and its ValueError in
    errors: its distances are inf, and row(i) raises the error.  This base
    family applies each set's own rules row by row.  Rounds and Regions
    hold many balls, spheres or regions in arrays and compute every row at
    once; each row is bit for bit the rule of its own set.  row_dists is
    the one distance rule of every family.
    """

    errors = ()  # Rounds builds every row

    def __init__(self, sets, errors=None):
        self.sets = list(sets)
        self.errors = list(errors) if errors is not None else [None] * len(self.sets)

    @classmethod
    def build(cls, make, k: int) -> Family:
        """The family of make(0), ..., make(k - 1); a row that raises ValueError is missing."""
        sets, errors = [], []
        for i in range(k):
            try:
                sets.append(make(i))
                errors.append(None)
            except ValueError as exc:
                sets.append(None)
                errors.append(exc)
        return cls(sets, errors)

    @staticmethod
    def of(sets) -> Family:
        """The family of the given sets: Rounds when all are balls, or all spheres."""
        kinds = {type(s) for s in sets}
        if kinds in ({Ball}, {Sphere}):
            return Rounds(np.array([s.center for s in sets], dtype=float),
                          np.array([s.radius for s in sets], dtype=float), kinds == {Sphere})
        return Family(sets)

    def __len__(self):
        return len(self.sets)

    def row(self, i: int) -> SetRep:
        if self.sets[i] is None:
            raise self.errors[i]
        return self.sets[i]

    def built(self) -> Family:
        """This family, once no row is missing: raises the first missing row's error."""
        for exc in self.errors:
            if exc is not None:
                raise exc
        return self

    def sample(self, space: NormedSpace, n: int, seeds, rng, box=None) -> np.ndarray:
        """(k, n, dim): row i's own sample(space, n, seeds[i], rng(i, 0), box), where
        rng(i, 0) is rng_for(seeds[i], 0)."""
        out = np.empty((len(self), n, space.dim))
        for i in range(len(self)):
            out[i] = self.row(i).sample(space, n, seeds[i], rng(i, 0), box)
        return out

    def row_dists(self, space: NormedSpace, ys: np.ndarray) -> Distances:
        """The distances of each row's own points, ys of shape (k, n, dim): value[i],
        error[i] and approximate[i] are those of dists(space, ys[i], row i), shape (k, n),
        and note runs over the rows in turn.  A missing row's distances are inf, exact."""
        live = [i for i, s in enumerate(self.sets) if s is not None]
        rows = [dists(space, ys[i], self.sets[i]) for i in live]
        return _live_rows(ys.shape[:2], live, Distances(
            *(np.array([getattr(d, f) for d in rows]) for f in ("value", "error", "approximate")),
            tuple(text for d in rows for text in d.note)))

    def outer_radii(self, space: NormedSpace, p: np.ndarray) -> np.ndarray:
        """float(outer_radius(space, row i, p)) for each row; raises a missing row's error."""
        return np.array([float(outer_radius(space, self.row(i), p)) for i in range(len(self))])

    def translate(self, vs: np.ndarray) -> Family:
        """translate_set(row i, vs[i]) in row i."""
        return Family.build(lambda i: translate_set(self.row(i), vs[i]), len(self))

    def affine_image(self, space_in, space_out, mat, off) -> Family:
        """Each row's affine_image; a row whose image leaves the catalog becomes missing."""
        return Family.build(lambda i: self.row(i).affine_image(space_in, space_out, mat, off),
                            len(self))

    def excesses(self, space: NormedSpace, b: Family) -> np.ndarray:
        """float(excess(space, row i, b's row i)) for each row; raises a missing row's error."""
        return np.array([float(excess(space, self.row(i), b.row(i))) for i in range(len(self))])


class Rounds(Family):
    """k balls (or k spheres): row i is Ball(centers[i], radii[i])."""

    def __init__(self, centers: np.ndarray, radii: np.ndarray, sphere: bool = False):
        self.centers, self.radii, self.sphere = centers, radii, sphere
        self.kind = Sphere if sphere else Ball

    def __len__(self):
        return self.radii.shape[0]

    def row(self, i):
        return self.kind(self.centers[i], self.radii.item(i))

    def sample(self, space, n, seeds, rng, box=None):
        """Row i is the sample of its ball or sphere: a ball's centre, then the axis
        points, written for every row at once; past them each row draws from rng(i, 0)."""
        first, d = int(not self.sphere), space.dim
        fixed = first + 2 * d
        pts = np.empty((len(self), max(n, fixed), d))
        if first:
            pts[:, 0] = self.centers
        _axis_points(self.centers, self.radii, pts[:, first:fixed])
        if n > fixed:
            for i in range(len(self)):
                self.kind._draw(space, pts[i, fixed:n], self.centers[i], self.radii.item(i),
                                200 * n + 1000, rng(i, 0))  # at most 200 n + 1000 candidates
        return pts[:, :n]

    def row_dists(self, space, ys):
        return _exact(self.kind._gap(space.norms(ys - self.centers[:, None, :])
                                     - self.radii[:, None]))

    def outer_radii(self, space, p):
        return space.norms(self.centers - p) + self.radii

    def translate(self, vs):
        if vs.shape != self.centers.shape:
            raise DimensionMismatchError("translation vector dimension mismatch")
        return Rounds(self.centers + vs, self.radii, self.sphere)

    def affine_image(self, space_in, space_out, mat, off):
        try:
            lam = _ball_image_factor(space_in, space_out, mat)
            # a stacked (m, n) @ (n, 1) product runs the gemv of mat @ center on each row
            centers = np.matmul(mat, self.centers[:, :, None])[:, :, 0] + off
        except ValueError as exc:
            return Family([None] * len(self), [exc] * len(self))
        return Rounds(centers, lam * self.radii, self.sphere)

    def excesses(self, space, b):
        """The closed forms of a ball or sphere over a ball or sphere, elementwise (excess
        of one such pair is one row of them); other rows by the pair's own excess."""
        if not isinstance(b, Rounds):
            return super().excesses(space, b)
        m = space.norms(self.centers - b.centers)
        hi_end = m + self.radii
        if not b.sphere:
            return _positive(hi_end - b.radii)
        # distances from b's center over a form a band; |t - r_b| peaks at its ends
        lo_end = np.abs(m - self.radii) if self.sphere else _positive(m - self.radii)
        hi, lo = np.abs(hi_end - b.radii), np.abs(lo_end - b.radii)
        return np.where(lo > hi, lo, hi)  # Python's max(hi, lo)


class Regions(Family):
    """k sublevel regions sharing their form rows: row i is {y : A y <= b[i]}, where A
    is the stacked form rows of region and b has one right-hand side per row.  A row
    with a ValueError in errors is missing."""

    def __init__(self, region: SublevelRegion, b: np.ndarray, errors=None):
        self.region, self.b = region, b
        self.errors = [None] * b.shape[0] if errors is None else errors

    def __len__(self):
        return self.b.shape[0]

    def row(self, i):
        """Row i's region, which reads its extent from the form region's kept bases."""
        if self.errors[i] is not None:
            raise self.errors[i]
        starts = np.cumsum([0] + [g.a.shape[0] for g in self.region.groups])
        row = SublevelRegion(tuple(FormGroup(g.a, self.b.item(i, j))
                                   for g, j in zip(self.region.groups, starts)))
        object.__setattr__(row, "_form_region", self.region)
        return row

    def rows(self) -> list[SublevelRegion]:
        """row(i) for every row, raising the first missing row's error; the extents the
        kept bases serve are read for all rows in one stacked solve."""
        rows = [self.row(i) for i in range(len(self))]
        if rows:
            b = np.array([row.forms()[1] for row in rows])
            for row, served in zip(rows, _basis_extents(self.region, b)):
                if served is not None:
                    object.__setattr__(row, "_extent", served)
        return rows

    def sample(self, space, n, seeds, rng, box=None):
        return Family(self.rows()).sample(space, n, seeds, rng, box)

    def row_dists(self, space, ys):
        k, n, d = ys.shape
        live = [i for i, exc in enumerate(self.errors) if exc is None]
        return _live_rows((k, n), live, _dists_region(
            space, ys[live].reshape(len(live) * n, d), self.region,
            np.repeat(self.b[live], n, axis=0)))


def _basis_extents(form: SublevelRegion, b: np.ndarray) -> list:
    """The extent of {y : A y <= b[i]} for each row of b, A the form rows of form, read
    from the optimal bases kept on form (found on first use); None for a row they do
    not serve."""
    a = form.forms()[0]
    bases = _memo(form, "_bases", lambda: extent_bases(a))
    return [None] * b.shape[0] if bases is None else basis_extents(bases, a, b)


def _check_set(space: NormedSpace, s: SetRep) -> None:
    if s.dim != space.dim:
        raise DimensionMismatchError(f"set lives in dim {s.dim}, space is dim {space.dim}")


def _live_rows(shape: tuple[int, int], live: list[int], d: Distances) -> Distances:
    """(k, n) distances whose rows in live take d's values, n per row in turn; any
    other row, a missing set's, is inf, exact, with note ""."""
    k, n = shape
    if len(live) == k:
        return Distances(*(np.reshape(f, shape) for f in d[:3]), d.note)
    value, error = np.full(shape, math.inf), np.zeros(shape)
    approx = np.zeros(shape, dtype=bool)
    value[live], error[live], approx[live] = (np.reshape(f, (len(live), n)) for f in d[:3])
    note = [("",) * n] * k
    for j, i in enumerate(live):
        note[i] = d.note[j * n:(j + 1) * n]
    return Distances(value, error, approx, tuple(text for row in note for text in row))


def _exact(value: np.ndarray) -> Distances:
    if value.shape == (1,):  # one point (dist_point): no arrays to allocate
        return Distances(value, *_EXACT_ROW)
    return Distances(value, np.zeros(value.shape), np.zeros(value.shape, dtype=bool),
                     ("",) * value.size)


def _project_simplex(w: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-based)."""
    n = w.shape[0]
    u = np.sort(w)[::-1]
    css = np.cumsum(u) - 1.0
    ks = np.arange(1, n + 1)
    cond = u - css / ks > 0
    k = ks[cond][-1]
    tau = css[k - 1] / k
    return np.maximum(w - tau, 0.0)


def _hull_project_euclidean(vertices: np.ndarray, y: np.ndarray,
                            max_iter: int = 10_000, tol: float = DEFAULT_TOL):
    """Min-norm point of conv(vertices) - y by accelerated projected gradient.

    Returns (point, dist, gap_error) where gap_error bounds dist minus the
    true distance via the Frank-Wolfe gap of the squared objective.
    """
    v = vertices
    k = v.shape[0]
    if k == 1:
        return v[0], float(np.linalg.norm(v[0] - y)), 0.0
    lip = float(np.linalg.norm(v @ v.T, 2))
    if lip == 0.0:  # all vertices equal to the origin shift
        return v[0], float(np.linalg.norm(v[0] - y)), 0.0
    w = np.full(k, 1.0 / k)
    z = w.copy()
    t_prev = 1.0
    gap = math.inf
    best_w, best_f = w, 0.5 * float(np.sum((w @ v - y) ** 2))
    for _ in range(max_iter):
        resid = z @ v - y
        grad = v @ resid
        w_next = _project_simplex(z - grad / lip)
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_prev * t_prev))
        z = w_next + ((t_prev - 1.0) / t_next) * (w_next - w)
        w, t_prev = w_next, t_next
        resid_w = w @ v - y
        f = 0.5 * float(np.sum(resid_w**2))
        if f < best_f:
            best_f, best_w = f, w
        grad_w = v @ resid_w
        gap = float(w @ grad_w - np.min(grad_w))  # f(w) - f* <= gap on the simplex
        d_up = math.sqrt(2.0 * best_f)
        d_lo = math.sqrt(max(0.0, 2.0 * (best_f - max(gap, 0.0))))
        if d_up - d_lo <= tol * max(1.0, d_up):
            break
    point = best_w @ v
    d_up = math.sqrt(2.0 * best_f)
    d_lo = math.sqrt(max(0.0, 2.0 * (best_f - max(gap, 0.0))))
    return point, d_up, max(0.0, d_up - d_lo)


def _dist_polytope(space: NormedSpace, y: np.ndarray, s: VPolytope) -> Distance:
    if space.norm == "max":  # min t subject to |V^T w - y| <= t, w in the simplex
        res = max_norm_fit(s.vertices.T, y, a_eq=np.ones((1, s.vertices.shape[0])),
                           b_eq=np.array([1.0]), bounds=(0, None))
        if res is not None:
            return Distance(float(res.fun))
    point, d2, err2 = _hull_project_euclidean(s.vertices, y)
    if space.norm == "euclidean":
        approx = err2 > DEFAULT_TOL * max(1.0, d2)
        return Distance(d2, approximate=approx, error=err2,
                        note="hull projection budget exhausted" if approx else "")
    # other p-norms (or no max-norm LP answer): bracket from the euclidean solve plus candidates
    upper = min(space.norm_of(point - y), float(space.norms(s.vertices - y).min()))
    d2_lower = max(0.0, d2 - err2)
    n = space.dim
    if space.norm == "max":
        lower = d2_lower / math.sqrt(n)
    elif space.p is not None and space.p > 2:
        lower = d2_lower * n ** (1.0 / space.p - 0.5)
    else:
        lower = d2_lower
    err = max(0.0, upper - lower)
    approx = err > DEFAULT_TOL * max(1.0, upper)
    return Distance(upper, approximate=approx, error=err,
                    note="polytope distance under this norm is a bracketed estimate" if approx else "")


def _positive(v: np.ndarray) -> np.ndarray:
    """max(0.0, v) elementwise as Python computes it: v where v > 0, else +0.0 (NaN too).

    fmax drops NaN, and adding +0.0 turns a -0.0 into +0.0 and keeps any other value.
    """
    return np.fmax(v, _ZERO) + _ZERO


def _bound_divisors(space: NormedSpace, a: np.ndarray) -> np.ndarray:
    """Dual norms of the form rows, a zero row's taken as inf.

    A zero form with b >= 0 is never violated, and one with b < 0 leaves
    the region empty, which the distance's LP proves; either way its
    single-halfspace bound max(0, -b) / inf adds the term 0.
    """
    dual = space.dual_norms(a)
    dual[dual == 0.0] = math.inf
    return dual


def _halfspace_bounds(space: NormedSpace, s: SublevelRegion, viol: np.ndarray) -> np.ndarray:
    """The single-halfspace lower bound on each row's distance to s, an exact one under
    any norm, from the row's violations of the form rows: max(0, a.y - b) / ||a||_*."""
    a = s.forms()[0]
    return np.maximum.reduce(_positive(viol) / _memo(
        s, f"_dual_norms_{space.norm}_{space.p}", lambda: _bound_divisors(space, a)), axis=1)


def _dists_region(space: NormedSpace, ys: np.ndarray, s: SublevelRegion,
                  b: np.ndarray) -> Distances:
    """Distance of each row i of ys to {y : A y <= b[i]}, A being s's stacked form rows.

    b has a right-hand side per row, shape (n, rows of A); row i is the
    one-row call's arithmetic elementwise, whatever the other rows hold.
    A row whose set is empty reads +inf, exact.
    """
    a = s.forms()[0]
    n = ys.shape[0]
    value, error, approx = np.zeros(n), np.zeros(n), np.zeros(n, dtype=bool)
    note = [""] * n
    viol = np.vecdot(ys[:, None, :], a) - b  # (n, rows) of a.y - b, each a one-row dot
    out = np.nonzero(~np.logical_and.reduce(viol <= _ZERO, axis=1))[0]
    if out.size == 0:
        return Distances(value, error, approx, tuple(note))
    if space.norm == "max":  # min t subject to a z <= b[i], |z - y_i| <= t; none: empty
        eye = np.eye(ys.shape[1])
        for i in out:
            res = max_norm_fit(eye, ys[i], a_ub=a, b_ub=b[i])
            value[i] = math.inf if res is None else float(res.fun)
            if res is None:
                note[i] = "empty region"
        return Distances(value, error, approx, tuple(note))
    y_out, b_out = ys, b
    if out.size < n:  # the rows outside; with none inside, that is every row as it is
        viol, y_out, b_out = viol[out], ys[out], b[out]
    lower = _halfspace_bounds(space, s, viol)
    z, g, certified = _project_region(s, b_out, y_out)
    gap = z - y_out
    if space.norm == "euclidean":
        # the Lagrangian lower bound sqrt(2 g) meets the value at rounding level on a
        # certified row
        d2_upper = np.sqrt(np.vecdot(gap, gap))  # np.linalg.norm of each row
        err = _positive(d2_upper - np.sqrt(_positive(2.0 * g)))
        flag = err > 1e-7 * np.fmax(d2_upper, 1.0)
        value[out], error[out], approx[out] = d2_upper, err, flag
        for i in out[flag]:
            note[i] = "Lagrangian bracket"
    else:
        upper = space.norms(gap)
        value[out], error[out], approx[out] = upper, _positive(upper - lower), True
        for i in out:
            note[i] = "region distance under this norm is a bracketed estimate"
    # a row the projection did not certify: one LP finds a point of the region, an
    # upper bound, or proves the region empty
    for j in np.flatnonzero(~certified).tolist():
        res = max_norm_fit(np.eye(ys.shape[1]), y_out[j], a_ub=a, b_ub=b_out[j])
        i = out[j]
        if res is None:
            value[i], error[i], approx[i], note[i] = math.inf, 0.0, False, "empty region"
        else:
            upper = space.norm_of(res.x[:-1] - y_out[j])
            value[i], error[i], approx[i] = upper, max(0.0, upper - lower[j]), True
            note[i] = "feasible-point bracket: the projection was not certified"
    return Distances(value, error, approx, tuple(note))


def _exit_bounds(a: np.ndarray, b: np.ndarray, members: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """An upper bound on the max-norm distance of each row y of ys to {z : A z <= b}: the
    least (1 - t) |y - p|_inf over the rows p of members, points of the region, where
    t in [0, 1] is where the segment from p to y leaves the region, all in one array."""
    step = ys[:, None, :] - members  # (rows, members, dim)
    rate = np.vecdot(step[:, :, None, :], a)  # (rows, members, form rows)
    room = b - np.vecdot(members[:, None, :], a)
    t = np.divide(room, rate, out=np.full(rate.shape, np.inf), where=rate > 0.0).min(axis=2)
    return ((1.0 - np.clip(t, 0.0, 1.0)) * np.abs(step).max(axis=2)).min(axis=1)


def _factors(rows: np.ndarray) -> tuple[np.ndarray, ...]:
    """For a stack of row sets A_S (T, k, d), with A_S^T = Q R: which sets are linearly
    independent (T,), and for those (A_S A_S^T)^-1 = R^-1 R^-T, Q and R^-T.  The
    multipliers of the nearest point of {z : A_S z = b_S} are
    lam = (A_S A_S^T)^-1 (A_S y - b_S), and its step A_S^T lam is Q w with
    w = R^-T (A_S y - b_S): through Q the step is as well conditioned as A_S, not as
    A_S A_S^T.  A set is independent when every |R_jj| passes max(d, k) eps max|R_jj|,
    the rank rule of `np.linalg.matrix_rank` on R's diagonal."""
    q, r = np.linalg.qr(rows.transpose(0, 2, 1))
    diag = np.abs(np.diagonal(r, axis1=1, axis2=2))
    keep = np.all(diag > max(rows.shape[1:]) * np.finfo(float).eps * diag.max(axis=1,
                  initial=0.0)[:, None], axis=1)
    r_inv = np.linalg.inv(r[keep])
    r_inv_t = np.ascontiguousarray(r_inv.transpose(0, 2, 1))
    return keep, r_inv @ r_inv_t, np.ascontiguousarray(q[keep]), r_inv_t


def _active_sets(a: np.ndarray, k: int) -> tuple[np.ndarray, ...]:
    """Every linearly independent k-subset S of the rows of a, in combination order: its
    indices (T, k) and the `_factors` of its rows."""
    idx = np.array(list(itertools.combinations(range(a.shape[0]), k)), dtype=np.intp)
    keep, *factors = _factors(a[idx])
    return (idx[keep], *factors)


def _set_points(a: np.ndarray, b: np.ndarray, ys: np.ndarray, rows, resid: np.ndarray,
                lam: np.ndarray, q: np.ndarray, r_inv_t: np.ndarray):
    """For pairs of a row of ys (rows) and an independent set S of form rows, given
    A_S y - b_S (resid), lam and S's factors: z = y - A_S^T lam, the dual value
    g = lam.(A_S y - b_S) - |A_S^T lam|^2 / 2, and whether z is certified, lam >= 0 and
    A z <= b[row] within 1e-12 relative to |a_j|_1 max(|y| + |z|) + |b_j| for each form
    row a_j: the terms that make up z set the scale of its rounding (with b = 0 at an
    apex, |z| alone would set none)."""
    step = np.vecdot(np.vecdot(r_inv_t, resid[:, None, :])[:, None, :], q)
    y, b = ys[rows], b[rows]
    z = y - step
    reach = np.maximum.reduce(np.abs(y) + np.abs(z), axis=1)[:, None]
    size = np.add.reduce(np.abs(a), axis=1) * reach + np.abs(b)
    ok = np.logical_and.reduce(np.vecdot(z[:, None, :], a) - b <= 1e-12 * size, axis=1)
    ok &= np.logical_and.reduce(lam >= _ZERO, axis=1)
    return z, np.vecdot(lam, resid) - 0.5 * np.vecdot(step, step), ok


def _project_region(s: SublevelRegion, b: np.ndarray, ys: np.ndarray):
    """Exact euclidean nearest point of {z : A z <= b[i]} to each row i of ys, A being
    s's stacked form rows and b a right-hand side per row, shape (n, m), or one, (m,).

    Returns (z, g, certified).  A row is certified when multipliers lam >= 0 give
    z = y - A^T lam inside the region within 1e-12 relative, lam vanishing off an
    active set that z meets with equality: the KKT conditions, so z is the nearest
    point.  g = lam.(A y - b) - |A^T lam|^2 / 2 is the Lagrangian dual value, so
    sqrt(2 g) is a lower bound on the distance (about |z - y| when certified).

    Active sets come first: for k = 1, 2, ... every independent k-subset S of the
    form rows gives lam_S = (A_S A_S^T)^-1 (A_S y - b_S), and a row takes the first S
    in combination order that certifies it.  The subsets of a size are kept on the
    form region (a `Regions` row's family's, as its extent bases are) and built only
    while some row is uncertified; the sizes end at min(m, dim), or before the
    subsets counted would pass PROJECTION_SUBSET_CAP.  A row no subset certifies
    solves one least-distance program, min |x| subject to -A x >= A y - b, as a
    nonnegative least-squares problem (Lawson and Hanson 1974, ch. 23); y is projected
    onto its active rows as onto a subset's, and checked the same way.  Where that
    fails too, z is that point or y.  Each row's arithmetic is elementwise or a
    one-row dot (vecdot), so it does not depend on the other rows.
    """
    a = s.forms()[0]
    form = s.__dict__.get("_form_region", s)
    (n, d), m = ys.shape, a.shape[0]
    b = np.broadcast_to(b, (n, m))
    viol = np.vecdot(ys[:, None, :], a) - b
    z, g, done = ys.copy(), np.zeros(n), np.zeros(n, dtype=bool)
    counted = 0
    for k in range(1, min(m, d) + 1):
        counted += math.comb(m, k)
        todo = np.flatnonzero(~done)
        if counted > PROJECTION_SUBSET_CAP or todo.size == 0:
            break
        idx, g_inv, q, r_inv_t = _memo(form, f"_active_sets_{k}", lambda: _active_sets(a, k))
        pairs = todo.size * idx.shape[0]
        for part in [todo] if pairs <= _PAIR_CHUNK else np.array_split(todo, -(-pairs // _PAIR_CHUNK)):
            resid = viol[part[:, None, None], idx]  # (rows, subsets, k): A_S y - b_S, C order
            lam = np.vecdot(g_inv, resid[:, :, None, :])
            pr, ps = np.nonzero(np.logical_and.reduce(lam >= _ZERO, axis=2))
            zs, gs, ok = _set_points(a, b, ys, part[pr], resid[pr, ps], lam[pr, ps], q[ps],
                                     r_inv_t[ps])
            hit = np.flatnonzero(ok)
            hit = hit[np.diff(pr[hit], prepend=-1) != 0]  # each row's first subset
            i = part[pr[hit]]
            z[i], g[i], done[i] = zs[hit], gs[hit], True
    f = np.eye(d + 1)[d]
    for i in np.flatnonzero(~done).tolist():
        try:
            u = nnls(np.vstack([-a.T, viol[i]]), f)[0]
        except RuntimeError:  # the iteration budget ran out
            continue
        act = np.flatnonzero(u)
        if not float(np.vecdot(viol[i], u)) < 1.0 or act.size > d:  # 1: the region is empty
            continue
        # the program's active rows, projected onto as a subset is: more accurate than
        # the program's own multipliers u / (1 - (A y - b).u)
        keep, g_inv, q, r_inv_t = _factors(a[act][None])
        if keep[0]:
            resid = viol[i, act][None]
            zs, gs, ok = _set_points(a, b, ys, [i], resid, np.vecdot(g_inv, resid[:, None, :]),
                                     q, r_inv_t)
            z[i], g[i], done[i] = zs[0], gs[0], ok[0]
    return z, g, done


def _box_radius(space: NormedSpace, lo: np.ndarray, hi: np.ndarray, p: np.ndarray) -> float:
    """Largest distance from p to a corner of [lo, hi], without enumerating corners.

    Every norm here grows with each |y_i|, so the farthest corner takes
    the coordinate end farther from p in each axis.
    """
    return space.dist(np.where(np.abs(lo - p) >= np.abs(hi - p), lo, hi), p)


# ---------------------------------------------------------------------------
# excess / hausdorff


def outer_radius(space: NormedSpace, s: SetRep, p) -> Distance:
    """sup over the set of the distance to a fixed point p."""
    return s.outer_radius(space, space.check_point(p))


def excess(space: NormedSpace, a: SetRep, b: SetRep,
           n_samples: int = 256, seed: int = 0) -> Distance:
    """Excess of a over b: sup over a of dist_point(., b), by the source kind's _excess
    rule; over an enlarged target, the excess over its base less the margin."""
    if a.dim != space.dim or b.dim != space.dim:
        raise DimensionMismatchError("excess operands must live in the ambient space")
    if isinstance(b, EnlargedSet):
        inner = excess(space, a, b.base, n_samples=n_samples, seed=seed)
        val = max(0.0, float(inner) - b.margin)
        return Distance(val, approximate=inner.approximate, error=inner.error, note=inner.note)
    return a._excess(space, b, n_samples, seed)


def _sampled_excess(space: NormedSpace, a: SetRep, b: SetRep,
                    n_samples: int, seed: int, flag: BoundednessFlag) -> Distance:
    far = b._farthest(space, sample(space, a, n_samples, seed))
    if far.is_infinite:  # only an empty target is that far, and from every point: exact
        return Distance(math.inf, note=far.note)
    density_err = 4.0 * (flag.radius_hint or 1.0) / max(1, n_samples) ** (1.0 / space.dim)
    return Distance(float(far), approximate=True, error=far.error + density_err,
                    note="sampled supremum (lower estimate)")


def hausdorff(space: NormedSpace, a: SetRep, b: SetRep,
              n_samples: int = 256, seed: int = 0) -> Distance:
    """max(excess(a, b), excess(b, a)); symmetric by construction."""
    e_ab = excess(space, a, b, n_samples=n_samples, seed=seed)
    e_ba = excess(space, b, a, n_samples=n_samples, seed=seed)
    val = max(float(e_ab), float(e_ba))
    return Distance(val, approximate=e_ab.approximate or e_ba.approximate,
                    error=max(e_ab.error, e_ba.error),
                    note=e_ab.note or e_ba.note)


# ---------------------------------------------------------------------------
# enlargement / translation


def enlarge(space: NormedSpace, s: SetRep, r: float) -> SetRep:
    """r-enlargement; exact for balls and max-norm orthants, else an implicit wrapper."""
    if r < 0:
        raise ValueError("enlargement radius must be >= 0")
    if r == 0.0:
        return s
    return s.enlarge(space, r)


def translate_set(s: SetRep, v) -> SetRep:
    """Exact Minkowski translation s + v (the catalog is closed under it)."""
    v = np.asarray(v, dtype=float)
    if v.shape != (s.dim,):
        raise DimensionMismatchError("translation vector dimension mismatch")
    return s.translate(v)


# ---------------------------------------------------------------------------
# sampling


def sample(space: NormedSpace, s: SetRep, n: int, seed: int,
           box: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """n member points of s, deterministic for a fixed seed.

    Extreme candidates (vertices, boundary points, corners) come first
    whenever the representation exposes them.  Unbounded or implicit
    variants fall back to rejection / projection sampling inside `box`
    (or an automatically derived one) and raise SamplingBudgetError when
    the acceptance rate collapses.
    """
    if n < 1:
        raise ValueError("need n >= 1 samples")
    return s.sample(space, n, seed, _pristine_rng(seed), box)


def sample_enlargement(space: NormedSpace, s: SetRep, rho: float, n: int, seed: int,
                       box=None) -> np.ndarray:
    """n points of the rho-enlargement of s, biased toward its outer boundary.

    Construction guarantees membership: each point is a member of s
    pushed by at most rho in some unit direction.  Pushes favour the
    outward direction from the sample centroid (the hardest points for an
    inclusion test), mixed with random directions and depths.
    """
    rngs = (rng_for(seed, 0), rng_for(seed, 1))  # built here, so that a bad seed raises
    return _sample_enlargement(space, Family.of([s]), np.array([rho], dtype=float), n, [seed],
                               lambda i, stream: rngs[stream], box)[0]


def _sample_enlargement(space: NormedSpace, sets: Family, rhos: np.ndarray, n: int, seeds,
                        rng, box=None) -> np.ndarray:
    """(k, n, dim): row i is sample_enlargement(space, sets.row(i), rhos[i], n, seeds[i], box).

    rng(i, stream) gives row i's generator rng_for(seeds[i], stream): stream 0
    samples the set and stream 1 draws the random pushes, and a row asks for
    each only when it draws from it.  The outward pushes of every row are
    computed at once; the random ones are drawn point by point, in order.
    """
    if n < 1:
        raise ValueError("need n >= 1 samples")
    if np.any(rhos < 0):
        raise ValueError("enlargement radius must be >= 0")
    base_pts = sets.sample(space, n, seeds, rng, box)
    outward = base_pts - np.mean(base_pts, axis=1, keepdims=True)
    pushed = (np.arange(n) % 4 != 3) & (space.norms(outward) > 1e-12)
    depth, dirs = np.ones(pushed.shape), outward.copy()
    row, draws = -1, None
    for i, j in np.argwhere(~pushed).tolist():  # row by row, each row's points in order
        if i != row:
            row, draws = i, rng(i, 1)
        draws.standard_normal(space.dim, out=dirs[i, j])
        if j % 2:  # an odd point's depth is uniform in [0, 1), as rng.uniform() draws it
            depth[i, j] = draws.random()
    return base_pts + (rhos[:, None] * depth)[..., None] * space.unit(dirs)

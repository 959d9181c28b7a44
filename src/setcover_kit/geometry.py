"""Compact sets in finite-dimensional normed spaces.

Provides the metric context (selectable norms), a closed catalog of
compact-set representations, and the set-level operations used by the
rest of the kit: point-set distance, excess (one-sided discrepancy),
Hausdorff distance, enlargements and seeded sampling.

Every value is immutable after construction and every operation is a
pure function of its arguments plus an explicit seed, so concurrent use
is safe and results are schedule-independent.

Closed forms are used wherever they exist (balls, boxes, spheres,
orthants, finite vertex sets).  Where only an iterative scheme is
available (polytope projection, halfspace intersections) the result
carries an ``approximate`` flag and an error estimate instead of a
silently wrong value; ``+inf`` is the sentinel for an excess that no
bounded target can absorb.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.random.bit_generator import ISeedSequence

DEFAULT_TOL = 1e-9
BOX_CORNER_CAP = 256  # largest corner count a box's exact excess enumerates
# a one-element 0.0 operand: numpy converts a Python float operand on every
# call, which costs more than the arithmetic on a few rows
_ZERO = np.zeros(1)
_ZERO.setflags(write=False)

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
    "dist_to_each",
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
    xor, mult = (c.reshape(width, 4, 1) for c in _hash_steps(_POOL_HASH, 16, 4 * width))
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
    from; the low 32 bits of its word 0 are generate_state(1)[0].  The keys
    share the seed, so its first-phase pool is hashed once, by NumPy."""
    seed = operator.index(seed)
    run = _u32_words(seed)
    tails = [run[4:] + _u32_words(*stream) for stream in streams]  # entropy past the pool
    lengths = np.array([len(tail) for tail in tails], dtype=int)
    width = int(lengths.max(initial=0))
    words = np.array([tail + [0] * (width - len(tail)) for tail in tails], dtype=np.uint32)
    pool = np.random.SeedSequence(seed & (1 << 128) - 1).pool[:, None]
    return _mixed_words(pool, words.reshape(len(streams), width).T, lengths)


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
    outer_radius(space, p), contains(space, y, tol), sample(space, n, seed,
    rng, box) with rng = rng_for(seed, 0), translate(v), enlarge(space, r)
    and affine_image(space_in, space_out, mat, off).  A kind without its own rule raises
    TypeError, except that contains falls back to the distance, enlarge to
    EnlargedSet and affine_image to a ValueError.  Only the pair rules of
    excess stay in one table.
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

    def _dists(self, space, ys):
        return _exact(self._gap(space.norms(ys - self.center) - self.radius))

    def affine_image(self, space_in, space_out, mat, off):
        lam = _ball_image_factor(space_in, space_out, mat)
        return type(self)(mat @ self.center + off, lam * self.radius)

    def _axis_points(self, out: np.ndarray) -> None:
        """Write center + r e_1, center - r e_1, center + r e_2, ... into the rows of out."""
        steps = self.radius * np.eye(self.dim)
        out[0::2] = self.center + steps
        out[1::2] = self.center - steps


@dataclass(frozen=True, eq=False)
class Ball(_Round):
    convex = True

    @staticmethod
    def _gap(v):
        """The distance from its gap d(y, center) - radius: max(0.0, gap), NaN included."""
        return np.fmax(v, _ZERO)

    def contains(self, space, y, tol):
        return space.dist(y, self.center) <= self.radius + tol * max(1.0, self.radius)

    def sample(self, space, n, seed, rng, box):
        center, radius, d = self.center, self.radius, space.dim
        pts = np.empty((max(n, 2 * d + 1), d))
        pts[0] = center
        self._axis_points(pts[1:2 * d + 1])
        filled = 2 * d + 1
        budget = 200 * n + 1000  # candidates
        while filled < n and budget > 0:
            # one chunk draws the candidates one-at-a-time draws would; they are taken in order
            k = min(budget, 2 * (n - filled) + 16)
            cand = rng.uniform(-radius, radius, size=(k, d))
            budget -= k
            taken = cand[space.norms(cand) <= radius][:n - filled]
            pts[filled:filled + len(taken)] = center + taken
            filled += len(taken)
        if filled < n:
            raise SamplingBudgetError("rejection budget exhausted sampling a ball")
        return pts[:n]

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

    def sample(self, space, n, seed, rng, box):
        d = space.dim
        pts = np.empty((max(n, 2 * d), d))
        self._axis_points(pts[:2 * d])
        if 2 * d < n:
            dirs = rng.standard_normal((n - 2 * d, d))
            pts[2 * d:] = self.center + self.radius * space.unit(dirs)
        return pts[:n]


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

        Solved by 2*dim small LPs on first use and kept on the region.
        """
        def solve():
            from ._lp import coordinate_extent

            return coordinate_extent(*self.forms())
        return _memo(self, "_extent", solve)

    def _dists(self, space, ys):
        b = self.forms()[1]
        return _dists_region(space, ys, self, np.broadcast_to(b, (ys.shape[0], b.shape[0])))

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
            z = _dykstra(a, b, rng.uniform(lo, hi, size=(n - len(pts), lo.shape[0])), 500)
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
        inner = self.base._dists(space, ys)
        return inner._replace(value=np.fmax(inner.value - self.margin, _ZERO))

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


def _ball_image_factor(space_in: NormedSpace, space_out: NormedSpace, mat: np.ndarray) -> float:
    """lam with ||M v||_out = lam ||v||_in for every v, so that M maps each ball of
    space_in onto a ball of space_out; raises ValueError where no such lam is known.

    Two cases: euclidean to euclidean with M scaled-orthogonal, and the same max or
    p-norm on both sides with M = lam times a signed permutation.  Any other matrix
    or norm pair maps a ball to a set that is not a ball of space_out.
    """
    lam = None
    if (space_in.norm, space_in.p) == (space_out.norm, space_out.p):
        lam = (_scaled_orthogonal_factor(mat) if space_in.norm == "euclidean"
               else _signed_permutation_factor(mat))
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
    these) are computed for all rows at once.  Polytopes and halfspace
    intersections run a budgeted convex projection per row; those rows
    carry an error bracket and are flagged approximate when the bracket
    exceeds the default tolerance.
    """
    ys = np.asarray(ys, dtype=float)
    if ys.ndim != 2 or ys.shape[1] != space.dim:
        raise DimensionMismatchError(
            f"expected an (n, {space.dim}) point array, got shape {ys.shape}")
    _check_set(space, s)
    return s._dists(space, ys)


def dist_to_each(space: NormedSpace, y, sets) -> Distances:
    """Distances from one point to each of several sets, in one call.

    Row i is dist_point(space, y, sets[i]) bit for bit.  Sublevel regions
    whose stacked form rows are equal byte for byte are measured in one
    region call, each with its own right-hand side; any other set is
    measured on its own.
    """
    y = space.check_point(y)
    k = len(sets)
    value, error, approx = np.zeros(k), np.zeros(k), np.zeros(k, dtype=bool)
    note = [""] * k
    batches: dict = {}  # a region's form rows as bytes, or the position of any other set
    for i, s in enumerate(sets):
        _check_set(space, s)
        if isinstance(s, SublevelRegion):
            batches.setdefault(s.forms()[0].tobytes(), []).append(i)
        else:
            batches[i] = [i]
    for rows in batches.values():
        s = sets[rows[0]]
        if len(rows) == 1:
            d = s._dists(space, y[None])
        else:
            d = _dists_region(space, np.tile(y, (len(rows), 1)), s,
                              np.array([sets[i].forms()[1] for i in rows]))
        value[rows], error[rows], approx[rows] = d.value, d.error, d.approximate
        for i, text in zip(rows, d.note):
            note[i] = text
    return Distances(value, error, approx, tuple(note))


class Family:
    """k sets, one per row of a point array: a map's images at k points, say.

    A row whose set could not be built holds None, and its ValueError in
    errors: its distances are inf, and row(i) raises the error.  This base
    family applies each set's own rules row by row.  Rounds and Regions
    hold many balls, spheres or regions in arrays and compute every row at
    once; each row is bit for bit the rule of its own set.
    """

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

    def __len__(self):
        return len(self.sets)

    def row(self, i: int) -> SetRep:
        if self.sets[i] is None:
            raise self.errors[i]
        return self.sets[i]

    def dists_from(self, space: NormedSpace, ys: np.ndarray) -> np.ndarray:
        """(k, n) array: dists(space, ys, set i).value in row i, inf for a missing set."""
        out = np.full((len(self), ys.shape[0]), math.inf)
        built = [i for i, s in enumerate(self.sets) if s is not None]
        if not built:
            return out
        if ys.shape[0] == 1:  # one point: regions sharing their form rows take one call
            out[built, 0] = dist_to_each(space, ys[0], [self.sets[i] for i in built]).value
        else:
            out[built] = [dists(space, ys, self.sets[i]).value for i in built]
        return out

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

    def dists_from(self, space, ys):
        gaps = space.norms(ys[None, :, :] - self.centers[:, None, :]) - self.radii[:, None]
        return self.kind._gap(gaps)

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
        """excess's closed forms of a ball or sphere over a ball or sphere, elementwise."""
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
    is the stacked form rows of region and b has one right-hand side per row."""

    def __init__(self, region: SublevelRegion, b: np.ndarray):
        self.region, self.b = region, b

    def __len__(self):
        return self.b.shape[0]

    def row(self, i):
        starts = np.cumsum([0] + [g.a.shape[0] for g in self.region.groups])
        return SublevelRegion(tuple(FormGroup(g.a, self.b.item(i, j))
                                    for g, j in zip(self.region.groups, starts)))

    def dists_from(self, space, ys):
        k = self.b.shape[0]
        return np.stack([_dists_region(space, np.tile(y, (k, 1)), self.region, self.b).value
                         for y in ys], axis=1)


def _check_set(space: NormedSpace, s: SetRep) -> None:
    if s.dim != space.dim:
        raise DimensionMismatchError(f"set lives in dim {s.dim}, space is dim {space.dim}")


def _exact(value: np.ndarray) -> Distances:
    n = value.shape[0]
    return Distances(value, np.zeros(n), np.zeros(n, dtype=bool), ("",) * n)


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
    point, d2, err2 = _hull_project_euclidean(s.vertices, y)
    if space.norm == "euclidean":
        approx = err2 > DEFAULT_TOL * max(1.0, d2)
        return Distance(d2, approximate=approx, error=err2,
                        note="hull projection budget exhausted" if approx else "")
    if space.norm == "max":  # min t subject to |V^T w - y| <= t, w in the simplex
        from ._lp import max_norm_fit

        res = max_norm_fit(s.vertices.T, y, a_eq=np.ones((1, s.vertices.shape[0])),
                           b_eq=np.array([1.0]), bounds=(0, None))
        if res is not None:
            return Distance(float(res.fun))
    # other p-norms: bracket from the euclidean solve plus candidate points
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

    A zero form is never violated (b >= 0, as the region is nonempty), so
    its single-halfspace bound max(0, -b) / inf adds the term 0.
    """
    dual = space.dual_norms(a)
    dual[dual == 0.0] = math.inf
    return dual


def _dists_region(space: NormedSpace, ys: np.ndarray, s: SublevelRegion, b: np.ndarray,
                  max_sweeps: int = 2000) -> Distances:
    """Distance of each row i of ys to {y : A y <= b[i]}, A being s's stacked form rows.

    b has a right-hand side per row, shape (n, rows of A); row i is the
    one-row call's arithmetic elementwise, whatever the other rows hold.
    """
    a = s.forms()[0]
    n = ys.shape[0]
    value, error, approx = np.zeros(n), np.zeros(n), np.zeros(n, dtype=bool)
    note = [""] * n
    viol = np.vecdot(ys[:, None, :], a) - b  # (n, rows) of a.y - b, each a one-row dot
    out = np.nonzero(~np.logical_and.reduce(viol <= _ZERO, axis=1))[0]
    if out.size == 0:
        return Distances(value, error, approx, tuple(note))
    y_out, b_out = ys, b
    if out.size < n:  # the rows outside; with none inside, that is every row as it is
        viol, y_out, b_out = viol[out], ys[out], b[out]
    # single-halfspace distances give an exact lower bound under any norm
    lower = np.maximum.reduce(_positive(viol) / _memo(
        s, f"_dual_norms_{space.norm}_{space.p}", lambda: _bound_divisors(space, a)), axis=1)
    if space.norm == "max":  # min t subject to a z <= b[i], |z - y_i| <= t
        from ._lp import max_norm_fit

        eye = np.eye(ys.shape[1])
        lp = [max_norm_fit(eye, ys[i], a_ub=a, b_ub=b[i]) for i in out]
        solved = np.array([res is not None for res in lp], dtype=bool)
        value[out[solved]] = [float(res.fun) for res in lp if res is not None]
        out, lower, y_out, b_out = out[~solved], lower[~solved], y_out[~solved], b_out[~solved]
        if out.size == 0:
            return Distances(value, error, approx, tuple(note))
    gap = _dykstra(a, b_out, y_out, max_sweeps) - y_out
    if space.norm == "euclidean":
        # converged Dykstra iterates are near-exact; the single-halfspace
        # lower bound keeps the reported bracket honest regardless
        d2_upper = np.sqrt(np.vecdot(gap, gap))  # np.linalg.norm of each row
        err = _positive(d2_upper - lower)
        flag = err > 1e-7 * np.fmax(d2_upper, 1.0)
        value[out], error[out], approx[out] = d2_upper, err, flag
        for i in out[flag]:
            note[i] = "halfspace projection bracket"
    else:
        upper = space.norms(gap)
        value[out], error[out], approx[out] = upper, _positive(upper - lower), True
        for i in out:
            note[i] = "region distance under this norm is a bracketed estimate"
    return Distances(value, error, approx, tuple(note))


def _dykstra(a_mat: np.ndarray, b: np.ndarray, ys: np.ndarray, max_sweeps: int) -> np.ndarray:
    """Nearest point of {z : A z <= b[i]} to each row i of ys (Dykstra's cyclic projections).

    b holds a right-hand side per row of ys, shape (n, m), or one for
    every row, shape (m,).  Every row sweeps the halfspaces in one block,
    and each update does a lone row's arithmetic elementwise (vecdot is
    the one-row dot), so a row's result does not depend on the others.  A
    row leaves the block after the sweep in which its own largest step
    falls below tolerance, or after max_sweeps.
    """
    m = a_mat.shape[0]
    sq = (a_mat * a_mat).sum(axis=1)
    sq[sq == 0.0] = 1.0
    out = ys.astype(float)
    live = np.arange(out.shape[0])
    iterates = np.empty((m + 1, *out.shape))  # z before and after each halfspace's step
    iterates[m] = out
    corr = np.zeros((m, *out.shape))
    b = np.broadcast_to(b, (out.shape[0], m))
    bounds = b.T  # (m, rows): each halfspace's right-hand side for every row

    def steps():  # views into the live rows' arrays; q as a one-element array
        return list(zip(iterates, iterates[1:], corr, a_mat, bounds, sq[:, None]))

    block = steps()
    for _ in range(max_sweeps):
        iterates[0] = iterates[m]
        for z, z_new, c, a, bound, q in block:
            w = z + c
            t = _positive(np.vecdot(w, a) - bound)[:, None]
            np.subtract(w, t / q * a, out=z_new)
            np.subtract(w, z_new, out=c)
        # a row's delta is the scalar loop's max(delta, step) from 0.0 over its steps
        delta = np.fmax.reduce(np.maximum.reduce(np.abs(iterates[1:] - iterates[:-1]), axis=2),
                               axis=0, initial=0.0)
        z = iterates[m]
        done = delta <= 1e-13 * (1.0 + np.maximum.reduce(np.abs(z), axis=1))
        if done.all():
            break
        if done.any():
            out[live[done]] = z[done]
            keep = ~done
            live, iterates, corr = live[keep], iterates[:, keep], corr[:, keep]
            bounds = bounds[:, keep]
            block = steps()
    out[live] = iterates[m]
    # final feasibility polish, row by row (plain cyclic projections keep z in the set)
    for z, b_vec in zip(out, b):
        for _ in range(50):
            viols = a_mat @ z - b_vec
            worst = float(viols.max())
            if worst <= 1e-12 * (1.0 + abs(worst)):
                break
            i = int(np.argmax(viols))
            z -= (viols[i] / sq[i]) * a_mat[i]
    return out


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
    """Excess of a over b: sup over a of dist_point(., b).

    Exact closed forms: ball over ball (and sphere sources), finite
    vertex/point sources over any convex target, orthant over orthant,
    and any source over an enlargement of a target with a known excess.
    Unbounded sources that no bounded target can absorb yield the +inf
    sentinel.  Remaining pairs fall back to a seeded sampled supremum
    flagged approximate.
    """
    if a.dim != space.dim or b.dim != space.dim:
        raise DimensionMismatchError("excess operands must live in the ambient space")

    if isinstance(b, EnlargedSet):
        inner = excess(space, a, b.base, n_samples=n_samples, seed=seed)
        val = max(0.0, float(inner) - b.margin)
        return Distance(val, approximate=inner.approximate, error=inner.error, note=inner.note)

    if isinstance(a, PointCloud):
        return _max_distance(space, a.points, b)
    # dist(., convex) is convex: its vertex max is exact; boxes above the corner
    # cap fall through to the sampled supremum
    if isinstance(a, VPolytope) and b.convex:
        return _max_distance(space, a.vertices, b)
    if isinstance(a, Box) and b.convex and 2**a.dim <= BOX_CORNER_CAP:
        return _max_distance(space, a.corners(), b)
    if isinstance(a, (Ball, Sphere)):
        if isinstance(b, Ball):
            return Distance(max(0.0, space.dist(a.center, b.center) + a.radius - b.radius))
        if isinstance(b, Sphere):
            # distances from b's center over a form a band; |t - r_b| peaks at its ends
            m = space.dist(a.center, b.center)
            hi_end = m + a.radius
            lo_end = max(0.0, m - a.radius) if isinstance(a, Ball) else abs(m - a.radius)
            return Distance(max(abs(hi_end - b.radius), abs(lo_end - b.radius)))
        if isinstance(b, PointCloud) and b.points.shape[0] == 1:
            return outer_radius(space, a, b.points[0])
    if isinstance(a, Orthant):
        if isinstance(b, Orthant):
            gap = np.maximum(0.0, b.apex - a.apex)
            return Distance(space.norm_of(gap))
        return Distance(math.inf, note="unbounded orthant over a non-absorbing target")
    if isinstance(a, EnlargedSet):
        if isinstance(b, Ball):
            rad = outer_radius(space, a, b.center)
            return Distance(max(0.0, float(rad) - b.radius),
                            approximate=rad.approximate, error=rad.error)
        inner = excess(space, a.base, b, n_samples=n_samples, seed=seed)
        if inner.is_infinite:
            return inner
        # sup over the enlargement is within [inner, inner + margin]
        return Distance(float(inner) + a.margin, approximate=True, error=a.margin,
                        note="enlargement excess bracketed by its margin")
    if isinstance(a, SublevelRegion):
        flag = boundedness(space, a)
        if not flag.bounded:
            return Distance(math.inf, note="region not certified bounded; excess sentinel")
        return _sampled_excess(space, a, b, n_samples, seed)
    # bounded source without a closed form: sampled supremum
    return _sampled_excess(space, a, b, n_samples, seed)


def _max_distance(space: NormedSpace, pts: np.ndarray, b: SetRep) -> Distance:
    d = dists(space, pts, b)
    i = int(np.argmax(d.value))
    far = d.value[i] > 0.0
    return Distance(float(d.value[i]) if far else 0.0, approximate=bool(d.approximate.any()),
                    error=float(d.error.max(initial=0.0)), note=d.note[i] if far else "")


def _sampled_excess(space: NormedSpace, a: SetRep, b: SetRep,
                    n_samples: int, seed: int) -> Distance:
    d = dists(space, sample(space, a, n_samples, seed), b)
    val = float(d.value.max(initial=0.0))
    err = float(d.error.max(initial=0.0))
    flag = boundedness(space, a)
    spread = (flag.radius_hint or 1.0)
    density_err = 4.0 * spread / max(1, n_samples) ** (1.0 / max(1, space.dim))
    return Distance(val, approximate=True, error=err + density_err,
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
    return s.sample(space, n, seed, rng_for(seed, 0), box)


def sample_enlargement(space: NormedSpace, s: SetRep, rho: float, n: int, seed: int,
                       box=None) -> np.ndarray:
    """n points of the rho-enlargement of s, biased toward its outer boundary.

    Construction guarantees membership: each point is a member of s
    pushed by at most rho in some unit direction.  Pushes favour the
    outward direction from the sample centroid (the hardest points for an
    inclusion test), mixed with random directions and depths.
    """
    return _sample_enlargement(space, s, rho, n, seed, rng_for(seed, 0), rng_for(seed, 1), box)


def _sample_enlargement(space: NormedSpace, s: SetRep, rho: float, n: int, seed: int,
                        base_rng: np.random.Generator, rng: np.random.Generator,
                        box=None) -> np.ndarray:
    """sample_enlargement with its generators given: base_rng = rng_for(seed, 0)
    samples s, and rng = rng_for(seed, 1) draws the random pushes."""
    if n < 1:
        raise ValueError("need n >= 1 samples")
    base_pts = s.sample(space, n, seed, base_rng, box)
    outward = base_pts - np.mean(base_pts, axis=0)
    pushed = (np.arange(len(base_pts)) % 4 != 3) & (space.norms(outward) > 1e-12)
    depth, dirs = np.ones(len(base_pts)), outward.copy()
    for i in np.flatnonzero(~pushed):
        dirs[i] = rng.standard_normal(space.dim)
        depth[i] = 1.0 if i % 2 == 0 else rng.uniform()
    return base_pts + (rho * depth)[:, None] * space.unit(dirs)

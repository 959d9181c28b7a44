"""Catalog of set-valued mappings with covering constants and cover witnesses.

Each variant knows how to evaluate itself to a `SetRep`, what
set-covering constant it carries (when it carries one), its Lipschitz
constant in the bounded-valued role, and - where the constant comes with
a constructive proof - a deterministic witness rule producing the single
point u whose image absorbs the enlarged image at the reference point.

Stored covering constants have open-interval semantics: the mapping is
set-covering with every constant strictly below the stored value, and
the supremum itself may not be attained.  Consumers scale by a safety
factor (0.99 by default) before using one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    Ball,
    FormGroup,
    NormedSpace,
    Orthant,
    SetRep,
    Sphere,
    SublevelRegion,
    VPolytope,
    Box,
    PointCloud,
    EnlargedSet,
    DimensionMismatchError,
    boundedness,
    dist_point,  # noqa: F401  (perfbench/test_checks.py checks the tracer rebinds it here)
    dists,
    excess,
    rng_for,
    sample_enlargement,
    translate_set,
    _freeze,
    _memo,
)

DEFAULT_SAFETY = 0.99

__all__ = [
    "DEFAULT_SAFETY",
    "NotSetCoveringError",
    "ConstantExhaustedError",
    "WitnessUnavailableError",
    "LipschitzRuleError",
    "DimensionCapError",
    "SIGN_CORNER_CAP",
    "Affine",
    "ScaledNormRadial",
    "CatalogFn",
    "MapConstants",
    "MapSpec",
    "Dilation",
    "SphereScale",
    "UnitBallTranslate",
    "SublinearSystem",
    "Epigraphical",
    "PolyhedralProcess",
    "Sum",
    "Composed",
    "BallValued",
    "eval_map",
    "alpha_of",
    "beta_of",
    "cover_witness",
    "fallback_witness",
    "CoverageRecord",
    "LipschitzEstimate",
    "empirical_lipschitz",
    "order_metric_gamma",
]


class NotSetCoveringError(ValueError):
    """The mapping is a covering-only witness (or has no interior certificate)."""


class ConstantExhaustedError(ValueError):
    """A perturbation ate the whole covering constant (Lip(g) >= alpha)."""


class WitnessUnavailableError(LookupError):
    """No witness rule for this variant; fallback search required."""


class LipschitzRuleError(LookupError):
    """No closed-form Lipschitz rule; use empirical_lipschitz."""


class DimensionCapError(ValueError):
    """A valid input above a documented dimension cap: SIGN_CORNER_CAP for the
    rules that enumerate 2^dim sign corners, penalty.PENALTY_SEARCH_CAP for the
    penalty minimization."""


# largest dimension whose sign corners are enumerated: the rows of an Epigraphical
# matrix (its covering rate), the columns of an Affine map (its max -> euclidean norm)
SIGN_CORNER_CAP = 16


# ---------------------------------------------------------------------------
# single-valued catalog functions


@dataclass(frozen=True, eq=False)
class Affine:
    """g(x) = M x + c."""

    matrix: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        m = np.atleast_2d(np.asarray(self.matrix, dtype=float))
        _freeze(self, "matrix", m)
        _freeze(self, "offset", np.asarray(self.offset, dtype=float).reshape(-1))
        if self.matrix.shape[0] != self.offset.shape[0]:
            raise DimensionMismatchError("affine matrix/offset shape mismatch")

    def evaluate(self, x, space_in: NormedSpace) -> np.ndarray:
        return self.matrix @ np.asarray(x, dtype=float) + self.offset

    def lipschitz(self, space_in: NormedSpace, space_out: NormedSpace) -> float:
        """Operator norm of M for the ambient norm pair."""
        m = self.matrix
        key = (space_in.norm, space_out.norm)
        if key == ("euclidean", "euclidean"):
            return float(np.linalg.norm(m, 2))
        if key == ("max", "max"):
            return float(np.max(np.sum(np.abs(m), axis=1)))
        if key == ("euclidean", "max"):
            return float(np.max(np.linalg.norm(m, axis=1)))
        if key == ("max", "euclidean"):
            return max(float(np.linalg.norm(m @ s)) for s in _sign_corners(m.shape[1]))
        raise LipschitzRuleError(f"no operator-norm rule for norms {key}")

    def covering_constant(self, space_in: NormedSpace, space_out: NormedSpace) -> float:
        """Covering rate of the affine map: reciprocal sup of min-norm preimages."""
        if space_in.norm != "euclidean" or space_out.norm != "euclidean":
            raise LipschitzRuleError("covering constant implemented for euclidean norms")
        sv = np.linalg.svd(self.matrix, compute_uv=False)
        k = self.matrix.shape[0]
        if len(sv) < k or sv[k - 1] <= 0:
            raise NotSetCoveringError("affine map is not surjective")
        return float(sv[k - 1])


@dataclass(frozen=True, eq=False)
class ScaledNormRadial:
    """g(x) = scale * ||x||_in * direction."""

    scale: float
    direction: np.ndarray

    def __post_init__(self):
        _freeze(self, "direction", np.asarray(self.direction, dtype=float).reshape(-1))

    def evaluate(self, x, space_in: NormedSpace) -> np.ndarray:
        return self.scale * space_in.norm_of(x) * self.direction

    def lipschitz(self, space_in: NormedSpace, space_out: NormedSpace) -> float:
        return abs(self.scale) * space_out.norm_of(self.direction)

    def covering_constant(self, space_in, space_out) -> float:
        raise NotSetCoveringError("radial catalog function is not covering")


CatalogFn = Affine | ScaledNormRadial


def _sign_corners(n: int):
    if n > SIGN_CORNER_CAP:
        raise DimensionCapError(f"sign-corner enumeration is capped at dimension "
                                f"{SIGN_CORNER_CAP}; this needs dimension {n}")
    for bits in range(2**n):
        yield np.array([1.0 if bits & (1 << i) else -1.0 for i in range(n)])


@dataclass(frozen=True)
class MapConstants:
    """Covering/Lipschitz constants with the producing rule recorded."""

    alpha: float
    beta: float | None = None
    gamma: float = 1.0
    exactness: str = "formula"  # "formula" | "empirical"
    rule: str = ""

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("set-covering constant must be > 0")


# ---------------------------------------------------------------------------
# map variants


class MapSpec:
    """Base class; concrete variants declare their domain/range spaces."""

    space_x: NormedSpace
    space_y: NormedSpace


def _space_of(space: NormedSpace | None, dim: int) -> NormedSpace:
    """space, checked to be of dimension dim; euclidean R^dim when None."""
    if space is None:
        return NormedSpace(dim)
    if space.dim != dim:
        raise DimensionMismatchError(f"expected a space of dim {dim}, got dim {space.dim}")
    return space


def _max_space(space: NormedSpace | None, dim: int) -> NormedSpace:
    """The max-norm R^dim a map's theory fixes; a given space must be that one."""
    if space is None:
        return NormedSpace(dim, "max")
    space = _space_of(space, dim)
    if space.norm != "max":
        raise ValueError(f"this map's space is the max-norm R^{dim}, got the {space.norm} norm")
    return space


@dataclass(frozen=True, eq=False)
class Dilation(MapSpec):
    """x -> ball(y0, a*d(x, anchor) + b): radius dilates at rate a."""

    y0: np.ndarray
    a: float
    b: float = 0.0
    anchor: np.ndarray | None = None
    space_x: NormedSpace | None = None
    space_y: NormedSpace | None = None

    def __post_init__(self):
        _freeze(self, "y0", np.asarray(self.y0, dtype=float).reshape(-1))
        anchor = np.zeros(1) if self.anchor is None else np.asarray(self.anchor, dtype=float).reshape(-1)
        _freeze(self, "anchor", anchor)
        if self.a <= 0:
            raise ValueError("dilation rate a must be > 0")
        if self.b < 0:
            raise ValueError("base radius b must be >= 0")
        object.__setattr__(self, "space_x", _space_of(self.space_x, self.anchor.shape[0]))
        object.__setattr__(self, "space_y", _space_of(self.space_y, self.y0.shape[0]))

    def radius_at(self, x) -> float:
        return self.a * self.space_x.dist(x, self.anchor) + self.b


@dataclass(frozen=True, eq=False)
class SphereScale(MapSpec):
    """x -> |x| * (unit sphere of R^2): covering with rate 1, images have empty interior."""

    space_x: NormedSpace = None
    space_y: NormedSpace = None

    def __post_init__(self):
        object.__setattr__(self, "space_x", _space_of(self.space_x, 1))
        object.__setattr__(self, "space_y", _space_of(self.space_y, 2))


@dataclass(frozen=True, eq=False)
class UnitBallTranslate(MapSpec):
    """x -> ball(x, 1): images have interior but no single point absorbs an enlargement."""

    dim: int = 1
    space_x: NormedSpace = None
    space_y: NormedSpace = None

    def __post_init__(self):
        object.__setattr__(self, "space_x", _space_of(self.space_x, self.dim))
        object.__setattr__(self, "space_y", _space_of(self.space_y, self.dim))


@dataclass(frozen=True, eq=False)
class SublinearSystem(MapSpec):
    """x -> {y : p_i(y) <= |x_i|} with p_i(y) = max_j <a_ij, y>.

    Domain carries the max norm; the covering constant is the
    reciprocal of the largest dual norm over the forms.
    """

    groups: tuple[np.ndarray, ...]
    space_y: NormedSpace = None
    space_x: NormedSpace = None

    def __post_init__(self):
        groups = tuple(np.atleast_2d(np.asarray(g, dtype=float)) for g in self.groups)
        for g in groups:
            g.setflags(write=False)
        object.__setattr__(self, "groups", groups)
        dims = {g.shape[1] for g in groups}
        if len(dims) != 1:
            raise DimensionMismatchError("all sublinear forms must share the range dimension")
        object.__setattr__(self, "space_y", _space_of(self.space_y, dims.pop()))
        object.__setattr__(self, "space_x", _max_space(self.space_x, len(groups)))

    def dual_norm_max(self) -> float:
        """max_{i,j} ||a_ij|| in the dual of the range norm (vertex max of each subdifferential)."""
        return max(self.space_y.dual_norm_of(row) for g in self.groups for row in g)


@dataclass(frozen=True, eq=False)
class Epigraphical(MapSpec):
    """x -> A x + nonnegative cone, for surjective A, under matched max norms.

    The max norm makes the order/metric constant gamma equal to 1 and the
    lower corner of a ball an exact order minorant; p-norm gammas are
    exposed read-only through order_metric_gamma.
    """

    matrix: np.ndarray
    space_x: NormedSpace = None
    space_y: NormedSpace = None

    def __post_init__(self):
        m = np.atleast_2d(np.asarray(self.matrix, dtype=float))
        _freeze(self, "matrix", m)
        if np.linalg.matrix_rank(m) < m.shape[0]:
            raise ValueError("epigraphical map requires a full-row-rank matrix")
        object.__setattr__(self, "space_x", _max_space(self.space_x, m.shape[1]))
        object.__setattr__(self, "space_y", _max_space(self.space_y, m.shape[0]))


@dataclass(frozen=True, eq=False)
class PolyhedralProcess(MapSpec):
    """Graph {(x, y) : Cx x + Cy y <= 0}: a closed polyhedral convex cone."""

    cx: np.ndarray
    cy: np.ndarray
    space_x: NormedSpace = None
    space_y: NormedSpace = None

    def __post_init__(self):
        cx = np.atleast_2d(np.asarray(self.cx, dtype=float))
        cy = np.atleast_2d(np.asarray(self.cy, dtype=float))
        if cx.shape[0] != cy.shape[0]:
            raise DimensionMismatchError("Cx and Cy must have the same row count")
        _freeze(self, "cx", cx)
        _freeze(self, "cy", cy)
        object.__setattr__(self, "space_x", _space_of(self.space_x, cx.shape[1]))
        object.__setattr__(self, "space_y", _space_of(self.space_y, cy.shape[1]))


@dataclass(frozen=True, eq=False)
class Sum(MapSpec):
    """x -> base(x) + g(x): additive Lipschitz perturbation of a set-covering map."""

    base: MapSpec
    g: CatalogFn

    def __post_init__(self):
        object.__setattr__(self, "space_x", self.base.space_x)
        object.__setattr__(self, "space_y", self.base.space_y)

    def g_lipschitz(self) -> float:
        return self.g.lipschitz(self.space_x, self.space_y)


@dataclass(frozen=True, eq=False)
class Composed(MapSpec):
    """x -> g(base(x)) for a covering affine g whose images stay in the catalog."""

    g: Affine
    base: MapSpec
    space_z: NormedSpace = None

    def __post_init__(self):
        if not isinstance(self.g, Affine):
            raise TypeError("composition requires an affine outer map")
        object.__setattr__(self, "space_x", self.base.space_x)
        object.__setattr__(self, "space_z", _space_of(self.space_z, self.g.matrix.shape[0]))
        object.__setattr__(self, "space_y", self.space_z)

    @property
    def inner_space(self) -> NormedSpace:
        return self.base.space_y


@dataclass(frozen=True, eq=False)
class BallValued(MapSpec):
    """x -> ball(center(x), c0 + c1*||x - xhat||): the bounded Lipschitz role."""

    center: CatalogFn
    c0: float
    c1: float = 0.0
    xhat: np.ndarray | None = None
    space_x: NormedSpace = None
    space_y: NormedSpace = None

    def __post_init__(self):
        if self.c0 <= 0:
            raise ValueError("c0 must be > 0")
        if self.c1 < 0:
            raise ValueError("c1 must be >= 0")
        if self.space_x is None or self.space_y is None:
            raise ValueError("BallValued needs explicit domain and range spaces")
        xhat = np.zeros(self.space_x.dim) if self.xhat is None else np.asarray(self.xhat, dtype=float)
        _freeze(self, "xhat", xhat)

    def radius_at(self, x) -> float:
        return self.c0 + self.c1 * self.space_x.dist(x, self.xhat)


# ---------------------------------------------------------------------------
# evaluation


def eval_map(m: MapSpec, x) -> SetRep:
    """Image of x under the mapping, as a closed set representation."""
    x = m.space_x.check_point(x)
    if isinstance(m, Dilation):
        return Ball(m.y0, m.radius_at(x))
    if isinstance(m, SphereScale):
        return Sphere(np.zeros(2), abs(float(x[0])))
    if isinstance(m, UnitBallTranslate):
        return Ball(x, 1.0)
    if isinstance(m, SublinearSystem):
        return SublevelRegion(tuple(FormGroup(g, abs(float(xi)))
                                    for g, xi in zip(m.groups, x)))
    if isinstance(m, Epigraphical):
        return Orthant(m.matrix @ x)
    if isinstance(m, PolyhedralProcess):
        rhs = -(m.cx @ x)
        groups = []
        for row, b in zip(m.cy, rhs):
            if np.all(row == 0.0):
                if b < -1e-12:
                    raise ValueError("point lies outside the domain of the process")
                continue
            groups.append(FormGroup(row.reshape(1, -1), float(b)))
        if not groups:
            raise ValueError("process image is the whole space; not representable")
        return SublevelRegion(tuple(groups))
    if isinstance(m, Sum):
        return translate_set(eval_map(m.base, x), m.g.evaluate(x, m.space_x))
    if isinstance(m, Composed):
        return _affine_image(m.g, eval_map(m.base, x))
    if isinstance(m, BallValued):
        return Ball(m.center.evaluate(x, m.space_x), m.radius_at(x))
    raise TypeError(f"unknown map variant {type(m).__name__}")


def _affine_image(g: Affine, s: SetRep) -> SetRep:
    """Exact image of a catalog set under g, where it stays in the catalog."""
    mat, off = g.matrix, g.offset
    if isinstance(s, (Ball, Sphere)):
        lam = _scaled_orthogonal_factor(mat)
        if lam is None:
            raise ValueError("ball images need a scaled-orthogonal matrix to stay in the catalog")
        cls = Ball if isinstance(s, Ball) else Sphere
        return cls(mat @ s.center + off, lam * s.radius)
    if isinstance(s, VPolytope):
        return VPolytope(s.vertices @ mat.T + off)
    if isinstance(s, Box):
        return VPolytope(s.corners() @ mat.T + off)
    if isinstance(s, PointCloud):
        return PointCloud(s.points @ mat.T + off)
    if isinstance(s, SublevelRegion):
        if mat.shape[0] != mat.shape[1]:
            raise ValueError("region images need an invertible matrix")
        inv_t = np.linalg.inv(mat).T
        groups = []
        for grp in s.groups:
            a_new = grp.a @ inv_t.T
            shift = float(a_new[0] @ off) if a_new.shape[0] == 1 else None
            if shift is None:
                # per-form offsets differ: split the group (same set, finer groups)
                for row in a_new:
                    groups.append(FormGroup(row.reshape(1, -1), grp.b + float(row @ off)))
            else:
                groups.append(FormGroup(a_new, grp.b + shift))
        return SublevelRegion(tuple(groups))
    if isinstance(s, EnlargedSet):
        lam = _scaled_orthogonal_factor(mat)
        if lam is None:
            raise ValueError("enlargement images need a scaled-orthogonal matrix")
        return EnlargedSet(_affine_image(g, s.base), lam * s.margin)
    raise ValueError(f"affine image of {type(s).__name__} leaves the catalog")


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


# ---------------------------------------------------------------------------
# constants


def _epigraphical_alpha_f(m: Epigraphical) -> float:
    """1 / sup_{||y||_inf <= 1} min{||x||_inf : Ax = y}, by sign-corner enumeration.

    The sup of the (convex) min-norm preimage over the unit box is
    attained at a corner.  Computed once per map and kept on it.
    """
    return _memo(m, "_alpha_f", lambda: _solve_epigraphical_alpha_f(m))


def _solve_epigraphical_alpha_f(m: Epigraphical) -> float:
    from ._lp import min_max_norm_solution

    worst = 0.0
    for s in _sign_corners(m.matrix.shape[0]):
        sol = min_max_norm_solution(m.matrix, s)
        if sol is None:
            raise NotSetCoveringError("matrix is not surjective on a corner")
        worst = max(worst, sol[1])
    if worst <= 0:
        raise NotSetCoveringError("degenerate preimage operator")
    return 1.0 / worst


def alpha_of(m: MapSpec) -> MapConstants:
    """Set-covering constant with provenance; raises for covering-only witnesses.

    Returned constants carry open-interval semantics (scale by a safety
    factor before use).
    """
    if isinstance(m, Dilation):
        return MapConstants(alpha=m.a, beta=m.a, gamma=1.0,
                            rule="radial dilation rate: alpha = a")
    if isinstance(m, (SphereScale, UnitBallTranslate)):
        raise NotSetCoveringError(
            f"{type(m).__name__} is a covering-only witness: not set-covering for any constant")
    if isinstance(m, SublinearSystem):
        dual = m.dual_norm_max()
        if dual <= 0:
            raise NotSetCoveringError("all forms vanish; constant undefined")
        return MapConstants(alpha=1.0 / dual,
                            rule="reciprocal of the largest dual norm over the forms")
    if isinstance(m, Epigraphical):
        alpha_f = _epigraphical_alpha_f(m)
        gamma = order_metric_gamma(m.space_y.dim, m.space_y.norm, m.space_y.p)
        return MapConstants(alpha=alpha_f / gamma, gamma=gamma,
                            rule="surjection rate of the linear part over the order constant")
    if isinstance(m, PolyhedralProcess):
        from .certify import interior_radius

        report = interior_radius(m)
        if report.alpha <= 0:
            raise NotSetCoveringError(
                "process image at the certified witness has no inscribed ball")
        return MapConstants(alpha=report.alpha,
                            rule="inscribed radius of the image of the interior witness")
    if isinstance(m, Sum):
        base = alpha_of(m.base)
        lip = m.g_lipschitz()
        remaining = base.alpha - lip
        if remaining <= 0:
            raise ConstantExhaustedError(
                f"perturbation Lipschitz constant {lip} exhausts base constant {base.alpha}")
        return MapConstants(alpha=remaining, beta=None, gamma=base.gamma,
                            exactness=base.exactness,
                            rule=f"base constant minus perturbation Lipschitz ({base.rule})")
    if isinstance(m, Composed):
        base = alpha_of(m.base)
        cov = m.g.covering_constant(m.inner_space, m.space_z)
        return MapConstants(alpha=base.alpha * cov, gamma=base.gamma,
                            exactness=base.exactness,
                            rule=f"base constant times outer covering rate ({base.rule})")
    raise NotSetCoveringError(f"no covering rule for {type(m).__name__}")


def beta_of(m: MapSpec) -> float:
    """Lipschitz constant of the mapping (excess metric) in the bounded role."""
    if isinstance(m, BallValued):
        return m.center.lipschitz(m.space_x, m.space_y) + m.c1
    if isinstance(m, Dilation):
        return m.a
    if isinstance(m, SphereScale):
        return 1.0
    if isinstance(m, UnitBallTranslate):
        return 1.0
    if isinstance(m, Epigraphical):
        return Affine(m.matrix, np.zeros(m.matrix.shape[0])).lipschitz(m.space_x, m.space_y)
    if isinstance(m, Sum):
        return beta_of(m.base) + m.g_lipschitz()
    if isinstance(m, Composed):
        return m.g.lipschitz(m.inner_space, m.space_z) * beta_of(m.base)
    raise LipschitzRuleError(
        f"no Lipschitz rule for {type(m).__name__}; use empirical_lipschitz")


def order_metric_gamma(dim: int, norm: str, p: float | None = None) -> float:
    """Order/metric constant of the nonnegative cone: 1 for the max norm, dim^(1/p) for p-norms."""
    if norm == "max":
        return 1.0
    if norm == "euclidean":
        return dim**0.5
    if norm == "p":
        return dim ** (1.0 / p)
    raise ValueError(f"unknown norm selector {norm!r}")


# ---------------------------------------------------------------------------
# witnesses


def cover_witness(m: MapSpec, x, rho: float) -> np.ndarray:
    """The point u within rho of x whose image absorbs the enlarged image.

    Deterministic tie-breaking: sign(0) counts as +1 in the sublinear
    shift, and x = anchor in a dilation moves along the first basis
    direction.
    """
    if rho <= 0:
        raise ValueError("witness radius rho must be > 0")
    x = m.space_x.check_point(x)
    if isinstance(m, Dilation):
        return x + rho * m.space_x.unit(x - m.anchor)
    if isinstance(m, SublinearSystem):
        return x + np.where(x >= 0.0, rho, -rho)
    if isinstance(m, Epigraphical):
        from ._lp import min_max_norm_solution

        alpha_f = _epigraphical_alpha_f(m)
        target = -alpha_f * rho * np.ones(m.space_y.dim)
        sol = min_max_norm_solution(m.matrix, target)
        if sol is None:
            raise NotSetCoveringError("lost surjectivity on the witness shift")
        return x + sol[0]
    if isinstance(m, PolyhedralProcess):
        from .certify import interior_radius

        report = interior_radius(m)
        if report.u0 is None:
            raise NotSetCoveringError("process has no interior witness direction")
        return x + rho * report.u0
    if isinstance(m, (Sum, Composed)):
        return cover_witness(m.base, x, rho)
    raise WitnessUnavailableError(
        f"no witness rule for {type(m).__name__}: fallback search required")


@dataclass(frozen=True)
class CoverageRecord:
    """What a searched witness actually covers, for honesty in fallbacks."""

    u: np.ndarray
    worst_margin: float
    covered_fraction: float
    n_points: int
    seed: int


def fallback_witness(m: MapSpec, x, rho: float, alpha: float,
                     n_points: int = 64, seed: int = 0,
                     budget: int = 150, search_targets: int = 8) -> CoverageRecord:
    """Budgeted random + local search for a witness over the rho-ball at x.

    The search minimizes the worst violation over a small target subset;
    the returned record re-scores the winner on the full target set, so
    it never claims more than the sampled margins show.
    """
    from .search import pattern_search

    x = m.space_x.check_point(x)
    image = eval_map(m, x)
    targets = sample_enlargement(m.space_y, image, alpha * rho, n_points, seed)
    probe = targets[:: max(1, n_points // search_targets)]

    def worst_violation(u):
        try:
            img_u = eval_map(m, u)
        except ValueError:
            return math.inf
        return float(dists(m.space_y, probe, img_u).value.max())

    def clip_to_ball(u):
        d = m.space_x.dist(u, x)
        if d <= rho:
            return u
        return x + (rho / d) * (u - x)

    rng = rng_for(seed, 2)
    candidates = [x.copy()]
    for _ in range(4):
        g = rng.standard_normal(m.space_x.dim)
        candidates.append(x + rho * float(rng.uniform()) * m.space_x.unit(g))
    best_u, best_v = None, math.inf
    per_start = max(25, budget // len(candidates))
    for cand in candidates:
        u, v, _ = pattern_search(worst_violation, cand, initial_step=rho / 2,
                                 step_floor=1e-9 * max(1.0, rho),
                                 max_evals=per_start, project=clip_to_ball)
        if v < best_v:
            best_u, best_v = u, v
    tol = 1e-9 * (1.0 + alpha * rho)
    img_best = eval_map(m, best_u)
    margins = dists(m.space_y, targets, img_best).value
    covered = int(np.count_nonzero(margins <= tol)) / len(margins)
    return CoverageRecord(u=best_u, worst_margin=float(margins.max()),
                          covered_fraction=covered, n_points=n_points, seed=seed)


# ---------------------------------------------------------------------------
# empirical Lipschitz estimation


@dataclass(frozen=True)
class LipschitzEstimate:
    """Lower estimate of a Lipschitz constant from sampled pairs."""

    value: float
    n_pairs: int
    seed: int
    box_lo: np.ndarray
    box_hi: np.ndarray

    def __float__(self):
        return self.value


def empirical_lipschitz(m: MapSpec, box: tuple, n_pairs: int = 64,
                        seed: int = 0) -> LipschitzEstimate:
    """max over sampled pairs of excess(m(x1), m(x2)) / d(x1, x2).

    A lower estimate: reported with its sample metadata.  Raises when the
    images are not certified bounded (the excess would be the sentinel).
    """
    lo = np.asarray(box[0], dtype=float).reshape(-1)
    hi = np.asarray(box[1], dtype=float).reshape(-1)
    probe = eval_map(m, (lo + hi) / 2.0)
    if not boundedness(m.space_y, probe).bounded:
        raise ValueError("empirical Lipschitz estimation needs bounded images")
    rng = rng_for(seed, 3)
    best = 0.0
    for _ in range(n_pairs):
        x1 = rng.uniform(lo, hi)
        x2 = rng.uniform(lo, hi)
        d = m.space_x.dist(x1, x2)
        if d <= 1e-12:
            continue
        e = excess(m.space_y, eval_map(m, x1), eval_map(m, x2))
        best = max(best, float(e) / d)
    return LipschitzEstimate(value=best, n_pairs=n_pairs, seed=seed, box_lo=lo, box_hi=hi)

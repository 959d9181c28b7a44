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
    Family,
    FormGroup,
    NormedSpace,
    Orthant,
    Regions,
    Rounds,
    SetRep,
    Sphere,
    SublevelRegion,
    DimensionMismatchError,
    boundedness,
    dist_point,  # noqa: F401  (perfbench/test_checks.py checks the tracer rebinds it here)
    dists,
    excess,
    outer_radius,
    rng_for,
    sample_enlargement,
    translate_set,
    _freeze,
    _memo,
    _positive,
)
from .search import ball_search

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
    "eval_maps",
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

    def evaluate_rows(self, xs: np.ndarray, space_in: NormedSpace) -> np.ndarray:
        """evaluate at each row of xs: a stacked (k, n, 1) product runs each row's gemv."""
        return np.matmul(self.matrix, xs[:, :, None])[:, :, 0] + self.offset

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

    def evaluate_rows(self, xs: np.ndarray, space_in: NormedSpace) -> np.ndarray:
        return (self.scale * space_in.norms(xs))[:, None] * self.direction

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
    """Base class; concrete variants declare their domain/range spaces.

    Each variant carries its rules: image and images, constants, lipschitz,
    witness, respond, inverse_distance and inverse_distances, and
    shell_center, which eval_map, eval_maps, alpha_of, beta_of,
    cover_witness and the certificates call on checked arguments.  A
    variant without a rule raises their error; images and
    inverse_distances of a kind without a batched rule go row by row.
    """

    space_x: NormedSpace
    space_y: NormedSpace

    def image(self, x: np.ndarray) -> SetRep:
        raise TypeError(f"unknown map variant {type(self).__name__}")

    def images(self, xs: np.ndarray) -> Family:
        """The image of each row of a (k, dim) array; row i is image(xs[i]).

        A row whose image raises ValueError is missing from the family.
        The ball- and sphere-valued kinds return Rounds and the sublinear
        kind Regions, each built for all rows at once.
        """
        return Family.build(lambda i: self.image(xs[i]), xs.shape[0])

    def constants(self) -> MapConstants:
        raise NotSetCoveringError(f"no covering rule for {type(self).__name__}")

    def lipschitz(self) -> float:
        raise LipschitzRuleError(
            f"no Lipschitz rule for {type(self).__name__}; use empirical_lipschitz")

    def witness(self, x: np.ndarray, rho: float) -> np.ndarray:
        raise WitnessUnavailableError(
            f"no witness rule for {type(self).__name__}: fallback search required")

    def respond(self, x: np.ndarray, r: float, y: np.ndarray):
        """(u, min over the r-ball at x of dist(y, image(u)), attained at u), or None."""
        return None

    def inverse_distance(self, s: SetRep, x: np.ndarray) -> float:
        """Distance from x to {u : s is contained in the image of u}; inf when empty."""
        raise NotImplementedError(f"no closed-form inclusion inverse for {type(self).__name__}")

    def inverse_distances(self, tests: Rounds, xs: np.ndarray) -> np.ndarray:
        """inverse_distance(tests.row(i), xs[i]) for each row, in one call."""
        raise NotImplementedError(f"no batched inclusion inverse for {type(self).__name__}")

    def shell_center(self) -> np.ndarray:
        """The point c whose distance to every inclusion-inverse image is the
        image's radius: each inverse image is a shell {u : d(u, c) >= t}."""
        raise NotImplementedError("closed-form inverse Hausdorff check needs a dilation")


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

    def image(self, x):
        return Ball(self.y0, self.radius_at(x))

    def images(self, xs):
        radii = self.a * self.space_x.norms(xs - self.anchor) + self.b
        return Rounds(np.broadcast_to(self.y0, (xs.shape[0], self.y0.shape[0])), radii)

    def constants(self):
        return MapConstants(alpha=self.a, beta=self.a, gamma=1.0,
                            rule="radial dilation rate: alpha = a")

    def lipschitz(self):
        return self.a

    def witness(self, x, rho):
        return x + rho * self.space_x.unit(x - self.anchor)

    def inverse_distance(self, s, x):
        # the images contain s once the radius reaches s's outer radius about y0
        r_s = float(outer_radius(self.space_y, s, self.y0))
        if math.isinf(r_s):
            return math.inf
        threshold = (r_s - self.b) / self.a
        return max(0.0, threshold - self.space_x.dist(x, self.anchor))

    def inverse_distances(self, tests, xs):
        r_s = self.space_y.norms(tests.centers - self.y0) + tests.radii  # each outer radius
        gaps = (r_s - self.b) / self.a - self.space_x.norms(xs - self.anchor)
        return np.where(np.isinf(r_s), math.inf, _positive(gaps))

    def shell_center(self):
        return self.anchor


class _CoveringOnly(MapSpec):
    """A covering witness that is not set-covering for any constant, with rate 1."""

    def constants(self):
        raise NotSetCoveringError(
            f"{type(self).__name__} is a covering-only witness: not set-covering for any constant")

    def lipschitz(self):
        return 1.0


@dataclass(frozen=True, eq=False)
class SphereScale(_CoveringOnly):
    """x -> |x| * (unit sphere of R^2): covering with rate 1, images have empty interior."""

    space_x: NormedSpace = None
    space_y: NormedSpace = None

    def __post_init__(self):
        object.__setattr__(self, "space_x", _space_of(self.space_x, 1))
        object.__setattr__(self, "space_y", _space_of(self.space_y, 2))

    def image(self, x):
        return Sphere(np.zeros(2), abs(float(x[0])))

    def images(self, xs):
        return Rounds(np.zeros((xs.shape[0], 2)), np.abs(xs[:, 0]), sphere=True)

    def respond(self, x, r, y):
        ny = float(np.linalg.norm(y))
        lo, hi = max(0.0, abs(float(x[0])) - r), abs(float(x[0])) + r
        rho = min(max(ny, lo), hi)
        sign = 1.0 if x[0] >= 0 else -1.0
        u = np.array([sign * rho])
        if abs(u[0] - x[0]) > r:  # sign flip fits better when the band crosses zero
            u = np.array([-sign * rho])
        return u, abs(ny - rho)

    def inverse_distance(self, s, x):
        if isinstance(s, Ball):
            if s.radius > 0.0:
                return math.inf  # no sphere contains a solid ball
            rho = float(np.linalg.norm(s.center))
            return abs(abs(float(x[0])) - rho)
        raise NotImplementedError("inclusion inverse implemented for ball test sets")

    def inverse_distances(self, tests, xs):
        if tests.sphere:
            raise NotImplementedError("inclusion inverse implemented for ball test sets")
        rho = np.sqrt(np.vecdot(tests.centers, tests.centers))  # np.linalg.norm of each row
        return np.where(tests.radii > 0.0, math.inf, np.abs(np.abs(xs[:, 0]) - rho))


@dataclass(frozen=True, eq=False)
class UnitBallTranslate(_CoveringOnly):
    """x -> ball(x, 1): images have interior but no single point absorbs an enlargement."""

    dim: int = 1
    space_x: NormedSpace = None
    space_y: NormedSpace = None

    def __post_init__(self):
        object.__setattr__(self, "space_x", _space_of(self.space_x, self.dim))
        object.__setattr__(self, "space_y", _space_of(self.space_y, self.dim))

    def image(self, x):
        return Ball(x, 1.0)

    def images(self, xs):
        return Rounds(xs, np.ones(xs.shape[0]))

    def respond(self, x, r, y):
        space = self.space_x
        d = space.dist(y, x)
        step = min(r, max(0.0, d - 1.0))
        u = x + step * space.unit(np.asarray(y) - x)
        return u, max(0.0, d - r - 1.0)

    def inverse_distance(self, s, x):
        if isinstance(s, Ball):
            if s.radius > 1.0:
                return math.inf
            return max(0.0, self.space_x.dist(x, s.center) - (1.0 - s.radius))
        raise NotImplementedError("inclusion inverse implemented for ball test sets")

    def inverse_distances(self, tests, xs):
        if tests.sphere:
            raise NotImplementedError("inclusion inverse implemented for ball test sets")
        gaps = self.space_x.norms(xs - tests.centers) - (1.0 - tests.radii)
        return np.where(tests.radii > 1.0, math.inf, _positive(gaps))


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

    def image(self, x):
        return SublevelRegion(tuple(FormGroup(g, abs(float(xi))) for g, xi in zip(self.groups, x)))

    def images(self, xs):
        # one region holds the stacked form rows; row i's bounds are |x_i| per group
        forms = _memo(self, "_forms", lambda: SublevelRegion(
            tuple(FormGroup(g, 0.0) for g in self.groups)))
        sizes = [g.shape[0] for g in self.groups]
        return Regions(forms, np.repeat(np.abs(xs), sizes, axis=1))

    def constants(self):
        dual = self.dual_norm_max()
        if dual <= 0:
            raise NotSetCoveringError("all forms vanish; constant undefined")
        return MapConstants(alpha=1.0 / dual,
                            rule="reciprocal of the largest dual norm over the forms")

    def witness(self, x, rho):
        # sign(0) counts as +1
        return x + np.where(x >= 0.0, rho, -rho)


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

    def alpha_f(self) -> float:
        """1 / sup_{||y||_inf <= 1} min{||x||_inf : Ax = y}, by sign-corner enumeration.

        The sup of the (convex) min-norm preimage over the unit box is
        attained at a corner.  Computed once per map and kept on it.
        """
        def solve():
            from ._lp import min_max_norm_solution

            worst = 0.0
            for s in _sign_corners(self.matrix.shape[0]):
                sol = min_max_norm_solution(self.matrix, s)
                if sol is None:
                    raise NotSetCoveringError("matrix is not surjective on a corner")
                worst = max(worst, sol[1])
            if worst <= 0:
                raise NotSetCoveringError("degenerate preimage operator")
            return 1.0 / worst
        return _memo(self, "_alpha_f", solve)

    def image(self, x):
        return Orthant(self.matrix @ x)

    def constants(self):
        alpha_f = self.alpha_f()
        gamma = order_metric_gamma(self.space_y.dim, self.space_y.norm, self.space_y.p)
        return MapConstants(alpha=alpha_f / gamma, gamma=gamma,
                            rule="surjection rate of the linear part over the order constant")

    def lipschitz(self):
        return Affine(self.matrix, np.zeros(self.matrix.shape[0])).lipschitz(self.space_x,
                                                                             self.space_y)

    def witness(self, x, rho):
        from ._lp import min_max_norm_solution

        target = -self.alpha_f() * rho * np.ones(self.space_y.dim)
        sol = min_max_norm_solution(self.matrix, target)
        if sol is None:
            raise NotSetCoveringError("lost surjectivity on the witness shift")
        return x + sol[0]


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

    def image(self, x):
        rhs = -(self.cx @ x)
        groups = []
        for row, b in zip(self.cy, rhs):
            if np.all(row == 0.0):
                if b < -1e-12:
                    raise ValueError("point lies outside the domain of the process")
                continue
            groups.append(FormGroup(row.reshape(1, -1), float(b)))
        if not groups:
            raise ValueError("process image is the whole space; not representable")
        return SublevelRegion(tuple(groups))

    def constants(self):
        from .certify import interior_radius

        report = interior_radius(self)
        if report.alpha <= 0:
            raise NotSetCoveringError(
                "process image at the certified witness has no inscribed ball")
        return MapConstants(alpha=report.alpha,
                            rule="inscribed radius of the image of the interior witness")

    def witness(self, x, rho):
        from .certify import interior_radius

        report = interior_radius(self)
        if report.u0 is None:
            raise NotSetCoveringError("process has no interior witness direction")
        return x + rho * report.u0


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

    def image(self, x):
        return translate_set(eval_map(self.base, x), self.g.evaluate(x, self.space_x))

    def images(self, xs):
        base = self.base.images(xs)
        try:
            return base.translate(self.g.evaluate_rows(xs, self.space_x))
        except ValueError:  # g does not fit the spaces: every row raises, as image does
            return super().images(xs)

    def constants(self):
        base = alpha_of(self.base)
        lip = self.g_lipschitz()
        remaining = base.alpha - lip
        if remaining <= 0:
            raise ConstantExhaustedError(
                f"perturbation Lipschitz constant {lip} exhausts base constant {base.alpha}")
        return MapConstants(alpha=remaining, beta=None, gamma=base.gamma,
                            exactness=base.exactness,
                            rule=f"base constant minus perturbation Lipschitz ({base.rule})")

    def lipschitz(self):
        return beta_of(self.base) + self.g_lipschitz()

    def witness(self, x, rho):
        return cover_witness(self.base, x, rho)


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

    def image(self, x):
        return eval_map(self.base, x).affine_image(self.inner_space, self.space_z,
                                                   self.g.matrix, self.g.offset)

    def images(self, xs):
        return self.base.images(xs).affine_image(self.inner_space, self.space_z,
                                                 self.g.matrix, self.g.offset)

    def constants(self):
        base = alpha_of(self.base)
        cov = self.g.covering_constant(self.inner_space, self.space_z)
        return MapConstants(alpha=base.alpha * cov, gamma=base.gamma,
                            exactness=base.exactness,
                            rule=f"base constant times outer covering rate ({base.rule})")

    def lipschitz(self):
        return self.g.lipschitz(self.inner_space, self.space_z) * beta_of(self.base)

    def witness(self, x, rho):
        return cover_witness(self.base, x, rho)


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

    def image(self, x):
        return Ball(self.center.evaluate(x, self.space_x), self.radius_at(x))

    def images(self, xs):
        return Rounds(self.center.evaluate_rows(xs, self.space_x),
                      self.c0 + self.c1 * self.space_x.norms(xs - self.xhat))

    def lipschitz(self):
        return self.center.lipschitz(self.space_x, self.space_y) + self.c1


# ---------------------------------------------------------------------------
# the rules, called through the module


def eval_map(m: MapSpec, x) -> SetRep:
    """Image of x under the mapping, as a closed set representation."""
    return m.image(m.space_x.check_point(x))


def eval_maps(m: MapSpec, xs) -> Family:
    """Images of the rows of a (k, dim) point array, in one call.

    Row i is eval_map(m, xs[i]) bit for bit; a row whose image cannot be
    built is missing (inf distances) instead of raising.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != m.space_x.dim:
        raise DimensionMismatchError(
            f"expected a (k, {m.space_x.dim}) point array, got shape {xs.shape}")
    return m.images(xs)


def alpha_of(m: MapSpec) -> MapConstants:
    """Set-covering constant with provenance; raises for covering-only witnesses.

    Returned constants carry open-interval semantics (scale by a safety
    factor before use).
    """
    return m.constants()


def beta_of(m: MapSpec) -> float:
    """Lipschitz constant of the mapping (excess metric) in the bounded role."""
    return m.lipschitz()


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
    return m.witness(m.space_x.check_point(x), rho)


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
    x = m.space_x.check_point(x)
    image = eval_map(m, x)
    targets = sample_enlargement(m.space_y, image, alpha * rho, n_points, seed)
    probe = targets[:: max(1, n_points // search_targets)]

    def worst_violation(us):  # (k, probe) distances, inf where an image cannot be built
        return eval_maps(m, np.array(us)).dists_from(m.space_y, probe).max(axis=1)

    best_u, _ = ball_search(worst_violation, m.space_x, x, rho, rng_for(seed, 2), n_draws=4,
                            max_evals=max(25, budget // 5))
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

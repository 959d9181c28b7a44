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

import copy
import math
from dataclasses import dataclass

import numpy as np

from ._lp import max_norm_fit, solve_lp
from .geometry import (
    Family,
    FormGroup,
    NormedSpace,
    Orthant,
    Regions,
    Rounds,
    SetRep,
    SublevelRegion,
    DimensionMismatchError,
    boundedness,
    dist_point,  # noqa: F401  (perfbench/test_checks.py checks the tracer rebinds it here)
    excess,
    rng_for,
    _freeze,
    _memo,
    _positive,
    _sample_enlargement,
)
from .search import ball_searches

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
    "image_excesses",
    "alpha_of",
    "beta_of",
    "cover_witness",
    "fallback_witness",
    "fallback_witnesses",
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


class ProcessAnomalyError(RuntimeError):
    """An LP step of the process analysis failed in a way valid cones should not."""


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
        """g along the last axis: a stacked (..., n, 1) product runs each point's gemv."""
        return np.matmul(self.matrix, np.asarray(x, dtype=float)[..., None])[..., 0] + self.offset

    def check_spaces(self, space_in: NormedSpace, space_out: NormedSpace) -> None:
        if self.matrix.shape != (space_out.dim, space_in.dim):
            raise DimensionMismatchError(f"affine matrix of shape {self.matrix.shape} does not "
                                         f"map R^{space_in.dim} to R^{space_out.dim}")

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
        """g along the last axis."""
        return (self.scale * space_in.norms(x))[..., None] * self.direction

    def check_spaces(self, space_in: NormedSpace, space_out: NormedSpace) -> None:
        if self.direction.shape[0] != space_out.dim:
            raise DimensionMismatchError(f"radial direction is not in R^{space_out.dim}")

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
    rule: str = ""

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("set-covering constant must be > 0")


# ---------------------------------------------------------------------------
# map variants


class MapSpec:
    """Base class; concrete variants declare their domain/range spaces.

    Each variant carries its rules: images, constants, lipschitz, witness,
    respond, inverse_distances and shell_center, which eval_maps, alpha_of,
    beta_of, cover_witness and the certificates call on checked arguments.
    A kind has one image rule, over a (k, dim) array of points: eval_map
    is its one-row call.  witness computes along the last axis: a point
    with a float radius, or a (k, dim) stack with (k, 1) radii.  So does
    respond: points x (..., dim_x) with radii r (...) and targets y
    (..., dim_y), broadcast against each other, as check_covering asks it
    for every target of every trial at once.  inverse_distances takes a
    family of test sets, one per point.  A variant without a rule raises
    their error (respond returns None).
    """

    space_x: NormedSpace
    space_y: NormedSpace

    def images(self, xs: np.ndarray) -> Family:
        """The image of each row of a (k, dim) array, as a family of k sets.

        A row whose image cannot be built (a ValueError) is missing from
        the family.  The ball- and sphere-valued kinds return Rounds and
        the sublinear and process kinds Regions, each built for all rows
        at once; the epigraphical kind builds its sets row by row.
        """
        raise TypeError(f"unknown map variant {type(self).__name__}")

    def constants(self) -> MapConstants:
        raise NotSetCoveringError(f"no covering rule for {type(self).__name__}")

    def lipschitz(self) -> float:
        raise LipschitzRuleError(
            f"no Lipschitz rule for {type(self).__name__}; use empirical_lipschitz")

    def witness(self, x: np.ndarray, rho) -> np.ndarray:
        """The cover witness of x at radius rho; of each row of a (k, dim) x at (k, 1) rho."""
        raise WitnessUnavailableError(
            f"no witness rule for {type(self).__name__}: fallback search required")

    def respond(self, x: np.ndarray, r, y: np.ndarray):
        """(u, min over the r-ball at x of dist(y, image(u)), attained at u) along the
        last axis, or None where the kind has no closed form."""
        return None

    def inverse_distances(self, tests: Family, xs: np.ndarray) -> np.ndarray:
        """Distance from xs[i] to {u : tests.row(i) is contained in the image of u}
        for each row; inf where that set is empty."""
        raise NotImplementedError(f"no closed-form inclusion inverse for {type(self).__name__}")

    def shell_center(self) -> np.ndarray:
        """The point c whose distance to every inclusion-inverse image is the
        image's radius: each inverse image is a shell {u : d(u, c) >= t}."""
        raise NotImplementedError("closed-form inverse Hausdorff check needs a dilation")

    def at_rows(self, rows) -> MapSpec:
        """This map narrowed to the given rows of its per-row data, which gives row i of a
        point stack its own map (a BallValued with one c0 per row); a map without such data
        is the same at every row and is itself."""
        return self


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

    def images(self, xs):
        radii = self.a * self.space_x.norms(xs - self.anchor) + self.b
        # a copy of y0 per row: on a few rows np.broadcast_to costs more than the copy
        return Rounds(self.y0[None].repeat(xs.shape[0], axis=0), radii)

    def constants(self):
        return MapConstants(alpha=self.a, beta=self.a, gamma=1.0,
                            rule="radial dilation rate: alpha = a")

    def lipschitz(self):
        return self.a

    def witness(self, x, rho):
        return x + rho * self.space_x.unit(x - self.anchor)

    def inverse_distances(self, tests, xs):
        # the images contain a test set once the radius reaches its outer radius about y0
        r_s = tests.outer_radii(self.space_y, self.y0)
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

    def images(self, xs):
        return Rounds(np.zeros((xs.shape[0], 2)), np.abs(xs[:, 0]), sphere=True)

    def respond(self, x, r, y):
        # the radius nearest |y| within the band of |u| over the r-ball, as Python's
        # max and min pick: the first argument unless the second is strictly beyond it
        y = np.ascontiguousarray(y, dtype=float)
        ny = np.sqrt(np.vecdot(y, y))  # np.linalg.norm of each target
        x0 = np.asarray(x, dtype=float)[..., 0]
        low = np.abs(x0) - r
        lo, hi = np.where(low > 0.0, low, 0.0), np.abs(x0) + r
        rho = np.where(lo > ny, lo, ny)
        rho = np.where(hi < rho, hi, rho)
        sign = np.where(x0 >= 0, 1.0, -1.0)
        u = sign * rho
        u = np.where(np.abs(u - x0) > r, -sign * rho, u)  # the flip fits where the band crosses 0
        return u[..., None], np.abs(ny - rho)

    def inverse_distances(self, tests, xs):
        if not isinstance(tests, Rounds) or tests.sphere:
            raise NotImplementedError("inclusion inverse implemented for ball test sets")
        rho = np.sqrt(np.vecdot(tests.centers, tests.centers))  # np.linalg.norm of each row
        # no sphere contains a solid ball
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

    def images(self, xs):
        return Rounds(xs, np.ones(xs.shape[0]))

    def respond(self, x, r, y):
        # step toward y until its unit ball reaches y, at most r; as Python's max(0.0, t)
        # and min(r, t) pick
        v = np.asarray(y, dtype=float) - x
        d = self.space_x.norms(v)
        step = np.where(d - 1.0 > 0.0, d - 1.0, 0.0)
        step = np.where(step < r, step, r)
        gap = d - r - 1.0
        return x + step[..., None] * self.space_x.unit(v), np.where(gap > 0.0, gap, 0.0)

    def inverse_distances(self, tests, xs):
        if not isinstance(tests, Rounds) or tests.sphere:
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
            worst = 0.0
            for s in _sign_corners(self.matrix.shape[0]):
                res = max_norm_fit(np.eye(self.matrix.shape[1]), a_eq=self.matrix, b_eq=s)
                if res is None:
                    raise NotSetCoveringError("matrix is not surjective on a corner")
                worst = max(worst, float(res.fun))
            if worst <= 0:
                raise NotSetCoveringError("degenerate preimage operator")
            return 1.0 / worst
        return _memo(self, "_alpha_f", solve)

    def images(self, xs):
        return Family.build(lambda i: Orthant(self.matrix @ xs[i]), xs.shape[0])

    def constants(self):
        alpha_f = self.alpha_f()
        gamma = order_metric_gamma(self.space_y.dim, self.space_y.norm, self.space_y.p)
        return MapConstants(alpha=alpha_f / gamma, gamma=gamma,
                            rule="surjection rate of the linear part over the order constant")

    def lipschitz(self):
        return Affine(self.matrix, np.zeros(self.matrix.shape[0])).lipschitz(self.space_x,
                                                                             self.space_y)

    def witness(self, x, rho):
        # a shortest z (max norm) with A z = -alpha_f * 1, one LP kept on the map: by
        # positive homogeneity rho * z is a shortest shift onto -alpha_f * rho * 1
        def solve():
            target = -self.alpha_f() * np.ones(self.space_y.dim)
            res = max_norm_fit(np.eye(self.matrix.shape[1]), a_eq=self.matrix, b_eq=target)
            if res is None:
                raise NotSetCoveringError("lost surjectivity on the witness shift")
            return res.x[:-1]
        return x + rho * _memo(self, "_unit_shift", solve)


@dataclass(frozen=True, eq=False)
class PolyhedralProcess(MapSpec):
    """Graph {(x, y) : Cx x + Cy y <= 0}: a closed polyhedral convex cone.

    Cy needs a nonzero row: with none, every image would be the whole space.
    """

    cx: np.ndarray
    cy: np.ndarray
    space_x: NormedSpace = None
    space_y: NormedSpace = None

    def __post_init__(self):
        cx = np.atleast_2d(np.asarray(self.cx, dtype=float))
        cy = np.atleast_2d(np.asarray(self.cy, dtype=float))
        if cx.shape[0] != cy.shape[0]:
            raise DimensionMismatchError("Cx and Cy must have the same row count")
        if not cy.any():
            raise ValueError("Cy has no nonzero row: every image would be the whole space")
        _freeze(self, "cx", cx)
        _freeze(self, "cy", cy)
        object.__setattr__(self, "space_x", _space_of(self.space_x, cx.shape[1]))
        object.__setattr__(self, "space_y", _space_of(self.space_y, cy.shape[1]))

    def images(self, xs):
        # one region holds the nonzero C_y rows; row i's bounds are -C_x xs[i], each
        # row's own gemv; a zero row bounds nothing, but marks points outside the domain
        b = -np.matmul(self.cx, xs[:, :, None])[:, :, 0]
        zero = ~self.cy.any(axis=1)
        errors = [ValueError("point lies outside the domain of the process") if out else None
                  for out in (b[:, zero] < -1e-12).any(axis=1).tolist()]
        region = _memo(self, "_region", lambda: SublevelRegion(
            tuple(FormGroup(row[None], 0.0) for row in self.cy[~zero])))
        return Regions(region, b[:, ~zero], errors)

    def constants(self):
        report = self._interior()
        if report.alpha <= 0:
            raise NotSetCoveringError(
                "process image at the certified witness has no inscribed ball")
        return MapConstants(alpha=report.alpha,
                            rule="inscribed radius of the image of the interior witness")

    def witness(self, x, rho):
        report = self._interior()
        if report.u0 is None:
            raise NotSetCoveringError("process has no interior witness direction")
        return x + rho * report.u0

    def _interior(self) -> InteriorReport:
        """interior_radius of the process; a cone that is not onto is not set-covering."""
        try:
            return interior_radius(self)
        except ProcessAnomalyError as exc:
            raise NotSetCoveringError(str(exc)) from exc


@dataclass(frozen=True)
class InteriorReport:
    """Inscribed-slack analysis of a polyhedral process at the origin.

    One of two consistent states: no interior (everything zero/absent) or
    a certified witness direction u0 whose image contains a ball of
    radius alpha around the origin.
    """

    t_star: float
    u0: np.ndarray | None
    alpha: float
    y_interior: np.ndarray | None = None

    def __post_init__(self):
        present = self.u0 is not None
        if present != (self.t_star > 0) or present != (self.alpha > 0):
            raise ValueError("inconsistent interior report")
        for name in ("u0", "y_interior"):
            if getattr(self, name) is not None:
                _freeze(self, name, getattr(self, name))

    def to_jsonable(self) -> dict:
        return {
            "t_star": self.t_star,
            "alpha": self.alpha,
            "u0": None if self.u0 is None else self.u0.tolist(),
            "y_interior": None if self.y_interior is None else self.y_interior.tolist(),
        }


def interior_radius(proc: PolyhedralProcess) -> InteriorReport:
    """Classify a polyhedral process by the interior of its image at zero.

    Step 1 maximizes the constraint slack t of Cy y + t <= 0 over the
    unit box (cap t <= 1; positive homogeneity makes any positive slack
    scalable).  If t* > 0, step 2 takes a min-norm u solving
    Cx u + Cy (-y_hat) <= 0, normalizes it into the unit ball, and
    reports the inscribed radius of the image of u at the origin.

    The analysis runs once per process; later calls return the kept report.
    Raises ProcessAnomalyError for a cone that is not onto.
    """
    return _memo(proc, "_interior_report", lambda: _analyse_interior(proc))


def _analyse_interior(proc: PolyhedralProcess) -> InteriorReport:
    cx, cy, m_dim = proc.cx, proc.cy, proc.space_y.dim
    active = cy.any(axis=1)  # the rows involving the range variable
    # step 1: max t  s.t.  cy_i y + t <= 0 (active rows), |y| <= 1, t <= 1
    c = np.zeros(m_dim + 1)
    c[-1] = -1.0
    rows = np.hstack([cy[active], np.ones((np.count_nonzero(active), 1))])
    res = solve_lp(c, a_ub=rows, b_ub=np.zeros(rows.shape[0]),
                   bounds=[(-1.0, 1.0)] * m_dim + [(None, 1.0)])
    if res is None:
        raise ProcessAnomalyError("interior slack LP infeasible for a nonempty cone")
    t_star = float(res.x[-1])
    if t_star <= 1e-9:
        return InteriorReport(t_star=0.0, u0=None, alpha=0.0)
    y_hat = np.asarray(res.x[:m_dim], dtype=float)
    # step 2: min-norm u with Cx u <= Cy y_hat
    sol = max_norm_fit(np.eye(cx.shape[1]), a_ub=cx, b_ub=cy @ y_hat)
    if sol is None:
        raise ProcessAnomalyError(
            "interior point found but no reachable witness direction: "
            "the process is not onto, hence not set-covering")
    u = sol.x[:-1]
    u0 = u / max(1.0, proc.space_x.norm_of(u))
    slack = -np.vecdot(cx, u0)  # each row's -cx_i . u0, a one-row dot
    if (slack[~active] < -1e-12).any():  # u0 leaves the domain
        return InteriorReport(t_star=0.0, u0=None, alpha=0.0)
    alpha = float((slack[active] / proc.space_y.dual_norms(cy[active])).min())
    if alpha <= 0:
        return InteriorReport(t_star=0.0, u0=None, alpha=0.0)
    return InteriorReport(t_star=t_star, u0=u0, alpha=alpha, y_interior=y_hat)


@dataclass(frozen=True, eq=False)
class Sum(MapSpec):
    """x -> base(x) + g(x): additive Lipschitz perturbation of a set-covering map."""

    base: MapSpec
    g: CatalogFn

    def __post_init__(self):
        object.__setattr__(self, "space_x", self.base.space_x)
        object.__setattr__(self, "space_y", self.base.space_y)
        self.g.check_spaces(self.space_x, self.space_y)

    def g_lipschitz(self) -> float:
        return self.g.lipschitz(self.space_x, self.space_y)

    def images(self, xs):
        return self.base.images(xs).translate(self.g.evaluate(xs, self.space_x))

    def constants(self):
        base = alpha_of(self.base)
        lip = self.g_lipschitz()
        remaining = base.alpha - lip
        if remaining <= 0:
            raise ConstantExhaustedError(
                f"perturbation Lipschitz constant {lip} exhausts base constant {base.alpha}")
        return MapConstants(alpha=remaining, beta=None, gamma=base.gamma,
                            rule=f"base constant minus perturbation Lipschitz ({base.rule})")

    def lipschitz(self):
        return beta_of(self.base) + self.g_lipschitz()

    def witness(self, x, rho):
        return self.base.witness(x, rho)


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
        self.g.check_spaces(self.inner_space, self.space_z)

    @property
    def inner_space(self) -> NormedSpace:
        return self.base.space_y

    def images(self, xs):
        return self.base.images(xs).affine_image(self.inner_space, self.space_z,
                                                 self.g.matrix, self.g.offset)

    def constants(self):
        base = alpha_of(self.base)
        cov = self.g.covering_constant(self.inner_space, self.space_z)
        return MapConstants(alpha=base.alpha * cov, gamma=base.gamma,
                            rule=f"base constant times outer covering rate ({base.rule})")

    def lipschitz(self):
        return self.g.lipschitz(self.inner_space, self.space_z) * beta_of(self.base)

    def witness(self, x, rho):
        return self.base.witness(x, rho)


@dataclass(frozen=True, eq=False)
class BallValued(MapSpec):
    """x -> ball(center(x), c0 + c1*||x - xhat||): the bounded Lipschitz role.

    c0 may be a (k,) array, one per row of a k-point stack: row i's image is then that of
    the map with c0[i], bit for bit (a parameter column of ball radii, say)."""

    center: CatalogFn
    c0: float | np.ndarray
    c1: float = 0.0
    xhat: np.ndarray | None = None
    space_x: NormedSpace = None
    space_y: NormedSpace = None

    def __post_init__(self):
        if np.any(np.less_equal(self.c0, 0)):
            raise ValueError("c0 must be > 0")
        if self.c1 < 0:
            raise ValueError("c1 must be >= 0")
        if self.space_x is None or self.space_y is None:
            raise ValueError("BallValued needs explicit domain and range spaces")
        xhat = np.zeros(self.space_x.dim) if self.xhat is None else np.asarray(self.xhat, dtype=float)
        _freeze(self, "xhat", xhat)
        self.center.check_spaces(self.space_x, self.space_y)

    def images(self, xs):
        return Rounds(self.center.evaluate(xs, self.space_x),
                      self.c0 + self.c1 * self.space_x.norms(xs - self.xhat))

    def lipschitz(self):
        return self.center.lipschitz(self.space_x, self.space_y) + self.c1

    def at_rows(self, rows):
        if np.ndim(self.c0) == 0:
            return self
        out = copy.copy(self)  # the fields were checked when the whole column was
        object.__setattr__(out, "c0", self.c0[rows])
        return out


# ---------------------------------------------------------------------------
# the rules, called through the module


def eval_map(m: MapSpec, x) -> SetRep:
    """Image of x under the mapping, as a closed set representation: one row of eval_maps."""
    return eval_maps(m, m.space_x.check_point(x)[None]).row(0)


def eval_maps(m: MapSpec, xs) -> Family:
    """Images of the rows of a (k, dim) point array, in one call of the kind's
    images rule.

    eval_map(m, x) is the one-row call; a row whose image cannot be built
    is missing (inf distances) instead of raising.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != m.space_x.dim:
        raise DimensionMismatchError(
            f"expected a (k, {m.space_x.dim}) point array, got shape {xs.shape}")
    return m.images(xs)


def image_excesses(phi: MapSpec, psi: MapSpec, xs) -> np.ndarray:
    """excess(phi(x), psi(x)) at each row of a (k, dim) array, the residual of the
    inclusion phi(x) in psi(x): one closed form for all rows where both maps have
    ball or sphere images, else row by row."""
    return eval_maps(phi, xs).excesses(phi.space_y, eval_maps(psi, xs))


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
    """The searched witness over the rho-ball at x: one row of fallback_witnesses."""
    return fallback_witnesses(m, m.space_x.check_point(x)[None], [rho], alpha, n_points,
                              [seed], budget, search_targets)[0]


def fallback_witnesses(m: MapSpec, xs: np.ndarray, rhos, alpha: float, n_points: int, seeds,
                       budget: int, search_targets: int,
                       images: Family | None = None) -> list[CoverageRecord]:
    """Budgeted random + local search for a witness over each row's rhos[i]-ball, from
    seeds[i], the searches of every row in one lockstep call.

    Each search minimizes the worst violation over a subset of its row's
    enlargement sample; the record re-scores the winner on the whole sample,
    so it never claims more than the sampled margins show.  images, when
    given, is eval_maps(m, xs).built(), which the caller already holds.
    """
    rhos = np.asarray(rhos, dtype=float)
    if not np.all(rhos > 0):
        raise ValueError("witness radius rho must be > 0")
    if images is None:
        images = eval_maps(m, xs).built()
    targets = _sample_enlargement(m.space_y, images, alpha * rhos, n_points,
                                  seeds, lambda i, stream: rng_for(seeds[i], stream))
    found = ball_searches(_farthest(m, targets[:, :: max(1, n_points // search_targets)]),
                          m.space_x, xs, rhos, [rng_for(seed, 2) for seed in seeds], 4,
                          max(25, budget // 5))
    us = np.array([u for u, _ in found]).reshape(xs.shape)
    margins = eval_maps(m, us).built().row_dists(m.space_y, targets).value
    covered = np.count_nonzero(margins <= 1e-9 * (1.0 + alpha * rhos)[:, None], axis=1)
    return [CoverageRecord(u, float(row.max()), int(c) / n_points, n_points, seed)
            for u, row, c, seed in zip(us, margins, covered, seeds)]


def _farthest(m: MapSpec, probes: np.ndarray):
    """The witness searches' objective f(us, balls): the largest distance from the probe
    points probes[balls[i]] to F(us[i]), inf where F(u) cannot be built."""
    return lambda us, balls: eval_maps(m, np.reshape(us, (len(us), m.space_x.dim))).row_dists(
        m.space_y, probes[balls]).value.max(axis=1)


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

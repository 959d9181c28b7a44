"""Batched map images: every batched rule against the scalar rule it replaced, by float hex.

Each map kind has one image rule, `images`, called through `eval_maps`;
`eval_map` is its one-row call.  Likewise the inclusion residual
(`InclusionInstance.residuals`, `residual` its one-row call), the
penalty (`penalty_values`, `penalty_value` its one-row call), the
ball and sphere excesses (`Rounds.excesses`, which the scalar `excess`
of such a pair calls with one row), the inclusion inverses, the catalog
functions and the objectives.  Each is checked on one point and on a
stack against the scalar twin it replaced, kept here as a reference
(`old_image`, `old_excess`, `old_residual`, `old_penalty_value`, ...).
The certificate and witness callers that switched to the batch are
checked against the scalar loops they replaced, kept here as references.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import setcover_kit as sk
from setcover_kit.certify import _draw_trials, _scale_tol
from setcover_kit.geometry import outer_radius, rng_for
from setcover_kit.penalty import _feasible_grid_minimum, _multi_start
from test_search import ref_ball_search, ref_pattern_search

NORMS = (("euclidean", None), ("max", None), ("p", 3.0))
KINDS = ("dilation", "sphere_scale", "unit_ball_translate", "ball_valued", "sum", "composed",
         "sublinear_system", "polyhedral_process", "epigraphical")


def hexes(values) -> list[str]:
    return [float(v).hex() for v in np.asarray(values, dtype=float).reshape(-1)]


def space(d, norm):
    return sk.NormedSpace(d, norm[0], norm[1])


def norm_preserving(rng, d, norm, sound: bool) -> np.ndarray:
    """A matrix keeping balls of this norm balls, or (sound False) a rotation-like one that does not."""
    lam = float(rng.uniform(0.5, 2.0))
    if norm[0] == "euclidean" or not sound:
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        return lam * q
    return lam * np.eye(d)[rng.permutation(d)] * rng.choice([-1.0, 1.0], size=d)


def make_map(kind, dx, dy, norm, rng):
    sx, sy = space(dx, norm), space(dy, norm)
    if kind == "dilation":
        return sk.Dilation(rng.standard_normal(dy), float(rng.uniform(0.5, 2.0)),
                           float(rng.uniform(0.0, 1.0)), rng.standard_normal(dx), sx, sy)
    if kind == "sphere_scale":
        return sk.SphereScale(space(1, norm), space(2, norm))
    if kind == "unit_ball_translate":
        return sk.UnitBallTranslate(dx, sx, sx)
    if kind == "ball_valued":
        center = sk.Affine(rng.standard_normal((dy, dx)), rng.standard_normal(dy)) \
            if rng.uniform() < 0.6 else sk.ScaledNormRadial(float(rng.normal()),
                                                            rng.standard_normal(dy))
        return sk.BallValued(center, float(rng.uniform(0.1, 2.0)), float(rng.uniform(0.0, 1.0)),
                             rng.standard_normal(dx), sx, sy)
    if kind == "sum":
        base = make_map(("dilation", "ball_valued", "sublinear_system")[rng.integers(3)],
                        dx, dy, norm, rng)
        bx = base.space_x.dim
        return sk.Sum(base, sk.Affine(rng.standard_normal((dy, bx)), rng.standard_normal(dy)))
    if kind == "composed":
        base = make_map(("dilation", "unit_ball_translate", "sphere_scale")[rng.integers(3)],
                        dx, dy, norm, rng)
        inner = base.space_y
        # a norm pair or matrix that leaves the catalog makes every row missing
        other = ("max", None) if norm[0] == "euclidean" else ("euclidean", None)
        z_norm = norm if rng.uniform() < 0.7 else other
        mat = norm_preserving(rng, inner.dim, norm, sound=rng.uniform() < 0.7)
        return sk.Composed(sk.Affine(mat, rng.standard_normal(inner.dim)), base,
                           space(inner.dim, z_norm))
    if kind == "sublinear_system":
        groups = tuple(rng.standard_normal((int(rng.integers(1, 3)), dy)) for _ in range(dx))
        return sk.SublinearSystem(groups, sy)
    if kind == "polyhedral_process":
        rows = int(rng.integers(1, 4))
        cy = rng.standard_normal((rows, dy))
        zero = rng.uniform(size=rows) < 0.3  # zero rows: points outside the domain raise
        cy[zero & ~zero.all()] = 0.0  # but not every row: the kind needs a nonzero C_y row
        return sk.PolyhedralProcess(rng.standard_normal((rows, dx)), cy, sx, sy)
    matrix = rng.standard_normal((dy, max(dx, dy)))
    matrix[:, :dy] += 10.0 * np.eye(dy)  # full row rank
    return sk.Epigraphical(matrix)


def same_set(a, b):
    assert type(a) is type(b)
    if isinstance(a, (sk.Ball, sk.Sphere)):
        assert hexes(a.center) == hexes(b.center) and hexes(a.radius) == hexes(b.radius)
    elif isinstance(a, sk.SublevelRegion):
        assert [hexes(v) for v in a.forms()] == [hexes(v) for v in b.forms()]
    elif isinstance(a, sk.Orthant):
        assert hexes(a.apex) == hexes(b.apex)
    else:
        raise AssertionError(type(a).__name__)


def old_image(m, x):
    """The scalar image rule of each map kind, as eval_map ran it before it became
    one row of eval_maps."""
    x = m.space_x.check_point(x)
    if isinstance(m, sk.Dilation):
        return sk.Ball(m.y0, m.a * m.space_x.dist(x, m.anchor) + m.b)
    if isinstance(m, sk.SphereScale):
        return sk.Sphere(np.zeros(2), abs(float(x[0])))
    if isinstance(m, sk.UnitBallTranslate):
        return sk.Ball(x, 1.0)
    if isinstance(m, sk.SublinearSystem):
        return sk.SublevelRegion(tuple(sk.FormGroup(g, abs(float(xi)))
                                       for g, xi in zip(m.groups, x)))
    if isinstance(m, sk.Epigraphical):
        return sk.Orthant(m.matrix @ x)
    if isinstance(m, sk.PolyhedralProcess):
        groups = []
        for row, b in zip(m.cy, -(m.cx @ x)):
            if np.all(row == 0.0):
                if b < -1e-12:
                    raise ValueError("point lies outside the domain of the process")
                continue
            groups.append(sk.FormGroup(row.reshape(1, -1), float(b)))
        if not groups:
            raise ValueError("process image is the whole space; not representable")
        return sk.SublevelRegion(tuple(groups))
    if isinstance(m, sk.Sum):
        return sk.translate_set(old_image(m.base, x), m.g.evaluate(x, m.space_x))
    if isinstance(m, sk.Composed):
        return old_image(m.base, x).affine_image(m.inner_space, m.space_z, m.g.matrix,
                                                 m.g.offset)
    if isinstance(m, sk.BallValued):
        return sk.Ball(m.center.evaluate(x, m.space_x), m.c0 + m.c1 * m.space_x.dist(x, m.xhat))
    raise TypeError(f"unknown map variant {type(m).__name__}")


def old_excess(space, a, b) -> float:
    """excess as it was before its ball and sphere closed forms became one row of
    Rounds.excesses: those forms written out, every other pair by sk.excess."""
    if isinstance(a, (sk.Ball, sk.Sphere)) and isinstance(b, sk.Ball):
        return max(0.0, space.dist(a.center, b.center) + a.radius - b.radius)
    if isinstance(a, (sk.Ball, sk.Sphere)) and isinstance(b, sk.Sphere):
        # distances from b's center over a form a band; |t - r_b| peaks at its ends
        m = space.dist(a.center, b.center)
        hi_end = m + a.radius
        lo_end = max(0.0, m - a.radius) if isinstance(a, sk.Ball) else abs(m - a.radius)
        return max(abs(hi_end - b.radius), abs(lo_end - b.radius))
    return float(sk.excess(space, a, b))


def old_residual(inst, x) -> float:
    """InclusionInstance.residual before it became one row of residuals."""
    return old_excess(inst.space_y, old_image(inst.phi, x), old_image(inst.psi, x))


def old_penalty_value(prob, x) -> float:
    """penalty_value before it became one row of penalty_values."""
    resid = old_residual(prob.inst, x)
    if math.isinf(resid):
        return math.inf
    return prob.objective_at(x) + prob.l * resid


def scalar_image(m, x):
    try:
        return old_image(m, x)
    except ValueError:
        return None


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(KINDS), norm=st.sampled_from(NORMS), dx=st.integers(1, 4),
       dy=st.integers(1, 4), k=st.integers(1, 5), n=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_images_equal_their_scalar_calls(kind, norm, dx, dy, k, n, seed):
    rng = np.random.default_rng(seed)
    m = make_map(kind, dx, dy, norm, rng)
    xs = 2.0 * rng.standard_normal((k, m.space_x.dim))
    xs[rng.uniform(size=xs.shape) < 0.1] = 0.0
    ys = 2.0 * rng.standard_normal((n, m.space_y.dim))
    family = sk.eval_maps(m, xs)
    d = family.row_dists(m.space_y, np.broadcast_to(ys, (k, n, m.space_y.dim)))
    dist_rows = d.value
    assert len(family) == k and dist_rows.shape == (k, n)
    for i, x in enumerate(xs):
        image = scalar_image(m, x)
        if image is None:  # a missing row: inf exact distances, and row(i) raises its error
            assert np.all(np.isinf(dist_rows[i])) and not d.error[i].any()
            assert not d.approximate[i].any() and d.note[i * n:(i + 1) * n] == ("",) * n
            with pytest.raises(ValueError) as want:
                old_image(m, x)
            with pytest.raises(ValueError, match=re.escape(str(want.value))):
                family.row(i)
            with pytest.raises(ValueError, match=re.escape(str(want.value))):
                sk.eval_map(m, x)
            continue
        same_set(family.row(i), image)
        same_set(sk.eval_map(m, x), image)
        assert hexes(dist_rows[i]) == hexes(sk.dists(m.space_y, ys, image).value)


def old_evaluate(g, x, space_in):
    """The scalar evaluate of each catalog function before evaluate took stacks."""
    if isinstance(g, sk.Affine):
        return g.matrix @ np.asarray(x, dtype=float) + g.offset
    return g.scale * space_in.norm_of(x) * g.direction


def assert_catalog_functions_equal_their_old_rule(gs, sp, xs):
    for g in gs:
        stack = g.evaluate(xs, sp)
        assert stack.shape == (xs.shape[0], g.evaluate(xs[0], sp).shape[0])
        for i, x in enumerate(xs):
            old = hexes(old_evaluate(g, x, sp))
            assert hexes(g.evaluate(x, sp)) == old and hexes(stack[i]) == old


@pytest.mark.parametrize("d", [3, 5, 8])
def test_affine_rows_each_run_the_one_point_product(d):
    # in these dimensions a plain xs @ M.T rounds differently from M @ x on some rows
    rng = np.random.default_rng(d)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    eu = sk.NormedSpace(d)
    maps = [sk.BallValued(sk.Affine(rng.standard_normal((d, d)), rng.standard_normal(d)),
                          c0=1.0, c1=0.5, space_x=eu, space_y=eu),
            sk.Composed(sk.Affine(1.5 * q, rng.standard_normal(d)),
                        sk.UnitBallTranslate(d, eu, eu)),
            sk.Sum(sk.UnitBallTranslate(d, eu, eu), sk.Affine(q, np.zeros(d)))]
    xs = rng.standard_normal((64, d))
    for m in maps:
        family = sk.eval_maps(m, xs)
        for i, x in enumerate(xs):
            same_set(family.row(i), old_image(m, x))
            same_set(sk.eval_map(m, x), old_image(m, x))
    assert_catalog_functions_equal_their_old_rule(
        [sk.Affine(rng.standard_normal((d, d)), rng.standard_normal(d)), sk.Affine(q, np.zeros(d)),
         sk.ScaledNormRadial(float(rng.normal()), rng.standard_normal(d))], eu, xs)


@settings(max_examples=150, deadline=None)
@given(norm=st.sampled_from(NORMS), dx=st.sampled_from((1, 2, 3, 5, 8)),
       dy=st.sampled_from((1, 2, 3, 5, 8)), k=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_catalog_functions_equal_their_deleted_scalar_rule(norm, dx, dy, k, seed):
    rng = np.random.default_rng(seed)
    xs = 2.0 * rng.standard_normal((k, dx))
    xs[rng.uniform(size=xs.shape) < 0.1] = 0.0
    gs = [sk.Affine(rng.standard_normal((dy, dx)), rng.standard_normal(dy)),
          sk.ScaledNormRadial(float(rng.normal()), rng.standard_normal(dy))]
    assert_catalog_functions_equal_their_old_rule(gs, space(dx, norm), xs)


def test_composite_maps_refuse_an_outer_function_that_does_not_fit():
    dil = sk.Dilation(np.zeros(2), 1.0)  # R^1 -> R^2
    for shape in ((3, 1), (1, 3), (2, 2), (2, 3)):
        g = sk.Affine(np.ones(shape), np.zeros(shape[0]))
        with pytest.raises(sk.DimensionMismatchError):
            sk.Sum(dil, g)
        if shape[1] != 2:  # Composed maps R^2 on: only its columns must fit
            with pytest.raises(sk.DimensionMismatchError):
                sk.Composed(g, dil)
    with pytest.raises(sk.DimensionMismatchError):
        sk.Sum(dil, sk.ScaledNormRadial(1.0, np.ones(3)))
    fits = sk.Sum(dil, sk.Affine(np.ones((2, 1)), np.zeros(2)))
    assert hexes(sk.eval_map(fits, [1.0]).center) == hexes([1.0, 1.0])
    assert sk.Composed(sk.Affine(np.ones((3, 2)), np.zeros(3)), dil).space_y.dim == 3


def rounds(rng, k, d, sphere, scale=2.0):
    radii = np.abs(scale * rng.standard_normal(k))
    radii[rng.uniform(size=k) < 0.2] = 0.0
    radii[rng.uniform(size=k) < 0.2] = 1.0  # the unit ball translate's edge case
    return sk.Rounds(scale * rng.standard_normal((k, d)), radii, sphere)


@settings(max_examples=150, deadline=None)
@given(norm=st.sampled_from(NORMS), d=st.integers(1, 4), k=st.integers(1, 6),
       a_sphere=st.booleans(), b_sphere=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_round_excesses_equal_the_scalar_excess(norm, d, k, a_sphere, b_sphere, seed):
    rng = np.random.default_rng(seed)
    sp = space(d, norm)
    a, b = rounds(rng, k, d, a_sphere), rounds(rng, k, d, b_sphere)
    if rng.uniform() < 0.3:  # coinciding centers: the band's lower end at zero
        b = sk.Rounds(a.centers.copy(), b.radii, b_sphere)
    scalar = [old_excess(sp, a.row(i), b.row(i)) for i in range(k)]
    assert hexes(a.excesses(sp, b)) == hexes(scalar)
    assert hexes([sk.excess(sp, a.row(i), b.row(i)) for i in range(k)]) == hexes(scalar)
    # against a family of the same sets held one by one: the per-row rule
    assert hexes(sk.Family([a.row(i) for i in range(k)]).excesses(sp, b)) == hexes(scalar)


@settings(max_examples=150, deadline=None)
@given(norm=st.sampled_from(NORMS), d=st.integers(1, 4), k=st.integers(1, 6),
       kind=st.sampled_from(("dilation", "sphere_scale", "unit_ball_translate")),
       seed=st.integers(0, 2**32 - 1))
def test_batched_inverse_distances_equal_the_scalar_rule(norm, d, k, kind, seed):
    rng = np.random.default_rng(seed)
    m = make_map(kind, d, d, norm, rng)
    xs = 2.0 * rng.standard_normal((k, m.space_x.dim))
    for sphere in (False, True):  # some radii above 1, some 0
        tests = rounds(rng, k, m.space_y.dim, sphere, scale=0.8)
        if sphere and kind != "dilation":  # these rules take ball test sets only
            with pytest.raises(NotImplementedError):
                m.inverse_distances(tests, xs)
            with pytest.raises(NotImplementedError):
                sk.inverse_distance(m, tests.row(0), xs[0])
            with pytest.raises(NotImplementedError):
                old_inverse_distance(m, tests.row(0), xs[0])
            continue
        old = hexes([old_inverse_distance(m, tests.row(i), x) for i, x in enumerate(xs)])
        assert hexes(m.inverse_distances(tests, xs)) == old
        assert hexes([sk.inverse_distance(m, tests.row(i), x) for i, x in enumerate(xs)]) == old


def other_test_sets(rng, d, k):
    """k test sets that are not balls: orthants, boxes and enlargements of either."""
    out = []
    for _ in range(k):
        lo = 2.0 * rng.standard_normal(d)
        box = sk.Box(lo, lo + np.abs(rng.standard_normal(d)))
        pick = rng.integers(4)
        if pick == 0:
            out.append(sk.Orthant(lo))
        elif pick == 1:
            out.append(box)
        else:
            base = box if pick == 2 else sk.Ball(lo, float(rng.uniform(0.0, 1.0)))
            out.append(sk.EnlargedSet(base, float(rng.uniform(0.0, 1.0))))
    return out


@settings(max_examples=100, deadline=None)
@given(norm=st.sampled_from(NORMS), d=st.integers(1, 4), k=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1))
def test_dilation_inverse_over_other_test_sets_equals_the_scalar_rule(norm, d, k, seed):
    rng = np.random.default_rng(seed)
    m = make_map("dilation", d, d, norm, rng)
    xs = 2.0 * rng.standard_normal((k, d))
    xs[0] = m.anchor
    sets = other_test_sets(rng, d, k)
    old = hexes([old_inverse_distance(m, s, x) for s, x in zip(sets, xs)])
    assert hexes(m.inverse_distances(sk.Family(sets), xs)) == old
    assert hexes([sk.inverse_distance(m, s, x) for s, x in zip(sets, xs)]) == old
    for other in ("sphere_scale", "unit_ball_translate"):  # balls only
        with pytest.raises(NotImplementedError):
            make_map(other, 1, 2, norm, rng).inverse_distances(sk.Family(sets), xs)


def old_value(obj, space, x):
    """Each objective's scalar value rule, before values took points."""
    if isinstance(obj, sk.NormToPoint):
        return space.norm_of(x - obj.target)
    if isinstance(obj, sk.Linear):
        return float(obj.c @ x)
    if isinstance(obj, sk.AbsCoord):
        return abs(float(x[obj.i]))
    return sum(w * old_value(o, space, x) for w, o in obj.terms)


def random_objective(rng, d, depth=0):
    pick = int(rng.integers(4 if depth < 2 else 3))
    if pick == 0:
        return sk.AbsCoord(int(rng.integers(d)))
    if pick == 1:
        return sk.NormToPoint(rng.standard_normal(d))
    if pick == 2:
        return sk.Linear(rng.standard_normal(d))
    return sk.WeightedSum(tuple((float(rng.uniform(0.0, 3.0)), random_objective(rng, d, depth + 1))
                                for _ in range(int(rng.integers(0, 4)))))


@settings(max_examples=200, deadline=None)
@given(norm=st.sampled_from(NORMS), d=st.integers(1, 8), k=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1))
def test_objective_values_equal_the_deleted_scalar_value(norm, d, k, seed):
    rng = np.random.default_rng(seed)
    sp = space(d, norm)
    xs = 2.0 * rng.standard_normal((k, d))
    xs[rng.uniform(size=xs.shape) < 0.1] = 0.0
    for obj in (random_objective(rng, d), sk.Linear(rng.standard_normal(d)),
                sk.WeightedSum(((0.5, sk.Linear(rng.standard_normal(d))),
                                (2.0, sk.NormToPoint(np.zeros(d)))))):
        old = hexes([old_value(obj, sp, x) for x in xs])
        assert hexes(obj.values(sp, xs)) == old
        assert hexes([sk.objective_value(obj, sp, x) for x in xs]) == old
        assert hexes([obj.values(sp, x) for x in xs]) == old


OBJECTIVES = {
    "abs_coord": lambda rng, d: sk.AbsCoord(int(rng.integers(d))),
    "norm_to_point": lambda rng, d: sk.NormToPoint(rng.standard_normal(d)),
    "linear": lambda rng, d: sk.Linear(rng.standard_normal(d)),
    "weighted_sum": lambda rng, d: sk.WeightedSum(((0.5, sk.AbsCoord(0)),
                                                   (2.0, sk.NormToPoint(np.zeros(d))))),
}


@settings(max_examples=100, deadline=None)
@given(norm=st.sampled_from(NORMS), d=st.integers(1, 4), k=st.integers(1, 3),
       psi_kind=st.sampled_from(("dilation", "sum", "composed", "epigraphical",
                                 "polyhedral_process")),
       objective=st.sampled_from(sorted(OBJECTIVES)), seed=st.integers(0, 2**32 - 1))
def test_penalty_values_equal_penalty_value(norm, d, k, psi_kind, objective, seed):
    rng = np.random.default_rng(seed)
    psi = make_map(psi_kind, d, d, norm, rng)
    d = psi.space_x.dim
    phi = make_map("ball_valued", d, psi.space_y.dim, norm, rng)
    inst = sk.InclusionInstance(psi=psi, phi=phi, alpha=1.0, beta=0.5)
    prob = sk.PenaltyProblem(OBJECTIVES[objective](rng, d), inst, float(rng.uniform(0.0, 3.0)))
    xs = 2.0 * rng.standard_normal((k, d))
    try:
        scalar = [old_penalty_value(prob, x) for x in xs]
    except ValueError as exc:  # an image that cannot be built raises in each
        with pytest.raises(type(exc)):
            sk.penalty_values(prob, xs)
        with pytest.raises(type(exc)):
            [sk.penalty_value(prob, x) for x in xs]
        return
    assert hexes(sk.penalty_values(prob, xs)) == hexes(scalar)
    assert hexes([sk.penalty_value(prob, x) for x in xs]) == hexes(scalar)
    residuals = hexes([old_residual(inst, x) for x in xs])
    assert hexes(inst.residuals(xs)) == residuals
    assert hexes([inst.residual(x) for x in xs]) == residuals


# ---------------------------------------------------------------------------
# the callers against the scalar loops they replaced


def violations_hex(cert):
    return [(v.trial, hexes(v.x), hexes(v.r), None if v.point is None else hexes(v.point),
             hexes(v.margin), v.kind) for v in cert.violations]


def ref_verify_exactness(prob, x_bar, radius, grid_n, tol=1e-9):
    space = prob.space
    x_bar = space.check_point(x_bar)
    ref = old_penalty_value(prob, x_bar)
    violations, n_grid = [], 0
    axes = [np.linspace(x_bar[i] - radius, x_bar[i] + radius, grid_n) for i in range(space.dim)]
    pts = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    for pt in pts:
        if space.dist(pt, x_bar) > radius * (1.0 + 1e-12):
            continue
        n_grid += 1
        val = old_penalty_value(prob, pt)
        if ref > val + tol:
            violations.append(sk.Violation(n_grid, tuple(x_bar), radius, tuple(pt), ref - val))
    violations.sort(key=lambda v: (-v.margin, v.point))
    return max(n_grid, 1), violations


@pytest.mark.parametrize("l, radius, d, forced", [(2.1, 1.0, 1, False), (1.0, 2.5, 1, True),
                                                  (0.4, 1.5, 2, True), (3.0, 0.7, 2, False)])
def test_verify_exactness_equals_the_scalar_loop(l, radius, d, forced):
    # psi(x) = ball(0, |x|) and phi(x) = ball(0, 1 + |x|/2): the penalty of |x| is
    # exact at |x| = 2 above l = 2 and falsified below
    psi = sk.Dilation(y0=np.zeros(2), a=1.0, anchor=np.zeros(d), space_x=sk.NormedSpace(d),
                      space_y=sk.NormedSpace(2))
    phi = sk.BallValued(sk.Affine(np.zeros((2, d)), np.zeros(2)), c0=1.0, c1=0.5,
                        space_x=sk.NormedSpace(d), space_y=sk.NormedSpace(2))
    prob = sk.PenaltyProblem(sk.NormToPoint(np.zeros(d)), sk.InclusionInstance(psi=psi, phi=phi),
                             l)
    x_bar = 2.0 * np.eye(1, d)[0]
    cert = sk.verify_exactness(prob, x_bar, radius, grid_n=41)
    trials, violations = ref_verify_exactness(prob, x_bar, radius, grid_n=41)
    assert (cert.verdict == "falsified") is forced
    assert cert.trials == trials
    assert violations_hex(cert) == [(v.trial, hexes(v.x), hexes(v.r), hexes(v.point),
                                     hexes(v.margin), v.kind) for v in violations]


def test_feasible_grid_minimum_and_multi_start_equal_the_scalar_loops(t1_problem):
    prob = t1_problem(2.5)
    pts = np.linspace(0.5 - 4.0, 0.5 + 4.0, 301)
    feasible = [prob.objective_at([p]) for p in pts if old_residual(prob.inst, [p]) <= 1e-6]
    assert _feasible_grid_minimum(prob, np.array([0.5]), 4.0, 301, 1e-6) == min(feasible)
    assert _feasible_grid_minimum(prob, np.array([0.0]), 0.5, 11, 1e-6) is None
    runs = _multi_start(prob, [0.3], 6, seed=5)
    starts = [np.array([0.3])] + [0.3 + rng_for(5, k).uniform(-3.0, 3.0, size=1)
                                  for k in range(1, 6)]
    solo = sorted((ref_minimize_penalty(prob, s) for s in starts),
                  key=lambda res: (res[1], tuple(res[0])))
    assert [(hexes(r.x), hexes(r.value), r.trace.to_jsonable()) for r in runs] == \
        [(hexes(x), hexes(value), trace.to_jsonable()) for x, value, trace in solo]


def ref_minimize_penalty(prob, x0):
    """minimize_penalty before each poll round became one penalty_values call: a
    one-start pattern search of the scalar penalty."""
    return ref_pattern_search(lambda u: old_penalty_value(prob, u), prob.space.check_point(x0),
                              initial_step=1.0, step_floor=1e-7, max_evals=200_000)


@pytest.mark.parametrize("l, x0", [(2.5, [0.3]), (0.5, [-1.7]), (4.0, [3.2])])
def test_minimize_penalty_equals_the_scalar_search(t1_problem, l, x0):
    prob = t1_problem(l)
    res = sk.minimize_penalty(prob, x0)
    x, value, trace = ref_minimize_penalty(prob, x0)
    assert (hexes(res.x), hexes(res.value), res.trace.to_jsonable()) == \
        (hexes(x), hexes(value), trace.to_jsonable())


def old_inverse_distance(m, s, x):
    """The scalar inclusion-inverse rule of each kind, before inverse_distances took
    families of test sets."""
    if isinstance(m, sk.Dilation):
        # the images contain s once the radius reaches s's outer radius about y0
        r_s = float(outer_radius(m.space_y, s, m.y0))
        if math.isinf(r_s):
            return math.inf
        threshold = (r_s - m.b) / m.a
        return max(0.0, threshold - m.space_x.dist(x, m.anchor))
    if not isinstance(s, sk.Ball):
        raise NotImplementedError("inclusion inverse implemented for ball test sets")
    if isinstance(m, sk.SphereScale):
        if s.radius > 0.0:
            return math.inf  # no sphere contains a solid ball
        rho = float(np.linalg.norm(s.center))
        return abs(abs(float(x[0])) - rho)
    if s.radius > 1.0:  # the unit ball translate
        return math.inf
    return max(0.0, m.space_x.dist(x, s.center) - (1.0 - s.radius))


def old_inverse_errorbound_sides(m, alpha, s, x):
    lhs = old_inverse_distance(m, s, x)
    rhs_exc = old_excess(m.space_y, s, old_image(m, x))
    rhs = math.inf if math.isinf(rhs_exc) else rhs_exc / alpha
    return lhs, rhs


def ref_inverse_errorbound(m, alpha, trials, seed, tol=1e-9, test_sets=None):
    x_box = (-5.0 * np.ones(m.space_x.dim), 5.0 * np.ones(m.space_x.dim))
    out = []
    for t in range(trials):
        rng = rng_for(seed, t)
        xs, rs, _ = _draw_trials([rng], x_box, (1e-2, 1e1))
        x, r = xs[0], rs[0]
        if test_sets is None:
            s = sk.Ball(rng.uniform(-5.0, 5.0, size=m.space_y.dim), r)
        else:
            s = test_sets[t % len(test_sets)]
        lhs, rhs = old_inverse_errorbound_sides(m, alpha, s, x)
        if math.isinf(rhs):
            continue
        if lhs > rhs + _scale_tol(tol, x, rhs):
            record = hexes(np.append(s.center, s.radius)) if isinstance(s, sk.Ball) else None
            out.append((t, hexes(x), hexes(r), record, hexes(lhs - rhs), "violation"))
    return out


@pytest.mark.parametrize("kind, norm, alpha, forced", [
    ("dilation", ("euclidean", None), None, False), ("dilation", ("max", None), None, False),
    ("dilation", ("p", 3.0), 40.0, True), ("sphere_scale", ("euclidean", None), 1.0, True),
    ("unit_ball_translate", ("max", None), 1.0, True)])
def test_inverse_errorbound_equals_the_scalar_loop(kind, norm, alpha, forced):
    m = make_map(kind, 2, 3, norm, np.random.default_rng(11))
    alpha = alpha or 0.99 * sk.alpha_of(m).alpha  # above the map's constant: violations
    cert = sk.check_inverse_errorbound(m, alpha, trials=60, seed=7)
    assert (cert.verdict == "falsified") is forced
    assert violations_hex(cert) == ref_inverse_errorbound(m, alpha, 60, seed=7)
    for v in cert.violations:
        assert sk.recheck_violation(m, cert, v)


@pytest.mark.parametrize("kind, norm, alpha, balls, forced", [
    ("dilation", ("euclidean", None), 40.0, False, True),
    ("dilation", ("max", None), 40.0, True, True), ("dilation", ("p", 3.0), None, False, False),
    ("sphere_scale", ("euclidean", None), 1.0, True, True),
    ("unit_ball_translate", ("max", None), 1.0, True, True)])
def test_inverse_errorbound_over_supplied_test_sets_equals_the_scalar_loop(kind, norm, alpha,
                                                                            balls, forced):
    rng = np.random.default_rng(13)
    m = make_map(kind, 2, 3, norm, rng)
    alpha = alpha or 0.99 * sk.alpha_of(m).alpha
    dy = m.space_y.dim
    if balls:  # some radii 0 or above 1: the covering-only kinds' edge cases
        sets = [sk.Ball(rng.standard_normal(dy), r) for r in (0.0, 0.5, 1.0, 2.0)]
    else:
        sets = other_test_sets(rng, dy, 5)
    cert = sk.check_inverse_errorbound(m, alpha, trials=40, seed=3, test_sets=sets)
    assert (cert.verdict == "falsified") is forced
    assert violations_hex(cert) == ref_inverse_errorbound(m, alpha, 40, seed=3, test_sets=sets)


def ref_inverse_hausdorff(m, alpha, trials, seed, tol=1e-9):
    """check_inverse_hausdorff's trial loop before it became one batched pass."""
    center = m.shell_center()
    out = []
    for t in range(trials):
        rng = rng_for(seed, t)
        c1 = rng.uniform(-5.0, 5.0, size=m.space_y.dim)
        c2 = rng.uniform(-5.0, 5.0, size=m.space_y.dim)
        r1, r2 = rng.uniform(0.1, 4.0, size=2)
        a_set, b_set = sk.Ball(c1, float(r1)), sk.Ball(c2, float(r2))
        h_inv = abs(old_inverse_distance(m, a_set, center)
                    - old_inverse_distance(m, b_set, center))
        h_sets = max(old_excess(m.space_y, a_set, b_set), old_excess(m.space_y, b_set, a_set))
        if h_inv > h_sets / alpha + _scale_tol(tol, c1, h_sets):
            out.append((t, hexes(np.append(c1, r1)), hexes(r2), hexes(np.append(c2, r2)),
                        hexes(h_inv - h_sets / alpha), "violation"))
    return out


@settings(max_examples=40, deadline=None)
@given(norm=st.sampled_from(NORMS), dx=st.integers(1, 3), dy=st.integers(1, 3),
       scale=st.sampled_from((0.5, 0.99, 1.0, 3.0)), trials=st.integers(0, 30),
       seed=st.integers(0, 2**32 - 1))
def test_inverse_hausdorff_equals_the_per_trial_loop(norm, dx, dy, scale, trials, seed):
    m = make_map("dilation", dx, dy, norm, np.random.default_rng(seed))
    alpha = scale * m.a  # above the map's constant: violations
    cert = sk.check_inverse_hausdorff(m, alpha, trials, seed)
    assert cert.trials == trials
    assert violations_hex(cert) == ref_inverse_hausdorff(m, alpha, trials, seed)
    with pytest.raises(NotImplementedError):  # no shells about one center
        sk.check_inverse_hausdorff(make_map("unit_ball_translate", dx, dx, norm,
                                            np.random.default_rng(seed)), 1.0, trials, seed)


def ref_fallback_search(m, x, rho, alpha, n_points=64, seed=0, budget=150, search_targets=8):
    """fallback_witness as a scalar loop on the scalar searches: the searched u, and
    its distances from every point of the enlargement sample."""
    x = m.space_x.check_point(x)
    targets = sk.sample_enlargement(m.space_y, old_image(m, x), alpha * rho, n_points, seed)
    probe = targets[:: max(1, n_points // search_targets)]

    def worst_violation(u):
        img_u = scalar_image(m, u)
        return math.inf if img_u is None else float(sk.dists(m.space_y, probe, img_u).value.max())

    best_u, _ = ref_ball_search(worst_violation, m.space_x, x, rho, rng_for(seed, 2), 4,
                                max(25, budget // 5))
    return best_u, sk.dists(m.space_y, targets, old_image(m, best_u)).value


def ref_fallback_witness(m, x, rho, alpha, n_points=64, seed=0, budget=150, search_targets=8):
    best_u, margins = ref_fallback_search(m, x, rho, alpha, n_points, seed, budget,
                                          search_targets)
    covered = int(np.count_nonzero(margins <= 1e-9 * (1.0 + alpha * rho))) / len(margins)
    return hexes(best_u), hexes(margins.max()), covered


def hexed_record(rec):
    return hexes(rec.u), hexes(rec.worst_margin), rec.covered_fraction, rec.n_points, rec.seed


@pytest.mark.parametrize("kind", ["sphere_scale", "unit_ball_translate", "ball_valued",
                                  "composed", "polyhedral_process"])
@pytest.mark.parametrize("norm", NORMS)
def test_fallback_witness_equals_the_scalar_loop(kind, norm):
    # the first drawn map whose image at x can be built: the search starts from it
    m = next(m for seed in range(3, 100)
             if scalar_image(m := make_map(kind, 2, 2, norm, np.random.default_rng(seed)),
                             np.full(m.space_x.dim, 0.8)) is not None)
    x = np.full(m.space_x.dim, 0.8)
    for rho, alpha, seed in ((0.5, 0.9, 1), (2.0, 0.3, 4)):
        rec = sk.fallback_witness(m, x, rho, alpha, n_points=24, seed=seed)
        ref = ref_fallback_witness(m, x, rho, alpha, n_points=24, seed=seed)
        assert (hexes(rec.u), hexes(rec.worst_margin), rec.covered_fraction) == ref
    if kind == "sphere_scale":  # no point's sphere absorbs an enlargement: a violation
        assert rec.worst_margin > 0.0
    # row i of the lockstep call is its one-row call, whatever the other rows are
    xs = np.array([x for x in (np.full(m.space_x.dim, v) for v in (0.8, -0.3, 1.7, 0.8))
                   if scalar_image(m, x) is not None])
    rhos, seeds = [0.5, 2.0, 0.05, 1.0][:len(xs)], [1, 4, 9, 4][:len(xs)]
    rows = sk.fallback_witnesses(m, xs, rhos, 0.7, 24, seeds, 150, 8)
    assert [hexed_record(rec) for rec in rows] == \
        [hexed_record(sk.fallback_witness(m, x, rho, 0.7, n_points=24, seed=seed))
         for x, rho, seed in zip(xs, rhos, seeds)]
    assert sk.fallback_witnesses(m, xs[:0], [], 0.7, 24, [], 150, 8) == []

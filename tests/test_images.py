"""Batched map images: every batched rule against its scalar call, by float hex.

`eval_maps` (the per-kind `images` rule), the families' distances and
excesses, the batched inclusion inverses and `penalty_values` are checked
row by row against the scalar rules they batch.  The certificate and
witness callers that switched to the batch are checked against the
scalar loops they replaced, kept here as references.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import setcover_kit as sk
from setcover_kit.certify import _draw_trial, _inverse_errorbound_sides, _scale_tol
from setcover_kit.geometry import rng_for
from setcover_kit.penalty import _feasible_grid_minimum, _multi_start
from setcover_kit.search import ball_search

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
        cy[rng.uniform(size=rows) < 0.3] = 0.0  # zero rows: points outside the domain raise
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


def scalar_image(m, x):
    try:
        return sk.eval_map(m, x)
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
    dist_rows = family.dists_from(m.space_y, ys)
    assert len(family) == k and dist_rows.shape == (k, n)
    for i, x in enumerate(xs):
        image = scalar_image(m, x)
        if image is None:  # a missing row: inf distances, and row(i) raises the image's error
            assert np.all(np.isinf(dist_rows[i]))
            with pytest.raises(ValueError):
                family.row(i)
            continue
        same_set(family.row(i), image)
        assert hexes(dist_rows[i]) == hexes(sk.dists(m.space_y, ys, image).value)


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
            same_set(family.row(i), sk.eval_map(m, x))


def test_a_sum_whose_perturbation_does_not_fit_has_only_missing_rows():
    m = sk.Sum(sk.Dilation(np.zeros(2), 1.0), sk.Affine(np.ones((3, 1)), np.zeros(3)))
    with pytest.raises(ValueError):
        sk.eval_map(m, [1.0])
    family = sk.eval_maps(m, [[1.0], [2.0]])
    assert np.isinf(family.dists_from(m.space_y, np.zeros((1, 2)))).all()
    with pytest.raises(sk.DimensionMismatchError):
        family.row(1)


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
    scalar = [float(sk.excess(sp, a.row(i), b.row(i))) for i in range(k)]
    assert hexes(a.excesses(sp, b)) == hexes(scalar)
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
            continue
        scalar = [sk.inverse_distance(m, tests.row(i), x) for i, x in enumerate(xs)]
        assert hexes(m.inverse_distances(tests, xs)) == hexes(scalar)


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
        scalar = [sk.penalty_value(prob, x) for x in xs]
    except ValueError as exc:  # an image that cannot be built raises in both
        with pytest.raises(type(exc)):
            sk.penalty_values(prob, xs)
        return
    assert hexes(sk.penalty_values(prob, xs)) == hexes(scalar)
    assert hexes(inst.residuals(xs)) == hexes([inst.residual(x) for x in xs])


# ---------------------------------------------------------------------------
# the callers against the scalar loops they replaced


def violations_hex(cert):
    return [(v.trial, hexes(v.x), hexes(v.r), None if v.point is None else hexes(v.point),
             hexes(v.margin), v.kind) for v in cert.violations]


def ref_verify_exactness(prob, x_bar, radius, grid_n, tol=1e-9):
    space = prob.space
    x_bar = space.check_point(x_bar)
    ref = sk.penalty_value(prob, x_bar)
    violations, n_grid = [], 0
    axes = [np.linspace(x_bar[i] - radius, x_bar[i] + radius, grid_n) for i in range(space.dim)]
    pts = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    for pt in pts:
        if space.dist(pt, x_bar) > radius * (1.0 + 1e-12):
            continue
        n_grid += 1
        val = sk.penalty_value(prob, pt)
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
    feasible = [prob.objective_at([p]) for p in pts if prob.inst.residual([p]) <= 1e-6]
    assert _feasible_grid_minimum(prob, np.array([0.5]), 4.0, 301, 1e-6) == min(feasible)
    assert _feasible_grid_minimum(prob, np.array([0.0]), 0.5, 11, 1e-6) is None
    runs = _multi_start(prob, [0.3], 6, seed=5)
    starts = [np.array([0.3])] + [0.3 + rng_for(5, k).uniform(-3.0, 3.0, size=1)
                                  for k in range(1, 6)]
    solo = sorted((sk.minimize_penalty(prob, s) for s in starts),
                  key=lambda res: (res.value, tuple(res.x)))
    assert [(hexes(r.x), hexes(r.value), r.trace.to_jsonable()) for r in runs] == \
        [(hexes(r.x), hexes(r.value), r.trace.to_jsonable()) for r in solo]


def ref_inverse_errorbound(m, alpha, trials, seed, tol=1e-9):
    x_box = (-5.0 * np.ones(m.space_x.dim), 5.0 * np.ones(m.space_x.dim))
    out = []
    for t in range(trials):
        rng = rng_for(seed, t)
        x, r, _ = _draw_trial(rng, x_box, (1e-2, 1e1))
        s = sk.Ball(rng.uniform(-5.0, 5.0, size=m.space_y.dim), r)
        lhs, rhs = _inverse_errorbound_sides(m, alpha, s, x)
        if math.isinf(rhs):
            continue
        if lhs > rhs + _scale_tol(tol, x, rhs):
            out.append((t, hexes(x), hexes(r), hexes(np.append(s.center, s.radius)),
                        hexes(lhs - rhs), "violation"))
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


def ref_fallback_witness(m, x, rho, alpha, n_points=64, seed=0, budget=150, search_targets=8):
    x = m.space_x.check_point(x)
    targets = sk.sample_enlargement(m.space_y, sk.eval_map(m, x), alpha * rho, n_points, seed)
    probe = targets[:: max(1, n_points // search_targets)]

    def worst_violation(us):
        values = []
        for u in us:
            try:
                img_u = sk.eval_map(m, u)
            except ValueError:
                values.append(math.inf)
                continue
            values.append(float(sk.dists(m.space_y, probe, img_u).value.max()))
        return values

    best_u, _ = ball_search(worst_violation, m.space_x, x, rho, rng_for(seed, 2), n_draws=4,
                            max_evals=max(25, budget // 5))
    margins = sk.dists(m.space_y, targets, sk.eval_map(m, best_u)).value
    covered = int(np.count_nonzero(margins <= 1e-9 * (1.0 + alpha * rho))) / len(margins)
    return hexes(best_u), hexes(margins.max()), covered


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

"""The batched distance kernel: dists(space, ys, s) row by row against per-point references.

Every reference here is computed in-process: a committed table of values
would pin one CPU's BLAS rounding.  The references are the per-point
rules the kernel replaced: np.linalg.norm / max|.| / sum(|.|**p)**(1/p)
on one point at a time, the one-candidate-at-a-time samplers, and the
one-row halfspace-region rule (membership, bound, max-norm LP and a
brute-force KKT projection per point).
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import nnls

import setcover_kit as sk
from setcover_kit import geometry
from setcover_kit.geometry import rng_for

NORMS = (("euclidean", None), ("max", None), ("p", 3.0))
CLOSED_KINDS = ("ball", "sphere", "box", "orthant", "point_cloud")
ITERATIVE_KINDS = ("v_polytope", "sublevel_region")


def ref_norm(space, v) -> float:
    v = np.asarray(v, dtype=float)
    if space.norm == "euclidean":
        return float(np.linalg.norm(v))
    if space.norm == "max":
        return float(np.max(np.abs(v)))
    return float(np.sum(np.abs(v) ** space.p) ** (1.0 / space.p))


def ref_unit(space, v) -> np.ndarray:
    n = ref_norm(space, v)
    if n == 0.0:
        return np.eye(1, space.dim)[0]
    return v / n


def ref_dist(space, y, s) -> float:
    """One point's closed-form distance, rule by rule."""
    if isinstance(s, sk.Ball):
        return max(0.0, ref_norm(space, y - s.center) - s.radius)
    if isinstance(s, sk.Sphere):
        return abs(ref_norm(space, y - s.center) - s.radius)
    if isinstance(s, sk.Box):
        return ref_norm(space, np.clip(y, s.lo, s.hi) - y)
    if isinstance(s, sk.Orthant):
        return ref_norm(space, np.maximum(0.0, s.apex - y))
    if isinstance(s, sk.PointCloud):
        return min(ref_norm(space, y - p) for p in s.points)
    if isinstance(s, sk.EnlargedSet):
        return max(0.0, ref_dist(space, y, s.base) - s.margin)
    raise TypeError(type(s).__name__)


def make_set(kind: str, dim: int, rng, scale: float = 1.0):
    c = scale * rng.standard_normal(dim)
    if kind == "ball":
        return sk.Ball(c, scale * float(rng.uniform(0.0, 2.0)))
    if kind == "sphere":
        return sk.Sphere(c, scale * float(rng.uniform(0.0, 2.0)))
    if kind == "box":
        return sk.Box(c, c + scale * rng.uniform(0.0, 2.0, dim))
    if kind == "orthant":
        return sk.Orthant(c)
    if kind == "point_cloud":
        return sk.PointCloud(c + scale * rng.standard_normal((int(rng.integers(1, 6)), dim)))
    if kind == "v_polytope":
        return sk.VPolytope(c + scale * rng.standard_normal((int(rng.integers(1, 5)), dim)))
    if kind == "sublevel_region":
        box = [np.vstack([np.eye(dim)[i], -np.eye(dim)[i]]) for i in range(dim)]
        tilt = rng.standard_normal((1, dim))
        return sk.SublevelRegion(tuple(sk.FormGroup(a, scale) for a in box)
                                 + (sk.FormGroup(tilt, 0.5 * scale),))
    raise ValueError(kind)


def enlarged(s, margins):
    for m in margins:
        s = sk.EnlargedSet(s, m)
    return s


def assert_rows_match_reference(space, ys, s):
    d = sk.dists(space, ys, s)
    assert d.value.shape == d.error.shape == d.approximate.shape == (len(ys),)
    want = np.array([ref_dist(space, y, s) for y in ys])
    assert np.array_equal(d.value, want), np.flatnonzero(d.value != want)
    assert not d.approximate.any() and not d.error.any() and set(d.note) <= {""}


@pytest.mark.parametrize("norm,p", NORMS)
@pytest.mark.parametrize("kind", CLOSED_KINDS)
def test_closed_forms_equal_per_point_reference(kind, norm, p):
    rng = np.random.default_rng([7, CLOSED_KINDS.index(kind)])
    for dim in range(1, 7):
        space = sk.NormedSpace(dim, norm, p)
        for scale in (1e-3, 1.0, 1e3):
            ys = scale * 2.0 * rng.standard_normal((40, dim))
            base = make_set(kind, dim, rng, scale)
            assert_rows_match_reference(space, ys, base)
            margins = scale * rng.uniform(0.0, 1.0, int(rng.integers(1, 3)))
            assert_rows_match_reference(space, ys, enlarged(base, margins))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(CLOSED_KINDS),
       norm=st.sampled_from(NORMS), dim=st.integers(1, 6), depth=st.integers(0, 2),
       n=st.integers(0, 30), scale=st.sampled_from([1e-6, 1e-2, 1.0, 1e2, 1e6]))
def test_closed_forms_property(seed, kind, norm, dim, depth, n, scale):
    rng = np.random.default_rng(seed)
    space = sk.NormedSpace(dim, *norm)
    s = enlarged(make_set(kind, dim, rng, scale), scale * rng.uniform(0.0, 1.0, depth))
    ys = scale * 3.0 * rng.standard_normal((n, dim))
    assert_rows_match_reference(space, ys, s)


@pytest.mark.parametrize("norm,p", NORMS)
@pytest.mark.parametrize("kind", ITERATIVE_KINDS)
def test_iterative_kinds_one_row_is_dist_point(kind, norm, p):
    rng = np.random.default_rng([11, ITERATIVE_KINDS.index(kind)])
    for dim in (1, 2, 3):
        space = sk.NormedSpace(dim, norm, p)
        for s in (make_set(kind, dim, rng), enlarged(make_set(kind, dim, rng), [0.2, 0.1])):
            ys = 2.0 * rng.standard_normal((6, dim))
            batch = sk.dists(space, ys, s)
            for i, y in enumerate(ys):
                single = sk.dist_point(space, y, s)
                one = sk.dists(space, y[None], s).row(0)
                for got in (one, batch.row(i)):
                    assert (float(got), got.error, got.approximate, got.note) == \
                        (float(single), single.error, single.approximate, single.note)


def ref_lp_max_norm_polytope(vertices, y) -> float:
    """min t subject to |V^T w - y|_inf <= t, w in the simplex, built row by row."""
    from setcover_kit._lp import solve_lp

    k, n = vertices.shape
    c = np.zeros(k + 1)
    c[-1] = 1.0
    a_ub = np.zeros((2 * n, k + 1))
    a_ub[:n, :k] = vertices.T
    a_ub[n:, :k] = -vertices.T
    a_ub[:, -1] = -1.0
    a_eq = np.zeros((1, k + 1))
    a_eq[0, :k] = 1.0
    res = solve_lp(c, a_ub=a_ub, b_ub=np.concatenate([y, -y]), a_eq=a_eq, b_eq=np.array([1.0]),
                   bounds=[(0, None)] * (k + 1))
    return float(res.fun)


def test_max_norm_polytope_distance_is_its_lp_alone(monkeypatch):
    """Under the max norm the simplex-weight LP gives a V-polytope distance; the
    euclidean hull projection, whose answer the LP makes unnecessary, does not run."""
    def no_projection(vertices, y):
        raise AssertionError("the hull projection ran under the max norm")

    rng = np.random.default_rng(29)
    cases = []
    for dim, k in ((1, 2), (2, 5), (4, 16)):
        s = sk.VPolytope(rng.standard_normal((k, dim)))
        ys = np.vstack([2.0 * rng.standard_normal((5, dim)), s.vertices.mean(axis=0),
                        s.vertices[0]])  # outside, inside and at a vertex
        cases.append((sk.NormedSpace(dim, "max"), s, ys,
                      [(ref_lp_max_norm_polytope(s.vertices, y).hex(), 0.0, False) for y in ys]))
    monkeypatch.setattr(geometry, "_hull_project_euclidean", no_projection)
    for space, s, ys, want in cases:
        batch = sk.dists(space, ys, s)
        for i, y in enumerate(ys):
            for got in (sk.dist_point(space, y, s), batch.row(i)):
                assert (float(got).hex(), got.error, got.approximate) == want[i]


def test_closed_form_dist_point_is_exact_row():
    d = sk.dist_point(sk.NormedSpace(2), [3.0, 4.0], sk.Ball(np.zeros(2), 1.0))
    assert (float(d), d.error, d.approximate, d.note) == (4.0, 0.0, False, "")
    assert type(d.approximate) is bool and type(d.error) is float


def test_dists_shape_checks():
    space = sk.NormedSpace(2)
    ball = sk.Ball(np.zeros(2), 1.0)
    assert sk.dists(space, np.zeros((0, 2)), ball).value.shape == (0,)
    for bad in (np.zeros(2), np.zeros((3, 3)), np.zeros((1, 1, 2))):
        with pytest.raises(sk.DimensionMismatchError):
            sk.dists(space, bad, ball)
    with pytest.raises(sk.DimensionMismatchError):
        sk.dists(space, np.zeros((1, 2)), sk.Ball(np.zeros(3), 1.0))


# ---------------------------------------------------------------------------
# halfspace regions: the one-row rule the batched kernel replaced


def ref_kkt(a_mat, b_vec, y, z, tol=1e-9):
    """Whether z is the nearest point of {z : A z <= b} to y: z is feasible within 1e-12
    relative to |A| (|y| + |z|) + |b|, and y - z is a nonnegative combination of the rows
    active at z (one NNLS fit), within tol relative."""
    size = np.abs(a_mat) @ (np.abs(y) + np.abs(z)) + np.abs(b_vec)
    slack = a_mat @ z - b_vec
    if (slack > 1e-12 * size).any():
        return False
    gap = y - z
    active = a_mat[slack >= -tol * size]
    if not active.shape[0]:
        return not gap.any()
    residual = nnls(active.T, gap)[1]
    return residual <= tol * max(1.0, float(np.linalg.norm(gap)), float(np.max(size)))


def ref_project(rows, y):
    """Nearest point of a halfspace intersection to one outside point, by brute force.

    For k = 1, 2, ... every subset S of k rows gives the nearest point of the affine
    set {a_S z = b_S} by a pseudoinverse, and multipliers by least squares; the first
    subset whose multipliers are nonnegative and whose point passes ref_kkt is the
    answer.  Where the subsets number more than 5,000, the least-distance program
    min |x| subject to -A x >= A y - b is solved as one NNLS instead (Lawson and
    Hanson, ch. 23), y is projected onto its active rows' affine set, and ref_kkt
    checks that point too.  Returns the point and the
    size of its subset (-1 for the NNLS answer); None where no point passes.
    """
    a_mat = np.array([a for a, _ in rows], dtype=float)
    b_vec = np.array([b for _, b in rows], dtype=float)
    m, d = a_mat.shape
    if sum(math.comb(m, k) for k in range(1, min(m, d) + 1)) > 5000:
        h = a_mat @ y - b_vec
        u, rnorm = nnls(np.vstack([-a_mat.T, h]), np.eye(d + 1)[d])
        if rnorm == 0.0 or 1.0 - h @ u <= 0.0:
            return None
        a_s = a_mat[u > 0.0]  # the program's active rows, projected onto as below
        z = y + np.linalg.pinv(a_s) @ (b_vec[u > 0.0] - a_s @ y)
        return (z, -1) if ref_kkt(a_mat, b_vec, y, z) else None
    for k in range(1, min(m, d) + 1):
        for s in itertools.combinations(range(m), k):
            a_s = a_mat[list(s)]
            z = y + np.linalg.pinv(a_s) @ (b_vec[list(s)] - a_s @ y)
            lam = np.linalg.lstsq(a_s.T, y - z, rcond=None)[0]
            if (lam >= -1e-12 * max(1.0, float(np.abs(lam).max()))).all() \
                    and ref_kkt(a_mat, b_vec, y, z):
                return z, k
    return None


def ref_lp_max_norm(rows, y):
    from setcover_kit._lp import solve_lp

    n, m = y.shape[0], len(rows)
    c = np.zeros(n + 1)
    c[-1] = 1.0
    a_ub = np.zeros((m + 2 * n, n + 1))
    b_ub = np.zeros(m + 2 * n)
    for i, (a, b) in enumerate(rows):
        a_ub[i, :n] = a
        b_ub[i] = b
    a_ub[m:m + n, :n] = np.eye(n)
    a_ub[m:m + n, -1] = -1.0
    b_ub[m:m + n] = y
    a_ub[m + n:, :n] = -np.eye(n)
    a_ub[m + n:, -1] = -1.0
    b_ub[m + n:] = -y
    res = solve_lp(c, a_ub=a_ub, b_ub=b_ub, bounds=[(None, None)] * n + [(0, None)])
    return None if res is None else float(res.fun)


def ref_dual_norm(space, v) -> float:
    v = np.asarray(v, dtype=float)
    if space.norm == "euclidean":
        return float(np.linalg.norm(v))
    if space.norm == "max":
        return float(np.sum(np.abs(v)))
    if space.p == 1.0:
        return float(np.max(np.abs(v))) if v.size else 0.0
    q = space.p / (space.p - 1.0)
    return float(np.sum(np.abs(v) ** q) ** (1.0 / q))


def region_rows(s):
    return [(row, g.b) for g in s.groups for row in g.a]


def ref_dist_region(space, y, s):
    """One point's region distance, as (value, error, approximate, note, k), k being
    the size of the active set ref_project found (0 inside the region).

    A zero form is skipped in the lower bound: it is never violated in a
    nonempty region, and dividing by its dual norm 0 raised before.
    """
    rows = region_rows(s)
    viol = [float(a @ y) - b for a, b in rows]
    if all(v <= 0.0 for v in viol):
        return 0.0, 0.0, False, "", 0
    lower_any = max(max(0.0, v) / ref_dual_norm(space, a)
                    for (a, _), v in zip(rows, viol) if ref_dual_norm(space, a) > 0.0)
    if space.norm == "max":
        val = ref_lp_max_norm(rows, y)
        if val is not None:
            return val, 0.0, False, "", 0
    found = ref_project(rows, y)
    assert found is not None, y  # every region here is nonempty
    z, k = found
    if space.norm == "euclidean":
        return float(np.linalg.norm(z - y)), 0.0, False, "", k
    upper = ref_norm(space, z - y)
    return (upper, max(0.0, upper - lower_any), True,
            "region distance under this norm is a bracketed estimate", k)


def ref_contains_region(s, y, tol=1e-9):
    for a, b in region_rows(s):
        val = float(a @ y)
        if val > b + tol * max(1.0, abs(val), abs(b)):
            return False
    return True


def hexed(value, error, approx, note):
    return float(value).hex(), float(error).hex(), bool(approx), note


def assert_close(got, want, scale):
    """A value, error, flag and note against the reference's: the flag and the note
    equal, value and error within 1e-12 relative to the value and the scale."""
    tol = 1e-12 * (abs(want[0]) + scale)
    assert (bool(got[2]), got[3]) == (want[2], want[3])
    assert abs(got[0] - want[0]) <= tol and abs(got[1] - want[1]) <= tol, (got, want)


def assert_same_rows(got, want):
    """Two Distances, row by row by float hex."""
    assert [hexed(*f) for f in zip(*got)] == [hexed(*f) for f in zip(*want)]


def assert_region_rows_match_reference(space, ys, s):
    """Batched rows equal dist_point by float hex, the same rows alone and in the
    reversed batch too, and the one-row reference within 1e-12 relative (by float hex
    under the max norm and inside the region); returns the reference active-set sizes."""
    d = sk.dists(space, ys, s)
    assert_same_rows(sk.dists(space, ys[::-1], s), [f[::-1] for f in d])
    sizes = []
    for i, y in enumerate(ys):
        *want, k = ref_dist_region(space, y, s)
        got = (d.value[i], d.error[i], d.approximate[i], d.note[i])
        one = sk.dist_point(space, y, s)
        assert hexed(*got) == hexed(one, one.error, one.approximate, one.note), i
        assert_same_rows(sk.dists(space, y[None], s), [f[i:i + 1] for f in d])
        if space.norm == "max" or k == 0:
            assert hexed(*got) == hexed(*want), i
        else:
            assert_close(got, want, float(np.linalg.norm(y)))
        assert sk.contains_point(space, s, y) == ref_contains_region(s, y)
        sizes.append(k)
    return sizes


def random_region(rng, dim, scale=1.0):
    """Box rows, random tilted rows with b > 0, a duplicated group and a zero form."""
    box = [sk.FormGroup(np.vstack([np.eye(dim)[i], -np.eye(dim)[i]]), scale) for i in range(dim)]
    tilt = sk.FormGroup(rng.standard_normal((int(rng.integers(1, 4)), dim)),
                        scale * float(rng.uniform(0.1, 1.0)))
    groups = box + [tilt, tilt]  # the duplicate: same rows, same bound
    if rng.uniform() < 0.5:
        groups.append(sk.FormGroup(np.zeros((1, dim)), scale * float(rng.uniform(0.0, 1.0))))
    return sk.SublevelRegion(tuple(groups[i] for i in rng.permutation(len(groups))))


def region_points(rng, s, scale=1.0):
    """Inside, on the boundary (LP vertices), just outside, near and far points."""
    lo, hi, argpoints = s.extent()
    dim = s.dim
    inside = 0.1 * scale * rng.uniform(-1.0, 1.0, (3, dim))
    outward = argpoints + 1e-9 * scale * np.sign(argpoints)
    near = argpoints + 0.05 * scale * rng.standard_normal(argpoints.shape)
    far = 1e3 * scale * rng.standard_normal((3, dim))
    return np.vstack([inside, argpoints, outward, near, far])


@pytest.mark.parametrize("norm,p", NORMS)
def test_region_rows_equal_one_row_reference(norm, p):
    rng = np.random.default_rng([13, NORMS.index((norm, p))])
    sizes = set()
    for dim in range(1, 9):
        space = sk.NormedSpace(dim, norm, p)
        for scale in ((1e-3, 1.0, 1e3) if dim <= 2 else ((1e-3, 1.0, 1e3)[dim % 3],)):
            s = random_region(rng, dim, scale)
            ys = region_points(rng, s, scale)
            ys = ys[rng.permutation(len(ys))[:8]]
            sizes.update(assert_region_rows_match_reference(space, ys, s))
    if norm != "max":
        # rows of one batch were certified at different active-set sizes, and some
        # past the brute force's subset limit
        assert len(sizes - {0, -1}) >= 3 and -1 in sizes, sorted(sizes)


def test_region_rows_of_sublinear_images_equal_reference():
    rng = np.random.default_rng(17)
    for dim in (2, 3, 4):
        groups = [np.vstack([np.eye(dim)[i], -np.eye(dim)[i]]) + 0.3 * rng.standard_normal((2, dim))
                  for i in range(dim)]
        for norm, p in NORMS:
            sub = sk.SublinearSystem(tuple(groups), space_y=sk.NormedSpace(dim, norm, p))
            image = sk.eval_map(sub, rng.uniform(0.5, 2.5, dim) * rng.choice([-1.0, 1.0], dim))
            ys = sk.sample(sub.space_y, sk.EnlargedSet(image, 0.5), 12, seed=dim)
            assert_region_rows_match_reference(sub.space_y, ys, image)


@pytest.mark.parametrize("norm,p", NORMS)
def test_zero_form_row_adds_no_bound_term(norm, p):
    space = sk.NormedSpace(2, norm, p)
    sub = sk.SublinearSystem(([[1.0, 0.0], [-1.0, 0.0], [0.0, 0.0]], [[0.0, 1.0], [0.0, -1.0]]),
                             space_y=space)
    image = sk.eval_map(sub, np.array([1.0, 1.0]))  # |y_1| <= 1, |y_2| <= 1 and 0 <= 1
    d = sk.dist_point(space, [3.0, 0.0], image)
    assert float(d) == 2.0
    assert_close((float(d), d.error, d.approximate, d.note),
                 ref_dist_region(space, np.array([3.0, 0.0]), image)[:4], 3.0)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), norm=st.sampled_from(NORMS), dim=st.integers(1, 5),
       n=st.integers(0, 8), scale=st.sampled_from([1e-3, 1.0, 1e3]))
def test_region_rows_property(seed, norm, dim, n, scale):
    rng = np.random.default_rng(seed)
    space = sk.NormedSpace(dim, *norm)
    s = random_region(rng, dim, scale)
    ys = scale * rng.choice([0.5, 2.0, 50.0], size=(n, 1)) * rng.standard_normal((n, dim))
    assert_region_rows_match_reference(space, ys, s)


def sublinear_image(rng, dim, scale):
    """One image of a sublinear map with tilted box forms, at a point whose coordinates
    may be small, so that the image can be thin."""
    groups = tuple(np.vstack([np.eye(dim)[i], -np.eye(dim)[i]]) + 0.3 * rng.standard_normal((2, dim))
                   for i in range(dim))
    x = scale * rng.choice([0.01, 1.0], dim) * rng.uniform(0.5, 2.5, dim)
    return sk.eval_map(sk.SublinearSystem(groups), x)


def assert_projections_certified(s, ys):
    """The projection certifies every row of ys outside s, and each point passes ref_kkt;
    returns the euclidean distances."""
    a, b = s.forms()
    z, g, certified = geometry._project_region(s, b, ys)
    d = sk.dists(sk.NormedSpace(s.dim), ys, s)
    out = np.flatnonzero((ys @ a.T > b).any(axis=1))
    assert certified[out].all()
    assert all(ref_kkt(a, b, ys[i], z[i]) for i in out)
    assert not d.approximate.any() and set(d.note) <= {""}
    return d.value


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 5), image=st.booleans(),
       n=st.integers(1, 8), scale=st.sampled_from([1e-3, 1.0, 1e3]))
def test_projection_property(seed, dim, image, n, scale):
    """Certified, no farther than any member of the region, no nearer than any single
    halfspace, and +inf, exact, once a slab that no point meets is added."""
    rng = np.random.default_rng(seed)
    s = sublinear_image(rng, dim, scale) if image else random_region(rng, dim, scale)
    ys = scale * rng.choice([0.5, 2.0, 50.0], size=(n, 1)) * rng.standard_normal((n, dim))
    value = assert_projections_certified(s, ys)
    members = sk.sample(sk.NormedSpace(dim), s, 32, seed=seed % 1000)
    nearest = np.linalg.norm(ys[:, None, :] - members, axis=2).min(axis=1)
    assert (value <= nearest * (1.0 + 1e-12)).all()
    a, b = s.forms()
    norms = np.linalg.norm(a, axis=1)
    lower = np.max(np.maximum(0.0, ys @ a[norms > 0].T - b[norms > 0]) / norms[norms > 0], axis=1)
    assert (value >= lower * (1.0 - 1e-12)).all()
    c, width = rng.standard_normal((1, dim)), scale * float(rng.uniform(0.1, 1.0))
    empty = sk.SublevelRegion(s.groups + (sk.FormGroup(c, -width), sk.FormGroup(-c, -width)))
    d = sk.dists(sk.NormedSpace(dim), ys, empty)
    assert np.isinf(d.value).all() and not d.error.any() and not d.approximate.any()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_region_past_the_subset_cap_is_projected_by_least_distance(monkeypatch, seed):
    # 7-d, 21 rows: the subsets of one and two rows number 231, with three 1,561, past
    # the cap; far points whose nearest points meet three or more rows solve the
    # least-distance program, and every one is certified
    calls = []
    monkeypatch.setattr(geometry, "nnls", lambda *args: calls.append(1) or nnls(*args))
    rng = np.random.default_rng([43, seed])
    box = [sk.FormGroup(np.vstack([np.eye(7)[i], -np.eye(7)[i]]), 1.0) for i in range(7)]
    s = sk.SublevelRegion(tuple(box) + (sk.FormGroup(rng.standard_normal((7, 7)), 1.5),))
    assert s.forms()[0].shape == (21, 7) and geometry.PROJECTION_SUBSET_CAP < 1561
    ys = rng.choice([2.0, 50.0], size=(12, 1)) * rng.standard_normal((12, 7))
    assert_projections_certified(s, ys)
    assert len(calls) > 0


# ---------------------------------------------------------------------------
# image families: Regions.row_dists, each row's own points against its own region


def assert_rows_equal_dist_point(space, family, ys):
    """row_dists's rows equal dist_point per point by float hex, a missing row's being
    inf and exact; returns them."""
    d = family.row_dists(space, ys)
    k, n = ys.shape[:2]
    assert d.value.shape == d.error.shape == d.approximate.shape == (k, n)
    assert len(d.note) == k * n
    for i in range(k):
        try:
            s = family.row(i)
        except ValueError:
            s = None
        for j in range(n):
            got = hexed(d.value[i, j], d.error[i, j], d.approximate[i, j], d.note[i * n + j])
            if s is None:
                assert got == hexed(np.inf, 0.0, False, ""), (i, j)
                continue
            one = sk.dist_point(space, ys[i, j], s)
            assert got == hexed(one, one.error, one.approximate, one.note), (i, j)
    return d


def sublinear_family(rng, dim, space, k):
    """k images of one sublinear map: one form matrix, a zero form row in it, k right-hand sides."""
    groups = [np.vstack([np.eye(dim)[i], -np.eye(dim)[i]]) + 0.3 * rng.standard_normal((2, dim))
              for i in range(dim)]
    groups[0] = np.vstack([groups[0], np.zeros(dim)])
    sub = sk.SublinearSystem(tuple(groups), space_y=space)
    us = rng.choice([0.0, 0.05, 1.0, 20.0], size=(k, 1)) * rng.standard_normal((k, dim))
    return sk.eval_maps(sub, us)


def process_family(rng, dim, space, k):
    """k images of one process {y : Cy y <= -Cx x}: Cy is -I perturbed, so each image is
    a nonempty cone, plus a zero row, so that points with Cx x > 0 in that row leave the
    domain (missing rows)."""
    cy = np.vstack([-(np.eye(dim) + rng.uniform(-0.25, 0.25, size=(dim, dim))), np.zeros(dim)])
    proc = sk.PolyhedralProcess(rng.standard_normal((dim + 1, 2)), cy, space_y=space)
    family = sk.eval_maps(proc, rng.choice([0.0, 1.0, 10.0], size=(k, 1))
                          * rng.standard_normal((k, 2)))
    assert isinstance(family, sk.Regions)
    return family


def family_points(rng, k, dim, n):
    scale = rng.choice([0.0, 0.5, 5.0], size=(k, n, 1))
    return scale * rng.standard_normal((k, n, dim))


@pytest.mark.parametrize("norm,p", NORMS)
def test_region_rows_equal_dist_point_per_point(norm, p):
    rng = np.random.default_rng([31, NORMS.index((norm, p))])
    values, missing = [], 0
    for dim in (1, 2, 3, 5):
        space = sk.NormedSpace(dim, norm, p)
        for make in (sublinear_family, process_family):
            family = make(rng, dim, space, 8)
            d = assert_rows_equal_dist_point(space, family, family_points(rng, 8, dim, 3))
            values.extend(d.value[np.isfinite(d.value)])
            missing += int(np.isinf(d.value).all(axis=1).sum())
            # the same point for every row, as the searches ask it
            y = 5.0 * rng.standard_normal(dim)
            assert_rows_equal_dist_point(space, family, np.broadcast_to(y, (8, 1, dim)))
    assert min(values) == 0.0 < max(values)  # points inside and outside
    assert missing > 0  # process points outside the domain


def test_row_dists_measure_a_family_in_one_region_call(monkeypatch):
    calls = []
    real = geometry._dists_region

    def counted(space, ys, s, b, *args, **kwargs):
        calls.append(len(ys))
        return real(space, ys, s, b, *args, **kwargs)

    monkeypatch.setattr(geometry, "_dists_region", counted)
    rng = np.random.default_rng(41)
    space = sk.NormedSpace(2)
    for family in (sublinear_family(rng, 2, space, 6), process_family(rng, 2, space, 6)):
        ys = family_points(rng, 6, 2, 4)
        live = sum(exc is None for exc in family.errors)
        calls.clear()
        family.row_dists(space, ys)
        assert calls == [4 * live]
        assert_rows_equal_dist_point(space, family, ys)


@pytest.mark.parametrize("norm,p", (("euclidean", None), ("p", 3.0)))
def test_row_dists_rows_past_the_subset_cap(monkeypatch, norm, p):
    # with no active-set tables every outside row solves its least-distance program:
    # the same distances within rounding, still certified, each row its dist_point
    rng = np.random.default_rng(37)
    space = sk.NormedSpace(3, norm, p)
    family = sublinear_family(rng, 3, space, 12)
    ys = np.broadcast_to(5.0 * rng.standard_normal(3), (12, 1, 3))
    full = family.row_dists(space, ys)
    calls = []
    monkeypatch.setattr(geometry, "nnls", lambda *args: calls.append(1) or nnls(*args))
    monkeypatch.setattr(geometry, "PROJECTION_SUBSET_CAP", 0)
    capped = assert_rows_equal_dist_point(space, family, ys)
    assert len(calls) >= 11 and (capped.value > 0.0).sum() >= 11
    assert np.allclose(capped.value, full.value, rtol=1e-12, atol=0.0)
    assert np.array_equal(capped.approximate, full.approximate)
    # where the least-distance program fails as well, each row keeps the bracket
    # from one LP's point of its region, flagged approximate
    def fails(*args):
        raise RuntimeError("Maximum number of iterations reached.")
    monkeypatch.setattr(geometry, "nnls", fails)
    failed = assert_rows_equal_dist_point(space, family, ys)
    out = full.value > 0.0
    assert failed.approximate[out].all() and (failed.value >= full.value * (1.0 - 1e-12)).all()
    assert (failed.value - failed.error <= full.value * (1.0 + 1e-12)).all()
    assert {failed.note[i] for i in np.flatnonzero(out)} == \
        {"feasible-point bracket: the projection was not certified"}


def test_thin_region_sampling_projects_one_row():
    # a slab of width 1e-7: rejection fails, so the samples come from one-row
    # projections; every one must be a member of the slab
    a = np.array([[1.0, 1.0], [-1.0, -1.0]])
    s = sk.SublevelRegion((sk.FormGroup(a[:1], 1.0), sk.FormGroup(a[1:], -1.0 + 1e-7),
                           sk.FormGroup(np.vstack([np.eye(2), -np.eye(2)]), 2.0)))
    space = sk.NormedSpace(2)
    pts = sk.sample(space, s, 40, seed=3)
    assert pts.shape == (40, 2)
    assert all(sk.contains_point(space, s, y, tol=1e-8) for y in pts)
    y = np.array([5.0, -3.0])
    z, g, certified = geometry._project_region(s, s.forms()[1], y[None])
    want, k = ref_project(region_rows(s), y)
    assert certified[0] and k == 2
    assert np.abs(z[0] - want).max() <= 1e-12 * np.abs(y).max()
    assert abs(np.sqrt(2.0 * g[0]) - np.linalg.norm(z[0] - y)) <= 1e-12 * np.linalg.norm(y)


@pytest.mark.parametrize("norm,p", NORMS + (("p", 1.0),))
def test_norms_and_units_equal_per_row_reference(norm, p):
    rng = np.random.default_rng(3)
    for dim in range(1, 11):
        space = sk.NormedSpace(dim, norm, p)
        v = rng.standard_normal((200, dim)) * rng.choice([1e-8, 1.0, 1e8], size=(200, 1))
        v[0] = 0.0
        assert np.array_equal(space.dual_norms(v), [ref_dual_norm(space, r) for r in v])
        assert [space.dual_norm_of(r) for r in v] == [ref_dual_norm(space, r) for r in v]
        assert np.array_equal(space.norms(v), [ref_norm(space, r) for r in v])
        assert np.array_equal(space.norms(np.asfortranarray(v)), space.norms(v))  # strided rows
        assert [space.norm_of(r) for r in v] == [ref_norm(space, r) for r in v]
        assert np.array_equal(space.unit(v), [ref_unit(space, r) for r in v])
        assert all(np.array_equal(space.unit(r), ref_unit(space, r)) for r in v[:5])


# ---------------------------------------------------------------------------
# samplers: the one-candidate-at-a-time loops they replaced


def axis_points(space, center, radius):
    pts = []
    for i in range(space.dim):
        e = np.zeros(space.dim)
        e[i] = 1.0
        pts += [center + radius * e, center - radius * e]
    return pts


def ref_sample_ball(space, center, radius, n, seed, fill=True):
    """The one-candidate rejection loop; once its budget is spent, radial draws fill the
    rest (fill) or the loop raises (not fill)."""
    rng = rng_for(seed, 0)
    pts = [center.copy()] + axis_points(space, center, radius)
    budget = 200 * n + 1000
    while len(pts) < n and budget > 0:
        cand = rng.uniform(-radius, radius, size=space.dim)
        budget -= 1
        if ref_norm(space, cand) <= radius:
            pts.append(center + cand)
    if len(pts) < n and not fill:
        raise sk.SamplingBudgetError("rejection budget exhausted sampling a ball")
    if len(pts) < n:
        g = rng.standard_normal((n - len(pts), space.dim))
        t = radius * rng.uniform(size=n - len(pts)) ** (1.0 / space.dim)
        pts += [center + ti * ref_unit(space, gi) for ti, gi in zip(t, g)]
    return np.array(pts[:n])


def ref_sample_sphere(space, s, n, seed):
    rng = rng_for(seed, 0)
    pts = axis_points(space, s.center, s.radius)
    while len(pts) < n:
        pts.append(s.center + s.radius * ref_unit(space, rng.standard_normal(space.dim)))
    return np.array(pts[:n])


def ref_sample_enlarged(space, s, n, seed):
    base_pts = sk.sample(space, s.base, n, seed)
    rng = rng_for(seed, 0)
    out = []
    for i, p in enumerate(base_pts):
        t = 1.0 if i % 2 == 0 else rng.uniform()
        g = rng.standard_normal(space.dim)
        out.append(p + s.margin * t * ref_unit(space, g))
    return np.array(out)


def ref_sample_enlargement(space, s, rho, n, seed):
    base_pts = sk.sample(space, s, n, seed)
    centroid = np.mean(base_pts, axis=0)
    rng = rng_for(seed, 1)
    out = []
    for i, p in enumerate(base_pts):
        outward = p - centroid
        if i % 4 != 3 and ref_norm(space, outward) > 1e-12:
            out.append(p + rho * ref_unit(space, outward))
            continue
        g = rng.standard_normal(space.dim)
        t = 1.0 if i % 2 == 0 else float(rng.uniform())
        out.append(p + rho * t * ref_unit(space, g))
    return np.array(out)


@pytest.mark.parametrize("norm,p", NORMS)
def test_samplers_equal_scalar_loops(norm, p):
    rng = np.random.default_rng(5)
    for dim in range(1, 7):
        space = sk.NormedSpace(dim, norm, p)
        for n, seed in ((1, 0), (9, 1), (64, 2), (200, 3)):
            c, r = rng.standard_normal(dim), float(rng.uniform(0.1, 3.0))
            ball, sphere = sk.Ball(c, r), sk.Sphere(c, r)
            assert np.array_equal(sk.sample(space, ball, n, seed),
                                  ref_sample_ball(space, ball.center, r, n, seed))
            assert np.array_equal(sk.sample(space, sphere, n, seed),
                                  ref_sample_sphere(space, sphere, n, seed))
            for base in (ball, sphere, sk.Box(c, c + 1.0)):
                wrapped = sk.EnlargedSet(base, 0.3)
                assert np.array_equal(sk.sample(space, wrapped, n, seed),
                                      ref_sample_enlarged(space, wrapped, n, seed))
                assert np.array_equal(sk.sample_enlargement(space, base, 0.7, n, seed),
                                      ref_sample_enlargement(space, base, 0.7, n, seed))


def test_ball_sampler_budget_error_matches_scalar_loop():
    # where the rejection loop runs out of budget, the sampler keeps the points it
    # accepted and fills the rest by radial draws from the same generator
    space = sk.NormedSpace(10)
    ball = sk.Ball(np.zeros(10), 1.0)
    with pytest.raises(sk.SamplingBudgetError):
        ref_sample_ball(space, ball.center, 1.0, 64, 0, fill=False)
    pts = sk.sample(space, ball, 64, 0)
    assert np.array_equal(pts, ref_sample_ball(space, ball.center, 1.0, 64, 0))
    assert all(sk.contains_point(space, ball, y, 1e-12) for y in pts)
    # n = 50 needs 29 of the 11,000 candidates the budget allows; for these seeds the
    # 29th acceptance is candidate 10,997 or 10,998 (sampled) or 11,003 or 11,013 (filled),
    # so a chunk that overran the budget would change the outcome
    outcomes = []
    for seed in (339, 593, 711, 986):
        assert np.array_equal(sk.sample(space, ball, 50, seed),
                              ref_sample_ball(space, ball.center, 1.0, 50, seed))
        try:
            ref_sample_ball(space, ball.center, 1.0, 50, seed, fill=False)
            outcomes.append("sampled")
        except sk.SamplingBudgetError:
            outcomes.append("filled")
    assert outcomes == ["sampled", "sampled", "filled", "filled"]
    # at n = 20 the center and the 20 axis points suffice
    assert np.array_equal(sk.sample(space, ball, 20, 0),
                          ref_sample_ball(space, ball.center, 1.0, 20, 0))


def ref_sample_orthant(space, s, n, seed):
    rng = rng_for(seed, 0)
    pts = [s.apex.copy()]
    scale = 1.0 + float(np.max(np.abs(s.apex)))
    while len(pts) < n:
        pts.append(s.apex + np.abs(rng.standard_normal(space.dim)) * scale)
    return np.array(pts[:n])


def ref_sample_region(space, s, n, seed, box=None):
    """The one-candidate-at-a-time region sampler, and how many points each stage gave.

    The stages are the LP argpoints, accepted candidates, one-row
    projections, and Dirichlet combinations of the argpoints.
    """
    rng = rng_for(seed, 0)
    a, b = s.forms()
    lo, hi, argpoints = s.extent()
    if box is None:
        scale = 1.0 + float(np.abs(b).max())
        lo = np.where(np.isfinite(lo), lo, -10.0 * scale)
        hi = np.where(np.isfinite(hi), hi, 10.0 * scale)
    else:
        lo, hi = np.asarray(box[0], dtype=float), np.asarray(box[1], dtype=float)
    lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
    pts = list(argpoints[:n])
    stages = [len(pts), 0, 0, 0]
    budget = 60 * n + 600
    while len(pts) < n and budget > 0:
        cand = rng.uniform(lo, hi)
        budget -= 1
        if (np.vecdot(a, cand) <= b + 1e-12).all():
            pts.append(cand)
            stages[1] += 1
    while len(pts) < n:
        z = geometry._project_region(s, b, rng.uniform(lo, hi)[None])[0][0]
        if not (np.vecdot(a, z) <= b + 1e-9 * np.maximum(1.0, np.abs(b))).all():
            break
        pts.append(z)
        stages[2] += 1
    if len(pts) < n:
        stages[3] = n - len(pts)
        pts.extend(rng.dirichlet(np.ones(len(argpoints)), size=n - len(pts)) @ argpoints)
    return np.array(pts[:n]), stages


def same_bits(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def assert_region_sample_matches(space, s, n, seed, box=None):
    """sample() equals the scalar loop by float hex; returns the loop's stage counts."""
    want, stages = ref_sample_region(space, s, n, seed, box)
    assert same_bits(sk.sample(space, s, n, seed, box=box), want), (n, seed, stages)
    return stages


def tilted_sublinear_image(x):
    """A 6-d sublinear image that is thin where x has coordinates near 0."""
    rng = np.random.default_rng(100)
    groups = tuple(np.vstack([np.eye(6)[i], -np.eye(6)[i]]) + 0.3 * rng.standard_normal((2, 6))
                   for i in range(6))
    return sk.eval_map(sk.SublinearSystem(groups), np.array(x))


def test_region_sampler_equals_scalar_loop_on_random_regions():
    rng = np.random.default_rng(23)
    stages = np.zeros(4, dtype=int)
    for dim in range(1, 6):
        space = sk.NormedSpace(dim)
        for scale in (1e-3, 1.0, 1e3):
            s = random_region(rng, dim, scale)
            for n, seed in ((1, 0), (2 * dim - 1, 1), (17, 2), (64, 3)):
                stages += assert_region_sample_matches(space, s, n, seed)
            box = (-2.0 * scale * np.ones(dim), 2.0 * scale * np.ones(dim))
            stages += assert_region_sample_matches(space, s, 9, 4, box=box)
    assert stages[0] > 0 and stages[1] > 0


def test_region_sampler_below_the_argpoint_count_draws_nothing():
    s = random_region(np.random.default_rng(4), 3)
    assert len(s.extent()[2]) == 6
    for n in (1, 5, 6):
        assert assert_region_sample_matches(sk.NormedSpace(3), s, n, seed=n) == [n, 0, 0, 0]


def test_region_sampler_fallbacks_follow_the_spent_budget():
    # a slab of width 1e-7: no candidate is accepted, every other point is projected
    a = np.array([[1.0, 1.0], [-1.0, -1.0]])
    slab = sk.SublevelRegion((sk.FormGroup(a[:1], 1.0), sk.FormGroup(a[1:], -1.0 + 1e-7),
                              sk.FormGroup(np.vstack([np.eye(2), -np.eye(2)]), 2.0)))
    assert assert_region_sample_matches(sk.NormedSpace(2), slab, 40, 3)[1:] == [0, 36, 0]
    # thin 6-d images: a few candidates are accepted before the budget runs out,
    # then projections follow, every one certified and inside
    space = sk.NormedSpace(6, "max")
    partial = tilted_sublinear_image([0.01, 0.114, -0.163, -1.751, 0.565, 1.411])
    _, accepted, projected, combined = assert_region_sample_matches(space, partial, 24, 6)
    assert accepted > 0 and projected > 0 and combined == 0
    thin = tilted_sublinear_image([0.2, 0.23, 0.001, -0.3, 0.3, 1.87])
    _, accepted, projected, combined = assert_region_sample_matches(space, thin, 24, 12)
    assert accepted > 0 and projected > 0 and combined == 0


def test_region_sampler_combines_argpoints_after_a_projection_ends_outside(monkeypatch):
    # the projections above are certified and end inside; one that ends outside (here:
    # any draw with a positive first coordinate is left where it is) stops them, and
    # Dirichlet combinations of the argpoints fill the rest
    real = geometry._project_region

    def stops(s, b, ys):
        z, g, certified = real(s, b, ys)
        z[ys[:, 0] > 0.0] = ys[ys[:, 0] > 0.0]
        return z, g, certified

    monkeypatch.setattr(geometry, "_project_region", stops)
    space = sk.NormedSpace(6, "max")
    thin = tilted_sublinear_image([0.2, 0.23, 0.001, -0.3, 0.3, 1.87])
    _, accepted, projected, combined = assert_region_sample_matches(space, thin, 24, 12)
    assert accepted > 0 and projected > 0 and combined > 0


@pytest.mark.parametrize("dim", [1, 2, 5])
def test_orthant_sampler_equals_scalar_loop(dim):
    rng = np.random.default_rng(dim)
    space = sk.NormedSpace(dim)
    for apex in (np.zeros(dim), rng.standard_normal(dim), 1e3 * rng.standard_normal(dim)):
        s = sk.Orthant(apex)
        for n, seed in ((1, 0), (2, 1), (33, 2)):
            assert same_bits(sk.sample(space, s, n, seed), ref_sample_orthant(space, s, n, seed))


@pytest.mark.parametrize("norm,p", NORMS)
def test_the_distance_to_an_empty_region_is_inf_exact(norm, p):
    space = sk.NormedSpace(2, norm, p)
    # {y : y_1 <= -1, -y_1 <= -1}: no point meets both forms
    region = sk.SublevelRegion((sk.FormGroup(np.array([[1.0, 0.0]]), -1.0),
                                sk.FormGroup(np.array([[-1.0, 0.0]]), -1.0)))
    d = sk.dist_point(space, np.zeros(2), region)
    assert (float(d), d.error, d.approximate) == (np.inf, 0.0, False)
    # a zero form with a negative bound empties a region too
    zero_row = sk.SublevelRegion((sk.FormGroup(np.array([[1.0, 0.0], [0.0, 0.0]]), -1.0),))
    assert float(sk.dist_point(space, np.zeros(2), zero_row)) == np.inf
    # a sampled supremum and a vertex maximum over it: +inf, exact, whatever the samples
    for source in (sk.Ball(np.zeros(2), 1.0), sk.Box(-np.ones(2), np.ones(2))):
        e = sk.excess(space, source, region, n_samples=16)
        assert (float(e), e.error, e.approximate, e.note) == (np.inf, 0.0, False, "empty region")


@pytest.mark.parametrize("norm,p", (("euclidean", None), ("p", 3.0)))
def test_a_row_the_projection_leaves_outside_gets_a_sound_bracket(norm, p):
    # a wedge |y_2| <= eps*y_1 whose sides are nearly parallel: from (-1, 0) the
    # nearest point is the apex, at distance 1, where both sides are active; cyclic
    # projections crawled toward it, the active set of both sides lands on it
    space = sk.NormedSpace(2, norm, p)
    eps = 1e-3
    wedge = sk.SublevelRegion((sk.FormGroup(np.array([[-eps, 1.0]]), 0.0),
                               sk.FormGroup(np.array([[-eps, -1.0]]), 0.0)))
    d = sk.dist_point(space, np.array([-1.0, 0.0]), wedge)
    assert abs(float(d) - 1.0) <= 1e-12
    if norm == "euclidean":
        assert (d.error <= 1e-12, d.approximate, d.note) == (True, False, "")
    else:  # the upper end is the apex's distance, the lower the single-halfspace bound
        assert d.approximate and float(d) - d.error <= 1.0

"""The largest max-norm distance of a point set to a region, bounds first
(`SublevelRegion._farthest`), against the every-row maximum it replaced.

`ref_farthest` solves every outside row and keeps the largest value, as
the vertex maximum and the sampled supremum did before.  The rule must
equal it by float hex (value, error, flag and note), and solve exactly the
programs that `ref_solved` says its bounds leave: the first row, then the
others in decreasing order of bound until one falls below the largest
value by more than the margin.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import setcover_kit as sk
from setcover_kit import geometry
from setcover_kit._lp import LPAnomalyError, max_norm_fit

MARGIN = 1e-6
REGION_KINDS = ("bounded", "unbounded", "empty", "thin", "zero_row")
SOURCE_KINDS = ("sampled", "box", "v_polytope", "point_cloud")


def ref_farthest(space, ys, b):
    """Every row's distance, then the largest, as `_max_distance` took it."""
    d = sk.dists(space, ys, b)
    i = int(np.argmax(d.value))
    far = d.value[i] > 0.0
    return sk.Distance(float(d.value[i]) if far else 0.0, approximate=bool(d.approximate.any()),
                       error=float(d.error.max(initial=0.0)), note=d.note[i] if far else "")


def source_points(space, a, n_samples, seed):
    """The points whose largest distance the excess of a takes: a region's samples, a
    box's corners, a polytope's vertices or a cloud's points."""
    if isinstance(a, sk.SublevelRegion):
        return sk.sample(space, a, n_samples, seed)
    if isinstance(a, sk.Box):
        return a.corners()
    return a.vertices if isinstance(a, sk.VPolytope) else a.points


def ref_excess(space, a, b, n_samples, seed):
    """excess of a vertex kind or a sampled bounded region over a region, from the
    every-row maximum; a sampled supremum over an empty target is +inf, exact."""
    far = ref_farthest(space, source_points(space, a, n_samples, seed), b)
    if not isinstance(a, sk.SublevelRegion):
        return far
    if far.is_infinite:
        return sk.Distance(math.inf, note=far.note)
    flag = sk.boundedness(space, a)
    density_err = 4.0 * flag.radius_hint / n_samples ** (1.0 / space.dim)
    return sk.Distance(float(far), approximate=True, error=far.error + density_err,
                       note="sampled supremum (lower estimate)")


def ref_solved(ys, region):
    """The rows the bound rule solves, in order: the outside row with the largest
    single-halfspace bound, then the others by decreasing segment bound, one member
    and one form row at a time, until a bound is below the largest value by more than
    the margin.  The region is empty where the first program is infeasible."""
    a, b = region.forms()
    viol = np.vecdot(ys[:, None, :], a) - b  # the kernel's membership test
    out = [i for i in range(len(ys)) if (viol[i] > 0.0).any()]
    if not out:
        return []
    dual = np.abs(a).sum(axis=1)
    lower = [max(max(0.0, v) / d for v, d in zip(viol[i], dual) if d > 0.0) for i in out]
    first = out[int(np.argmax(lower))]
    res = max_norm_fit(np.eye(region.dim), ys[first], a_ub=a, b_ub=b)
    rest = [i for i in out if i != first]
    if res is None or not rest:
        return [first]
    try:
        members = list(region.extent()[2])
    except LPAnomalyError:
        members = []
    if members:
        members.append(np.mean(members, axis=0))
    members.append(res.x[:-1])

    def bound(y):
        best = math.inf
        for p in members:
            exits = [(bk - ak @ p) / (ak @ (y - p)) for ak, bk in zip(a, b) if ak @ (y - p) > 0.0]
            t = min(1.0, max(0.0, min(exits, default=math.inf)))
            best = min(best, (1.0 - t) * float(np.abs(y - p).max()))
        return best

    bounds = {i: bound(ys[i]) for i in rest}
    solved, top = [first], float(res.fun)
    for i in sorted(rest, key=lambda i: -bounds[i]):
        if bounds[i] < top - MARGIN * (1.0 + top):
            break
        solved.append(i)
        top = max(top, float(max_norm_fit(np.eye(region.dim), ys[i], a_ub=a, b_ub=b).fun))
    return solved


def box_rows(lo, hi):
    eye = np.eye(len(lo))
    return [sk.FormGroup(sign * eye[i:i + 1], sign * end[i])
            for sign, end in ((1.0, hi), (-1.0, lo)) for i in range(len(lo))]


def make_region(kind, dim, rng, scale):
    """A target region of the given kind, about the origin at the given scale."""
    half = scale * rng.uniform(0.5, 1.5, dim)
    if kind == "thin":  # one coordinate of width 2e-7 relative
        half[int(rng.integers(dim))] = 1e-7 * scale
    groups = box_rows(-half, half)
    if kind == "unbounded":  # at most dim halfspaces (and the tilted ones) about the origin
        groups = [sk.FormGroup(rng.standard_normal((1, dim)), scale * float(rng.uniform(0.2, 1.0)))
                  for _ in range(int(rng.integers(1, dim + 1)))]
    tilt = rng.standard_normal((int(rng.integers(0, 3)), dim))
    groups += [sk.FormGroup(row[None], scale * float(rng.uniform(0.3, 1.0))
                            * float(np.abs(row).sum())) for row in tilt]
    if kind == "empty":  # row.y <= -scale and row.y >= scale: no point meets both
        row = rng.standard_normal(dim)
        groups += [sk.FormGroup(row[None], -scale), sk.FormGroup(-row[None], -scale)]
    if kind == "zero_row":
        groups.append(sk.FormGroup(np.zeros((1, dim)), scale * float(rng.uniform(0.0, 1.0))))
    return sk.SublevelRegion(tuple(groups[i] for i in rng.permutation(len(groups))))


def make_source(kind, dim, n, rng, scale):
    """A source of the given kind with n points (corners of a box: 2**dim), drawn from a
    small pool with their mirror images, so that distances tie."""
    pool = scale * rng.choice([0.5, 2.0, 4.0], size=(max(1, n // 3), 1)) \
        * rng.standard_normal((max(1, n // 3), dim))
    pool = np.vstack([pool, -pool])
    pts = pool[rng.integers(len(pool), size=n)]
    if kind == "box":
        half = scale * rng.choice([0.25, 2.0, 3.0]) * np.ones(dim)
        shift = rng.choice([0.0, scale]) * rng.standard_normal(dim)
        return sk.Box(shift - half, shift + half)
    if kind == "v_polytope":
        return sk.VPolytope(pts)
    if kind == "point_cloud":
        return sk.PointCloud(pts)
    half = scale * rng.uniform(0.5, 3.0, dim)
    groups = box_rows(-half, half) + [sk.FormGroup(rng.standard_normal((2, dim)), scale)]
    return sk.SublevelRegion(tuple(groups))


def hexed(e):
    return float(e).hex(), float(e.error).hex(), bool(e.approximate), e.note


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 5),
       region_kind=st.sampled_from(REGION_KINDS), source_kind=st.sampled_from(SOURCE_KINDS),
       n=st.integers(1, 64), scale=st.sampled_from([1e-3, 1.0, 1e3]))
@example(seed=0, dim=1, region_kind="bounded", source_kind="v_polytope", n=2, scale=1e-3)
@example(seed=0, dim=4, region_kind="bounded", source_kind="sampled", n=18, scale=1e-3)
@example(seed=1, dim=3, region_kind="empty", source_kind="sampled", n=16, scale=1.0)
def test_the_bound_rule_is_the_every_row_maximum(seed, dim, region_kind, source_kind, n, scale):
    rng = np.random.default_rng(seed)
    space = sk.NormedSpace(dim, "max")
    region = make_region(region_kind, dim, rng, scale)
    source = make_source(source_kind, dim, n, rng, scale)
    want = ref_excess(space, source, region, n, seed)
    ys = source_points(space, source, n, seed)
    solved = ref_solved(ys, region)
    fits = []

    def counting(mat, y=None, **kwargs):
        fits.append(y)
        return max_norm_fit(mat, y, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "max_norm_fit", counting)
        got = sk.excess(space, source, region, n_samples=n, seed=seed)
    assert hexed(got) == hexed(want)
    assert [list(y) for y in fits] == [list(ys[i]) for i in solved]
    if region_kind == "empty":
        assert hexed(got) == (math.inf.hex(), 0.0.hex(), False, "empty region")


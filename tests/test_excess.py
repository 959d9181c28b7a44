"""Excess by the source kind's own rule: every pair of set kinds under three norms,
compared by float hex with the one pair table that `excess` was before each kind
took its `_excess` rule (`ref_excess`)."""

import itertools
import math

import numpy as np
import pytest

import setcover_kit as sk
from setcover_kit.geometry import BOX_CORNER_CAP, Family, outer_radius

NORMS = {"euclidean": {}, "max": {"norm": "max"}, "p3": {"norm": "p", "p": 3.0}}
N_SAMPLES, SEED = 24, 5


def ref_max_distance(space, pts, b):
    d = sk.dists(space, pts, b)
    i = int(np.argmax(d.value))
    far = d.value[i] > 0.0
    return sk.Distance(float(d.value[i]) if far else 0.0, approximate=bool(d.approximate.any()),
                       error=float(d.error.max(initial=0.0)), note=d.note[i] if far else "")


def ref_sampled_excess(space, a, b, n_samples, seed):
    d = sk.dists(space, sk.sample(space, a, n_samples, seed), b)
    val = float(d.value.max(initial=0.0))
    err = float(d.error.max(initial=0.0))
    flag = sk.boundedness(space, a)
    spread = (flag.radius_hint or 1.0)
    density_err = 4.0 * spread / max(1, n_samples) ** (1.0 / max(1, space.dim))
    return sk.Distance(val, approximate=True, error=err + density_err,
                       note="sampled supremum (lower estimate)")


def ref_excess(space, a, b, n_samples=256, seed=0):
    """excess as one table over pairs of kinds, before each source kind took its own
    rule.  One line differs from that table: an enlarged source over a target that is
    no ball adds the inner estimate's error to its margin bracket, where the table
    reported the margin alone (an unsound bracket over a sampled inner excess)."""
    if a.dim != space.dim or b.dim != space.dim:
        raise sk.DimensionMismatchError("excess operands must live in the ambient space")

    if isinstance(b, sk.EnlargedSet):
        inner = ref_excess(space, a, b.base, n_samples=n_samples, seed=seed)
        val = max(0.0, float(inner) - b.margin)
        return sk.Distance(val, approximate=inner.approximate, error=inner.error,
                           note=inner.note)

    if isinstance(a, sk.PointCloud):
        return ref_max_distance(space, a.points, b)
    if isinstance(a, sk.VPolytope) and b.convex:
        return ref_max_distance(space, a.vertices, b)
    if isinstance(a, sk.Box) and b.convex and 2**a.dim <= BOX_CORNER_CAP:
        return ref_max_distance(space, a.corners(), b)
    if isinstance(a, (sk.Ball, sk.Sphere)):
        if isinstance(b, (sk.Ball, sk.Sphere)):
            return sk.Distance(Family.of([a]).excesses(space, Family.of([b])).item(0))
        if isinstance(b, sk.PointCloud) and b.points.shape[0] == 1:
            return outer_radius(space, a, b.points[0])
    if isinstance(a, sk.Orthant):
        if isinstance(b, sk.Orthant):
            gap = np.maximum(0.0, b.apex - a.apex)
            return sk.Distance(space.norm_of(gap))
        return sk.Distance(math.inf, note="unbounded orthant over a non-absorbing target")
    if isinstance(a, sk.EnlargedSet):
        if isinstance(b, sk.Ball):
            rad = outer_radius(space, a, b.center)
            return sk.Distance(max(0.0, float(rad) - b.radius),
                               approximate=rad.approximate, error=rad.error)
        inner = ref_excess(space, a.base, b, n_samples=n_samples, seed=seed)
        if inner.is_infinite:
            return inner
        return sk.Distance(float(inner) + a.margin, approximate=True,
                           error=inner.error + a.margin,
                           note="enlargement excess bracketed by its margin")
    if isinstance(a, sk.SublevelRegion):
        flag = sk.boundedness(space, a)
        if not flag.bounded:
            return sk.Distance(math.inf, note="region not certified bounded; excess sentinel")
        return ref_sampled_excess(space, a, b, n_samples, seed)
    return ref_sampled_excess(space, a, b, n_samples, seed)


def ref_hausdorff(space, a, b, n_samples=256, seed=0):
    e_ab = ref_excess(space, a, b, n_samples=n_samples, seed=seed)
    e_ba = ref_excess(space, b, a, n_samples=n_samples, seed=seed)
    return sk.Distance(max(float(e_ab), float(e_ba)),
                       approximate=e_ab.approximate or e_ba.approximate,
                       error=max(e_ab.error, e_ba.error), note=e_ab.note or e_ba.note)


def catalog(d):
    """One set of each kind in R^d, with a one-point cloud, an unbounded region, a
    second orthant and two enlargements beside them: each pair rule has a pair that
    reaches it."""
    eye = np.eye(d)
    square = sk.SublevelRegion((sk.FormGroup(np.vstack([eye, -eye]), 1.0),
                                sk.FormGroup(np.ones((1, d)), 1.5)))
    polytope = sk.VPolytope(np.vstack([np.zeros(d), np.diag([2.0, 1.0, 1.5][:d])]) - 0.25)
    return {
        "ball": sk.Ball(np.array([1.0, -0.5, 0.25][:d]), 0.75),
        "sphere": sk.Sphere(np.array([0.0, 2.0, -1.0][:d]), 1.5),
        "box": sk.Box(np.array([-1.0, 0.0, -0.5][:d]), np.array([1.0, 2.0, 0.5][:d])),
        "v_polytope": polytope,
        "point_cloud": sk.PointCloud(np.array([[1.0, 1.0, 1.0], [-2.0, 0.5, 0.0]])[:, :d]),
        "point": sk.PointCloud(np.array([[0.5, -1.0, 2.0][:d]])),
        "region": square,
        "half_space": sk.SublevelRegion((sk.FormGroup(np.array([[1.0, -0.5, 0.25][:d]]), 0.5),)),
        "orthant": sk.Orthant(np.array([0.5, -1.0, 0.0][:d])),
        "orthant_2": sk.Orthant(np.array([1.0, -2.0, 0.5][:d])),
        "enlarged_region": sk.EnlargedSet(square, 0.25),
        "enlarged_polytope": sk.EnlargedSet(polytope, 0.5),
    }


def hexed(e):
    return float(e).hex(), float(e.error).hex(), e.approximate, e.note


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("norm", sorted(NORMS))
def test_excess_and_hausdorff_equal_the_pair_table(norm, d):
    space = sk.NormedSpace(d, **NORMS[norm])
    sets = catalog(d)
    for (na, a), (nb, b) in itertools.product(sets.items(), repeat=2):
        got = sk.excess(space, a, b, n_samples=N_SAMPLES, seed=SEED)
        want = ref_excess(space, a, b, n_samples=N_SAMPLES, seed=SEED)
        assert hexed(got) == hexed(want), (na, nb)
        got = sk.hausdorff(space, a, b, n_samples=N_SAMPLES, seed=SEED)
        want = ref_hausdorff(space, a, b, n_samples=N_SAMPLES, seed=SEED)
        assert hexed(got) == hexed(want), (na, nb)


def test_enlarged_source_bracket_holds_the_true_excess():
    # sup over the 0.01-enlarged unit square of the distance to (-1, -1) is
    # 2 sqrt(2) + 0.01; the sampled inner estimate falls short of 2 sqrt(2)
    space = sk.NormedSpace(2)
    square = sk.SublevelRegion((sk.FormGroup(np.eye(2), 1.0), sk.FormGroup(-np.eye(2), 0.0)))
    e = sk.excess(space, sk.EnlargedSet(square, 0.01), sk.PointCloud([[-1.0, -1.0]]),
                  n_samples=16)
    true = 2.0 * math.sqrt(2.0) + 0.01
    assert e.approximate
    assert float(e) - e.error <= true <= float(e) + e.error

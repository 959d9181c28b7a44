"""Geometry layer: distances, excess, Hausdorff, enlargement, sampling."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import setcover_kit as sk
from setcover_kit.geometry import outer_radius, rng_for

EU2 = sk.NormedSpace(2)
EU3 = sk.NormedSpace(3)
MAX2 = sk.NormedSpace(2, "max")
P3 = sk.NormedSpace(2, "p", p=3.0)


# ---------------------------------------------------------------------------
# normed space axioms


class TestNormedSpace:
    def test_invariants(self):
        with pytest.raises(ValueError):
            sk.NormedSpace(0)
        with pytest.raises(ValueError):
            sk.NormedSpace(2, "p", p=0.5)
        with pytest.raises(ValueError):
            sk.NormedSpace(2, "nope")

    def test_zero(self):
        for sp in (EU2, MAX2, P3):
            assert sp.norm_of(np.zeros(2)) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_homogeneity_and_triangle(self, seed):
        rng = rng_for(seed, 0)
        for sp in (EU2, MAX2, P3, EU3):
            dim = sp.dim
            x = rng.uniform(-10, 10, dim)
            y = rng.uniform(-10, 10, dim)
            t = float(rng.uniform(-4, 4))
            scale = 1.0 + sp.norm_of(x) + sp.norm_of(y)
            assert abs(sp.norm_of(t * x) - abs(t) * sp.norm_of(x)) <= 1e-12 * scale * (1 + abs(t))
            assert sp.norm_of(x + y) <= sp.norm_of(x) + sp.norm_of(y) + 1e-12 * scale

    def test_dual_norm_pairs(self):
        v = np.array([3.0, -4.0])
        assert EU2.dual_norm_of(v) == pytest.approx(5.0)
        assert MAX2.dual_norm_of(v) == pytest.approx(7.0)  # dual of max is the 1-norm
        q = 3.0 / 2.0
        assert P3.dual_norm_of(v) == pytest.approx((3.0**q + 4.0**q) ** (1 / q))

    def test_dimension_mismatch(self):
        with pytest.raises(sk.DimensionMismatchError):
            sk.dist_point(EU2, [1.0, 2.0, 3.0], sk.Ball(np.zeros(2), 1.0))


# ---------------------------------------------------------------------------
# dist_point


class TestDistPoint:
    def test_ball_outside(self):
        assert sk.dist_point(EU2, [3.0, 0.0], sk.Ball(np.zeros(2), 1.0)) == 2.0

    def test_inside_is_zero(self):
        assert sk.dist_point(EU2, [0.2, -0.3], sk.Ball(np.zeros(2), 1.0)) == 0.0
        assert sk.dist_point(EU2, [0.5, 0.5], sk.Box(np.zeros(2), np.ones(2))) == 0.0

    def test_sphere_against_dense_sampling_oracle(self):
        # independent oracle: minimize over a dense boundary sampling
        s = sk.Sphere(np.zeros(2), 1.0)
        y = np.array([0.0, 2.0])
        thetas = np.linspace(0, 2 * np.pi, 20001)
        pts = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
        oracle = float(np.min(np.linalg.norm(pts - y, axis=1)))
        val = sk.dist_point(EU2, y, s)
        assert val == pytest.approx(1.0, abs=1e-12)
        assert abs(val - oracle) <= 1e-6

    def test_sphere_inside(self):
        assert sk.dist_point(EU2, [0.25, 0.0], sk.Sphere(np.zeros(2), 1.0)) == 0.75

    def test_box_clamp(self):
        b = sk.Box(np.array([0.0, 0.0]), np.array([1.0, 2.0]))
        assert sk.dist_point(EU2, [2.0, 3.0], b) == pytest.approx(math.sqrt(2.0))
        assert sk.dist_point(MAX2, [2.0, 3.0], b) == pytest.approx(1.0)

    def test_orthant_all_norms(self):
        o = sk.Orthant(np.array([1.0, 1.0]))
        y = [0.0, 0.5]
        assert sk.dist_point(EU2, y, o) == pytest.approx(math.hypot(1.0, 0.5))
        assert sk.dist_point(MAX2, y, o) == pytest.approx(1.0)
        assert sk.dist_point(P3, y, o) == pytest.approx((1.0**3 + 0.5**3) ** (1 / 3))

    def test_point_cloud(self):
        pc = sk.PointCloud([[0.0, 0.0], [5.0, 0.0]])
        assert sk.dist_point(EU2, [4.0, 0.0], pc) == 1.0

    def test_polytope_euclidean_projection(self):
        v = sk.VPolytope([[0.0, 0.0], [2.0, 0.0]])
        d = sk.dist_point(EU2, [1.0, 1.0], v)
        assert d == pytest.approx(1.0, abs=1e-9)
        assert not d.approximate
        # off-segment endpoint case
        assert sk.dist_point(EU2, [3.0, 0.0], v) == pytest.approx(1.0, abs=1e-9)

    def test_polytope_max_norm_exact(self):
        v = sk.VPolytope([[0.0, 0.0], [2.0, 0.0]])
        d = sk.dist_point(MAX2, [3.0, 0.5], v)
        assert d == pytest.approx(1.0, abs=1e-9)

    def test_polytope_p_norm_is_bracketed(self):
        v = sk.VPolytope([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
        d = sk.dist_point(P3, [-1.0, -1.0], v)
        assert float(d) > 0
        assert d.error >= 0  # carries an explicit bracket, never a silent value

    def test_region_distance(self):
        # unit square as single-form groups
        region = sk.SublevelRegion((
            sk.FormGroup(np.array([[1.0, 0.0]]), 1.0),
            sk.FormGroup(np.array([[-1.0, 0.0]]), 0.0),
            sk.FormGroup(np.array([[0.0, 1.0]]), 1.0),
            sk.FormGroup(np.array([[0.0, -1.0]]), 0.0),
        ))
        assert sk.dist_point(EU2, [0.5, 0.5], region) == 0.0
        d = sk.dist_point(EU2, [2.0, 0.5], region)
        assert d == pytest.approx(1.0, abs=1e-7)
        d_max = sk.dist_point(MAX2, [2.0, 2.0], region)
        assert d_max == pytest.approx(1.0, abs=1e-9)

    def test_enlarged_set_distance(self):
        s = sk.enlarge(EU2, sk.Sphere(np.zeros(2), 1.0), 0.25)
        assert isinstance(s, sk.EnlargedSet)
        assert sk.dist_point(EU2, [0.0, 2.0], s) == pytest.approx(0.75)


# ---------------------------------------------------------------------------
# excess / hausdorff


class TestExcess:
    def test_ball_over_ball(self):
        a = sk.Ball(np.zeros(2), 1.0)
        b = sk.Ball(np.array([3.0, 0.0]), 1.0)
        assert sk.excess(EU2, a, b) == 3.0

    def test_identity_zero(self):
        a = sk.Ball(np.array([1.0, -2.0]), 1.5)
        assert sk.excess(EU2, a, a) == 0.0
        p = sk.VPolytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert sk.excess(EU2, p, p) <= 1e-9

    def test_vertex_enumeration(self):
        p = sk.VPolytope([[0.0, 0.0], [2.0, 0.0]])
        assert sk.excess(EU2, p, sk.Ball(np.zeros(2), 1.0)) == pytest.approx(1.0, abs=1e-9)

    def test_nested_balls_hausdorff(self):
        c = np.array([0.3, -0.7])
        assert sk.hausdorff(EU2, sk.Ball(c, 1.0), sk.Ball(c, 2.0)) == 1.0

    def test_hausdorff_points(self):
        assert sk.hausdorff(EU2, sk.PointCloud([[0.0, 0.0]]), sk.PointCloud([[3.0, 4.0]])) == 5.0

    def test_orthant_over_orthant(self):
        a, b = sk.Orthant(np.zeros(2)), sk.Orthant(np.array([1.0, -1.0]))
        assert sk.excess(MAX2, a, b) == 1.0
        assert sk.excess(EU2, a, b) == 1.0
        # an orthant whose apex dominates is contained: zero excess
        assert sk.excess(EU2, sk.Orthant(np.array([1.0, 1.0])), a) == 0.0

    def test_unbounded_sentinel(self):
        a = sk.Orthant(np.zeros(2))
        e = sk.excess(EU2, a, sk.Ball(np.zeros(2), 10.0))
        assert e.is_infinite and e.note

    def test_enlarged_target_margin_rule(self):
        a = sk.Ball(np.zeros(2), 1.0)
        b = sk.enlarge(EU2, sk.Sphere(np.array([3.0, 0.0]), 1.0), 0.5)
        # exc over sphere = 3, minus enlargement margin
        assert sk.excess(EU2, a, b) == pytest.approx(2.5)

    def test_sphere_over_sphere(self):
        s1 = sk.Sphere(np.zeros(2), 2.0)
        s2 = sk.Sphere(np.array([1.0, 0.0]), 0.5)
        # distance band from s2's center over s1 is [1, 3]; max |t - 0.5|
        assert sk.excess(EU2, s1, s2) == pytest.approx(2.5)

    def test_ball_over_sphere_center_inside(self):
        # the sphere's center lies inside the ball: the band starts at zero
        a = sk.Ball(np.array([0.5, 0.0]), 1.0)
        b = sk.Sphere(np.zeros(2), 2.0)
        assert sk.excess(EU2, a, b) == pytest.approx(2.0)

    def test_ball_over_sphere_brute_force(self):
        rng = rng_for(23, 0)
        for _ in range(50):
            a = sk.Ball(rng.uniform(-3, 3, 2), float(rng.uniform(0.1, 2.5)))
            b = sk.Sphere(rng.uniform(-3, 3, 2), float(rng.uniform(0.1, 2.5)))
            exact = float(sk.excess(EU2, a, b))
            pts = sk.sample(EU2, a, 4000, seed=1)
            brute = max(float(sk.dist_point(EU2, p, b)) for p in pts)
            assert brute <= exact + 1e-9
            assert exact - brute <= 0.15  # dense sampling approaches the sup

    def test_excess_triangle_balls(self):
        rng = rng_for(7, 0)
        for _ in range(100):
            balls = [sk.Ball(rng.uniform(-5, 5, 2), float(rng.uniform(0.1, 3)))
                     for _ in range(3)]
            a, b, c = balls
            assert float(sk.excess(EU2, a, c)) <= \
                float(sk.excess(EU2, a, b)) + float(sk.excess(EU2, b, c)) + 1e-9

    def test_excess_triangle_polytopes_and_clouds(self):
        rng = rng_for(11, 0)
        for _ in range(50):
            polys = [sk.VPolytope(rng.uniform(-4, 4, (4, 2))) for _ in range(3)]
            a, b, c = polys
            assert float(sk.excess(EU2, a, c)) <= \
                float(sk.excess(EU2, a, b)) + float(sk.excess(EU2, b, c)) + 1e-9
            clouds = [sk.PointCloud(rng.uniform(-4, 4, (5, 2))) for _ in range(3)]
            a, b, c = clouds
            assert float(sk.excess(EU2, a, c)) <= \
                float(sk.excess(EU2, a, b)) + float(sk.excess(EU2, b, c)) + 1e-9

    def test_hausdorff_metric_properties(self):
        rng = rng_for(13, 0)
        for _ in range(50):
            a = sk.Ball(rng.uniform(-5, 5, 2), float(rng.uniform(0.1, 3)))
            b = sk.Ball(rng.uniform(-5, 5, 2), float(rng.uniform(0.1, 3)))
            c = sk.Ball(rng.uniform(-5, 5, 2), float(rng.uniform(0.1, 3)))
            assert float(sk.hausdorff(EU2, a, b)) == float(sk.hausdorff(EU2, b, a))
            assert float(sk.hausdorff(EU2, a, c)) <= \
                float(sk.hausdorff(EU2, a, b)) + float(sk.hausdorff(EU2, b, c)) + 1e-9

    def test_zero_excess_iff_sampled_containment(self):
        a = sk.Ball(np.array([0.5, 0.0]), 0.5)
        b = sk.Ball(np.zeros(2), 1.0)
        assert sk.excess(EU2, a, b) == 0.0
        for p in sk.sample(EU2, a, 64, seed=3):
            assert sk.dist_point(EU2, p, b) <= 1e-9
        c = sk.Ball(np.array([1.5, 0.0]), 0.5)  # pokes out
        assert sk.excess(EU2, c, b) > 0
        pts = sk.sample(EU2, c, 64, seed=3)
        assert max(float(sk.dist_point(EU2, p, b)) for p in pts) > 1e-9

    @pytest.mark.parametrize("space", [EU2, MAX2, P3])
    def test_ball_over_ball_brute_force(self, space):
        """Closed form vs boundary-sampling maximization, 100 instances per norm."""
        rng = rng_for(hash(space.norm) % 1000, 5)
        thetas = np.linspace(0.0, 2 * np.pi, 512, endpoint=False)
        for _ in range(100):
            c1, c2 = rng.uniform(-5, 5, 2), rng.uniform(-5, 5, 2)
            r1, r2 = rng.uniform(0.1, 3.0, 2)
            a, b = sk.Ball(c1, float(r1)), sk.Ball(c2, float(r2))
            exact = float(sk.excess(space, a, b))

            def val(theta):
                v = np.array([math.cos(theta), math.sin(theta)])
                p = c1 + r1 * v / space.norm_of(v)
                return float(sk.dist_point(space, p, b))

            best_t = max(thetas, key=val)
            lo, hi = best_t - 2 * np.pi / 512, best_t + 2 * np.pi / 512
            for _ in range(60):  # golden-section refinement
                m1, m2 = lo + 0.382 * (hi - lo), lo + 0.618 * (hi - lo)
                if val(m1) < val(m2):
                    lo = m1
                else:
                    hi = m2
            brute = max(val(0.5 * (lo + hi)), val(best_t))
            assert abs(exact - brute) <= 1e-6


# ---------------------------------------------------------------------------
# enlarge / translate


class TestEnlarge:
    def test_ball_exact(self):
        c = np.array([1.0, 2.0])
        out = sk.enlarge(EU2, sk.Ball(c, 1.0), 0.5)
        assert isinstance(out, sk.Ball) and out.radius == 1.5

    def test_zero_is_identity(self):
        s = sk.Sphere(np.zeros(2), 1.0)
        assert sk.enlarge(EU2, s, 0.0) is s

    def test_orthant_max_norm_componentwise_oracle(self):
        out = sk.enlarge(MAX2, sk.Orthant(np.array([1.0, 1.0])), 0.25)
        assert isinstance(out, sk.Orthant)
        assert np.allclose(out.apex, [0.75, 0.75])
        # oracle: max_i max(0, apex_i - y_i) <= r defines the enlargement
        rng = rng_for(3, 1)
        for _ in range(200):
            y = rng.uniform(0.0, 2.0, 2)
            inside_oracle = max(max(0.0, 1.0 - y[0]), max(0.0, 1.0 - y[1])) <= 0.25
            assert sk.contains_point(MAX2, out, y, tol=1e-12) == inside_oracle

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            sk.enlarge(EU2, sk.Ball(np.zeros(2), 1.0), -0.1)

    def test_wrapper_composes(self):
        s = sk.Sphere(np.zeros(2), 1.0)
        once = sk.enlarge(EU2, s, 0.25)
        twice = sk.enlarge(EU2, once, 0.25)
        assert isinstance(twice, sk.EnlargedSet) and twice.margin == 0.5

    def test_translate_region_exact(self):
        region = sk.SublevelRegion((sk.FormGroup(np.array([[1.0, 0.0], [-1.0, 0.0]]), 1.0),))
        moved = sk.translate_set(region, np.array([2.0, 0.0]))
        assert sk.contains_point(EU2, moved, [2.9, 5.0])
        assert not sk.contains_point(EU2, moved, [3.1, 0.0])


# ---------------------------------------------------------------------------
# sampling


class TestSample:
    def test_ball_membership_postcondition(self):
        for space in (EU2, MAX2, P3):
            pts = sk.sample(space, sk.Ball(np.zeros(2), 1.0), 50, seed=0)
            assert all(space.norm_of(p) <= 1 + 1e-12 for p in pts)

    def test_polytope_includes_vertices(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        pts = sk.sample(EU2, sk.VPolytope(verts), 10, seed=1)
        for v in verts:
            assert any(np.allclose(v, p) for p in pts)

    def test_determinism(self):
        s = sk.Ball(np.array([2.0, -1.0]), 1.3)
        a = sk.sample(EU2, s, 33, seed=42)
        b = sk.sample(EU2, s, 33, seed=42)
        assert np.array_equal(a, b)
        c = sk.sample(EU2, s, 33, seed=43)
        assert not np.array_equal(a, c)

    def test_region_samples_are_members(self):
        region = sk.SublevelRegion((
            sk.FormGroup(np.array([[1.0, 0.0], [-1.0, 0.0]]), 2.0),
            sk.FormGroup(np.array([[0.0, 1.0], [0.0, -1.0]]), 1.0),
        ))
        pts = sk.sample(EU2, region, 40, seed=5)
        assert all(sk.contains_point(EU2, region, p, tol=1e-9) for p in pts)

    def test_enlargement_samples_are_members(self):
        s = sk.Sphere(np.zeros(2), 1.0)
        rho = 0.3
        pts = sk.sample_enlargement(EU2, s, rho, 40, seed=6)
        enlarged = sk.enlarge(EU2, s, rho)
        assert all(sk.contains_point(EU2, enlarged, p, tol=1e-9) for p in pts)

    def test_enlargement_samples_refuse_a_negative_radius(self):
        ball = sk.Ball(np.zeros(2), 1.0)
        with pytest.raises(ValueError, match="radius must be >= 0"):
            sk.sample_enlargement(EU2, ball, -0.5, 40, seed=6)
        pts = sk.sample_enlargement(EU2, ball, 0.0, 40, seed=6)  # the set's own points
        assert all(sk.contains_point(EU2, ball, p, tol=1e-12) for p in pts)

    def test_thin_set_budget_error_advises(self):
        # a degenerate box is fine (corners), but a thin region without box is projected onto
        region = sk.SublevelRegion((
            sk.FormGroup(np.array([[1.0, 0.0], [-1.0, 0.0]]), 0.0),  # x == 0 slab
            sk.FormGroup(np.array([[0.0, 1.0], [0.0, -1.0]]), 1.0),
        ))
        pts = sk.sample(EU2, region, 16, seed=7)  # projection fallback still succeeds
        assert all(sk.contains_point(EU2, region, p, tol=1e-6) for p in pts)


# ---------------------------------------------------------------------------
# boundedness / serialization


class TestMisc:
    def test_boundedness_flags(self):
        assert sk.boundedness(EU2, sk.Ball(np.zeros(2), 1.0)).bounded
        assert sk.boundedness(EU2, sk.Sphere(np.zeros(2), 1.0)).bounded
        assert not sk.boundedness(EU2, sk.Orthant(np.zeros(2))).bounded
        bounded_region = sk.SublevelRegion((
            sk.FormGroup(np.array([[1.0, 0.0], [-1.0, 0.0]]), 1.0),
            sk.FormGroup(np.array([[0.0, 1.0], [0.0, -1.0]]), 1.0),
        ))
        assert sk.boundedness(EU2, bounded_region).bounded
        unbounded_region = sk.SublevelRegion((sk.FormGroup(np.array([[1.0, 0.0]]), 1.0),))
        assert not sk.boundedness(EU2, unbounded_region).bounded

    def test_box_radius_matches_corner_enumeration(self):
        rng = rng_for(3, 0)
        for d in range(1, 9):
            spaces = (sk.NormedSpace(d), sk.NormedSpace(d, "max"), sk.NormedSpace(d, "p", p=3.0))
            for _ in range(12):
                lo = rng.standard_normal(d)
                hi = lo + rng.uniform(0.0, 2.0, d) * (rng.uniform(size=d) > 0.2)
                p = rng.standard_normal(d)
                box = sk.Box(lo, hi)
                for sp in spaces:
                    corners = box.corners()
                    assert float(outer_radius(sp, box, p)) == max(sp.dist(c, p) for c in corners)
                    assert sk.boundedness(sp, box).radius_hint == max(sp.norm_of(c) for c in corners)

    def test_box_region_radius_matches_corner_enumeration(self):
        rng = rng_for(4, 0)
        for d in (1, 2, 5, 8):
            lo = rng.standard_normal(d)
            hi = lo + rng.uniform(0.1, 2.0, d)
            region = sk.SublevelRegion(tuple(
                sk.FormGroup(row.reshape(1, -1), b)
                for row, b in zip(np.vstack([np.eye(d), -np.eye(d)]), np.concatenate([hi, -lo]))))
            ext_lo, ext_hi, _ = region.extent()
            corners = sk.Box(ext_lo, ext_hi).corners()
            p = rng.standard_normal(d)
            for sp in (sk.NormedSpace(d), sk.NormedSpace(d, "max"), sk.NormedSpace(d, "p", p=3.0)):
                r = outer_radius(sp, region, p)
                assert float(r) == max(sp.dist(c, p) for c in corners)
                assert r.approximate and r.error == float(r)
                assert sk.boundedness(sp, region).radius_hint == max(sp.norm_of(c) for c in corners)

    def test_eleven_dimensional_box_region_is_bounded(self):
        d = 11
        sp = sk.NormedSpace(d)
        region = sk.SublevelRegion((sk.FormGroup(np.vstack([np.eye(d), -np.eye(d)]), 1.0),))
        flag = sk.boundedness(sp, region)
        assert flag.bounded and flag.radius_hint == pytest.approx(math.sqrt(d))
        assert float(outer_radius(sp, region, np.ones(d))) == pytest.approx(2.0 * math.sqrt(d))
        box = sk.Box(-np.ones(d), np.ones(d))
        assert sk.boundedness(sp, box).radius_hint == pytest.approx(math.sqrt(d))
        assert float(outer_radius(sp, box, np.zeros(d))) == pytest.approx(math.sqrt(d))

    def test_json_round_trip_all_kinds(self):
        def same(a, b):
            if isinstance(a, np.ndarray):
                return a.shape == b.shape and np.array_equal(a, b)
            if isinstance(a, tuple):
                return len(a) == len(b) and all(map(same, a, b))
            if dataclasses.is_dataclass(a):
                return type(a) is type(b) and all(same(getattr(a, f.name), getattr(b, f.name))
                                                  for f in dataclasses.fields(a))
            return a == b

        reps = [
            sk.Ball(np.array([math.pi, -1 / 3]), 0.1 + 1e-13),
            sk.Sphere(np.array([0.0, 2.0]), 1.7),
            sk.Box(np.array([-1.0, 0.0]), np.array([1.0, 2.0])),
            sk.VPolytope(np.array([[0.1, 0.2], [0.3, 0.4]])),
            sk.PointCloud(np.array([[1.0, 1.0]])),
            sk.SublevelRegion((sk.FormGroup(np.array([[1.0, 2.0]]), 3.0),)),
            sk.Orthant(np.array([0.5, -0.5])),
            sk.EnlargedSet(sk.Sphere(np.zeros(2), 1.0), 0.25),
        ]
        for s in reps:
            blob = json.dumps(sk.set_to_json(s))
            back = sk.set_from_json(json.loads(blob))
            assert json.dumps(sk.set_to_json(back)) == blob  # full-precision round trip
            assert same(back, s)
        with pytest.raises(sk.InstanceError) as err:
            sk.set_from_json({"kind": "enlarged", "margin": 0.5,
                              "base": {"kind": "ball", "center": [0.0, "x"], "radius": 1.0}})
        assert err.value.path == "$.base.center[1]"
        with pytest.raises(sk.InstanceError) as err:
            sk.set_from_json({"kind": "ball", "center": [0.0], "radius": -1.0})
        assert err.value.path == "$"

    def test_box_above_corner_cap(self):
        # excess of a 9-d box goes to the sampled supremum, flagged approximate
        e = sk.excess(sk.NormedSpace(9), sk.Box(-np.ones(9), np.ones(9)), sk.Ball(np.zeros(9), 1.0))
        assert e.approximate and float(e) == pytest.approx(2.0)
        pts = sk.sample(sk.NormedSpace(11), sk.Box(-np.ones(11), np.ones(11)), 8, seed=0)
        assert pts.shape == (8, 11) and np.all(np.abs(pts) == 1.0)
        assert len({tuple(p) for p in pts}) == 8
        for d in range(1, 11):  # samples below the old cap are unchanged
            box = sk.Box(-np.arange(1.0, d + 1), np.arange(2.0, d + 2))
            n = min(2**d, 64)
            assert np.array_equal(sk.sample(sk.NormedSpace(d), box, n, seed=0),
                                  box.corners(cap=1024)[:n])

    def test_box_invariant(self):
        with pytest.raises(ValueError):
            sk.Box(np.array([1.0, 0.0]), np.array([0.0, 1.0]))

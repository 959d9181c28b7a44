"""Falsification engine: covering splits, process analysis, inverse bounds."""

import math

import numpy as np
import pytest

import setcover_kit as sk
from setcover_kit.certify import R_RANGE_DEFAULT, _default_box, _draw_trial, recheck_violation
from setcover_kit.geometry import rng_for

EU1 = sk.NormedSpace(1)
EU2 = sk.NormedSpace(2)


def dilation_plane(a=1.0):
    return sk.Dilation(y0=np.zeros(2), a=a, anchor=np.zeros(1), space_y=EU2)


class TestCoveringSplit:
    def test_sphere_scale_covering_at_one(self):
        cert = sk.check_covering(sk.SphereScale(), alpha=1.0, trials=200, seed=0)
        assert cert.verdict == "no-counterexample-found"

    def test_sphere_scale_covering_at_two_falsified(self):
        cert = sk.check_covering(sk.SphereScale(), alpha=2.0, trials=50, seed=0)
        assert cert.falsified
        # brute-force confirmation of one violation: 1-d sweep over the radius band
        v = cert.genuine_violations()[0]
        x, r, y = v.x[0], v.r, np.array(v.point)
        ny = float(np.linalg.norm(y))
        band = np.linspace(max(0.0, abs(x) - r), abs(x) + r, 10001)
        assert min(abs(ny - rho) for rho in band) > 1e-9 * (1 + 2 * r)

    def test_sphere_scale_not_set_covering_any_alpha(self):
        for alpha in (0.1, 0.25, 0.5, 1.0):
            cert = sk.check_set_covering(sk.SphereScale(), alpha=alpha, trials=40, seed=0)
            assert cert.falsified, alpha

    def test_unit_ball_translate_split(self):
        cov = sk.check_covering(sk.UnitBallTranslate(), alpha=1.0, trials=200, seed=1)
        assert cov.verdict == "no-counterexample-found"
        for alpha in (0.1, 0.25, 0.5, 1.0):
            cert = sk.check_set_covering(sk.UnitBallTranslate(), alpha=alpha,
                                         trials=40, seed=1)
            assert cert.falsified, alpha

    def test_dilation_set_covering_below_rate(self):
        cert = sk.check_set_covering(dilation_plane(1.0), alpha=0.99, trials=100, seed=2)
        assert not cert.falsified

    def test_dilation_covering_at_09(self):
        cert = sk.check_covering(dilation_plane(1.0), alpha=0.9, trials=100, seed=3)
        assert cert.verdict == "no-counterexample-found"

    def test_sublinear_at_dual_norm_rate(self):
        m = sk.SublinearSystem(groups=(np.array([[1.0, 0.0], [-1.0, 0.0]]),
                                       np.array([[0.0, 1.0], [0.0, -1.0]])))
        alpha = 0.99 * sk.alpha_of(m).alpha
        cert = sk.check_set_covering(m, alpha=alpha, trials=60, seed=4)
        assert not cert.falsified

    def test_sublinear_thin_image_in_six_dimensions(self):
        # trial 3's image is thin: projections of box samples end outside it, and the
        # remaining samples come from convex combinations of its LP extreme points
        d = 6
        rng = np.random.default_rng(100)
        groups = tuple(np.vstack([np.eye(d)[i], -np.eye(d)[i]]) + 0.3 * rng.standard_normal((2, d))
                       for i in range(d))
        m = sk.SublinearSystem(groups)
        cert = sk.check_set_covering(m, 0.99 * sk.alpha_of(m).alpha, trials=4, seed=0)
        assert cert.verdict == "no-counterexample-found"
        x, _, _ = _draw_trial(rng_for(0, 3), _default_box(d), R_RANGE_DEFAULT)
        image = sk.eval_map(m, x)
        pts = sk.sample(m.space_y, image, 64, seed=0)
        assert pts.shape == (64, d)
        assert all(sk.contains_point(m.space_y, image, p, tol=1e-6) for p in pts)

    def test_epigraphical_set_covering(self):
        m = sk.Epigraphical(np.array([[1.0, 0.5], [0.0, 1.0]]))
        alpha = 0.99 * sk.alpha_of(m).alpha
        cert = sk.check_set_covering(m, alpha=alpha, trials=60, seed=5)
        assert not cert.falsified

    def test_composition_constant(self):
        """Composition passes at 0.99 * alpha * covering-rate of the outer map."""
        th = 0.7
        rot = 0.5 * np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        g = sk.Affine(rot, np.array([0.3, -0.2]))
        m = sk.Composed(g, dilation_plane(1.0))
        c = g.covering_constant(EU2, EU2)
        cert = sk.check_set_covering(m, alpha=0.99 * 1.0 * c, trials=100, seed=6)
        assert not cert.falsified


class TestReplay:
    def test_violations_recheck_independently(self):
        for m in (sk.SphereScale(), sk.UnitBallTranslate()):
            cert = sk.check_set_covering(m, alpha=0.5, trials=30, seed=7)
            assert cert.falsified
            for v in cert.violations[:10]:
                assert recheck_violation(m, cert, v)

    def test_certificate_shape(self):
        cert = sk.check_set_covering(sk.SphereScale(), alpha=0.5, trials=10, seed=8)
        assert cert.falsified == (len(cert.violations) > 0)
        blob = cert.to_jsonable()
        assert blob["verdict"] == "falsified"
        assert blob["n_violations"] == len(cert.violations)
        assert len(blob["violations"]) <= 32


class TestInteriorRadius:
    def test_orthant_graph_set_covering(self):
        rep = sk.interior_radius(sk.PolyhedralProcess(cx=[[1.0], [1.0]],
                                                      cy=[[-1.0, 0.0], [0.0, -1.0]]))
        assert rep.t_star > 0 and rep.alpha > 0 and rep.u0 is not None
        assert rep.alpha <= 1.0

    def test_identity_graph_not_set_covering(self):
        rep = sk.interior_radius(sk.PolyhedralProcess(cx=[[1.0], [-1.0]],
                                                      cy=[[-1.0], [1.0]]))
        assert rep.t_star == 0.0 and rep.alpha == 0.0 and rep.u0 is None

    def test_halfline_translate_set_covering(self):
        rep = sk.interior_radius(sk.PolyhedralProcess(cx=[[1.0]], cy=[[-1.0]]))
        assert rep.t_star > 0 and rep.alpha > 0

    def test_report_invariant_enforced(self):
        with pytest.raises(ValueError):
            sk.InteriorReport(t_star=1.0, u0=None, alpha=0.5)

    def test_non_onto_cone_raises_structured_error(self):
        # graph of y >= |x|: image at zero has interior but no witness exists
        proc = sk.PolyhedralProcess(cx=[[1.0], [-1.0]], cy=[[-1.0], [-1.0]])
        with pytest.raises(sk.ProcessAnomalyError):
            sk.interior_radius(proc)


class TestInverseBounds:
    def test_closed_form_example(self):
        m = dilation_plane(1.0)
        s = sk.Ball(np.zeros(2), 3.0)
        assert sk.inverse_distance(m, s, [1.0]) == 2.0
        # exc(S, psi(x)) = 3 - 1 = 2, bound = 2 / alpha
        e = float(sk.excess(EU2, s, sk.eval_map(m, [1.0])))
        assert e == 2.0
        assert 2.0 <= e / 0.99 + 1e-12

    def test_contained_set_gives_zero(self):
        m = dilation_plane(1.0)
        s = sk.Ball(np.zeros(2), 0.5)
        assert sk.inverse_distance(m, s, [4.0]) == 0.0

    def test_randomized_errorbound(self):
        cert = sk.check_inverse_errorbound(dilation_plane(1.0), alpha=0.99,
                                           trials=100, seed=9)
        assert not cert.falsified

    def test_randomized_inverse_hausdorff(self):
        cert = sk.check_inverse_hausdorff(dilation_plane(1.0), alpha=0.99,
                                          trials=100, seed=10)
        assert not cert.falsified

    def test_inverse_hausdorff_example(self):
        # nested balls around the image anchor: thresholds differ by 1
        m = dilation_plane(1.0)
        t_a = float(sk.excess(EU2, sk.Ball(np.zeros(2), 2.0), sk.PointCloud([[0.0, 0.0]])))
        t_b = float(sk.excess(EU2, sk.Ball(np.zeros(2), 3.0), sk.PointCloud([[0.0, 0.0]])))
        assert abs(t_a - t_b) == 1.0
        # equal sets: both sides of the Lipschitz bound vanish
        s = sk.Ball(np.array([0.5, -0.5]), 1.2)
        assert float(sk.hausdorff(EU2, s, s)) == 0.0
        assert sk.inverse_distance(m, s, [1.7]) == sk.inverse_distance(m, s, [1.7])

    def test_counterexamples_break_the_bound(self):
        """Falsified set-covering shows up as an inverse-errorbound violation."""
        s_small = sk.Ball(np.array([0.5, 0.0]), 0.5)
        cert = sk.check_inverse_errorbound(sk.SphereScale(), alpha=1.0, trials=8,
                                           seed=11, test_sets=[s_small])
        assert cert.falsified  # solid balls are never inside a sphere: empty inverse
        cert2 = sk.check_inverse_errorbound(sk.UnitBallTranslate(), alpha=1.0, trials=8,
                                            seed=12, test_sets=[sk.Ball(np.zeros(1), 1.5)])
        assert cert2.falsified

    def test_infinite_excess_passes_trivially(self):
        m = sk.Dilation(y0=np.zeros(2), a=1.0, anchor=np.zeros(1), space_y=EU2)
        unbounded = sk.Orthant(np.zeros(2))
        cert = sk.check_inverse_errorbound(m, alpha=0.99, trials=4, seed=13,
                                           test_sets=[unbounded])
        assert not cert.falsified


class TestSemicontinuity:
    def test_continuous_instance(self):
        phi = sk.BallValued(sk.Affine(np.zeros((2, 1)), np.zeros(2)), c0=1.0, c1=0.5,
                            space_x=EU1, space_y=EU2)
        cert = sk.check_exc_semicontinuity(phi, dilation_plane(1.0), [0.5],
                                           n_sequences=20, seed=14)
        assert not cert.falsified

    def test_constant_maps_exact_equality(self):
        phi = sk.BallValued(sk.Affine(np.zeros((2, 1)), np.zeros(2)), c0=2.0,
                            space_x=EU1, space_y=EU2)
        psi = sk.BallValued(sk.Affine(np.zeros((2, 1)), np.zeros(2)), c0=1.0,
                            space_x=EU1, space_y=EU2)
        vals = [float(sk.excess(EU2, sk.eval_map(phi, [x]), sk.eval_map(psi, [x])))
                for x in (0.0, 0.5, 1.0)]
        assert vals == [1.0, 1.0, 1.0]
        cert = sk.check_exc_semicontinuity(phi, psi, [0.0], n_sequences=10, seed=15,
                                           modulus=0.0)
        assert not cert.falsified

    def test_translated_ball_pair_modulus(self):
        phi = sk.BallValued(sk.Affine(np.eye(1), np.zeros(1)), c0=1.0,
                            space_x=EU1, space_y=EU1)
        psi = sk.Dilation(y0=np.zeros(1), a=1.0, b=0.5, anchor=np.zeros(1),
                          space_x=EU1, space_y=EU1)
        cert = sk.check_exc_semicontinuity(phi, psi, [1.0], n_sequences=20, seed=16)
        assert not cert.falsified


class TestTrialDistribution:
    def test_radii_span_micro_and_macro(self):
        from setcover_kit.certify import _draw_trial

        rs = [_draw_trial(rng_for(0, t), (-np.ones(1), np.ones(1)), (1e-3, 1e2))[1]
              for t in range(400)]
        assert min(rs) < 1e-2 and max(rs) > 1e1

    @staticmethod
    def per_number_draws(rng, x_box, r_range, dy=0):
        """The trial draws before they came from one call: x, then r, then the ball
        centre check_inverse_errorbound drew after them."""
        lo, hi = x_box
        x = rng.uniform(lo, hi)
        log_lo, log_hi = math.log(r_range[0]), math.log(r_range[1])
        r = math.exp(rng.uniform(log_lo, log_hi))
        return x, r, (rng.uniform(-5.0, 5.0, size=dy) if dy else None)

    def test_one_draw_equals_the_per_number_draws(self):
        """Bit for bit, and with the generator left in the same state."""
        def hexes(value):
            return None if value is None else np.asarray(value, dtype=float).tobytes().hex()

        cases = np.random.default_rng(16)
        for k in range(400):
            dx, dy = int(cases.integers(1, 7)), int(cases.integers(0, 4))
            lo = cases.uniform(-10.0, 10.0, dx) * cases.choice((1e-8, 1.0, 1e8))
            x_box = (lo, lo + cases.uniform(0.0, 20.0, dx))
            r_range = tuple(sorted(10.0 ** cases.uniform(-6.0, 6.0, 2)))
            got_rng, want_rng = rng_for(k, 3), rng_for(k, 3)
            got = _draw_trial(got_rng, x_box, r_range, dy)
            want = self.per_number_draws(want_rng, x_box, r_range, dy)
            assert [hexes(v) for v in got] == [hexes(v) for v in want], k
            assert got_rng.bit_generator.state == want_rng.bit_generator.state, k
            assert got[0].shape == (dx,) and type(got[1]) is float

    def test_an_infinite_range_is_refused_as_by_uniform(self):
        for x_box, r_range in [((np.zeros(2), np.array([1.0, np.inf])), (1.0, 2.0)),
                               ((np.zeros(2), np.ones(2)), (1.0, np.inf))]:
            for draw in (_draw_trial, self.per_number_draws):
                with pytest.raises(OverflowError):
                    draw(rng_for(0, 0), x_box, r_range)

    def test_schedule_independence(self):
        m = sk.SphereScale()
        a = sk.check_set_covering(m, alpha=0.5, trials=20, seed=17)
        b = sk.check_set_covering(m, alpha=0.5, trials=20, seed=17)
        assert a.to_jsonable() == b.to_jsonable()

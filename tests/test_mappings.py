"""Mapping catalog: evaluation, constants, witnesses, Lipschitz rules."""

import copy
import json
import math

import numpy as np
import pytest

import setcover_kit as sk
from setcover_kit import InstanceError, map_from_json, map_to_json
from setcover_kit.geometry import rng_for
from setcover_kit.instances import builtin_instances, decode_instance
from setcover_kit.mappings import SIGN_CORNER_CAP

EU1 = sk.NormedSpace(1)
EU2 = sk.NormedSpace(2)


def dilation_plane(a=1.0, b=0.0, dim_x=1):
    return sk.Dilation(y0=np.zeros(2), a=a, b=b, anchor=np.zeros(dim_x),
                       space_y=sk.NormedSpace(2))


def sublinear_abs2():
    """p_1(y) = |y_1|, p_2(y) = |y_2| on the plane."""
    return sk.SublinearSystem(groups=(np.array([[1.0, 0.0], [-1.0, 0.0]]),
                                      np.array([[0.0, 1.0], [0.0, -1.0]])))


def orthant_graph_process():
    return sk.PolyhedralProcess(cx=[[1.0], [1.0]], cy=[[-1.0, 0.0], [0.0, -1.0]])


def sum_fixture():
    base = sk.Dilation(y0=np.zeros(2), a=3.0, anchor=np.zeros(2),
                       space_x=EU2, space_y=EU2)
    g = sk.Affine(0.5 * np.eye(2), np.zeros(2))
    return sk.Sum(base, g)


def composed_fixture():
    th = 0.7
    rot = 0.5 * np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    g = sk.Affine(rot, np.array([0.3, -0.2]))
    base = sk.Dilation(y0=np.array([1.0, 0.5]), a=1.0, anchor=np.zeros(1),
                       space_y=EU2)
    return sk.Composed(g, base)


# ---------------------------------------------------------------------------
# evaluation


class TestEval:
    def test_dilation_formula(self):
        m = dilation_plane(a=1.0)
        img = sk.eval_map(m, [2.0])
        assert isinstance(img, sk.Ball) and img.radius == 2.0
        assert np.allclose(img.center, 0.0)

    def test_sphere_scale_abs(self):
        img = sk.eval_map(sk.SphereScale(), [-3.0])
        assert isinstance(img, sk.Sphere) and img.radius == 3.0

    def test_sublinear_interval(self):
        m = sk.SublinearSystem(groups=(np.array([[1.0], [-1.0]]),))
        img = sk.eval_map(m, [2.0])
        assert isinstance(img, sk.SublevelRegion)
        assert sk.contains_point(sk.NormedSpace(1), img, [2.0])
        assert sk.contains_point(sk.NormedSpace(1), img, [-2.0])
        assert not sk.contains_point(sk.NormedSpace(1), img, [2.1])

    def test_unit_ball_translate(self):
        img = sk.eval_map(sk.UnitBallTranslate(dim=2), [1.0, -1.0])
        assert isinstance(img, sk.Ball) and img.radius == 1.0
        assert np.allclose(img.center, [1.0, -1.0])

    def test_epigraphical_orthant(self):
        m = sk.Epigraphical(np.eye(2))
        img = sk.eval_map(m, [1.0, 2.0])
        assert isinstance(img, sk.Orthant) and np.allclose(img.apex, [1.0, 2.0])

    def test_fixed_max_norm_spaces_refuse_others(self):
        mat, groups = np.eye(2), (np.array([[1.0], [-1.0]]),)
        for bad in (sk.NormedSpace(2), sk.NormedSpace(2, "p", 3.0), sk.NormedSpace(3, "max")):
            with pytest.raises(ValueError):
                sk.Epigraphical(mat, space_x=bad)
            with pytest.raises(ValueError):
                sk.Epigraphical(mat, space_y=bad)
        for bad in (sk.NormedSpace(1), sk.NormedSpace(1, "p", 3.0), sk.NormedSpace(2, "max")):
            with pytest.raises(ValueError):
                sk.SublinearSystem(groups, space_x=bad)
        epi = sk.Epigraphical(mat, space_x=sk.NormedSpace(2, "max"),
                              space_y=sk.NormedSpace(2, "max"))
        sub = sk.SublinearSystem(groups, space_x=sk.NormedSpace(1, "max"),
                                 space_y=sk.NormedSpace(1, "p", 3.0))
        defaults = (sk.Epigraphical(mat).space_x, sk.SublinearSystem(groups).space_x)
        for space, dim in ((epi.space_x, 2), (epi.space_y, 2), (sub.space_x, 1),
                           (defaults[0], 2), (defaults[1], 1)):
            assert (space.dim, space.norm) == (dim, "max")
        assert sub.space_y.norm == "p"

    def test_sum_translates(self):
        m = sum_fixture()
        img = sk.eval_map(m, [4.0, 0.0])
        assert isinstance(img, sk.Ball)
        assert np.allclose(img.center, [2.0, 0.0]) and img.radius == 12.0

    def test_composed_scaled_rotation_of_ball(self):
        m = composed_fixture()
        img = sk.eval_map(m, [2.0])
        assert isinstance(img, sk.Ball)
        assert img.radius == pytest.approx(1.0)  # 0.5 * dilation radius 2

    def test_ball_valued(self):
        phi = sk.BallValued(sk.Affine(np.zeros((2, 1)), np.zeros(2)), c0=1.0, c1=0.5,
                            space_x=EU1, space_y=EU2)
        img = sk.eval_map(phi, [4.0])
        assert img.radius == 3.0

    def test_process_region_and_domain(self):
        m = orthant_graph_process()
        img = sk.eval_map(m, [1.0])
        assert sk.contains_point(EU2, img, [1.0, 1.0])
        assert not sk.contains_point(EU2, img, [0.5, 1.0])


# ---------------------------------------------------------------------------
# constants


class TestConstants:
    def test_dilation_alpha_is_rate(self):
        assert sk.alpha_of(dilation_plane(a=1.0)).alpha == 1.0
        assert sk.alpha_of(dilation_plane(a=2.5)).alpha == 2.5

    def test_covering_only_witnesses_signal(self):
        with pytest.raises(sk.NotSetCoveringError):
            sk.alpha_of(sk.SphereScale())
        with pytest.raises(sk.NotSetCoveringError):
            sk.alpha_of(sk.UnitBallTranslate())

    def test_sublinear_alpha_half(self):
        m = sk.SublinearSystem(groups=(np.array([[2.0], [-2.0]]),))
        assert sk.alpha_of(m).alpha == 0.5

    def test_sublinear_alpha_randomized_hand_rule(self):
        rng = rng_for(29, 0)
        for _ in range(20):
            n, mdim = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            groups = tuple(rng.uniform(-3, 3, (int(rng.integers(1, 4)), mdim)) + 0.1
                           for _ in range(n))
            m = sk.SublinearSystem(groups=groups)
            oracle = 1.0 / max(float(np.linalg.norm(row)) for g in groups for row in g)
            assert sk.alpha_of(m).alpha == oracle  # identical formula, zero relative error

    def test_epigraphical_identity(self):
        c = sk.alpha_of(sk.Epigraphical(np.eye(2)))
        assert c.alpha == pytest.approx(1.0, abs=1e-9)
        assert c.gamma == 1.0

    def test_order_metric_gamma_values(self):
        assert sk.mappings.order_metric_gamma(3, "max") == 1.0
        assert sk.mappings.order_metric_gamma(4, "p", 2.0) == pytest.approx(2.0)
        assert sk.mappings.order_metric_gamma(8, "p", 3.0) == pytest.approx(2.0)

    def test_sum_alpha_subtracts_lipschitz(self):
        assert sk.alpha_of(sum_fixture()).alpha == pytest.approx(2.5)

    def test_sum_constant_exhausted(self):
        base = dilation_plane(a=1.0, dim_x=2)
        base = sk.Dilation(y0=np.zeros(2), a=1.0, anchor=np.zeros(2),
                           space_x=EU2, space_y=EU2)
        g = sk.Affine(2.0 * np.eye(2), np.zeros(2))
        with pytest.raises(sk.ConstantExhaustedError):
            sk.alpha_of(sk.Sum(base, g))

    def test_composed_alpha_product(self):
        m = composed_fixture()
        assert sk.alpha_of(m).alpha == pytest.approx(0.5)

    def test_process_alpha_via_interior(self):
        assert sk.alpha_of(orthant_graph_process()).alpha == pytest.approx(1.0)
        identity_graph = sk.PolyhedralProcess(cx=[[1.0], [-1.0]], cy=[[-1.0], [1.0]])
        with pytest.raises(sk.NotSetCoveringError):
            sk.alpha_of(identity_graph)

    def test_beta_rules(self):
        phi = sk.BallValued(sk.Affine(np.zeros((2, 1)), np.zeros(2)), c0=1.0, c1=0.5,
                            space_x=EU1, space_y=EU2)
        assert sk.beta_of(phi) == 0.5
        translation = sk.BallValued(sk.Affine(np.eye(1), np.zeros(1)), c0=1.0,
                                    space_x=EU1, space_y=EU1)
        assert sk.beta_of(translation) == 1.0
        constant = sk.BallValued(sk.Affine(np.zeros((2, 1)), np.ones(2)), c0=2.0,
                                 space_x=EU1, space_y=EU2)
        assert sk.beta_of(constant) == 0.0
        assert sk.beta_of(dilation_plane(a=1.5)) == 1.5
        with pytest.raises(sk.mappings.LipschitzRuleError):
            sk.beta_of(orthant_graph_process())

    def test_affine_operator_norms(self):
        m = sk.Affine(np.array([[1.0, 2.0], [3.0, -1.0]]), np.zeros(2))
        assert m.lipschitz(EU2, EU2) == pytest.approx(np.linalg.norm(m.matrix, 2))
        mx = sk.NormedSpace(2, "max")
        assert m.lipschitz(mx, mx) == 4.0  # max row 1-norm
        assert m.lipschitz(EU2, mx) == pytest.approx(math.sqrt(10.0))
        corners = [np.array([s1, s2]) for s1 in (-1, 1) for s2 in (-1, 1)]
        assert m.lipschitz(mx, EU2) == pytest.approx(
            max(np.linalg.norm(m.matrix @ s) for s in corners))

    def test_sign_corner_rules_above_the_cap_raise_a_named_error(self):
        wide = sk.NormedSpace(SIGN_CORNER_CAP + 1, "max")
        g = sk.Affine(np.zeros((2, wide.dim)), np.zeros(2))  # max -> euclidean: sign corners
        base = sk.Dilation(y0=np.zeros(2), a=1.0, anchor=np.zeros(wide.dim),
                           space_x=wide, space_y=EU2)
        for m in (sk.BallValued(g, c0=1.0, space_x=wide, space_y=EU2), sk.Sum(base, g)):
            with pytest.raises(sk.DimensionCapError, match="capped at dimension 16"):
                sk.beta_of(m)
        with pytest.raises(sk.DimensionCapError, match="this needs dimension 17"):
            sk.alpha_of(sk.Epigraphical(np.eye(SIGN_CORNER_CAP + 1)))

    def test_catalog_fn_constants_hold_on_sampled_pairs(self):
        fns = [sk.Affine(np.array([[1.0, 2.0], [3.0, -1.0]]), np.array([0.5, -0.5])),
               sk.ScaledNormRadial(0.75, np.array([0.6, -0.8]))]
        rng = rng_for(41, 0)
        for fn in fns:
            lip = fn.lipschitz(EU2, EU2)
            for _ in range(200):
                x1, x2 = rng.uniform(-5, 5, 2), rng.uniform(-5, 5, 2)
                gap = EU2.dist(fn.evaluate(x1, EU2), fn.evaluate(x2, EU2))
                assert gap <= lip * EU2.dist(x1, x2) + 1e-9


# ---------------------------------------------------------------------------
# witnesses


WITNESS_VARIANTS = {
    "dilation": lambda: dilation_plane(a=1.0),
    "sublinear": sublinear_abs2,
    "epigraphical": lambda: sk.Epigraphical(np.array([[1.0, 0.5], [0.0, 1.0]])),
    "process": orthant_graph_process,
    "sum": sum_fixture,
    "composed": composed_fixture,
}


class TestWitness:
    def test_dilation_witness_examples(self):
        m = dilation_plane(a=1.0)
        u = sk.cover_witness(m, [2.0], 1.0)
        assert u[0] == pytest.approx(3.0)
        # at the anchor the first basis direction breaks the tie
        u0 = sk.cover_witness(m, [0.0], 0.7)
        assert u0[0] == pytest.approx(0.7)

    def test_sublinear_witness_componentwise(self):
        m = sublinear_abs2()
        u = sk.cover_witness(m, [1.0, -1.0], 0.5)
        assert np.allclose(u, [1.5, -1.5])
        # sign(0) counts as +1
        u0 = sk.cover_witness(m, [0.0, -2.0], 0.25)
        assert np.allclose(u0, [0.25, -2.25])

    def test_process_witness_direction(self):
        m = orthant_graph_process()
        u = sk.cover_witness(m, [0.0], 1.0)
        assert u[0] == pytest.approx(-1.0)
        img = sk.eval_map(m, u)
        for p in sk.sample(EU2, sk.Ball(np.zeros(2), 0.99), 64, seed=0):
            assert sk.contains_point(EU2, img, p, tol=1e-9)

    def test_witness_requires_positive_radius(self):
        with pytest.raises(ValueError):
            sk.cover_witness(dilation_plane(), [1.0], 0.0)

    @pytest.mark.parametrize("rho", [0.0, -0.5, math.nan])
    def test_fallback_search_requires_positive_radius(self, rho):
        with pytest.raises(ValueError, match="rho must be > 0"):
            sk.fallback_witness(sk.SphereScale(), [1.0], rho, alpha=0.5, n_points=8)
        with pytest.raises(ValueError, match="rho must be > 0"):
            sk.fallback_witnesses(sk.SphereScale(), np.array([[1.0], [2.0]]), [1.0, rho], 0.5,
                                  8, [0, 1], 150, 8)

    def test_fallback_signal(self):
        with pytest.raises(sk.WitnessUnavailableError):
            sk.cover_witness(sk.SphereScale(), [1.0], 1.0)

    def test_fallback_search_reports_coverage(self):
        rec = sk.fallback_witness(sk.SphereScale(), [1.0], 1.0, alpha=0.5,
                                  n_points=32, seed=0)
        assert rec.covered_fraction < 1.0  # a sphere cannot absorb a 2-d enlargement
        assert rec.worst_margin > 0

    @pytest.mark.parametrize("name", sorted(WITNESS_VARIANTS))
    def test_witness_contract_quantified(self, name):
        """200 seeded (x, rho) pairs; 64 points of the safety enlargement."""
        m = WITNESS_VARIANTS[name]()
        alpha = sk.alpha_of(m).alpha
        space_x, space_y = m.space_x, m.space_y
        rng = rng_for(101, 0)
        n_pairs, n_pts = 200, 64
        for k in range(n_pairs):
            x = rng.uniform(-5, 5, space_x.dim)
            rho = float(np.exp(rng.uniform(np.log(1e-3), np.log(1e2))))
            u = sk.cover_witness(m, x, rho)
            assert space_x.dist(u, x) <= rho + 1e-9 * (1 + rho)
            image = sk.eval_map(m, x)
            image_u = sk.eval_map(m, u)
            pts = sk.sample_enlargement(space_y, image, 0.99 * alpha * rho, n_pts,
                                        seed=k)
            for p in pts:
                assert sk.contains_point(space_y, image_u, p, tol=1e-9), (name, x, rho)


# ---------------------------------------------------------------------------
# module invariants


class TestMappingInvariants:
    def test_excess_lipschitz_remark(self):
        """|exc(phi(x1), S) - exc(phi(x2), S)| <= beta d(x1, x2) + 1e-9."""
        phi = sk.BallValued(sk.Affine(np.zeros((2, 1)), np.zeros(2)), c0=1.0, c1=0.5,
                            space_x=EU1, space_y=EU2)
        beta = sk.beta_of(phi)
        s = sk.Ball(np.array([1.0, 1.0]), 0.5)
        rng = rng_for(31, 0)
        for _ in range(200):
            x1, x2 = rng.uniform(-8, 8, 2)
            e1 = float(sk.excess(EU2, sk.eval_map(phi, [x1]), s))
            e2 = float(sk.excess(EU2, sk.eval_map(phi, [x2]), s))
            assert abs(e1 - e2) <= beta * abs(x1 - x2) + 1e-9

    def test_process_positive_homogeneity(self):
        """Sampled set equality of eval(lam*x) and lam*eval(x) on bounded slices."""
        m = orthant_graph_process()
        rng = rng_for(37, 0)
        for _ in range(25):
            x = rng.uniform(-3, 3, 1)
            lam = float(rng.uniform(0.2, 4.0))
            a = sk.eval_map(m, lam * x)
            b = sk.SublevelRegion(tuple(sk.FormGroup(g.a, lam * g.b)
                                        for g in sk.eval_map(m, x).groups))
            box = (-10.0 * np.ones(2), 10.0 * np.ones(2))
            for p in sk.sample(EU2, a, 16, seed=5, box=box):
                assert float(sk.dist_point(EU2, p, b)) <= 1e-9
            for p in sk.sample(EU2, b, 16, seed=6, box=box):
                assert float(sk.dist_point(EU2, p, a)) <= 1e-9

    def test_sum_stability_via_base_witness(self):
        """The base witness certifies the perturbed map at alpha - beta - 1e-6."""
        m = sum_fixture()
        alpha = 3.0 - 0.5 - 1e-6
        cert = sk.check_set_covering(m, alpha=alpha, trials=60, seed=3)
        assert not cert.falsified

    def test_empirical_lipschitz(self):
        constant = sk.BallValued(sk.Affine(np.zeros((2, 1)), np.ones(2)), c0=2.0,
                                 space_x=EU1, space_y=EU2)
        est = sk.empirical_lipschitz(constant, box=([-10.0], [10.0]), seed=0)
        assert est.value == 0.0
        phi = sk.BallValued(sk.Affine(np.zeros((2, 1)), np.zeros(2)), c0=1.0, c1=0.5,
                            space_x=EU1, space_y=EU2)
        est = sk.empirical_lipschitz(phi, box=([-10.0], [10.0]), n_pairs=256, seed=0)
        assert 0.49 <= est.value <= 0.51

    def test_empirical_below_declared(self):
        cases = [
            (dilation_plane(a=1.0), ([-5.0], [5.0])),
            (sum_fixture(), ([-5.0, -5.0], [5.0, 5.0])),
        ]
        for m, box in cases:
            est = sk.empirical_lipschitz(m, box=box, n_pairs=128, seed=1)
            assert est.value <= sk.beta_of(m) + 1e-9

    def test_empirical_rejects_unbounded(self):
        with pytest.raises(ValueError):
            sk.empirical_lipschitz(sk.Epigraphical(np.eye(2)), box=([-1.0, -1.0], [1.0, 1.0]))


# ---------------------------------------------------------------------------
# serialization

NORMS = {"euclidean": {}, "max": {"norm": "max"}, "p3": {"norm": "p", "p": 3.0}}


def _dilation(space):
    return sk.Dilation(y0=np.array([1.0, 0.5]), a=1.0, anchor=np.zeros(1),
                       space_x=space(1), space_y=space(2))


# every map variant whose spaces are settable, given a space factory dim -> space
SETTABLE_SPACE_VARIANTS = {
    "dilation": _dilation,
    "sphere_scale": lambda space: sk.SphereScale(space_x=space(1), space_y=space(2)),
    "unit_ball_translate": lambda space: sk.UnitBallTranslate(2, space(2), space(2)),
    "sublinear": lambda space: sk.SublinearSystem(sublinear_abs2().groups, space_y=space(2)),
    "process": lambda space: sk.PolyhedralProcess(cx=[[1.0], [1.0]],
                                                  cy=[[-1.0, 0.0], [0.0, -1.0]],
                                                  space_x=space(1), space_y=space(2)),
    "sum": lambda space: sk.Sum(_dilation(space), sk.Affine(np.zeros((2, 1)), np.ones(2))),
    "composed": lambda space: sk.Composed(composed_fixture().g, _dilation(space),
                                          space_z=space(2)),
    "ball_valued": lambda space: sk.BallValued(sk.Affine(np.zeros((2, 1)), np.zeros(2)),
                                               c0=1.0, c1=0.5, space_x=space(1),
                                               space_y=space(2)),
}


def spaces_of(m, prefix=""):
    """(dim, norm, p) of every space of m and of the maps it is built from."""
    out = {}
    for attr in ("space_x", "space_y", "space_z"):
        s = getattr(m, attr, None)
        if s is not None:
            out[prefix + attr] = (s.dim, s.norm, s.p)
    if hasattr(m, "base"):
        out.update(spaces_of(m.base, prefix + "base."))
    return out



class TestMapJson:
    @pytest.mark.parametrize("name", sorted(WITNESS_VARIANTS))
    def test_round_trip(self, name):
        m = WITNESS_VARIANTS[name]()
        blob = json.dumps(map_to_json(m), sort_keys=True)
        back = map_from_json(json.loads(blob))
        assert json.dumps(map_to_json(back), sort_keys=True) == blob

    def test_round_trip_phi_and_witness_free(self):
        phi = sk.BallValued(sk.Affine(np.zeros((2, 1)), np.zeros(2)), c0=1.0, c1=0.5,
                            space_x=EU1, space_y=EU2)
        for m in (phi, sk.SphereScale(), sk.UnitBallTranslate(dim=3)):
            blob = json.dumps(map_to_json(m), sort_keys=True)
            back = map_from_json(json.loads(blob))
            assert json.dumps(map_to_json(back), sort_keys=True) == blob

    @pytest.mark.parametrize("norm", sorted(NORMS))
    @pytest.mark.parametrize("name", sorted(SETTABLE_SPACE_VARIANTS))
    def test_round_trip_keeps_spaces(self, name, norm):
        m = SETTABLE_SPACE_VARIANTS[name](lambda dim: sk.NormedSpace(dim, **NORMS[norm]))
        back = map_from_json(json.loads(json.dumps(map_to_json(m))))
        assert type(back) is type(m)
        assert spaces_of(back) == spaces_of(m)

    def test_strict_paths(self):
        data = copy.deepcopy(builtin_instances()["process"])
        data["maps"]["psi"]["space_y"] = {"dim": 2, "norm": "max"}
        assert decode_instance(data)["psi"].space_y.norm == "max"
        data["maps"]["psi"]["space_y"]["norm"] = "taxicab"
        with pytest.raises(InstanceError) as err:
            decode_instance(data)
        assert err.value.path == "$.maps.psi.space_y"
        data["maps"]["psi"]["space_y"] = {"dim": 3}
        with pytest.raises(InstanceError) as err:
            decode_instance(data)
        assert err.value.path == "$.maps.psi"
        with pytest.raises(InstanceError) as err:
            map_from_json({"kind": "sum", "base": {"kind": "sphere_scale", "bogus": 1},
                           "g": {"kind": "affine", "matrix": [[1.0]], "offset": [0.0]}})
        assert err.value.path == "$.base.bogus"
        with pytest.raises(InstanceError) as err:
            map_from_json({"kind": "teleport"})
        assert err.value.path == "$.kind"

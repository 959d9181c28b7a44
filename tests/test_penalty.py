"""Penalty functional: threshold, minimization, exactness, diagnostics."""

import json
import math

import numpy as np
import pytest

import setcover_kit as sk
from conftest import make_t1_instance, make_t1_psi, make_t1_phi

EU1 = sk.NormedSpace(1)
EU2 = sk.NormedSpace(2)

THRESHOLD_T1 = 1.0 / 0.49  # l_phi=1, alpha_used=0.99, beta=0.5


def t1_family():
    def phi_of_p(p):
        return sk.BallValued(sk.Affine(np.zeros((2, 1)), np.zeros(2)),
                             c0=float(p[0]), c1=0.5, space_x=EU1, space_y=EU2)

    return sk.ParamFamily(param_space=EU1, p_bar=np.array([1.0]),
                          phi_of_p=phi_of_p, psi_of_p=lambda p: make_t1_psi())


class TestObjectives:
    def test_values_and_constants(self):
        assert sk.objective_value(sk.AbsCoord(0), EU1, [-3.0]) == 3.0
        assert sk.objective_lipschitz(sk.AbsCoord(0), EU1) == 1.0
        assert sk.objective_value(sk.NormToPoint(np.array([1.0, 1.0])), EU2, [4.0, 5.0]) == 5.0
        assert sk.objective_lipschitz(sk.NormToPoint(np.array([1.0, 1.0])), EU2) == 1.0
        lin = sk.Linear(np.array([3.0, -4.0]))
        assert sk.objective_value(lin, EU2, [1.0, 1.0]) == -1.0
        assert sk.objective_lipschitz(lin, EU2) == 5.0
        ws = sk.WeightedSum(((2.0, sk.AbsCoord(0)), (1.0, lin)))
        assert sk.objective_lipschitz(ws, EU2) == 7.0

    def test_declared_constants_hold_on_samples(self):
        from setcover_kit.geometry import rng_for

        rng = rng_for(5, 0)
        for obj, space in [(sk.AbsCoord(0), EU2),
                           (sk.Linear(np.array([3.0, -4.0])), EU2),
                           (sk.NormToPoint(np.array([0.5, -0.5])), EU2)]:
            l = sk.objective_lipschitz(obj, space)
            for _ in range(200):
                x, y = rng.uniform(-5, 5, 2), rng.uniform(-5, 5, 2)
                lhs = abs(sk.objective_value(obj, space, x) - sk.objective_value(obj, space, y))
                assert lhs <= l * space.dist(x, y) + 1e-9


class TestPenaltyValue:
    def test_infeasible_point(self, t1_problem):
        assert sk.penalty_value(t1_problem(2.1), [0.0]) == pytest.approx(2.1)

    def test_feasible_point_equals_objective(self, t1_problem):
        prob = t1_problem(7.3)
        for x in (2.0, 2.5, -4.0):
            assert sk.penalty_value(prob, [x]) == prob.objective_at([x])

    def test_l_zero(self, t1_problem):
        prob = t1_problem(0.0)
        assert sk.penalty_value(prob, [0.5]) == prob.objective_at([0.5])

    def test_threshold_formula(self):
        assert sk.threshold(1.0, 1.0, 0.5) == 2.0
        assert sk.threshold(1.0, 1.0, 0.0) == 1.0
        assert sk.threshold(1.0, 0.99, 0.5) == pytest.approx(2.0408163265306123)
        with pytest.raises(ValueError):
            sk.threshold(0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            sk.threshold(1.0, 0.5, 0.5)


class TestMinimize:
    def test_above_threshold_finds_boundary(self, t1_problem):
        res = sk.minimize_penalty(t1_problem(2.143), [0.0])
        assert abs(abs(res.x[0]) - 2.0) <= 1e-4
        assert res.value == pytest.approx(2.0, abs=1e-4)

    def test_below_threshold_stays_at_origin(self, t1_problem):
        res = sk.minimize_penalty(t1_problem(1.0), [0.0])
        assert abs(res.x[0]) <= 1e-6
        assert res.value == pytest.approx(1.0, abs=1e-6)

    def test_feasible_interior_minimizer_untouched(self):
        # objective centered inside the feasible region: penalty never binds
        inst = make_t1_instance()
        prob = sk.PenaltyProblem(sk.NormToPoint(np.array([3.0])), inst, 0.0)
        res0 = sk.minimize_penalty(prob, [2.5])
        for l in (0.0, 1.0, 10.0):
            res = sk.minimize_penalty(sk.PenaltyProblem(prob.objective, inst, l),
                                      [2.5])
            assert res.value == pytest.approx(res0.value, abs=1e-9)

    def test_deterministic_bit_identical_traces(self, t1_problem):
        a = sk.minimize_penalty(t1_problem(2.143), [0.3])
        b = sk.minimize_penalty(t1_problem(2.143), [0.3])
        assert json.dumps(a.to_jsonable()) == json.dumps(b.to_jsonable())
        assert a.trace.initial_step == 1.0 and a.trace.step_floor == 1e-7

    def test_budget_exhausted_returns_best_so_far(self, t1_problem):
        res = sk.minimize_penalty(t1_problem(2.143), [0.0], max_evals=7)
        assert res.trace.budget_exhausted
        assert res.value <= sk.penalty_value(t1_problem(2.143), [0.0])

    def test_desk_scale_guard(self):
        space7 = sk.NormedSpace(7)
        psi = sk.Dilation(y0=np.zeros(7), a=2.0, anchor=np.zeros(7),
                          space_x=space7, space_y=space7)
        phi = sk.BallValued(sk.Affine(np.zeros((7, 7)), np.zeros(7)), c0=1.0,
                            space_x=space7, space_y=space7)
        inst = sk.InclusionInstance(psi=psi, phi=phi)
        prob = sk.PenaltyProblem(sk.AbsCoord(0), inst, 1.0)
        with pytest.raises(ValueError):
            sk.minimize_penalty(prob, np.zeros(7))


class TestExactness:
    def test_passes_above_threshold(self, t1_problem):
        cert = sk.verify_exactness(t1_problem(2.1), [2.0], radius=1.0, grid_n=101)
        assert not cert.falsified

    def test_falsified_below_threshold_with_origin_witness(self, t1_problem):
        cert = sk.verify_exactness(t1_problem(1.0), [2.0], radius=2.5, grid_n=101)
        assert cert.falsified
        top = cert.violations[0]
        assert abs(top.point[0]) <= 0.05  # strongest witness sits near the origin
        value = sk.penalty_value(t1_problem(1.0), np.array(top.point))
        assert value == pytest.approx(1.0, abs=0.05)

    def test_zero_radius_trivially_passes(self, t1_problem):
        cert = sk.verify_exactness(t1_problem(0.1), [2.0], radius=0.0, grid_n=11)
        assert not cert.falsified

    def test_threshold_sandwich(self, t1_problem):
        thr = sk.threshold(1.0, 0.99, 0.5)
        for factor in (1.05, 1.5, 3.0):
            cert = sk.verify_exactness(t1_problem(factor * thr), [2.0],
                                       radius=2.5, grid_n=81)
            assert not cert.falsified, factor
        for factor in (0.5, 0.25):
            cert = sk.verify_exactness(t1_problem(factor * thr), [2.0],
                                       radius=2.5, grid_n=81)
            assert cert.falsified, factor

    def test_penalized_never_below_objective_at_feasible(self, t1_problem):
        prob = t1_problem(4.0)
        for x in np.linspace(2.0, 6.0, 50):
            assert sk.penalty_value(prob, [x]) == prob.objective_at([x])


class TestConverse:
    def test_symmetric_tie_reported_nonstrict(self, t1_problem):
        rec = sk.converse_check(t1_problem(0.0), epsilon=0.05, x0=[0.0], seed=0)
        assert rec.verdict == "not-applicable-nonstrict"
        assert not rec.strict
        assert abs(abs(rec.winner[0]) - 2.0) <= 1e-4
        assert rec.value == pytest.approx(2.0, abs=1e-4)
        assert rec.l_eps == pytest.approx(1.05 * THRESHOLD_T1)

    def test_strict_instance_confirmed(self):
        inst = make_t1_instance()
        prob = sk.PenaltyProblem(sk.NormToPoint(np.array([1.0])), inst, 0.0)
        rec = sk.converse_check(prob, epsilon=0.05, x0=[0.0], seed=0)
        assert rec.verdict == "confirmed"
        assert rec.strict and rec.feasible and rec.matches_oracle
        assert rec.winner[0] == pytest.approx(2.0, abs=1e-4)
        assert rec.oracle_value == pytest.approx(1.0, abs=1e-2)

    def test_epsilon_must_be_positive(self, t1_problem):
        with pytest.raises(ValueError):
            sk.converse_check(t1_problem(0.0), epsilon=0.0, x0=[0.0])


class TestDiagnostics:
    def test_calmness_matches_closed_form(self):
        fam = t1_family()
        est = sk.calmness_diagnostic(fam, sk.AbsCoord(0), [2.0],
                                     radii=[0.125, 0.25, 0.5], seed=0)
        assert est.slope == pytest.approx(2.0, abs=0.05)
        assert est.value_slope == pytest.approx(-2.0, abs=0.05)

    def test_constant_family_zero_slope(self):
        def phi_const(p):
            return make_t1_phi()

        fam = sk.ParamFamily(param_space=EU1, p_bar=np.array([1.0]),
                             phi_of_p=phi_const, psi_of_p=lambda p: make_t1_psi())
        est = sk.calmness_diagnostic(fam, sk.AbsCoord(0), [2.0], radii=[0.25], seed=0)
        assert est.slope == pytest.approx(0.0, abs=1e-9)

    def test_inf_nonincreasing_under_radius_refinement(self):
        fam = t1_family()
        est = sk.calmness_diagnostic(fam, sk.AbsCoord(0), [2.0],
                                     radii=[0.1, 0.2, 0.4], seed=1)
        infs = [row[1] for row in est.per_radius]
        assert all(a >= b - 1e-12 for a, b in zip(infs, infs[1:]))

    def test_semiregularity_matches_closed_form(self):
        fam = t1_family()
        est = sk.semiregularity_estimate(fam, [2.0], radius=0.5, n_samples=32, seed=0)
        assert est.theta == pytest.approx(2.0, abs=0.05)
        assert est.kappa == pytest.approx(0.5, abs=0.02)

    def test_degenerate_family_sentinel(self):
        def phi_const(p):
            return make_t1_phi()

        fam = sk.ParamFamily(param_space=EU1, p_bar=np.array([1.0]),
                             phi_of_p=phi_const, psi_of_p=lambda p: make_t1_psi())
        # sample points inside the (parameter-independent) region only
        est = sk.semiregularity_estimate(fam, [3.0], radius=0.5, n_samples=16, seed=0)
        assert math.isinf(est.theta) and est.kappa == 0.0

    def test_consistency_with_exact_penalization(self, t1_problem):
        """Finite calmness and kappa coexist with an exact penalty level."""
        fam = t1_family()
        cal = sk.calmness_diagnostic(fam, sk.AbsCoord(0), [2.0], radii=[0.25], seed=2)
        semi = sk.semiregularity_estimate(fam, [2.0], radius=0.25, n_samples=16, seed=2)
        assert math.isfinite(cal.slope) and math.isfinite(semi.kappa)
        cert = sk.verify_exactness(t1_problem(1.05 * THRESHOLD_T1), [2.0],
                                   radius=1.0, grid_n=81)
        assert not cert.falsified

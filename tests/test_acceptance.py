"""Acceptance suite: one test per criterion, at the stated tolerances.

Each criterion prints a single pass/fail line.  Criterion 8 re-runs
every other criterion with the same seeds and requires byte-identical
reports, so all criterion bodies return JSON-serializable payloads.
"""

import json
import math
import time

import numpy as np
import pytest

import setcover_kit as sk
from setcover_kit.geometry import rng_for
from setcover_kit.instances import jsonify
from conftest import make_t1_instance

EU1 = sk.NormedSpace(1)
EU2 = sk.NormedSpace(2)

_CACHE: dict = {}


def run_cached(name, fn):
    if name not in _CACHE:
        _CACHE[name] = fn()
    return _CACHE[name]


def report_line(num, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------


def criterion_1():
    t0 = time.monotonic()
    payload = {}
    ok = True
    for name, m in (("sphere_scale", sk.SphereScale()),
                    ("unit_ball_translate", sk.UnitBallTranslate())):
        cov = sk.check_covering(m, alpha=1.0, trials=500, seed=0)
        payload[f"{name}/covering"] = cov.to_jsonable()
        ok = ok and cov.verdict == "no-counterexample-found"
        for alpha in (0.1, 0.25, 0.5, 1.0):
            cert = sk.check_set_covering(m, alpha=alpha, trials=60, seed=0)
            payload[f"{name}/set-covering/{alpha}"] = cert.to_jsonable()
            ok = ok and cert.verdict == "falsified"
    elapsed = time.monotonic() - t0
    return ok and elapsed < 10.0, payload, elapsed


def criterion_2():
    t0 = time.monotonic()
    inst = make_t1_instance()  # alpha_used = 0.99, beta = 0.5, tol = 1e-6
    trace = sk.solve_inclusion(inst, [0.0])
    d, bound = trace.bound_check
    ratio = trace.beta / trace.alpha_used
    contraction_ok = True
    steps = [s for s in trace.steps if s.kind != "polish"]
    for prev, cur in zip(steps, steps[1:]):
        contraction_ok &= cur.residual <= ratio * prev.residual + 1e-9 * (1 + prev.residual)
    ok = (trace.status == "converged"
          and trace.residuals[-1] <= 1e-6
          and trace.n_iterations <= 40
          and 2.0 <= d <= 2.0408163265306123 + 1e-6
          and contraction_ok)
    elapsed = time.monotonic() - t0
    return ok and elapsed < 1.0, trace.to_jsonable(), elapsed


def criterion_3():
    t0 = time.monotonic()
    inst = make_t1_instance()
    thr = sk.threshold(1.0, 0.99, 0.5)
    prob_high = sk.PenaltyProblem(sk.AbsCoord(0), inst, 2.143)
    res = sk.minimize_penalty(prob_high, [0.0])
    cert_high = sk.verify_exactness(prob_high, [2.0], radius=1.0, grid_n=101)
    prob_low = sk.PenaltyProblem(sk.AbsCoord(0), inst, 1.0)
    cert_low = sk.verify_exactness(prob_low, [2.0], radius=2.5, grid_n=101)
    witness = cert_low.violations[0] if cert_low.violations else None
    witness_value = (sk.penalty_value(prob_low, np.array(witness.point))
                     if witness else None)
    ok = (abs(thr - 2.0408163265306123) <= 1e-12
          and abs(res.value - 2.0) <= 1e-3
          and abs(abs(res.x[0]) - 2.0) <= 1e-3
          and not cert_high.falsified
          and cert_low.falsified
          and witness is not None
          and abs(witness.point[0]) <= 0.05
          and abs(witness_value - 1.0) <= 0.05)
    payload = {"threshold": thr, "minimizer": res.to_jsonable(),
               "exactness_high": cert_high.to_jsonable(),
               "exactness_low": cert_low.to_jsonable(),
               "witness_value": witness_value}
    elapsed = time.monotonic() - t0
    return ok and elapsed < 5.0, payload, elapsed


def criterion_4():
    t0 = time.monotonic()
    rng = rng_for(404, 0)
    ok = True
    alphas = []
    for _ in range(20):
        n, mdim = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        groups = tuple(rng.uniform(-3, 3, (int(rng.integers(1, 4)), mdim)) + 0.1
                       for _ in range(n))
        m = sk.SublinearSystem(groups=groups)
        oracle = 1.0 / max(float(np.linalg.norm(row)) for g in groups for row in g)
        got = sk.alpha_of(m).alpha
        alphas.append(got)
        ok = ok and got == oracle  # relative error 0
    fixtures = {
        "orthant_graph": sk.PolyhedralProcess(cx=[[1.0], [1.0]],
                                              cy=[[-1.0, 0.0], [0.0, -1.0]]),
        "identity_graph": sk.PolyhedralProcess(cx=[[1.0], [-1.0]], cy=[[-1.0], [1.0]]),
        "halfline_translate": sk.PolyhedralProcess(cx=[[1.0]], cy=[[-1.0]]),
    }
    reports = {name: sk.interior_radius(proc).to_jsonable()
               for name, proc in fixtures.items()}
    ok = ok and reports["orthant_graph"]["alpha"] > 0
    ok = ok and reports["identity_graph"]["alpha"] == 0
    ok = ok and reports["halfline_translate"]["alpha"] > 0
    payload = {"sublinear_alphas": alphas, "interior_reports": reports}
    elapsed = time.monotonic() - t0
    return ok and elapsed < 5.0, payload, elapsed


def criterion_5():
    t0 = time.monotonic()
    base = sk.Dilation(y0=np.zeros(2), a=3.0, anchor=np.zeros(2),
                       space_x=EU2, space_y=EU2)
    summ = sk.Sum(base, sk.Affine(0.5 * np.eye(2), np.zeros(2)))
    cert_sum = sk.check_set_covering(summ, alpha=0.99 * (3.0 - 0.5), trials=200, seed=0)
    th = 0.7
    rot = 0.5 * np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    g = sk.Affine(rot, np.array([0.3, -0.2]))
    dil = sk.Dilation(y0=np.array([1.0, 0.5]), a=1.0, anchor=np.zeros(1), space_y=EU2)
    comp = sk.Composed(g, dil)
    c = g.covering_constant(EU2, EU2)
    cert_comp = sk.check_set_covering(comp, alpha=0.99 * 1.0 * c, trials=200, seed=0)
    ok = not cert_sum.falsified and not cert_comp.falsified
    payload = {"sum": cert_sum.to_jsonable(), "composed": cert_comp.to_jsonable()}
    elapsed = time.monotonic() - t0
    return ok and elapsed < 20.0, payload, elapsed


def criterion_6():
    t0 = time.monotonic()
    dil = sk.Dilation(y0=np.zeros(2), a=1.0, anchor=np.zeros(1), space_y=EU2)
    cert_eb = sk.check_inverse_errorbound(dil, alpha=0.99, trials=100, seed=0)
    cert_h = sk.check_inverse_hausdorff(dil, alpha=0.99, trials=100, seed=0)
    ok = not cert_eb.falsified and not cert_h.falsified
    payload = {"errorbound": cert_eb.to_jsonable(), "hausdorff": cert_h.to_jsonable()}
    elapsed = time.monotonic() - t0
    return ok and elapsed < 10.0, payload, elapsed


def criterion_7():
    t0 = time.monotonic()

    def phi_of_p(p):
        return sk.BallValued(sk.Affine(np.zeros((2, 1)), np.zeros(2)),
                             c0=float(p[0]), c1=0.5, space_x=EU1, space_y=EU2)

    def psi_of_p(p):
        return sk.Dilation(y0=np.zeros(2), a=1.0, anchor=np.zeros(1), space_y=EU2)

    fam = sk.ParamFamily(param_space=EU1, p_bar=np.array([1.0]),
                         phi_of_p=phi_of_p, psi_of_p=psi_of_p)
    cal = sk.calmness_diagnostic(fam, sk.AbsCoord(0), [2.0],
                                 radii=[0.125, 0.25, 0.5], seed=0)
    semi = sk.semiregularity_estimate(fam, [2.0], radius=0.5, n_samples=32, seed=0)
    ok = abs(cal.slope - 2.0) <= 0.05 and abs(semi.theta - 2.0) <= 0.05
    payload = {"calmness": cal.to_jsonable(), "semiregularity": semi.to_jsonable()}
    elapsed = time.monotonic() - t0
    return ok and elapsed < 10.0, payload, elapsed


_CRITERIA = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
}


@pytest.mark.parametrize("num", sorted(_CRITERIA))
def test_criterion(num):
    ok, payload, elapsed = run_cached(num, _CRITERIA[num])
    detail = {
        1: "counterexample fidelity (covering holds, set-covering falsified)",
        2: "solver bound tightness on the reference instance",
        3: "penalty exactness above the threshold, failure below",
        4: "constant formulas and process classification",
        5: "perturbation and composition stability",
        6: "inverse-map error bound and Lipschitz inverse",
        7: "calmness and semiregularity against closed forms",
    }[num]
    report_line(num, ok, f"{detail} ({elapsed:.2f}s)")


def test_criterion_8_determinism():
    t0 = time.monotonic()
    ok = True
    for num, fn in sorted(_CRITERIA.items()):
        _, first, _ = run_cached(num, fn)
        _, second, _ = fn()
        a = json.dumps(jsonify(first), sort_keys=True).encode()
        b = json.dumps(jsonify(second), sort_keys=True).encode()
        ok = ok and a == b
    elapsed = time.monotonic() - t0
    report_line(8, ok, f"byte-identical reports under seed replay ({elapsed:.2f}s)")

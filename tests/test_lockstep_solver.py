"""Inclusion solves against the one-start loop they replaced, by float hex.

`ref_solve_inclusion` is the one-start solve loop as it was before
`solve_inclusion` became the one-start call of the lockstep loop, kept
as the reference: one scalar witness, residual and distance call per
step, the residual by the scalar rule `old_residual` that
`InclusionInstance.residual` ran before it became one row of
`residuals`.  Every trace of `solve_inclusion` and of `solve_inclusions` must
equal the reference's from the same start: status, every step, the
displacement bound, the re-check and the violation record.  The witness
rule of each map kind, on one point and on a stack, is checked against
the scalar and batched twins it replaced, kept here as references, and
the family diagnostics' nearest-first parameter scan against the scan it
replaced.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import setcover_kit as sk
from setcover_kit._lp import max_norm_fit
from setcover_kit.penalty import _inverse_param_distances
from setcover_kit.solver import CONTRACTION_SLACK, SolveStep, SolveTrace
from test_images import old_excess, old_image, old_residual

NORMS = (("euclidean", None), ("max", None), ("p", 3.0))
PSI_KINDS = ("dilation", "sublinear_system", "sum", "composed", "epigraphical")


def hexes(values) -> list[str]:
    return [float(v).hex() for v in np.asarray(values, dtype=float).reshape(-1)]


def space(d, norm):
    return sk.NormedSpace(d, norm[0], norm[1])


def signed_permutation(rng, d) -> np.ndarray:
    """A matrix of operator norm 1 and covering rate 1 under every norm here."""
    return np.eye(d)[rng.permutation(d)] * rng.choice([-1.0, 1.0], size=d)


def make_psi(kind, d, norm, rng):
    """(psi, its covering constant) for a psi of this kind on R^d."""
    if kind in ("dilation", "sum", "composed"):
        a = float(rng.uniform(1.0, 3.0))
        base = sk.Dilation(rng.standard_normal(d), a, float(rng.uniform(0.0, 0.5)),
                           rng.standard_normal(d), space(d, norm), space(d, norm))
        if kind == "dilation":
            return base, a
        if kind == "sum":
            c = float(rng.uniform(0.0, 0.5))
            return sk.Sum(base, sk.Affine(c * signed_permutation(rng, d),
                                          rng.standard_normal(d))), a - c
        lam = float(rng.uniform(0.5, 2.0))
        return sk.Composed(sk.Affine(lam * signed_permutation(rng, d), rng.standard_normal(d)),
                           base, space(d, norm)), lam * a
    if kind == "sublinear_system":
        psi = sk.SublinearSystem(tuple(rng.standard_normal((int(rng.integers(1, 3)), d))
                                       for _ in range(d)), space(d, norm))
        return psi, sk.alpha_of(psi).alpha
    matrix = rng.standard_normal((d, d + int(rng.integers(2))))
    matrix[:, :d] += 3.0 * np.eye(d)  # full row rank
    psi = sk.Epigraphical(matrix)  # an LP witness: one LP per row
    return psi, sk.alpha_of(psi).alpha


def make_instance(kind, d, norm, rng, alpha_factor=1.0, max_iter=10_000):
    psi, alpha = make_psi(kind, d, norm, rng)
    sx, sy = psi.space_x, psi.space_y
    c1 = float(rng.uniform(0.0, 0.5)) * alpha
    phi = sk.BallValued(sk.Affine(np.zeros((sy.dim, sx.dim)), rng.standard_normal(sy.dim)),
                        c0=float(rng.uniform(0.1, 1.0)), c1=c1, xhat=rng.standard_normal(sx.dim),
                        space_x=sx, space_y=sy)
    return sk.InclusionInstance(psi=psi, phi=phi, alpha=alpha_factor * alpha, beta=c1,
                                max_iter=max_iter)


def canonical(value):
    if value is None or isinstance(value, str):
        return value
    if isinstance(value, dict):
        return {k: canonical(v) for k, v in value.items()}
    return hexes(value)


def trace_key(trace) -> tuple:
    return (trace.status, hexes([trace.alpha_used, trace.beta, trace.tol]),
            [(hexes(s.x), hexes(s.residual), hexes(s.step_length), s.kind) for s in trace.steps],
            hexes(trace.bound_check), canonical(trace.residual_recheck),
            canonical(trace.violation))


def starts_for(inst, k, rng) -> np.ndarray:
    starts = 2.0 * rng.standard_normal((k, inst.space_x.dim))
    starts[rng.uniform(size=k) < 0.2] = 0.0
    if k > 1:
        starts[-1] = starts[0]  # a repeated start
    anchor = getattr(inst.psi, "anchor", None)
    if anchor is not None and k > 2:
        starts[1] = anchor  # the unit direction's zero-vector case
    return starts


def ref_solve_inclusion(inst, x0, polish=True):
    """The one-start solve loop, with the step, polish and trace rules written out."""
    space = inst.space_x
    x = space.check_point(x0).copy()
    r = old_residual(inst, x)
    steps = [SolveStep(tuple(x), r, 0.0, "start")]
    violation = None
    ratio = inst.beta / inst.alpha_used
    for _ in range(inst.max_iter):
        if r <= inst.tol:
            break
        u = sk.cover_witness(inst.psi, x, (r + 1e-12) / inst.alpha_used)
        r_next = old_residual(inst, u)
        if r_next > ratio * r + CONTRACTION_SLACK * (1.0 + r):
            violation = {"x": x.tolist(), "u": u.tolist(), "residual": r,
                         "residual_next": r_next, "allowed": ratio * r,
                         "note": "declared constants are inconsistent with the mapping"}
            break
        steps.append(SolveStep(tuple(u), r_next, space.dist(u, x), "contraction"))
        x, r = u, r_next
    if polish and violation is None and 0.0 < r <= inst.tol:
        u = sk.cover_witness(inst.psi, x, r / (inst.alpha_used - inst.beta))
        r_pol = old_residual(inst, u)
        if r_pol <= min(inst.tol, steps[-1].residual):
            steps.append(SolveStep(tuple(u), r_pol, space.dist(u, x), "polish"))
    x, r = np.array(steps[-1].x), steps[-1].residual
    if violation is not None:
        status = "contraction-violated"
    else:
        status = "converged" if r <= inst.tol else "budget-exhausted"
    recheck = None
    if status == "converged":  # the sampled re-check: 64 points of phi(x), seed 17
        pts = sk.sample(inst.space_y, old_image(inst.phi, x), 64, 17)
        recheck = float(sk.dists(inst.space_y, pts, old_image(inst.psi, x)).value.max())
    return SolveTrace(steps=steps, status=status, alpha_used=inst.alpha_used, beta=inst.beta,
                      tol=inst.tol,
                      bound_check=(space.dist(np.array(steps[0].x), x),
                                   steps[0].residual / (inst.alpha_used - inst.beta)),
                      residual_recheck=recheck, violation=violation)


def assert_lockstep_equals_one_start(inst, starts, polish=True):
    want = [trace_key(ref_solve_inclusion(inst, x0, polish)) for x0 in starts]
    traces = sk.solve_inclusions(inst, starts, polish=polish)
    assert [trace_key(trace) for trace in traces] == want
    assert [trace_key(sk.solve_inclusion(inst, x0, polish)) for x0 in starts] == want
    return traces


LOCKSTEP_CASES = dict(norm=st.sampled_from(NORMS), d=st.integers(1, 3), k=st.integers(1, 8),
                      alpha_factor=st.sampled_from((1.0, 1.0, 3.0)),
                      max_iter=st.sampled_from((1, 3, 10_000)), polish=st.booleans(),
                      seed=st.integers(0, 2**32 - 1))


def check_lockstep(kind, norm, d, k, alpha_factor, max_iter, polish, seed):
    rng = np.random.default_rng(seed)
    inst = make_instance(kind, d, norm, rng, alpha_factor, max_iter)
    assert_lockstep_equals_one_start(inst, starts_for(inst, k, rng), polish)


@settings(max_examples=120, deadline=None)
@given(kind=st.sampled_from(("dilation", "sum", "composed", "epigraphical")), **LOCKSTEP_CASES)
def test_each_lockstep_trace_equals_its_one_start_solve(kind, **case):
    check_lockstep(kind, **case)


@settings(max_examples=15, deadline=None)  # each sublinear residual projects onto its images
@given(**LOCKSTEP_CASES)
def test_each_sublinear_lockstep_trace_equals_its_one_start_solve(**case):
    check_lockstep("sublinear_system", **case)


def test_the_three_statuses_share_one_lockstep_run():
    rng = np.random.default_rng(5)
    seen = set()
    for alpha_factor, max_iter in ((1.0, 10_000), (1.0, 2), (3.0, 10_000)):
        for kind in PSI_KINDS:
            inst = make_instance(kind, 2, NORMS[0], rng, alpha_factor, max_iter)
            traces = assert_lockstep_equals_one_start(inst, starts_for(inst, 8, rng))
            seen |= {t.status for t in traces}
            seen |= {s.kind for t in traces for s in t.steps}
    assert seen == {"converged", "budget-exhausted", "contraction-violated",
                    "start", "contraction", "polish"}


def test_no_starts_and_the_reference_instance():
    psi = sk.Dilation(np.zeros(2), 1.0, 0.0, np.zeros(1), space_y=sk.NormedSpace(2))
    phi = sk.BallValued(sk.Affine(np.zeros((2, 1)), np.zeros(2)), c0=1.0, c1=0.5,
                        space_x=sk.NormedSpace(1), space_y=sk.NormedSpace(2))
    inst = sk.InclusionInstance(psi=psi, phi=phi)
    assert sk.solve_inclusions(inst, []) == []
    traces = assert_lockstep_equals_one_start(inst, [[0.0], [0.5], [-1.0], [3.0]])
    assert [t.status for t in traces] == ["converged"] * 4
    assert traces[3].n_iterations == 0  # already feasible


def test_a_residual_that_stays_nan_exhausts_the_budget(monkeypatch):
    psi = sk.Dilation(np.zeros(1), 2.0, 0.0, np.zeros(1))
    phi = sk.BallValued(sk.Affine(np.zeros((1, 1)), np.zeros(1)), c0=1.0, c1=0.5,
                        space_x=sk.NormedSpace(1), space_y=sk.NormedSpace(1))
    inst = sk.InclusionInstance(psi=psi, phi=phi, max_iter=3)
    monkeypatch.setattr(sk.InclusionInstance, "residual", lambda self, x: float("nan"))
    monkeypatch.setattr(sk.InclusionInstance, "residuals",
                        lambda self, xs: np.full(len(xs), np.nan))
    traces = [sk.solve_inclusion(inst, [1.0]), *sk.solve_inclusions(inst, [[1.0], [-2.0]])]
    for trace in traces:
        assert trace.status == "budget-exhausted"
        assert trace.n_iterations == 3
        assert trace.residual_recheck is None and trace.violation is None


def witness_or_error(witness, m, x, rho):
    try:
        return witness(m, x, rho)
    except (LookupError, ValueError) as exc:
        return type(exc)


def old_witness(m, x, rho):
    """The one-point witness rules that changed when witness took stacks: Sum and
    Composed called cover_witness of their base; the epigraphical rule (x plus rho
    times the shortest shift onto -alpha_f * 1) is copied, its LP solved afresh.
    Every other kind's one-point rule is the kind's own."""
    if isinstance(m, (sk.Sum, sk.Composed)):
        return sk.cover_witness(m.base, x, rho)
    if isinstance(m, sk.Epigraphical):
        target = -m.alpha_f() * np.ones(m.space_y.dim)
        res = max_norm_fit(np.eye(m.matrix.shape[1]), a_eq=m.matrix, b_eq=target)
        if res is None:
            raise sk.NotSetCoveringError("lost surjectivity on the witness shift")
        return x + rho * res.x[:-1]
    return m.witness(x, rho)


def old_witnesses(m, xs, rhos):
    """MapSpec.witnesses, the batched twin of witness until witness took stacks."""
    if isinstance(m, (sk.Sum, sk.Composed)):
        return old_witnesses(m.base, xs, rhos)
    if isinstance(m, sk.Dilation):
        return xs + rhos[:, None] * m.space_x.unit(xs - m.anchor)
    if isinstance(m, sk.SublinearSystem):
        rhos = rhos[:, None]
        return xs + np.where(xs >= 0.0, rhos, -rhos)
    return np.array([old_witness(m, x, rho) for x, rho in zip(xs, rhos.tolist())],
                    dtype=float).reshape(xs.shape)


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(PSI_KINDS + ("polyhedral_process", "sphere_scale", "ball_valued")),
       norm=st.sampled_from(NORMS), d=st.integers(1, 3), k=st.integers(1, 8),
       seed=st.integers(0, 2**32 - 1))
def test_witnesses_equal_the_scalar_witness_row_by_row(kind, norm, d, k, seed):
    rng = np.random.default_rng(seed)
    if kind == "polyhedral_process":
        psi = sk.PolyhedralProcess(-np.eye(d), np.eye(d))  # y <= x: the interior witness LP
    elif kind == "sphere_scale":
        psi = sk.SphereScale()  # covering-only: no witness rule
    elif kind == "ball_valued":
        psi = sk.BallValued(sk.Affine(np.eye(d), np.zeros(d)), 1.0,
                            space_x=space(d, norm), space_y=space(d, norm))
    else:
        psi = make_psi(kind, d, norm, rng)[0]
    xs = 2.0 * rng.standard_normal((k, psi.space_x.dim))
    xs[rng.uniform(size=xs.shape) < 0.2] = 0.0  # sign(0) and the anchor cases
    if getattr(psi, "anchor", None) is not None:
        xs[0] = psi.anchor
    rhos = rng.uniform(1e-6, 2.0, size=k)
    pairs = list(zip(xs, rhos.tolist()))
    scalar = [witness_or_error(old_witness, psi, x, rho) for x, rho in pairs]
    points = [witness_or_error(type(psi).witness, psi, x, rho) for x, rho in pairs]
    if isinstance(scalar[0], type):  # the first row's error is the stack's
        assert points[0] is scalar[0]
        with pytest.raises(scalar[0]):
            psi.witness(xs, rhos[:, None])
        with pytest.raises(scalar[0]):
            old_witnesses(psi, xs, rhos)
        return
    stack = psi.witness(xs, rhos[:, None])
    assert stack.shape == xs.shape
    assert hexes(stack) == hexes(old_witnesses(psi, xs, rhos))
    for row, point, ref in zip(stack, points, scalar):
        assert hexes(row) == hexes(point) == hexes(ref)


def old_inverse_param_distance(fam, x, p_radius, grid_n, member_tol):
    """The scan before the nearest-first order: every grid point, then the nearest member."""
    p_bar = float(fam.p_bar[0])
    grid = np.linspace(p_bar - p_radius, p_bar + p_radius, grid_n)

    def member(p_val):  # ParamFamily.residual before it became one row of image_excesses
        p = np.array([p_val])
        phi, psi = fam.phi_of_p(p), fam.psi_of_p(p)
        return old_excess(phi.space_y, old_image(phi, x), old_image(psi, x)) <= member_tol

    if member(p_bar):
        return 0.0
    members = [p for p in grid if member(p)]
    if not members:
        return None
    inner, outer = p_bar, float(min(members, key=lambda p: abs(p - p_bar)))
    for _ in range(60):
        mid = 0.5 * (inner + outer)
        if member(mid):
            outer = mid
        else:
            inner = mid
    return abs(outer - p_bar)


def radius_family(p_bar, c0_of_p):
    """phi(x) = ball(0, c0(p) + |x|/2) inside psi(x) = ball(0, |x|): x is in R(p) iff
    c0(p) <= |x|/2."""
    sp = sk.NormedSpace(1)
    psi = sk.Dilation(np.zeros(1), 1.0, 0.0, np.zeros(1))

    def phi_of_p(p):
        return sk.BallValued(sk.Affine(np.zeros((1, 1)), np.zeros(1)), c0=c0_of_p(float(p[0])),
                             c1=0.5, space_x=sp, space_y=sp)

    return sk.ParamFamily(sk.NormedSpace(1), np.array([p_bar]), phi_of_p, lambda p: psi)


def lopsided(p):
    """Largest at p = 1 and falling twice as fast above it: grid points at equal
    distances from 1 are members together, with boundaries at different distances."""
    return 1.2 - (p - 1.0) ** 2 * (2.0 if p > 1.0 else 1.0)


@pytest.mark.parametrize("grid_n", [2, 9, 64, 65])  # 9 and 65 put exact ties about p_bar = 1
def test_nearest_first_scan_finds_the_nearest_member(grid_n):
    families = [radius_family(1.0, lambda p: p), radius_family(1.5, lambda p: p),
                radius_family(1.0, lopsided)]
    for fam in families:
        for x in np.linspace(-3.0, 3.0, 13):
            new = _inverse_param_distances(fam, np.array([[x]]), 0.75, grid_n, 1e-7)[0]
            old = old_inverse_param_distance(fam, np.array([x]), 0.75, grid_n, 1e-7)
            assert (new is None and old is None) or hexes(new) == hexes(old)

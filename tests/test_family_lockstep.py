"""The family diagnostics against the row-by-row loops they replaced, by float hex.

`old_calmness_diagnostic`, `old_value_slope`, `old_semiregularity_estimate`,
`old_region_distance` and `old_inverse_param_distance` are the diagnostics
as they ran before they drew all their samples first and made one stacked
call per step: one `solve_inclusions` call per parameter, three-start
region solves per sample, and one one-point `ParamFamily.residual` per
grid value and bisection step, each building phi and psi at p.  They are
kept here as the references, with one rule added: a parameter whose
instance cannot be built lies outside the family, so the parameter loops
skip it and the grid scan and bisection count it as a non-member (the old
loops raised there).  Every estimate of `calmness_diagnostic` and
`semiregularity_estimate` must equal the reference's, on the built-in
family (`BallRadiusFamily`, whose parameter columns are one stacked call)
and on families built from callables.  A solve's sampled re-check, now
one call over the converged solves with each row drawing from a copy of
one seed-17 generator, must equal the re-check drawn from `rng_for(17, 0)`
itself.
"""

import copy
import math

import numpy as np
import pytest

import setcover_kit as sk
from setcover_kit import mappings as mp
from setcover_kit.geometry import rng_for
from setcover_kit.instances import builtin_instances, decode_instance, run_instance
from setcover_kit.penalty import objective_value
from conftest import make_t1_phi, make_t1_psi
from test_lockstep_solver import lopsided, radius_family

EU1 = sk.NormedSpace(1)
EU2 = sk.NormedSpace(2)


def hexes(obj):
    """obj with every float by its hex form."""
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, dict):
        return {k: hexes(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [hexes(v) for v in obj]
    return obj


def old_instance(fam, p, tol):
    try:
        return fam.instance(p, tol=tol)
    except ValueError:
        return None  # outside the family


def old_residual(fam, p, x):
    """ParamFamily.residual as the old loops called it: phi and psi built at p for one point."""
    p = fam.param_space.check_point(p)
    try:
        phi, psi = fam.phi_of_p(p), fam.psi_of_p(p)
    except ValueError:
        return math.inf
    return mp.image_excesses(phi, psi, phi.space_x.check_point(x)[None]).item(0)


def old_calmness_diagnostic(fam, objective, x_bar, radii, seed=0, n_params=24, n_points=40,
                            member_tol=1e-6):
    radii = sorted(radii)
    r_max = radii[-1]
    space_x = fam.phi_of_p(fam.p_bar).space_x
    x_bar = space_x.check_point(x_bar)
    f_bar = objective_value(objective, space_x, x_bar)
    pairs = []
    rng = rng_for(seed, 0)
    for k in range(n_params):
        offset = rng.uniform(-r_max, r_max, size=fam.param_space.dim)
        p = fam.p_bar + offset
        d_p = fam.param_space.dist(p, fam.p_bar)
        inst = old_instance(fam, p, 1e-9)
        if d_p <= 1e-12 or inst is None:
            continue
        candidates = [x_bar + rng.uniform(-r_max, r_max, size=space_x.dim)
                      for _ in range(n_points)]
        traces = sk.solve_inclusions(inst, [x_bar] + candidates[: max(2, n_points // 8)])
        candidates += [trace.x_final for trace in traces if trace.status == "converged"]
        d_xs = [space_x.dist(x, x_bar) for x in candidates]
        near = [i for i, d_x in enumerate(d_xs) if d_x <= r_max]
        if not near:
            continue
        residuals = inst.residuals(np.array([candidates[i] for i in near]))
        for i, res in zip(near, residuals.tolist()):
            if res > member_tol:
                continue
            ratio = (objective_value(objective, space_x, candidates[i]) - f_bar) / d_p
            pairs.append((d_p, d_xs[i], ratio))
    per_radius = []
    for r in radii:
        sub = [ratio for d_p, d_x, ratio in pairs if d_p <= r and d_x <= r]
        per_radius.append((r, min(sub) if sub else math.inf, len(sub)))
    final_inf = per_radius[-1][1]
    slope = 0.0 if math.isinf(final_inf) else max(0.0, -final_inf)
    value_slope = old_value_slope(fam, objective, x_bar, r_max, seed, n_params, member_tol)
    return sk.CalmnessEstimate(slope=slope, value_slope=value_slope,
                               per_radius=tuple(per_radius), n_pairs=len(pairs), seed=seed)


def old_value_slope(fam, objective, x_bar, radius, seed, n_params, member_tol):
    space_x = fam.phi_of_p(fam.p_bar).space_x
    f_bar = objective_value(objective, space_x, x_bar)
    worst = math.inf
    rng = rng_for(seed, 1)
    for _ in range(n_params):
        p = fam.p_bar + rng.uniform(-radius, radius, size=fam.param_space.dim)
        d_p = fam.param_space.dist(p, fam.p_bar)
        inst = old_instance(fam, p, 1e-9)
        if d_p <= 1e-12 or inst is None:
            continue
        best = None
        starts = [x_bar] + [x_bar + rng.uniform(-radius, radius, size=space_x.dim)
                            for _ in range(4)]
        near = [trace.x_final for trace in sk.solve_inclusions(inst, starts)
                if trace.status == "converged"]
        near = [x for x in near if space_x.dist(x, x_bar) <= radius]
        if not near:
            continue
        for x, res in zip(near, inst.residuals(np.array(near)).tolist()):
            if res > member_tol:
                continue
            val = objective_value(objective, space_x, x)
            best = val if best is None else min(best, val)
        if best is not None:
            worst = min(worst, (best - f_bar) / d_p)
    return worst


def old_semiregularity_estimate(fam, x_bar, radius=0.5, n_samples=32, seed=0, p_radius=0.75,
                                p_grid_n=65, member_tol=1e-7):
    space_x = fam.phi_of_p(fam.p_bar).space_x
    x_bar = space_x.check_point(x_bar)
    inst_bar = fam.instance(fam.p_bar, tol=1e-10)
    rng = rng_for(seed, 2)
    ratios, skipped, produced = [], 0, 0
    while produced < n_samples:
        produced += 1
        x = x_bar + rng.uniform(-radius, radius, size=space_x.dim)
        if inst_bar.residual(x) <= member_tol:
            continue
        num = old_region_distance(inst_bar, x, seed)
        den = old_inverse_param_distance(fam, x, p_radius, p_grid_n, member_tol)
        if den is None:
            skipped += 1
            continue
        ratios.append(math.inf if den <= 1e-12 else num / den)
    if not ratios or all(math.isinf(t) for t in ratios):
        return sk.SemiregularityEstimate(theta=math.inf, kappa=0.0, n_samples=len(ratios),
                                         n_skipped=skipped, seed=seed)
    theta = min(t for t in ratios if not math.isinf(t))
    kappa = math.inf if theta <= 0 else 1.0 / theta
    return sk.SemiregularityEstimate(theta=theta, kappa=kappa, n_samples=len(ratios),
                                     n_skipped=skipped, seed=seed)


def old_region_distance(inst, x, seed):
    best = math.inf
    space_x = inst.space_x
    rng = rng_for(seed, 3)
    starts = [x] + [np.asarray(x) + 0.05 * rng.standard_normal(space_x.dim) for _ in range(2)]
    for trace in sk.solve_inclusions(inst, starts):
        if trace.status == "converged":
            best = min(best, space_x.dist(trace.x_final, x))
    if math.isinf(best):
        best = inst.residual(x) / (inst.alpha_used - inst.beta)
    return best


def old_inverse_param_distance(fam, x, p_radius, grid_n, member_tol):
    """The nearest-first grid scan and bisection, one residual call per parameter."""
    p_bar = float(fam.p_bar[0])
    grid = np.linspace(p_bar - p_radius, p_bar + p_radius, grid_n)

    def member(p_val):
        return old_residual(fam, np.array([p_val]), x) <= member_tol

    if member(p_bar):
        return 0.0
    order = sorted(range(grid_n), key=lambda i: abs(grid[i] - p_bar))
    nearest = next((grid[i] for i in order if member(grid[i])), None)
    if nearest is None:
        return None
    inner, outer = p_bar, float(nearest)
    for _ in range(60):
        mid = 0.5 * (inner + outer)
        if member(mid):
            outer = mid
        else:
            inner = mid
    return abs(outer - p_bar)


def callable_family(psi, c1, p_bar):
    """The built-in family kind as instances.py built it from callables before the
    ball-radius family ran parameter columns."""
    space_x, space_y = psi.space_x, psi.space_y
    center = sk.Affine(np.zeros((space_y.dim, space_x.dim)), np.zeros(space_y.dim))

    def phi_of_p(p):
        return sk.BallValued(center, c0=float(p[0]), c1=c1, space_x=space_x, space_y=space_y)

    return sk.ParamFamily(EU1, np.asarray(p_bar, dtype=float), phi_of_p, lambda p: psi)


def family_block(**changes):
    data = copy.deepcopy(builtin_instances()["family"])
    data["family"].update(changes)
    return data


def reference_run(data, seed):
    blk = decode_instance(data)["family"]
    fam = callable_family(blk["psi"], blk["c1"], blk["p_bar"])
    cal = old_calmness_diagnostic(fam, blk["objective"], blk["x_bar"], blk["radii"], seed=seed)
    semi = old_semiregularity_estimate(fam, blk["x_bar"], radius=max(blk["radii"]), seed=seed)
    return {"calmness": cal.to_jsonable(), "semiregularity": semi.to_jsonable()}


def run(data, seed):
    code, out = run_instance(decode_instance(data), seed=seed)
    assert code == 0
    return {"calmness": out["calmness"], "semiregularity": out["semiregularity"]}


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_builtin_family_equals_the_row_by_row_diagnostics(seed):
    data = builtin_instances()["family"]
    assert hexes(run(data, seed)) == hexes(reference_run(data, seed))


@pytest.mark.parametrize("p_bar", [0.3, 0.05])
def test_parameters_without_a_ball_are_outside_the_family(p_bar):
    # calmness draws p in [p_bar - 0.5, p_bar + 0.5] and the grid spans p_bar +- 0.75,
    # so some parameters give phi a radius c0 <= 0: skipped, and never members.  x_bar
    # sits on the boundary |x| = 2 p_bar of R(p_bar), so that samples fall outside it
    data = family_block(p_bar=[p_bar], x_bar=[2.0 * p_bar])
    fam = sk.BallRadiusFamily(decode_instance(data)["family"]["psi"], 0.5, [p_bar])
    assert fam.members(np.array([[p_bar], [0.0], [-0.2]])).tolist() == [True, False, False]
    assert math.isinf(fam.residual([-0.2], [2.0]))
    got = run(data, 0)
    assert hexes(got) == hexes(reference_run(data, 0))
    assert got["calmness"]["n_pairs"] > 0 and got["semiregularity"]["n_samples"] > 0


def diagnostics(fam, x_bar, seed, radii=(0.125, 0.25, 0.5)):
    return (sk.calmness_diagnostic(fam, sk.AbsCoord(0), x_bar, radii=radii, seed=seed),
            sk.semiregularity_estimate(fam, x_bar, radius=max(radii), n_samples=16, seed=seed))


def old_diagnostics(fam, x_bar, seed, radii=(0.125, 0.25, 0.5)):
    return (old_calmness_diagnostic(fam, sk.AbsCoord(0), x_bar, radii=radii, seed=seed),
            old_semiregularity_estimate(fam, x_bar, radius=max(radii), n_samples=16, seed=seed))


def t1_family():
    def phi_of_p(p):
        return sk.BallValued(sk.Affine(np.zeros((2, 1)), np.zeros(2)), c0=float(p[0]), c1=0.5,
                             space_x=EU1, space_y=EU2)

    return sk.ParamFamily(EU1, np.array([1.0]), phi_of_p, lambda p: make_t1_psi())


def constant_family():
    return sk.ParamFamily(EU1, np.array([1.0]), lambda p: make_t1_phi(), lambda p: make_t1_psi())


FAMILIES = {
    "t1": (t1_family, [2.0]),
    "constant": (constant_family, [3.0]),  # every sample in the region: the inf sentinel
    "lopsided": (lambda: radius_family(1.0, lopsided), [2.0]),
    "ball_radius": (lambda: sk.BallRadiusFamily(make_t1_psi(), 0.5, [1.0]), [2.0]),
}


@pytest.mark.parametrize("name", sorted(FAMILIES))
@pytest.mark.parametrize("seed", [0, 1])
def test_families_equal_the_row_by_row_diagnostics(name, seed):
    make, x_bar = FAMILIES[name]
    new, old = diagnostics(make(), x_bar, seed), old_diagnostics(make(), x_bar, seed)
    assert [hexes(e.to_jsonable()) for e in new] == [hexes(e.to_jsonable()) for e in old]
    if name == "constant":
        assert math.isinf(new[1].theta) and new[1].kappa == 0.0


def test_the_ball_radius_family_equals_its_callable_twin():
    psi = sk.Dilation(np.zeros(2), 1.5, 0.25, np.zeros(2), sk.NormedSpace(2, "max"),
                      sk.NormedSpace(2, "max"))
    column, rows = sk.BallRadiusFamily(psi, 0.7, [1.0]), callable_family(psi, 0.7, [1.0])
    rng = np.random.default_rng(5)
    ps, xs = rng.uniform(-0.5, 2.0, size=(40, 1)), rng.uniform(-3.0, 3.0, size=(40, 2))
    assert column.members(ps).tolist() == rows.members(ps).tolist() == (ps[:, 0] > 0).tolist()
    assert hexes(column.residuals(ps, xs).tolist()) == hexes(rows.residuals(ps, xs).tolist())
    assert hexes([column.residual(p, x) for p, x in zip(ps, xs)]) == \
        hexes([old_residual(rows, p, x) for p, x in zip(ps, xs)])
    keep = ps[:, 0] > 0
    new = column.solves(ps[keep], xs[keep], 1e-9)
    old = rows.solves(ps[keep], xs[keep], 1e-9)
    assert [hexes(t.to_jsonable(10_000)) for t in new] == \
        [hexes(t.to_jsonable(10_000)) for t in old]
    assert {t.status for t in new} == {"converged"}


def test_a_recheck_ball_that_needs_a_second_rejection_chunk():
    # 64 points of a 5-d euclidean ball: 11 centre and axis points, then a chunk of
    # 2 * 53 + 16 cube candidates, of which about 16 % land in the ball
    space_x, space_y = sk.NormedSpace(1), sk.NormedSpace(5)
    psi = sk.Dilation(np.zeros(5), 1.0, 0.0, np.zeros(1), space_x, space_y)
    phi = sk.BallValued(sk.Affine(np.zeros((5, 1)), np.full(5, 0.1)), c0=0.5, c1=0.3,
                        space_x=space_x, space_y=space_y)
    inst = sk.InclusionInstance(psi=psi, phi=phi)
    traces = sk.solve_inclusions(inst, [[1.0], [-2.0], [0.5], [4.0]])
    assert {t.status for t in traces} == {"converged"}
    for trace in traces:
        x = trace.x_final
        ball = mp.eval_map(phi, x)
        chunk = rng_for(17, 0).uniform(-ball.radius, ball.radius, size=(2 * 53 + 16, 5))
        assert np.count_nonzero(space_y.norms(chunk) <= ball.radius) < 53  # a second chunk
        pts = ball.sample(space_y, 64, 17, rng_for(17, 0), None)
        want = float(sk.dists(space_y, pts, mp.eval_map(psi, x)).value.max())
        assert trace.residual_recheck.hex() == want.hex()
        assert sk.solve_inclusion(inst, trace.steps[0].x).residual_recheck.hex() == want.hex()

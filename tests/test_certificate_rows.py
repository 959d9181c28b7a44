"""Certificate trials as rows, bit for bit.

`check_covering`, `check_set_covering` and `check_inverse_errorbound` run
all their trials in stacked calls: one draw array, one `eval_maps` call,
one stacked witness, one batched `respond`, one family sampler and one
row-wise distance call.  The per-trial loops they replaced are kept here
as the references (`ref_check_covering` and the others), with the scalar
responders and the scalar enlargement sampler: every certificate is
compared by its JSON form with every float by its hex form.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import setcover_kit as sk
from setcover_kit import mappings as mp
from setcover_kit.certify import (
    R_RANGE_DEFAULT,
    Certificate,
    Violation,
    _default_box,
    _sub_seed,
)
from setcover_kit.codec import map_to_json
from setcover_kit.geometry import Family, Rounds, _sample_enlargement, rng_for
from test_dists import ref_norm, ref_sample_enlargement, ref_unit
from test_images import ref_fallback_search
from test_search import ref_ball_search

EU2, MAX2 = sk.NormedSpace(2), sk.NormedSpace(2, "max")
TRIAL_COUNTS = (0, 1, 2, 3, 4, 5, 37)


# ---------------------------------------------------------------------------
# the per-trial loops, as they were


def ref_draw(rng, x_box, r_range, dy=0):
    """A trial's point, radius and (dy > 0) ball centre, one number at a time."""
    lo, hi = x_box
    x = rng.uniform(lo, hi)
    r = math.exp(rng.uniform(math.log(r_range[0]), math.log(r_range[1])))
    return x, r, (rng.uniform(-5.0, 5.0, size=dy) if dy else None)


def ref_scale_tol(tol, x, extra):
    return tol * (1.0 + float(np.max(np.abs(x))) + extra)


def ref_respond(m, x, r, y):
    """The scalar closed-form responders of the two covering-only maps."""
    if type(m) is sk.SphereScale:
        ny = float(np.linalg.norm(y))
        lo, hi = max(0.0, abs(float(x[0])) - r), abs(float(x[0])) + r
        rho = min(max(ny, lo), hi)
        sign = 1.0 if x[0] >= 0 else -1.0
        u = np.array([sign * rho])
        if abs(u[0] - x[0]) > r:
            u = np.array([-sign * rho])
        return u, abs(ny - rho)
    if type(m) is sk.UnitBallTranslate:
        space = m.space_x
        d = space.dist(y, x)
        step = min(r, max(0.0, d - 1.0))
        u = x + step * ref_unit(space, np.asarray(y) - x)
        return u, max(0.0, d - r - 1.0)
    return None


def ref_enlargement(space, s, rho, n, seed, t, sub):
    return ref_sample_enlargement(space, s, rho, n, _sub_seed(seed, t, sub))


def ref_search_cover_point(m, x, r, y, seed, budget):
    """The covering search for one target y, on the scalar searches: the u of the r-ball
    at x nearest y by dist(y, F(u)), inf where F(u) cannot be built."""
    def objective(u):
        try:
            image = mp.eval_map(m, u)
        except ValueError:
            return math.inf
        return float(sk.dist_point(m.space_y, y, image))

    return ref_ball_search(objective, m.space_x, x, r, rng_for(seed, 0), 3, max(30, budget // 4))


def ref_check_covering(m, alpha, trials, seed, x_box=None, r_range=R_RANGE_DEFAULT,
                       n_targets=4, tol=1e-9, search_budget=600):
    x_box = x_box or _default_box(m.space_x.dim)
    violations = []
    for t in range(trials):
        x, r, _ = ref_draw(rng_for(seed, t), x_box, r_range)
        image = mp.eval_map(m, x)
        targets = ref_enlargement(m.space_y, image, alpha * r, n_targets, seed, t, 1)
        witness_u = None
        try:
            witness_u = mp.cover_witness(m, x, r)
        except (mp.WitnessUnavailableError, mp.NotSetCoveringError):
            pass
        atol = ref_scale_tol(tol, x, alpha * r)
        for y in targets:
            responder = ref_respond(m, x, r, y)
            if responder is not None:
                u, certified = responder
                if certified > atol:
                    violations.append(Violation(t, tuple(x), r, tuple(y), certified,
                                                "violation", tuple(u)))
                continue
            if witness_u is not None:
                d = float(sk.dist_point(m.space_y, y, mp.eval_map(m, witness_u)))
                if d <= atol:
                    continue
            u, val = ref_search_cover_point(m, x, r, y, _sub_seed(seed, t, 2), search_budget)
            if val > atol:
                violations.append(Violation(t, tuple(x), r, tuple(y), val,
                                            "inconclusive", tuple(u)))
    return Certificate(
        property="covering", trials=trials, violations=violations, seed=seed,
        tolerances={"tol": tol},
        parameters={"alpha": alpha, "r_range": list(r_range), "n_targets": n_targets,
                    "map": map_to_json(m)},
    )


def ref_check_set_covering(m, alpha, trials, seed, x_box=None, r_range=R_RANGE_DEFAULT,
                           n_inclusion=64, tol=1e-9):
    x_box = x_box or _default_box(m.space_x.dim)
    violations = []
    for t in range(trials):
        x, r, _ = ref_draw(rng_for(seed, t), x_box, r_range)
        image = mp.eval_map(m, x)
        try:
            u = mp.cover_witness(m, x, r)
        except (mp.WitnessUnavailableError, mp.NotSetCoveringError):
            u, _ = ref_fallback_search(m, x, r, alpha, n_points=min(n_inclusion, 32),
                                       seed=_sub_seed(seed, t, 3))
        image_u = mp.eval_map(m, u)
        targets = ref_enlargement(m.space_y, image, alpha * r, n_inclusion, seed, t, 4)
        atol = ref_scale_tol(tol, x, alpha * r)
        d = sk.dists(m.space_y, targets, image_u)
        margins = d.value - d.error
        worst = int(np.argmax(margins))
        if margins[worst] > max(atol, 0.0):
            violations.append(Violation(t, tuple(x), r, tuple(targets[worst]),
                                        float(margins[worst]), "violation", tuple(u)))
    return Certificate(
        property="set-covering", trials=trials, violations=violations, seed=seed,
        tolerances={"tol": tol},
        parameters={"alpha": alpha, "r_range": list(r_range),
                    "n_inclusion": n_inclusion, "map": map_to_json(m)},
    )


def ref_check_inverse_errorbound(m, alpha, trials, seed, x_box=None, tol=1e-9, test_sets=None):
    x_box = x_box or _default_box(m.space_x.dim)
    violations = []
    xs, rs, centers = [], [], []
    dy = m.space_y.dim if test_sets is None else 0
    for t in range(trials):
        x, r, center = ref_draw(rng_for(seed, t), x_box, (1e-2, 1e1), dy)
        xs.append(x)
        rs.append(r)
        centers.append(center)
    xs = np.array(xs).reshape(trials, m.space_x.dim)
    if test_sets is None:
        tests = Rounds(np.array(centers).reshape(trials, m.space_y.dim), np.array(rs))
    else:
        tests = Family.of([test_sets[t % len(test_sets)] for t in range(trials)])
    lhs = m.inverse_distances(tests, xs)
    exc = tests.excesses(m.space_y, mp.eval_maps(m, xs))
    rhs = np.where(np.isinf(exc), math.inf, exc / alpha)
    for t, (x, r) in enumerate(zip(xs, rs)):
        if math.isinf(rhs[t]):
            continue
        atol = ref_scale_tol(tol, x, rhs[t])
        if lhs[t] > rhs[t] + atol:
            s = tests.row(t)
            record = tuple(np.append(s.center, s.radius)) if isinstance(s, sk.Ball) else None
            violations.append(Violation(t, tuple(x), r, record, float(lhs[t] - rhs[t]),
                                        "violation"))
    return Certificate(
        property="inverse-errorbound", trials=trials, violations=violations, seed=seed,
        tolerances={"tol": tol},
        parameters={"alpha": alpha, "map": map_to_json(m)},
    )


# ---------------------------------------------------------------------------
# comparison


def hexed(obj):
    """obj with every float replaced by its hex form and the type of every number kept."""
    if isinstance(obj, dict):
        return {k: hexed(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [hexed(v) for v in obj]
    if isinstance(obj, (float, np.floating)):
        return "f:" + float(obj).hex()
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        assert type(obj) is int, f"{type(obj).__name__} in a certificate"
        return obj
    return obj


def outcome(run):
    try:
        cert = run()
    except Exception as exc:  # an error is an outcome too: its type and message
        return ("raised", type(exc).__name__, str(exc))
    return hexed(cert.to_jsonable(max_violations=10**6))


def assert_same(run, ref):
    got, want = outcome(run), outcome(ref)
    assert got == want


def dilation(space):
    return sk.Dilation(y0=np.array([0.5, -0.25]), a=1.5, b=0.25, anchor=np.array([0.1, 0.0]),
                       space_x=space, space_y=space)


ROT = np.array([[0.6, -0.8], [0.8, 0.6]])
MAPS = {
    "sphere_scale": (sk.SphereScale, 1.0),
    "unit_ball_translate_1": (lambda: sk.UnitBallTranslate(1), 1.0),
    "unit_ball_translate_2": (lambda: sk.UnitBallTranslate(2), 1.0),
    "unit_ball_translate_3": (lambda: sk.UnitBallTranslate(3), 1.0),
    "dilation_euclidean": (lambda: dilation(EU2), 1.5),
    "dilation_max": (lambda: dilation(MAX2), 1.5),
    "sum": (lambda: sk.Sum(dilation(EU2), sk.Affine(0.25 * ROT, np.array([0.1, 0.2]))), 1.25),
    "composed": (lambda: sk.Composed(sk.Affine(2.0 * ROT, np.array([0.3, -0.2])),
                                     dilation(EU2)), 3.0),
    "composed_off_catalog": (lambda: sk.Composed(sk.Affine(ROT, np.zeros(2)),
                                                 sk.Dilation(np.zeros(2), 1.0, space_y=MAX2),
                                                 space_z=MAX2), 1.0),
    # the fault job's map: covering at 1.5 ends in inconclusive searches
    "sublinear": (lambda: sk.SublinearSystem(([[1.0, 0.0], [-1.0, 0.0]],
                                              [[0.0, 1.0], [0.0, -1.0]])), 1.5),
    "epigraphical": (lambda: sk.Epigraphical(np.array([[1.0, 0.5], [0.0, 1.0]])), 0.5),
    "process": (lambda: sk.PolyhedralProcess(cx=[[1.0], [1.0]], cy=[[-1.0, 0.0], [0.0, -1.0]]),
                0.5),
}


def cases(rate):
    """(trials, alpha, tol): each trial count at a rate that holds and one that forces
    violations, and at the rate itself with tol = 0; 37 trials at two of them."""
    for trials in TRIAL_COUNTS[:-1]:
        yield from ((trials, 0.5 * rate, 1e-9), (trials, 2.0 * rate, 1e-9), (trials, rate, 0.0))
    yield from ((37, 3.0 * rate, 1e-9), (37, 0.5 * rate, 0.0))


@pytest.mark.parametrize("kind", sorted(MAPS))
def test_covering_rows_equal_the_trial_loop(kind):
    make, rate = MAPS[kind]
    m = make()
    for trials, alpha, tol in cases(rate):
        kw = {"tol": tol, "search_budget": 40}
        assert_same(lambda: sk.check_covering(m, alpha, trials, 5, **kw),
                    lambda: ref_check_covering(m, alpha, trials, 5, **kw))


def test_covering_fault_job_keeps_its_inconclusive_records():
    m = MAPS["sublinear"][0]()
    cert = sk.check_covering(m, 1.5, trials=4, seed=0)
    assert outcome(lambda: cert) == outcome(lambda: ref_check_covering(m, 1.5, 4, 0))
    assert [v.kind for v in cert.violations] == ["inconclusive"] * 12


@pytest.mark.parametrize("kind", sorted(MAPS))
def test_set_covering_rows_equal_the_trial_loop(kind):
    make, rate = MAPS[kind]
    m = make()
    for trials, alpha, tol in cases(rate):
        kw = {"tol": tol, "n_inclusion": 12}
        assert_same(lambda: sk.check_set_covering(m, alpha, trials, 7, **kw),
                    lambda: ref_check_set_covering(m, alpha, trials, 7, **kw))


@pytest.mark.parametrize("kind", sorted(MAPS))
def test_inverse_errorbound_rows_equal_the_trial_loop(kind):
    make, rate = MAPS[kind]
    m = make()
    balls = [sk.Ball(np.array([0.5, 0.25]), 0.5), sk.Ball(np.zeros(2), 0.0)]
    for trials, alpha, tol in cases(rate):
        assert_same(lambda: sk.check_inverse_errorbound(m, alpha, trials, 9, tol=tol),
                    lambda: ref_check_inverse_errorbound(m, alpha, trials, 9, tol=tol))
    for trials in TRIAL_COUNTS:
        if m.space_y.dim == 2:
            assert_same(lambda: sk.check_inverse_errorbound(m, rate, trials, 9, test_sets=balls),
                        lambda: ref_check_inverse_errorbound(m, rate, trials, 9,
                                                             test_sets=balls))


def test_forced_violations_are_compared():
    """The comparison above sees violation records of every kind of certificate."""
    seen = {}
    for kind in ("sphere_scale", "unit_ball_translate_2", "dilation_max"):
        m = MAPS[kind][0]()
        for cert in (sk.check_covering(m, 2.0, 37, 5, search_budget=40),
                     sk.check_set_covering(m, 2.0, 37, 7, n_inclusion=12),
                     sk.check_inverse_errorbound(m, 3.0 * MAPS[kind][1], 37, 9)):
            seen[cert.property] = seen.get(cert.property, 0) + len(cert.genuine_violations())
    assert all(n > 0 for n in seen.values()) and len(seen) == 3


# ---------------------------------------------------------------------------
# the batched rules against their scalar references


FLOATS = st.floats(-20.0, 20.0) | st.sampled_from((0.0, -0.0, 1.0, -1.0, 1e-300))
RADII = st.floats(1e-6, 50.0) | st.sampled_from((1.0, 2.0))


def hexes(values):
    return [float(v).hex() for v in np.asarray(values, dtype=float).reshape(-1)]


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(("sphere_scale", "ubt_1", "ubt_2", "ubt_3_max", "ubt_2_p")),
       k=st.integers(0, 4), n=st.integers(1, 5), data=st.data())
def test_batched_respond_equals_the_scalar_responder(kind, k, n, data):
    m = {"sphere_scale": sk.SphereScale(), "ubt_1": sk.UnitBallTranslate(1),
         "ubt_2": sk.UnitBallTranslate(2),
         "ubt_3_max": sk.UnitBallTranslate(3, sk.NormedSpace(3, "max"), sk.NormedSpace(3, "max")),
         "ubt_2_p": sk.UnitBallTranslate(2, sk.NormedSpace(2, "p", 3.0),
                                         sk.NormedSpace(2, "p", 3.0))}[kind]
    dx, dy = m.space_x.dim, m.space_y.dim

    def array(shape):
        return np.array(data.draw(st.lists(FLOATS, min_size=int(np.prod(shape)),
                                           max_size=int(np.prod(shape)))),
                        dtype=float).reshape(shape)

    xs, ys = array((k, dx)), array((k, n, dy))
    rs = np.array(data.draw(st.lists(RADII, min_size=k, max_size=k)), dtype=float)
    us, dists = m.respond(xs[:, None, :], rs[:, None], ys)
    assert us.shape == (k, n, dx) and dists.shape == (k, n)
    for t in range(k):
        for j in range(n):
            u, d = ref_respond(m, xs[t], float(rs[t]), ys[t, j])
            assert hexes(us[t, j]) == hexes(u) and hexes(dists[t, j]) == hexes(d)
    if k:  # one point with a float radius is the one-row call
        u, d = m.respond(xs[0], float(rs[0]), ys[0, 0])
        want = ref_respond(m, xs[0], float(rs[0]), ys[0, 0])
        assert hexes(u) == hexes(want[0]) and hexes(d) == hexes(want[1])


def norm_spaces(d):
    return st.sampled_from((sk.NormedSpace(d), sk.NormedSpace(d, "max"),
                            sk.NormedSpace(d, "p", 3.0)))


@settings(max_examples=100, deadline=None)
@given(d=st.integers(1, 4), k=st.integers(0, 4), n=st.integers(1, 40), data=st.data())
def test_family_sampler_equals_the_scalar_sampler(d, k, n, data):
    space = data.draw(norm_spaces(d))
    kind = data.draw(st.sampled_from(("ball", "sphere", "box", "enlarged")))
    draw = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    centers = draw.standard_normal((k, d))
    radii = draw.uniform(0.0, 3.0, k)
    if kind == "ball" and data.draw(st.booleans()):
        radii[:] = 0.0  # every outward direction vanishes: all pushes are random
    if kind in ("ball", "sphere"):
        sets = Rounds(centers, radii, sphere=kind == "sphere")
    elif kind == "box":
        sets = Family([sk.Box(c, c + r) for c, r in zip(centers, radii)])
    else:
        sets = Family([sk.EnlargedSet(sk.Ball(c, r), 0.3) for c, r in zip(centers, radii)])
    rhos = draw.uniform(0.0, 2.0, k)
    seeds = draw.integers(0, 2**32, k).tolist()
    got = _sample_enlargement(space, sets, rhos, n, seeds,
                              lambda i, stream: rng_for(seeds[i], stream))
    assert got.shape == (k, n, d)
    for i in range(k):
        want = ref_sample_enlargement(space, sets.row(i), float(rhos[i]), n, seeds[i])
        assert hexes(got[i]) == hexes(want)
        assert hexes(sk.sample_enlargement(space, sets.row(i), float(rhos[i]), n, seeds[i])) \
            == hexes(want)


def test_reference_norms_are_the_kits():
    """The scalar helpers the references lean on agree with the kit on a sample."""
    v = np.array([3.0, -4.0])
    assert ref_norm(EU2, v) == EU2.norm_of(v) == 5.0
    assert np.array_equal(ref_unit(MAX2, v), MAX2.unit(v))

"""Per-kind rules: every set and map kind of the codec answers each rule or
raises its documented error, and every kind round-trips through JSON."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import setcover_kit as sk
from setcover_kit.codec import TABLES, decode, encode
from setcover_kit.geometry import outer_radius, rng_for
from setcover_kit.mappings import LipschitzRuleError
from test_images import old_image

EU2 = sk.NormedSpace(2)
ROT = 2.0 * np.array([[0.6, -0.8], [0.8, 0.6]])  # scaled orthogonal: images stay in the catalog
PERM = 2.0 * np.array([[0.0, -1.0], [1.0, 0.0]])  # a scaled signed permutation too

SETS = {
    "ball": lambda: sk.Ball(np.array([1.0, -0.5]), 0.75),
    "sphere": lambda: sk.Sphere(np.array([0.0, 2.0]), 1.5),
    "box": lambda: sk.Box(np.array([-1.0, 0.0]), np.array([1.0, 2.0])),
    "v_polytope": lambda: sk.VPolytope(np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 1.0]])),
    "point_cloud": lambda: sk.PointCloud(np.array([[1.0, 1.0], [-2.0, 0.5]])),
    "sublevel_region": lambda: sk.SublevelRegion((
        sk.FormGroup(np.array([[1.0, 0.0], [-1.0, 0.0]]), 1.0),
        sk.FormGroup(np.array([[0.0, 1.0], [0.0, -1.0], [1.0, 1.0]]), 1.5))),
    "orthant": lambda: sk.Orthant(np.array([0.5, -1.0])),
    "enlarged": lambda: sk.EnlargedSet(sk.VPolytope(np.array([[0.0, 0.0], [1.0, 1.0]])), 0.5),
}
UNBOUNDED = {"orthant"}
NOT_CONVEX = {"sphere", "point_cloud"}
LEAVES_CATALOG = {"orthant"}  # affine_image raises ValueError
ROUND = {"ball", "sphere", "enlarged"}  # images are balls: a norm-preserving matrix only


def test_every_codec_set_kind_has_an_example():
    assert set(SETS) == set(TABLES["set"].by_tag)


@pytest.mark.parametrize("norm", ["euclidean", "max"])
@pytest.mark.parametrize("kind", sorted(SETS))
def test_set_kind_answers_each_rule(kind, norm):
    s = SETS[kind]()
    space = sk.NormedSpace(2, norm)
    assert s.convex is (kind not in NOT_CONVEX)
    pts = s.sample(space, 12, 3, rng_for(3, 0), (-4.0 * np.ones(2), 4.0 * np.ones(2)))
    assert pts.shape == (12, 2)
    assert all(s.contains(space, y, 1e-7) for y in pts)
    far = np.array([[9.0, 9.0], [-9.0, 7.0]])
    d = s._dists(space, np.vstack([pts, far]))
    assert d.value.shape == (14,) and np.all(d.value[:12] <= 1e-7 + d.error[:12])
    assert np.all(d.value[12:] > 0.0) or kind == "orthant"
    radius = s.outer_radius(space, np.zeros(2))
    assert radius.is_infinite is (kind in UNBOUNDED)
    assert all(space.norm_of(y) <= float(radius) + 1e-9 for y in pts)
    v = np.array([0.25, -3.0])
    moved = s.translate(v)
    assert type(moved).__name__ == type(s).__name__
    assert all(moved.contains(space, y + v, 1e-7) for y in pts)
    grown = s.enlarge(space, 0.5)
    assert all(grown.contains(space, y, 1e-7) for y in pts)
    if kind in LEAVES_CATALOG:
        with pytest.raises(ValueError, match="leaves the catalog"):
            s.affine_image(space, space, ROT, v)
        return
    for mat in (ROT, PERM):
        if kind in ROUND and norm != "euclidean" and mat is ROT:
            # a rotation maps a max-norm ball to a tilted square, which is no ball
            with pytest.raises(ValueError, match="scaled-orthogonal"):
                s.affine_image(space, space, mat, v)
            continue
        image = s.affine_image(space, space, mat, v)
        assert all(image.contains(space, mat @ y + v, 1e-7) for y in pts)


def test_a_set_kind_without_rules_raises_type_error():
    class Bare(sk.SetRep):
        dim = 2

    s, msg = Bare(), "unknown set representation Bare"
    rules = [lambda: s.convex, lambda: s._dists(EU2, np.zeros((1, 2))),
             lambda: s.outer_radius(EU2, np.zeros(2)), lambda: s.contains(EU2, np.zeros(2), 0.0),
             lambda: s.sample(EU2, 1, 0, rng_for(0, 0), None), lambda: s.translate(np.zeros(2)),
             lambda: sk.dist_point(EU2, [0.0, 0.0], s), lambda: sk.boundedness(EU2, s),
             lambda: sk.contains_point(EU2, s, [0.0, 0.0]), lambda: sk.sample(EU2, s, 1, 0),
             lambda: sk.translate_set(s, [0.0, 0.0]), lambda: sk.excess(EU2, s, s)]
    for rule in rules:
        with pytest.raises(TypeError, match=msg):
            rule()
    with pytest.raises(ValueError, match="affine image of Bare leaves the catalog"):
        s.affine_image(EU2, EU2, ROT, np.zeros(2))
    assert isinstance(sk.enlarge(EU2, s, 0.5), sk.EnlargedSet)


# ---------------------------------------------------------------------------
# maps


def _dilation():
    return sk.Dilation(y0=np.array([0.5, 0.0]), a=2.0, b=0.5, anchor=np.zeros(2),
                       space_x=EU2, space_y=EU2)


MAPS = {
    "dilation": _dilation,
    "sphere_scale": lambda: sk.SphereScale(),
    "unit_ball_translate": lambda: sk.UnitBallTranslate(dim=2),
    "sublinear_system": lambda: sk.SublinearSystem(groups=(
        np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([[0.0, 1.0], [0.0, -1.0]]))),
    "epigraphical": lambda: sk.Epigraphical(np.array([[1.0, 0.5], [0.0, 1.0]])),
    "polyhedral_process": lambda: sk.PolyhedralProcess(cx=[[1.0], [1.0]],
                                                       cy=[[-1.0, 0.0], [0.0, -1.0]]),
    "sum": lambda: sk.Sum(_dilation(), sk.Affine(0.5 * np.eye(2), np.zeros(2))),
    "composed": lambda: sk.Composed(sk.Affine(ROT, np.array([0.3, -0.2])), _dilation()),
    "ball_valued": lambda: sk.BallValued(sk.Affine(np.eye(2), np.zeros(2)), c0=1.0, c1=0.5,
                                         space_x=EU2, space_y=EU2),
}
# the documented error of each rule a kind has no closed form for
MAP_ERRORS = {
    "dilation": {"respond": None},
    "sphere_scale": {"constants": sk.NotSetCoveringError, "witness": sk.WitnessUnavailableError},
    "unit_ball_translate": {"constants": sk.NotSetCoveringError,
                            "witness": sk.WitnessUnavailableError},
    "sublinear_system": {"lipschitz": LipschitzRuleError, "respond": None,
                         "inverse_distances": NotImplementedError},
    "epigraphical": {"respond": None, "inverse_distances": NotImplementedError},
    "polyhedral_process": {"lipschitz": LipschitzRuleError, "respond": None,
                           "inverse_distances": NotImplementedError},
    "sum": {"respond": None, "inverse_distances": NotImplementedError},
    "composed": {"respond": None, "inverse_distances": NotImplementedError},
    "ball_valued": {"constants": sk.NotSetCoveringError, "witness": sk.WitnessUnavailableError,
                    "respond": None, "inverse_distances": NotImplementedError},
}


def test_every_codec_map_kind_has_an_example():
    assert set(MAPS) == set(MAP_ERRORS) == set(TABLES["map"].by_tag)


@pytest.mark.parametrize("kind", sorted(MAPS))
def test_map_kind_answers_each_rule(kind):
    m = MAPS[kind]()
    x = np.full(m.space_x.dim, 0.75)
    image = old_image(m, x)
    assert isinstance(image, sk.SetRep) and image.dim == m.space_y.dim
    assert type(sk.eval_maps(m, x[None]).row(0)) is type(image)
    y = np.full(m.space_y.dim, 0.5)
    test_set = sk.Ball(np.full(m.space_y.dim, 0.1), 0.5)
    rules = {
        "constants": lambda: m.constants().alpha > 0,
        "lipschitz": lambda: m.lipschitz() >= 0,
        "witness": lambda: m.witness(x, 0.5).shape == x.shape
        and m.witness(np.stack([x, -x]), np.array([[0.5], [0.25]])).shape == (2, x.shape[0]),
        "respond": lambda: m.respond(x, 0.5, y),
        "inverse_distances": lambda: bool(m.inverse_distances(sk.Family.of([test_set]),
                                                              x[None])[0] >= 0),
    }
    for name, rule in rules.items():
        error = MAP_ERRORS[kind].get(name, "answers")
        if name == "respond":
            answer = rule()
            if error is None:
                assert answer is None
            else:
                u, dist = answer
                assert m.space_x.dist(u, x) <= 0.5 + 1e-12
                assert dist == pytest.approx(float(sk.dist_point(m.space_y, y, old_image(m, u))))
        elif error == "answers":
            assert rule() is True, name
        else:
            with pytest.raises(error):
                rule()


MAX2 = sk.NormedSpace(2, "max")


def test_affine_image_of_a_max_norm_ball_is_refused_unless_a_signed_permutation():
    # 2R maps the max-norm unit ball onto a tilted square: (1, 1) goes to
    # (-0.4, 2.8), 0.8 outside the max-norm ball of radius 2 once returned
    dil = sk.Dilation(y0=np.zeros(2), a=1.0, space_y=MAX2)
    with pytest.raises(ValueError, match="scaled-orthogonal"):
        sk.eval_map(sk.Composed(sk.Affine(ROT, np.zeros(2)), dil, space_z=MAX2), [1.0])
    image = sk.eval_map(sk.Composed(sk.Affine(PERM, np.zeros(2)), dil, space_z=MAX2), [1.0])
    assert type(image) is sk.Ball and image.radius == 2.0
    assert image.contains(MAX2, PERM @ np.array([1.0, 1.0]), 0.0)


def test_affine_image_across_norms_is_refused():
    # the euclidean disc of radius 2 is no max-norm ball: (2, 2) would be inside
    dil = sk.Dilation(y0=np.zeros(2), a=1.0, space_y=EU2)
    m = sk.Composed(sk.Affine(2.0 * np.eye(2), np.zeros(2)), dil, space_z=MAX2)
    with pytest.raises(ValueError, match="scaled-orthogonal"):
        sk.eval_map(m, [1.0])
    assert sk.eval_maps(m, [[1.0], [2.0]]).row_dists(MAX2, np.zeros((2, 1, 2))).value.tolist() \
        == [[np.inf], [np.inf]]


def test_a_map_kind_without_rules_raises_the_documented_errors():
    class Bare(sk.MapSpec):
        space_x = space_y = EU2

    m, x = Bare(), np.zeros(2)
    with pytest.raises(TypeError, match="unknown map variant Bare"):
        sk.eval_map(m, x)
    with pytest.raises(sk.NotSetCoveringError, match="no covering rule for Bare"):
        sk.alpha_of(m)
    with pytest.raises(LipschitzRuleError, match="no Lipschitz rule for Bare"):
        sk.beta_of(m)
    with pytest.raises(sk.WitnessUnavailableError, match="no witness rule for Bare"):
        sk.cover_witness(m, x, 1.0)
    with pytest.raises(NotImplementedError, match="no closed-form inclusion inverse for Bare"):
        sk.inverse_distance(m, sk.Ball(x, 1.0), x)
    with pytest.raises(NotImplementedError, match="no closed-form inclusion inverse for Bare"):
        m.inverse_distances(sk.Family.of([sk.Ball(x, 1.0)]), x[None])
    assert m.respond(x, 1.0, x) is None


# ---------------------------------------------------------------------------
# lossless JSON round trips over random sets and maps

FLOATS = st.floats(-1e3, 1e3)  # -0.0 included
NONNEG = st.floats(0.0, 1e3)
DIMS = st.integers(1, 3)


def vectors(d):
    return st.lists(FLOATS, min_size=d, max_size=d).map(np.array)


def matrices(rows, cols):
    return st.lists(vectors(cols), min_size=rows, max_size=rows).map(np.array)


def spaces(d):
    return st.one_of(st.just(sk.NormedSpace(d)), st.just(sk.NormedSpace(d, "max")),
                     st.floats(1.0, 8.0).map(lambda p: sk.NormedSpace(d, "p", p)))


@st.composite
def sets(draw, d, depth=2):
    kind = draw(st.sampled_from(sorted(TABLES["set"].by_tag)))
    if kind in ("ball", "sphere"):
        return (sk.Ball if kind == "ball" else sk.Sphere)(draw(vectors(d)), draw(NONNEG))
    if kind == "box":
        lo = draw(vectors(d))
        return sk.Box(lo, lo + np.abs(draw(vectors(d))))
    if kind in ("v_polytope", "point_cloud"):
        cls = sk.VPolytope if kind == "v_polytope" else sk.PointCloud
        return cls(draw(matrices(draw(st.integers(1, 4)), d)))
    if kind == "sublevel_region":
        groups = draw(st.lists(st.tuples(matrices(draw(st.integers(1, 3)), d), FLOATS),
                               min_size=1, max_size=3))
        return sk.SublevelRegion(tuple(sk.FormGroup(a, b) for a, b in groups))
    if kind == "orthant":
        return sk.Orthant(draw(vectors(d)))
    base = draw(sets(d, depth - 1)) if depth else sk.Ball(draw(vectors(d)), draw(NONNEG))
    return sk.EnlargedSet(base, draw(NONNEG))


@st.composite
def catalog_fns(draw, dx, dy):
    if draw(st.booleans()):
        return sk.Affine(draw(matrices(dy, dx)), draw(vectors(dy)))
    return sk.ScaledNormRadial(draw(FLOATS), draw(vectors(dy)))


@st.composite
def maps(draw, depth=1):
    kind = draw(st.sampled_from(sorted(TABLES["map"].by_tag)))
    dx, dy = draw(DIMS), draw(DIMS)
    if kind in ("sum", "composed") and depth == 0:
        kind = "dilation"
    if kind == "dilation":
        anchor = draw(st.none() | vectors(dx))
        space_x = draw(spaces(1 if anchor is None else dx))
        return sk.Dilation(draw(vectors(dy)), draw(st.floats(1e-3, 1e3)), draw(NONNEG), anchor,
                           space_x, draw(spaces(dy)))
    if kind == "sphere_scale":
        return sk.SphereScale(draw(spaces(1)), draw(spaces(2)))
    if kind == "unit_ball_translate":
        return sk.UnitBallTranslate(dx, draw(spaces(dx)), draw(spaces(dx)))
    if kind == "sublinear_system":
        groups = draw(st.lists(matrices(draw(st.integers(1, 3)), dy), min_size=1, max_size=3))
        return sk.SublinearSystem(tuple(groups), draw(spaces(dy)))
    if kind == "epigraphical":
        dx = max(dx, dy)
        matrix = draw(matrices(dy, dx))
        matrix[:, :dy] += 1e4 * np.eye(dy)  # diagonally dominant: full row rank
        return sk.Epigraphical(matrix)
    if kind == "polyhedral_process":
        rows = draw(st.integers(1, 4))
        # the kind needs a nonzero C_y row
        return sk.PolyhedralProcess(draw(matrices(rows, dx)),
                                    draw(matrices(rows, dy).filter(np.any)),
                                    draw(spaces(dx)), draw(spaces(dy)))
    if kind == "ball_valued":
        return sk.BallValued(draw(catalog_fns(dx, dy)), draw(st.floats(1e-3, 1e3)),
                             draw(NONNEG), draw(st.none() | vectors(dx)), draw(spaces(dx)),
                             draw(spaces(dy)))
    base = draw(maps(depth - 1))
    bx, by = base.space_x.dim, base.space_y.dim
    if kind == "sum":
        return sk.Sum(base, draw(catalog_fns(bx, by)))
    return sk.Composed(sk.Affine(draw(matrices(dy, by)), draw(vectors(dy))), base,
                       draw(spaces(dy)))


def assert_same(a, b, path="$"):
    """Every field equal bit for bit, spaces and their norms included."""
    if isinstance(a, np.ndarray):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), path
    elif isinstance(a, sk.NormedSpace):
        assert type(b) is sk.NormedSpace and (a.dim, a.norm) == (b.dim, b.norm), path
        assert (a.p is None and b.p is None) or float(a.p).hex() == float(b.p).hex(), path
    elif isinstance(a, tuple):
        assert type(b) is tuple and len(a) == len(b), path
        for i, (u, v) in enumerate(zip(a, b)):
            assert_same(u, v, f"{path}[{i}]")
    elif dataclasses.is_dataclass(a):
        assert type(a) is type(b), path
        names = [f.name for f in dataclasses.fields(a)]
        if isinstance(a, sk.MapSpec):
            names += ["space_x", "space_y"]
        for name in names:
            assert_same(getattr(a, name), getattr(b, name), f"{path}.{name}")
    elif isinstance(a, float):
        assert type(b) is float and a.hex() == b.hex(), path
    else:
        assert type(a) is type(b) and a == b, path


@settings(max_examples=150, deadline=None)
@given(dim=DIMS, data=st.data())
def test_sets_round_trip_through_json(dim, data):
    s = data.draw(sets(dim))
    blob = json.dumps(encode("set", s))
    back = decode("set", json.loads(blob))
    assert_same(s, back)
    assert json.dumps(encode("set", back)) == blob


@settings(max_examples=150, deadline=None)
@given(m=maps())
def test_maps_round_trip_through_json(m):
    blob = json.dumps(encode("map", m))
    back = decode("map", json.loads(blob))
    assert_same(m, back)
    assert json.dumps(encode("map", back)) == blob


# ---------------------------------------------------------------------------
# the sampling, distance, radius and affine-image rules agree, kind by kind


def random_set(kind, d, rng, depth=1):
    """A nonempty set of this kind in R^d, of moderate scale."""
    c = rng.standard_normal(d)
    if kind in ("ball", "sphere"):
        return (sk.Ball if kind == "ball" else sk.Sphere)(c, float(rng.uniform(0.0, 2.0)))
    if kind == "box":
        return sk.Box(c, c + rng.uniform(0.0, 2.0, size=d))
    if kind in ("v_polytope", "point_cloud"):
        cls = sk.VPolytope if kind == "v_polytope" else sk.PointCloud
        return cls(c + rng.standard_normal((int(rng.integers(1, 5)), d)))
    if kind == "sublevel_region":  # a box about c cut by a random form through a point of it
        lo, hi = c - rng.uniform(0.1, 2.0, size=d), c + rng.uniform(0.1, 2.0, size=d)
        a = rng.standard_normal(d)
        groups = [sk.FormGroup(np.eye(d)[i:i + 1], float(hi[i])) for i in range(d)]
        groups += [sk.FormGroup(-np.eye(d)[i:i + 1], float(-lo[i])) for i in range(d)]
        groups.append(sk.FormGroup(a.reshape(1, -1), float(a @ c) + float(rng.uniform(0.0, 1.0))))
        return sk.SublevelRegion(tuple(groups))
    if kind == "orthant":
        return sk.Orthant(c)
    base_kind = ("ball", "box", "v_polytope", "sublevel_region", "enlarged")[
        int(rng.integers(5 if depth else 4))]
    return sk.EnlargedSet(random_set(base_kind, d, rng, depth - 1), float(rng.uniform(0.0, 1.0)))


def preserving_matrix(rng, space) -> np.ndarray:
    """A matrix mapping every ball of this space onto a ball: scaled orthogonal under the
    euclidean norm, a scaled signed permutation under the others."""
    d, lam = space.dim, float(rng.uniform(0.5, 2.0))
    if space.norm == "euclidean":
        return lam * np.linalg.qr(rng.standard_normal((d, d)))[0]
    return lam * np.eye(d)[rng.permutation(d)] * rng.choice([-1.0, 1.0], size=d)


def round_kind(s) -> bool:
    """A ball, sphere or an enlargement: its affine image must stay a ball."""
    return isinstance(s, (sk.Ball, sk.Sphere, sk.EnlargedSet))


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(sorted(SETS)),
       norm=st.sampled_from((("euclidean", None), ("max", None), ("p", 3.0))),
       d=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_samples_are_members_within_the_radius_and_map_into_the_image(kind, norm, d, seed):
    rng = np.random.default_rng(seed)
    space = sk.NormedSpace(d, norm[0], norm[1])
    s = random_set(kind, d, rng)
    # few points: a box's or polytope's image measures each by an iterative projection
    pts = sk.sample(space, s, 6, int(rng.integers(1000)))
    assert pts.shape == (6, d)
    assert all(sk.contains_point(space, s, y, 1e-7) for y in pts)
    dist = sk.dists(space, pts, s)
    assert np.all(dist.value <= 1e-7 + dist.error)
    p = rng.standard_normal(d)
    radius = outer_radius(space, s, p)
    assert radius.is_infinite is (kind == "orthant")
    assert np.all(space.norms(pts - p) <= float(radius) + float(radius.error) + 1e-9)
    if kind == "orthant":
        with pytest.raises(ValueError, match="leaves the catalog"):
            s.affine_image(space, space, np.eye(d), np.zeros(d))
        return
    mat = preserving_matrix(rng, space) if round_kind(s) else \
        rng.standard_normal((d, d)) + 2.0 * np.eye(d)
    off = rng.standard_normal(d)
    image = s.affine_image(space, space, mat, off)
    assert all(sk.contains_point(space, image, mat @ y + off, 1e-7) for y in pts)


@pytest.mark.parametrize("norm", (("euclidean", None), ("max", None), ("p", 3.0)))
def test_ball_samples_are_members_in_twelve_dimensions(norm):
    # cube rejection accepts about 3e-4 of its candidates for the euclidean 12-d ball,
    # so radial draws fill what the budget leaves
    space = sk.NormedSpace(12, *norm)
    ball = sk.Ball(np.linspace(-1.0, 1.0, 12), 2.5)
    pts = sk.sample(space, ball, 64, 5)
    assert pts.shape == (64, 12) and len(np.unique(pts, axis=0)) == 64
    assert all(sk.contains_point(space, ball, y, 1e-12) for y in pts)
    assert np.array_equal(sk.sample(space, ball, 64, 5), pts)


def test_fourteen_dimensional_ball_valued_solve_converges():
    # the converged re-check samples phi's 14-d ball image: 64 points, 29 of them free
    sy = sk.NormedSpace(14)
    psi = sk.Dilation(np.zeros(14), 2.0)
    phi = sk.BallValued(sk.Affine(np.zeros((14, 1)), np.zeros(14)), 1.0, 0.5,
                        space_x=psi.space_x, space_y=sy)
    trace = sk.solve_inclusion(sk.InclusionInstance(psi, phi), np.array([0.1]))
    assert trace.status == "converged" and trace.n_iterations > 0
    assert trace.residual_recheck == 0.0

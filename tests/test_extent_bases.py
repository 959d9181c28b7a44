"""Region extents read from kept optimal bases, against the 2*dim LPs they stand for.

A `Regions` family (the images of a sublinear system or a polyhedral
process) shares one form matrix A across its rows.  Its form region keeps
the optimal bases of the extent programs at b = 1 (`_lp.extent_bases`), and
a row whose basis points are all feasible reads its extent from them by one
linear solve per end (`_lp.basis_extents`); any other row solves its LPs
(`_lp.coordinate_extent`).  Each served extent must agree with the LPs
within 1e-12 relative, each argpoint must be a member attaining its bound,
and a row's extent must not depend on how or in which order it is read.
"""

import numpy as np
import pytest

import setcover_kit as sk
import setcover_kit._lp as lp
from setcover_kit.geometry import _basis_extents, rng_for

REL = 1e-12


@pytest.fixture()
def lp_calls(monkeypatch):
    calls = []
    real = lp.linprog

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(lp, "linprog", counting)
    return calls


def sublinear(rng, d):
    """d groups of 1-3 random forms in R^d: bounded or not, some rows served."""
    return sk.SublinearSystem(tuple(rng.standard_normal((int(rng.integers(1, 4)), d))
                                    for _ in range(d)))


def process(rng, d):
    """A 2-d domain into R^d with d + 1 random form rows, one of them zero half the
    time: some images empty, some points outside the domain."""
    cy = rng.standard_normal((d + 1, d))
    if rng.uniform() < 0.5:
        cy[-1] = 0.0
    return sk.PolyhedralProcess(rng.standard_normal((d + 1, 2)), cy)


MAKERS = {"sublinear": sublinear, "process": process}


def family_of(kind, d, seed):
    rng = np.random.default_rng(seed)
    m = MAKERS[kind](rng, d)
    xs = 2.0 * rng.standard_normal((6, m.space_x.dim))
    return m, xs


def hexes(extent):
    return [np.asarray(v, dtype=float).tobytes().hex() for v in extent]


def reading(read):
    """An extent's bits, or the error it raises."""
    try:
        return hexes(read())
    except (ValueError, lp.LPAnomalyError) as exc:
        return type(exc).__name__, str(exc)


def assert_near(got, want):
    finite = np.isfinite(want)
    assert (np.isfinite(got) == finite).all() and (got[~finite] == want[~finite]).all()
    scale = np.maximum(1.0, np.maximum(np.abs(got[finite]), np.abs(want[finite])))
    assert (np.abs(got[finite] - want[finite]) <= REL * scale).all()


def check_served_extents(kind, d) -> dict:
    """Checks each row the bases serve against its LPs, over 12 families; returns how
    many rows were served (and how many of those unbounded), fell back, were empty
    or were missing."""
    seen = dict.fromkeys(("served", "unbounded", "fallback", "empty", "missing"), 0)
    for seed in range(12):
        m, xs = family_of(kind, d, seed)
        family = sk.eval_maps(m, xs)
        a = family.region.forms()[0]
        for i, ext in enumerate(_basis_extents(family.region, family.b)):
            if family.errors[i] is not None:
                seen["missing"] += 1
                continue
            b = family.row(i).forms()[1]
            try:
                want = lp.coordinate_extent(a, b)
            except lp.LPAnomalyError:
                assert ext is None  # no basis point of an empty region is feasible
                with pytest.raises(lp.LPAnomalyError, match="empty"):
                    family.row(i).extent()
                seen["empty"] += 1
                continue
            if ext is None:
                seen["fallback"] += 1
                continue
            seen["served"] += 1
            seen["unbounded"] += int(not np.isfinite(np.concatenate(want[:2])).all())
            lo, hi, pts = ext
            assert_near(lo, want[0])
            assert_near(hi, want[1])
            assert pts.shape == want[2].shape
            # one argpoint per finite end, in solve order: a member attaining its bound
            ends = [(j, end) for j in range(d) for end in (lo[j], hi[j]) if np.isfinite(end)]
            for p, (j, end) in zip(pts, ends):
                assert p[j] == end
                assert (a @ p <= b + REL * np.maximum(1.0, np.abs(b))).all()
    return seen


@pytest.mark.parametrize("kind", sorted(MAKERS))
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_served_extents_are_the_lp_optima(kind, d):
    seen = check_served_extents(kind, d)
    assert seen["served"] > 0
    if kind == "sublinear":  # the origin is in every sublinear image
        assert seen["empty"] == seen["missing"] == 0


def test_the_sweep_reaches_every_case():
    """Over dims 1-5, each kind has served rows with and without infinite ends and rows
    that fall back; the process also has empty and missing rows."""
    for kind in sorted(MAKERS):
        seen = {}
        for d in range(1, 6):
            for key, count in check_served_extents(kind, d).items():
                seen[key] = seen.get(key, 0) + count
        assert seen["served"] > seen["unbounded"] > 0 and seen["fallback"] > 0, kind
        if kind == "process":
            assert seen["empty"] > 0 and seen["missing"] > 0


@pytest.mark.parametrize("kind", sorted(MAKERS))
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_a_row_reads_the_same_through_the_family_row_and_eval_map(kind, d):
    space = sk.NormedSpace(d)
    seeds = list(range(6))
    for seed in range(4):
        readings = []
        for order in ("family first", "rows first"):
            m, xs = family_of(kind, d, seed)  # a fresh map: its bases are found again
            family = sk.eval_maps(m, xs)
            live = [i for i in range(len(xs)) if family.errors[i] is None]

            def one_by_one(rows):
                return ([reading(family.row(i).extent) for i in rows],
                        [reading(sk.eval_map(m, xs[i]).extent) for i in rows])

            if order == "family first":
                try:
                    through = [reading(row.extent) for row in family.rows()]
                except ValueError:  # a missing row
                    through = None
                alone, mapped = one_by_one(live)
            else:
                alone, mapped = one_by_one(live[::-1])
                alone, mapped = alone[::-1], mapped[::-1]
                try:
                    through = [reading(row.extent) for row in family.rows()]
                except ValueError:
                    through = None
            if through is not None:
                assert through == alone
            assert alone == mapped
            readings.append(alone)
        assert readings[0] == readings[1]
        # a sample through the family is each row's own sample
        m, xs = family_of(kind, d, seed)
        family = sk.eval_maps(m, xs)
        if all(exc is None for exc in family.errors):
            rng = lambda i, stream: rng_for(seeds[i], stream)  # noqa: E731
            try:
                got = family.sample(space, 8, seeds, rng)
            except lp.LPAnomalyError:  # an empty row
                continue
            for i, x in enumerate(xs):
                want = sk.eval_map(m, x).sample(space, 8, seeds[i], rng(i, 0), None)
                assert got[i].tobytes() == want.tobytes()


def box_map(d):
    """x -> {y : |y_j| <= |x_j|}: every nonempty image is served by the bases of b = 1."""
    return sk.SublinearSystem(tuple(np.array([row, -row]) for row in np.eye(d)))


@pytest.mark.parametrize("d", [1, 3])
def test_a_family_costs_2_dim_lps_once_per_map(lp_calls, d):
    space = sk.NormedSpace(d)
    xs = np.arange(1.0, 1.0 + 5 * d).reshape(5, d)
    seeds = list(range(5))
    rng = lambda i, stream: rng_for(seeds[i], stream)  # noqa: E731
    m = box_map(d)
    sk.eval_maps(m, xs).sample(space, 4, seeds, rng)
    assert len(lp_calls) == 2 * d
    sk.eval_maps(m, 2.0 * xs).sample(space, 4, seeds, rng)
    sk.eval_map(m, xs[0]).extent()
    assert len(lp_calls) == 2 * d  # the bases are kept on the map
    sk.eval_maps(box_map(d), xs).sample(space, 4, seeds, rng)
    assert len(lp_calls) == 2 * 2 * d  # an equal, fresh map finds them again


def test_a_row_the_bases_do_not_serve_solves_its_own_lps(lp_calls):
    """The diamond |y_0| + |y_1| <= 1 cut by -y_0 / 2 <= b_4: at b = 1 the cut is slack
    and each end's optimum is one vertex of the diamond; b_4 = 1/4 cuts off the vertex
    (-1, 0) of min y_0, and b_4 = -3 leaves the region empty."""
    cy = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0], [-0.5, 0.0]])
    m = sk.PolyhedralProcess(-np.eye(5), cy)  # row i is {y : cy y <= xs[i]}
    xs = np.array([[1.0] * 5, [2.0] * 5, [1.0] * 4 + [0.25], [1.0] * 4 + [-3.0]])
    family = sk.eval_maps(m, xs)
    served = _basis_extents(family.region, family.b)
    assert len(lp_calls) == 2 * 2
    assert [ext is not None for ext in served] == [True, True, False, False]
    for ext, x in zip(served[:2], xs):
        want = lp.coordinate_extent(cy, x)
        for got, ref in zip(ext, want):
            assert_near(np.ravel(got), np.ravel(ref))
    calls = len(lp_calls)
    lo, hi, _ = family.row(2).extent()
    assert len(lp_calls) - calls == 2 * 2  # the row's own LPs
    assert (lo.tolist(), hi.tolist()) == (pytest.approx([-0.5, -1.0]), pytest.approx([1.0, 1.0]))
    with pytest.raises(lp.LPAnomalyError, match="empty"):
        family.row(3).extent()
    with pytest.raises(lp.LPAnomalyError, match="empty"):
        family.sample(sk.NormedSpace(2), 4, [0] * 4, lambda i, stream: rng_for(0, stream))


def test_a_basis_that_fails_its_checks_serves_no_row(lp_calls):
    # a strip: y_1 is free, so no extent basis is square and no row is served
    strip = np.array([[1.0, 0.0], [-1.0, 0.0]])
    assert lp.extent_bases(strip) is None
    # a thin wedge: the max of y_1, at (0, 1e9), is ill-conditioned
    thin = np.array([[1.0, -1e-9], [-1.0, -1e-9], [0.0, -1.0]])
    assert lp.extent_bases(thin) is None
    # the whole plane: no end is finite, and nothing proves a row nonempty
    assert lp.extent_bases(np.zeros((1, 2))) is None
    family = sk.Regions(sk.SublevelRegion((sk.FormGroup(thin, 0.0),)), np.full((2, 3), 2.0))
    calls = len(lp_calls)
    got = hexes(family.row(0).extent())
    assert len(lp_calls) - calls == 2 * 2 * 2  # the bases at b = 1, then the row's own LPs
    assert got == hexes(lp.coordinate_extent(thin, np.full(3, 2.0)))


@pytest.mark.parametrize("seed", range(20))
def test_kept_bases_are_dual_feasible_and_well_conditioned(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 6))
    a = rng.standard_normal((d + int(rng.integers(1, 5)), d))
    bases = lp.extent_bases(a)
    if bases is None:
        return
    assert bases.basis.shape == (len(bases.ends), d, d)
    assert (bases.basis == a[bases.rows]).all()
    assert (np.linalg.cond(bases.basis, 1) <= 1e6).all()
    for end, basis in zip(bases.ends.tolist(), bases.basis):
        c = np.zeros(d)
        c[end // 2] = 1.0 if end % 2 == 0 else -1.0
        lam = np.linalg.solve(basis.T, -c)
        assert (lam >= -1e-12 * max(1.0, np.abs(lam).max())).all()


def test_a_standalone_region_solves_its_lps(lp_calls):
    rng = np.random.default_rng(3)
    a = rng.standard_normal((5, 3))
    region = sk.SublevelRegion((sk.FormGroup(a, 1.0),))
    got = hexes(region.extent())
    assert len(lp_calls) == 2 * 3
    assert got == hexes(lp.coordinate_extent(a, np.ones(5)))
    assert "_bases" not in region.__dict__


@pytest.mark.parametrize("seed", range(6))
def test_epigraphical_witness_is_a_shortest_shift_at_each_radius(lp_calls, seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 4))
    matrix = rng.standard_normal((k, k + int(rng.integers(0, 3))))
    matrix[:, :k] += 3.0 * np.eye(k)  # full row rank
    m = sk.Epigraphical(matrix)
    alpha_f = m.alpha_f()
    calls = len(lp_calls)
    rhos = rng.uniform(0.01, 5.0, size=4)
    xs = rng.standard_normal((4, matrix.shape[1]))
    stack = m.witness(xs, rhos[:, None])
    assert len(lp_calls) == calls + 1  # one fit, at rho = 1, serves every radius
    for x, rho, row in zip(xs, rhos.tolist(), stack):
        assert row.tobytes() == sk.cover_witness(m, x, rho).tobytes()
        z = m.witness(np.zeros_like(x), rho)
        target = -alpha_f * rho * np.ones(k)
        best = float(lp.max_norm_fit(np.eye(matrix.shape[1]), a_eq=matrix, b_eq=target).fun)
        assert abs(np.abs(z).max() - best) <= REL * max(1.0, best)
        assert np.allclose(matrix @ z, target, rtol=1e-12, atol=1e-12 * max(1.0, best))
    assert len(lp_calls) == calls + 1 + 4  # the references' own LPs

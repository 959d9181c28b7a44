"""The kit's HiGHS call against scipy's linprog(method="highs"), bit for bit.

`setcover_kit._lp.linprog` hands each program to HiGHS with the options
and result check of ``scipy.optimize.linprog(method="highs")``, so its x,
fun and status must equal scipy's exactly.  scipy's function stays here
as the reference.  The programs cover every LP shape the kit builds,
both written out and recorded from the kit's own calls, plus infeasible
and unbounded programs and a hypothesis property over random programs.
Each thread solves every program on its one HiGHS solver, and programs
that share a matrix on its kept model; sequences of them must equal
scipy and a fresh solver per program too, and no answer may depend on
the program solved before it or on the thread that solves it.
"""

import inspect
import re
import sys
import threading

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings, strategies as st

import setcover_kit as sk
import setcover_kit._lp as lp
import setcover_kit.certify as certify


def reference(c, **kwargs):
    return scipy.optimize.linprog(c, method="highs", **kwargs)


def hex_of(value):
    """A float array's exact bits, or None."""
    return None if value is None else np.asarray(value, dtype=float).tobytes().hex()


def assert_same(c, **kwargs):
    """The kit's solve equals scipy's in status, x and fun, bit for bit; returns it."""
    got, want = lp.linprog(c, **kwargs), reference(c, **kwargs)
    assert got.status == want.status, (got.message, want.message)
    assert got.success == want.success
    assert hex_of(got.x) == hex_of(want.x)
    assert hex_of(got.fun) == hex_of(want.fun)
    return got


def extent_program(dim, i, sign):
    """One coordinate-extent LP of a tilted box: free variables, inequality rows only."""
    a = np.vstack([np.eye(dim), -np.eye(dim), np.full((1, dim), 0.5)])
    c = np.zeros(dim)
    c[i] = sign
    return c, dict(A_ub=a, b_ub=np.concatenate([np.ones(2 * dim), [0.25]]),
                   bounds=[(None, None)] * dim)


def interior_slack_program():
    """max t s.t. cy_i y + t <= 0, |y| <= 1, t <= 1: box bounds and one half-open bound."""
    cy = np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, -2.0]])
    return np.array([0.0, 0.0, -1.0]), dict(A_ub=np.hstack([cy, np.ones((3, 1))]),
                                           b_ub=np.zeros(3),
                                           bounds=[(-1.0, 1.0)] * 2 + [(None, 1.0)])


def min_max_norm_program(a_eq, y):
    """argmin ||x||_inf s.t. A x = y, as min_max_norm_solution builds it: equality rows."""
    m, n = a_eq.shape
    c = np.zeros(n + 1)
    c[-1] = 1.0
    a_ub = np.block([[np.eye(n), -np.ones((n, 1))], [-np.eye(n), -np.ones((n, 1))]])
    return c, dict(A_ub=a_ub, b_ub=np.zeros(2 * n), A_eq=np.hstack([a_eq, np.zeros((m, 1))]),
                   b_eq=y, bounds=[(None, None)] * n + [(0, None)])


def polytope_program(vertices, y):
    """The max-norm polytope distance LP: a simplex equality row and (0, None) bounds."""
    k, n = vertices.shape
    c = np.zeros(k + 1)
    c[-1] = 1.0
    a_ub = np.block([[vertices.T, -np.ones((n, 1))], [-vertices.T, -np.ones((n, 1))]])
    a_eq = np.concatenate([np.ones(k), [0.0]])[None, :]
    return c, dict(A_ub=a_ub, b_ub=np.concatenate([y, -y]), A_eq=a_eq, b_eq=np.array([1.0]),
                   bounds=[(0, None)] * (k + 1))


PROGRAMS = {
    "extent-min": extent_program(3, 0, 1.0),
    "extent-max": extent_program(3, 2, -1.0),
    "extent-unbounded": (np.array([0.0, -1.0]),
                         dict(A_ub=np.array([[1.0, 0.0], [-1.0, 0.0]]), b_ub=np.ones(2),
                              bounds=[(None, None)] * 2)),
    "extent-empty": (np.array([1.0, 0.0]),
                     dict(A_ub=np.array([[1.0, 0.0], [-1.0, 0.0]]), b_ub=np.array([-1.0, -1.0]),
                          bounds=[(None, None)] * 2)),
    "interior-slack": interior_slack_program(),
    "min-max-norm": min_max_norm_program(np.array([[1.0, 0.5, 0.0], [0.0, 1.0, -1.0]]),
                                         np.array([1.0, -1.0])),
    "min-max-norm-inconsistent": min_max_norm_program(np.array([[1.0, 1.0], [2.0, 2.0]]),
                                                      np.array([1.0, 3.0])),
    "polytope": polytope_program(np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 1.0]]),
                                 np.array([3.0, 2.0])),
    "bounds-none": (np.array([1.0, 2.0, -0.5]),
                    dict(A_ub=np.array([[1.0, 1.0, 1.0]]), b_ub=np.array([4.0]))),
    "bounds-none-no-rows": (np.array([1.0, 0.0]), {}),
    "one-pair-for-all": (np.array([-1.0, -1.0]),
                         dict(A_ub=np.array([[1.0, 2.0]]), b_ub=np.array([3.0]),
                              bounds=(-2.0, 2.0))),
    "infeasible": (np.array([1.0]), dict(A_ub=np.array([[1.0], [-1.0]]),
                                          b_ub=np.array([0.0, -1.0]),
                                          bounds=[(None, None)])),
    "infeasible-equalities": (np.array([1.0, 1.0]),
                              dict(A_eq=np.array([[1.0, 1.0], [1.0, 1.0]]),
                                   b_eq=np.array([1.0, 2.0]))),
    "unbounded": (np.array([-1.0, 0.0]), dict(A_ub=np.array([[0.0, 1.0]]), b_ub=np.array([1.0]),
                                               bounds=[(0, None)] * 2)),
}
EXPECTED_STATUS = {"extent-unbounded": 3, "extent-empty": 2, "min-max-norm-inconsistent": 2,
                   "infeasible": 2, "infeasible-equalities": 2, "unbounded": 3}


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_every_program_shape_equals_scipy(name):
    c, kwargs = PROGRAMS[name]
    got = assert_same(c, **kwargs)
    assert got.status == EXPECTED_STATUS.get(name, 0)
    assert (got.x is None) == (got.status != 0)


@pytest.fixture()
def recorded(monkeypatch):
    """Every program the kit hands to _lp.linprog, with the kit's arguments as passed."""
    calls = []
    real = lp.linprog

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(lp, "linprog", record)
    return calls


def test_programs_the_kit_builds_equal_scipy(recorded):
    groups = (np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]),
              np.array([[0.0, 1.0, 0.0], [0.0, -1.0, 0.0], [0.5, 0.5, 0.5]]),
              np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]))
    region = sk.eval_map(sk.SublinearSystem(groups=groups), np.array([1.0, -0.5, 2.0]))
    assert sk.boundedness(sk.NormedSpace(3), region).bounded       # extents
    sk.dist_point(sk.NormedSpace(3, "max"), np.array([4.0, 0.0, -3.0]), region)
    sk.dist_point(sk.NormedSpace(2, "max"), np.array([3.0, 2.0]),
                  sk.VPolytope([[0.0, 0.0], [2.0, 0.0], [0.0, 1.0]]))
    sk.interior_radius(sk.PolyhedralProcess(cx=[[1.0], [1.0]], cy=[[-1.0, 0.0], [0.0, -1.0]]))
    sk.alpha_of(sk.Epigraphical(np.array([[1.0, 0.5], [0.0, 1.0]])))  # equality rows
    programs = list(recorded)  # the comparisons below are recorded too
    assert len(programs) >= 2 * 3 + 4
    for args, kwargs in programs:
        assert_same(*args, **kwargs)


def random_program(rng, n, m, m_eq, bound_kind):
    c = rng.standard_normal(n)
    if rng.random() < 0.3:
        c = np.round(c)  # ties between vertices
    a = rng.standard_normal((m, n))
    a[rng.random((m, n)) < 0.3] = 0.0
    kwargs = {}
    if m:
        kwargs.update(A_ub=a, b_ub=rng.standard_normal(m) + 2.0 * rng.random())
    if m_eq:
        kwargs.update(A_eq=rng.standard_normal((m_eq, n)), b_eq=rng.standard_normal(m_eq))
    kwargs["bounds"] = {
        "default": None,
        "free": [(None, None)] * n,
        "box": [(-1.0, 1.0)] * (n - 1) + [(None, 1.0)],
        "nonnegative": [(0, None)] * n,
        "free-and-one-nonnegative": [(None, None)] * (n - 1) + [(0, None)],
    }[bound_kind]
    return c, kwargs


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), m=st.integers(0, 10),
       m_eq=st.integers(0, 2),
       bound_kind=st.sampled_from(("default", "free", "box", "nonnegative",
                                   "free-and-one-nonnegative")))
def test_random_programs_equal_scipy(seed, n, m, m_eq, bound_kind):
    c, kwargs = random_program(np.random.default_rng(seed), n, m, m_eq, bound_kind)
    assert_same(c, **kwargs)


def test_the_installed_binding_has_every_solver_method_the_kit_calls():
    """scipy's HiGHS binding is private, so a supported scipy that lacks a method fails
    here by name (getObjectiveValue, say) instead of mid-solve."""
    called = set(re.findall(r"\bsolver\.(\w+)\(", inspect.getsource(lp)))
    assert called >= {"passOptions", "passModel", "run", "getModelStatus",
                      "modelStatusToString", "getSolution", "getObjectiveValue"}
    missing = sorted(name for name in called if not hasattr(lp.highs._Highs, name))
    assert not missing, f"scipy.optimize._highspy._core._Highs lacks {missing}"


class OffSolution:
    """A real HiGHS solver whose reported optimum is moved by `shift` in one field
    of its solution, or in its objective value."""

    def __init__(self, real, field, shift):
        self._real, self._field, self._shift = real(), field, shift

    def __getattr__(self, name):
        return getattr(self._real, name)

    def getSolution(self):
        solution = self._real.getSolution()
        if self._field != "objective":
            moved = np.array(getattr(solution, self._field)) + self._shift
            setattr(solution, self._field, moved.tolist())
        return solution

    def getObjectiveValue(self):
        fun = self._real.getObjectiveValue()
        return fun + self._shift if self._field == "objective" else fun


# min x0 - x1  s.t.  x0 - x1 <= -1/2,  x0 + x1 = 1,  1/4 <= x0 <= 1/2,  1/2 <= x1 <= 3/4:
# the optimum (1/4, 3/4) has x0 at its lower bound, x1 at its upper one and both rows tight
STRAY = (np.array([1.0, -1.0]),
         dict(A_ub=np.array([[1.0, -1.0]]), b_ub=np.array([-0.5]), A_eq=np.array([[1.0, 1.0]]),
              b_eq=np.array([1.0]), bounds=[(0.25, 0.5), (0.5, 0.75)]))


def own_kept_model(monkeypatch):
    """Start this thread with no kept model; the one this test keeps goes with the test."""
    monkeypatch.setattr(lp, "_KEPT", type(lp._KEPT)())


def kept_solver():
    return lp._KEPT.model.solver


def solve_off(monkeypatch, field, shift):
    """STRAY's result from a fresh off solver, then from the same solver kept."""
    real = lp.highs._Highs
    monkeypatch.setattr(lp.highs, "_Highs", lambda: OffSolution(real, field, shift))
    own_kept_model(monkeypatch)
    c, kwargs = STRAY
    built = lp.linprog(c, **kwargs)
    off = kept_solver()
    assert isinstance(off, OffSolution)
    kept = lp.linprog(c, **kwargs)
    assert kept_solver() is off
    return built, kept


@pytest.mark.parametrize("field, shift", [
    ("col_value", (0.0, 1e-3)),      # x1 above its upper bound
    ("col_value", (-1e-3, 0.0)),     # x0 below its lower bound
    ("col_value", (np.nan, 0.0)),
    ("row_value", (1e-3, 0.0)),      # inequality slack negative
    ("row_value", (0.0, -1e-3)),     # equality residual nonzero
    ("row_value", (0.0, np.nan)),
    ("row_value", (np.nan, 0.0)),    # inequality row NaN
    ("objective", np.nan),
])
def test_post_check_turns_a_stray_optimum_into_status_4(monkeypatch, field, shift):
    c, kwargs = STRAY
    own_kept_model(monkeypatch)
    res = lp.linprog(c, **kwargs)
    assert res.status == 0 and res.x.tolist() == [0.25, 0.75]
    for res in solve_off(monkeypatch, field, shift):  # the build path, then the kept path
        assert res.status == 4 and not res.success
    with pytest.raises(lp.LPAnomalyError, match="status=4"):
        lp.solve_lp(c, a_ub=kwargs["A_ub"], b_ub=kwargs["b_ub"], a_eq=kwargs["A_eq"],
                    b_eq=kwargs["b_eq"], bounds=kwargs["bounds"])


@pytest.mark.parametrize("field", ["col_value", "row_value"])
def test_a_shift_within_tolerance_stays_optimal(monkeypatch, field):
    for res in solve_off(monkeypatch, field, (-1e-5, 1e-5)):
        assert res.status == 0


@pytest.mark.parametrize("status", [1, 4])
def test_extent_raises_on_a_limit_or_numerical_failure(monkeypatch, status):
    """Only status 3 proves an unbounded coordinate; 1 and 4 prove nothing."""
    region = sk.SublevelRegion((sk.FormGroup(np.array([[1.0, 0.0], [-1.0, 0.0]]), 1.0),
                                sk.FormGroup(np.array([[0.0, 1.0], [0.0, -1.0]]), 1.0)))
    monkeypatch.setattr(lp, "linprog",
                        lambda *args, **kwargs: lp.LPResult(None, None, status, False, "stub"))
    with pytest.raises(lp.LPAnomalyError, match=f"status={status}"):
        sk.boundedness(sk.NormedSpace(2), region)


def test_extent_of_a_strip_is_unbounded_along_it():
    strip = sk.SublevelRegion((sk.FormGroup(np.array([[1.0, 0.0], [-1.0, 0.0]]), 1.0),))
    lo, hi, pts = strip.extent()
    assert (lo.tolist(), hi.tolist()) == ([-1.0, -np.inf], [1.0, np.inf])
    assert pts.shape == (2, 2)
    assert not sk.boundedness(sk.NormedSpace(2), strip).bounded


def presolve_misreport_regions():
    """The A of {y : A y <= 1} whose extent LPs HiGHS's presolve has been seen to call
    infeasible or unknown: 11 of 1,800 draws A ~ N(0, 1) of shape (d + 2, d), 300 per d
    for d = 1..6 in turn from default_rng(1).  The origin is inside each region."""
    picks = {(3, 18), (3, 101), (3, 120), (3, 191), (3, 211), (3, 229), (4, 245), (4, 276),
             (5, 107), (5, 272), (6, 90)}
    rng = np.random.default_rng(1)
    draws = {(d, k): rng.standard_normal((d + 2, d)) for d in range(1, 7) for k in range(300)}
    return [draws[key] for key in sorted(picks)]


@pytest.mark.parametrize("a", presolve_misreport_regions())
def test_extent_of_an_unbounded_region_presolve_misreports(a):
    """Each end is that of the LP boxed in [-B, B]^d for B = 1e6 and 1e8: +-inf where the
    boxed optimum falls as the box grows, the boxed optimum where it does not."""
    n = a.shape[1]
    b = np.ones(a.shape[0])
    lo, hi, _ = lp.coordinate_extent(a, b)
    region = sk.SublevelRegion((sk.FormGroup(a, 1.0),))
    assert not sk.boundedness(sk.NormedSpace(n), region).bounded
    for i in range(n):
        for sign, end in ((1.0, lo[i]), (-1.0, hi[i])):
            c = np.zeros(n)
            c[i] = sign
            small, large = (reference(c, A_ub=a, b_ub=b, bounds=(-big, big)).fun
                            for big in (1e6, 1e8))
            if large < 10.0 * small:  # small <= 0, as the origin is inside
                assert end == -sign * np.inf
            else:
                assert small == pytest.approx(large, rel=1e-9, abs=1e-9)
                assert end == pytest.approx(sign * small, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("status", [2, 4])
def test_an_extent_lp_misreported_as_infeasible_or_unknown_is_rechecked(monkeypatch, status):
    """Stubbed extent LPs: the real feasibility and recession LPs decide each end."""
    real = lp.linprog

    def misreport(c, A_ub=None, b_ub=None, **kwargs):
        if np.any(c) and np.any(b_ub):  # an extent LP, not the feasibility or recession LP
            return lp.LPResult(None, None, status, False, "stub")
        return real(c, A_ub=A_ub, b_ub=b_ub, **kwargs)

    monkeypatch.setattr(lp, "linprog", misreport)
    lo, hi, pts = lp.coordinate_extent(np.zeros((1, 2)), np.ones(1))  # the whole plane
    assert lo.tolist() == [-np.inf] * 2 and hi.tolist() == [np.inf] * 2 and pts.shape == (0, 2)
    strip = (np.array([[1.0, 0.0], [-1.0, 0.0]]), np.ones(2))  # bounded along y_0
    with pytest.raises(lp.LPAnomalyError, match=f"status={status}.*no recession direction"):
        lp.coordinate_extent(*strip)
    with pytest.raises(lp.LPAnomalyError, match="halfspace intersection is empty"):
        lp.coordinate_extent(strip[0], -np.ones(2))


def test_non_finite_data_is_refused():
    with pytest.raises(ValueError, match="finite"):
        lp.linprog(np.array([1.0]), A_ub=np.array([[np.inf]]), b_ub=np.array([1.0]))
    with pytest.raises(ValueError, match="does not match"):
        lp.linprog(np.array([1.0, 1.0]), A_ub=np.ones((2, 3)), b_ub=np.ones(2))


# ---------------------------------------------------------------------------
# the kept model: programs that share a matrix only update it


def box_and_cut():
    """x0 in [-b1, b0], x1 <= b2 - x0 and x2 = b_eq - x0 in [0, 2]: unbounded along -x1."""
    return dict(A_ub=np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [1.0, 1.0, 0.0]]),
                b_ub=np.array([1.0, 1.0, 1.0]), A_eq=np.array([[1.0, 0.0, 1.0]]),
                b_eq=np.array([0.5]), bounds=[(None, None), (None, None), (0.0, 2.0)])


BOUNDED_COST = np.array([0.3, -1.0, 0.5])  # any cost with c1 < 0 has an optimum
UNBOUNDED_COST = np.array([0.0, 1.0, 0.0])


def same_matrix_sequence(vary):
    """Programs of box_and_cut()'s matrix that differ from the first only in `vary`,
    with an infeasible and an unbounded program of the same matrix between them."""
    base = box_and_cut()
    rng = np.random.default_rng(["c", "b_ub", "b_eq"].index(vary))
    seq = []
    for k in range(6):
        c, kwargs = BOUNDED_COST, dict(base)
        if vary == "c":
            c = rng.uniform(-1.0, 1.0, 3) - np.array([0.0, 1.1, 0.0])
        else:
            kwargs[vary] = base[vary] + rng.uniform(-0.5, 0.5, base[vary].shape)
        seq.append((c, kwargs))
        if k == 2:
            seq.append((BOUNDED_COST, dict(base, b_eq=np.array([5.0]))))  # x2 = 5 - x0 > 2
        if k == 3:
            # 1 <= x0 <= -1
            seq.append((BOUNDED_COST, dict(base, b_ub=np.array([-1.0, -1.0, 1.0]))))
        if k == 4:
            seq.append((UNBOUNDED_COST, dict(base)))
    return seq


@pytest.mark.parametrize("vary", ["c", "b_ub", "b_eq"])
def test_programs_sharing_a_matrix_equal_scipy(monkeypatch, vary):
    own_kept_model(monkeypatch)
    statuses = []
    for k, (c, kwargs) in enumerate(same_matrix_sequence(vary)):
        statuses.append(assert_same(c, **kwargs).status)
        if k == 0:
            solver = kept_solver()
        assert kept_solver() is solver  # each later program only updated the kept model
    assert statuses == [0, 0, 0, 2, 0, 2, 0, 3, 0]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), m=st.integers(0, 8),
       m_eq=st.integers(0, 2),
       bound_kind=st.sampled_from(("default", "free", "box", "nonnegative",
                                   "free-and-one-nonnegative")),
       changes=st.lists(st.sampled_from(("c", "b_ub", "b_eq", "cut")), min_size=1, max_size=6))
def test_random_same_matrix_sequences_equal_scipy(seed, n, m, m_eq, bound_kind, changes):
    rng = np.random.default_rng(seed)
    c, kwargs = random_program(rng, n, m, m_eq, bound_kind)
    assert_same(c, **kwargs)
    solver = kept_solver()
    for change in changes:
        kwargs = dict(kwargs)
        if change == "c":
            c = np.round(rng.standard_normal(n), int(rng.integers(0, 3)))
        elif change == "cut" and m:  # one row cut off far: often infeasible
            kwargs["b_ub"] = kwargs["b_ub"].copy()
            kwargs["b_ub"][rng.integers(m)] -= 10.0
        elif change in kwargs:
            kwargs[change] = kwargs[change] + rng.standard_normal(kwargs[change].shape)
        assert_same(c, **kwargs)
    assert kept_solver() is solver


def test_a_new_cost_on_a_solved_model_equals_scipy(monkeypatch):
    # changeColsCost and clearSolver on this solved model took another pivot
    # and ended a few ulps away from scipy's optimum
    own_kept_model(monkeypatch)
    rng = np.random.default_rng(33)
    c, kwargs = random_program(rng, 5, 6, 0, "default")
    assert_same(c, **kwargs)
    solver = kept_solver()
    assert_same(np.array([0.7, 0.1, 0.3, -0.2, -1.0]), **kwargs)
    assert kept_solver() is solver


def test_arrays_the_caller_changes_in_place_are_read_again(monkeypatch):
    own_kept_model(monkeypatch)
    c, kwargs = extent_program(3, 0, 1.0)
    assert_same(c, **kwargs)
    c[:] = (0.0, -1.0, 0.5)
    kwargs["b_ub"][:2] = 0.5
    got = assert_same(c, **kwargs)
    assert got.fun == -1.0  # x = (-1, 1/2, -1)


def test_bounds_specs_equal_as_numbers_but_not_as_bits_stay_apart(monkeypatch):
    """Bounds are parsed once per spec: 0.0 and -0.0 (equal as numbers) and a bounds
    array changed in place are each parsed anew, so x at such a bound keeps the bits
    scipy gives it."""
    own_kept_model(monkeypatch)
    c, kwargs = np.array([1.0, 1.0]), dict(A_ub=np.array([[1.0, -1.0]]), b_ub=np.array([1.0]))
    table = np.array([[0.0, 1.0], [0.0, 1.0]])
    for bounds in ([(0.0, 1.0)] * 2, [(-0.0, 1.0)] * 2, [(0, 1)] * 2, (-0.0, 1.0), (0.0, 1.0),
                   (np.float64(-0.0), 1.0), table):
        assert_same(c, bounds=bounds, **kwargs)
    table[:, 0] = -0.0
    assert np.signbit(assert_same(c, bounds=table, **kwargs).x).all()


def neighbour(c, kwargs):
    """The same matrix, row split and bounds with another cost and right-hand side."""
    moved = {k: v + 0.125 if k in ("b_ub", "b_eq") else v for k, v in kwargs.items()}
    return c[::-1] - 0.5, moved


def test_an_answer_does_not_depend_on_the_last_program(monkeypatch):
    names = sorted(PROGRAMS)
    for name, other in zip(names, names[1:] + names[:1]):
        c, kwargs = PROGRAMS[name]
        own_kept_model(monkeypatch)
        fresh = lp.linprog(c, **kwargs)
        solver = kept_solver()
        near_c, near_kwargs = neighbour(c, kwargs)
        lp.linprog(near_c, **near_kwargs)
        after_same = lp.linprog(c, **kwargs)
        assert kept_solver() is solver, name  # both went through the kept model
        lp.linprog(PROGRAMS[other][0], **PROGRAMS[other][1])
        after_other = lp.linprog(c, **kwargs)
        for res in (after_same, after_other):
            assert (res.status, res.message) == (fresh.status, fresh.message), name
            assert (hex_of(res.x), hex_of(res.fun)) == (hex_of(fresh.x), hex_of(fresh.fun)), name


def test_threads_that_alternate_programs_get_the_sequential_answers(monkeypatch):
    """More threads than cores, each on its own matrix, meet at a barrier before every
    solve, with a short switch interval: each keeps its own model and gets the answers
    of a sequential run."""
    own_kept_model(monkeypatch)
    programs = [extent_program(4, i, sign) for _ in range(3) for i in range(4)
                for sign in (1.0, -1.0)]
    jobs = [[(c, dict(kwargs, A_ub=(k + 1.0) * kwargs["A_ub"])) for c, kwargs in programs]
            for k in range(4)]
    want = [[lp.linprog(c, **kwargs) for c, kwargs in job] for job in jobs]
    turn = threading.Barrier(len(jobs))
    got, errors = [[] for _ in jobs], []

    def run(k):
        try:
            for c, kwargs in jobs[k]:
                turn.wait(timeout=30)
                got[k].append((lp.linprog(c, **kwargs), kept_solver()))
        except Exception as exc:  # reported below
            errors.append(exc)
            turn.abort()

    threads = [threading.Thread(target=run, args=(k,)) for k in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    for k, job in enumerate(got):
        assert len({id(solver) for _, solver in job}) == 1  # one kept model per thread
        for (res, _), ref in zip(job, want[k], strict=True):
            assert res.status == ref.status == 0
            assert (hex_of(res.x), hex_of(res.fun)) == (hex_of(ref.x), hex_of(ref.fun))


def twisted_program(rng, n, m, m_eq, bound_kind, twist):
    """A random program, made infeasible by two opposed rows or unbounded by a free
    variable that no row holds and whose cost is negative, or left plain."""
    c, kwargs = random_program(rng, n, m, m_eq, bound_kind)
    if twist == "infeasible":  # a x <= b and -a x <= -b - 1
        a, b = rng.standard_normal((1, n)), rng.standard_normal(1)
        kwargs["A_ub"] = np.vstack([kwargs.get("A_ub", np.zeros((0, n))), a, -a])
        kwargs["b_ub"] = np.concatenate([kwargs.get("b_ub", np.zeros(0)), b, -b - 1.0])
    elif twist == "unbounded":
        for name in ("A_ub", "A_eq"):
            if name in kwargs:
                kwargs[name] = kwargs[name].copy()
                kwargs[name][:, -1] = 0.0
        c[-1] = -1.0
        pairs = [(0, None)] * n if kwargs["bounds"] is None else list(kwargs["bounds"])
        kwargs["bounds"] = pairs[:-1] + [(None, None)]
    return c, kwargs


def with_rows(c, kwargs):
    """linprog's result, and the row values HiGHS reported for an optimum (else None)."""
    res = lp.linprog(c, **kwargs)
    rows = None if res.status != 0 else np.array(kept_solver().getSolution().row_value)
    return res, rows


@settings(max_examples=80, deadline=None)
@given(programs=st.lists(
    st.tuples(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(0, 8),
              st.integers(0, 2),
              st.sampled_from(("default", "free", "box", "nonnegative",
                               "free-and-one-nonnegative")),
              st.sampled_from(("plain", "infeasible", "unbounded", "new cost"))),
    min_size=2, max_size=8))
def test_one_solver_per_thread_equals_a_fresh_solver_and_scipy(programs):
    """Programs of any shape, matrix and bounds, feasible or not, solved in turn on
    this thread's one solver: each answer equals, by bytes, that of a fresh solver
    for the program alone and that of scipy's linprog."""
    seq = []
    for seed, n, m, m_eq, bound_kind, twist in programs:
        rng = np.random.default_rng(seed)
        if twist == "new cost" and seq:  # the last program's model, with another cost
            c, kwargs = seq[-1]
            seq.append((np.round(rng.standard_normal(c.shape[0]), 1), kwargs))
        else:
            seq.append(twisted_program(rng, n, m, m_eq, bound_kind, twist))
    saved = lp._KEPT
    try:
        lp._KEPT = type(saved)()
        shared, solvers = [], set()
        for c, kwargs in seq:
            shared.append(with_rows(c, kwargs))
            solvers.add(kept_solver())
        assert len(solvers) == 1  # every program ran on the one solver
        solver = solvers.pop()
        fresh = []
        for c, kwargs in seq:
            lp._KEPT = type(saved)()
            fresh.append(with_rows(c, kwargs))
            assert kept_solver() is not solver
    finally:
        lp._KEPT = saved
    for (c, kwargs), (got, rows), (alone, alone_rows) in zip(seq, shared, fresh):
        want = reference(c, **kwargs)
        assert got.status == alone.status == want.status, (got.message, want.message)
        assert (got.message, got.success) == (alone.message, alone.success)
        assert hex_of(got.x) == hex_of(alone.x) == hex_of(want.x)
        assert hex_of(got.fun) == hex_of(alone.fun) == hex_of(want.fun)
        assert hex_of(rows) == hex_of(alone_rows)
        if rows is not None:  # scipy reports the rows as rhs - row values
            rhs = np.concatenate([kwargs.get("b_ub", []), kwargs.get("b_eq", [])])
            assert hex_of(rhs - rows) == hex_of(np.concatenate([want.slack, want.con]))


# The four max-norm builders the kit had before `_lp.max_norm_fit`, kept as the
# reference: each returns the arguments it handed to `solve_lp`.


def solution_program(a_eq, y):
    """argmin ||x||_inf s.t. A x = y (the covering rate and witness of `epigraphical`)."""
    m, n = a_eq.shape
    c = np.zeros(n + 1)
    c[-1] = 1.0
    a_ub = np.zeros((2 * n, n + 1))
    a_ub[:n, :n] = np.eye(n)
    a_ub[:n, -1] = -1.0
    a_ub[n:, :n] = -np.eye(n)
    a_ub[n:, -1] = -1.0
    aeq = np.zeros((m, n + 1))
    aeq[:, :n] = a_eq
    return dict(c=c, a_ub=a_ub, b_ub=np.zeros(2 * n), a_eq=aeq, b_eq=y,
                bounds=[(None, None)] * n + [(0, None)])


def feasible_program(a_ub, b_ub):
    """argmin ||x||_inf s.t. A x <= b (the witness direction of `interior_radius`)."""
    m, n = a_ub.shape
    c = np.zeros(n + 1)
    c[-1] = 1.0
    rows = np.zeros((m + 2 * n, n + 1))
    rhs = np.zeros(m + 2 * n)
    rows[:m, :n] = a_ub
    rhs[:m] = b_ub
    rows[m:m + n, :n] = np.eye(n)
    rows[m:m + n, -1] = -1.0
    rows[m + n:, :n] = -np.eye(n)
    rows[m + n:, -1] = -1.0
    return dict(c=c, a_ub=rows, b_ub=rhs, a_eq=None, b_eq=None,
                bounds=[(None, None)] * n + [(0, None)])


def polytope_distance_program(vertices, y):
    """The max-norm distance of y to the hull of the vertices."""
    k, n = vertices.shape
    c = np.zeros(k + 1)
    c[-1] = 1.0
    a_ub = np.zeros((2 * n, k + 1))
    a_ub[:n, :k] = vertices.T
    a_ub[:n, -1] = -1.0
    a_ub[n:, :k] = -vertices.T
    a_ub[n:, -1] = -1.0
    a_eq = np.zeros((1, k + 1))
    a_eq[0, :k] = 1.0
    return dict(c=c, a_ub=a_ub, b_ub=np.concatenate([y, -y]), a_eq=a_eq, b_eq=np.array([1.0]),
                bounds=[(0, None)] * k + [(0, None)])


def region_distance_program(a_mat, b_vec, y):
    """The max-norm distance of y to {z : A z <= b}."""
    n, m = y.shape[0], a_mat.shape[0]
    c = np.zeros(n + 1)
    c[-1] = 1.0
    a_ub = np.zeros((m + 2 * n, n + 1))
    b_ub = np.zeros(m + 2 * n)
    a_ub[:m, :n] = a_mat
    b_ub[:m] = b_vec
    a_ub[m:m + n, :n] = np.eye(n)
    a_ub[m:m + n, -1] = -1.0
    b_ub[m:m + n] = y
    a_ub[m + n:, :n] = -np.eye(n)
    a_ub[m + n:, -1] = -1.0
    b_ub[m + n:] = -y
    return dict(c=c, a_ub=a_ub, b_ub=b_ub, a_eq=None, b_eq=None,
                bounds=[(None, None)] * n + [(0, None)])


def exact(value):
    """An LP argument as comparable data: arrays by dtype, shape and bytes."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    return value


def max_norm_callers():
    """Each caller of `max_norm_fit`: (run it, the parent's programs for that run)."""
    matrix = np.array([[1.0, 0.5, 0.0], [0.0, 1.0, -1.0]])
    epi = sk.Epigraphical(matrix)
    yield "epigraphical-rate", (lambda: sk.alpha_of(sk.Epigraphical(matrix)),
                                lambda calls: [solution_program(matrix, s)
                                               for s in sk.mappings._sign_corners(2)])
    epi.alpha_f()  # kept on the map, so the witness runs one LP
    x, rho = np.array([0.5, -0.0, 2.0]), 0.75
    yield "epigraphical-witness", (
        lambda: epi.witness(x, rho),
        lambda calls: [solution_program(matrix, -epi.alpha_f() * rho * np.ones(2))])
    proc = sk.PolyhedralProcess(cx=[[1.0, 0.0], [1.0, -1.0], [0.0, 2.0]],
                                cy=[[-1.0, 0.0], [0.0, -1.0], [-0.5, -0.5]])

    def interior_programs(calls):  # the first LP finds y_hat; the second is the builder's
        y_hat = calls[0][1].x[:2]
        return [calls[0][0], feasible_program(proc.cx, proc.cy @ y_hat)]
    yield "interior-radius", (lambda: sk.interior_radius(proc), interior_programs)
    vertices = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
    y = np.array([3.0, 0.0])  # a zero and its negation: -0.0 in the -y rows
    yield "polytope-distance", (
        lambda: sk.dist_point(sk.NormedSpace(2, "max"), y, sk.VPolytope(vertices)),
        lambda calls: [polytope_distance_program(vertices, y)])
    groups = (np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]),
              np.array([[0.0, 1.0, 0.0], [0.0, -1.0, 0.0], [0.5, 0.5, 0.5]]),
              np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]))
    region = sk.eval_map(sk.SublinearSystem(groups=groups), np.array([1.0, -0.5, 2.0]))
    y3 = np.array([4.0, 0.0, -0.0])
    yield "region-distance", (
        lambda: sk.dist_point(sk.NormedSpace(3, "max"), y3, region),
        lambda calls: [region_distance_program(*region.forms(), y3)])


@pytest.mark.parametrize("name", [name for name, _ in max_norm_callers()])
def test_max_norm_callers_build_the_parents_programs_byte_for_byte(monkeypatch, name):
    # the kept-model key is the matrix bytes, and a changed matrix can move HiGHS's pivots
    run, parent_programs = dict(max_norm_callers())[name]
    calls, real = [], lp.solve_lp

    def record(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, bounds=None):
        res = real(c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq, bounds=bounds)
        calls.append((dict(c=c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq, bounds=bounds), res))
        return res

    monkeypatch.setattr(lp, "solve_lp", record)
    monkeypatch.setattr(certify, "solve_lp", record)  # interior_radius's own slack LP
    run()
    want = parent_programs(calls)
    assert len(calls) == len(want)
    for (got, res), ref in zip(calls, want):
        assert res is not None
        assert {k: exact(v) for k, v in got.items()} == {k: exact(v) for k, v in ref.items()}

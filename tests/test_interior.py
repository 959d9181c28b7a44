"""The interior analysis of a polyhedral process, kept beside the process kind.

`ref_analyse_interior` is the analysis as it was written before it was
built from arrays: Python loops over the rows for the active-row mask,
the slack LP's rows, the rows' dual norms and the witness slacks.  The
kit's `interior_radius` must give its report bit for bit, or raise the
same `ProcessAnomalyError`.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import setcover_kit as sk
from setcover_kit import certify, mappings
from setcover_kit._lp import max_norm_fit, solve_lp

SPACES = (("euclidean", None), ("max", None), ("p", 3.0))


def ref_analyse_interior(proc):
    cy_norms = np.array([proc.space_y.dual_norm_of(row) for row in proc.cy])
    active = [i for i in range(proc.cy.shape[0]) if np.any(proc.cy[i] != 0.0)]
    m_dim = proc.space_y.dim
    if not active:
        raise sk.ProcessAnomalyError("process has no constraint rows involving the range variable")
    n_var = m_dim + 1
    c = np.zeros(n_var)
    c[-1] = -1.0
    rows = []
    rhs = []
    for i in active:
        row = np.zeros(n_var)
        row[:m_dim] = proc.cy[i]
        row[-1] = 1.0
        rows.append(row)
        rhs.append(0.0)
    bounds = [(-1.0, 1.0)] * m_dim + [(None, 1.0)]
    res = solve_lp(c, a_ub=np.array(rows), b_ub=np.array(rhs), bounds=bounds)
    if res is None:
        raise sk.ProcessAnomalyError("interior slack LP infeasible for a nonempty cone")
    t_star = float(res.x[-1])
    if t_star <= 1e-9:
        return sk.InteriorReport(t_star=0.0, u0=None, alpha=0.0)
    y_hat = np.asarray(res.x[:m_dim], dtype=float)
    sol = max_norm_fit(np.eye(proc.cx.shape[1]), a_ub=proc.cx, b_ub=proc.cy @ y_hat)
    if sol is None:
        raise sk.ProcessAnomalyError(
            "interior point found but no reachable witness direction: "
            "the process is not onto, hence not set-covering")
    u = sol.x[:-1]
    u0 = u / max(1.0, proc.space_x.norm_of(u))
    margins = []
    for i in range(proc.cx.shape[0]):
        slack = -float(proc.cx[i] @ u0)
        if i in active:
            margins.append(slack / cy_norms[i])
        elif slack < -1e-12:
            return sk.InteriorReport(t_star=0.0, u0=None, alpha=0.0)
    alpha = min(margins)
    if alpha <= 0:
        return sk.InteriorReport(t_star=0.0, u0=None, alpha=0.0)
    return sk.InteriorReport(t_star=t_star, u0=u0, alpha=float(alpha), y_interior=y_hat)


def hexed(report):
    """A report's fields by their exact bits."""
    def arr(v):
        return None if v is None else [float(x).hex() for x in v]
    return (report.t_star.hex(), report.alpha.hex(), arr(report.u0), arr(report.y_interior))


def outcome(analyse, proc):
    """("report", its bits) or ("anomaly", its message)."""
    try:
        return "report", hexed(analyse(proc))
    except sk.ProcessAnomalyError as exc:
        return "anomaly", str(exc)


def process(cx, cy, norm, p):
    cx, cy = np.asarray(cx, dtype=float), np.asarray(cy, dtype=float)
    return sk.PolyhedralProcess(cx=cx, cy=cy, space_x=sk.NormedSpace(cx.shape[1], norm, p),
                                space_y=sk.NormedSpace(cy.shape[1], norm, p))


@st.composite
def processes(draw):
    """A process with 1-4 rows, x and y in R^1-4: 'covering' puts a known y_hat strictly
    inside every active row, 'flat' pairs each row with its negation (no slack),
    'free' draws small integers, which often leaves the cone not onto; any of them
    may have zero Cy rows, which bound the domain only."""
    kind = draw(st.sampled_from(("covering", "flat", "free")))
    n_rows, k, m = (draw(st.integers(1, 4)) for _ in range(3))
    seed = draw(st.integers(0, 2**32 - 1))
    norm, p = draw(st.sampled_from(SPACES))
    rng = np.random.default_rng(seed)
    if kind == "free":
        cx = rng.integers(-2, 3, (n_rows, k)).astype(float)
        cy = rng.integers(-2, 3, (n_rows, m)).astype(float)
    else:
        cx = rng.standard_normal((n_rows, k))
        cy = rng.standard_normal((n_rows, m))
        if kind == "covering":
            y_hat = rng.standard_normal(m)
            cy *= np.where(cy @ y_hat > 0.0, -1.0, 1.0)[:, None]
        else:
            cx, cy = np.vstack([cx, -cx]), np.vstack([cy, -cy])
    cy[rng.random(cy.shape[0]) < 0.2] = 0.0
    if not cy.any():
        cy[0, 0] = -1.0
    return process(cx, cy, norm, p)


@settings(max_examples=150, deadline=None)
@given(proc=processes())
def test_interior_radius_equals_the_row_loop(proc):
    twin = sk.PolyhedralProcess(cx=proc.cx, cy=proc.cy, space_x=proc.space_x,
                                space_y=proc.space_y)
    assert outcome(sk.interior_radius, proc) == outcome(ref_analyse_interior, twin)


@pytest.mark.parametrize("norm,p", SPACES)
@pytest.mark.parametrize("name,cx,cy,path", [
    ("orthant-graph", [[1.0], [1.0]], [[-1.0, 0.0], [0.0, -1.0]], "interior"),
    ("with-a-domain-row", [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
     [[-1.0, 0.5], [0.5, -1.0], [0.0, 0.0]], "interior"),
    ("thin-cone", [[1.0], [1.0]], [[-1.0, 0.0], [1.0, -1e-5]], "interior"),  # t* = 5e-6
    ("identity-graph", [[1.0], [-1.0]], [[-1.0], [1.0]], "flat"),
    ("flat-plane", [[1.0, 0.0], [-1.0, 0.0]], [[0.0, -1.0], [0.0, 1.0]], "flat"),
    ("y-above-abs-x", [[1.0], [-1.0]], [[-1.0], [-1.0]], "not onto"),
])
def test_each_path_equals_the_row_loop(name, cx, cy, path, norm, p):
    got = outcome(sk.interior_radius, process(cx, cy, norm, p))
    assert got == outcome(ref_analyse_interior, process(cx, cy, norm, p))
    if path == "not onto":
        assert got[0] == "anomaly" and "not onto" in got[1]
    else:
        assert got[0] == "report"
        assert (float.fromhex(got[1][1]) > 0.0) == (path == "interior")


def test_the_analysis_lives_beside_the_process_kind():
    # certify re-exports the names; the function stays out of mappings.__all__, so an
    # outside tracer that names a function by the first module listing it says certify
    for name in ("interior_radius", "InteriorReport", "ProcessAnomalyError"):
        assert getattr(certify, name) is getattr(mappings, name) is getattr(sk, name)
        assert name in certify.__all__ and name not in mappings.__all__
    assert "certify" not in {v.__name__.rsplit(".", 1)[-1] for v in vars(mappings).values()
                             if type(v) is type(mappings)}


def test_a_cone_that_is_not_onto_has_no_covering_rule():
    proc = sk.PolyhedralProcess(cx=[[1.0], [-1.0]], cy=[[-1.0], [-1.0]])
    with pytest.raises(sk.NotSetCoveringError, match="not onto"):
        proc.constants()
    with pytest.raises(sk.NotSetCoveringError, match="not onto"):
        proc.witness(np.zeros(1), 1.0)
    with pytest.raises(sk.ProcessAnomalyError):  # the analysis itself keeps its error
        sk.interior_radius(proc)


def test_a_process_without_a_nonzero_cy_row_is_refused():
    with pytest.raises(ValueError, match="whole space"):
        sk.PolyhedralProcess(cx=[[1.0], [-1.0]], cy=[[0.0], [-0.0]])

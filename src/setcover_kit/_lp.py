"""The kit's LP solver: one direct HiGHS call per program, on a kept model.

All programs here are dense and tiny (dimensions <= ~8, rows <= ~64):
coordinate extents of halfspace intersections, min-norm preimages, and
inscribed-slack problems for polyhedral graphs.  Callers that query one
frozen object repeatedly keep the derived data on that object (a
region's extent, a process's interior report), so each object pays for
its LPs once.

`linprog` hands each program to HiGHS (Huangfu & Hall, Math. Prog. Comp.
2018) through scipy's own binding, `scipy.optimize._highspy` (scipy 1.15
and later), with the options and result check of scipy's
``linprog(method="highs")``, so its `x`, `fun` and `status` equal scipy's
bit for bit.  It skips scipy's front end because, at this size, the front
end costs several times the solve: per call it validates each option
through a fresh options manager, builds a sparse matrix, cleans its inputs
and checks the result in general form.  One 4-d, 8-row extent LP takes
about a quarter of the time here that it takes through scipy's `linprog`
(425 against 1,625 µs on a shared 2-core x86-64 machine, scipy 1.17).

Most programs share their constraint matrix with the one just before:
the 2*dim LPs of a coordinate extent differ only in the cost, the
max-norm LPs of one region distance only in the right-hand side.  So
each thread keeps its last solver, with its model, under a key of the
matrix, the row split and the variable bounds, compared by bytes.  A
program with the same key sets the cost and row bounds of the kept
`HighsLp` and passes it again to the kept solver (`passModel`), which
clears the solver's model and all it derived from it, so that HiGHS
solves from scratch, as a fresh solver does, and the answer does not
depend on the program before.  Updating the model in place
(`changeColsCost`, `changeRowBounds`) is not enough, not even after
`clearSolver`: the model keeps what the last run derived from it, and
the next run has been seen to take another pivot and end a few ulps
away from scipy's optimum; a warm start from the last basis may stop at
another optimal vertex, and has been seen to stop in kUnknown.  A
program with another key gets a fresh solver, which is kept in turn; a
refused model or a failed run leaves nothing kept.  Keeping the solver
and its model skips building the solver, passing its options and
building the model, a third to a half of a call: an extent LP takes 289
against 544 µs with a fresh solver per call, one row of a max-norm
region distance 380 against 604 µs and an epigraphical cover witness
480 against 719 µs (the fastest of 8 alternating processes per side, on
a shared 2-core x86-64 machine, scipy 1.17; measured with in-place
updates, which cost about what passing the kept model again does).
"""

from __future__ import annotations

import threading
from typing import NamedTuple

import numpy as np
from scipy.optimize._highspy import _core as highs

_MODEL = highs.HighsModelStatus
_ERROR = highs.HighsStatus.kError
_INF = highs.kHighsInf
# scipy's result check at linprog's default tol of 1e-9: sqrt(tol) * 10
_TOL = np.sqrt(1e-9) * 10
# HiGHS model status -> scipy's linprog status; any other status is 4
_STATUS = {
    _MODEL.kOptimal: 0,
    _MODEL.kTimeLimit: 1,
    _MODEL.kIterationLimit: 1,
    _MODEL.kInfeasible: 2,
    _MODEL.kModelError: 2,
    _MODEL.kUnbounded: 3,
}


def _highs_options() -> highs.HighsOptions:
    """The options scipy's linprog(method="highs") sets; HiGHS defaults for the rest."""
    opts = highs.HighsOptions()
    opts.presolve = "on"
    opts.highs_debug_level = highs.HighsDebugLevel.kHighsDebugLevelNone
    opts.log_to_console = False
    opts.output_flag = False
    opts.simplex_strategy = highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    return opts


_OPTIONS = _highs_options()  # read-only: passOptions copies it into each solver


class LPAnomalyError(RuntimeError):
    """An LP that should be solvable came back infeasible/unbounded/failed."""


class LPResult(NamedTuple):
    """A solved program: x and fun are None unless HiGHS reported an optimum."""

    x: np.ndarray | None
    fun: float | None
    status: int  # scipy's linprog status: 0 optimal, 1 limit, 2 infeasible, 3 unbounded, 4 other
    success: bool
    message: str


def _rows(a, b, n: int) -> tuple[np.ndarray, np.ndarray]:
    """A constraint block as a float (m, n) matrix and (m,) right-hand side."""
    if a is None:
        return np.zeros((0, n)), np.zeros(0)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    if a.ndim != 2 or a.shape != (b.shape[0], n):
        raise ValueError(f"LP constraint block of shape {a.shape} does not match "
                         f"{b.shape[0]} right-hand sides and {n} variables")
    return a, b


def _column_bounds(bounds, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) per variable; None is (0, inf), and a None end is unbounded."""
    pairs = np.array((0.0, np.inf) if bounds is None else bounds, dtype=float).reshape(-1, 2)
    pairs = np.where(np.isnan(pairs), (-_INF, _INF), np.clip(pairs, -_INF, _INF))
    lower, upper = np.broadcast_to(pairs, (n, 2)).T
    return lower, upper


class _Kept(NamedTuple):
    """A thread's last solver, with the data its model holds now."""

    key: tuple  # (n, m_ub, matrix, lower, upper bounds as bytes): what an update cannot change
    solver: highs._Highs
    lp: highs.HighsLp  # the model last passed to the solver; passModel copies it


class _PerThread(threading.local):
    """Each thread's own kept model, so no two threads share a solver."""

    model: _Kept | None = None


_KEPT = _PerThread()


def _highs_lp(c, a_mat, lower, upper, row_lower, row_upper) -> highs.HighsLp:
    """The program as a column-wise HiGHS model."""
    n, m = c.shape[0], row_upper.shape[0]
    cols, rows = np.nonzero(a_mat.T)  # column-wise: rows ascending within each column
    lp = highs.HighsLp()
    lp.num_col_ = n
    lp.num_row_ = m
    lp.col_cost_ = c
    lp.col_lower_ = lower
    lp.col_upper_ = upper
    lp.row_lower_ = row_lower
    lp.row_upper_ = row_upper
    matrix = lp.a_matrix_
    matrix.num_col_ = n
    matrix.num_row_ = m
    matrix.format_ = highs.MatrixFormat.kColwise
    matrix.start_ = np.concatenate(([0], np.cumsum(np.bincount(cols, minlength=n))))
    matrix.index_ = rows
    matrix.value_ = a_mat.T[cols, rows]
    return lp


def _update(kept: _Kept, c, row_lower, row_upper) -> bool:
    """Pass the kept model again with cost c and these row bounds; False on refusal."""
    lp = kept.lp
    lp.col_cost_ = c
    lp.row_lower_ = row_lower
    lp.row_upper_ = row_upper
    # passModel clears the solver's state and what the last run derived from
    # the model, which changeColsCost, changeRowBounds and clearSolver keep
    return kept.solver.passModel(lp) != _ERROR


def _outcome(model_status, message: str, x=None, fun=None) -> LPResult:
    status = _STATUS.get(model_status, 4)
    return LPResult(x, fun, status, status == 0, message)


def linprog(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, bounds=None) -> LPResult:
    """min c.x subject to A_ub x <= b_ub, A_eq x = b_eq and the variable bounds.

    The arguments and the `x`, `fun` and `status` of the result are those
    of ``scipy.optimize.linprog(method="highs")``; `bounds` is None (every
    variable in [0, inf)), one (lower, upper) pair for all variables, or
    one pair per variable, with None for an unbounded end.  An optimum
    whose x, objective, bounds, inequality slack or equality residual is
    NaN or off by more than scipy's tolerance is reported as status 4.

    A program with the matrix, row split and bounds of this thread's last
    one is solved by the kept HiGHS solver, on the kept model passed again
    with its cost and row bounds, so that it is solved cold and its
    answer is the one a fresh solver gives.
    """
    c = np.asarray(c, dtype=float).reshape(-1)
    n = c.shape[0]
    a_ub, b_ub = _rows(A_ub, b_ub, n)
    a_eq, b_eq = _rows(A_eq, b_eq, n)
    a_mat = np.concatenate((a_ub, a_eq))
    rhs = np.concatenate((b_ub, b_eq))
    if not (np.isfinite(c).all() and np.isfinite(a_mat).all() and np.isfinite(rhs).all()):
        raise ValueError("LP data must be finite")
    lower, upper = _column_bounds(bounds, n)
    m_ub = b_ub.shape[0]

    row_lower = np.concatenate((np.full(m_ub, -_INF), b_eq))
    key = (n, m_ub, a_mat.tobytes(), lower.tobytes(), upper.tobytes())
    kept, _KEPT.model = _KEPT.model, None  # nothing is kept mid-update
    if kept is not None and kept.key == key and _update(kept, c, row_lower, rhs):
        solver, model = kept.solver, kept.lp
    else:
        solver = highs._Highs()
        if solver.passOptions(_OPTIONS) == _ERROR:
            return _outcome(solver.getModelStatus(), "HiGHS refused the solver options")
        model = _highs_lp(c, a_mat, lower, upper, row_lower, rhs)
        if solver.passModel(model) == _ERROR:
            return _outcome(_MODEL.kModelError, "HiGHS refused the model")
    ran = solver.run() != _ERROR
    if ran:
        _KEPT.model = _Kept(key, solver, model)
    model_status = solver.getModelStatus()
    message = solver.modelStatusToString(model_status)
    if model_status != _MODEL.kOptimal:
        return _outcome(model_status, message)
    if not ran:  # scipy reads no solution after a failed run
        return LPResult(None, None, 4, False, f"{message}, but the run failed")

    solution = solver.getSolution()
    x = np.array(solution.col_value)
    fun = solver.getInfo().objective_function_value
    residual = rhs - np.array(solution.row_value)
    slack, con = residual[:m_ub], residual[m_ub:]
    feasible = (not (np.isnan(x).any() or np.isnan(fun) or np.isnan(residual).any())
                and bool(np.all((x >= lower - _TOL) & (x <= upper + _TOL)))
                and not (slack < -_TOL).any() and not (np.abs(con) > _TOL).any())
    if not feasible:
        return LPResult(x, fun, 4, False, "the reported optimum is NaN or misses its "
                                          f"constraints by more than {_TOL:.2E}")
    return _outcome(model_status, message, x, fun)


def solve_lp(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, bounds=None) -> LPResult | None:
    """Solve min c.x; returns the optimal `LPResult`, or None if infeasible.

    Raises LPAnomalyError for any other outcome: unbounded, a time or
    iteration limit, or a numerical failure.
    """
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds)
    if res.status == 2:  # infeasible
        return None
    if not res.success:
        raise LPAnomalyError(f"LP solver failure: status={res.status} ({res.message})")
    return res


def coordinate_extent(a_mat: np.ndarray, b_vec: np.ndarray):
    """(lo, hi, argpoints) of {y : A y <= b} from one pass of 2*dim LPs.

    lo and hi are the componentwise bounds, +-inf where unbounded;
    argpoints holds, one per row, the attained LP optima (extreme points
    of the region) in solve order: min then max of each coordinate.
    Raises LPAnomalyError when the intersection is empty, or when an LP
    stops at a limit or fails numerically, which proves neither bound.
    All arrays are read-only, so callers may keep and share one extent
    per region.

    With presolve on, HiGHS can call an unbounded extent LP infeasible (2)
    or unknown (4).  On those statuses a zero-cost LP tells an empty region,
    and on any other one a negative optimum of min c.d subject to A d <= 0,
    -1 <= d <= 1 proves the end infinite.
    """
    n = a_mat.shape[1]
    lo = np.full(n, -np.inf)
    hi = np.full(n, np.inf)
    pts = []
    for i in range(n):
        for sign, ends in ((1.0, lo), (-1.0, hi)):
            c = np.zeros(n)
            c[i] = sign
            res = linprog(c, A_ub=a_mat, b_ub=b_vec, bounds=[(None, None)] * n)
            if res.status in (2, 4):
                if linprog(np.zeros(n), A_ub=a_mat, b_ub=b_vec,
                           bounds=[(None, None)] * n).status == 2:
                    raise LPAnomalyError("halfspace intersection is empty")
                ray = linprog(c, A_ub=a_mat, b_ub=np.zeros(b_vec.shape[0]), bounds=(-1.0, 1.0))
                if ray.status == 0 and ray.fun < 0.0:
                    continue  # a recession direction: this end is infinite
                raise LPAnomalyError(f"LP solver failure: status={res.status} ({res.message}), "
                                     "and no recession direction proves the end infinite")
            if res.status == 0:
                ends[i] = sign * res.fun
                pts.append(res.x)
            elif res.status != 3:
                raise LPAnomalyError(f"LP solver failure: status={res.status} ({res.message})")
    pts = np.array(pts, dtype=float).reshape(-1, n)
    for arr in (lo, hi, pts):
        arr.setflags(write=False)
    return lo, hi, pts


def max_norm_fit(mat: np.ndarray, y=None, a_ub=None, b_ub=None, a_eq=None, b_eq=None,
                 bounds=(None, None)) -> LPResult | None:
    """min t subject to |mat z - y|_inf <= t, a_ub z <= b_ub, a_eq z = b_eq, z within bounds.

    The variables are z, then t >= 0.  The inequality rows are the a_ub
    rows, then mat z - t <= y and -mat z - t <= -y; y None is +0.0 in
    both.  Returns `solve_lp`'s result on (z, t): None if infeasible.
    """
    n, k = mat.shape
    m = 0 if a_ub is None else a_ub.shape[0]
    c = np.zeros(k + 1)
    c[-1] = 1.0
    rows = np.zeros((m + 2 * n, k + 1))
    rhs = np.zeros(m + 2 * n)
    if a_ub is not None:
        rows[:m, :k] = a_ub
        rhs[:m] = b_ub
    rows[m:m + n, :k] = mat
    rows[m + n:, :k] = -mat
    rows[m:, -1] = -1.0
    if y is not None:
        rhs[m:m + n] = y
        rhs[m + n:] = -y
    eq = None
    if a_eq is not None:
        eq = np.zeros((a_eq.shape[0], k + 1))
        eq[:, :k] = a_eq
    return solve_lp(c, a_ub=rows, b_ub=rhs, a_eq=eq, b_eq=b_eq, bounds=[bounds] * k + [(0, None)])

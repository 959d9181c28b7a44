"""The kit's LP solver: one direct HiGHS call per program, on one solver per thread.

All programs here are dense and tiny (dimensions <= ~8, rows <= ~64):
coordinate extents of halfspace intersections, min-norm preimages, and
inscribed-slack problems for polyhedral graphs.  Callers that query one
frozen object repeatedly keep the derived data on that object (a
region's extent, a process's interior report, an epigraphical map's unit
witness shift), so each object pays for its LPs once.  The images of a
sublinear system or a process share one form matrix A and differ only in
the right-hand side b; their family's form region keeps the optimal bases
of the extent programs (`extent_bases`, 2*dim LPs once per map), and each
image's extent is then one stacked linear solve (`basis_extents`) wherever
those bases stay optimal, and its own 2*dim LPs (`coordinate_extent`)
elsewhere.

`linprog` hands each program to HiGHS (Huangfu & Hall, Math. Prog. Comp.
2018) through scipy's own binding, `scipy.optimize._highspy` (scipy 1.15
and later), with the options and result check of scipy's
``linprog(method="highs")``, so its `x`, `fun` and `status` equal scipy's
bit for bit.  It skips scipy's front end because, at this size, the front
end costs several times the solve: per call it validates each option
through a fresh options manager, builds a sparse matrix, cleans its inputs
and checks the result in general form.

Each thread keeps one HiGHS solver, which gets its options once, and the
last model passed to it, under a key of the constraint matrix, the row
split and the variable bounds, compared by bytes.  Most programs share
that key with the one just before: the 2*dim LPs of a coordinate extent
(or of a form matrix's bases) differ only in the cost, the max-norm LPs of
one region distance only in the right-hand side.  Such a program sets the cost and row bounds of the
kept `HighsLp`; any other program builds a new one.  Either way the model
goes to the thread's solver through `passModel`, which clears the
solver's model and all it derived from it, so that HiGHS solves from
scratch, as a fresh solver does, and the answer does not depend on the
program before.  Updating the model in place (`changeColsCost`,
`changeRowBounds`) is not enough, not even after `clearSolver`: the model
keeps what the last run derived from it, and the next run has been seen
to take another pivot and end a few ulps away from scipy's optimum; a
warm start from the last basis may stop at another optimal vertex, and
has been seen to stop in kUnknown.  A refused model or a failed run
leaves nothing kept, not even the solver.  The variable bounds are parsed
once per distinct spec, and the result check is two comparisons over the
solution and its row residuals and one on the objective.  What is left
per call is mostly the HiGHS run itself: one LP of a 4-d, 8-row extent
takes about 120 µs when it shares the last program's key and 170 µs when
it does not, against 290 µs with a fresh solver per call and 1,400 µs
through scipy's `linprog` (the fastest of 4 alternating processes, on a
shared 2-core x86-64 machine, scipy 1.17).
"""

from __future__ import annotations

import pickle
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
_BOUNDS_KEPT = 64  # parsed bounds specs a thread keeps; a polyhedral benchmark round uses 8-11


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


class _Columns(NamedTuple):
    """Parsed variable bounds, read-only, so that calls may share them."""

    lower: np.ndarray
    upper: np.ndarray
    key: bytes  # the bytes of lower, then of upper


def _parse_bounds(bounds, n: int) -> _Columns:
    """(lower, upper) per variable; None is (0, inf), and a None end is unbounded."""
    pairs = np.array((0.0, np.inf) if bounds is None else bounds, dtype=float).reshape(-1, 2)
    pairs = np.where(np.isnan(pairs), (-_INF, _INF), np.clip(pairs, -_INF, _INF))
    lower, upper = np.ascontiguousarray(np.broadcast_to(pairs, (n, 2)).T)
    lower.setflags(write=False)
    upper.setflags(write=False)
    return _Columns(lower, upper, lower.tobytes() + upper.tobytes())


def _column_bounds(bounds, n: int) -> _Columns:
    """`_parse_bounds`, run once per distinct spec in each thread.

    A spec is known by its pickle, which keeps every bit of its numbers
    (-0.0 apart from 0.0) and the type of each; a spec that pickle cannot
    write is parsed on every call.
    """
    try:
        spec = (n, pickle.dumps(bounds, pickle.HIGHEST_PROTOCOL))
    except (pickle.PicklingError, TypeError, AttributeError):
        return _parse_bounds(bounds, n)
    parsed = _KEPT.bounds
    cols = parsed.get(spec)
    if cols is None:
        cols = _parse_bounds(bounds, n)
        if len(parsed) >= _BOUNDS_KEPT:
            parsed.clear()
        parsed[spec] = cols
    return cols


class _Kept(NamedTuple):
    """A thread's solver, with the last model passed to it and that model's key."""

    # (matrix shape, m_ub, matrix bytes, `_Columns.key`): what setting the cost and
    # row bounds cannot change
    key: tuple
    solver: highs._Highs
    lp: highs.HighsLp  # the model last passed to the solver; passModel copies it
    low: np.ndarray  # `_limits` of the model
    high: np.ndarray


class _PerThread(threading.local):
    """Each thread's own solver, model and parsed bounds: threads share none of them."""

    model: _Kept | None = None

    def __init__(self):
        self.bounds: dict[tuple[int, bytes], _Columns] = {}  # (n, pickled spec) -> parse


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


def _limits(cols: _Columns, m_ub: int, m_eq: int) -> tuple[np.ndarray, np.ndarray]:
    """The post-check's (low, high) for (x, rhs - row values).

    x must lie within its bounds widened by _TOL, an inequality row's
    slack must be at least -_TOL and an equality row's residual within
    +-_TOL; a NaN fails both comparisons.
    """
    low = np.concatenate((cols.lower - _TOL, np.full(m_ub + m_eq, -_TOL)))
    high = np.concatenate((cols.upper + _TOL, np.full(m_ub, np.inf), np.full(m_eq, _TOL)))
    return low, high


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

    The program goes to this thread's HiGHS solver.  One with the matrix,
    row split and bounds of the thread's last program sets the cost and
    row bounds of the kept model; either way the solver gets the model
    anew and solves it cold, so its answer is the one a fresh solver
    gives.
    """
    c = np.asarray(c, dtype=float).reshape(-1)
    n = c.shape[0]
    a_ub, b_ub = _rows(A_ub, b_ub, n)
    a_eq, b_eq = _rows(A_eq, b_eq, n)
    a_mat = np.concatenate((a_ub, a_eq))
    rhs = np.concatenate((b_ub, b_eq))
    if not (np.isfinite(c).all() and np.isfinite(a_mat).all() and np.isfinite(rhs).all()):
        raise ValueError("LP data must be finite")
    cols = _column_bounds(bounds, n)
    m_ub = b_ub.shape[0]

    row_lower = np.concatenate((np.full(m_ub, -_INF), b_eq))
    key = (a_mat.shape, m_ub, a_mat.tobytes(), cols.key)
    kept, _KEPT.model = _KEPT.model, None  # nothing is kept mid-solve
    if kept is not None and kept.key == key:
        model, low, high = kept.lp, kept.low, kept.high
        model.col_cost_ = c
        model.row_lower_ = row_lower
        model.row_upper_ = rhs
    else:
        model = _highs_lp(c, a_mat, cols.lower, cols.upper, row_lower, rhs)
        low, high = _limits(cols, m_ub, b_eq.shape[0])
    if kept is None:
        solver = highs._Highs()
        if solver.passOptions(_OPTIONS) == _ERROR:
            return _outcome(solver.getModelStatus(), "HiGHS refused the solver options")
    else:
        solver = kept.solver
    if solver.passModel(model) == _ERROR:
        return _outcome(_MODEL.kModelError, "HiGHS refused the model")
    ran = solver.run() != _ERROR
    if ran:
        _KEPT.model = _Kept(key, solver, model, low, high)
    model_status = solver.getModelStatus()
    message = solver.modelStatusToString(model_status)
    if model_status != _MODEL.kOptimal:
        return _outcome(model_status, message)
    if not ran:  # scipy reads no solution after a failed run
        return LPResult(None, None, 4, False, f"{message}, but the run failed")

    solution = solver.getSolution()
    x = np.array(solution.col_value)
    fun = solver.getObjectiveValue()
    checked = np.concatenate((x, rhs - np.array(solution.row_value)))
    if not (((low <= checked) & (checked <= high)).all() and fun == fun):  # NaN != NaN
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


def _extent_end(a_mat: np.ndarray, b_vec: np.ndarray, c: np.ndarray) -> LPResult | None:
    """The optimum of min c.y over {y : A y <= b}, or None where it is -inf.

    Raises as `coordinate_extent` does.
    """
    n = a_mat.shape[1]
    res = linprog(c, A_ub=a_mat, b_ub=b_vec, bounds=[(None, None)] * n)
    if res.status in (2, 4):
        if linprog(np.zeros(n), A_ub=a_mat, b_ub=b_vec, bounds=[(None, None)] * n).status == 2:
            raise LPAnomalyError("halfspace intersection is empty")
        ray = linprog(c, A_ub=a_mat, b_ub=np.zeros(b_vec.shape[0]), bounds=(-1.0, 1.0))
        if ray.status == 0 and ray.fun < 0.0:
            return None  # a recession direction: this end is infinite
        raise LPAnomalyError(f"LP solver failure: status={res.status} ({res.message}), "
                             "and no recession direction proves the end infinite")
    if res.status == 0:
        return res
    if res.status != 3:
        raise LPAnomalyError(f"LP solver failure: status={res.status} ({res.message})")
    return None


def _costs(n: int) -> np.ndarray:
    """The costs of the 2*n extent programs in solve order, e_i then -e_i for each i:
    row 2*i + 1 is the max of coordinate i."""
    costs = np.zeros((2 * n, n))  # +0.0 off the coordinate, as a cost of zeros with one set
    costs[np.arange(2 * n), np.arange(2 * n) // 2] = np.tile([1.0, -1.0], n)
    return costs


def _frozen(*arrays):
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


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
    ends = np.tile([-np.inf, np.inf], n)  # lo, hi of each coordinate in solve order
    pts = []
    for e, c in enumerate(_costs(n)):
        res = _extent_end(a_mat, b_vec, c)
        if res is not None:
            ends[e] = c[e // 2] * res.fun
            pts.append(res.x)
    return _frozen(ends[0::2].copy(), ends[1::2].copy(), np.array(pts, dtype=float).reshape(-1, n))


class ExtentBases(NamedTuple):
    """The optimal bases of the finite extent programs of {y : A y <= b}, for any b.

    ends[j] is the solve-order index (2*coordinate, +1 for the max) of the
    j-th finite end, and rows[j] the n active rows of A of its basis, so that
    basis[j] = A[rows[j]] and the end's optimum at b is y = basis[j]^-1 b[rows[j]]
    wherever that y is feasible.
    """

    ends: np.ndarray  # (D,) int
    rows: np.ndarray  # (D, n) int
    basis: np.ndarray  # (D, n, n)


_BASIS_COND = 1e6  # the largest 1-norm condition number of a kept basis
_RANGE_TOL = 1e-12  # the relative slack of a basis point's feasibility and duality checks


def _active_rows(m: int) -> np.ndarray | None:
    """The rows at their upper bound in the optimal basis that this thread's last
    `linprog` call reached, which has free variables and m inequality rows: None
    unless the basis is valid and every variable in it is basic."""
    basis = _KEPT.model.solver.getBasis()
    basic = highs.HighsBasisStatus.kBasic
    if not basis.valid or any(s != basic for s in basis.col_status):
        return None
    rows = [j for j, s in enumerate(basis.row_status[:m]) if s == highs.HighsBasisStatus.kUpper]
    return np.array(rows, dtype=int)


def extent_bases(a_mat: np.ndarray) -> ExtentBases | None:
    """The extent programs' optimal bases for every {y : A y <= b}, from one pass of
    2*dim LPs at b = 1; None where they cannot serve any b.

    The origin is inside {y : A y <= 1}, so every program there is feasible.
    All nonempty {y : A y <= b} share one recession cone, so an end that is
    infinite at b = 1 is infinite at every b with a nonempty region, and a
    finite one is finite.  Each finite end keeps the n rows HiGHS's optimal
    basis holds at their bound; the basis must be square, conditioned below
    _BASIS_COND and dual feasible, lambda = -basis^-T c >= 0, so that it
    stays optimal at every b where its vertex is feasible (right-hand-side
    ranging; Bertsimas & Tsitsiklis, Introduction to Linear Optimization,
    1997, section 5.1).  None when some finite end's basis fails that, when
    no end is finite (no basis point proves a region nonempty), or when an
    LP at b = 1 does not solve.
    """
    m, n = a_mat.shape
    costs = _costs(n)
    ends, rows = [], []
    try:
        for e, c in enumerate(costs):
            if _extent_end(a_mat, np.ones(m), c) is None:
                continue
            active = _active_rows(m)
            if active is None or active.shape[0] != n:
                return None
            ends.append(e)
            rows.append(active)
    except LPAnomalyError:
        return None
    if not ends:
        return None
    rows = np.array(rows)
    basis = a_mat[rows]
    if not (np.linalg.cond(basis, 1) <= _BASIS_COND).all():  # from the inverse; inf if singular
        return None
    lam = np.linalg.solve(basis.transpose(0, 2, 1), -costs[ends][:, :, None])
    if not (lam >= -_RANGE_TOL * np.maximum(1.0, np.abs(lam).max())).all():
        return None
    return ExtentBases(*_frozen(np.array(ends), rows, basis))


def basis_extents(bases: ExtentBases, a_mat: np.ndarray, b_rows: np.ndarray) -> list:
    """`coordinate_extent` of {y : A y <= b} for each row b of b_rows, (k, m), read
    from the kept bases by one stacked solve: None for a row where some basis point
    is infeasible by more than _RANGE_TOL relative, or b is not finite.

    Each (basis, right-hand side) pair is its own solve, so a row's extent does
    not depend on the rows beside it.  A served row's argpoints are its basis
    points, one per finite end in solve order, and its lo and hi their coordinates.
    """
    n = a_mat.shape[1]
    y = np.linalg.solve(bases.basis, b_rows[:, bases.rows, None])[..., 0]  # (k, D, n)
    ay = np.vecdot(a_mat, y[:, :, None, :])  # (k, D, m)
    b = b_rows[:, None, :]
    slack = _RANGE_TOL * np.maximum(1.0, np.maximum(np.abs(ay), np.abs(b)))
    # a finite b with a finite A y rules out an overflowing basis point
    served = ((ay <= b + slack) & np.isfinite(ay) & np.isfinite(b)).all(axis=(1, 2))
    out = []
    for row, ok in zip(y, served.tolist()):
        ends = np.tile([-np.inf, np.inf], n)
        ends[bases.ends] = row[np.arange(bases.ends.shape[0]), bases.ends // 2]
        out.append(_frozen(ends[0::2].copy(), ends[1::2].copy(), row.copy()) if ok else None)
    return out


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

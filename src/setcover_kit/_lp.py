"""Thin wrappers around scipy's LP solver for the kit's desk-scale programs.

All programs here are dense and tiny (dimensions <= ~8, rows <= ~64):
coordinate extents of halfspace intersections, min-norm preimages, and
inscribed-slack problems for polyhedral graphs.  Each call solves afresh;
callers that query one frozen object repeatedly keep the derived data on
that object (a region's extent, a process's interior report), so each
object pays for its LPs once.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog


class LPAnomalyError(RuntimeError):
    """An LP that should be solvable came back infeasible/unbounded/failed."""


def solve_lp(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, bounds=None):
    """Solve min c.x; returns the scipy result on success, None if infeasible."""
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=bounds, method="highs")
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
    Raises LPAnomalyError when the intersection is empty.  All arrays are
    read-only, so callers may keep and share one extent per region.
    """
    n = a_mat.shape[1]
    lo = np.full(n, -np.inf)
    hi = np.full(n, np.inf)
    pts = []
    for i in range(n):
        for sign, ends in ((1.0, lo), (-1.0, hi)):
            c = np.zeros(n)
            c[i] = sign
            res = linprog(c, A_ub=a_mat, b_ub=b_vec, bounds=[(None, None)] * n, method="highs")
            if res.status == 0:
                ends[i] = sign * res.fun
                pts.append(res.x)
            elif res.status == 2:
                raise LPAnomalyError("halfspace intersection is empty")
    pts = np.array(pts, dtype=float).reshape(-1, n)
    for arr in (lo, hi, pts):
        arr.setflags(write=False)
    return lo, hi, pts


def min_max_norm_solution(a_eq: np.ndarray, y: np.ndarray):
    """argmin ||x||_inf subject to A x = y, or None if inconsistent."""
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
    res = solve_lp(c, a_ub=a_ub, b_ub=np.zeros(2 * n), a_eq=aeq, b_eq=y,
                   bounds=[(None, None)] * n + [(0, None)])
    if res is None:
        return None
    return np.asarray(res.x[:n], dtype=float), float(res.fun)


def min_max_norm_feasible(a_ub: np.ndarray, b_ub: np.ndarray):
    """argmin ||x||_inf subject to A x <= b, or None if infeasible."""
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
    res = solve_lp(c, a_ub=rows, b_ub=rhs, bounds=[(None, None)] * n + [(0, None)])
    if res is None:
        return None
    return np.asarray(res.x[:n], dtype=float), float(res.fun)

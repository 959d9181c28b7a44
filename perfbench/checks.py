"""References computed apart from the kit, and the checks that use them.

Closed forms come straight from the map parameters with numpy.  The
polyhedral references enumerate a region's vertices with
`scipy.spatial.HalfspaceIntersection` (Qhull) and measure point-region
distances with SLSQP (`scipy.optimize.minimize`), a solver the kit does
not use; the kit measures them with Dykstra projections and HiGHS LPs.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linprog

# known faults of the kit that a job may be expected to show
FALSIFIED_WITHOUT_VIOLATION = "falsified-without-violation"
SOLVE_STOPS_OUTSIDE = "solve-stops-outside"


class CheckFailed(Exception):
    """A job's output disagrees with its reference."""


class KnownFault(CheckFailed):
    """A check failure that is the named fault of the kit."""

    def __init__(self, fault: str, message: str):
        super().__init__(f"[{fault}] {message}")
        self.fault = fault


def require(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def norm(v, kind: str) -> float:
    v = np.asarray(v, dtype=float)
    return float(np.max(np.abs(v))) if kind == "max" else float(np.linalg.norm(v))


def dual_norm(v, kind: str) -> float:
    v = np.asarray(v, dtype=float)
    return float(np.sum(np.abs(v))) if kind == "max" else float(np.linalg.norm(v))


def ball_excess(c1, r1, c2, r2, kind: str = "euclidean") -> float:
    """Excess of ball(c1, r1) over ball(c2, r2)."""
    return max(0.0, norm(np.subtract(c1, c2), kind) + r1 - r2)


def ball_in_region_violation(center, radius, a_mat, b_vec, kind: str) -> float:
    """Largest row violation a.c + r||a||_* - b, in distance units (<= 0 inside)."""
    worst = -math.inf
    for a, b in zip(a_mat, b_vec):
        dn = dual_norm(a, kind)
        worst = max(worst, (float(a @ center) + radius * dn - b) / dn)
    return worst


# ---------------------------------------------------------------------------
# polyhedral references


def chebyshev_center(a_mat, b_vec):
    """Centre and radius of the largest euclidean ball inside {A y <= b}."""
    n = a_mat.shape[1]
    norms = np.linalg.norm(a_mat, axis=1)
    c = np.zeros(n + 1)
    c[-1] = -1.0
    res = linprog(c, A_ub=np.hstack([a_mat, norms[:, None]]), b_ub=b_vec,
                  bounds=[(None, None)] * n + [(0, None)])
    if res.status != 0:
        raise CheckFailed(f"no interior point for the reference region ({res.message})")
    return res.x[:n], float(res.x[-1])


def region_vertices(a_mat, b_vec) -> np.ndarray:
    """Vertices of the bounded polytope {A y <= b} (Qhull)."""
    from scipy.spatial import HalfspaceIntersection

    a_mat = np.asarray(a_mat, dtype=float)
    b_vec = np.asarray(b_vec, dtype=float)
    center, radius = chebyshev_center(a_mat, b_vec)
    if radius <= 1e-12:
        raise CheckFailed("reference region has empty interior")
    hs = HalfspaceIntersection(np.hstack([a_mat, -b_vec[:, None]]), center)
    pts = hs.intersections
    keep = []
    for p in pts:
        if not any(np.max(np.abs(p - q)) <= 1e-10 * (1 + np.max(np.abs(p))) for q in keep):
            keep.append(p)
    return np.array(keep)


def dist_to_region(y, a_mat, b_vec, kind: str) -> float:
    """Distance from y to {A z <= b} under the euclidean or max norm, by SLSQP."""
    from scipy.optimize import minimize

    y = np.asarray(y, dtype=float)
    if np.all(a_mat @ y <= b_vec + 1e-12 * (1 + np.abs(b_vec))):
        return 0.0
    n = y.shape[0]
    start, _ = chebyshev_center(a_mat, b_vec)
    options = {"ftol": 1e-12, "maxiter": 2000}
    region = {"type": "ineq", "fun": lambda z: b_vec - a_mat @ z[:n],
              "jac": lambda z: np.hstack([-a_mat, np.zeros((a_mat.shape[0], z.shape[0] - n))])}
    if kind == "max":
        t0 = norm(start - y, "max")
        box = {"type": "ineq",
               "fun": lambda z: np.concatenate([z[n] - (z[:n] - y), z[n] + (z[:n] - y)]),
               "jac": lambda z: np.vstack([np.hstack([-np.eye(n), np.ones((n, 1))]),
                                           np.hstack([np.eye(n), np.ones((n, 1))])])}
        res = minimize(lambda z: z[n], np.append(start, t0), jac=lambda z: np.eye(n + 1)[n],
                       constraints=[region, box], method="SLSQP", options=options)
        z = res.x[:n]
    else:
        res = minimize(lambda z: 0.5 * float(np.sum((z - y) ** 2)), start,
                       jac=lambda z: z - y, constraints=[region], method="SLSQP",
                       options=options)
        z = res.x
    require(res.success, f"reference distance solve failed: {res.message}")
    require(np.all(a_mat @ z <= b_vec + 1e-8 * (1 + np.abs(b_vec))),
            "reference projection left the region")
    return norm(z - y, kind)


def excess_reference(src, dst, kind: str) -> float:
    """Exact excess of polytope src over polytope dst: the largest vertex distance."""
    verts = region_vertices(*src)
    return max(dist_to_region(v, dst[0], dst[1], kind) for v in verts)


# ---------------------------------------------------------------------------
# certificate checks shared by every workload


def check_certificate_json(cert: dict) -> None:
    """A falsified verdict must carry at least one genuine violation."""
    if cert["verdict"] == "falsified":
        if not any(v["kind"] == "violation" for v in cert["violations"]):
            raise KnownFault(FALSIFIED_WITHOUT_VIOLATION,
                             f"{cert['property']}: verdict falsified with no genuine violation "
                             f"({cert['n_violations']} records, all inconclusive)")


def check_certificate(cert) -> None:
    if cert.verdict == "falsified" and not cert.genuine_violations():
        raise KnownFault(FALSIFIED_WITHOUT_VIOLATION,
                         f"{cert.property}: verdict falsified with no genuine violation "
                         f"({len(cert.violations)} records, all inconclusive)")


def violation_atol(cert, v) -> float:
    """The certificate's own tolerance for one record, recomputed from its fields."""
    tol = cert.tolerances["tol"]
    return tol * (1.0 + float(np.max(np.abs(v.x))) + cert.parameters["alpha"] * v.r)

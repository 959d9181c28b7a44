"""Constructive solver for set-inclusion problems phi(x) <= psi(x).

The driving quantity is the residual r(x) = excess(phi(x), psi(x)): a
point is a solution exactly when the residual vanishes.  Each step asks
the covering side for its witness at radius r/alpha_used; the witness
image absorbs the whole current residual enlargement, so the new
residual is bounded by the Lipschitz constant of phi times the step
length.  That gives geometric decay with ratio beta/alpha_used, which
the solver verifies at runtime: a violated contraction inequality means
the declared constants are inconsistent with the mapping and is reported
as such rather than iterated past.

Summing the step lengths reproduces the a-priori bound
d(x0, x*) <= r(x0) / (alpha_used - beta), which is checked on success.
An optional terminal polish step spends the remaining budget
r/(alpha_used - beta) in one final witness call; when it lands strictly
feasible it is kept, so solutions sit on or past the feasible boundary
instead of a tolerance short of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mappings as mp
from .geometry import (
    Ball,
    NormedSpace,
    boundedness,
    dist_point,  # noqa: F401  (perfbench/test_checks.py checks the tracer rebinds it here)
    dists,
    excess,
    sample,
)

__all__ = [
    "InclusionInstance",
    "SolveStep",
    "SolveTrace",
    "NotExpandingError",
    "solve_inclusion",
    "strongly_fixed",
    "StronglyFixedResult",
]

CONTRACTION_SLACK = 1e-9


class NotExpandingError(ValueError):
    """Strongly-fixed-point search needs a covering constant above 1."""


@dataclass(frozen=True, eq=False)
class InclusionInstance:
    """A pair (phi, psi) with its constants and solve parameters.

    alpha is the declared covering constant of psi (open-interval
    semantics) and alpha_used the safety-scaled value actually consumed;
    beta is the Lipschitz constant of phi and must stay below
    alpha_used.  phi must be bounded-valued for the residual to be
    finite.
    """

    psi: mp.MapSpec
    phi: mp.MapSpec
    alpha: float | None = None
    beta: float | None = None
    alpha_used: float | None = None
    tol: float = 1e-6
    max_iter: int = 10_000

    def __post_init__(self):
        if self.psi.space_x.dim != self.phi.space_x.dim:
            raise ValueError("phi and psi must share the domain space")
        if self.psi.space_y.dim != self.phi.space_y.dim:
            raise ValueError("phi and psi must share the range space")
        alpha = self.alpha if self.alpha is not None else mp.alpha_of(self.psi).alpha
        beta = self.beta if self.beta is not None else mp.beta_of(self.phi)
        alpha_used = self.alpha_used if self.alpha_used is not None else mp.DEFAULT_SAFETY * alpha
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "alpha_used", alpha_used)
        if not beta < alpha_used:
            raise ValueError(f"need beta < alpha_used, got beta={beta}, alpha_used={alpha_used}")
        probe = mp.eval_map(self.phi, np.zeros(self.phi.space_x.dim))
        if not boundedness(self.phi.space_y, probe).bounded:
            raise ValueError("phi must be bounded-valued")

    @property
    def space_x(self) -> NormedSpace:
        return self.phi.space_x

    @property
    def space_y(self) -> NormedSpace:
        return self.phi.space_y

    def residual(self, x) -> float:
        return float(excess(self.space_y, mp.eval_map(self.phi, x),
                            mp.eval_map(self.psi, x)))

    def residuals(self, xs) -> np.ndarray:
        """residual(x) for each row of a (k, dim) array: one closed form for all
        rows where both maps have ball or sphere images, else row by row."""
        return mp.eval_maps(self.phi, xs).excesses(self.space_y, mp.eval_maps(self.psi, xs))


@dataclass(frozen=True)
class SolveStep:
    x: tuple
    residual: float
    step_length: float  # distance from the previous iterate (0.0 for the start)
    kind: str = "contraction"  # "start" | "contraction" | "polish"


@dataclass
class SolveTrace:
    """Full record of a solve: iterates, residuals, status and bound checks."""

    steps: list[SolveStep]
    status: str  # "converged" | "contraction-violated" | "budget-exhausted"
    alpha_used: float
    beta: float
    tol: float
    bound_check: tuple[float, float]  # (d(x0, x*), r0 / (alpha_used - beta))
    residual_recheck: float | None = None
    violation: dict | None = None

    @property
    def x_final(self) -> np.ndarray:
        return np.array(self.steps[-1].x)

    @property
    def residuals(self) -> list[float]:
        return [s.residual for s in self.steps]

    @property
    def n_iterations(self) -> int:
        return sum(1 for s in self.steps if s.kind != "start")

    def to_jsonable(self, max_iterates: int = 50) -> dict:
        steps = self.steps
        if len(steps) > max_iterates:
            steps = steps[: max_iterates - 1] + [steps[-1]]
        return {
            "status": self.status,
            "alpha_used": self.alpha_used,
            "beta": self.beta,
            "tol": self.tol,
            "n_iterations": self.n_iterations,
            "bound_check": {"displacement": self.bound_check[0],
                            "bound": self.bound_check[1]},
            "residual_recheck": self.residual_recheck,
            "violation": self.violation,
            "iterates": [{"x": list(s.x), "residual": s.residual,
                          "step_length": s.step_length, "kind": s.kind}
                         for s in steps],
        }


def solve_inclusion(inst: InclusionInstance, x0, polish: bool = True) -> SolveTrace:
    """Drive the residual to the tolerance by witness steps of length r/alpha_used.

    Every accepted step must satisfy the contraction inequality
    r_next <= (beta/alpha_used) * r + slack; a violation stops the run
    with the offending data attached.  On success the a-priori
    displacement bound is recorded and the final residual re-verified by
    an independent sampled excess evaluation.
    """
    space = inst.space_x
    x = space.check_point(x0).copy()
    r = inst.residual(x)
    r0 = r
    steps = [SolveStep(tuple(x), r, 0.0, "start")]
    ratio = inst.beta / inst.alpha_used
    status = "budget-exhausted"
    violation = None
    for _ in range(inst.max_iter):
        if r <= inst.tol:
            status = "converged"
            break
        rho = (r + 1e-12) / inst.alpha_used  # boundary inflation for the inclusion premise
        u = mp.cover_witness(inst.psi, x, rho)
        r_next = inst.residual(u)
        step_len = space.dist(u, x)
        if r_next > ratio * r + CONTRACTION_SLACK * (1.0 + r):
            status = "contraction-violated"
            violation = {
                "x": x.tolist(), "u": u.tolist(), "residual": r,
                "residual_next": r_next, "allowed": ratio * r,
                "note": "declared constants are inconsistent with the mapping",
            }
            break
        x, r = u, r_next
        steps.append(SolveStep(tuple(x), r, step_len, "contraction"))
    else:
        status = "budget-exhausted" if r > inst.tol else "converged"
    if r <= inst.tol and status != "contraction-violated":
        status = "converged"
        if polish and r > 0.0:
            u = mp.cover_witness(inst.psi, x, r / (inst.alpha_used - inst.beta))
            r_pol = inst.residual(u)
            if r_pol <= min(inst.tol, r):
                step_len = space.dist(u, x)
                x, r = u, r_pol
                steps.append(SolveStep(tuple(x), r, step_len, "polish"))
    displacement = space.dist(np.array(steps[0].x), x)
    bound = r0 / (inst.alpha_used - inst.beta)
    recheck = None
    if status == "converged":
        recheck = _independent_residual(inst, x)
    return SolveTrace(steps=steps, status=status, alpha_used=inst.alpha_used,
                      beta=inst.beta, tol=inst.tol,
                      bound_check=(displacement, bound),
                      residual_recheck=recheck, violation=violation)


def _independent_residual(inst: InclusionInstance, x, n: int = 64, seed: int = 17) -> float:
    """Sampled excess at x: max over sampled points of phi(x) of the distance to psi(x)."""
    phi_img = mp.eval_map(inst.phi, x)
    psi_img = mp.eval_map(inst.psi, x)
    pts = sample(inst.space_y, phi_img, n, seed)
    return float(dists(inst.space_y, pts, psi_img).value.max())


@dataclass(frozen=True)
class StronglyFixedResult:
    x: np.ndarray
    r: float
    trace: SolveTrace
    inclusion_margin: float  # worst sampled violation of ball(x, r) inside psi(x)


def strongly_fixed(psi: mp.MapSpec, x0, r_grid, alpha: float | None = None,
                   alpha_used: float | None = None, tol: float = 1e-6,
                   max_iter: int = 10_000, seed: int = 0,
                   n_check: int = 64) -> StronglyFixedResult:
    """Find x whose r-ball sits inside its own image, for some grid radius.

    Runs the inclusion solver against the moving-ball mapping
    phi_r(x) = ball(x, r) (Lipschitz constant 1 under a shift-invariant
    metric), which needs the covering constant of psi to exceed 1.  The
    first radius that converges is returned with its inclusion verified
    by boundary sampling.
    """
    if psi.space_x.dim != psi.space_y.dim:
        raise ValueError("strongly fixed points need a self-mapping")
    declared = alpha if alpha is not None else mp.alpha_of(psi).alpha
    used = alpha_used if alpha_used is not None else mp.DEFAULT_SAFETY * declared
    if used <= 1.0:
        raise NotExpandingError(
            f"covering constant must exceed 1 (alpha_used={used}); the moving ball is 1-Lipschitz")
    space = psi.space_x
    identity = mp.Affine(np.eye(space.dim), np.zeros(space.dim))
    last_error = None
    for r in r_grid:
        if r <= 0:
            raise ValueError("grid radii must be > 0")
        phi_r = mp.BallValued(identity, c0=float(r), c1=0.0,
                              space_x=space, space_y=space)
        inst = InclusionInstance(psi=psi, phi=phi_r, alpha=declared, beta=1.0,
                                 alpha_used=used, tol=tol, max_iter=max_iter)
        trace = solve_inclusion(inst, x0)
        if trace.status != "converged":
            last_error = trace.status
            continue
        x_star = trace.x_final
        ball = Ball(x_star, float(r))
        pts = sample(space, ball, n_check, seed)
        psi_img = mp.eval_map(psi, x_star)
        margin = float(dists(space, pts, psi_img).value.max())
        if margin <= tol * (1.0 + r):
            return StronglyFixedResult(x=x_star, r=float(r), trace=trace,
                                       inclusion_margin=margin)
        last_error = f"sampled inclusion margin {margin} above tolerance"
    raise RuntimeError(f"no grid radius produced a strongly fixed point ({last_error})")

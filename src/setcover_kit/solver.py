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

import copy
from dataclasses import dataclass

import numpy as np

from . import mappings as mp
from .geometry import (
    Ball,
    DimensionMismatchError,
    NormedSpace,
    boundedness,
    dist_point,  # noqa: F401  (perfbench/test_checks.py checks the tracer rebinds it here)
    dists,
    sample,
    _pristine_rng,
)

__all__ = [
    "InclusionInstance",
    "SolveStep",
    "SolveTrace",
    "NotExpandingError",
    "solve_inclusion",
    "solve_inclusions",
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
    finite.  A map with per-row data (see MapSpec.at_rows) makes this k
    instances that share their constants, one per row of a k-point stack:
    solve_inclusions then takes k starts, row i solving with row i's maps.
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
        probe = mp.eval_map(self.phi.at_rows([0]), np.zeros(self.phi.space_x.dim))
        if not boundedness(self.phi.space_y, probe).bounded:
            raise ValueError("phi must be bounded-valued")

    @property
    def space_x(self) -> NormedSpace:
        return self.phi.space_x

    @property
    def space_y(self) -> NormedSpace:
        return self.phi.space_y

    def residual(self, x) -> float:
        """excess(phi(x), psi(x)): one row of residuals."""
        return self.residuals(self.space_x.check_point(x)[None]).item(0)

    def residuals(self, xs) -> np.ndarray:
        """The residual at each row of a (k, dim) array (see mappings.image_excesses)."""
        return mp.image_excesses(self.phi, self.psi, xs)

    def at_rows(self, rows) -> InclusionInstance:
        """This instance with its maps narrowed to the given rows (itself without per-row data)."""
        phi, psi = self.phi.at_rows(rows), self.psi.at_rows(rows)
        if phi is self.phi and psi is self.psi:
            return self
        out = copy.copy(self)  # the constants hold for every row
        object.__setattr__(out, "phi", phi)
        object.__setattr__(out, "psi", psi)
        return out


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
    return _solves(inst, [x0], polish)[0]


def solve_inclusions(inst: InclusionInstance, starts, polish: bool = True) -> list[SolveTrace]:
    """solve_inclusion from each start, run in lockstep; trace i is that of starts[i].

    Each step makes one witness, residual and step-length call over the
    solves still running, one row per solve, and the converged solves share
    one re-check call.  The contraction test, budget and polish step stay
    per solve, so trace i equals solve_inclusion(inst, starts[i], polish)
    bit for bit.
    """
    return _solves(inst, starts, polish)


def _solves(inst: InclusionInstance, starts, polish: bool) -> list[SolveTrace]:
    """The solve loop of both public names (each of which is then one traced span)."""
    xs = [inst.space_x.check_point(x0) for x0 in starts]  # each solve's current iterate
    rs = inst.residuals(np.reshape(xs, (len(xs), inst.space_x.dim))).tolist()
    steps = [[SolveStep(tuple(x), r, 0.0, "start")] for x, r in zip(xs, rs)]
    violations = [None] * len(rs)
    ratio = inst.beta / inst.alpha_used
    live = [i for i, r in enumerate(rs) if not r <= inst.tol]

    def narrowed(rows):  # the instance over the given solves (ascending; all of them: inst)
        return inst if len(rows) == len(xs) else inst.at_rows(rows)

    for _ in range(inst.max_iter):
        if not live:
            break
        radii = [(rs[i] + 1e-12) / inst.alpha_used for i in live]  # boundary inflation of the premise
        running = []
        steps_live = _witness_steps(narrowed(live), [xs[i] for i in live], radii)
        for i, (u, r_next, length) in zip(live, steps_live):
            if r_next > ratio * rs[i] + CONTRACTION_SLACK * (1.0 + rs[i]):
                violations[i] = {"x": xs[i].tolist(), "u": u.tolist(), "residual": rs[i],
                                 "residual_next": r_next, "allowed": ratio * rs[i],
                                 "note": "declared constants are inconsistent with the mapping"}
                continue
            steps[i].append(SolveStep(tuple(u), r_next, length, "contraction"))
            xs[i], rs[i] = u, r_next
            if not r_next <= inst.tol:
                running.append(i)
        live = running
    # a terminal step spends the budget r/(alpha_used - beta), kept if within tol and no worse
    polishing = [i for i, (r, v) in enumerate(zip(rs, violations))
                 if polish and v is None and 0.0 < r <= inst.tol]
    if polishing:
        radii = [rs[i] / (inst.alpha_used - inst.beta) for i in polishing]
        polished = _witness_steps(narrowed(polishing), [xs[i] for i in polishing], radii)
        for i, (u, r_pol, length) in zip(polishing, polished):
            if r_pol <= min(inst.tol, rs[i]):
                steps[i].append(SolveStep(tuple(u), r_pol, length, "polish"))
    traces = [_trace(inst, s, v) for s, v in zip(steps, violations)]
    converged = [i for i, trace in enumerate(traces) if trace.status == "converged"]
    if converged:
        finals = np.array([traces[i].steps[-1].x for i in converged])
        for i, recheck in zip(converged, _rechecks(narrowed(converged), finals)):
            traces[i].residual_recheck = recheck
    return traces


def _witness_steps(inst: InclusionInstance, xs: list, radii: list[float]):
    """(witness, its residual, step length) from each point of xs at its radius."""
    points = np.array(xs)
    us = inst.psi.witness(points, np.array(radii)[:, None])
    return zip(us, inst.residuals(us).tolist(), inst.space_x.norms(us - points).tolist())


def _rechecks(inst: InclusionInstance, xs: np.ndarray) -> list[float]:
    """The sampled excess at each converged point, row by row of xs: the max over 64
    points of phi(x) of d(., psi(x)), the points drawn as sample(space_y, phi(x), 64, 17)
    draws them, each row from its own copy of that generator."""
    space = inst.space_y
    pts = mp.eval_maps(inst.phi, xs).sample(space, 64, [17] * len(xs),
                                            lambda i, stream: _pristine_rng(17))
    return mp.eval_maps(inst.psi, xs).row_dists(space, pts).value.max(axis=1).tolist()


def _trace(inst: InclusionInstance, steps: list, violation) -> SolveTrace:
    """The trace of a finished solve, its status and displacement bound (the re-check of a
    converged one comes after, from _rechecks)."""
    x, r = np.array(steps[-1].x), steps[-1].residual
    if violation is not None:
        status = "contraction-violated"
    else:
        status = "converged" if r <= inst.tol else "budget-exhausted"
    displacement = inst.space_x.dist(np.array(steps[0].x), x)
    bound = steps[0].residual / (inst.alpha_used - inst.beta)
    return SolveTrace(steps=steps, status=status, alpha_used=inst.alpha_used,
                      beta=inst.beta, tol=inst.tol,
                      bound_check=(displacement, bound), violation=violation)


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
        raise DimensionMismatchError("strongly fixed points need a self-mapping")
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

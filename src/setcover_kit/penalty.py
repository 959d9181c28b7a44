"""Exact penalization of inclusion-constrained minimization.

The constrained problem min f(x) subject to phi(x) <= psi(x) (set
inclusion) is traded for the unconstrained penalty functional
f + l * residual, where the residual is the excess of phi over psi.
Above the threshold l = l_f / (alpha - beta) the penalty is exact at
local solutions, so the minimizer catalog here is deliberately small and
carries exact Lipschitz constants: the threshold formula consumes them
directly.

Calmness and semiregularity diagnostics for parameterized families
produce empirical estimates only - both properties involve local/liminf
quantifiers that sampling cannot decide - and say so in their records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import mappings as mp
from .certify import Certificate, Violation
from .geometry import NormedSpace, rng_for
from .search import PatternTrace, pattern_searches
from .solver import InclusionInstance, SolveTrace, solve_inclusions

# largest dimension minimize_penalty searches: each poll round costs 2 * dim penalty values
PENALTY_SEARCH_CAP = 6

__all__ = [
    "NormToPoint",
    "Linear",
    "AbsCoord",
    "WeightedSum",
    "ObjectiveSpec",
    "objective_value",
    "objective_lipschitz",
    "PenaltyProblem",
    "penalty_value",
    "penalty_values",
    "threshold",
    "MinimizeResult",
    "minimize_penalty",
    "verify_exactness",
    "ConverseRecord",
    "converse_check",
    "ParamFamily",
    "BallRadiusFamily",
    "CalmnessEstimate",
    "calmness_diagnostic",
    "SemiregularityEstimate",
    "semiregularity_estimate",
]


# ---------------------------------------------------------------------------
# objective catalog (closed, with exact Lipschitz constants)


@dataclass(frozen=True, eq=False)
class NormToPoint:
    target: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "target", np.asarray(self.target, dtype=float).reshape(-1))

    def values(self, space: NormedSpace, xs: np.ndarray) -> np.ndarray:
        """The objective along the last axis: at a point, or at each row of a stack."""
        return space.norms(xs - self.target)

    def lipschitz(self, space: NormedSpace) -> float:
        return 1.0


@dataclass(frozen=True, eq=False)
class Linear:
    c: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "c", np.asarray(self.c, dtype=float).reshape(-1))

    def values(self, space, xs):
        return np.vecdot(xs, self.c)  # the BLAS dot of c @ x on each row

    def lipschitz(self, space):
        return space.dual_norm_of(self.c)


@dataclass(frozen=True)
class AbsCoord:
    i: int

    def values(self, space, xs):
        return np.abs(xs[..., self.i])

    def lipschitz(self, space):
        e = np.zeros(space.dim)
        e[self.i] = 1.0
        return space.dual_norm_of(e)


@dataclass(frozen=True, eq=False)
class WeightedSum:
    terms: tuple  # of (weight, ObjectiveSpec)

    def __post_init__(self):
        terms = tuple((float(w), obj) for w, obj in self.terms)
        if any(w < 0 for w, _ in terms):
            raise ValueError("weights must be >= 0")
        object.__setattr__(self, "terms", terms)

    def values(self, space, xs):
        return sum((w * o.values(space, xs) for w, o in self.terms), np.zeros(xs.shape[:-1]))

    def lipschitz(self, space):
        return sum(w * objective_lipschitz(o, space) for w, o in self.terms)


ObjectiveSpec = NormToPoint | Linear | AbsCoord | WeightedSum


def objective_value(obj: ObjectiveSpec, space: NormedSpace, x) -> float:
    return float(obj.values(space, np.asarray(x, dtype=float)))


def objective_lipschitz(obj: ObjectiveSpec, space: NormedSpace) -> float:
    """Exact Lipschitz constant under the domain norm."""
    return obj.lipschitz(space)


# ---------------------------------------------------------------------------
# penalty functional


@dataclass(frozen=True, eq=False)
class PenaltyProblem:
    """Objective + inclusion instance + penalty weight l >= 0."""

    objective: ObjectiveSpec
    inst: InclusionInstance
    l: float

    def __post_init__(self):
        if self.l < 0:
            raise ValueError("penalty weight must be >= 0")

    @property
    def space(self) -> NormedSpace:
        return self.inst.space_x

    def objective_at(self, x) -> float:
        return objective_value(self.objective, self.space, x)


def penalty_value(prob: PenaltyProblem, x) -> float:
    """objective(x) + l * excess residual; the +inf sentinel propagates.  One row of
    penalty_values."""
    return penalty_values(prob, prob.space.check_point(x)[None]).item(0)


def penalty_values(prob: PenaltyProblem, xs) -> np.ndarray:
    """penalty_value at each row of a (k, dim) array, in one call (see InclusionInstance.residuals)."""
    xs = np.asarray(xs, dtype=float)
    resid = prob.inst.residuals(xs)
    out = np.full(xs.shape[0], math.inf)
    finite = ~np.isinf(resid)
    out[finite] = prob.objective.values(prob.space, xs[finite]) + prob.l * resid[finite]
    return out


def threshold(l_phi: float, alpha: float, beta: float) -> float:
    """Exactness threshold l_phi / (alpha - beta)."""
    if l_phi <= 0:
        raise ValueError("objective Lipschitz constant must be > 0")
    if not alpha > beta:
        raise ValueError("need alpha > beta")
    return l_phi / (alpha - beta)


# ---------------------------------------------------------------------------
# derivative-free minimization


@dataclass(frozen=True)
class MinimizeResult:
    x: np.ndarray
    value: float
    trace: PatternTrace

    def to_jsonable(self) -> dict:
        return {"x": self.x.tolist(), "value": self.value,
                "trace": self.trace.to_jsonable()}


def minimize_penalty(prob: PenaltyProblem, x0,
                     initial_step: float = 1.0, step_floor: float = 1e-7,
                     max_evals: int = 200_000) -> MinimizeResult:
    """Coordinate pattern search on the penalty functional.

    Hyperparameters (start step 1.0, halving, floor 1e-7) are fixed and
    recorded in the trace; the run is deterministic given x0.  Each poll
    round is one penalty_values call.
    """
    _check_search_cap(prob)
    x0 = prob.space.check_point(x0)
    ((x, val, trace),) = pattern_searches(lambda xs, _: penalty_values(prob, np.array(xs)), [x0],
                                          initial_step=initial_step, step_floor=step_floor,
                                          max_evals=max_evals)
    return MinimizeResult(x=x, value=val, trace=trace)


def _check_search_cap(prob: PenaltyProblem) -> None:
    if prob.space.dim > PENALTY_SEARCH_CAP:
        raise mp.DimensionCapError(f"pattern-search minimization is capped at dimension "
                                   f"{PENALTY_SEARCH_CAP}; this needs dimension "
                                   f"{prob.space.dim}")


def _multi_start(prob: PenaltyProblem, x0, n_starts: int, seed: int,
                 spread: float = 3.0) -> list[MinimizeResult]:
    """minimize_penalty from x0 and from n_starts - 1 seeded starts about it, in lockstep:
    each poll round of every search is one penalty_values call."""
    _check_search_cap(prob)
    x0 = prob.space.check_point(x0)
    starts = [x0] + [x0 + rng_for(seed, k).uniform(-spread, spread, size=prob.space.dim)
                     for k in range(1, n_starts)]
    runs = pattern_searches(lambda xs, _: penalty_values(prob, np.array(xs)), starts,
                            initial_step=1.0, step_floor=1e-7, max_evals=200_000)
    results = [MinimizeResult(x=x, value=val, trace=trace) for x, val, trace in runs]
    # schedule-independent selection
    results.sort(key=lambda res: (res.value, tuple(res.x)))
    return results


def verify_exactness(prob: PenaltyProblem, x_bar, radius: float, grid_n: int,
                     tol: float = 1e-9) -> Certificate:
    """Grid check that x_bar minimizes the penalty functional over its radius-ball.

    A zero radius degenerates to the single reference point and passes
    trivially.  Falsification ships the witnessing grid points.
    """
    space = prob.space
    x_bar = space.check_point(x_bar)
    ref = penalty_value(prob, x_bar)
    violations: list[Violation] = []
    n_grid = 0
    if radius > 0:
        axes = [np.linspace(x_bar[i] - radius, x_bar[i] + radius, grid_n)
                for i in range(space.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        pts = pts[~(space.norms(pts - x_bar) > radius * (1.0 + 1e-12))]
        n_grid = pts.shape[0]
        vals = penalty_values(prob, pts)
        for i in np.flatnonzero(ref > vals + tol):
            violations.append(Violation(int(i) + 1, tuple(x_bar), radius, tuple(pts[i]),
                                        float(ref - vals[i]), "violation"))
    violations.sort(key=lambda v: (-v.margin, v.point))
    return Certificate(
        property="penalty-exactness", trials=max(n_grid, 1), violations=violations,
        seed=0, tolerances={"tol": tol},
        parameters={"l": prob.l, "radius": radius, "grid_n": grid_n,
                    "x_bar": x_bar.tolist()},
    )


@dataclass(frozen=True)
class ConverseRecord:
    """Outcome of the strict-global-solution converse at l = (1+eps) * threshold."""

    l_eps: float
    winner: np.ndarray
    value: float
    strict: bool
    feasible: bool | None
    oracle_value: float | None
    matches_oracle: bool | None
    verdict: str  # "confirmed" | "not-applicable-nonstrict" | "failed"

    def to_jsonable(self) -> dict:
        return {"l_eps": self.l_eps, "winner": self.winner.tolist(), "value": self.value,
                "strict": self.strict, "feasible": self.feasible,
                "oracle_value": self.oracle_value, "matches_oracle": self.matches_oracle,
                "verdict": self.verdict}


def converse_check(prob: PenaltyProblem, epsilon: float, x0,
                   n_starts: int = 8, seed: int = 0, strict_tol: float = 1e-6,
                   oracle_halfwidth: float = 6.0, oracle_n: int = 2001,
                   feas_tol: float = 1e-6) -> ConverseRecord:
    """Minimize at l = (1+eps) * threshold and test the strict-winner conclusion.

    When the multi-start winner is strict (no other found near-optimal
    point), its feasibility and its value against a feasible-grid oracle
    are asserted; a tie is reported as non-strict and the conclusion is
    not applied.  eps must be positive.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    inst = prob.inst
    l_phi = objective_lipschitz(prob.objective, prob.space)
    l_eps = (1.0 + epsilon) * threshold(l_phi, inst.alpha_used, inst.beta)
    prob_eps = PenaltyProblem(prob.objective, inst, l_eps)
    results = _multi_start(prob_eps, x0, n_starts, seed)
    winner = results[0]
    near = [res for res in results if res.value <= winner.value + strict_tol]
    strict = all(prob.space.dist(res.x, winner.x) <= 10 * strict_tol for res in near)
    if not strict:
        return ConverseRecord(l_eps=l_eps, winner=winner.x, value=winner.value,
                              strict=False, feasible=None, oracle_value=None,
                              matches_oracle=None, verdict="not-applicable-nonstrict")
    feasible = inst.residual(winner.x) <= feas_tol
    oracle = _feasible_grid_minimum(prob, winner.x, oracle_halfwidth, oracle_n, feas_tol)
    grid_step = 2.0 * oracle_halfwidth / max(1, oracle_n - 1)
    matches = oracle is not None and \
        prob.objective_at(winner.x) <= oracle + l_phi * grid_step + 1e-9
    verdict = "confirmed" if (feasible and matches) else "failed"
    return ConverseRecord(l_eps=l_eps, winner=winner.x, value=winner.value,
                          strict=True, feasible=feasible, oracle_value=oracle,
                          matches_oracle=matches, verdict=verdict)


def _feasible_grid_minimum(prob: PenaltyProblem, center, halfwidth: float,
                           n: int, feas_tol: float) -> float | None:
    space = prob.space
    if space.dim > 2:
        raise ValueError("grid oracle is desk scale: dim <= 2")
    axes = [np.linspace(center[i] - halfwidth, center[i] + halfwidth, n)
            for i in range(space.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    feasible = pts[prob.inst.residuals(pts) <= feas_tol]
    # the first smallest value, as a running min keeps it
    return min(prob.objective.values(space, feasible).tolist(), default=None)


# ---------------------------------------------------------------------------
# parameterized families and diagnostics


@dataclass(frozen=True, eq=False)
class ParamFamily:
    """Inclusion problems parameterized over a metric parameter space.

    phi_of_p / psi_of_p build the pair at a parameter; constants are
    rederived per parameter (the family must keep beta_p below the
    safety-scaled alpha_p near p_bar, which construction verifies at
    p_bar).  A parameter whose instance cannot be built (a ValueError,
    as a ball-valued phi with radius c0 <= 0 raises) lies outside the
    family: it holds no point, and the diagnostics skip it.

    The diagnostics ask about many (p, x) rows at once: a parameter
    column ps (k, pdim) beside points (k, dim).  members, residuals and
    solves build each distinct parameter's instance once and run its rows
    in one call; BallRadiusFamily runs a whole column in one call.
    """

    param_space: NormedSpace
    p_bar: np.ndarray
    phi_of_p: Callable
    psi_of_p: Callable
    tol: float = 1e-9

    def __post_init__(self):
        object.__setattr__(self, "p_bar", self.param_space.check_point(self.p_bar))
        # validates alpha_p > beta_p at the reference
        object.__setattr__(self, "space_x", self.instance(self.p_bar).space_x)

    def instance(self, p, tol: float | None = None) -> InclusionInstance:
        p = self.param_space.check_point(p)
        return InclusionInstance(psi=self.psi_of_p(p), phi=self.phi_of_p(p),
                                 tol=tol if tol is not None else self.tol)

    def residual(self, p, x) -> float:
        """excess(phi_p(x), psi_p(x)), inf for p outside the family: one row of residuals."""
        return self.residuals(self.param_space.check_point(p)[None],
                              self.space_x.check_point(x)[None]).item(0)

    def members(self, ps) -> np.ndarray:
        """Whether each parameter of a (k, pdim) column lies in the family."""
        inside = {i for inst, rows in self._groups(ps) if inst is not None for i in rows}
        return np.array([i in inside for i in range(len(ps))], dtype=bool)

    def residuals(self, ps, xs) -> np.ndarray:
        """The residual of each (ps[i], xs[i]) row, inf where ps[i] lies outside the family."""
        out = np.full(len(xs), math.inf)
        for inst, rows in self._groups(ps):
            if inst is not None:
                out[rows] = inst.residuals(xs[rows])
        return out

    def solves(self, ps, starts, tol: float) -> list[SolveTrace]:
        """solve_inclusion(instance(ps[i], tol), starts[i]) for each row, every ps[i] in the
        family."""
        traces = {i: trace for inst, rows in self._groups(ps, tol)
                  for i, trace in zip(rows, solve_inclusions(inst, starts[rows]))}
        return [traces[i] for i in range(len(starts))]

    def _groups(self, ps, tol: float | None = None) -> list:
        """(instance(p, tol), the rows of ps at p) for each distinct p of ps: the instance
        is None outside the family."""
        groups, out = {}, []
        for i, p in enumerate(np.asarray(ps, dtype=float)):
            groups.setdefault(p.tobytes(), (p, []))[1].append(i)
        for p, rows in groups.values():
            try:
                out.append((self.instance(p, tol), rows))
            except ValueError:
                out.append((None, rows))
        return out


class BallRadiusFamily(ParamFamily):
    """phi_p(x) = ball(0, p[0] + c1*||x||) against a psi that does not depend on p: the
    family kind of instance files (`ball_radius_family`).

    Parameters are 1-d, and p lies in the family when p[0] > 0.  Over a
    parameter column phi is one BallValued with a per-row c0, so the
    column's residuals and solves are one stacked call each, row i bit
    for bit that of the instance at ps[i].
    """

    def __init__(self, psi: mp.MapSpec, c1: float, p_bar):
        space_x, space_y = psi.space_x, psi.space_y
        center = mp.Affine(np.zeros((space_y.dim, space_x.dim)), np.zeros(space_y.dim))

        def phi_of_c0(c0):
            return mp.BallValued(center, c0=c0, c1=c1, space_x=space_x, space_y=space_y)

        object.__setattr__(self, "phi_of_c0", phi_of_c0)
        super().__init__(param_space=NormedSpace(1), p_bar=p_bar,
                         phi_of_p=lambda p: phi_of_c0(float(p[0])), psi_of_p=lambda p: psi)
        object.__setattr__(self, "psi", psi)

    def members(self, ps):
        return np.asarray(ps, dtype=float)[:, 0] > 0.0

    def residuals(self, ps, xs):
        out = np.full(len(xs), math.inf)
        rows = self.members(ps)
        if rows.any():
            out[rows] = mp.image_excesses(self.phi_of_c0(ps[rows, 0]), self.psi, xs[rows])
        return out

    def solves(self, ps, starts, tol):
        if not len(starts):
            return []
        return solve_inclusions(InclusionInstance(psi=self.psi, phi=self.phi_of_c0(ps[:, 0]),
                                                  tol=tol), starts)


def _per_param(call, ps: list, blocks: list) -> list:
    """call(column, points) over every parameter's block of points (n_k, dim) at once, the
    column repeating ps[k] n_k times; its output split back into one slice per block."""
    if not blocks:
        return []
    counts = [len(block) for block in blocks]
    out = call(np.repeat(np.array(ps), counts, axis=0), np.concatenate(blocks))
    ends = np.cumsum(counts)
    return [out[a:b] for a, b in zip((ends - counts).tolist(), ends.tolist())]


def _draw_params(fam: ParamFamily, rng, radius: float, n_params: int, draw_points):
    """Of n_params parameters p_bar + U(-radius, radius)^pdim, those off p_bar and in the
    family, with d(p, p_bar) and the points draw_points() draws from rng after each."""
    ps, d_ps, blocks = [], [], []
    for _ in range(n_params):
        p = fam.p_bar + rng.uniform(-radius, radius, size=fam.param_space.dim)
        d_p = fam.param_space.dist(p, fam.p_bar)
        if d_p <= 1e-12 or not fam.members(p[None])[0]:
            continue
        ps.append(p)
        d_ps.append(d_p)
        blocks.append(draw_points())
    return ps, d_ps, blocks


def _converged_ends(traces, dim: int) -> np.ndarray:
    return np.reshape([trace.x_final for trace in traces if trace.status == "converged"],
                      (-1, dim))


@dataclass(frozen=True)
class CalmnessEstimate:
    """Empirical lower estimate of the calmness constant; never a verdict."""

    slope: float  # zeta lower bound: sup of (f(x_bar) - f(x)) / d(p, p_bar)
    value_slope: float  # inf of (v(p) - v(p_bar)) / d(p, p_bar) over sampled p
    per_radius: tuple  # (radius, inf_ratio, n_pairs), nonincreasing inf by nesting
    n_pairs: int
    seed: int

    def to_jsonable(self) -> dict:
        return {"slope": self.slope, "value_slope": self.value_slope,
                "per_radius": [list(row) for row in self.per_radius],
                "n_pairs": self.n_pairs, "seed": self.seed}


def calmness_diagnostic(fam: ParamFamily, objective: ObjectiveSpec, x_bar,
                        radii, seed: int = 0, n_params: int = 24,
                        n_points: int = 40, member_tol: float = 1e-6) -> CalmnessEstimate:
    """Sampled calmness slope at (p_bar, x_bar).

    Over parameters p near p_bar and feasible points x of the perturbed
    region near x_bar (membership by excess <= tol; candidates include
    solver projections onto the region), the infimum of
    (f(x) - f(x_bar)) / d(p, p_bar) lower-bounds -zeta.  Estimates are
    reported per radius; sample sets nest, so the inf is nonincreasing
    under radius refinement.  Parameters outside the family are skipped.
    Every parameter and candidate is drawn first (no draw depends on a
    solve); then one solve call runs every parameter's projections and one
    residual call tests every candidate.
    """
    radii = sorted(radii)
    r_max = radii[-1]
    space_x = fam.space_x
    x_bar = space_x.check_point(x_bar)
    f_bar = objective_value(objective, space_x, x_bar)
    rng = rng_for(seed, 0)
    ps, d_ps, cands = _draw_params(
        fam, rng, r_max, n_params,
        lambda: x_bar + rng.uniform(-r_max, r_max, size=(n_points, space_x.dim)))
    n_starts = max(2, n_points // 8)
    solved = _per_param(lambda column, starts: fam.solves(column, starts, 1e-9), ps,
                        [np.vstack([x_bar, c[:n_starts]]) for c in cands])
    cands = [np.vstack([c, _converged_ends(traces, space_x.dim)])
             for c, traces in zip(cands, solved)]
    d_xs = [space_x.norms(c - x_bar) for c in cands]
    near = [c[d_x <= r_max] for c, d_x in zip(cands, d_xs)]
    pairs = []  # (d(p, p_bar), radius_needed, ratio)
    for d_p, xs, d_x, res in zip(d_ps, near, d_xs, _per_param(fam.residuals, ps, near)):
        member = ~(res > member_tol)
        ratios = (objective.values(space_x, xs[member]) - f_bar) / d_p
        pairs += [(d_p, d, ratio) for d, ratio in zip(d_x[d_x <= r_max][member].tolist(),
                                                      ratios.tolist())]
    per_radius = []
    for r in radii:
        sub = [ratio for d_p, d_x, ratio in pairs if d_p <= r and d_x <= r]
        inf_ratio = min(sub) if sub else math.inf
        per_radius.append((r, inf_ratio, len(sub)))
    final_inf = per_radius[-1][1]
    slope = 0.0 if math.isinf(final_inf) else max(0.0, -final_inf)
    value_slope = _value_slope(fam, objective, x_bar, r_max, seed, n_params, member_tol)
    return CalmnessEstimate(slope=slope, value_slope=value_slope,
                            per_radius=tuple(per_radius),
                            n_pairs=len(pairs), seed=seed)


def _value_slope(fam: ParamFamily, objective: ObjectiveSpec, x_bar,
                 radius: float, seed: int, n_params: int, member_tol: float) -> float:
    """inf over sampled p of (v(p) - f(x_bar)) / d(p, p_bar), v(p) the least objective of
    the feasible converged ends of five solves near x_bar (one solve call for all p)."""
    space_x = fam.space_x
    f_bar = objective_value(objective, space_x, x_bar)
    rng = rng_for(seed, 1)
    ps, d_ps, starts = _draw_params(
        fam, rng, radius, n_params,
        lambda: np.vstack([x_bar, x_bar + rng.uniform(-radius, radius, size=(4, space_x.dim))]))
    solved = _per_param(lambda column, xs: fam.solves(column, xs, 1e-9), ps, starts)
    near = []
    for traces in solved:
        ends = _converged_ends(traces, space_x.dim)
        near.append(ends[space_x.norms(ends - x_bar) <= radius])
    worst = math.inf
    for d_p, xs, res in zip(d_ps, near, _per_param(fam.residuals, ps, near)):
        best = None
        for val, r in zip(objective.values(space_x, xs).tolist(), res.tolist()):
            if r > member_tol:
                continue
            best = val if best is None else min(best, val)
        if best is not None:
            worst = min(worst, (best - f_bar) / d_p)
    return worst


@dataclass(frozen=True)
class SemiregularityEstimate:
    """Empirical modulus of the feasible-region map: theta and kappa = 1/theta."""

    theta: float
    kappa: float
    n_samples: int
    n_skipped: int
    seed: int

    def to_jsonable(self) -> dict:
        return {"theta": self.theta, "kappa": self.kappa,
                "n_samples": self.n_samples, "n_skipped": self.n_skipped,
                "seed": self.seed}


def semiregularity_estimate(fam: ParamFamily, x_bar, radius: float = 0.5,
                            n_samples: int = 32, seed: int = 0,
                            p_radius: float = 0.75, p_grid_n: int = 65,
                            member_tol: float = 1e-7) -> SemiregularityEstimate:
    """Sampled modulus theta = liminf dist(x, R(p_bar)) / dist(p_bar, R^-1(x)).

    Numerators come from solver projections onto the reference region;
    denominators from a parameter grid refined by bisection toward
    p_bar (membership by excess; a parameter outside the family is no
    member).  Points already in the reference region are excluded;
    samples whose inverse membership the grid cannot certify are skipped
    and counted.  No finite ratios at all yield the +inf sentinel
    (kappa = 0).  The samples are drawn first, and each step runs over
    all of them at once.
    """
    space_x = fam.space_x
    x_bar = space_x.check_point(x_bar)
    inst_bar = fam.instance(fam.p_bar, tol=1e-10)
    xs = x_bar + rng_for(seed, 2).uniform(-radius, radius, size=(max(n_samples, 0), space_x.dim))
    xs = xs[~(inst_bar.residuals(xs) <= member_tol)]  # numerator zero: excluded from the liminf
    ratios = []
    skipped = 0
    for num, den in zip(_region_distances(inst_bar, xs, seed),
                        _inverse_param_distances(fam, xs, p_radius, p_grid_n, member_tol)):
        if den is None:
            skipped += 1
        elif den <= 1e-12:
            ratios.append(math.inf)
        else:
            ratios.append(num / den)
    if not ratios or all(math.isinf(t) for t in ratios):
        return SemiregularityEstimate(theta=math.inf, kappa=0.0,
                                      n_samples=len(ratios), n_skipped=skipped, seed=seed)
    theta = min(t for t in ratios if not math.isinf(t))
    kappa = math.inf if theta <= 0 else 1.0 / theta
    return SemiregularityEstimate(theta=theta, kappa=kappa,
                                  n_samples=len(ratios), n_skipped=skipped, seed=seed)


def _region_distances(inst: InclusionInstance, xs: np.ndarray, seed: int) -> list[float]:
    """Upper bound on dist(x, R) for each row x of xs: the nearest converged end of three
    solves, from x and from x plus two seeded offsets (the same for every row), all in one
    lockstep call; the a-priori error bound where none of a row's solves converges."""
    space_x = inst.space_x
    offsets = 0.05 * rng_for(seed, 3).standard_normal((2, space_x.dim))
    starts = np.stack([xs, xs + offsets[0], xs + offsets[1]], axis=1)
    traces = solve_inclusions(inst, starts.reshape(-1, space_x.dim))
    best = []
    for i, x in enumerate(xs):
        d = math.inf
        for trace in traces[3 * i:3 * i + 3]:
            if trace.status == "converged":
                d = min(d, space_x.dist(trace.x_final, x))
        best.append(d)
    fallback = [i for i, d in enumerate(best) if math.isinf(d)]
    if fallback:  # the a-priori error bound
        bounds = inst.residuals(xs[fallback]) / (inst.alpha_used - inst.beta)
        for i, bound in zip(fallback, bounds.tolist()):
            best[i] = bound
    return best


def _inverse_param_distances(fam: ParamFamily, xs: np.ndarray, p_radius: float,
                             grid_n: int, member_tol: float) -> list[float | None]:
    """Upper bound on dist(p_bar, {p : x in R(p)}) for each row x of xs, or None where no
    grid member is found; each step one membership call over the rows still searching."""
    if fam.param_space.dim != 1:
        raise ValueError("the parameter grid search is implemented for 1-d parameter spaces")
    p_bar = float(fam.p_bar[0])
    grid = np.linspace(p_bar - p_radius, p_bar + p_radius, grid_n)

    def member(p_vals, rows):  # membership of xs[rows[j]] in R(p_vals[j])
        return fam.residuals(np.reshape(p_vals, (-1, 1)), xs[rows]) <= member_tol

    at_bar = member(np.full(len(xs), p_bar), np.arange(len(xs)))
    out = [0.0 if hit else None for hit in at_bar.tolist()]
    searching = np.flatnonzero(~at_bar)
    # nearest first, ties in grid order: the first member is the nearest one
    scan = grid[sorted(range(grid_n), key=lambda i: abs(grid[i] - p_bar))]
    hits = member(np.tile(scan, len(searching)),
                  np.repeat(searching, grid_n)).reshape(len(searching), grid_n)
    found = hits.any(axis=1)
    rows = searching[found]
    if not rows.size:
        return out
    # bisection toward p_bar tightens the upper bound while membership persists
    inner, outer = np.full(len(rows), p_bar), scan[hits[found].argmax(axis=1)]
    for _ in range(60):
        mid = 0.5 * (inner + outer)
        hit = member(mid, rows)
        outer, inner = np.where(hit, mid, outer), np.where(hit, inner, mid)
    for i, d in zip(rows.tolist(), np.abs(outer - p_bar).tolist()):
        out[i] = d
    return out

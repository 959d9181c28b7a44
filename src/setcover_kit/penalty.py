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
from .geometry import NormedSpace, excess, rng_for
from .search import PatternTrace, pattern_search, pattern_searches
from .solver import InclusionInstance, solve_inclusion

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

    def value(self, space: NormedSpace, x: np.ndarray) -> float:
        return space.norm_of(x - self.target)

    def values(self, space: NormedSpace, xs: np.ndarray) -> np.ndarray:
        return space.norms(xs - self.target)

    def lipschitz(self, space: NormedSpace) -> float:
        return 1.0


@dataclass(frozen=True, eq=False)
class Linear:
    c: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "c", np.asarray(self.c, dtype=float).reshape(-1))

    def value(self, space, x):
        return float(self.c @ x)

    def values(self, space, xs):
        return np.array([float(self.c @ x) for x in xs])

    def lipschitz(self, space):
        return space.dual_norm_of(self.c)


@dataclass(frozen=True)
class AbsCoord:
    i: int

    def value(self, space, x):
        return abs(float(x[self.i]))

    def values(self, space, xs):
        return np.abs(xs[:, self.i])

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

    def value(self, space, x):
        return sum(w * objective_value(o, space, x) for w, o in self.terms)

    def values(self, space, xs):
        return sum((w * o.values(space, xs) for w, o in self.terms), np.zeros(xs.shape[0]))

    def lipschitz(self, space):
        return sum(w * objective_lipschitz(o, space) for w, o in self.terms)


ObjectiveSpec = NormToPoint | Linear | AbsCoord | WeightedSum


def objective_value(obj: ObjectiveSpec, space: NormedSpace, x) -> float:
    return obj.value(space, np.asarray(x, dtype=float))


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
    """objective(x) + l * excess residual; the +inf sentinel propagates."""
    resid = prob.inst.residual(x)
    if math.isinf(resid):
        return math.inf
    return prob.objective_at(x) + prob.l * resid


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
    recorded in the trace; the run is deterministic given x0.
    """
    _check_search_cap(prob)
    x0 = prob.space.check_point(x0)
    x, val, trace = pattern_search(lambda u: penalty_value(prob, u), x0,
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
    runs = pattern_searches(lambda xs: penalty_values(prob, np.array(xs)), starts,
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
    p_bar).
    """

    param_space: NormedSpace
    p_bar: np.ndarray
    phi_of_p: Callable
    psi_of_p: Callable
    tol: float = 1e-9

    def __post_init__(self):
        object.__setattr__(self, "p_bar", self.param_space.check_point(self.p_bar))
        self.instance(self.p_bar)  # validates alpha_p > beta_p at the reference

    def instance(self, p, tol: float | None = None) -> InclusionInstance:
        p = self.param_space.check_point(p)
        return InclusionInstance(psi=self.psi_of_p(p), phi=self.phi_of_p(p),
                                 tol=tol if tol is not None else self.tol)

    def residual(self, p, x) -> float:
        p = self.param_space.check_point(p)
        phi, psi = self.phi_of_p(p), self.psi_of_p(p)
        return float(excess(phi.space_y, mp.eval_map(phi, x), mp.eval_map(psi, x)))


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
    under radius refinement.
    """
    radii = sorted(radii)
    r_max = radii[-1]
    space_x = fam.phi_of_p(fam.p_bar).space_x
    x_bar = space_x.check_point(x_bar)
    f_bar = objective_value(objective, space_x, x_bar)
    pairs = []  # (d(p, p_bar), radius_needed, ratio)
    rng = rng_for(seed, 0)
    for k in range(n_params):
        offset = rng.uniform(-r_max, r_max, size=fam.param_space.dim)
        p = fam.p_bar + offset
        d_p = fam.param_space.dist(p, fam.p_bar)
        if d_p <= 1e-12:
            continue
        candidates = [x_bar + rng.uniform(-r_max, r_max, size=space_x.dim)
                      for _ in range(n_points)]
        inst = fam.instance(p, tol=1e-9)
        for start in [x_bar] + candidates[: max(2, n_points // 8)]:
            trace = solve_inclusion(inst, start)
            if trace.status == "converged":
                candidates.append(trace.x_final)
        for x in candidates:
            d_x = space_x.dist(x, x_bar)
            if d_x > r_max:
                continue
            if fam.residual(p, x) > member_tol:
                continue
            ratio = (objective_value(objective, space_x, x) - f_bar) / d_p
            pairs.append((d_p, d_x, ratio))
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
    space_x = fam.phi_of_p(fam.p_bar).space_x
    f_bar = objective_value(objective, space_x, x_bar)
    worst = math.inf
    rng = rng_for(seed, 1)
    for _ in range(n_params):
        p = fam.p_bar + rng.uniform(-radius, radius, size=fam.param_space.dim)
        d_p = fam.param_space.dist(p, fam.p_bar)
        if d_p <= 1e-12:
            continue
        inst = fam.instance(p, tol=1e-9)
        best = None
        starts = [x_bar] + [x_bar + rng.uniform(-radius, radius, size=space_x.dim)
                            for _ in range(4)]
        for start in starts:
            trace = solve_inclusion(inst, start)
            if trace.status != "converged":
                continue
            x = trace.x_final
            if space_x.dist(x, x_bar) > radius or fam.residual(p, x) > member_tol:
                continue
            val = objective_value(objective, space_x, x)
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
    p_bar (membership by excess).  Points already in the reference
    region are excluded; samples whose inverse membership the grid
    cannot certify are skipped and counted.  No finite ratios at all
    yield the +inf sentinel (kappa = 0).
    """
    space_x = fam.phi_of_p(fam.p_bar).space_x
    x_bar = space_x.check_point(x_bar)
    inst_bar = fam.instance(fam.p_bar, tol=1e-10)
    rng = rng_for(seed, 2)
    ratios = []
    skipped = 0
    produced = 0
    while produced < n_samples:
        produced += 1
        x = x_bar + rng.uniform(-radius, radius, size=space_x.dim)
        if fam.residual(fam.p_bar, x) <= member_tol:
            continue  # numerator zero: excluded from the liminf sample
        num = _region_distance(fam, inst_bar, x, seed=seed)
        den = _inverse_param_distance(fam, x, p_radius, p_grid_n, member_tol)
        if den is None:
            skipped += 1
            continue
        if den <= 1e-12:
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


def _region_distance(fam: ParamFamily, inst: InclusionInstance, x, seed: int) -> float:
    best = math.inf
    space_x = inst.space_x
    rng = rng_for(seed, 3)
    starts = [x] + [np.asarray(x) + 0.05 * rng.standard_normal(space_x.dim)
                    for _ in range(2)]
    for start in starts:
        trace = solve_inclusion(inst, start)
        if trace.status == "converged":
            best = min(best, space_x.dist(trace.x_final, x))
    if math.isinf(best):
        # fall back to the a-priori error bound
        best = inst.residual(x) / (inst.alpha_used - inst.beta)
    return best


def _inverse_param_distance(fam: ParamFamily, x, p_radius: float,
                            grid_n: int, member_tol: float) -> float | None:
    """Upper bound on dist(p_bar, {p : x in R(p)}), or None if no member found."""
    if fam.param_space.dim != 1:
        raise ValueError("the parameter grid search is implemented for 1-d parameter spaces")
    p_bar = float(fam.p_bar[0])
    grid = np.linspace(p_bar - p_radius, p_bar + p_radius, grid_n)

    def member(p_val: float) -> bool:
        return fam.residual(np.array([p_val]), x) <= member_tol

    if member(p_bar):
        return 0.0
    members = [p for p in grid if member(p)]
    if not members:
        return None
    nearest = min(members, key=lambda p: abs(p - p_bar))
    # bisection toward p_bar tightens the upper bound while membership persists
    inner, outer = p_bar, float(nearest)
    for _ in range(60):
        mid = 0.5 * (inner + outer)
        if member(mid):
            outer = mid
        else:
            inner = mid
    return abs(outer - p_bar)

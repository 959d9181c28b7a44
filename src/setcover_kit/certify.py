"""Seeded falsification of covering behaviour and related error bounds.

Universal properties (quantified over all points and radii) cannot be
proved by testing, so every check here runs seeded trials and returns a
machine-readable `Certificate` whose verdict vocabulary is explicit
about that: "no-counterexample-found" is not a proof, while "falsified"
ships independently re-checkable violation records.  Search failures
that cannot certify a genuine violation are recorded as soft violations
flagged "inconclusive".

Trial distribution: reference points from a configurable box, radii
log-uniform over [1e-3, 1e2] so both micro and macro scales of the
linear-rate property get exercised.  Per-trial seeds derive from the
root seed and the trial index, making certificates schedule-independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import mappings as mp
from ._lp import max_norm_fit, solve_lp
from .codec import map_to_json
from .geometry import (
    Ball,
    Family,
    Rounds,
    SetRep,
    _freeze,
    _memo,
    _rng,
    _sample_enlargement,
    _sampling_words,
    _seed_words,
    dist_point,
    dists,
    excess,
    hausdorff,
    rng_for,
    sample_enlargement,
)
from .search import ball_search

__all__ = [
    "Violation",
    "Certificate",
    "InteriorReport",
    "ProcessAnomalyError",
    "check_covering",
    "check_set_covering",
    "interior_radius",
    "check_inverse_errorbound",
    "check_inverse_hausdorff",
    "check_exc_semicontinuity",
    "recheck_violation",
    "inverse_distance",
]

R_RANGE_DEFAULT = (1e-3, 1e2)


class ProcessAnomalyError(RuntimeError):
    """An LP step of the process analysis failed in a way valid cones should not."""


@dataclass(frozen=True)
class Violation:
    """One counterexample (or inconclusive search) record; re-checkable on its own."""

    trial: int
    x: tuple
    r: float
    point: tuple | None
    margin: float
    kind: str = "violation"  # "violation" | "inconclusive"
    witness: tuple | None = None

    def to_jsonable(self) -> dict:
        return {
            "trial": self.trial,
            "x": list(self.x),
            "r": self.r,
            "point": None if self.point is None else list(self.point),
            "margin": self.margin,
            "kind": self.kind,
            "witness": None if self.witness is None else list(self.witness),
        }


@dataclass
class Certificate:
    """Outcome of a falsification run: verdict plus everything needed to replay it."""

    property: str
    trials: int
    violations: list[Violation]
    seed: int
    tolerances: dict
    parameters: dict = field(default_factory=dict)

    @property
    def verdict(self) -> str:
        return "falsified" if self.violations else "no-counterexample-found"

    @property
    def falsified(self) -> bool:
        return bool(self.violations)

    def genuine_violations(self) -> list[Violation]:
        return [v for v in self.violations if v.kind == "violation"]

    def to_jsonable(self, max_violations: int = 32) -> dict:
        return {
            "property": self.property,
            "verdict": self.verdict,
            "trials": self.trials,
            "n_violations": len(self.violations),
            "violations": [v.to_jsonable() for v in self.violations[:max_violations]],
            "seed": self.seed,
            "tolerances": dict(sorted(self.tolerances.items())),
            "parameters": {k: v for k, v in sorted(self.parameters.items())},
        }


def _default_box(dim: int, half_width: float = 5.0):
    return -half_width * np.ones(dim), half_width * np.ones(dim)


# From this many trials on a certificate derives its trial seeds in one batch.
# Below it, one NumPy SeedSequence per key costs less than the batch's fixed
# cost: timed in-process per closed-form set-covering job, batching cost
# 80-150 us more at 1 trial, 35-200 us more at 2, about the same at 3, and
# saved 80 us at 4 trials and 320-450 us at 9.
_BATCH_FROM = 4


class _TrialSeeds:
    """The generators of one certificate's trials: trial t draws from
    rng_for(seed, t), and with `sub` it samples an enlargement under the
    sub-seed _sub_seed(seed, t, sub).

    From _BATCH_FROM trials on, every key is derived before the first trial
    runs, in two kernel calls at most (the trial draws with the sub-seeds,
    then each sub-seed's two sampling streams), and only the seed words are
    held; a trial's generators are built when it runs.  Fewer trials derive
    each key when it is needed, as rng_for does.  Both give the same generators.
    """

    def __init__(self, seed: int, trials: int, sub: int | None = None):
        self.seed, self.sub, self.draws = seed, sub, None
        if trials < _BATCH_FROM:
            return
        keys = [(t,) for t in range(trials)]
        if sub is not None:
            keys += [(t, sub) for t in range(trials)]
        words = _seed_words(seed, keys)
        self.draws = words[:trials]
        if sub is not None:
            # _sub_seed is generate_state(1)[0]: the low half of the first word
            self.subs = words[trials:, 0] & 0xFFFFFFFF
            self.sampling = _sampling_words(self.subs)

    def rng(self, t: int) -> np.random.Generator:
        return rng_for(self.seed, t) if self.draws is None else _rng(self.draws[t])

    def enlargement(self, t: int, space, s: SetRep, rho: float, n: int) -> np.ndarray:
        if self.draws is None:
            return sample_enlargement(space, s, rho, n, seed=_sub_seed(self.seed, t, self.sub))
        return _sample_enlargement(space, s, rho, n, int(self.subs[t]),
                                   *map(_rng, self.sampling[t]))


def _draw_trial(rng: np.random.Generator, x_box, r_range, dy: int = 0):
    """A trial's point x, uniform in the box, its radius r, log-uniform in
    r_range, and with dy > 0 a ball centre, uniform in [-5, 5]^dy (else None).

    The numbers are those of rng.uniform(lo, hi), then rng.uniform(log r_range)
    and rng.uniform(-5, 5, dy), bit for bit, with the generator left in the
    same state: one rng.random call and numpy's lo + (hi - lo) * u.
    """
    lo, hi = x_box
    lo = np.asarray(lo, dtype=float)
    span = np.asarray(hi, dtype=float) - lo
    log_lo, log_hi = math.log(r_range[0]), math.log(r_range[1])
    if not (np.isfinite(span).all() and math.isfinite(log_hi - log_lo)):
        raise OverflowError("Range exceeds valid bounds")  # as rng.uniform raises
    dx = span.size
    u = rng.random(dx + 1 + dy)
    x = lo + span * u[:dx].reshape(span.shape)
    r = math.exp(log_lo + (log_hi - log_lo) * float(u[dx]))
    return x, r, (-5.0 + 10.0 * u[dx + 1:] if dy else None)


def _scale_tol(tol: float, x, extra: float) -> float:
    return tol * (1.0 + float(np.max(np.abs(x))) + extra)


# ---------------------------------------------------------------------------
# covering (ball image sweep)


def check_covering(m: mp.MapSpec, alpha: float, trials: int, seed: int,
                   x_box=None, r_range=R_RANGE_DEFAULT, n_targets: int = 4,
                   tol: float = 1e-9, search_budget: int = 600) -> Certificate:
    """Falsification of plain covering: every point of the enlarged image
    must be reachable from the image of some nearby point.

    Per trial, target points of the alpha*r-enlargement of the image are
    drawn and a response u inside the r-ball is sought: by closed form
    where the variant has one, by the set-covering witness when it
    exists, and by budgeted pattern search otherwise.
    """
    x_box = x_box or _default_box(m.space_x.dim)
    violations: list[Violation] = []
    seeds = _TrialSeeds(seed, trials, sub=1)
    for t in range(trials):
        x, r, _ = _draw_trial(seeds.rng(t), x_box, r_range)
        image = mp.eval_map(m, x)
        targets = seeds.enlargement(t, m.space_y, image, alpha * r, n_targets)
        witness_u = None
        try:
            witness_u = mp.cover_witness(m, x, r)
        except (mp.WitnessUnavailableError, mp.NotSetCoveringError):
            pass
        atol = _scale_tol(tol, x, alpha * r)
        for y in targets:
            responder = m.respond(x, r, y)
            if responder is not None:
                u, certified = responder
                if certified > atol:
                    violations.append(Violation(t, tuple(x), r, tuple(y), certified,
                                                "violation", tuple(u)))
                continue
            if witness_u is not None:
                d = float(dist_point(m.space_y, y, mp.eval_map(m, witness_u)))
                if d <= atol:
                    continue
            u, val = _search_cover_point(m, x, r, y, seed=_sub_seed(seed, t, 2),
                                         budget=search_budget)
            if val > atol:
                violations.append(Violation(t, tuple(x), r, tuple(y), val,
                                            "inconclusive", tuple(u)))
    return Certificate(
        property="covering", trials=trials, violations=violations, seed=seed,
        tolerances={"tol": tol},
        parameters={"alpha": alpha, "r_range": list(r_range), "n_targets": n_targets,
                    "map": map_to_json(m)},
    )


def _sub_seed(seed: int, trial: int, k: int) -> int:
    return int(np.random.SeedSequence(entropy=seed, spawn_key=(trial, k)).generate_state(1)[0])


def _search_cover_point(m: mp.MapSpec, x, r: float, y, seed: int, budget: int):
    def objective(us):
        """dist(y, F(u)) for each point u; inf where F(u) cannot be built."""
        return mp.eval_maps(m, np.array(us)).dists_from(m.space_y, y[None])[:, 0]

    return ball_search(objective, m.space_x, x, r, rng_for(seed, 0), n_draws=3,
                       max_evals=max(30, budget // 4))


# ---------------------------------------------------------------------------
# set-covering (single absorbing point)


def check_set_covering(m: mp.MapSpec, alpha: float, trials: int, seed: int,
                       x_box=None, r_range=R_RANGE_DEFAULT, n_inclusion: int = 64,
                       tol: float = 1e-9) -> Certificate:
    """Falsification of set-covering: one point u within r of x whose image
    contains the whole alpha*r-enlargement of the image at x.

    u is the constructive witness when the variant has one, otherwise the
    best candidate of a budgeted search; the inclusion is tested on
    construction-guaranteed members of the enlargement, so failures are
    genuine counterexamples for that u.
    """
    x_box = x_box or _default_box(m.space_x.dim)
    violations: list[Violation] = []
    seeds = _TrialSeeds(seed, trials, sub=4)
    for t in range(trials):
        x, r, _ = _draw_trial(seeds.rng(t), x_box, r_range)
        image = mp.eval_map(m, x)
        try:
            u = mp.cover_witness(m, x, r)
        except (mp.WitnessUnavailableError, mp.NotSetCoveringError):
            rec = mp.fallback_witness(m, x, r, alpha, n_points=min(n_inclusion, 32),
                                      seed=_sub_seed(seed, t, 3))
            u = rec.u
        image_u = mp.eval_map(m, u)
        targets = seeds.enlargement(t, m.space_y, image, alpha * r, n_inclusion)
        atol = _scale_tol(tol, x, alpha * r)
        d = dists(m.space_y, targets, image_u)
        margins = d.value - d.error
        worst = int(np.argmax(margins))
        if margins[worst] > max(atol, 0.0):
            violations.append(Violation(t, tuple(x), r, tuple(targets[worst]),
                                        float(margins[worst]), "violation", tuple(u)))
    return Certificate(
        property="set-covering", trials=trials, violations=violations, seed=seed,
        tolerances={"tol": tol},
        parameters={"alpha": alpha, "r_range": list(r_range),
                    "n_inclusion": n_inclusion, "map": map_to_json(m)},
    )


def recheck_violation(m: mp.MapSpec, cert: Certificate, v: Violation,
                      tol: float = 1e-9) -> bool:
    """Independently re-evaluate a violation record (replay determinism)."""
    x = np.array(v.x)
    atol = _scale_tol(tol, x, cert.parameters.get("alpha", 1.0) * v.r)
    if cert.property in ("covering", "set-covering"):
        if v.witness is None or v.point is None:
            return False
        d = dist_point(m.space_y, np.array(v.point), mp.eval_map(m, np.array(v.witness)))
        return float(d) - d.error > atol
    if cert.property == "inverse-errorbound":
        s = _ball_from_record(v)
        lhs, rhs = _inverse_errorbound_sides(m, cert.parameters["alpha"], s, x)
        return lhs > rhs + atol
    raise ValueError(f"no replay rule for property {cert.property!r}")


def _ball_from_record(v: Violation) -> Ball:
    data = np.array(v.point)
    return Ball(data[:-1], float(data[-1]))


# ---------------------------------------------------------------------------
# convex process interior analysis


@dataclass(frozen=True)
class InteriorReport:
    """Inscribed-slack analysis of a polyhedral process at the origin.

    One of two consistent states: no interior (everything zero/absent) or
    a certified witness direction u0 whose image contains a ball of
    radius alpha around the origin.
    """

    t_star: float
    u0: np.ndarray | None
    alpha: float
    y_interior: np.ndarray | None = None

    def __post_init__(self):
        present = self.u0 is not None
        if present != (self.t_star > 0) or present != (self.alpha > 0):
            raise ValueError("inconsistent interior report")
        for name in ("u0", "y_interior"):
            if getattr(self, name) is not None:
                _freeze(self, name, getattr(self, name))

    def to_jsonable(self) -> dict:
        return {
            "t_star": self.t_star,
            "alpha": self.alpha,
            "u0": None if self.u0 is None else self.u0.tolist(),
            "y_interior": None if self.y_interior is None else self.y_interior.tolist(),
        }


def interior_radius(proc: mp.PolyhedralProcess) -> InteriorReport:
    """Classify a polyhedral process by the interior of its image at zero.

    Step 1 maximizes the constraint slack t of Cy y + t <= 0 over the
    unit box (cap t <= 1; positive homogeneity makes any positive slack
    scalable).  If t* > 0, step 2 takes a min-norm u solving
    Cx u + Cy (-y_hat) <= 0, normalizes it into the unit ball, and
    reports the inscribed radius of the image of u at the origin.

    The analysis runs once per process; later calls return the kept report.
    """
    return _memo(proc, "_interior_report", lambda: _analyse_interior(proc))


def _analyse_interior(proc: mp.PolyhedralProcess) -> InteriorReport:
    cy_norms = np.array([proc.space_y.dual_norm_of(row) for row in proc.cy])
    active = [i for i in range(proc.cy.shape[0]) if np.any(proc.cy[i] != 0.0)]
    m_dim = proc.space_y.dim
    if not active:
        raise ProcessAnomalyError("process has no constraint rows involving the range variable")
    # step 1: max t  s.t.  cy_i y + t <= 0 (active rows), |y| <= 1, t <= 1
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
        raise ProcessAnomalyError("interior slack LP infeasible for a nonempty cone")
    t_star = float(res.x[-1])
    if t_star <= 1e-9:
        return InteriorReport(t_star=0.0, u0=None, alpha=0.0)
    y_hat = np.asarray(res.x[:m_dim], dtype=float)
    # step 2: min-norm u with Cx u <= Cy y_hat
    sol = max_norm_fit(np.eye(proc.cx.shape[1]), a_ub=proc.cx, b_ub=proc.cy @ y_hat)
    if sol is None:
        raise ProcessAnomalyError(
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
            return InteriorReport(t_star=0.0, u0=None, alpha=0.0)
    alpha = min(margins)
    if alpha <= 0:
        return InteriorReport(t_star=0.0, u0=None, alpha=0.0)
    return InteriorReport(t_star=t_star, u0=u0, alpha=float(alpha), y_interior=y_hat)


# ---------------------------------------------------------------------------
# inverse-map propositions


def inverse_distance(m: mp.MapSpec, s: SetRep, x) -> float:
    """Exact distance from x to {u : s is contained in the image of u}.

    Closed forms exist for the dilation family (threshold on the radius
    function) and for the two covering-only witnesses.  math.inf encodes
    an empty inclusion-inverse.
    """
    return m.inverse_distance(s, m.space_x.check_point(x))


def _inverse_errorbound_sides(m: mp.MapSpec, alpha: float, s: SetRep, x):
    lhs = inverse_distance(m, s, x)
    rhs_exc = excess(m.space_y, s, mp.eval_map(m, x))
    rhs = math.inf if rhs_exc.is_infinite else float(rhs_exc) / alpha
    return lhs, rhs


def _inverse_errorbound_rows(m: mp.MapSpec, alpha: float, tests: Rounds, xs: np.ndarray):
    """_inverse_errorbound_sides of every trial: (lhs, rhs) arrays, one entry per row."""
    lhs = m.inverse_distances(tests, xs)
    exc = tests.excesses(m.space_y, mp.eval_maps(m, xs))
    return lhs, np.where(np.isinf(exc), math.inf, exc / alpha)


def check_inverse_errorbound(m: mp.MapSpec, alpha: float, trials: int, seed: int,
                             x_box=None, tol: float = 1e-9,
                             test_sets: list[SetRep] | None = None) -> Certificate:
    """dist(x, inclusion-inverse of S) <= excess(S, image(x)) / alpha.

    Test sets are random balls in the range space unless supplied.  The
    distance on the left is evaluated in closed form, so recorded
    violations are genuine; an infinite right side passes trivially.
    With the random balls and a map kind whose inclusion inverse has a
    batched rule, every trial is drawn first and then evaluated in one
    pass: the same numbers as trial by trial.
    """
    x_box = x_box or _default_box(m.space_x.dim)
    violations: list[Violation] = []
    xs, rs, centers = [], [], []
    seeds = _TrialSeeds(seed, trials)
    dy = m.space_y.dim if test_sets is None else 0
    for t in range(trials):
        # the trial's ball comes from its own generator, after x and r
        x, r, center = _draw_trial(seeds.rng(t), x_box, (1e-2, 1e1), dy)
        xs.append(x)
        rs.append(r)
        centers.append(center)
    xs = np.array(xs).reshape(trials, m.space_x.dim)
    sides = None
    if test_sets is None:
        tests = Rounds(np.array(centers).reshape(trials, m.space_y.dim), np.array(rs))
        try:
            sides = _inverse_errorbound_rows(m, alpha, tests, xs)
        except NotImplementedError:  # no batched inclusion inverse for this kind
            pass
    else:
        tests = Family([test_sets[t % len(test_sets)] for t in range(trials)])
    if sides is None:
        sides = np.array([_inverse_errorbound_sides(m, alpha, tests.row(t), x)
                          for t, x in enumerate(xs)]).reshape(trials, 2).T
    lhs, rhs = sides
    for t, (x, r) in enumerate(zip(xs, rs)):
        if math.isinf(rhs[t]):
            continue
        atol = _scale_tol(tol, x, rhs[t])
        if lhs[t] > rhs[t] + atol:
            s = tests.row(t)
            record = tuple(np.append(s.center, s.radius)) if isinstance(s, Ball) else None
            violations.append(Violation(t, tuple(x), r, record, float(lhs[t] - rhs[t]),
                                        "violation"))
    return Certificate(
        property="inverse-errorbound", trials=trials, violations=violations, seed=seed,
        tolerances={"tol": tol},
        parameters={"alpha": alpha, "map": map_to_json(m)},
    )


def check_inverse_hausdorff(m: mp.MapSpec, alpha: float, trials: int, seed: int,
                            tol: float = 1e-9) -> Certificate:
    """Lipschitz bound on the inclusion inverse over bounded test sets:
    the Hausdorff distance of inverse images is at most 1/alpha times the
    Hausdorff distance of the sets.

    Implemented for the dilation family, whose inverse images are the
    closed-form super-threshold shells of the radius function.
    """
    center = m.shell_center()
    violations: list[Violation] = []
    seeds = _TrialSeeds(seed, trials)
    for t in range(trials):
        rng = seeds.rng(t)
        c1 = rng.uniform(-5.0, 5.0, size=m.space_y.dim)
        c2 = rng.uniform(-5.0, 5.0, size=m.space_y.dim)
        r1, r2 = rng.uniform(0.1, 4.0, size=2)
        a_set, b_set = Ball(c1, float(r1)), Ball(c2, float(r2))
        # the inverse images are shells about one center
        h_inv = abs(inverse_distance(m, a_set, center) - inverse_distance(m, b_set, center))
        h_sets = float(hausdorff(m.space_y, a_set, b_set))
        atol = _scale_tol(tol, c1, h_sets)
        if h_inv > h_sets / alpha + atol:
            violations.append(Violation(t, tuple(np.append(c1, r1)), float(r2),
                                        tuple(np.append(c2, r2)),
                                        h_inv - h_sets / alpha, "violation"))
    return Certificate(
        property="inverse-hausdorff", trials=trials, violations=violations, seed=seed,
        tolerances={"tol": tol},
        parameters={"alpha": alpha, "map": map_to_json(m)},
    )


# ---------------------------------------------------------------------------
# lower semicontinuity of the excess function


def check_exc_semicontinuity(phi: mp.MapSpec, psi: mp.MapSpec, x0,
                             n_sequences: int, seed: int,
                             modulus: float | None = None,
                             n_terms: int = 12, tol: float = 1e-9) -> Certificate:
    """Sampled lower semicontinuity of x -> excess(phi(x), psi(x)) at x0.

    For seeded sequences x_n -> x0, the tail minima must not drop below
    the value at x0 by more than a vanishing allowance (a Lipschitz
    modulus times the tail radius, plus the tolerance).
    """
    x0 = np.asarray(x0, dtype=float)
    if modulus is None:
        modulus = mp.beta_of(phi) + mp.beta_of(psi)

    def exc_at(x):
        return float(excess(phi.space_y, mp.eval_map(phi, x), mp.eval_map(psi, x)))

    base = exc_at(x0)
    violations: list[Violation] = []
    seeds = _TrialSeeds(seed, n_sequences)
    for s_idx in range(n_sequences):
        rng = seeds.rng(s_idx)
        direction = phi.space_x.unit(rng.standard_normal(phi.space_x.dim))
        delta0 = float(rng.uniform(0.5, 2.0))
        xs = [x0 + direction * delta0 * 0.5**k for k in range(n_terms)]
        values = [exc_at(x) for x in xs]
        for k in range(n_terms):
            tail_min = min(values[k:])
            tail_radius = delta0 * 0.5**k
            allowance = modulus * tail_radius + tol * (1.0 + base)
            if tail_min < base - allowance:
                violations.append(Violation(s_idx, tuple(x0), tail_radius,
                                            tuple(xs[k]), base - tail_min, "violation"))
                break
    return Certificate(
        property="excess-lower-semicontinuity", trials=n_sequences,
        violations=violations, seed=seed,
        tolerances={"tol": tol, "modulus": modulus},
        parameters={"x0": x0.tolist(), "phi": map_to_json(phi), "psi": map_to_json(psi)},
    )

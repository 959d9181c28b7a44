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
from .codec import map_to_json
from .geometry import (
    Ball,
    Family,
    Rounds,
    SetRep,
    _pristine_rng,
    _rng,
    _sample_enlargement,
    _sampling_words,
    _trial_seed_words,
    dist_point,
    rng_for,
)
from .mappings import InteriorReport, ProcessAnomalyError, interior_radius  # re-exported
from .search import ball_searches

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
# cost, keys assembled as arrays included: timed in-process on a 2-core x86-64
# machine (each trial's draw, and with sub-seeds its enlargement sample),
# batching cost 4-20 us more without sub-seeds and 51-98 us more with them
# at 1 to 3 trials, about the same at 4, and saved 89-235 us at 9.
_BATCH_FROM = 4


class _TrialSeeds:
    """The generators of one certificate's trials: trial t draws from
    rng_for(seed, t), and with `sub` it samples an enlargement under the
    sub-seed _sub_seed(seed, t, sub), with the generators rng_for(sub-seed, 0)
    and rng_for(sub-seed, 1).

    From _BATCH_FROM trials on, every key is derived before the first trial
    runs, in two kernel calls at most (the trial draws with the sub-seeds,
    then each sub-seed's two sampling streams), and only the seed words are
    held.  Fewer trials derive each key when it is needed, as rng_for does.
    Both give the same generators, each built when it is first drawn from.
    """

    def __init__(self, seed: int, trials: int, sub: int | None = None):
        self.seed, self.trials, self.sub, self.draws = seed, trials, sub, None
        if trials < _BATCH_FROM:
            return
        words = _trial_seed_words(seed, trials, sub)
        self.draws = words[:trials]
        if sub is not None:
            # _sub_seed is generate_state(1)[0]: the low half of the first word
            self.subs = (words[trials:, 0] & 0xFFFFFFFF).tolist()
            self.sampling = _sampling_words(np.array(self.subs, dtype=np.uint64))

    def rngs(self):
        """The trials' generators, in trial order, each built when it is reached."""
        if self.draws is None:
            return (rng_for(self.seed, t) for t in range(self.trials))
        return map(_rng, self.draws)

    def enlargements(self, space, sets: Family, rhos: np.ndarray, n: int) -> np.ndarray:
        """(trials, n, dim): trial t's n points of the rhos[t]-enlargement of sets.row(t)."""
        if self.draws is None:
            subs = [_sub_seed(self.seed, t, self.sub) for t in range(self.trials)]
            return _sample_enlargement(space, sets, rhos, n, subs,
                                       lambda t, stream: rng_for(subs[t], stream))
        return _sample_enlargement(space, sets, rhos, n, self.subs,
                                   lambda t, stream: _rng(self.sampling[t, stream]))


def _draw_trials(rngs, x_box, r_range, dy: int = 0):
    """Each trial's point x, uniform in the box, its radius r, log-uniform in
    r_range, and a ball centre, uniform in [-5, 5]^dy: a (k, dim) array, a list
    of k floats and a (k, dy) array, one row per generator.

    The numbers are those of rng.uniform(lo, hi), then rng.uniform(log r_range)
    and rng.uniform(-5, 5, dy), bit for bit, with each generator left in the
    same state: one rng.random call per trial, then numpy's lo + (hi - lo) * u
    on every row at once.  Each radius is exponentiated on a Python float, as
    numpy's vector exp may round differently from libm's.
    """
    lo, hi = x_box
    lo = np.asarray(lo, dtype=float)
    span = np.asarray(hi, dtype=float) - lo
    log_lo, log_hi = math.log(r_range[0]), math.log(r_range[1])
    dx = span.size
    u = np.array([rng.random(dx + 1 + dy) for rng in rngs], dtype=float).reshape(-1, dx + 1 + dy)
    k = u.shape[0]
    if k and not (np.isfinite(span).all() and math.isfinite(log_hi - log_lo)):
        raise OverflowError("Range exceeds valid bounds")  # as rng.uniform raises
    xs = lo + span * u[:, :dx].reshape((k, *span.shape))
    rs = [math.exp(v) for v in (log_lo + (log_hi - log_lo) * u[:, dx]).tolist()]
    return xs, rs, -5.0 + 10.0 * u[:, dx + 1:]


def _scale_tol(tol: float, x, extra):
    """tol scaled by 1 + max|x| + extra, along the last axis of x."""
    return tol * (1.0 + np.abs(x).max(axis=-1) + extra)


def _trial_points(m: mp.MapSpec, xs: np.ndarray) -> np.ndarray:
    """The trials' points, checked as eval_map checks the first of them."""
    if len(xs) and xs.shape[1:] != (m.space_x.dim,):
        m.space_x.check_point(xs[0])
    return xs.reshape(-1, m.space_x.dim)


def _witnesses(m: mp.MapSpec, xs: np.ndarray, rs: list) -> np.ndarray | None:
    """Each trial's witness from one stacked witness call; None where the kind has no
    witness, for a stacked call raises for want of one only when every trial's would."""
    try:
        return m.witness(xs, np.array(rs)[:, None])
    except (mp.WitnessUnavailableError, mp.NotSetCoveringError):
        return None


def _check_rate(alpha: float) -> None:
    if not alpha > 0:
        raise ValueError("covering rate alpha must be > 0")


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
    exists, and by budgeted pattern search otherwise.  The trials run as
    rows of stacked calls, and the searches of every target in one lockstep call.
    """
    _check_rate(alpha)
    x_box = x_box or _default_box(m.space_x.dim)
    violations: list[Violation] = []
    seeds = _TrialSeeds(seed, trials, sub=1)
    xs, rs, _ = _draw_trials(seeds.rngs(), x_box, r_range)
    xs = _trial_points(m, xs)
    if trials:
        images = mp.eval_maps(m, xs).built()
        rhos = alpha * np.array(rs)
        targets = seeds.enlargements(m.space_y, images, rhos, n_targets)
        atol = _scale_tol(tol, xs, rhos)
        responder = m.respond(xs[:, None, :], np.array(rs)[:, None], targets)
        if responder is not None:
            us, certified = responder
            for t, j in np.argwhere(certified > atol[:, None]).tolist():
                violations.append(Violation(t, tuple(xs[t]), rs[t], tuple(targets[t, j]),
                                            float(certified[t, j]), "violation",
                                            tuple(us[t, j])))
        else:
            violations = _searched_violations(m, xs, rs, targets, atol, seed, search_budget)
    return Certificate(
        property="covering", trials=trials, violations=violations, seed=seed,
        tolerances={"tol": tol},
        parameters={"alpha": alpha, "r_range": list(r_range), "n_targets": n_targets,
                    "map": map_to_json(m)},
    )


def _searched_violations(m: mp.MapSpec, xs, rs, targets, atol, seed: int, budget: int):
    """The covering records of a map without a responder: a target within atol of its
    trial's witness image is covered; the others are searched for in one call, each
    from a fresh copy of its trial's generator, and a failed search is inconclusive."""
    witnesses = _witnesses(m, xs, rs)
    covered = np.zeros(targets.shape[:2], dtype=bool) if witnesses is None else \
        mp.eval_maps(m, witnesses).built().row_dists(m.space_y, targets).value <= atol[:, None]
    ts, js = (a.tolist() for a in np.nonzero(~covered))
    if not ts:
        return []
    found = ball_searches(mp._farthest(m, targets[ts, js][:, None]), m.space_x, xs[ts],
                          [rs[t] for t in ts], [_pristine_rng(_sub_seed(seed, t, 2)) for t in ts],
                          3, max(30, budget // 4))
    return [Violation(t, tuple(xs[t]), rs[t], tuple(targets[t, j]), val, "inconclusive",
                      tuple(u)) for t, j, (u, val) in zip(ts, js, found) if val > atol[t]]


def _sub_seed(seed: int, trial: int, k: int) -> int:
    return int(np.random.SeedSequence(entropy=seed, spawn_key=(trial, k)).generate_state(1)[0])


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
    genuine counterexamples for that u.  The trials run as rows of stacked
    calls, the witness searches of every trial included.
    """
    _check_rate(alpha)
    x_box = x_box or _default_box(m.space_x.dim)
    violations: list[Violation] = []
    seeds = _TrialSeeds(seed, trials, sub=4)
    xs, rs, _ = _draw_trials(seeds.rngs(), x_box, r_range)
    xs = _trial_points(m, xs)
    if trials:
        images = mp.eval_maps(m, xs).built()
        us = _witnesses(m, xs, rs)
        if us is None:
            us = np.array([rec.u for rec in mp.fallback_witnesses(
                m, xs, rs, alpha, min(n_inclusion, 32),
                [_sub_seed(seed, t, 3) for t in range(trials)], 150, 8, images)])
        image_u = mp.eval_maps(m, us).built()
        rhos = alpha * np.array(rs)
        targets = seeds.enlargements(m.space_y, images, rhos, n_inclusion)
        atol = _scale_tol(tol, xs, rhos)
        d = image_u.row_dists(m.space_y, targets)
        margins = d.value - d.error
        worst = np.argmax(margins, axis=1)
        worst_margin = margins[np.arange(trials), worst]
        for t in np.flatnonzero(worst_margin > np.maximum(atol, 0.0)).tolist():
            violations.append(Violation(t, tuple(xs[t]), rs[t], tuple(targets[t, worst[t]]),
                                        float(worst_margin[t]), "violation", tuple(us[t])))
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
        if v.point is None:  # a supplied test set that is no ball leaves no record to replay
            return False
        ball = np.array(v.point)  # the test ball's center, then its radius
        lhs, rhs = _inverse_errorbound_rows(m, cert.parameters["alpha"],
                                            Rounds(ball[None, :-1], ball[-1:]), x[None])
        return bool(lhs[0] > rhs[0] + atol)
    raise ValueError(f"no replay rule for property {cert.property!r}")


# ---------------------------------------------------------------------------
# inverse-map propositions


def inverse_distance(m: mp.MapSpec, s: SetRep, x) -> float:
    """Exact distance from x to {u : s is contained in the image of u}.

    Closed forms exist for the dilation family (threshold on the radius
    function) and, for ball test sets, for the two covering-only
    witnesses.  math.inf encodes an empty inclusion-inverse.
    """
    return float(m.inverse_distances(Family.of([s]), m.space_x.check_point(x)[None])[0])


def _inverse_errorbound_rows(m: mp.MapSpec, alpha: float, tests: Family, xs: np.ndarray):
    """The two sides of the error bound at each row: dist(xs[i], inverse of test i),
    and excess(test i, image(xs[i])) / alpha, inf where the excess is."""
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
    Every trial is drawn first, from its own generator, and then all are
    evaluated in one pass.
    """
    _check_rate(alpha)
    if test_sets is not None and not test_sets:
        raise ValueError("test_sets must hold at least one set")
    x_box = x_box or _default_box(m.space_x.dim)
    dy = m.space_y.dim if test_sets is None else 0
    xs, rs, centers = _draw_trials(_TrialSeeds(seed, trials).rngs(), x_box, (1e-2, 1e1), dy)
    xs = xs.reshape(trials, m.space_x.dim)
    if test_sets is None:
        tests = Rounds(centers, np.array(rs))
    else:
        tests = Family.of([test_sets[t % len(test_sets)] for t in range(trials)])
    lhs, rhs = _inverse_errorbound_rows(m, alpha, tests, xs)
    finite = ~np.isinf(rhs)
    atol = _scale_tol(tol, xs, np.where(finite, rhs, 0.0))
    violations: list[Violation] = []
    for t in np.flatnonzero(finite & (lhs > rhs + atol)).tolist():
        s = tests.row(t)
        record = tuple(np.append(s.center, s.radius)) if isinstance(s, Ball) else None
        violations.append(Violation(t, tuple(xs[t]), rs[t], record, float(lhs[t] - rhs[t]),
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
    _check_rate(alpha)
    center = m.shell_center()
    dy = m.space_y.dim

    def balls(rng):  # a trial's two centers, then its two radii
        return np.append(rng.uniform(-5.0, 5.0, size=2 * dy), rng.uniform(0.1, 4.0, size=2))

    draws = np.array([balls(rng) for rng in _TrialSeeds(seed, trials).rngs()]).reshape(
        trials, 2 * dy + 2)
    c1, c2, r1, r2 = draws[:, :dy], draws[:, dy:-2], draws[:, -2], draws[:, -1]
    a_sets, b_sets = Rounds(c1, r1), Rounds(c2, r2)
    # the inverse images are shells about one center
    at = np.broadcast_to(center, (trials, center.shape[0]))
    h_inv = np.abs(m.inverse_distances(a_sets, at) - m.inverse_distances(b_sets, at))
    # the hausdorff distance of two balls: the larger of their closed-form excesses
    h_sets = np.maximum(a_sets.excesses(m.space_y, b_sets), b_sets.excesses(m.space_y, a_sets))
    violations: list[Violation] = []
    bound = h_sets / alpha
    for t in np.flatnonzero(h_inv > bound + _scale_tol(tol, c1, h_sets)).tolist():
        violations.append(Violation(t, tuple(np.append(c1[t], r1[t])), float(r2[t]),
                                    tuple(np.append(c2[t], r2[t])),
                                    float(h_inv[t] - bound[t]), "violation"))
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

    base = mp.image_excesses(phi, psi, phi.space_x.check_point(x0)[None]).item(0)
    violations: list[Violation] = []
    for s_idx, rng in enumerate(_TrialSeeds(seed, n_sequences).rngs()):
        direction = phi.space_x.unit(rng.standard_normal(phi.space_x.dim))
        delta0 = float(rng.uniform(0.5, 2.0))
        xs = [x0 + direction * delta0 * 0.5**k for k in range(n_terms)]
        values = mp.image_excesses(phi, psi, np.array(xs)).tolist()
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

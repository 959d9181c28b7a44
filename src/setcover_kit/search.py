"""Deterministic coordinate pattern search.

Polls +/- each coordinate at the current step, takes the best improving
poll (lexicographically smallest point on ties), and halves the step
when no poll improves.  Fully deterministic for a fixed starting point,
so traces replay bit-identically.

`pattern_searches` runs one search per start in lockstep, each with its
own step and step floor: each poll round makes one call of the batched
objective over the 2n polls of every search still running, and each
search applies the rule above to its own polls alone, so its result and
trace are those of a run on its own.  `ball_searches`, the witness
searches' multi-start search, runs every search of every ball in one call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice

import numpy as np

__all__ = ["PatternStep", "PatternTrace", "pattern_searches", "ball_searches"]


@dataclass(frozen=True)
class PatternStep:
    x: tuple
    value: float
    step: float
    evals: int


@dataclass
class PatternTrace:
    steps: list[PatternStep] = field(default_factory=list)
    n_evals: int = 0
    budget_exhausted: bool = False
    initial_step: float = 1.0
    step_floor: float = 1e-7

    def to_jsonable(self, max_steps: int = 50) -> dict:
        steps = self.steps
        if len(steps) > max_steps:
            steps = steps[: max_steps - 1] + [steps[-1]]
        return {
            "n_evals": self.n_evals,
            "budget_exhausted": self.budget_exhausted,
            "initial_step": self.initial_step,
            "step_floor": self.step_floor,
            "steps": [{"x": list(s.x), "value": s.value, "step": s.step, "evals": s.evals}
                      for s in steps],
        }


def pattern_searches(f, starts, initial_step=1.0, step_floor=1e-7,
                     max_evals: int = 100_000, project=None) -> list:
    """Minimize f from each start in lockstep; returns one (x, f(x), PatternTrace) per start.

    f(points, owners) maps a list of k points to k values, points[i] being
    one of search owners[i]; project(x, i) pulls a point of search i back
    onto its domain.  initial_step and step_floor are one number or one per
    search.  A search stops when its step falls below its floor or when
    another poll round would take it past max_evals evaluations.
    """
    xs = [np.asarray(x0, dtype=float).copy() for x0 in starts]
    if project is not None:
        xs = [np.asarray(project(x, i), dtype=float) for i, x in enumerate(xs)]
    steps = np.broadcast_to(np.asarray(initial_step, dtype=float), (len(xs),)).tolist()
    floors = np.broadcast_to(np.asarray(step_floor, dtype=float), (len(xs),)).tolist()
    fxs = [float(v) for v in f(xs, list(range(len(xs))))]
    traces = [PatternTrace([PatternStep(tuple(x), fx, step, 1)], n_evals=1,
                           initial_step=step, step_floor=floor)
              for x, fx, step, floor in zip(xs, fxs, steps, floors)]
    while True:
        polling, polls = [], []
        for i, x in enumerate(xs):  # a search that stopped stays stopped: x, step and budget stay
            if steps[i] < floors[i]:
                continue
            if traces[i].n_evals + 2 * x.shape[0] > max_evals:
                traces[i].budget_exhausted = True
                continue
            polling.append(i)
            step = steps[i]
            for j in range(x.shape[0]):
                for sign in (1.0, -1.0):
                    cand = x.copy()
                    cand[j] += sign * step
                    if project is not None:
                        cand = np.asarray(project(cand, i), dtype=float)
                    polls.append(cand)
        if not polls:
            return list(zip(xs, fxs, traces))
        owners = [i for i in polling for _ in range(2 * xs[i].shape[0])]
        results = zip(polls, f(polls, owners))
        for i in polling:
            trace, width = traces[i], 2 * xs[i].shape[0]
            best_cand, best_val = None, fxs[i]
            for cand, val in islice(results, width):  # this search's own polls, in order
                val = float(val)
                better = val < best_val - 0.0
                tie = val == best_val and best_cand is not None and tuple(cand) < tuple(best_cand)
                if better or tie:
                    best_cand, best_val = cand, val
            trace.n_evals += width
            if best_cand is None:
                steps[i] /= 2.0
            else:
                xs[i], fxs[i] = best_cand, best_val
                trace.steps.append(PatternStep(tuple(best_cand), best_val, steps[i],
                                               trace.n_evals))


def ball_searches(f, space, xs, rs, rngs, n_draws: int, max_evals: int) -> list:
    """The best (u, f(u)) of the pattern searches kept in each ball, the rs[b]-ball at
    xs[b], every search of every ball in one lockstep call.

    Ball b's searches start at xs[b] and at n_draws points x + r * t * unit(g),
    g ~ N(0, I) then t ~ U(0, 1) from rngs[b]; polls are pulled back onto the ball
    radially, and each search steps from r/2 down to 1e-9 * max(1, r) in at most
    max_evals evaluations of f(points, balls), each point's value in its ball.
    Of equal values the ball's first search wins."""
    per = n_draws + 1
    centres = np.repeat(np.asarray(xs, dtype=float), per, axis=0)
    radii = np.repeat(np.asarray(rs, dtype=float), per).tolist()
    starts = centres.copy()
    for i, rng in zip(range(0, len(starts), per), rngs):
        for k in range(i + 1, i + per):
            g = rng.standard_normal(space.dim)
            starts[k] += radii[k] * float(rng.uniform()) * space.unit(g)

    def clip(u, i):
        x, r = centres[i], radii[i]
        d = space.dist(u, x)
        return u if d <= r else x + (r / d) * (u - x)

    results = pattern_searches(lambda us, owners: f(us, [i // per for i in owners]), starts,
                               [r / 2 for r in radii], [1e-9 * max(1.0, r) for r in radii],
                               max_evals, clip)
    return [min(results[i:i + per], key=lambda res: res[1])[:2]
            for i in range(0, len(results), per)]

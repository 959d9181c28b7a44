"""Deterministic coordinate pattern search.

Polls +/- each coordinate at the current step, takes the best improving
poll (lexicographically smallest point on ties), and halves the step
when no poll improves.  Fully deterministic for a fixed starting point,
so traces replay bit-identically.

`pattern_searches` runs one search per start in lockstep, each with its
own step and step floor: each poll round stacks the 2n polls of every
search still running into one array, projects it in one call and scores
it in one call of the batched objective, and each search applies the
rule above to its own polls alone, so its result and trace are those of
a run on its own.  `ball_searches`, the witness searches' multi-start
search, runs every search of every ball in one call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

    The starts share one dimension n.  f(points, owners) maps a (k, n) array
    to its k values, row i being a point of search owners[i], an integer
    array; project(points, owners) returns the (k, n) array of those points
    each pulled back onto its search's domain.  Each is called once on the
    starts and once per poll round, on the polls of every search still
    running.  initial_step and step_floor are one number or one per search.
    A search stops when its step falls below its floor or when another poll
    round would take it past max_evals evaluations.
    """
    xs = np.array(starts, dtype=float)
    m, n = xs.shape
    width, owners = 2 * n, np.arange(m)
    if project is not None:
        xs = np.asarray(project(xs, owners), dtype=float)
    steps = np.broadcast_to(np.asarray(initial_step, dtype=float), (m,)).tolist()
    floors = np.broadcast_to(np.asarray(step_floor, dtype=float), (m,)).tolist()
    fxs = np.asarray(f(xs, owners), dtype=float).tolist()
    traces = [PatternTrace([PatternStep(tuple(x), fx, step, 1)], n_evals=1,
                           initial_step=step, step_floor=floor)
              for x, fx, step, floor in zip(xs, fxs, steps, floors)]
    xs, running = list(xs), None
    while True:
        polling = []
        for i in range(m):  # a search that stopped stays stopped: x, step and budget stay
            if not steps[i] >= floors[i]:  # a NaN step too, as in a run on its own
                continue
            if traces[i].n_evals + width > max_evals:
                traces[i].budget_exhausted = True
                continue
            polling.append(i)
        if not polling:
            return list(zip(xs, fxs, traces))
        if polling != running:
            running, owners = polling, np.array(polling).repeat(width)
        polls = []
        for i in running:
            x, step = xs[i], steps[i]
            for j in range(n):
                for sign in (1.0, -1.0):
                    cand = x.copy()
                    cand[j] += sign * step
                    polls.append(cand)
        polls = np.array(polls)
        if project is not None:
            polls = np.asarray(project(polls, owners), dtype=float)
        vals = np.asarray(f(polls, owners), dtype=float).tolist()
        for t, i in enumerate(running):
            trace = traces[i]
            best, best_val = -1, fxs[i]
            for k in range(t * width, (t + 1) * width):  # this search's own polls, in order
                val = vals[k]
                if val < best_val or (val == best_val and best >= 0
                                      and tuple(polls[k]) < tuple(polls[best])):
                    best, best_val = k, val
            trace.n_evals += width
            if best < 0:
                steps[i] /= 2.0
            else:
                xs[i], fxs[i] = polls[best], best_val
                trace.steps.append(PatternStep(tuple(polls[best]), best_val, steps[i],
                                               trace.n_evals))


def ball_searches(f, space, xs, rs, rngs, n_draws: int, max_evals: int) -> list:
    """The best (u, f(u)) of the pattern searches kept in each ball, the rs[b]-ball at
    xs[b], every search of every ball in one lockstep call.

    Ball b's searches start at xs[b] and at n_draws points x + r * t * unit(g),
    g ~ N(0, I) then t ~ U(0, 1) from rngs[b]; polls are pulled back onto the ball
    radially, those of every search of every ball in one space.norms call per round,
    and each search steps from r/2 down to 1e-9 * max(1, r) in at most max_evals
    evaluations of f(points, balls), each row of points valued in its ball.
    Of equal values the ball's first search wins."""
    per = n_draws + 1
    centres = np.repeat(np.asarray(xs, dtype=float), per, axis=0)
    radii = np.repeat(np.asarray(rs, dtype=float), per)
    starts = centres.copy()
    for i, rng in zip(range(0, len(starts), per), rngs):
        for k in range(i + 1, i + per):
            g = rng.standard_normal(space.dim)
            starts[k] += radii[k] * float(rng.uniform()) * space.unit(g)

    def clip(us, owners):
        x, r = centres[owners], radii[owners]
        d = space.norms(us - x)
        out = ~(d <= r)  # a NaN distance too
        if not out.any():
            return us
        us = us.copy()
        us[out] = x[out] + (r[out] / d[out])[:, None] * (us[out] - x[out])
        return us

    results = pattern_searches(lambda us, owners: f(us, owners // per), starts, radii / 2,
                               1e-9 * np.fmax(radii, 1.0), max_evals, clip)
    return [min(results[i:i + per], key=lambda res: res[1])[:2]
            for i in range(0, len(results), per)]

"""Deterministic coordinate pattern search.

Polls +/- each coordinate at the current step, takes the best improving
poll (lexicographically smallest point on ties), and halves the step
when no poll improves.  Fully deterministic for a fixed starting point,
so traces replay bit-identically.

The objective is batched: it maps a list of k points to k values.
`pattern_searches` runs one search per start in lockstep, so each poll
round makes one objective call over the 2n polls of every search still
running; each search applies the rule above to its own polls alone, so
its result and trace are those of a run on its own.  `pattern_search`
is the one-start call of a scalar objective, and `ball_search` the
multi-start search over a ball that the witness searches share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import islice

import numpy as np

__all__ = ["PatternStep", "PatternTrace", "pattern_search", "pattern_searches", "ball_search"]


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


def pattern_search(f, x0, initial_step: float = 1.0, step_floor: float = 1e-7,
                   max_evals: int = 100_000, project=None):
    """Minimize a scalar f from x0; returns (x, f(x), PatternTrace)."""
    (result,) = pattern_searches(partial(map, f), [x0], initial_step, step_floor, max_evals,
                                 project)
    return result


def pattern_searches(f, starts, initial_step: float = 1.0, step_floor: float = 1e-7,
                     max_evals: int = 100_000, project=None) -> list:
    """Minimize f from each start in lockstep; returns one (x, f(x), PatternTrace) per start.

    f maps a list of k points (the arrays a one-start search would pass
    it one at a time) to k values.  A search stops when its step falls
    below step_floor or when another poll round would take it past
    max_evals evaluations.
    """
    xs = [np.asarray(x0, dtype=float).copy() for x0 in starts]
    if project is not None:
        xs = [np.asarray(project(x), dtype=float) for x in xs]
    fxs = [float(v) for v in f(xs)]
    traces = [PatternTrace([PatternStep(tuple(x), fx, initial_step, 1)], n_evals=1,
                           initial_step=initial_step, step_floor=step_floor)
              for x, fx in zip(xs, fxs)]
    steps = [initial_step] * len(xs)
    while True:
        polling, polls = [], []
        for i, x in enumerate(xs):  # a search that stopped stays stopped: x, step and budget stay
            if steps[i] < step_floor:
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
                        cand = np.asarray(project(cand), dtype=float)
                    polls.append(cand)
        if not polls:
            return list(zip(xs, fxs, traces))
        results = zip(polls, f(polls))
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


def ball_search(f, space, x, r: float, rng: np.random.Generator, n_draws: int,
                max_evals: int) -> tuple[np.ndarray, float]:
    """The best (u, f(u)) of lockstep pattern searches kept in the r-ball at x.

    The searches start at x and at n_draws points x + r * t * unit(g), g ~ N(0, I)
    then t ~ U(0, 1) from rng; polls are pulled back onto the ball radially, and
    each search steps from r/2 down to 1e-9 * max(1, r) in at most max_evals
    evaluations of the batched f.  Of equal values the first search's wins.
    """
    starts = [np.asarray(x, dtype=float)]
    for _ in range(n_draws):
        g = rng.standard_normal(space.dim)
        starts.append(x + r * float(rng.uniform()) * space.unit(g))

    def clip(u):
        d = space.dist(u, x)
        return u if d <= r else x + (r / d) * (u - x)

    results = pattern_searches(f, starts, initial_step=r / 2, step_floor=1e-9 * max(1.0, r),
                               max_evals=max_evals, project=clip)
    u, v, _ = min(results, key=lambda res: res[1])
    return u, v

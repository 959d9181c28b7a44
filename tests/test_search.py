"""Lockstep pattern searches against the one-start scalar search they replaced.

`ref_pattern_search` is the scalar coordinate search as it was before
the objective was batched, kept verbatim as the reference: it polls one
point at a time and calls f once per poll.  Every search that
`pattern_searches` runs in lockstep must return the x, f(x) and trace
that this reference gives from the same start, bit for bit.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from setcover_kit.search import PatternStep, PatternTrace, pattern_search, pattern_searches


def ref_pattern_search(f, x0, initial_step: float = 1.0, step_floor: float = 1e-7,
                       max_evals: int = 100_000, project=None):
    """Minimize f from x0; returns (x, f(x), PatternTrace)."""
    x = np.asarray(x0, dtype=float).copy()
    if project is not None:
        x = np.asarray(project(x), dtype=float)
    trace = PatternTrace(initial_step=initial_step, step_floor=step_floor)
    fx = float(f(x))
    trace.n_evals = 1
    step = initial_step
    n = x.shape[0]
    trace.steps.append(PatternStep(tuple(x), fx, step, trace.n_evals))
    while step >= step_floor:
        if trace.n_evals + 2 * n > max_evals:
            trace.budget_exhausted = True
            break
        best_cand, best_val = None, fx
        for i in range(n):
            for sign in (1.0, -1.0):
                cand = x.copy()
                cand[i] += sign * step
                if project is not None:
                    cand = np.asarray(project(cand), dtype=float)
                val = float(f(cand))
                trace.n_evals += 1
                better = val < best_val - 0.0
                tie = val == best_val and best_cand is not None and tuple(cand) < tuple(best_cand)
                if better or tie:
                    best_cand, best_val = cand, val
        if best_cand is None:
            step /= 2.0
        else:
            x, fx = best_cand, best_val
            trace.steps.append(PatternStep(tuple(x), fx, step, trace.n_evals))
    return x, fx, trace


def hexed(result):
    """(x, f(x), trace) with every float by its hex form."""
    x, fx, trace = result
    steps = [(tuple(float(v).hex() for v in s.x), float(s.value).hex(), float(s.step).hex(),
              s.evals) for s in trace.steps]
    return (x.dtype, x.shape, tuple(float(v).hex() for v in x), float(fx).hex(), steps,
            trace.n_evals, trace.budget_exhausted, float(trace.initial_step).hex(),
            float(trace.step_floor).hex())


def make_objective(rng, n, kind):
    """A scalar objective of one of the kinds the searches must agree on."""
    centre = rng.uniform(-2.0, 2.0, n)
    weights = rng.uniform(0.5, 3.0, n)
    if kind == "smooth":
        return lambda x: float(weights @ (x - centre) ** 2)
    if kind == "integer":  # plateaus: many polls tie
        return lambda x: float(np.round(weights @ np.abs(x - centre)))
    if kind == "inf":  # inf on a half-space, as an unbuildable image gives
        def f(x):
            return math.inf if x[0] > centre[0] + 0.3 else float(weights @ (x - centre) ** 2)
        return f
    raise ValueError(kind)


def make_projection(rng, n, kind):
    if kind is None:
        return None
    centre = rng.uniform(-1.0, 1.0, n)
    radius = float(rng.uniform(0.2, 2.0))
    if kind == "ball":
        def clip(u):
            d = float(np.linalg.norm(u - centre))
            return u if d <= radius else centre + (radius / d) * (u - centre)
        return clip
    return lambda u: np.clip(u, centre - radius, centre + radius)


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 5), n=st.integers(1, 4),
       kind=st.sampled_from(("smooth", "integer", "inf")),
       projection=st.sampled_from((None, "ball", "box")),
       max_evals=st.one_of(st.integers(1, 60), st.just(100_000)),
       initial_step=st.sampled_from((1.0, 0.5, 3.0)), step_floor=st.sampled_from((1e-7, 1e-2)))
def test_each_lockstep_search_is_its_solo_run(seed, k, n, kind, projection, max_evals,
                                              initial_step, step_floor):
    rng = np.random.default_rng(seed)
    f = make_objective(rng, n, kind)
    project = make_projection(rng, n, projection)
    starts = [rng.uniform(-3.0, 3.0, n) for _ in range(k)]
    if rng.uniform() < 0.3:
        starts[-1] = starts[0].copy()  # two searches on one start
    calls = []

    def batched(points):
        assert all(p.shape == (n,) for p in points)
        calls.append(len(points))
        return np.array([f(p) for p in points])

    got = pattern_searches(batched, starts, initial_step, step_floor, max_evals, project)
    want = [ref_pattern_search(f, s, initial_step, step_floor, max_evals, project)
            for s in starts]
    assert [hexed(r) for r in got] == [hexed(r) for r in want]
    # one call for the starts, then one per poll round of every search still running
    rounds = [(trace.n_evals - 1) // (2 * n) for _, _, trace in want]
    assert calls == [k] + [2 * n * sum(r > i for r in rounds) for i in range(max(rounds))]
    one = pattern_search(f, starts[0], initial_step, step_floor, max_evals, project)
    assert hexed(one) == hexed(want[0])


"""Lockstep pattern searches against the one-start scalar search they replaced.

`ref_pattern_search` is the scalar coordinate search as it was before
the objective was batched, kept verbatim as the reference: it polls one
point at a time and calls f once per poll.  Every search that
`pattern_searches` runs in lockstep must return the x, f(x) and trace
that this reference gives from the same start, bit for bit.
`ref_ball_search` is the one-ball multi-start search on that reference,
as it was before every search of every ball ran in one lockstep call;
`ball_searches` must give each ball's (u, f(u)) that it gives.  The
lockstep calls take one-point objectives and projections through
adapters to the stacked f(points, owners) and project(points, owners).
The draws take in what can tell array arithmetic from the scalar rule:
-0.0 start coordinates that no poll moves, values NaN on a half-space,
-0.0 and 0.0 values that tie, a NaN step, and ball polls at exactly
distance r and at NaN distance.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from setcover_kit.geometry import NormedSpace
from setcover_kit.search import PatternStep, PatternTrace, ball_searches, pattern_searches


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


def ref_ball_search(f, space, x, r, rng, n_draws, max_evals):
    """The best (u, f(u)) of scalar pattern searches kept in the r-ball at x, from x
    and from n_draws points drawn from rng; of equal values the first search's wins."""
    starts = [np.asarray(x, dtype=float)]
    for _ in range(n_draws):
        g = rng.standard_normal(space.dim)
        starts.append(x + r * float(rng.uniform()) * space.unit(g))

    def clip(u):
        d = space.dist(u, x)
        return u if d <= r else x + (r / d) * (u - x)

    results = [ref_pattern_search(f, s, r / 2, 1e-9 * max(1.0, r), max_evals, clip)
               for s in starts]
    u, v, _ = min(results, key=lambda res: res[1])
    return u, v


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
    if kind in ("inf", "nan"):  # inf (an unbuildable image) or NaN on a half-space
        off = math.inf if kind == "inf" else math.nan

        def f(x):
            return off if x[0] > centre[0] + 0.3 else float(weights @ (x - centre) ** 2)
        return f
    if kind == "signed_zero":  # -0.0 and 0.0 on a plateau: equal values of either sign tie
        def f(x):
            excess = float(weights @ np.abs(x - centre)) - 1.0
            return excess if excess > 0.0 else math.copysign(0.0, x[0] - centre[0])
        return f
    raise ValueError(kind)


KINDS = ("smooth", "integer", "inf", "nan", "signed_zero")


def stacked(project):
    """The one-point projection project(u) as the lockstep searches' project(points, owners)."""
    return None if project is None else lambda us, owners: np.array([project(u) for u in us])


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
       kind=st.sampled_from(KINDS), projection=st.sampled_from((None, "ball", "box")),
       max_evals=st.one_of(st.integers(1, 60), st.just(100_000)),
       initial_step=st.sampled_from((1.0, 0.5, 3.0, math.nan)),
       step_floor=st.sampled_from((1e-7, 1e-2)), signed_zeros=st.booleans())
def test_each_lockstep_search_is_its_solo_run(seed, k, n, kind, projection, max_evals,
                                              initial_step, step_floor, signed_zeros):
    rng = np.random.default_rng(seed)
    f = make_objective(rng, n, kind)
    project = make_projection(rng, n, projection)
    starts = [rng.uniform(-3.0, 3.0, n) for _ in range(k)]
    if signed_zeros:  # a coordinate no poll moves must keep its -0.0
        for s in starts:
            s[rng.uniform(size=n) < 0.5] = -0.0
    if rng.uniform() < 0.3:
        starts[-1] = starts[0].copy()  # two searches on one start
    calls = []

    def batched(points, owners):
        assert points.dtype == float and points.shape == (len(owners), n)
        assert owners.dtype.kind == "i"
        calls.append(len(points))
        return np.array([f(p) for p in points])

    got = pattern_searches(batched, starts, initial_step, step_floor, max_evals,
                           stacked(project))
    want = [ref_pattern_search(f, s, initial_step, step_floor, max_evals, project)
            for s in starts]
    assert [hexed(r) for r in got] == [hexed(r) for r in want]
    # one call for the starts, then one per poll round of every search still running
    rounds = [(trace.n_evals - 1) // (2 * n) for _, _, trace in want]
    assert calls == [k] + [2 * n * sum(r > i for r in rounds) for i in range(max(rounds))]
    # one call in which every search has its own step, step floor and projection
    steps = rng.choice([1.0, 0.5, 3.0], size=k)
    floors = rng.choice([1e-7, 1e-2], size=k)
    projects = [make_projection(rng, n, rng.choice([None, "ball", "box"])) for _ in range(k)]

    seen = []

    def owned(points, owners):
        seen.extend(owners.tolist())
        return np.array([f(p) for p in points])

    def owned_project(us, owners):
        return np.array([u if projects[i] is None else projects[i](u)
                         for u, i in zip(us, owners)])

    mixed = pattern_searches(owned, starts, steps, floors, max_evals, owned_project)
    solo = [ref_pattern_search(f, s, steps[i], floors[i], max_evals, projects[i])
            for i, s in enumerate(starts)]
    assert [hexed(r) for r in mixed] == [hexed(r) for r in solo]
    assert [seen.count(i) for i in range(k)] == [trace.n_evals for _, _, trace in solo]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 4), n=st.integers(1, 3),
       norm=st.sampled_from((("euclidean", None), ("max", None), ("p", 3.0))),
       kind=st.sampled_from(KINDS), n_draws=st.integers(0, 4),
       max_evals=st.sampled_from((1, 7, 30, 150)),
       balls_drawn=st.sampled_from(("uniform", "dyadic", "nan")))
def test_each_ball_search_is_its_solo_search(seed, k, n, norm, kind, n_draws, max_evals,
                                             balls_drawn):
    rng = np.random.default_rng(seed)
    space = NormedSpace(n, *norm)
    fs = [make_objective(rng, n, kind) for _ in range(k)]  # each ball its own objective
    if balls_drawn == "dyadic":  # two steps of r/2 along an axis from an integer centre
        # reach distance exactly r, where the ball keeps a poll as it is
        xs = rng.integers(-2, 3, (k, n)).astype(float)
        rs = (2.0 ** rng.integers(-2, 2, k)).tolist()
    else:
        xs = rng.uniform(-3.0, 3.0, (k, n))
        rs = np.exp(rng.uniform(-7.0, 3.0, k)).tolist()
    if balls_drawn == "nan":  # a NaN coordinate: every poll of the ball at NaN distance
        xs[rng.integers(k), rng.integers(n)] = math.nan
    balls = []

    def batched(points, owners):
        assert points.shape == (len(owners), n) and owners.dtype.kind == "i"
        balls.extend(owners.tolist())
        return np.array([fs[b](p) for p, b in zip(points, owners)])

    rngs = [np.random.default_rng([seed, b]) for b in range(k)]
    got = ball_searches(batched, space, xs, rs, rngs, n_draws, max_evals)
    want = [ref_ball_search(fs[b], space, xs[b], rs[b], np.random.default_rng([seed, b]),
                            n_draws, max_evals) for b in range(k)]

    def hexed_best(u, v):
        return u.dtype, tuple(float(a).hex() for a in u), float(v).hex()

    assert [hexed_best(*res) for res in got] == [hexed_best(*res) for res in want]
    assert sorted(set(balls)) == list(range(k))

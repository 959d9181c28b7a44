"""Per-layer spans recorded from outside the kit.

`install(tracer)` replaces every public function of the kit's modules
with a wrapper that opens a span around the call.  Several modules bind
the same function by name (``from .geometry import dist_point`` in
`mappings`, `certify` and `solver`), so each wrapper replaces every
binding of the function in every ``setcover_kit`` module; a binding left
behind would let calls go uncounted.  Nothing inside ``src/`` changes.

A span's self time is its duration minus the time its child spans
cover.  Spans are aggregated in memory by name and written out when the
run ends; one record per call would not
fit in memory on the closed-form workload.
"""

from __future__ import annotations

import functools
import sys
import weakref
from time import perf_counter

MODULES = ("geometry", "mappings", "certify", "solver", "penalty", "search",
           "instances", "_lp")

# spans whose name is not the plain "<module>.<function>"
RENAMED = {
    "_lp.linprog": "lp.linprog",
    "instances.decode_instance": "instances.decode",
    "instances.run_instance": "instances.run",
}

SET_KINDS = {
    "Ball": "ball", "Sphere": "sphere", "EnlargedSet": "enlarged", "Orthant": "orthant",
    "SublevelRegion": "sublevel_region", "Box": "box", "VPolytope": "v_polytope",
    "PointCloud": "point_cloud",
}

# geometry calls that derive LP-backed data (box, vertices, samples) from a set
DERIVING = ("excess", "hausdorff", "boundedness", "sample", "sample_enlargement",
            "outer_radius")


class Frame:
    __slots__ = ("child_s", "children")

    def __init__(self):
        self.child_s = 0.0
        self.children: set[str] = set()


class Tracer:
    """Span stack plus per-name aggregates; recording can be paused."""

    def __init__(self):
        self.enabled = True
        self.stack: list[Frame] = []
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, float] = {}
        self.geometry_depth = 0
        self.queries: dict[str, list[int]] = {}  # kind -> final query count per object
        self._live: dict[int, list] = {}  # id -> [weakref, kind, count]

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def record(self, name: str, total: float, self_s: float) -> None:
        agg = self.spans.get(name)
        if agg is None:
            agg = self.spans[name] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += total
        agg[2] += self_s
        if self.stack:
            self.stack[-1].child_s += total
            self.stack[-1].children.add(name)

    def query(self, obj, kind: str) -> None:
        """Count one outside query of a polyhedral object (tallied when it dies)."""
        key = id(obj)
        entry = self._live.get(key)
        if entry is None or entry[0]() is not obj:
            tally = self.queries.setdefault(kind, [])
            live = self._live

            def _dead(_ref, key=key):
                gone = live.pop(key, None)
                if gone is not None:
                    tally.append(gone[2])

            entry = self._live[key] = [weakref.ref(obj, _dead), kind, 0]
        entry[2] += 1

    def flush_queries(self) -> None:
        for _ref, kind, n in self._live.values():
            self.queries.setdefault(kind, []).append(n)
        self._live.clear()

    def query_stats(self) -> dict:
        out = {}
        for kind, tally in sorted(self.queries.items()):
            multi = [n for n in tally if n > 1]
            out[kind] = {"objects": len(tally), "queried_more_than_once": len(multi),
                         "share": len(multi) / len(tally), "queries": sum(tally),
                         "query_share_on_reused": sum(multi) / sum(tally)}
        return out


def _set_kind(s) -> str:
    return SET_KINDS.get(type(s).__name__, type(s).__name__)


def _excess_class(args, kwargs, result, frame) -> str:
    a, b = args[1], args[2]
    ka, kb = type(a).__name__, type(b).__name__
    if kb == "EnlargedSet" or (ka == "EnlargedSet" and kb != "Ball"):
        return "delegate"  # value comes from a nested excess call
    if "geometry.sample" in frame.children:
        return "sampled"
    if ka in ("PointCloud", "VPolytope", "Box") or \
            (ka == "SublevelRegion" and result is not None and not result.is_infinite):
        return "vertex_max"
    return "closed_form"


def _namer(span: str):
    """Span name for a call; some layers split by argument kind."""
    if span == "geometry.dist_point":
        return lambda args, kwargs, result, frame: f"{span}.{_set_kind(args[2])}"
    if span == "geometry.excess":
        return lambda args, kwargs, result, frame: \
            f"{span}.{_excess_class(args, kwargs, result, frame)}"
    return None


def _after(tracer: Tracer, span: str):
    """Counts taken from a call's arguments or result at the layer boundary."""
    if span.startswith("geometry.excess"):
        def hook(args, kwargs, result, name):
            if result is not None and not name.endswith("delegate") and result.approximate:
                tracer.count("geometry.excess.approx_results")
        return hook
    if span == "search.pattern_search":
        def hook(args, kwargs, result, name):
            if result is not None:
                tracer.count("search.pattern_search.evals", result[2].n_evals)
        return hook
    if span.startswith("certify.check_"):
        def hook(args, kwargs, result, name):
            if result is not None:
                tracer.count("certify.trials", result.trials)
        return hook
    if span == "solver.solve_inclusion":
        def hook(args, kwargs, result, name):
            if result is not None:
                tracer.count("solver.steps", result.n_iterations)
        return hook
    return None


def _polyhedral_args(tracer: Tracer, span: str):
    """Query tally for regions (outermost deriving geometry calls) and processes."""
    if span.startswith("geometry.") and span.split(".")[1] in DERIVING:
        def note(args):
            if tracer.geometry_depth == 0:
                for arg in args:
                    if type(arg).__name__ == "SublevelRegion":
                        tracer.query(arg, "sublevel_region")
        return note
    if span == "certify.interior_radius":
        def note(args):
            tracer.query(args[0], "polyhedral_process")
        return note
    return None


def wrap(tracer: Tracer, span: str, fn):
    namer = _namer(span)
    after = _after(tracer, span)
    note = _polyhedral_args(tracer, span)
    is_geometry = span.startswith("geometry.")

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        if note is not None:
            note(args)
        frame = Frame()
        tracer.stack.append(frame)
        if is_geometry:
            tracer.geometry_depth += 1
        result = None
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            total = perf_counter() - t0
            if is_geometry:
                tracer.geometry_depth -= 1
            tracer.stack.pop()
            name = namer(args, kwargs, result, frame) if namer else span
            tracer.record(name, total, total - frame.child_s)
            if after is not None:
                after(args, kwargs, result, name)

    wrapper.__wrapped_span__ = span
    return wrapper


def install(tracer: Tracer) -> int:
    """Wrap the kit's public functions in every module that binds them; returns the count."""
    kit = {name: mod for name, mod in sys.modules.items()
           if name == "setcover_kit" or name.startswith("setcover_kit.")}
    originals = {}
    for short in MODULES:
        mod = kit[f"setcover_kit.{short}"]
        names = list(getattr(mod, "__all__", ()))
        if short == "_lp":
            names = ["linprog"] + [n for n, v in vars(mod).items()
                                   if callable(v) and getattr(v, "__module__", "") == mod.__name__
                                   and not isinstance(v, type) and not n.startswith("_")]
        for name in names:
            fn = getattr(mod, name, None)
            if fn is None or isinstance(fn, type) or not callable(fn):
                continue
            if hasattr(fn, "__wrapped_span__") or id(fn) in originals:
                continue
            span = RENAMED.get(f"{short}.{name}", f"{'lp' if short == '_lp' else short}.{name}")
            originals[id(fn)] = (fn, wrap(tracer, span, fn))
    replaced = 0
    for mod in kit.values():
        for attr, value in list(vars(mod).items()):
            hit = originals.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
                replaced += 1
    return replaced


def per_layer(tracer: Tracer, rounds: int) -> dict:
    """The per-layer metrics, each per pass over the job list."""
    spans, counts = tracer.spans, tracer.counts

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return spans.get(name, [0, 0.0, 0.0])[1]

    def self_s(name):
        return spans.get(name, [0, 0.0, 0.0])[2]

    def prefixed(prefix, exclude=()):
        return [n for n in spans if n.startswith(prefix) and n not in exclude]

    out = {}

    def put(name, value, unit):
        out[name] = (value / rounds, unit)

    for kind in ("ball", "sphere", "enlarged", "orthant", "sublevel_region"):
        put(f"geometry.dist_point.{kind}.calls", calls(f"geometry.dist_point.{kind}"), "count")
        put(f"geometry.dist_point.{kind}.self_s", self_s(f"geometry.dist_point.{kind}"), "s")
    for cls in ("closed_form", "vertex_max", "sampled"):
        put(f"geometry.excess.{cls}.calls", calls(f"geometry.excess.{cls}"), "count")
        put(f"geometry.excess.{cls}.self_s", self_s(f"geometry.excess.{cls}"), "s")
    put("geometry.excess.approx_results", counts.get("geometry.excess.approx_results", 0), "count")
    put("geometry.sample.calls", calls("geometry.sample"), "count")
    put("geometry.sample.self_s", self_s("geometry.sample"), "s")
    put("geometry.sample_enlargement.self_s", self_s("geometry.sample_enlargement"), "s")
    put("geometry.boundedness.calls", calls("geometry.boundedness"), "count")
    put("geometry.boundedness.self_s", self_s("geometry.boundedness"), "s")
    put("lp.solves", calls("lp.linprog"), "count")
    put("lp.self_s", sum(self_s(n) for n in prefixed("lp.")), "s")
    put("search.pattern_search.calls", calls("search.pattern_search"), "count")
    put("search.pattern_search.evals", counts.get("search.pattern_search.evals", 0), "count")
    put("search.pattern_search.self_s", self_s("search.pattern_search"), "s")
    for fn in ("eval_map", "cover_witness", "fallback_witness"):
        put(f"mappings.{fn}.calls", calls(f"mappings.{fn}"), "count")
        put(f"mappings.{fn}.self_s", self_s(f"mappings.{fn}"), "s")
    checks = prefixed("certify.check_")
    trials = counts.get("certify.trials", 0)
    trial_ms = 1000.0 * sum(total(n) for n in checks) / trials if trials else 0.0
    out["certify.trial_ms"] = (trial_ms, "ms")
    put("certify.self_s",
        sum(self_s(n) for n in prefixed("certify.", exclude=("certify.interior_radius",))), "s")
    put("certify.interior_radius.calls", calls("certify.interior_radius"), "count")
    put("certify.interior_radius.self_s", self_s("certify.interior_radius"), "s")
    steps = counts.get("solver.steps", 0)
    put("solver.steps", steps, "count")
    step_ms = 1000.0 * total("solver.solve_inclusion") / steps if steps else 0.0
    out["solver.step_ms"] = (step_ms, "ms")
    put("solver.self_s", sum(self_s(n) for n in prefixed("solver.")), "s")
    put("penalty.evals", calls("penalty.penalty_value"), "count")
    put("penalty.self_s", sum(self_s(n) for n in prefixed("penalty.")), "s")
    put("instances.decode.self_s", self_s("instances.decode"), "s")
    put("instances.run.self_s", self_s("instances.run"), "s")
    put("instances.jsonify.self_s", self_s("instances.jsonify"), "s")
    return out

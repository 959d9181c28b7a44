"""Instance files: strict decoding, execution, and report rendering.

An instance file is a JSON object tagged "setcover-kit/1" that names one
of the batch kinds (certify, inclusion, penalty, sfix, family) and the
maps/parameters it needs.  Each kind and block is a codec row, so
decoding is strict: unknown fields, blocks the kind does not read
included, are rejected with the offending path, so a typo cannot
silently change an experiment.  Execution returns (exit_code, result)
where the result dict is fully deterministic for a fixed (instance,
seed); volatile metadata (timestamps) lives in a separate section of
the written report.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from functools import reduce
from typing import Any

import numpy as np

from . import mappings as mp
from . import penalty as pen
from .certify import (
    check_covering,
    check_inverse_errorbound,
    check_inverse_hausdorff,
    check_set_covering,
)
from .codec import InstanceError, Kind, Table, decode, one_of
from .geometry import DimensionMismatchError
from .solver import InclusionInstance, NotExpandingError, solve_inclusion, strongly_fixed

VERSION_TAG = "setcover-kit/1"

EXIT_OK = 0
EXIT_FALSIFIED = 2
EXIT_INPUT = 3

__all__ = [
    "VERSION_TAG",
    "EXIT_OK",
    "EXIT_FALSIFIED",
    "EXIT_INPUT",
    "InstanceError",
    "decode_instance",
    "run_instance",
    "render_text",
    "jsonify",
    "builtin_instances",
]


# the objective rows live here, not in the codec: penalty imports certify,
# which imports the codec
Table("objective", "objective",
      Kind("norm_to_point", pen.NormToPoint, ("target", "vector")),
      Kind("linear", pen.Linear, ("c", "vector")),
      Kind("abs_coord", pen.AbsCoord, ("i", "integer")),
      Kind("weighted_sum", pen.WeightedSum,
           ("terms", [Kind(None, lambda weight, objective: (weight, objective),
                           ("weight", "number"), ("objective", "objective"))])))


def _block(**defaults):
    """A block's constructor: its decoded fields over these defaults, as a dict."""
    return lambda **fields: {**defaults, **fields}


_parameters = _block(seed=0, tol=1e-6)
_VERDICTS = ("no-counterexample-found", "falsified")
_PROCESS_VERDICTS = ("set-covering", "not-set-covering")


def _certify_block(property, alpha="auto", safety=mp.DEFAULT_SAFETY, trials=200, expect=None,
                   x_box_halfwidth=5.0) -> dict:
    verdicts = _PROCESS_VERDICTS if property == "interior-radius" else _VERDICTS
    if expect is not None and expect not in verdicts:
        raise ValueError(f"property {property!r} never returns the expected verdict "
                         f"{expect!r}; it returns {' or '.join(map(repr, verdicts))}")
    return {"property": property, "alpha": alpha, "safety": safety, "trials": trials,
            "expect": expect, "x_box_halfwidth": x_box_halfwidth}


def _penalty_block(objective, x0, l=None, threshold_factor=None, verify=None) -> dict:
    if (l is None) == (threshold_factor is None):
        raise ValueError("exactly one of 'l' and 'threshold_factor' is required")
    return {"objective": objective, "x0": x0, "l": l, "threshold_factor": threshold_factor,
            "verify": verify}


_PARAMETERS_ROW = Kind(None, _parameters, ("seed", "natural", "opt"), ("tol", "positive", "opt"))
_PSI = Kind(None, dict, ("psi", "map"))
_PSI_PHI = Kind(None, dict, ("psi", "map"), ("phi", "map"))


def _instance(kind: str, *blocks: tuple) -> Kind:
    """An instance kind's row: the version tag, its blocks and the parameters, as one dict."""
    def build(version, maps=None, parameters=None, **block):
        return {"kind": kind, **(parameters or _parameters()), **(maps or {}), **block}
    return Kind(kind, build, ("version", one_of(VERSION_TAG)), *blocks,
                ("parameters", _PARAMETERS_ROW, "opt"))


Table("family", "family",
      Kind("ball_radius_family", _block(radii=(0.25, 0.5)), ("psi", "map"), ("c1", "number"),
           ("p_bar", "vector"), ("x_bar", "vector"), ("objective", "objective"),
           ("radii", ["positive"], "opt")))

Table("instance", "instance",
      _instance("certify", ("maps", _PSI),
                ("certify", Kind(None, _certify_block,
                                 ("property", one_of("covering", "set-covering",
                                                     "inverse-errorbound", "inverse-hausdorff",
                                                     "interior-radius")),
                                 ("alpha", one_of("auto", other="positive"), "opt"),
                                 ("safety", "positive", "opt"), ("trials", "count", "opt"),
                                 ("expect", one_of(*_VERDICTS, *_PROCESS_VERDICTS), "opt"),
                                 ("x_box_halfwidth", "positive", "opt")))),
      _instance("inclusion", ("maps", _PSI_PHI),
                ("solve", Kind(None, _block(alpha=None, beta=None, alpha_used=None,
                                            max_iter=10_000, polish=True),
                               ("x0", "vector"), ("alpha", "number", "opt"),
                               ("beta", "number", "opt"), ("alpha_used", "number", "opt"),
                               ("max_iter", "integer", "opt"), ("polish", "bool", "opt")))),
      _instance("penalty", ("maps", _PSI_PHI),
                ("penalty", Kind(None, _penalty_block, ("objective", "objective"),
                                 ("x0", "vector"), ("l", "number", "opt"),
                                 ("threshold_factor", "number", "opt"),
                                 ("verify", Kind(None, dict, ("x_bar", "vector"),
                                                 ("radius", "positive"), ("grid_n", "count")),
                                  "opt")))),
      _instance("sfix", ("maps", _PSI),
                ("sfix", Kind(None, _block(alpha=None, alpha_used=None), ("x0", "vector"),
                              ("r_grid", ["positive"]), ("alpha", "number", "opt"),
                              ("alpha_used", "number", "opt")))),
      _instance("family", ("family", "family")))

# the points of psi's domain an instance names, by their keys in the decoded dict
_DOMAIN_POINTS = (("solve", "x0"), ("penalty", "x0"), ("penalty", "verify", "x_bar"),
                  ("sfix", "x0"), ("family", "x_bar"))


def decode_instance(data: Any, path: str = "$") -> dict:
    """Validate the instance file and return its decoded blocks.

    Raises InstanceError with the offending path on any schema
    violation; unknown fields are rejected.
    """
    out = decode("instance", data, path)
    family = out.get("family")
    if family is not None and family["p_bar"].shape != (1,):
        raise InstanceError(f"{path}.family.p_bar",
                            "the ball-radius family reads only p[0] and searches a 1-d "
                            f"parameter grid: p_bar needs length 1, got {family['p_bar'].shape[0]}")
    dim = (out["psi"] if family is None else family["psi"]).space_x.dim
    for keys in _DOMAIN_POINTS:
        point = reduce(lambda blk, key: (blk or {}).get(key), keys, out)
        if point is not None and point.shape != (dim,):
            raise InstanceError(".".join((path, *keys)),
                                f"{keys[-1]} is a point of psi's domain: it needs dimension "
                                f"{dim}, got {point.shape[0]}")
    return out


# ---------------------------------------------------------------------------
# execution


def run_instance(decoded: dict, seed: int | None = None, tol: float | None = None) -> tuple[int, dict]:
    """Execute a decoded instance; returns (exit_code, deterministic result dict)."""
    seed = decoded["seed"] if seed is None else seed
    tol = decoded["tol"] if tol is None else tol
    kind = decoded["kind"]
    if kind == "certify":
        return _run_certify(decoded, seed, tol)
    if kind == "inclusion":
        return _run_inclusion(decoded, seed, tol)
    if kind == "penalty":
        return _run_penalty(decoded, seed, tol)
    if kind == "sfix":
        return _run_sfix(decoded, seed, tol)
    return _run_family(decoded, seed, tol)


@contextmanager
def _refused_at(path: str, error: type = ValueError):
    """A kit constructor's refusal of a block's values, as an input error at the block's path."""
    try:
        yield
    except (mp.DimensionCapError, InstanceError):
        raise  # an input above a documented cap keeps its own message, an inner block its path
    except error as exc:
        raise InstanceError(path, str(exc)) from exc


# a psi without the covering constant or the witness that a solve needs
_NO_RULE = (mp.NotSetCoveringError, mp.WitnessUnavailableError)


def _resolve_alpha(psi: mp.MapSpec, spec_alpha, safety: float) -> float:
    if spec_alpha == "auto":
        return safety * mp.alpha_of(psi).alpha
    return float(spec_alpha)


def _run_certify(decoded: dict, seed: int, tol: float) -> tuple[int, dict]:
    blk = decoded["certify"]
    psi = decoded["psi"]
    prop = blk["property"]
    if prop == "interior-radius":
        if not isinstance(psi, mp.PolyhedralProcess):
            raise InstanceError("$.maps.psi", "interior-radius needs a polyhedral process")
        with _refused_at("$.maps.psi", mp.ProcessAnomalyError):  # a cone that is not onto
            report = mp.interior_radius(psi)
        verdict = "set-covering" if report.alpha > 0 else "not-set-covering"
        code = EXIT_OK
        if blk["expect"] is not None and blk["expect"] != verdict:
            code = EXIT_FALSIFIED
        return code, {"kind": "interior-radius", "verdict": verdict,
                      "report": report.to_jsonable(), "seed": seed}
    hw = blk["x_box_halfwidth"]
    x_box = (-hw * np.ones(psi.space_x.dim), hw * np.ones(psi.space_x.dim))
    try:
        alpha = _resolve_alpha(psi, blk["alpha"], blk["safety"])
    except mp.NotSetCoveringError as exc:
        raise InstanceError("$.certify.alpha",
                            f"alpha 'auto' unavailable: {exc}") from exc
    # on decoded input a certificate raises ValueError only where an image of psi
    # cannot be built (it leaves the catalog, or a point lies outside the domain)
    with _refused_at("$.maps.psi"):
        if prop == "covering":
            cert = check_covering(psi, alpha, blk["trials"], seed, x_box=x_box)
        elif prop == "set-covering":
            cert = check_set_covering(psi, alpha, blk["trials"], seed, x_box=x_box)
        else:
            with _refused_at("$.certify.property", NotImplementedError):  # no inverse rule
                if prop == "inverse-errorbound":
                    cert = check_inverse_errorbound(psi, alpha, blk["trials"], seed, x_box=x_box)
                else:
                    cert = check_inverse_hausdorff(psi, alpha, blk["trials"], seed)
    code = EXIT_FALSIFIED if cert.falsified else EXIT_OK
    if blk["expect"] is not None:
        code = EXIT_OK if cert.verdict == blk["expect"] else EXIT_FALSIFIED
    return code, {"kind": "certify", "certificate": cert.to_jsonable(), "seed": seed}


def _run_inclusion(decoded: dict, seed: int, tol: float) -> tuple[int, dict]:
    blk = decoded["solve"]
    with _refused_at("$.solve"), _refused_at("$.maps.psi", _NO_RULE):
        inst = InclusionInstance(psi=decoded["psi"], phi=decoded["phi"],
                                 alpha=blk["alpha"], beta=blk["beta"],
                                 alpha_used=blk["alpha_used"], tol=tol,
                                 max_iter=blk["max_iter"])
    with _refused_at("$.maps.psi", _NO_RULE):
        trace = solve_inclusion(inst, blk["x0"], polish=blk["polish"])
    code = EXIT_OK if trace.status == "converged" else EXIT_FALSIFIED
    return code, {"kind": "inclusion", "trace": trace.to_jsonable(), "seed": seed}


def _run_penalty(decoded: dict, seed: int, tol: float) -> tuple[int, dict]:
    blk = decoded["penalty"]
    with _refused_at("$.penalty"):
        inst = InclusionInstance(psi=decoded["psi"], phi=decoded["phi"], tol=min(tol, 1e-9))
        l_phi = pen.objective_lipschitz(blk["objective"], inst.space_x)
        thresh = pen.threshold(l_phi, inst.alpha_used, inst.beta)
        l_val = blk["l"] if blk["l"] is not None else blk["threshold_factor"] * thresh
        prob = pen.PenaltyProblem(blk["objective"], inst, l_val)
    result = pen.minimize_penalty(prob, blk["x0"])
    out = {"kind": "penalty", "l": l_val, "threshold": thresh,
           "minimizer": result.to_jsonable(), "seed": seed}
    code = EXIT_OK
    if blk["verify"] is not None:
        cert = pen.verify_exactness(prob, blk["verify"]["x_bar"],
                                    blk["verify"]["radius"], blk["verify"]["grid_n"])
        out["exactness"] = cert.to_jsonable()
        if cert.falsified:
            code = EXIT_FALSIFIED
    return code, out


def _run_sfix(decoded: dict, seed: int, tol: float) -> tuple[int, dict]:
    blk = decoded["sfix"]
    try:
        with _refused_at("$.maps.psi", (DimensionMismatchError, *_NO_RULE)), \
                _refused_at("$.sfix", NotExpandingError):
            res = strongly_fixed(decoded["psi"], blk["x0"], blk["r_grid"],
                                 alpha=blk["alpha"], alpha_used=blk["alpha_used"],
                                 tol=tol, seed=seed)
    except RuntimeError as exc:
        return EXIT_FALSIFIED, {"kind": "sfix", "status": "exhausted",
                                "reason": str(exc), "seed": seed}
    return EXIT_OK, {"kind": "sfix", "status": "found", "x": res.x.tolist(),
                     "r": res.r, "inclusion_margin": res.inclusion_margin,
                     "trace": res.trace.to_jsonable(), "seed": seed}


def _run_family(decoded: dict, seed: int, tol: float) -> tuple[int, dict]:
    """The calmness and semiregularity diagnostics; they run at their own fixed
    tolerances (1e-9 for solves, 1e-6 and 1e-7 for membership), so tol is unused."""
    blk = decoded["family"]
    if not blk["p_bar"][0] > 0:
        raise InstanceError("$.family.p_bar", f"p_bar[0] is phi's ball radius at the reference: "
                                              f"it must be > 0, got {blk['p_bar'][0]}")
    # c1 < 0, or phi's rate c1 not below psi's alpha_used; psi with no covering constant
    with _refused_at("$.family.c1"), _refused_at("$.family.psi", mp.NotSetCoveringError):
        fam = pen.BallRadiusFamily(blk["psi"], blk["c1"], blk["p_bar"])
    cal = pen.calmness_diagnostic(fam, blk["objective"], blk["x_bar"],
                                  radii=blk["radii"], seed=seed)
    semi = pen.semiregularity_estimate(fam, blk["x_bar"], radius=max(blk["radii"]),
                                       seed=seed)
    return EXIT_OK, {"kind": "family", "calmness": cal.to_jsonable(),
                     "semiregularity": semi.to_jsonable(), "seed": seed}


# ---------------------------------------------------------------------------
# report rendering


def jsonify(value):
    """Recursively convert to JSON-safe types; non-finite floats become strings."""
    if isinstance(value, dict):
        return {k: jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify(v) for v in value]
    if isinstance(value, np.ndarray):
        return [jsonify(v) for v in value.tolist()]
    if isinstance(value, (np.floating, float)):
        f = float(value)
        if math.isnan(f):
            return "nan"
        if math.isinf(f):
            return "inf" if f > 0 else "-inf"
        return f
    if isinstance(value, (np.integer,)):
        return int(value)
    return value


def render_text(result: dict, indent: int = 0) -> str:
    """Stable-format indented table of a result dict."""
    lines = []
    pad = "  " * indent
    for key in result:
        val = result[key]
        if isinstance(val, dict):
            lines.append(f"{pad}{key}:")
            lines.append(render_text(val, indent + 1))
        elif isinstance(val, list) and val and isinstance(val[0], dict):
            lines.append(f"{pad}{key}: [{len(val)} records]")
            for rec in val[:5]:
                lines.append(render_text(rec, indent + 1))
                lines.append(f"{pad}  --")
        else:
            lines.append(f"{pad}{key}: {val}")
    return "\n".join(line for line in lines if line)


# ---------------------------------------------------------------------------
# built-in instances (used by the demo subcommand and the test suite)


def builtin_instances() -> dict[str, dict]:
    """The bundled end-to-end fixtures, as instance-file dicts."""
    space1 = {"dim": 1}
    space2 = {"dim": 2}
    dilation_t1 = {"kind": "dilation", "y0": [0.0, 0.0], "a": 1.0, "b": 0.0,
                   "anchor": [0.0], "space_x": space1, "space_y": space2}
    phi_t1 = {"kind": "ball_valued",
              "center": {"kind": "affine", "matrix": [[0.0], [0.0]], "offset": [0.0, 0.0]},
              "c0": 1.0, "c1": 0.5, "space_x": space1, "space_y": space2}
    return {
        "t1": {
            "version": VERSION_TAG,
            "kind": "inclusion",
            "maps": {"psi": dilation_t1, "phi": phi_t1},
            "solve": {"x0": [0.0]},
            "parameters": {"seed": 0, "tol": 1e-6},
        },
        "t1_penalty": {
            "version": VERSION_TAG,
            "kind": "penalty",
            "maps": {"psi": dilation_t1, "phi": phi_t1},
            "penalty": {"objective": {"kind": "abs_coord", "i": 0}, "x0": [0.0],
                        "threshold_factor": 1.05,
                        "verify": {"x_bar": [2.0], "radius": 1.0, "grid_n": 81}},
            "parameters": {"seed": 0, "tol": 1e-6},
        },
        "sphere_scale_covering": {
            "version": VERSION_TAG,
            "kind": "certify",
            "maps": {"psi": {"kind": "sphere_scale"}},
            "certify": {"property": "covering", "alpha": 1.0, "trials": 200,
                        "expect": "no-counterexample-found"},
            "parameters": {"seed": 0, "tol": 1e-6},
        },
        "sphere_scale_set_covering": {
            "version": VERSION_TAG,
            "kind": "certify",
            "maps": {"psi": {"kind": "sphere_scale"}},
            "certify": {"property": "set-covering", "alpha": 0.5, "trials": 60,
                        "expect": "falsified"},
            "parameters": {"seed": 0, "tol": 1e-6},
        },
        "sublinear": {
            "version": VERSION_TAG,
            "kind": "certify",
            "maps": {"psi": {"kind": "sublinear_system",
                             "groups": [[[1.0, 0.0], [-1.0, 0.0]],
                                        [[0.0, 1.0], [0.0, -1.0]]]}},
            "certify": {"property": "set-covering", "alpha": "auto", "trials": 60,
                        "expect": "no-counterexample-found"},
            "parameters": {"seed": 0, "tol": 1e-6},
        },
        "process": {
            "version": VERSION_TAG,
            "kind": "certify",
            "maps": {"psi": {"kind": "polyhedral_process",
                             "cx": [[1.0], [1.0]],
                             "cy": [[-1.0, 0.0], [0.0, -1.0]]}},
            "certify": {"property": "interior-radius", "expect": "set-covering"},
            "parameters": {"seed": 0, "tol": 1e-6},
        },
        "sfix": {
            "version": VERSION_TAG,
            "kind": "sfix",
            "maps": {"psi": {"kind": "sum",
                             "base": {"kind": "dilation", "y0": [0.0], "a": 3.0, "b": 1.0,
                                      "anchor": [0.0], "space_x": space1, "space_y": space1},
                             "g": {"kind": "affine", "matrix": [[0.5]], "offset": [0.0]}}},
            "sfix": {"x0": [4.0], "r_grid": [1.0, 0.5]},
            "parameters": {"seed": 0, "tol": 1e-6},
        },
        "family": {
            "version": VERSION_TAG,
            "kind": "family",
            "family": {"kind": "ball_radius_family", "psi": dilation_t1, "c1": 0.5,
                       "p_bar": [1.0], "x_bar": [2.0],
                       "objective": {"kind": "abs_coord", "i": 0},
                       "radii": [0.25, 0.5]},
            "parameters": {"seed": 0, "tol": 1e-6},
        },
    }

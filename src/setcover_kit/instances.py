"""Instance files: strict decoding, execution, and report rendering.

An instance file is a JSON object tagged "setcover-kit/1" that names one
of the batch kinds (certify, inclusion, penalty, sfix, family) and the
maps/parameters it needs.  Decoding is strict: unknown fields are
rejected with the offending path, so a typo cannot silently change an
experiment.  Execution returns (exit_code, result) where the result dict
is fully deterministic for a fixed (instance, seed); volatile metadata
(timestamps) lives in a separate section of the written report.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from . import mappings as mp
from . import penalty as pen
from .certify import (
    check_covering,
    check_inverse_errorbound,
    check_inverse_hausdorff,
    check_set_covering,
    interior_radius,
)
from .codec import InstanceError, Kind, Table, _check_keys, _integer, _number, _vector, decode
from .geometry import NormedSpace
from .solver import InclusionInstance, solve_inclusion, strongly_fixed

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


_KIND_BLOCKS = {
    "certify": "certify",
    "inclusion": "solve",
    "penalty": "penalty",
    "sfix": "sfix",
    "family": "family",
}


def decode_instance(data: Any, path: str = "$") -> dict:
    """Validate the instance file and return its decoded blocks.

    Raises InstanceError with the offending path on any schema
    violation; unknown fields are rejected.
    """
    _check_keys(data, path, ("version", "kind"),
                ("maps", "certify", "solve", "penalty", "sfix", "family", "parameters"))
    if data["version"] != VERSION_TAG:
        raise InstanceError(f"{path}.version", f"expected {VERSION_TAG!r}")
    kind = data["kind"]
    if kind not in _KIND_BLOCKS:
        raise InstanceError(f"{path}.kind", f"unknown instance kind {kind!r}")
    block_name = _KIND_BLOCKS[kind]
    if block_name not in data:
        raise InstanceError(path, f"instance kind {kind!r} requires the {block_name!r} block")
    out: dict[str, Any] = {"kind": kind}

    params = data.get("parameters", {})
    _check_keys(params, f"{path}.parameters", (), ("seed", "tol"))
    out["seed"] = _integer(params.get("seed", 0), f"{path}.parameters.seed")
    out["tol"] = _number(params.get("tol", 1e-6), f"{path}.parameters.tol")

    maps = data.get("maps", {})
    _check_keys(maps, f"{path}.maps", (), ("psi", "phi"))
    for name in ("psi", "phi"):
        if name in maps:
            out[name] = decode("map", maps[name], f"{path}.maps.{name}")

    if kind == "certify":
        blk = data["certify"]
        _check_keys(blk, f"{path}.certify", ("property",),
                    ("alpha", "safety", "trials", "expect", "x_box_halfwidth"))
        prop = blk["property"]
        known = ("covering", "set-covering", "inverse-errorbound",
                 "inverse-hausdorff", "interior-radius")
        if prop not in known:
            raise InstanceError(f"{path}.certify.property", f"unknown property {prop!r}")
        if "psi" not in out:
            raise InstanceError(f"{path}.maps", "certify instances need maps.psi")
        out["certify"] = {
            "property": prop,
            "alpha": blk.get("alpha", "auto"),
            "safety": _number(blk.get("safety", mp.DEFAULT_SAFETY), f"{path}.certify.safety"),
            "trials": _integer(blk.get("trials", 200), f"{path}.certify.trials"),
            "expect": blk.get("expect"),
            "x_box_halfwidth": _number(blk.get("x_box_halfwidth", 5.0),
                                       f"{path}.certify.x_box_halfwidth"),
        }
        if out["certify"]["alpha"] != "auto":
            out["certify"]["alpha"] = _number(blk["alpha"], f"{path}.certify.alpha")
    elif kind == "inclusion":
        blk = data["solve"]
        _check_keys(blk, f"{path}.solve", ("x0",),
                    ("alpha", "beta", "alpha_used", "max_iter", "polish"))
        if "psi" not in out or "phi" not in out:
            raise InstanceError(f"{path}.maps", "inclusion instances need maps.psi and maps.phi")
        out["solve"] = {
            "x0": _vector(blk["x0"], f"{path}.solve.x0"),
            "alpha": _number(blk["alpha"], f"{path}.solve.alpha") if "alpha" in blk else None,
            "beta": _number(blk["beta"], f"{path}.solve.beta") if "beta" in blk else None,
            "alpha_used": _number(blk["alpha_used"], f"{path}.solve.alpha_used")
            if "alpha_used" in blk else None,
            "max_iter": _integer(blk.get("max_iter", 10_000), f"{path}.solve.max_iter"),
            "polish": bool(blk.get("polish", True)),
        }
    elif kind == "penalty":
        blk = data["penalty"]
        _check_keys(blk, f"{path}.penalty", ("objective", "x0"),
                    ("l", "threshold_factor", "verify"))
        if "psi" not in out or "phi" not in out:
            raise InstanceError(f"{path}.maps", "penalty instances need maps.psi and maps.phi")
        if ("l" in blk) == ("threshold_factor" in blk):
            raise InstanceError(f"{path}.penalty",
                                "exactly one of 'l' and 'threshold_factor' is required")
        verify = None
        if "verify" in blk:
            vb = blk["verify"]
            _check_keys(vb, f"{path}.penalty.verify", ("x_bar", "radius", "grid_n"))
            verify = {"x_bar": _vector(vb["x_bar"], f"{path}.penalty.verify.x_bar"),
                      "radius": _number(vb["radius"], f"{path}.penalty.verify.radius"),
                      "grid_n": _integer(vb["grid_n"], f"{path}.penalty.verify.grid_n")}
        out["penalty"] = {
            "objective": decode("objective", blk["objective"], f"{path}.penalty.objective"),
            "x0": _vector(blk["x0"], f"{path}.penalty.x0"),
            "l": _number(blk["l"], f"{path}.penalty.l") if "l" in blk else None,
            "threshold_factor": _number(blk["threshold_factor"],
                                        f"{path}.penalty.threshold_factor")
            if "threshold_factor" in blk else None,
            "verify": verify,
        }
    elif kind == "sfix":
        blk = data["sfix"]
        _check_keys(blk, f"{path}.sfix", ("x0", "r_grid"), ("alpha", "alpha_used"))
        if "psi" not in out:
            raise InstanceError(f"{path}.maps", "sfix instances need maps.psi")
        out["sfix"] = {
            "x0": _vector(blk["x0"], f"{path}.sfix.x0"),
            "r_grid": [_number(r, f"{path}.sfix.r_grid[{i}]")
                       for i, r in enumerate(blk["r_grid"])],
            "alpha": _number(blk["alpha"], f"{path}.sfix.alpha") if "alpha" in blk else None,
            "alpha_used": _number(blk["alpha_used"], f"{path}.sfix.alpha_used")
            if "alpha_used" in blk else None,
        }
    else:  # family
        blk = data["family"]
        _check_keys(blk, f"{path}.family",
                    ("kind", "psi", "c1", "p_bar", "x_bar", "objective"), ("radii",))
        if blk["kind"] != "ball_radius_family":
            raise InstanceError(f"{path}.family.kind",
                                f"unknown family kind {blk['kind']!r}")
        psi = decode("map", blk["psi"], f"{path}.family.psi")
        p_bar = _vector(blk["p_bar"], f"{path}.family.p_bar")
        if p_bar.shape != (1,):
            raise InstanceError(f"{path}.family.p_bar",
                                "the ball-radius family reads only p[0] and searches a 1-d "
                                f"parameter grid: p_bar needs length 1, got {p_bar.shape[0]}")
        x_bar = _vector(blk["x_bar"], f"{path}.family.x_bar")
        if x_bar.shape != (psi.space_x.dim,):
            raise InstanceError(f"{path}.family.x_bar",
                                f"x_bar is a point of psi's domain: it needs dimension "
                                f"{psi.space_x.dim}, got {x_bar.shape[0]}")
        out["family"] = {
            "psi": psi,
            "c1": _number(blk["c1"], f"{path}.family.c1"),
            "p_bar": p_bar,
            "x_bar": x_bar,
            "objective": decode("objective", blk["objective"], f"{path}.family.objective"),
            "radii": [_number(r, f"{path}.family.radii[{i}]")
                      for i, r in enumerate(blk.get("radii", [0.25, 0.5]))],
        }
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
        report = interior_radius(psi)
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
    if prop == "covering":
        cert = check_covering(psi, alpha, blk["trials"], seed, x_box=x_box)
    elif prop == "set-covering":
        cert = check_set_covering(psi, alpha, blk["trials"], seed, x_box=x_box)
    elif prop == "inverse-errorbound":
        cert = check_inverse_errorbound(psi, alpha, blk["trials"], seed, x_box=x_box)
    else:
        cert = check_inverse_hausdorff(psi, alpha, blk["trials"], seed)
    code = EXIT_FALSIFIED if cert.falsified else EXIT_OK
    if blk["expect"] is not None:
        code = EXIT_OK if cert.verdict == blk["expect"] else EXIT_FALSIFIED
    return code, {"kind": "certify", "certificate": cert.to_jsonable(), "seed": seed}


def _run_inclusion(decoded: dict, seed: int, tol: float) -> tuple[int, dict]:
    blk = decoded["solve"]
    inst = InclusionInstance(psi=decoded["psi"], phi=decoded["phi"],
                             alpha=blk["alpha"], beta=blk["beta"],
                             alpha_used=blk["alpha_used"], tol=tol,
                             max_iter=blk["max_iter"])
    trace = solve_inclusion(inst, blk["x0"], polish=blk["polish"])
    code = EXIT_OK if trace.status == "converged" else EXIT_FALSIFIED
    return code, {"kind": "inclusion", "trace": trace.to_jsonable(), "seed": seed}


def _run_penalty(decoded: dict, seed: int, tol: float) -> tuple[int, dict]:
    blk = decoded["penalty"]
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
    blk = decoded["family"]
    psi_fixed = blk["psi"]
    c1 = blk["c1"]
    space_x = psi_fixed.space_x
    space_y = psi_fixed.space_y
    zero_center = mp.Affine(np.zeros((space_y.dim, space_x.dim)), np.zeros(space_y.dim))

    def phi_of_p(p):
        return mp.BallValued(zero_center, c0=float(p[0]), c1=c1,
                             space_x=space_x, space_y=space_y)

    fam = pen.ParamFamily(param_space=NormedSpace(blk["p_bar"].shape[0]),
                          p_bar=blk["p_bar"], phi_of_p=phi_of_p,
                          psi_of_p=lambda p: psi_fixed)
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

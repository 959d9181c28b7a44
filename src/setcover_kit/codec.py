"""The kit's one JSON codec: spaces, sets, catalog functions and maps.

Each kind has one row: its tag, its class and its fields, each with a
type.  `encode` writes an object by walking its row, and `decode` reads
one back strictly: unknown fields, missing fields and malformed values
raise InstanceError with the offending JSON path, and a constructor's
own ValueError or TypeError is reported at the object's path.

A field's type is a primitive ("vector", "matrix", "number", "positive",
"integer", "count" for an integer >= 1, "bool" or "name"), a fixed
choice (`one_of`), the name of a tagged table ("set", "fn", "map" or one
a caller adds), a record Kind (such as SPACE), or a one-element list
[type] for a nonempty list, decoded to a tuple.  A field is
required ("req"), optional and always written ("opt"), or optional and
written only when it differs from the default the decoder derives
("lean": a value of None, or a euclidean space whose dimension the
other fields fix).
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple

import numpy as np

from . import geometry as geo
from . import mappings as mp

__all__ = [
    "InstanceError",
    "Kind",
    "Table",
    "SPACE",
    "one_of",
    "encode",
    "decode",
    "set_to_json",
    "set_from_json",
    "map_to_json",
    "map_from_json",
]


class InstanceError(ValueError):
    """Schema violation with the offending JSON path."""

    def __init__(self, path: str, reason: str):
        self.path = path
        self.reason = reason
        super().__init__(f"{path}: {reason}")


def _check_keys(obj: dict, path: str, required: tuple, optional: tuple = ()):
    if not isinstance(obj, dict):
        raise InstanceError(path, f"expected an object, got {type(obj).__name__}")
    for key in obj:
        if key not in required and key not in optional:
            raise InstanceError(f"{path}.{key}", "unknown field")
    for key in required:
        if key not in obj:
            raise InstanceError(path, f"missing required field {key!r}")


def _number(obj, path: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise InstanceError(path, "expected a number")
    return float(obj)


def _positive(obj, path: str) -> float:
    value = _number(obj, path)
    if not value > 0:
        raise InstanceError(path, "expected a positive number")
    return value


def _integer(obj, path: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise InstanceError(path, "expected an integer")
    return obj


def _count(obj, path: str) -> int:
    if _integer(obj, path) < 1:
        raise InstanceError(path, "expected an integer >= 1")
    return obj


def _bool(obj, path: str) -> bool:
    if not isinstance(obj, bool):
        raise InstanceError(path, "expected true or false")
    return obj


def _name(obj, path: str) -> str:
    if not isinstance(obj, str):
        raise InstanceError(path, "expected a string")
    return obj


def _items(obj, path: str, of: str = "") -> list:
    if not isinstance(obj, list) or not obj:
        raise InstanceError(path, f"expected a nonempty array{of}")
    return obj


def _vector(obj, path: str) -> np.ndarray:
    return np.array([_number(v, f"{path}[{i}]")
                     for i, v in enumerate(_items(obj, path, " of numbers"))])


def _matrix(obj, path: str) -> np.ndarray:
    rows = [_vector(r, f"{path}[{i}]") for i, r in enumerate(_items(obj, path, " of rows"))]
    widths = {r.shape[0] for r in rows}
    if len(widths) != 1:
        raise InstanceError(path, "rows have inconsistent lengths")
    return np.array(rows)


_PRIMITIVES = {"vector": _vector, "matrix": _matrix, "number": _number, "positive": _positive,
               "integer": _integer, "count": _count, "bool": _bool, "name": _name}


def one_of(*values, other=None) -> Callable:
    """A fixed-choice field type: one of `values`, or else a value of field type `other`."""
    def choice(obj, path: str):
        if obj in values:
            return obj
        if other is None:
            raise InstanceError(path, f"expected {' or '.join(map(repr, values))}, got {obj!r}")
        return decode(other, obj, path)
    return choice


class Field(NamedTuple):
    name: str
    type: Any
    need: str = "req"  # "req" | "opt" | "lean"


class Kind:
    """One row: tag (None for an untagged record), class and fields."""

    def __init__(self, tag: str | None, cls: Callable, *fields: tuple):
        self.tag = tag
        self.cls = cls
        self.fields = tuple(Field(*f) for f in fields)
        tagged = ("kind",) if tag is not None else ()
        self.required = tagged + tuple(f.name for f in self.fields if f.need == "req")
        self.optional = tuple(f.name for f in self.fields if f.need != "req")


TABLES: dict[str, Table] = {}  # every Table, by the name field types use


class Table:
    """A tagged family of kinds, named `name` in field types and `noun` in errors."""

    def __init__(self, name: str, noun: str, *kinds: Kind):
        self.noun = noun
        self.by_tag = {k.tag: k for k in kinds}
        self.by_cls = {k.cls: k for k in kinds}
        TABLES[name] = self


def _is_default(value) -> bool:
    return value is None or isinstance(value, geo.NormedSpace) and value.norm == "euclidean"


def encode(t, value) -> Any:
    """The JSON value of `value` under field type t."""
    if isinstance(t, list):
        return [encode(t[0], v) for v in value]
    if isinstance(t, str):
        if t in ("vector", "matrix"):
            return value.tolist()
        if t in _PRIMITIVES:
            return value
        table = TABLES[t]
        kind = table.by_cls.get(type(value))
        if kind is None:
            raise TypeError(f"unknown {table.noun} {type(value).__name__}")
        return {"kind": kind.tag, **encode(kind, value)}
    out = {}
    for f in t.fields:
        v = getattr(value, f.name)
        if f.need != "lean" or not _is_default(v):
            out[f.name] = encode(f.type, v)
    return out


def decode(t, obj, path: str = "$") -> Any:
    """Strictly decode the JSON value obj of field type t; errors name their path."""
    if callable(t):  # a fixed choice
        return t(obj, path)
    if isinstance(t, list):
        return tuple(decode(t[0], v, f"{path}[{i}]") for i, v in enumerate(_items(obj, path)))
    if isinstance(t, str):
        primitive = _PRIMITIVES.get(t)
        if primitive is not None:
            return primitive(obj, path)
        table = TABLES[t]
        if not isinstance(obj, dict) or "kind" not in obj:
            raise InstanceError(path, f"expected an object with a 'kind' tag naming a {table.noun}")
        t = table.by_tag.get(obj["kind"]) if isinstance(obj["kind"], str) else None
        if t is None:
            raise InstanceError(f"{path}.kind", f"unknown {table.noun} kind {obj['kind']!r}")
    _check_keys(obj, path, t.required, t.optional)
    args = {f.name: decode(f.type, obj[f.name], f"{path}.{f.name}")
            for f in t.fields if f.name in obj}
    try:
        return t.cls(**args)
    except (ValueError, TypeError) as exc:
        raise InstanceError(path, str(exc)) from exc


SPACE = Kind(None, geo.NormedSpace, ("dim", "integer"), ("norm", "name", "opt"),
             ("p", "number", "lean"))

Table("set", "set",
      Kind("ball", geo.Ball, ("center", "vector"), ("radius", "number")),
      Kind("sphere", geo.Sphere, ("center", "vector"), ("radius", "number")),
      Kind("box", geo.Box, ("lo", "vector"), ("hi", "vector")),
      Kind("v_polytope", geo.VPolytope, ("vertices", "matrix")),
      Kind("point_cloud", geo.PointCloud, ("points", "matrix")),
      Kind("sublevel_region", geo.SublevelRegion,
           ("groups", [Kind(None, geo.FormGroup, ("a", "matrix"), ("b", "number"))])),
      Kind("orthant", geo.Orthant, ("apex", "vector")),
      Kind("enlarged", geo.EnlargedSet, ("base", "set"), ("margin", "number")))

Table("fn", "catalog function",
      Kind("affine", mp.Affine, ("matrix", "matrix"), ("offset", "vector")),
      Kind("scaled_norm_radial", mp.ScaledNormRadial, ("scale", "number"),
           ("direction", "vector")))

Table("map", "map",
      Kind("dilation", mp.Dilation, ("y0", "vector"), ("a", "number"), ("b", "number", "opt"),
           ("anchor", "vector", "opt"), ("space_x", SPACE, "opt"), ("space_y", SPACE, "opt")),
      Kind("sphere_scale", mp.SphereScale, ("space_x", SPACE, "lean"), ("space_y", SPACE, "lean")),
      Kind("unit_ball_translate", mp.UnitBallTranslate, ("dim", "integer", "opt"),
           ("space_x", SPACE, "lean"), ("space_y", SPACE, "lean")),
      Kind("sublinear_system", mp.SublinearSystem, ("groups", ["matrix"]),
           ("space_y", SPACE, "opt")),
      Kind("epigraphical", mp.Epigraphical, ("matrix", "matrix")),
      Kind("polyhedral_process", mp.PolyhedralProcess, ("cx", "matrix"), ("cy", "matrix"),
           ("space_x", SPACE, "lean"), ("space_y", SPACE, "lean")),
      Kind("sum", mp.Sum, ("base", "map"), ("g", "fn")),
      Kind("composed", mp.Composed, ("g", "fn"), ("base", "map"), ("space_z", SPACE, "lean")),
      Kind("ball_valued", mp.BallValued, ("center", "fn"), ("c0", "number"),
           ("c1", "number", "opt"), ("xhat", "vector", "opt"), ("space_x", SPACE),
           ("space_y", SPACE)))


def set_to_json(s: geo.SetRep) -> dict:
    return encode("set", s)


def set_from_json(d) -> geo.SetRep:
    """Strict decoder; raises InstanceError with the JSON path."""
    return decode("set", d)


def map_to_json(m: mp.MapSpec) -> dict:
    return encode("map", m)


def map_from_json(d) -> mp.MapSpec:
    """Strict decoder; raises InstanceError with the JSON path."""
    return decode("map", d)

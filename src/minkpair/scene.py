"""Scene files: named sets and functions with exact rational coordinates.

All numbers are rational strings ("num/den", denominator omitted when 1);
floating point never appears.  Parsing and serialization round-trip exactly
on canonical scenes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .core import Cone2, Cone3, GeometryError, format_rational, parse_rational
from .dc import PLConvexFn
from .planar import VPolygon, from_points
from .spatial import VPolytope3, from_points3


class SceneError(ValueError):
    """Malformed scene input."""


@dataclass
class Scene:
    sets: dict = field(default_factory=dict)
    functions: dict = field(default_factory=dict)

    def lookup_set(self, name):
        if name not in self.sets:
            raise SceneError(f"unknown set {name!r}")
        return self.sets[name]

    def lookup_function(self, name):
        if name not in self.functions:
            raise SceneError(f"unknown function {name!r}")
        return self.functions[name]


def _no_duplicates(pairs):
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise SceneError(f"duplicate name {key!r}")
        seen.add(key)
    return dict(pairs)


def _rational(token, what):
    if not isinstance(token, str):
        raise SceneError(f"{what}: rationals must be strings, got {token!r}")
    try:
        return parse_rational(token)
    except GeometryError as exc:
        raise SceneError(f"{what}: {exc}") from exc


def _vector(entry, dim, what):
    if not isinstance(entry, (list, tuple)) or len(entry) != dim:
        raise SceneError(f"{what} must have {dim} coordinates, got {entry!r}")
    return tuple(_rational(c, what) for c in entry)


def _list_field(spec, key, what):
    """spec[key] as a list, [] when absent; any other value is malformed."""
    value = spec.get(key, [])
    if not isinstance(value, list):
        raise SceneError(f"{what}: {key} must be a list, got {value!r}")
    return value


def _build_set(name, spec):
    if not isinstance(spec, dict):
        raise SceneError(f"set {name!r} must be an object")
    dim = spec.get("dim")
    if dim not in (2, 3):
        raise SceneError(f"set {name!r}: dim must be 2 or 3")
    points = spec.get("points")
    if not isinstance(points, list) or not points:
        raise SceneError(f"set {name!r}: nonempty points list required")
    pts = [_vector(p, dim, f"set {name!r} point") for p in points]
    cone_spec = _list_field(spec, "cone", f"set {name!r}")
    gens = [_vector(g, dim, f"set {name!r} cone generator") for g in cone_spec]
    try:
        if dim == 2:
            return from_points(pts, Cone2.from_generators(gens))
        return from_points3(pts, Cone3.from_generators(gens))
    except GeometryError as exc:
        raise SceneError(f"set {name!r}: {exc}") from exc


def _build_function(name, spec):
    if not isinstance(spec, dict):
        raise SceneError(f"function {name!r} must be an object")
    what = f"function {name!r}"
    domain, xs, ys = (
        [_rational(c, what) for c in _list_field(spec, key, what)]
        for key in ("domain", "breakpoints", "values")
    )
    if len(domain) != 2:
        raise SceneError(f"{what}: domain must be [a, b]")
    if not xs or xs[0] != domain[0] or xs[-1] != domain[1]:
        raise SceneError(f"{what}: breakpoints must span the domain")
    try:
        return PLConvexFn(tuple(xs), tuple(ys))
    except GeometryError as exc:
        raise SceneError(f"{what}: {exc}") from exc


def parse_scene(text) -> Scene:
    try:
        raw = json.loads(text, object_pairs_hook=_no_duplicates)
    except SceneError:
        raise
    except ValueError as exc:  # bad JSON, or an integer past sys.get_int_max_str_digits()
        raise SceneError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise SceneError("invalid JSON: nested too deeply") from exc
    if not isinstance(raw, dict):
        raise SceneError("scene must be a JSON object")
    scene = Scene()
    for key, build, into in (
        ("sets", _build_set, scene.sets),
        ("functions", _build_function, scene.functions),
    ):
        section = raw.get(key, {})
        if not isinstance(section, dict):
            raise SceneError(f"{key} must be an object of named entries, got {section!r}")
        for name, spec in section.items():
            into[name] = build(name, spec)
    return scene


def load_scene(path) -> Scene:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_scene(fh.read())
    except OSError as exc:
        raise SceneError(f"cannot read scene {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SceneError(f"cannot decode scene {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# serialization (scene-file vocabulary)

def point_json(v):
    return [format_rational(c) for c in v]


def set_json(obj):
    if isinstance(obj, VPolygon):
        return {
            "dim": 2,
            "points": [point_json(p) for p in obj.chain],
            "cone": [point_json(g) for g in obj.cone.gens],
        }
    if isinstance(obj, VPolytope3):
        return {
            "dim": 3,
            "points": [point_json(p) for p in obj.bounded.vertices],
            "cone": [point_json(g) for g in obj.cone.gens],
        }
    raise SceneError(f"cannot serialize {type(obj).__name__}")


def function_json(fn: PLConvexFn):
    return {
        "domain": [format_rational(fn.breakpoints[0]), format_rational(fn.breakpoints[-1])],
        "breakpoints": [format_rational(x) for x in fn.breakpoints],
        "values": [format_rational(v) for v in fn.values],
    }


def scene_json(sets=None, functions=None):
    doc = {}
    if sets:
        doc["sets"] = {name: set_json(obj) for name, obj in sets.items()}
    if functions:
        doc["functions"] = {name: function_json(fn) for name, fn in functions.items()}
    return doc


def dump_scene(sets=None, functions=None) -> str:
    return json.dumps(scene_json(sets, functions), indent=1, sort_keys=True) + "\n"

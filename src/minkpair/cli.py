"""File-driven command line front end.

Every subcommand reads a scene file, runs one library operation and prints a
deterministic JSON verdict (or writes a scene fragment / SVG via --out).
Exit code 0 means a verdict was computed, true or false alike; malformed
input exits 2.
"""

from __future__ import annotations

import argparse
import json
import sys

from .core import GeometryError, parse_rational
from .planar import (
    VPolygon,
    are_equivalent,
    is_minimal_bounded,
    is_summand,
    is_zero_minimal,
    kernel_of_minimality,
    minkowski_sum,
    polygon_summand_check,
    reduce_pair,
    shared_normals,
)
from .spatial import (
    are_equivalent3,
    equiparallel_edges,
    minkowski_sum3,
    summand_criterion3,
)
from .dc import DcPair, hartman_minimize, is_hartman_minimal, to_hypograph_set
from .scene import SceneError, dump_scene, function_json, load_scene, point_json, set_json
from . import svg as svgmod


def _names(text, count=None):
    parts = [p.strip() for p in text.split(",")]
    if any(not p for p in parts):
        raise SceneError(f"bad name list {text!r}")
    if count is not None and len(parts) != count:
        raise SceneError(f"expected {count} comma-separated names, got {len(parts)}")
    return parts


def _pair(scene, text):
    a, b = (scene.lookup_set(n) for n in _names(text, 2))
    if type(a) is not type(b):
        raise SceneError("pair mixes 2D and 3D sets")
    return a, b


def _emit(payload):
    try:
        text = json.dumps(payload, indent=1, sort_keys=True) + "\n"
    except ValueError:  # an integer past sys.get_int_max_str_digits()
        raise GeometryError(
            f"number too long to print: over {sys.get_int_max_str_digits()} digits"
        ) from None
    sys.stdout.write(text)


def _rationals(text, count, message):
    """The `count` comma-separated rationals of an option, or None if unset."""
    if not text:
        return None
    parts = text.split(",")
    if len(parts) != count:
        raise SceneError(message)
    return tuple(parse_rational(p) for p in parts)


def _write_out(target, text):
    if target == "-":
        sys.stdout.write(text)
    else:
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_sum(scene, args):
    x, y = _pair(scene, args.sets)
    total = minkowski_sum(x, y) if isinstance(x, VPolygon) else minkowski_sum3(x, y)
    name = "+".join(_names(args.sets, 2))
    _write_out(args.out or "-", dump_scene(sets={name: total}))


def _cmd_reduce(scene, args):
    a, b = _pair(scene, args.pair)
    if not isinstance(a, VPolygon):
        raise SceneError("reduce works on 2D pairs")
    a1, b1 = reduce_pair(a, b)
    _emit({
        "command": "reduce",
        "names": _names(args.pair, 2),
        "zero_minimal": True,
        "certificate": {"first": set_json(a1), "second": set_json(b1)},
    })


def _cmd_minimal(scene, args):
    a, b = _pair(scene, args.pair)
    if not isinstance(a, VPolygon):
        raise SceneError("no 3D minimality decision is available")
    if a.cone.is_trivial:
        shared = shared_normals(a, b)
        verdict = is_minimal_bounded(a, b)
        note = f"{len(shared)} shared normal" + ("" if len(shared) == 1 else "s")
        cert = {"shared_normals": [list(u) for u in shared]}
    else:
        verdict = is_zero_minimal(a, b)
        note = "0-minimality criterion"
        cert = None
    out = {"command": "minimal", "names": _names(args.pair, 2), "minimal": verdict, "note": note}
    if cert is not None:
        out["certificate"] = cert
    _emit(out)


def _cmd_summand(scene, args):
    p, k = _pair(scene, args.pair)
    out = {"command": "summand", "names": _names(args.pair, 2)}
    if isinstance(p, VPolygon):
        if p.cone.is_trivial and not k.cone.is_trivial:
            verdict = polygon_summand_check(p, k)
            comp = None
        else:
            verdict, comp = is_summand(p, k)
        out["summand"] = verdict
        if comp is not None:
            out["certificate"] = {"complement": set_json(comp)}
    else:
        out["summand"] = summand_criterion3(p, k)
    _emit(out)


def _cmd_reduced(scene, args):
    a, b = _pair(scene, args.pair)
    out = {"command": "reduced", "names": _names(args.pair, 2)}
    if isinstance(a, VPolygon):
        shared = shared_normals(a, b)
        out["reduced"] = not shared
        out["certificate"] = {"shared_normals": [list(u) for u in shared]}
    else:
        pairs = equiparallel_edges(a, b)
        out["reduced"] = not pairs
        out["certificate"] = {
            "equiparallel_edges": [
                {
                    "first": [point_json(p) for p in ea.endpoints],
                    "second": [point_json(p) for p in eb.endpoints],
                }
                for ea, eb in pairs
            ]
        }
    _emit(out)


def _cmd_kernel(scene, args):
    a, b = _pair(scene, args.pair)
    if not isinstance(a, VPolygon):
        raise SceneError("kernel works on 2D pairs")
    chain = kernel_of_minimality(a, b)
    _emit({
        "command": "kernel",
        "names": _names(args.pair, 2),
        "kernel": [point_json(p) for p in chain.points],
    })


def _cmd_equiv(scene, args):
    names = _names(args.pairs, 4)
    sets = [scene.lookup_set(n) for n in names]
    if len({type(s) for s in sets}) != 1:
        raise SceneError("equiv mixes 2D and 3D sets")
    if isinstance(sets[0], VPolygon):
        verdict = are_equivalent(*sets)
    else:
        verdict = are_equivalent3(*sets)
    _emit({"command": "equiv", "names": names, "equivalent": verdict})


def _cmd_dcmin(scene, args):
    g, h = (scene.lookup_function(n) for n in _names(args.pair, 2))
    try:
        pair = DcPair(g, h)
    except GeometryError as exc:
        raise SceneError(str(exc)) from exc
    out = hartman_minimize(pair)
    _emit({
        "command": "dcmin",
        "names": _names(args.pair, 2),
        "hartman_minimal": is_hartman_minimal(to_hypograph_set(out.g), to_hypograph_set(out.h)),
        "certificate": {"g_min": function_json(out.g), "h_min": function_json(out.h)},
    })


def _cmd_render(scene, args):
    names = _names(args.sets)
    objects = {n: scene.lookup_set(n) for n in names}
    viewport = _rationals(args.viewport, 4, "viewport must be xmin,ymin,xmax,ymax")
    project = _rationals(args.project, 3, "projection must be dx,dy,dz")
    document = svgmod.render(objects, viewport=viewport, project=project)
    _write_out(args.out or "-", document)


# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="minkpair",
        description="Exact Minkowski calculus on pairs of convex sets sharing a recession cone.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, **flags):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--scene", required=True, help="scene JSON file")
        for flag, kwargs in flags.items():
            sp.add_argument(flag, **kwargs)
        sp.set_defaults(handler=handler)
        return sp

    add("sum", _cmd_sum, "Minkowski sum of two sets",
        **{"--sets": dict(required=True, help="X,Y"),
           "--out": dict(default="-", help="output path or -")})
    add("reduce", _cmd_reduce, "equivalent 0-minimal pair",
        **{"--pair": dict(required=True, help="A,B")})
    add("minimal", _cmd_minimal, "minimality of a 2D pair",
        **{"--pair": dict(required=True, help="A,B")})
    add("summand", _cmd_summand, "summand test",
        **{"--pair": dict(required=True, help="P,K")})
    add("reduced", _cmd_reduced, "reduced-pair criterion",
        **{"--pair": dict(required=True, help="A,B")})
    add("kernel", _cmd_kernel, "kernel of minimality of a 0-minimal 2D pair",
        **{"--pair": dict(required=True, help="A,B")})
    add("equiv", _cmd_equiv, "pair equivalence (A,B) ~ (C,D)",
        **{"--pairs": dict(required=True, help="A,B,C,D")})
    add("dcmin", _cmd_dcmin, "Hartman-minimal dc representation",
        **{"--pair": dict(required=True, help="g,h function names")})
    add("render", _cmd_render, "SVG rendering",
        **{"--sets": dict(required=True, help="names to draw"),
           "--out": dict(default="-", help="output path or -"),
           "--viewport": dict(default=None, help="xmin,ymin,xmax,ymax"),
           "--project": dict(default=None, help="dx,dy,dz projection for 3D sets")})
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        scene = load_scene(args.scene)
        args.handler(scene, args)
    except (SceneError, GeometryError, OSError) as exc:
        print(f"minkpair: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""File-driven command line front end.

Every subcommand reads a scene file, runs one library operation and prints a
deterministic JSON verdict (or writes a scene fragment / SVG via --out).
Exit code 0 means a verdict was computed, true or false alike; malformed
input exits 2.

The verdict subcommands are the rows of `VERDICTS`, all run by `_verdict`:
operands resolved once (`_operands`, which `sum` and `render` share), 3D sets
refused for 2D-only rows, and the row's own keys printed in one document.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections import namedtuple

from .core import GeometryError, parse_rational
from .planar import (
    VPolygon, are_equivalent, is_minimal_bounded, is_summand, is_zero_minimal,
    kernel_of_minimality, minkowski_sum, polygon_summand_check, reduce_pair, shared_normals,
)
from .spatial import are_equivalent3, equiparallel_edges, minkowski_sum3, summand_criterion3
from .dc import DcPair, hartman_minimize, is_hartman_minimal, to_hypograph_set
from .scene import SceneError, dump_scene, function_json, load_scene, point_json, set_json
from . import svg as svgmod


def _operands(scene, text, count=None, functions=False):
    """(names, what they name): the names an option lists, each looked up once.

    A fixed count of names is a pair or two pairs, which must not mix 2D and
    3D sets; render's open list may.
    """
    names = [p.strip() for p in text.split(",")]
    if any(not p for p in names):
        raise SceneError(f"bad name list {text!r}")
    if count is not None and len(names) != count:
        raise SceneError(f"expected {count} comma-separated names, got {len(names)}")
    lookup = scene.lookup_function if functions else scene.lookup_set
    found = [lookup(n) for n in names]
    if count is not None and len({type(x) for x in found}) > 1:
        raise SceneError("operands mix 2D and 3D sets")
    return names, found


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
# verdict subcommands: each maps its operands to its own keys

def _shared(normals):
    return {"shared_normals": [list(u) for u in normals]}


def _reduce(a, b):
    a1, b1 = reduce_pair(a, b)
    return {"zero_minimal": True, "certificate": {"first": set_json(a1), "second": set_json(b1)}}


def _minimal(a, b):
    if not a.cone.is_trivial:
        return {"minimal": is_zero_minimal(a, b), "note": "0-minimality criterion"}
    shared = shared_normals(a, b)
    note = f"{len(shared)} shared normal" + ("" if len(shared) == 1 else "s")
    return {"minimal": is_minimal_bounded(a, b), "note": note, "certificate": _shared(shared)}


def _summand(p, k):
    if not isinstance(p, VPolygon):
        return {"summand": summand_criterion3(p, k)}
    if p.cone.is_trivial and not k.cone.is_trivial:
        return {"summand": polygon_summand_check(p, k)}
    verdict, comp = is_summand(p, k)
    if comp is None:
        return {"summand": verdict}
    return {"summand": verdict, "certificate": {"complement": set_json(comp)}}


def _reduced(a, b):
    if isinstance(a, VPolygon):
        shared = shared_normals(a, b)
        return {"reduced": not shared, "certificate": _shared(shared)}
    pairs = equiparallel_edges(a, b)
    edges = [{"first": [point_json(p) for p in ea.endpoints],
              "second": [point_json(p) for p in eb.endpoints]} for ea, eb in pairs]
    return {"reduced": not pairs, "certificate": {"equiparallel_edges": edges}}


def _kernel(a, b):
    return {"kernel": [point_json(p) for p in kernel_of_minimality(a, b).points]}


def _equiv(a, b, c, d):
    equivalent = are_equivalent if isinstance(a, VPolygon) else are_equivalent3
    return {"equivalent": equivalent(a, b, c, d)}


def _dcmin(g, h):
    out = hartman_minimize(DcPair(g, h))
    return {
        "hartman_minimal": is_hartman_minimal(to_hypograph_set(out.g), to_hypograph_set(out.h)),
        "certificate": {"g_min": function_json(out.g), "h_min": function_json(out.h)},
    }


# A verdict subcommand: its operand option ("--pair" or "--pairs") takes `count`
# names of sets, or of functions if `functions`, of 2D sets only if `planar`;
# `run` maps the operands to the document's keys besides "command" and "names".
Verdict = namedtuple("Verdict", "name help option names_help count functions planar run")

VERDICTS = [Verdict(*row) for row in (
    ("reduce", "equivalent 0-minimal pair", "--pair", "A,B", 2, False, True, _reduce),
    ("minimal", "minimality of a 2D pair", "--pair", "A,B", 2, False, True, _minimal),
    ("summand", "summand test", "--pair", "P,K", 2, False, False, _summand),
    ("reduced", "reduced-pair criterion", "--pair", "A,B", 2, False, False, _reduced),
    ("kernel", "kernel of minimality of a 0-minimal 2D pair", "--pair", "A,B", 2, False, True,
     _kernel),
    ("equiv", "pair equivalence (A,B) ~ (C,D)", "--pairs", "A,B,C,D", 4, False, False, _equiv),
    ("dcmin", "Hartman-minimal dc representation", "--pair", "g,h function names", 2, True, False,
     _dcmin),
)]


def _verdict(row, scene, args):
    names, operands = _operands(scene, getattr(args, row.option[2:]), row.count, row.functions)
    if row.planar and not isinstance(operands[0], VPolygon):
        raise SceneError(f"{row.name} works on 2D pairs")
    payload = {"command": row.name, "names": names, **row.run(*operands)}
    try:
        text = json.dumps(payload, indent=1, sort_keys=True) + "\n"
    except ValueError:  # an integer past sys.get_int_max_str_digits()
        limit = sys.get_int_max_str_digits()
        raise GeometryError(f"number too long to print: over {limit} digits") from None
    sys.stdout.write(text)


def _cmd_sum(scene, args):
    names, (x, y) = _operands(scene, args.sets, 2)
    total = minkowski_sum(x, y) if isinstance(x, VPolygon) else minkowski_sum3(x, y)
    _write_out(args.out or "-", dump_scene(sets={"+".join(names): total}))


def _cmd_render(scene, args):
    names, found = _operands(scene, args.sets)
    viewport = _rationals(args.viewport, 4, "viewport must be xmin,ymin,xmax,ymax")
    project = _rationals(args.project, 3, "projection must be dx,dy,dz")
    document = svgmod.render(dict(zip(names, found)), viewport=viewport, project=project)
    _write_out(args.out or "-", document)


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

    add("sum", _cmd_sum, "Minkowski sum of two sets",
        **{"--sets": dict(required=True, help="X,Y"),
           "--out": dict(default="-", help="output path or -")})
    for row in VERDICTS:
        add(row.name, functools.partial(_verdict, row), row.help,
            **{row.option: dict(required=True, help=row.names_help)})
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

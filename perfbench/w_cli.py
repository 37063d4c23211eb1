"""cli: one `python -m minkpair` subprocess per invocation, interpreter start-up included.

Why: the only workload that measures `cli`, `scene`, `svg` and import cost,
and where building only the named sets of a scene would show.

Every subcommand runs once or more, over the four shipped scenes (their
stdout bytes are checked against the recorded reference on every seed) and
over generated scenes: a 2D wedge scene (the only one that runs `reduce` and
`kernel`), a 3D scene with many sets of which each command names two, and a
dc scene.  The pool is kept to 20 invocations, so that a 25-second run
makes the 5 passes the 100-operation floor needs even on a machine running
at a third of its full speed.
The cheap 2D and dc invocations are over half of the pool, so the median
sits inside their cluster, and the p90 inside the cluster of 3D invocations.
Generated invocations are checked on the
verdict their construction fixes (P is a summand of P + Q, (P, Q) ~ (P + M,
Q + M), a pair with disjoint normals and the origin on the second chain is
0-minimal, ...) and, on the default seed, on the recorded stdout bytes.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import subprocess
import sys
from pathlib import Path

from minkpair import cli, planar

import gen
from harness import Op, Probe, vec

SHIPPED = (
    ("ex29", "equiv", "--pairs", "A,B,E,F"),
    ("ex29", "summand", "--pair", "B,A"),
    ("ex29", "render", "--sets", "A,B,E,F", "--project", "0,0,-1"),
    ("ex73", "reduced", "--pair", "A,B"),
    ("ex73", "sum", "--sets", "A,B"),
    ("ex210", "equiv", "--pairs", "A0,B0,A,B"),
    ("ex210", "minimal", "--pair", "A,B"),
    ("ex210", "render", "--sets", "A,B"),
    ("dc_examples", "dcmin", "--pair", "g0,h0"),
)
FILLER_SETS = 6  # 3D sets no command names; every invocation still builds them


def _field(name, want):
    return lambda out: json.loads(out)[name] is want


def _svg(out):
    return out.startswith("<?xml") and "<svg " in out and out.rstrip().endswith("</svg>")


def _scene_fragment(name, dim):
    def check(out):
        spec = json.loads(out)["sets"][name]
        return spec["dim"] == dim and len(spec["points"]) >= 1
    return check


def _kernel_through_origin(out):
    return ["0", "0"] in json.loads(out)["kernel"]


def _set_spec(points, cone, dim):
    return {"dim": dim, "points": [vec(p) for p in points], "cone": [vec(g) for g in cone.gens]}


def _sums(xs, ys):
    return sorted({tuple(a + b for a, b in zip(x, y)) for x in xs for y in ys})


def _scene_2d(rng):
    cone = gen.wedge(rng)
    while True:
        p = gen.polygon_points(rng, 6)
        if planar.from_points(p, cone).measure.entries:
            break
    q, m = gen.polygon_points(rng, 6), gen.polygon_points(rng, 4)
    z1 = planar.from_points(gen.polygon_points(rng, 6), cone)
    pivot = z1.chain[0]
    z1_points = [gen.sub(v, pivot) for v in z1.chain]
    while True:
        z0_points = gen.polygon_points(rng, 6)
        z0 = planar.from_points(z0_points, cone)
        if not set(z0.measure.directions()) & set(z1.measure.directions()):
            break
    sets = {"P": p, "Q": q, "M": m, "S": _sums(p, q), "PM": _sums(p, m), "QM": _sums(q, m),
            "Z0": z0_points, "Z1": z1_points}
    doc = {"sets": {n: _set_spec(pts, cone, 2) for n, pts in sets.items()}}
    commands = (
        (("summand", "--pair", "P,S"), _field("summand", True)),
        (("reduce", "--pair", "P,Q"), _field("zero_minimal", True)),
        (("minimal", "--pair", "Z0,Z1"), _field("minimal", True)),
        (("kernel", "--pair", "Z0,Z1"), _kernel_through_origin),
        (("reduced", "--pair", "P,S"), _field("reduced", False)),
        (("equiv", "--pairs", "P,Q,PM,QM"), _field("equivalent", True)),
    )
    return doc, commands


def _scene_3d(rng):
    """Lifted points keep every input point a vertex, so no set is built here.

    The sets are small, so these invocations cost about as much as the fixed
    ones on the shipped 3D scenes, and the p90 moves little with the seed.
    """
    cone = gen.upward_cone3("ray")
    x, y, m = (gen.lifted_points(rng, n) for n in (3, 2, 2))
    sets = {"X": x, "Y": y, "M": m, "XY": _sums(x, y), "XM": _sums(x, m), "YM": _sums(y, m)}
    for i in range(FILLER_SETS):
        sets[f"F{i}"] = gen.points3(rng, 4)
    doc = {"sets": {n: _set_spec(pts, cone, 3) for n, pts in sets.items()}}
    commands = (
        (("summand", "--pair", "X,XY"), _field("summand", True)),
        (("equiv", "--pairs", "X,Y,XM,YM"), _field("equivalent", True)),
        (("sum", "--sets", "X,Y"), _scene_fragment("X+Y", 3)),
        (("render", "--sets", "X,Y", "--project", "1,2,3"), _svg),
    )
    return doc, commands


def _scene_dc(rng):
    functions = {}
    for name in ("g", "h"):
        xs, ys = gen.pl_convex(rng)
        functions[name] = {"domain": vec((xs[0], xs[-1])), "breakpoints": vec(xs), "values": vec(ys)}
    verdict = _field("hartman_minimal", True)
    return {"functions": functions}, ((("dcmin", "--pair", "g,h"), verdict),)


def _env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return env


def startup_probe(root):
    """Bare interpreter start-up, the cost every invocation shares: it slows
    with the invocations when the machine does, in whichever process and on
    whichever CPU they run.  36 ms is its fastest time on a shared 2-vCPU
    virtual machine with Python 3.11.7."""
    env = _env(root)

    def work():
        subprocess.run([sys.executable, "-c", "pass"], cwd=root, env=env, check=True,
                       stdout=subprocess.DEVNULL, timeout=60)
    return Probe(work, 36e-3)


def _subprocess_runner(root):
    env = _env(root)

    def run(argv):
        done = subprocess.run([sys.executable, "-m", "minkpair", *argv], cwd=root, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120)
        return done.returncode, done.stdout.decode()
    return run


def run_in_process(argv):
    """`cli.main(argv)` with stdout captured, as the traced run calls it."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


def draw(seed, workdir, root, in_process=False):
    """Builders for the invocation ops; the generated scenes are drawn here,
    untimed, and each pass writes them under `workdir` as its set-up."""
    run = run_in_process if in_process else _subprocess_runner(root)
    rng = gen.rng_for("cli", seed)

    def op(key, argv, verdict):
        return Op(key,
                  run=lambda: run(argv),
                  check=lambda r: r[0] == 0 and verdict(r[1]),
                  canon=lambda r: r[1])

    def shipped():
        return [op(f"shipped/{scene}/{'-'.join(argv)}",
                   [argv[0], "--scene", str(root / "scenes" / f"{scene}.json"), *argv[1:]],
                   lambda out: True)
                for scene, *argv in SHIPPED]

    def generated(name, doc, commands):
        path = Path(workdir) / f"{name}.json"
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        return [op(f"{name}/{'-'.join(argv)}", [argv[0], "--scene", str(path), *argv[1:]], verdict)
                for argv, verdict in commands]

    builders = [shipped]
    scenes = (("gen2d", _scene_2d), ("gen3d", _scene_3d), ("gendc", _scene_dc))
    for name, make in scenes:
        builders.append(functools.partial(generated, name, *make(rng)))
    return builders

import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from minkpair.core import Cone2, Cone3, cross2, normalize_direction, vadd, vneg, vscale
from minkpair.planar import ORIGIN, EdgeMeasure, VPolygon, from_points, translate

TESTS = Path(__file__).resolve().parent
SCENES = TESTS.parent / "scenes"
GIB = 1 << 30


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def rand_direction(rng, lim=4):
    while True:
        v = (rng.randint(-lim, lim), rng.randint(-lim, lim))
        if v != (0, 0):
            return normalize_direction(v)


def rand_wedge(rng, lim=4):
    while True:
        a, b = rand_direction(rng, lim), rand_direction(rng, lim)
        c = cross2(a, b)
        if c == 0:
            continue
        return Cone2((a, b)) if c > 0 else Cone2((b, a))


def rand_cone2(rng):
    roll = rng.random()
    if roll < 0.2:
        return Cone2(())
    if roll < 0.5:
        return Cone2((rand_direction(rng),))
    return rand_wedge(rng)


def rand_point(rng, lim=9):
    den = rng.choice((1, 1, 2))
    return (Fraction(rng.randint(-lim, lim), den), Fraction(rng.randint(-lim, lim), den))


def rand_vpolygon(rng, cone, max_points=8, lim=9):
    pts = [rand_point(rng, lim) for _ in range(rng.randint(1, max_points))]
    return from_points(pts, cone)


def rand_polar_interior_dir(rng, cone):
    """Random primitive direction in the open polar of the cone."""
    if cone.is_trivial:
        return rand_direction(rng)
    if len(cone.gens) == 1:
        g = cone.gens[0]
        from minkpair.core import rot90

        return normalize_direction(vadd(vscale(rng.randint(-5, 5), rot90(g)), vscale(rng.randint(1, 5), vneg(g))))
    rb, ra = cone.polar_boundary_rays()
    return normalize_direction(vadd(vscale(rng.randint(1, 6), rb), vscale(rng.randint(1, 6), ra)))


def rand_measure(rng, cone, max_dirs=5):
    dirs = set()
    for _ in range(rng.randint(0, max_dirs)):
        dirs.add(rand_polar_interior_dir(rng, cone))
    return EdgeMeasure.from_entries(
        {u: Fraction(rng.randint(1, 6), rng.choice((1, 2))) for u in dirs}
    )


def poly_with_origin_on_chain(rng, cone, measure):
    """V-polygon with the given measure and the origin on its minimal chain."""
    poly = VPolygon(cone, ORIGIN, measure)
    pivot = rng.choice(poly.chain)
    return translate(poly, vneg(pivot))


def rand_cone3(rng):
    roll = rng.random()
    if roll < 0.3:
        return Cone3.from_generators([])
    if roll < 0.6:
        return Cone3.from_generators([(0, 0, -1)])
    while True:
        gens = [
            (rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-2, -1))
            for _ in range(rng.randint(1, 3))
        ]
        gens = [g for g in gens if g != (0, 0, 0)]
        if not gens:
            continue
        try:
            return Cone3.from_generators(gens)
        except Exception:
            continue


def rand_points3(rng, n, lim=4):
    return [tuple(Fraction(rng.randint(-lim, lim)) for _ in range(3)) for _ in range(n)]


def run_capped(body, timeout=60):
    """Run the Python source `body` in a child interpreter whose address space
    is capped at 1 GiB, with minkpair and the test helpers importable.

    An exact-arithmetic blow-up then fails with `MemoryError` or the timeout
    instead of taking the test runner down.  Returns the child's stdout;
    fails the test on a nonzero exit.
    """
    code = f"import resource\nresource.setrlimit(resource.RLIMIT_AS, ({GIB}, {GIB}))\n"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(TESTS.parent / "src"), str(TESTS)]))
    done = subprocess.run([sys.executable, "-c", code + textwrap.dedent(body)], env=env,
                          capture_output=True, text=True, timeout=timeout)
    assert done.returncode == 0, done.stderr
    return done.stdout

"""Scaling report (not gated): where the cost curves of the hot layers stand.

- `summand_criterion3` on bounded P with K = P + L at growing (|P|, |K|);
  the sweep stops at the first size whose time passes the per-point cap, so
  large sizes are reached only once they are cheap;
- `hull3` on clouds of 50, 200 and 800 points;
- `core.linear_feasible` by row count, on the homogeneous strict systems in
  two variables that the perp-plane tests build.

Every timing is one call, untraced; every result is checked.
"""

from __future__ import annotations

import time

from minkpair import core, spatial

import gen

POINT_CAP_S = 2.0
SUMMAND_SIZES = ((4, 3), (6, 4), (8, 5), (11, 6), (14, 7), (17, 8))  # (|P|, |L|) vertices
HULL_SIZES = (50, 200, 800)
ROWS = (4, 8, 16, 32, 64)


def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def summand_curve(rng):
    points = []
    cone = core.Cone3.from_generators([])
    for p_size, l_size in SUMMAND_SIZES:
        p = spatial.from_points3(gen.lifted_points(rng, p_size, radius=6), cone)
        l = spatial.from_points3(gen.lifted_points(rng, l_size, radius=6), cone)
        k = spatial.minkowski_sum3(p, l)
        ok, seconds = _timed(lambda: spatial.summand_criterion3(p, k))
        points.append({"P": len(p.bounded.vertices), "K": len(k.bounded.vertices),
                       "s": seconds, "ok": ok is True})
        if seconds > POINT_CAP_S:
            break
    return points


def hull_curve(rng):
    points = []
    for n in HULL_SIZES:
        verts, cloud = gen.lifted_cloud(rng, n, max(8, n // 16), radius=12)
        hull, seconds = _timed(lambda: spatial.hull3(cloud))
        points.append({"n": n, "s": seconds, "ok": set(hull.vertices) == set(verts)})
    return points


def feasibility_curve(rng):
    """Strict rows <a_i, u> < 0 in two variables around a hidden solution u*, plus
    the axis row that selects u*'s side, as `cone_strictly_feasible` adds it."""
    points = []
    for rows in ROWS:
        star = (rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(-5, 5))
        system = [((1 if star[0] < 0 else -1, 0), "<", 0)]
        while len(system) < rows:
            a = (rng.randint(-9, 9), rng.randint(-9, 9))
            if gen.dot(a, star) < 0:
                system.append((a, "<", 0))
        ok, seconds = _timed(lambda: core.linear_feasible(system, 2))
        points.append({"rows": rows, "s": seconds, "ok": ok is True})
    return points


def report(seed):
    rng = gen.rng_for("scaling", seed)
    return {
        "summand_criterion3": summand_curve(rng),
        "hull3": hull_curve(rng),
        "linear_feasible_2var": feasibility_curve(rng),
    }

"""planar: the 2D pair calculus and the dc functions, about a millisecond per operation.

Why: this workload never reaches `hull3` or perp-plane feasibility, so it is
the control for every 3D change.  `VPolygon.contains` calls
`core.linear_feasible` with one or two variables, the same layer used for tiny
systems, so a shared feasibility primitive that slows them shows here.

One operation is one instance of one of five shapes, in round-robin order:
- reduce: `reduce_pair` of a random wedge pair; checked by measure and anchor
  arithmetic (A1 + B == B1 + A), disjoint measures and the origin on B1's chain;
- summand: `is_summand(A, A + B)`, which must return (True, B);
- polygon: `polygon_summand_check(P, K)`; true by construction for K = P + M,
  else it must agree with `is_summand` on P extended by K's cone;
- dc: `hartman_minimize` then `is_hartman_minimal`; checked on a 201-point grid
  (f unchanged, h >= 0, h(0) = 0) and on one fixed fixture with a frozen answer;
- duality: support and `contains` queries on a freshly built sum A + B; checked
  by support additivity over the chains and by recession-cone membership.

The points are drawn once per run; every pass builds the polygons and dc
functions from them, and that build is the timed set-up.  A polygon's chain
is computed lazily, so an op that needs it pays for it on every pass.
"""

from __future__ import annotations

from fractions import Fraction

from minkpair import core, dc, planar

import gen
import harness
from harness import Op

F = Fraction
PER_SHAPE = 100
GRID = tuple(F(k, 100) - 1 for k in range(201))
FIXTURE = (
    ((-1, F(-1, 2), 0, F(1, 2), 1), (1, 0, F(-1, 2), 0, 1)),
    ((-1, F(-1, 2), F(1, 2), 1), (1, 0, 0, 1)),
)
FIXTURE_ANSWER = (((-1, 0, 1), (F(1, 2), F(-1, 2), F(1, 2))),
                  ((-1, F(-1, 2), F(1, 2), 1), (F(1, 2), 0, 0, F(1, 2))))


def _add(ma, mb):
    out = dict(ma)
    for u, lam in mb.items():
        out[u] = out.get(u, 0) + lam
    return {u: lam for u, lam in out.items() if lam}


def _on_chain(chain, x):
    if len(chain) == 1:
        return chain[0] == x
    for p, q in zip(chain, chain[1:]):
        d, w = gen.sub(q, p), gen.sub(x, p)
        if d[0] * w[1] - d[1] * w[0] == 0 and 0 <= gen.dot(d, w) <= gen.dot(d, d):
            return True
    return False


def _reduce_ok(result, a, b):
    a1, b1 = result
    m_a, m_b, m_a1, m_b1 = (x.measure.as_dict() for x in (a, b, a1, b1))
    return (
        not set(m_a1) & set(m_b1)
        and _add(m_a1, m_b) == _add(m_b1, m_a)
        and tuple(x + y for x, y in zip(a1.anchor, b.anchor))
        == tuple(x + y for x, y in zip(b1.anchor, a.anchor))
        and _on_chain(b1.chain, (0, 0))
    )


def _support(chain, u):
    return max(gen.dot(p, u) for p in chain)


def _reduce_op(rng, i):
    cone = gen.wedge(rng)
    a_points, b_points = gen.polygon_points(rng), gen.polygon_points(rng)

    def build():
        a, b = planar.from_points(a_points, cone), planar.from_points(b_points, cone)
        return Op(f"reduce/{i:03d}",
                  run=lambda: planar.reduce_pair(a, b),
                  check=lambda r: _reduce_ok(r, a, b),
                  canon=lambda r: [harness.polygon(x) for x in r])
    return build


def _summand_op(rng, i):
    cone = gen.cone2(rng)
    a_points, b_points = gen.polygon_points(rng, 6), gen.polygon_points(rng, 6)

    def build():
        a, b = planar.from_points(a_points, cone), planar.from_points(b_points, cone)
        s = planar.minkowski_sum(a, b)
        return Op(f"summand/{i:03d}",
                  run=lambda: planar.is_summand(a, s),
                  check=lambda r: r[0] is True and r[1] == b,
                  canon=lambda r: [r[0], harness.polygon(r[1])])
    return build


def _polygon_op(rng, i):
    cone = gen.cone2(rng)
    p_points = gen.polygon_points(rng, 4, 5)
    constructed = i % 2 == 0
    k_points = gen.polygon_points(rng, 5, 6) if constructed else gen.polygon_points(rng, 5)

    def build():
        p = planar.from_points(p_points, core.Cone2(()))
        k = planar.from_points(k_points, cone)
        if constructed:
            k = planar.minkowski_sum(planar.from_points(p.chain, cone), k)

        def check(r):
            if constructed:
                return r is True
            return r is planar.is_summand(planar.from_points(p.chain, cone), k)[0]

        return Op(f"polygon/{i:03d}",
                  run=lambda: planar.polygon_summand_check(p, k), check=check)
    return build


def _dc_op(rng, i):
    g_data, h_data = FIXTURE if i == 0 else (gen.pl_convex(rng), gen.pl_convex(rng))
    g0, h0 = dc.PLConvexFn(*g_data), dc.PLConvexFn(*h_data)
    expected = [g0(x) - h0(x) for x in GRID]  # the test oracle, computed once

    def build():
        g, h = dc.PLConvexFn(*g_data), dc.PLConvexFn(*h_data)

        def run():
            out = dc.hartman_minimize(dc.DcPair(g, h))
            return out, dc.is_hartman_minimal(dc.to_hypograph_set(out.g), dc.to_hypograph_set(out.h))

        def check(r):
            out, minimal = r
            if i == 0:
                return minimal and (out.g, out.h) == tuple(dc.PLConvexFn(*f) for f in FIXTURE_ANSWER)
            return (
                minimal is True
                and all(out.g(x) - out.h(x) == want for x, want in zip(GRID, expected))
                and all(out.h(x) >= 0 for x in GRID)
                and out.h(0) == 0
            )

        return Op(f"dc/{i:03d}", run=run, check=check,
                  canon=lambda r: [harness.pl_function(r[0].g), harness.pl_function(r[0].h), r[1]])
    return build


def _duality_op(rng, i):
    cone = gen.cone2(rng)
    a_points, b_points = gen.polygon_points(rng, 6), gen.polygon_points(rng, 6)
    dirs = [gen.polar_interior_dir(rng, cone) for _ in range(10)]
    free = gen.direction2(rng, 6)
    inside = [(g, k) for g in cone.gens for k in (1, 37)]
    away = gen.direction2(rng, 4)
    if cone.contains_vector(away):
        away = None

    def build():
        a, b = planar.from_points(a_points, cone), planar.from_points(b_points, cone)

        def run():
            s = planar.minkowski_sum(a, b)
            p = s.chain[0]
            return (
                [s.support(u)[0] for u in dirs],
                s.support(free)[0] != float("inf"),
                [s.contains((q[0] + k * g[0], q[1] + k * g[1]))
                 for q in (s.chain[0], s.chain[-1]) for g, k in inside],
                None if away is None else
                [s.contains((p[0] + k * away[0], p[1] + k * away[1])) for k in (1, 11, 1009)],
            )

        def check(r):
            values, finite, members, probes = r
            return (
                values == [_support(a.chain, u) + _support(b.chain, u) for u in dirs]
                and finite is cone.polar_contains(free)
                and all(members)
                and (probes is None or not all(probes))
            )

        return Op(f"duality/{i:03d}", run=run, check=check,
                  canon=lambda r: [[harness.rat(v) for v in r[0]], r[1], r[2], r[3]])
    return build


SHAPES = (_reduce_op, _summand_op, _polygon_op, _dc_op, _duality_op)


def draw(seed):
    """One builder per op; all drawing happens here, untimed."""
    rng = gen.rng_for("planar", seed)
    makers = [shape(rng, i) for i in range(PER_SHAPE) for shape in SHAPES]
    return [lambda make=make: [make()] for make in makers]

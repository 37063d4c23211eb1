"""summand3: `summand_criterion3` and `equiparallel_edges` on pre-built 3D sets.

Why: about 85% of the 3D summand time sits in `core` feasibility reached
through `_feasible_in_perp_plane`, so feasibility and normal-fan changes show
here.  A third of the instances are certified negatives, which exit early;
their share shows whether a change slows the early-exit path.

Each instance is a pair (P, K) under a trivial, a ray or a 3-generator cone,
and gives two operations: the summand test of P in K and the equiparallel
edge list of (P, K).
- positive: K = P + L, so P is a summand (every face is scanned) and every
  bounded edge of P has an equiparallel partner in K;
- negative: K is random, and no difference of two points of P is parallel to
  any supporting plane of K's points (checked by brute force), so no face of
  K holds a translate of an edge of P: P is not a summand and the pair has no
  equiparallel edges.

The points are drawn once per run; every pass builds P, L and K from them
(`from_points3`, `minkowski_sum3`), and that build is the timed set-up.
"""

from __future__ import annotations

import functools

from minkpair import spatial

import gen
import harness
from harness import Op

# 27 instances: the median op is the middle of 18 equiparallel-edge positives,
# so it moves little from seed to seed; a run makes four to six passes
POSITIVES_PER_KIND = 6
NEGATIVES_PER_KIND = 3
P_VERTICES, L_VERTICES, K_POINTS = 4, 3, 5


def _certified_negative_points(rng, p_points):
    diffs = [gen.sub(b, a) for a in p_points for b in p_points if a < b]
    while True:
        k_points = gen.points3(rng, K_POINTS)
        if not gen.is_full_dimensional(k_points):
            continue
        normals = gen.facet_normals(k_points)
        if all(gen.dot(n, d) != 0 for n in normals for d in diffs):
            return k_points


def _edges_parallel(pairs, p, k):
    pv, kv = set(p.bounded.vertices), set(k.bounded.vertices)
    return all(
        gen.cross(ea.vector, eb.vector) == (0, 0, 0)
        and set(ea.endpoints) <= pv and set(eb.endpoints) <= kv
        for ea, eb in pairs
    )


def _instance(tag, cone, p_points, other_points, positive):
    """Build P and K (K = P + L from L's points, or K's own points) and the two ops."""
    p = spatial.from_points3(p_points, cone)
    other = spatial.from_points3(other_points, cone)
    k = spatial.minkowski_sum3(p, other) if positive else other
    return [
        Op(f"summand/{tag}",
           run=lambda: spatial.summand_criterion3(p, k),
           check=lambda r: r is positive),
        Op(f"equiparallel/{tag}",
           run=lambda: spatial.equiparallel_edges(p, k),
           check=lambda r: bool(r) is positive and _edges_parallel(r, p, k),
           canon=harness.edge_pairs),
    ]


def draw(seed):
    """One builder per instance; all drawing and rejection happens here, untimed."""
    rng = gen.rng_for("summand3", seed)
    builders = []
    per_kind = POSITIVES_PER_KIND + NEGATIVES_PER_KIND
    for i in range(3 * per_kind):
        kind = gen.CONE3_KINDS[i % 3]
        positive = (i // 3) % 3 != 2  # two positives, then one negative, per kind
        cone = gen.cone3(rng, kind)
        p_points = gen.exact_points3(rng, P_VERTICES, cone)
        if positive:
            other = gen.exact_points3(rng, L_VERTICES, cone)
        else:
            other = _certified_negative_points(rng, p_points)
        tag = f"{i:03d}-{kind}-{'pos' if positive else 'neg'}"
        builders.append(functools.partial(_instance, tag, cone, p_points, other, positive))
    return builders

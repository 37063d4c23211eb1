"""A seeded corpus of exact construction results and verdicts, pinned by digests.

`records()` runs the families in `FAMILIES` in turn, each on its own
`random.Random` seeded from `SEED`, and yields one line per result:

- 3D constructions: the `repr` of each `from_points3`, `hull3` and
  `minkowski_sum3` result, followed by the `repr` of its `Polytope3.lattice`
  (which `repr` leaves out), and each `are_equivalent3` verdict;
- 3D criteria: `summand_criterion3` and `equiparallel_edges` (with the
  edges' endpoints) on drawn pairs, on constructed positives (P, P + Q) and
  on pairs whose K projects injectively along every exposed edge of P;
  `contains3` and `support3`;
- 2D: `from_points`, `minkowski_sum` and `translate` results with their
  `VPolygon.lattice`, `reduce_pair`, `is_summand`, `polygon_summand_check`,
  `contains` and `kernel_of_minimality`;
- dc: `hartman_minimize` and `is_hartman_minimal`.

The point clouds are full, flat, collinear, one-point or repeated, with int,
`Fraction` or mixed coordinates over denominators from 1 up to 2**61 - 1,
under the trivial cone, a ray, and cones of 2, 3 and 4 generators (planar:
trivial, ray and wedge).  A call that refuses its input records the
`GeometryError` message.  `digests()` hashes the records in chunks of
`CHUNK`, so that a changed result names its chunk.  Nothing here depends on
the hash seed: every set the library builds is sorted before it is printed.

    PYTHONPATH=src python tests/corpus.py > tests/corpus_digests.json

re-records the digests that `tests/test_corpus.py` checks.
"""

import hashlib
import json
import random
from fractions import Fraction

from minkpair.core import Cone2, Cone3, GeometryError, cross2, cross3, vadd, vsub
from minkpair.dc import DcPair, PLConvexFn, hartman_minimize, is_hartman_minimal, to_hypograph_set
from minkpair.planar import (
    VPolygon,
    from_points,
    is_summand,
    kernel_of_minimality,
    minkowski_sum,
    polygon_summand_check,
    reduce_pair,
    translate,
)
from minkpair.spatial import (
    are_equivalent3,
    bounded_edges,
    contains3,
    equiparallel_edges,
    from_points3,
    hull3,
    minkowski_sum3,
    summand_criterion3,
    support3,
)

SEED = 20261020
CASES = 150
CHUNK = 50
SMALL_DENS = (1, 2, 3, 5, 6, 7, 12)
LARGE_DENS = (2**13 - 1, 2**31 - 1, 10**9 + 7, 2**61 - 1)
SHAPES = ("full", "full", "flat", "collinear", "point", "repeated")


def _scalar(rng, kind, den, lim=6):
    """An int, or a `Fraction` over `den`, or either (kind "mixed")."""
    if kind == "mixed":
        kind = rng.choice(("int", "fraction"))
    if kind == "int":
        return rng.randint(-lim, lim)
    return Fraction(rng.randint(-lim * den, lim * den), den)


def _vector(rng, kind, den, dim=3):
    return tuple(_scalar(rng, kind, den) for _ in range(dim))


def _den(rng):
    return rng.choice(SMALL_DENS if rng.random() < 0.6 else LARGE_DENS)


def points(rng, dim=3, shapes=SHAPES):
    """A cloud of one of `shapes` with int, `Fraction` or mixed coordinates;
    "flat" spans a plane and "full" all `dim` dimensions."""
    shape, kind = rng.choice(shapes), rng.choice(("int", "fraction", "mixed"))
    den = _den(rng)
    rank = {"full": dim, "flat": 2, "collinear": 1, "point": 0, "repeated": dim}[shape]
    base = _vector(rng, kind, den, dim)
    axes = [_vector(rng, kind, den, dim) for _ in range(rank)]
    count = 1 if shape == "point" else rng.randint(rank + 1, 9)
    pts = [tuple(b + sum(rng.randint(-3, 3) * a[c] for a in axes) for c, b in enumerate(base))
           for _ in range(count)]
    if shape == "repeated":
        # each point again, as ints where it is integral, else as a Fraction
        pts += [tuple(int(x) if Fraction(x).denominator == 1 else Fraction(x) for x in p)
                for p in rng.choices(pts, k=rng.randint(1, len(pts)))]
        rng.shuffle(pts)
    return pts


def cone(rng, count):
    """A pointed cone with exactly `count` extreme generators."""
    while True:
        gens = [tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(count)]
        try:
            c = Cone3.from_generators([g for g in gens if any(g)])
        except GeometryError:
            continue
        if len(c.gens) == count:
            return c


def _set(result):
    return f"{result!r} {result.bounded.lattice!r}"


def _attempt(f, *args):
    """f(*args), or the message of the `GeometryError` it raises."""
    try:
        return f(*args)
    except GeometryError as err:
        return f"GeometryError: {err}"


def constructions3(rng):
    for case in range(CASES):
        c = cone(rng, (0, 1, 2, 3, 4)[case % 5])
        pts, qts, mts = points(rng), points(rng), points(rng)
        a, b, m = (from_points3(p, c) for p in (pts, qts, mts))
        yield f"from_points3 {case}: {_set(a)}"
        h = hull3(pts)
        yield f"hull3 {case}: {h!r} {h.lattice!r}"
        ab, am, bm = minkowski_sum3(a, b), minkowski_sum3(a, m), minkowski_sum3(b, m)
        yield f"minkowski_sum3 {case}: {_set(ab)}"
        yield f"minkowski_sum3 {case} shift: {_set(am)} {_set(bm)}"
        yield f"are_equivalent3 {case}: {are_equivalent3(a, b, am, bm)} " \
              f"{are_equivalent3(a, b, b, a)} {are_equivalent3(a, m, b, m)}"


def _injective(p, k):
    """No two vertices of k differ by a multiple of an exposed edge of p."""
    vs = k.bounded.vertices
    return all(any(cross3(vsub(v, w), e.vector)) for e in bounded_edges(p)
               for n, v in enumerate(vs) for w in vs[:n])


def _criteria3(p, k):
    return f"{summand_criterion3(p, k)} {equiparallel_edges(p, k)!r}"


def criteria3(rng):
    for case in range(CASES):
        c = cone(rng, (0, 1, 2, 3, 4)[case % 5])
        p, k, q = (from_points3(points(rng), c) for _ in range(3))
        yield f"criteria3 {case}: {_criteria3(p, k)} {_criteria3(k, p)}"
        pq = minkowski_sum3(p, q)
        yield f"criteria3 {case} positive: {_criteria3(p, pq)} {_criteria3(pq, k)}"
        # the scan's every perp-plane projection of k is one-to-one
        while not _injective(p, k := from_points3(points(rng, shapes=("full",)), c)):
            pass
        yield f"criteria3 {case} injective: {_criteria3(p, k)}"
        vs, den = k.bounded.vertices, _den(rng)
        xs = [*vs[:2], vadd(vs[0], vs[-1]), *(vadd(vs[-1], g) for g in c.gens),
              _vector(rng, "fraction", den), _vector(rng, "mixed", den)]
        draws = [_vector(rng, "int", 1) for _ in range(12)]
        us = [*c.gens, *(f.normal for f in k.bounded.facets[:3]), *draws[:3],
              *[u for u in draws if any(u) and c.polar_contains(u)][:3]]
        yield f"contains3 {case}: {[contains3(k, x) for x in xs]}"
        yield f"support3 {case}: {[support3(k, u) for u in us]}"


def cone2(rng, kind):
    """A planar cone of `kind` 0 (trivial), 1 (a ray) or 2 (a wedge)."""
    while True:
        gens = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(kind)]
        if all(any(g) for g in gens) and (kind < 2 or cross2(*gens)):
            return Cone2.from_generators(gens)


def _poly(a):
    return f"{a!r} {a.lattice!r}"


SHAPES2 = ("full", "full", "collinear", "point", "repeated")


def planar(rng):
    for case in range(CASES):
        c = cone2(rng, case % 3)
        a, b = (from_points(points(rng, 2, SHAPES2), c) for _ in range(2))
        s = minkowski_sum(a, b)
        yield f"from_points {case}: {_poly(a)} {_poly(b)}"
        yield f"minkowski_sum {case}: {_poly(s)}"
        v = _vector(rng, rng.choice(("int", "fraction", "mixed")), _den(rng), 2)
        # from a set whose lattice is built, and from one whose is not
        fresh = VPolygon(b.cone, b.anchor, b.measure)
        yield f"translate {case}: {_poly(translate(a, v))} {_poly(translate(fresh, v))}"
        red = _attempt(reduce_pair, s, minkowski_sum(b, from_points(points(rng, 2, SHAPES2), c)))
        kernel = red if isinstance(red, str) else kernel_of_minimality(*red)
        yield f"reduce_pair {case}: {red!r} {kernel!r}"
        yield f"is_summand {case}: {is_summand(a, s)!r} {is_summand(a, b)!r} {is_summand(s, a)[0]}"
        bounded = a if c.is_trivial else from_points(points(rng, 2, SHAPES2), Cone2(()))
        yield f"polygon_summand_check {case}: {polygon_summand_check(bounded, s)} " \
              f"{polygon_summand_check(bounded, a)}"
        chain, den = s.chain, _den(rng)
        xs = [chain[0], vadd(chain[0], chain[-1]), *(vadd(chain[-1], g) for g in c.gens),
              _vector(rng, "fraction", den, 2), _vector(rng, "mixed", den, 2)]
        yield f"contains {case}: {[s.contains(x) for x in xs]}"


def convex_fn(rng, lo, hi):
    """A convex piecewise-linear function on [lo, hi], some slopes repeated."""
    kind, den = rng.choice(("int", "fraction", "mixed")), _den(rng)
    inner = (lo + Fraction(rng.randint(1, 99), 100) * (hi - lo) for _ in range(rng.randint(0, 4)))
    xs = sorted({lo, hi, *inner})
    slope, ys = Fraction(_scalar(rng, kind, den)), [_scalar(rng, kind, den)]
    for x0, x1 in zip(xs, xs[1:]):
        ys.append(ys[-1] + slope * (x1 - x0))
        slope += abs(_scalar(rng, kind, den, 3))
    return PLConvexFn(xs, ys)


def dc(rng):
    for case in range(CASES):
        den = _den(rng)
        lo, hi = Fraction(-rng.randint(1, 3 * den), den), Fraction(rng.randint(1, 3 * den), den)
        g, h = convex_fn(rng, lo, hi), convex_fn(rng, lo, hi)
        m = hartman_minimize(DcPair(g, h))
        yield f"hartman_minimize {case}: {m!r}"
        a, b = to_hypograph_set(g), to_hypograph_set(h)
        yield f"is_hartman_minimal {case}: {is_hartman_minimal(a, b)} " \
              f"{is_hartman_minimal(*reduce_pair(a, b))} " \
              f"{is_hartman_minimal(to_hypograph_set(m.g), to_hypograph_set(m.h))}"


FAMILIES = (constructions3, criteria3, planar, dc)


def records():
    for n, family in enumerate(FAMILIES):
        yield from family(random.Random(SEED + n))


def digests():
    out, chunk = [], hashlib.sha256()
    for n, line in enumerate(records(), 1):
        chunk.update(line.encode() + b"\n")
        if n % CHUNK == 0:
            out.append(chunk.hexdigest())
            chunk = hashlib.sha256()
    if n % CHUNK:
        out.append(chunk.hexdigest())
    return out


if __name__ == "__main__":
    print(json.dumps(digests(), indent=1))

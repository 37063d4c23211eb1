"""A seeded corpus of exact 3D construction results, pinned by digests.

`records()` draws its inputs from one `random.Random(SEED)` and yields one
line per result:

- the `repr` of each `from_points3`, `hull3` and `minkowski_sum3` result,
  followed by the `repr` of its `Polytope3.lattice` (which `repr` leaves
  out);
- each `are_equivalent3` verdict.

The point clouds are full, flat, collinear, one-point or repeated, with int,
`Fraction` or mixed coordinates over denominators from 1 up to 2**61 - 1,
under the trivial cone, a ray, and cones of 2, 3 and 4 generators.
`digests()` hashes the records in chunks of `CHUNK`, so that a changed
canonical form names its chunk.  Nothing here depends on the hash seed:
every set the library builds is sorted before it is printed.

    PYTHONPATH=src python tests/corpus.py > tests/corpus_digests.json

re-records the digests that `tests/test_corpus.py` checks.
"""

import hashlib
import json
import random
from fractions import Fraction

from minkpair.core import Cone3, GeometryError
from minkpair.spatial import are_equivalent3, from_points3, hull3, minkowski_sum3

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


def _vector(rng, kind, den):
    return tuple(_scalar(rng, kind, den) for _ in range(3))


def points(rng):
    """A cloud of one of `SHAPES` with int, `Fraction` or mixed coordinates."""
    shape, kind = rng.choice(SHAPES), rng.choice(("int", "fraction", "mixed"))
    den = rng.choice(SMALL_DENS if rng.random() < 0.6 else LARGE_DENS)
    rank = {"full": 3, "flat": 2, "collinear": 1, "point": 0, "repeated": 3}[shape]
    base = _vector(rng, kind, den)
    axes = [_vector(rng, kind, den) for _ in range(rank)]
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


def records():
    rng = random.Random(SEED)
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

import itertools
import math
import random
import types
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from minkpair import core, spatial
from minkpair.core import (
    Cone2,
    Cone3,
    ConeMismatchError,
    GeometryError,
    cross3,
    dot,
    lattice,
    normalize_direction,
    vadd,
    vneg,
    vscale,
    vsub,
)
from minkpair.spatial import (
    Polytope3,
    _face_contains_translate,
    _vertex_survives,
    are_equivalent3,
    are_translates3,
    bounded_edges,
    contains3,
    equiparallel_edges,
    from_points3,
    hull3,
    minkowski_sum3,
    summand_criterion3,
    support3,
)
from minkpair.planar import is_summand, minkowski_sum, shared_normals
from conftest import (
    RING,
    rand_cone3,
    rand_direction,
    rand_points3,
    rand_vpolygon,
    rand_wedge,
    run_capped,
)
from oracles import (
    certified_negative,
    face_sweep_summand_criterion3,
    fm_contains3,
    fm_equiparallel_edges,
    fm_face_contains_translate,
    fm_vertex_survives,
    fraction_from_points3,
    fraction_hull3,
    hull_equivalent3,
)

F = Fraction
TRIV = Cone3.from_generators([])
DOWN = Cone3.from_generators([(0, 0, -1)])

CUBE = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
TETRA = [(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)]


def ex29():
    B = from_points3([(-1, -1, 0), (-1, 1, -1), (1, 1, 0), (1, -1, -1)], DOWN)
    A = from_points3(list(B.bounded.vertices) + [(-2, 0, -1), (2, 0, -1)], DOWN)
    Fv = from_points3([(0, -2, -1), (0, 0, 0), (0, 2, -1)], DOWN)
    E = from_points3(
        list(Fv.bounded.vertices) + [(-1, -1, -2), (-1, 1, -1), (1, 1, -2), (1, -1, -1)], DOWN
    )
    return A, B, E, Fv


def ex73():
    s1, s2, s3 = (1, -1, 0), (1, 0, -1), (0, 1, 1)
    A = from_points3(
        [tuple(e1 * a + e2 * b + e3 * c for a, b, c in zip(s1, s2, s3))
         for e1, e2, e3 in itertools.product((-1, 1), repeat=3)], TRIV)
    B = from_points3([(2, 0, 0), (-2, 0, 0), (0, 2, 0), (0, -2, 0), (0, 0, 2), (0, 0, -2)], TRIV)
    E = from_points3(
        sorted({p for pat in ([(x, y, 0) for x in (2, -2) for y in (2, -2)]
                              + [(x, 0, y) for x in (2, -2) for y in (2, -2)])
                for p in set(itertools.permutations(pat))
                if sorted(map(abs, p)) == [0, 2, 2]}), TRIV)
    Fh = from_points3([(2, 2, 0), (-2, -2, 0), (2, 0, 2), (-2, 0, -2), (0, 2, -2), (0, -2, 2)], TRIV)
    S = from_points3([(0, 0, 0), (0, 0, 2)], TRIV)
    C = minkowski_sum3(A, S)
    D = minkowski_sum3(B, S)
    return A, B, C, D, E, Fh


# ---------------------------------------------------------------------------
# hulls

def test_hull3_tetrahedron():
    t = hull3([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert t.dim == 3
    assert (len(t.vertices), len(t.facets), len(t.edges)) == (4, 4, 6)


def test_hull3_cube_drops_center():
    c = hull3(CUBE + [(F(1, 2), F(1, 2), F(1, 2))])
    assert len(c.vertices) == 8
    assert (len(c.facets), len(c.edges)) == (6, 12)
    assert len(c.vertices) - len(c.edges) + len(c.facets) == 2


def test_hull3_example_b_is_tetrahedron():
    b = hull3([(-1, -1, 0), (-1, 1, -1), (1, 1, 0), (1, -1, -1)])
    assert (len(b.vertices), len(b.facets), len(b.edges)) == (4, 4, 6)


def test_hull3_idempotent_and_order_insensitive():
    rng = random.Random(17)
    for _ in range(40):
        pts = rand_points3(rng, rng.randint(4, 8))
        h = hull3(pts)
        # interior samples: averages of vertex pairs
        extra = [vscale(F(1, 2), vadd(a, b)) for a, b in zip(h.vertices, h.vertices[1:])]
        shuffled = list(pts) + extra
        rng.shuffle(shuffled)
        h2 = hull3(shuffled)
        assert h2.vertices == hull3(h.vertices).vertices == h.vertices
        assert h2 == hull3(h.vertices)
        if h.dim == 3:
            assert len(h.vertices) - len(h.edges) + len(h.facets) == 2


def test_hull3_degenerate_forms():
    p = hull3([(1, 2, 3), (1, 2, 3)])
    assert p.dim == 0 and p.vertices == ((1, 2, 3),)
    s = hull3([(0, 0, 0), (2, 2, 2), (1, 1, 1)])
    assert s.dim == 1 and set(s.vertices) == {(0, 0, 0), (2, 2, 2)}
    hexa = hull3([(2, 2, 0), (-2, -2, 0), (2, 0, 2), (-2, 0, -2), (0, 2, -2), (0, -2, 2)])
    assert hexa.dim == 2 and len(hexa.vertices) == 6 and len(hexa.edges) == 6


# denominators up to 97, many of them coprime; numerators of 2**64 or more
DENOMINATORS = (1, 2, 3, 5, 7, 11, 13, 64, 81, 89, 91, 95, 96, 97)
HUGE = st.integers(2**64, 2**72) | st.integers(-(2**72), -(2**64))
SCALARS = (
    st.integers(-4, 4),
    st.builds(Fraction, st.integers(-40, 40), st.sampled_from(DENOMINATORS)),
    st.one_of(st.integers(-4, 4), HUGE, st.builds(Fraction, HUGE, st.sampled_from(DENOMINATORS))),
)


@st.composite
def point_sets(draw):
    """Integer, rational and huge clouds, and affine images of lattice
    patterns of rank 0 to 3 (a point, collinear, coplanar and full sets);
    both with repeated points."""
    scalar = draw(st.sampled_from(SCALARS))
    point = st.tuples(scalar, scalar, scalar)
    rank = draw(st.sampled_from(("cloud", 0, 1, 2, 3)))
    if rank == "cloud":
        pts = draw(st.lists(point, min_size=4, max_size=12))
    else:
        base = draw(point)
        axes = draw(st.lists(point.filter(lambda v: v != (0, 0, 0)), min_size=rank, max_size=rank))
        grid = st.tuples(*(st.integers(-3, 3) for _ in range(rank)))
        pts = [
            tuple(b + sum(t * a[c] for t, a in zip(ts, axes)) for c, b in enumerate(base))
            for ts in draw(st.lists(grid, min_size=2 * rank + 1, max_size=12))
        ]
    pts += draw(st.lists(st.sampled_from(pts), max_size=4))
    return draw(st.permutations(pts))


# a tetrahedron whose face z = 0 grows in its plane: beyond the corner
# (0, 0, 0), which then lies inside the merged facet; beyond (4, 0, 0) on an
# edge's line, which leaves collinear corners; and both on the flat face alone
FACE_GROWTH = (
    [(0, 0, 0), (4, 0, 0), (0, 4, 0), (1, 1, 3), (-1, -1, 0)],
    [(0, 0, 0), (4, 0, 0), (0, 4, 0), (1, 1, 3), (8, 0, 0)],
    [(0, 0, 0), (4, 0, 0), (0, 4, 0), (-1, -1, 0), (8, 0, 0)],
)


def _with_examples(test):
    for points in FACE_GROWTH:
        test = example(points)(test)
    return test


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(point_sets())
@_with_examples
def test_hull3_matches_fraction_oracle(points):
    h = hull3(points)
    assert h == fraction_hull3(points)
    assert all(type(x) is Fraction for v in h.vertices for x in v)
    assert all(type(f.offset) is Fraction for f in h.facets)


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(point_sets())
@_with_examples
def test_hull3_of_its_own_vertices_is_itself(points):
    h = hull3(points)
    assert hull3(h.vertices) == h


def lifted_cloud(rng, n, m, radius=8):
    """(vertices, cloud): m lattice points on z = x^2 + y^2, every one a
    vertex of their hull, plus n - m convex combinations of three of them,
    most of them interior and some on a facet."""
    xy = set()
    while len(xy) < m:
        xy.add((rng.randint(-radius, radius), rng.randint(-radius, radius)))
    verts = [(F(x), F(y), F(x * x + y * y)) for x, y in sorted(xy)]
    cloud = list(verts)
    while len(cloud) < n:
        picks = rng.sample(verts, 3)
        w = [rng.randint(1, 4) for _ in picks]
        cloud.append(tuple(sum(wi * p[c] for wi, p in zip(w, picks)) / sum(w) for c in range(3)))
    rng.shuffle(cloud)
    return verts, cloud


def lattice_box(rng):
    """A random subset of a box's lattice points holding its corners, so most
    of them lie on its facets and edges or inside."""
    a, b, c = (rng.randint(1, 4) for _ in range(3))
    grid = list(itertools.product(range(a + 1), range(b + 1), range(c + 1)))
    corners = list(itertools.product((0, a), (0, b), (0, c)))
    return corners + rng.sample(grid, rng.randint(len(grid) // 2, len(grid)))


def lattice_sum(rng):
    """Minkowski sum of three small lattice sets: many coplanar and repeated points."""
    parts = [rand_points3(rng, rng.randint(2, 5), lim=2) for _ in range(3)]
    return [vadd(vadd(a, b), c) for a in parts[0] for b in parts[1] for c in parts[2]]


def face_growth(rng):
    """A rational tetrahedron plus points in the plane of its face abc: beyond
    the corner a, so a lies inside the merged facet, and on the line of the
    edge ab beyond b, so the facet has collinear corners."""
    while True:
        a, b, c, d = (tuple(F(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in range(3)) for _ in range(4))
        if dot(cross3(vsub(b, a), vsub(c, a)), vsub(d, a)) != 0:
            break
    s, t, u = (F(rng.randint(1, 6), rng.randint(1, 3)) for _ in range(3))
    beyond_corner = vadd(a, vadd(vscale(s, vsub(a, b)), vscale(t, vsub(a, c))))
    beyond_edge = vadd(b, vscale(u, vsub(b, a)))
    return [a, b, c, d] + rng.sample([beyond_corner, beyond_edge], rng.randint(1, 2))


def test_hull3_matches_fraction_oracle_on_large_clouds():
    """Clouds far beyond `point_sets`: many interior points, and points on
    facets and edges, where insertion order and the facet merge matter; and
    tetrahedra whose faces grow in their planes."""
    rng = random.Random(113)
    full = [lifted_cloud(rng, rng.randint(40, 120), rng.randint(6, 20))[1] for _ in range(16)]
    full += [lattice_box(rng) for _ in range(16)] + [face_growth(rng) for _ in range(48)]
    for pts in full + [lattice_sum(rng) for _ in range(16)]:
        h = hull3(pts)
        assert h == fraction_hull3(pts)
        shuffled = list(pts)
        rng.shuffle(shuffled)
        assert hull3(shuffled) == h
    assert all(hull3(pts).dim == 3 for pts in full)


def test_hull3_orients_fewer_triangles_than_points(monkeypatch):
    """Extreme points go in first, so most interior points, and most points
    on a facet or an edge, orient no triangle: fewer triangles than points
    on a 400-point cloud with 24 vertices and on the 216 lattice points of a
    cube."""
    verts, cloud = lifted_cloud(random.Random(127), 400, 24)
    grid = list(itertools.product(range(6), repeat=3))
    calls = []
    # `oriented` divides each triangle normal by one `math.gcd` (in
    # `_primitive`), and no other code in `spatial` calls it while building
    # these hulls
    counting = types.SimpleNamespace(gcd=lambda *v: calls.append(v) or math.gcd(*v), lcm=math.lcm)
    monkeypatch.setattr(spatial, "math", counting)
    for pts, corners in ((cloud, verts), (grid, itertools.product((0, 5), repeat=3))):
        calls.clear()
        assert set(hull3(pts).vertices) == set(corners)
        assert 0 < len(calls) < len(set(pts))


def test_from_points3_matches_fraction_oracle_under_every_cone_kind():
    rng = random.Random(67)
    for kind in ("trivial", "ray", "three"):
        cone = cone_of_kind(rng, kind)
        for _ in range(6):
            pts = [tuple(F(rng.randint(-30, 30), rng.choice((1, 2, 3, 7))) for _ in range(3))
                   for _ in range(rng.randint(1, 14))]
            assert from_points3(pts, cone) == fraction_from_points3(pts, cone)


def test_vpolytope_prunes_absorbed_vertices():
    # point below the segment is swallowed by the downward cone
    P = from_points3([(0, 0, 0), (4, 0, 0), (2, 0, -5)], DOWN)
    assert set(P.bounded.vertices) == {(0, 0, 0), (4, 0, 0)}
    Q = from_points3([(0, 0, 0), (4, 0, 0), (2, 0, 5)], DOWN)
    assert len(Q.bounded.vertices) == 3


SMALL_VEC = st.tuples(*(st.integers(-2, 2) for _ in range(3))).filter(any)


def _pointed_cone(gens):
    try:
        return Cone3.from_generators(gens)
    except GeometryError:
        return None


def _cone_with(count):
    """Pointed cones with `count` extreme generators."""
    gens = st.lists(SMALL_VEC, min_size=count, max_size=count)
    return gens.map(_pointed_cone).filter(lambda c: c is not None and len(c.gens) == count)


# a trivial, ray, 3-generator or 4-generator cone
CONE_KINDS = st.one_of(st.just(TRIV), _cone_with(1), _cone_with(3), _cone_with(4))


@st.composite
def shaped_points(draw, den, max_size):
    """A full, flat, collinear or one-point set over the denominator `den`."""
    vec = st.tuples(*(st.builds(Fraction, st.integers(-6, 6), st.just(den)) for _ in range(3)))
    rank = draw(st.sampled_from((3, 3, 2, 1, 0)))
    base = draw(vec)
    axes = draw(st.lists(vec.filter(any), min_size=rank, max_size=rank))
    grid = st.tuples(*(st.integers(-3, 3) for _ in axes))
    return [tuple(b + sum(t * a[c] for t, a in zip(ts, axes)) for c, b in enumerate(base))
            for ts in draw(st.lists(grid, min_size=rank + 1, max_size=max_size))]


@st.composite
def survival_cases(draw):
    """A full, flat, collinear or one-point hull over one denominator up to 7,
    under any cone kind."""
    pts = draw(shaped_points(draw(st.integers(1, 7)), 9))
    return pts, draw(CONE_KINDS)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(survival_cases())
def test_vertex_survival_matches_vertex_list_oracle(case):
    """The rows to a vertex's hull neighbours decide survival as
    Fourier-Motzkin on "u exposes this vertex alone, in the open polar" over
    all the vertices does."""
    pts, cone = case
    q = hull3(pts)
    lat = lattice(q.vertices)[1]
    for i in range(len(q.vertices)):
        rows = [vsub(lat[b if a == i else a], lat[i]) for a, b in q.edges if i in (a, b)]
        assert _vertex_survives(rows, cone.gens) == fm_vertex_survives(q.vertices, i, cone)


def _oracle_pruned(points, cone):
    """The hull of the vertices of `hull3(points)` that Fourier-Motzkin on
    the whole vertex list keeps under the cone."""
    q = hull3(points)
    return hull3([v for i, v in enumerate(q.vertices) if fm_vertex_survives(q.vertices, i, cone)])


@st.composite
def pruned_cases(draw):
    """Two full, flat, collinear or one-point sets over denominators up to 7,
    under any cone kind."""
    clouds = [draw(shaped_points(draw(st.integers(1, 7)), 6)) for _ in range(2)]
    return clouds, draw(CONE_KINDS)


# the final triangles of this cloud's hull have 11 corners, one of them no
# vertex of the hull (it lies inside an edge or a facet)
ODD_CORNER = [(-2, -2, 2), (-1, 0, 2), (1, 2, 0), (-1, 1, 1), (0, -1, -2), (-2, -1, 2), (2, 2, 1),
              (0, -2, 0), (0, 1, -2), (-1, -2, 1), (2, 0, -1)]
THREE_UP = Cone3.from_generators([(1, 0, 1), (-1, 1, 1), (0, -1, 1)])
# degenerate summands of a pruned sum: a flat pentagon plus a segment (10
# sums, 7 kept under THREE_UP), a collinear set plus a flat one (8 sums, 7
# kept under DOWN)
PENTAGON = [(0, 0, 1), (3, 0, 1), (2, 2, 1), (0, 3, 1), (-1, 1, 1)]
COLLINEAR = [(0, 0, 0), (1, 1, 1), (3, 3, 3), (-2, -2, -2)]
FLAT = [(0, 0, 0), (2, 0, 1), (0, 2, -1), (2, 2, 0), (1, 1, 0)]
# summands of a sum under the trivial cone: a point plus a point or a segment,
# FLAT plus this quadrilateral in its plane, COLLINEAR plus a parallel segment
COPLANAR = [(4, 0, 2), (1, 1, 0), (0, 4, -2), (-1, 1, -1)]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(pruned_cases())
@example(([ODD_CORNER, [(0, 0, 0), (1, 1, 0)]], DOWN))
@example(([ODD_CORNER, [(0, 0, 0)]], THREE_UP))
@example(([PENTAGON, [(0, 0, 0), (1, -2, 1)]], THREE_UP))
@example(([COLLINEAR, FLAT], DOWN))
@example(([[(1, 2, 3)], [(0, -1, 2)]], Cone3(())))
@example(([[(1, 2, 3)], [(0, 0, 0), (2, 1, -1)]], Cone3(())))
@example(([FLAT, COPLANAR], Cone3(())))
@example(([COLLINEAR, [(5, 0, 1), (7, 2, 3)]], Cone3(())))
def test_pruned_sets_match_the_vertex_list_oracle(case):
    """`from_points3` and `minkowski_sum3` keep, of the hull of their points,
    the hull of exactly the vertices that survive by Fourier-Motzkin."""
    (pts, qts), cone = case
    a, b = from_points3(pts, cone), from_points3(qts, cone)
    assert a.bounded == _oracle_pruned(pts, cone)
    sums = [vadd(v, w) for v in a.bounded.vertices for w in b.bounded.vertices]
    assert minkowski_sum3(a, b).bounded == _oracle_pruned(sums, cone)


def _lifted_pentagons(cone):
    lift = lambda pts: [(x, y, x * x + y * y) for x, y in pts]
    P = from_points3(lift([(2, 0), (1, 2), (-2, 1), (-1, -2), (1, -2)]), cone)
    K = from_points3(lift([(3, 1), (0, 3), (-3, 0), (-1, -3), (2, -2)]), cone)
    return P, K


def test_a_pruned_sum_builds_one_polytope(monkeypatch):
    """A sum under a cone keeps the vertex pairs that pass one ray test over
    the summands' stored edges, so a sum of two lifted pentagons that loses
    3 of its 16 vertices to an upward ray triangulates once and builds one
    `Polytope3`: the hull of the 13 kept vertices."""
    P, K = _lifted_pentagons(Cone3.from_generators([(0, 0, 1)]))
    unpruned = hull3([vadd(v, w) for v in P.bounded.vertices for w in K.bounded.vertices])
    built, hulled = [], []
    monkeypatch.setattr(spatial, "Polytope3", lambda *fields: built.append(fields) or Polytope3(*fields))
    hull_full = spatial._hull_full
    monkeypatch.setattr(spatial, "_hull_full", lambda *args: hulled.append(args) or hull_full(*args))
    S = minkowski_sum3(P, K)
    assert (len(unpruned.vertices), len(S.bounded.vertices)) == (16, 13)
    assert (len(built), len(hulled)) == (1, 1)


def test_a_sum_under_the_trivial_cone_hulls_its_vertices_alone(monkeypatch):
    """Under the trivial cone too, `minkowski_sum3` keeps the vertex pairs
    that pass the ray test: of the 25 sums of two lifted pentagons, `_hull`
    gets exactly the 16 vertices of their sum."""
    P, K = _lifted_pentagons(Cone3(()))
    hulled, hull = [], spatial._hull
    monkeypatch.setattr(spatial, "_hull", lambda den, lat: hulled.append(lat) or hull(den, lat))
    S = minkowski_sum3(P, K)
    assert (len(P.bounded.vertices) * len(K.bounded.vertices), len(S.bounded.vertices)) == (25, 16)
    assert hulled == [list(S.bounded.lattice[1])]


def test_a_set_whose_cone_absorbs_no_vertex_triangulates_once(monkeypatch):
    """An upward ray absorbs no vertex of a lifted cloud, so `from_points3`
    triangulates the cloud once, although corners of its triangulation lie
    on facets (convex combinations of the facet's vertices)."""
    cloud, ray = lifted_cloud(random.Random(1), 60, 10)[1], Cone3.from_generators([(0, 0, 1)])
    hulled, hull_full = [], spatial._hull_full
    monkeypatch.setattr(spatial, "_hull_full", lambda *args: hulled.append(args) or hull_full(*args))
    p = from_points3(cloud, ray)
    assert len(hulled) == 1
    assert p == fraction_from_points3(cloud, ray)


@pytest.mark.parametrize("cone", [Cone3.from_generators([(0, 0, 1)]), THREE_UP], ids=["ray", "three"])
@pytest.mark.parametrize("n", [50, 100, 200])
def test_a_set_whose_cone_absorbs_vertices_is_the_hull_of_the_rest(monkeypatch, n, cone):
    """On integer clouds of 50-200 points the cone absorbs vertices, and
    `from_points3` hulls the cloud, then exactly the vertices that survive."""
    rng = random.Random(n)
    pts = [tuple(rng.randint(-40, 40) for _ in range(3)) for _ in range(n)]
    unpruned = hull3(pts)
    hulled, hull = [], spatial._hull
    monkeypatch.setattr(spatial, "_hull", lambda den, lat: hulled.append(lat) or hull(den, lat))
    p = from_points3(pts, cone)
    assert len(p.bounded.vertices) < len(unpruned.vertices)
    assert hulled[1:] == [list(p.bounded.lattice[1])]
    assert p == fraction_from_points3(pts, cone)


# a vertex with 8 incident facets: Fourier-Motzkin in the 8 facet normals
# exhausted 1 GiB on it
CLOUD14 = [(3, -6, 6), (0, 5, 2), (3, -2, -4), (5, -1, -5), (2, 2, 1), (-5, -1, -1), (0, -1, -5),
           (2, -2, -1), (-4, 4, -2), (-6, 0, 0), (-6, 6, 0), (-1, -3, 2), (3, 5, -1), (-2, 0, -6)]
CLOUD14_CONE = [(0, -1, -1), (1, -1, 1), (1, 0, 1), (2, 1, 0)]


def test_cloud_with_an_eight_facet_vertex_builds_within_a_gib():
    out = run_capped(f"""
        from minkpair.core import Cone3
        from minkpair.spatial import from_points3, hull3
        from oracles import fm_vertex_survives
        pts, cone = {CLOUD14!r}, Cone3.from_generators({CLOUD14_CONE!r})
        q = hull3(pts)
        print(max(len([f for f in q.facets if i in f.cycle]) for i in range(len(q.vertices))))
        keep = [v for i, v in enumerate(q.vertices) if fm_vertex_survives(q.vertices, i, cone)]
        print(from_points3(pts, cone).bounded == hull3(keep))
    """)
    assert out.split() == ["8", "True"]


# ---------------------------------------------------------------------------
# sums and equivalence

def test_sum3_neutral_element():
    rng = random.Random(5)
    for _ in range(20):
        cone = rand_cone3(rng)
        P = from_points3(rand_points3(rng, 5), cone)
        V0 = from_points3([(0, 0, 0)], cone)
        assert minkowski_sum3(P, V0) == P


def test_equivalence_under_the_trivial_cone_ignores_non_vertex_points():
    """(A, B) ~ (A + M, B + M): both sums are A + B + M, built from point
    clouds that differ off the vertices."""
    a = from_points3([(-2, 0, -1), (-1, -1, -1), (-1, 2, -1), (0, 0, 0)], TRIV)
    b = from_points3([(-2, 1, -1), (-2, 2, -2), (2, 2, 0), (2, 2, 1)], TRIV)
    m = from_points3([(-2, 0, 2), (-2, 1, 2), (0, 2, -1), (1, -2, 1), (2, -2, -1)], TRIV)
    assert are_equivalent3(a, b, minkowski_sum3(a, m), minkowski_sum3(b, m))
    rng = random.Random(3)
    for _ in range(100):
        a, b, m = (from_points3(rand_points3(rng, rng.randint(1, 5), lim=2), TRIV) for _ in range(3))
        assert are_equivalent3(a, b, minkowski_sum3(a, m), minkowski_sum3(b, m))


def test_sum3_cone_mismatch():
    with pytest.raises(ConeMismatchError):
        minkowski_sum3(from_points3(CUBE, TRIV), from_points3(CUBE, DOWN))


def test_equivalence3_cone_mismatch():
    """One set of the four under another cone is refused, wherever it sits."""
    for i in range(4):
        sets = [from_points3(CUBE, DOWN if j == i else TRIV) for j in range(4)]
        with pytest.raises(ConeMismatchError):
            are_equivalent3(*sets)


# 2**64 + 1 and 2**64 + 3 are coprime
SUM_DENOMINATORS = (1, 2, 3, 7, 12, 2**64 + 1, 2**64 + 3)


@st.composite
def sum_cases(draw):
    """Two full, flat, collinear or one-point sets over two different
    denominators, under a trivial, ray or three-generator cone."""
    dens = draw(st.lists(st.sampled_from(SUM_DENOMINATORS), min_size=2, max_size=2, unique=True))
    cone = draw(st.one_of(st.just(TRIV), _cone_with(1), _cone_with(3)))
    return [from_points3(draw(shaped_points(den, 7)), cone) for den in dens]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(sum_cases())
def test_sum3_matches_fraction_oracle(pair):
    """Integer sums of the summands' stored lattice points build the
    polytope that the `Fraction` hull builds from the pairwise `Fraction`
    sums, and each stored lattice point over its scale is its vertex."""
    P, K = pair
    S = minkowski_sum3(P, K)
    assert S == fraction_from_points3([vadd(a, b) for a in P.bounded.vertices for b in K.bounded.vertices], P.cone)
    for q in (P.bounded, K.bounded, S.bounded):
        den, ints = q.lattice
        assert tuple(tuple(F(x, den) for x in v) for v in ints) == q.vertices


def test_directly_built_polytopes_give_the_library_verdicts():
    """A `Polytope3` built from its four fields, as `fraction_hull3` builds
    it, fills its lattice from its vertices: sums, both criteria and the
    exposed edges on it equal those on the library's equal polytope."""
    rng = random.Random(131)
    verdicts = set()
    for kind in ("trivial", "ray", "three"):
        cone = cone_of_kind(rng, kind)
        for _ in range(4):
            clouds = [[tuple(F(rng.randint(-12, 12), rng.choice((1, 2, 3, 7))) for _ in range(3))
                       for _ in range(rng.randint(1, 8))] for _ in range(2)]
            lib = [from_points3(pts, cone) for pts in clouds]
            direct = [fraction_from_points3(pts, cone) for pts in clouds]
            assert direct == lib
            S = minkowski_sum3(*lib)
            sums = [vadd(a, b) for a in lib[0].bounded.vertices for b in lib[1].bounded.vertices]
            direct_S = fraction_from_points3(sums, cone)
            assert summand_criterion3(direct[0], direct_S) and summand_criterion3(lib[0], S)
            for a, b in (direct, (direct[0], lib[1]), (lib[0], direct[1])):
                assert minkowski_sum3(a, b) == S
                assert summand_criterion3(a, b) == summand_criterion3(*lib)
                assert summand_criterion3(b, a) == summand_criterion3(lib[1], lib[0])
                assert equiparallel_edges(a, b) == equiparallel_edges(*lib)
            assert [bounded_edges(q) for q in direct] == [bounded_edges(q) for q in lib]
            verdicts.add(summand_criterion3(*lib))
    assert verdicts == {True, False}


def test_sum3_builds_fractions_only_for_the_result(monkeypatch):
    """`minkowski_sum3` adds the summands' lattice points as integers, so the
    only `Fraction`s it builds are the result's vertex coordinates and facet
    offsets; adding the vertices pairwise as `Fraction`s alone builds
    3 |P| |K| = 588 here."""
    rng = random.Random(137)
    P = from_points3(lifted_cloud(rng, 14, 14)[0], TRIV)
    K = from_points3([vscale(F(1, 3), v) for v in lifted_cloud(rng, 14, 14)[0]], TRIV)
    built = [0]
    new = F.__new__

    def counted(*args, **kwargs):
        built[0] += 1
        return new(*args, **kwargs)

    monkeypatch.setattr(F, "__new__", staticmethod(counted))
    S = minkowski_sum3(P, K).bounded
    monkeypatch.undo()
    assert len(P.bounded.vertices) * len(K.bounded.vertices) == 196
    assert built[0] <= 3 * (len(S.vertices) + len(S.facets))


# 2**61 - 1 is prime
EQUIVALENCE_DENOMINATORS = (1, 2, 3, 7, 12, 2**61 - 1)


@st.composite
def equivalence_cases(draw):
    """Full, flat, collinear or one-point sets A, B, M and a one-step lattice
    shift t, over four different denominators, under a trivial, ray or
    three-generator cone."""
    dens = draw(st.lists(st.sampled_from(EQUIVALENCE_DENOMINATORS), min_size=4, max_size=4, unique=True))
    cone = draw(st.one_of(st.just(TRIV), _cone_with(1), _cone_with(3)))
    a, b, m = (from_points3(draw(shaped_points(den, 6)), cone) for den in dens[:3])
    step, axis = draw(st.sampled_from((1, -1))), draw(st.integers(0, 2))
    shift = [tuple(F(step, dens[3]) if c == axis else 0 for c in range(3))]
    return a, b, m, from_points3(shift, cone)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(equivalence_cases())
def test_equivalence3_matches_the_hull_oracle(case):
    """On (A, B) against (A + M, B + M), (A + M, B + M + t) and (B, A), the
    vertex-set comparison gives the verdict of building both sums in full
    and comparing them by `==`."""
    a, b, m, t = case
    am, bm = minkowski_sum3(a, m), minkowski_sum3(b, m)
    quads = [(a, b, am, bm), (a, b, am, minkowski_sum3(bm, t)), (a, b, b, a)]
    verdicts = [are_equivalent3(*q) for q in quads]
    assert verdicts == [hull_equivalent3(*q) for q in quads]
    assert verdicts[:2] == [True, False]


def test_equivalence3_builds_no_hull_and_no_fraction(monkeypatch):
    """`are_equivalent3` compares vertex sets: on a positive and two
    negatives under each cone kind, one of them a B + C whose vertices are
    some of A + D's, it makes no `_hull` call and builds no `Polytope3` and
    no `Fraction`."""
    cases = []
    for cone in (TRIV, DOWN, THREE_UP):
        a, b, m = (from_points3(pts, cone) for pts in (CUBE, TETRA, PENTAGON))
        seg, pt = from_points3([(0, 0, 0), (1, 0, 0)], cone), from_points3([(0, 0, 0)], cone)
        cases += [((a, b, minkowski_sum3(a, m), minkowski_sum3(b, m)), True), ((a, b, b, a), False),
                  ((seg, pt, pt, pt), False)]
    calls = Counter()
    hull, polytope, new = spatial._hull, spatial.Polytope3, F.__new__
    monkeypatch.setattr(spatial, "_hull", lambda *args: calls.update(["_hull"]) or hull(*args))
    monkeypatch.setattr(spatial, "Polytope3", lambda *args: calls.update(["Polytope3"]) or polytope(*args))
    counted = lambda *args, **kw: calls.update(["Fraction"]) or new(*args, **kw)
    monkeypatch.setattr(F, "__new__", staticmethod(counted))
    verdicts = [are_equivalent3(*quad) for quad, _ in cases]
    monkeypatch.undo()
    assert verdicts == [want for _, want in cases]
    assert calls == Counter()


def test_example_29_identity():
    A, B, E, Fv = ex29()
    assert minkowski_sum3(A, Fv) == minkowski_sum3(B, E)
    assert are_equivalent3(A, B, E, Fv)
    assert are_equivalent3(A, B, A, B)
    assert not are_translates3(A, E)


def test_are_translates3_needs_one_cone():
    # a point and a ray from it share their vertices but not their cone
    point, ray = (from_points3([(0, 0, 0)], c) for c in (TRIV, Cone3(((0, 0, 1),))))
    assert are_translates3(point, point) and not are_translates3(point, ray)


def test_example_73_identities():
    A, B, C, D, E, Fh = ex73()
    assert minkowski_sum3(A, D) == minkowski_sum3(B, C)
    assert minkowski_sum3(A, Fh) == minkowski_sum3(B, E)
    assert minkowski_sum3(C, Fh) == minkowski_sum3(D, E)
    assert not are_translates3(A, C)
    assert not are_translates3(A, E)
    assert not are_translates3(C, E)
    # shape sanity: octahedron, cuboctahedron, flat hexagon
    assert len(B.bounded.vertices) == 6 and len(B.bounded.facets) == 8
    assert len(E.bounded.vertices) == 12
    assert Fh.bounded.dim == 2


# ---------------------------------------------------------------------------
# bounded edges

def _edge_witness(P, edge):
    """Direction in the open polar exposing exactly this edge, by sampling."""
    q = P.bounded
    idx = [q.vertices.index(p) for p in edge.endpoints]
    ns = [f.normal for f in q.facets if set(idx) <= set(f.cycle)]
    for a in range(1, 7):
        for b in range(1, 7):
            u = tuple(a * x + b * y for x, y in zip(ns[0], ns[1]))
            if u == (0, 0, 0) or not P.cone.polar_interior_contains(u):
                continue
            _, face = support3(P, u)
            if set(face) == set(edge.endpoints):
                return u
    return None


def test_bounded_edges_tetra_trivial_cone():
    P = from_points3(TETRA, TRIV)
    assert len(bounded_edges(P)) == 6


def test_bounded_edges_example_29_with_witness_oracle():
    _, B, _, _ = ex29()
    edges = bounded_edges(B)
    got = {frozenset(e.endpoints) for e in edges}
    verts = {
        "p1": (F(-1), F(-1), F(0)), "p2": (F(-1), F(1), F(-1)),
        "p3": (F(1), F(1), F(0)), "p4": (F(1), F(-1), F(-1)),
    }
    expected_absent = frozenset({verts["p2"], verts["p4"]})
    assert expected_absent not in got
    assert len(got) == 5  # the figure's square outline plus the diagonal
    for e in edges:
        assert _edge_witness(B, e) is not None


def test_bounded_edges_point_plus_cone():
    P = from_points3([(5, 5, 5)], DOWN)
    assert bounded_edges(P) == []


# ---------------------------------------------------------------------------
# summand criterion

def test_summand_criterion_sufficiency_random():
    rng = random.Random(47)
    for _ in range(40):
        cone = rand_cone3(rng)
        P = from_points3(rand_points3(rng, rng.randint(1, 5)), cone)
        L = from_points3(rand_points3(rng, rng.randint(1, 5)), cone)
        K = minkowski_sum3(P, L)
        assert summand_criterion3(P, K)


def test_summand_single_point():
    rng = random.Random(53)
    P = from_points3([(1, 2, 3)], TRIV)
    for _ in range(5):
        K = from_points3(rand_points3(rng, 6), TRIV)
        assert summand_criterion3(P, K)


def test_summand_cube_in_tetra_negative():
    P = from_points3(CUBE, TRIV)
    K = from_points3(TETRA, TRIV)
    assert not summand_criterion3(P, K)
    # oracle: h_K - h_P is not subadditive, so no complement set can exist
    u, v = (-2, -2, -2), (1, 1, 1)
    phi = lambda w: support3(K, w)[0] - support3(P, w)[0]
    w = vadd(u, v)
    assert phi(w) > phi(u) + phi(v)


def test_summand_true_gives_subadditive_difference():
    rng = random.Random(71)
    for _ in range(15):
        cone = rand_cone3(rng)
        P = from_points3(rand_points3(rng, 4), cone)
        L = from_points3(rand_points3(rng, 4), cone)
        K = minkowski_sum3(P, L)
        assert summand_criterion3(P, K)
        for _ in range(25):
            u = tuple(rng.randint(-4, 4) for _ in range(3))
            v = tuple(rng.randint(-4, 4) for _ in range(3))
            w = vadd(u, v)
            if any(x == (0, 0, 0) for x in (u, v, w)):
                continue
            if not all(cone.polar_contains(x) for x in (u, v, w)):
                continue
            phi = lambda t: support3(K, t)[0] - support3(P, t)[0]
            assert phi(w) <= phi(u) + phi(v)


@st.composite
def summand_pairs(draw):
    """(P, K) under any cone kind with K = P + L, K = sP + P or a random K;
    P, L and the random K are full, flat, collinear or one point over the
    denominators 1, 2, 3 and 7."""
    cone = draw(CONE_KINDS)
    dens = st.sampled_from((1, 2, 3, 7))
    P = from_points3(draw(shaped_points(draw(dens), 4)), cone)
    how = draw(st.sampled_from(("sum", "scaled", "random")))
    if how == "scaled":
        s = draw(st.builds(Fraction, st.integers(1, 6), st.integers(1, 3)))
        return P, minkowski_sum3(from_points3([vscale(s, v) for v in P.bounded.vertices], cone), P)
    L = from_points3(draw(shaped_points(draw(dens), 4)), cone)
    return P, minkowski_sum3(P, L) if how == "sum" else L


def test_summand_criterion_matches_the_face_sweep():
    """The walk over the hull of K's projection along each edge of P agrees
    with the sweep over every vertex, edge and facet of K, in both argument
    orders, and both verdicts occur."""
    verdicts = []

    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(summand_pairs())
    def agree(pair):
        for a, b in (pair, pair[::-1]):
            verdict = summand_criterion3(a, b)
            assert verdict == face_sweep_summand_criterion3(a, b)
            verdicts.append(verdict)

    agree()
    assert True in verdicts and False in verdicts


# ---------------------------------------------------------------------------
# equiparallel edges

def test_equiparallel_cubes():
    A = from_points3(CUBE, TRIV)
    B = from_points3([vadd(p, (5, 7, -2)) for p in CUBE], TRIV)
    pairs = equiparallel_edges(A, B)
    assert len(pairs) == 12
    back = {(eb.endpoints, ea.endpoints) for ea, eb in equiparallel_edges(B, A)}
    assert {(ea.endpoints, eb.endpoints) for ea, eb in pairs} == back


def test_equiparallel_tetra_vs_point():
    A = from_points3(TETRA, TRIV)
    B = from_points3([(9, 9, 9)], TRIV)
    assert equiparallel_edges(A, B) == []


def test_equiparallel_example_29_nonempty():
    A, B, _, _ = ex29()
    pairs = equiparallel_edges(A, B)
    assert pairs
    for ea, eb in pairs:
        va, vb = ea.vector, eb.vector
        assert va[0] * vb[1] == va[1] * vb[0]  # parallel in every coordinate pair
        assert va[1] * vb[2] == va[2] * vb[1]


def test_line_cone_rejected():
    with pytest.raises(GeometryError):
        Cone3.from_generators([(1, 1, 0), (-1, -1, 0)])


# ---------------------------------------------------------------------------
# support and recession

def test_support3_additivity_and_domain():
    rng = random.Random(29)
    for _ in range(20):
        cone = rand_cone3(rng)
        P = from_points3(rand_points3(rng, 5), cone)
        Q = from_points3(rand_points3(rng, 5), cone)
        S = minkowski_sum3(P, Q)
        for _ in range(50):
            u = tuple(rng.randint(-5, 5) for _ in range(3))
            if u == (0, 0, 0):
                continue
            hp, hq, hs = support3(P, u)[0], support3(Q, u)[0], support3(S, u)[0]
            if cone.polar_contains(u):
                assert hs == hp + hq
            else:
                assert hp == hq == hs == float("inf")


def test_recession_cone_matches_declared():
    rng = random.Random(97)
    for _ in range(25):
        cone = rand_cone3(rng)
        P = from_points3(rand_points3(rng, 5), cone)
        for g in cone.gens:
            for v in P.bounded.vertices:
                assert contains3(P, vadd(v, g))
                assert contains3(P, vadd(v, vscale(503, g)))
        d = tuple(rng.randint(-3, 3) for _ in range(3))
        if d != (0, 0, 0) and not cone.contains_vector(d):
            v = P.bounded.vertices[0]
            assert not all(contains3(P, vadd(v, vscale(t, d))) for t in (1, 11, 997))


@st.composite
def membership_cases3(draw):
    """A one-point, collinear, flat or full set (with repeated points) under a
    trivial, ray, flat-wedge, 3- or 4-generator cone, and queries at its
    vertices, on and near segments between them, along its cone and anywhere."""
    scalar = draw(st.sampled_from(SCALARS))
    point = st.tuples(scalar, scalar, scalar)
    rank = draw(st.sampled_from((0, 1, 2, 3, 3)))
    base = draw(point)
    axes = draw(st.lists(point.filter(any), min_size=rank, max_size=rank))
    grid = st.tuples(*(st.integers(-2, 2) for _ in axes))
    pts = [tuple(b + sum(t * a[c] for t, a in zip(ts, axes)) for c, b in enumerate(base))
           for ts in draw(st.lists(grid, min_size=rank + 1, max_size=7))]
    pts += draw(st.lists(st.sampled_from(pts), max_size=2))
    cone = draw(st.one_of(st.just(TRIV), *(_cone_with(k) for k in (1, 2, 3, 4))))
    P = from_points3(pts, cone)
    verts = P.bounded.vertices
    queries = [draw(st.sampled_from(verts)), draw(point), draw(point)]
    for _ in range(3):
        v, w = draw(st.sampled_from(verts)), draw(st.sampled_from(verts))
        t = Fraction(draw(st.integers(-2, 10)), 8)
        queries.append(vadd(v, vscale(t, vsub(w, v))))
    for g in cone.gens:
        k = draw(st.sampled_from([1, 3, 2**64 + 1]))
        nudge = draw(st.sampled_from([(0, 0, 0), (Fraction(1, 97), 0, 0), (0, 0, Fraction(-1, 97))]))
        queries.append(vadd(vadd(draw(st.sampled_from(verts)), vscale(k, g)), nudge))
    return P, queries


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(membership_cases3())
def test_contains3_matches_fourier_motzkin(case):
    P, queries = case
    for x in queries:
        assert contains3(P, x) == fm_contains3(P, x)


def test_contains3_degenerate_examples():
    P = from_points3([(1, 2, 3), (1, 2, 3)], TRIV)
    assert contains3(P, (1, 2, 3)) and not contains3(P, (1, 2, F(3001, 1000)))
    S = from_points3([(0, 0, 0), (2, 2, 2), (1, 1, 1)], DOWN)
    assert contains3(S, (1, 1, 1)) and contains3(S, (1, 1, -2**70))
    assert not contains3(S, (1, 1, 1 + F(1, 2**64))) and not contains3(S, (3, 3, 3))
    T = from_points3(TETRA, TRIV)
    assert contains3(T, (F(2, 3), F(2, 3), F(2, 3))) and not contains3(T, (F(2, 3), F(2, 3), F(67, 97)))
    for Q, point in ((T, (0, 0)), (S, (1, 1)), (S, (1, 1, 1, 1))):
        with pytest.raises(GeometryError, match="coordinates"):
            contains3(Q, point)


def test_contains3_on_a_large_hull_matches_its_facet_inequalities():
    """The hull of 300 random points in a ball of radius 1,000, about 70
    vertices, under the trivial cone: interior points, vertices, facet points
    and facet points nudged 1/97 outside, against the H-test of the hull's own
    facets."""
    rng = random.Random(300)
    pts = []
    while len(pts) < 300:
        p = tuple(rng.randint(-1000, 1000) for _ in range(3))
        if dot(p, p) <= 1000**2:
            pts.append(p)
    P = from_points3(pts, TRIV)
    verts, facets = P.bounded.vertices, P.bounded.facets
    assert 60 <= len(verts) <= 80
    centroid = lambda vs: tuple(sum(c) / len(vs) for c in zip(*vs))
    queries = list(verts)
    for f in facets:
        mid = centroid([verts[i] for i in f.cycle])
        queries += [mid, vadd(mid, vscale(F(1, 97), f.normal))]
    center = centroid(verts)
    queries += [vadd(center, [F(rng.randint(-2000, 2000), 7) for _ in range(3)]) for _ in range(30)]
    answers = [contains3(P, x) for x in queries]
    assert answers == [all(dot(f.normal, x) <= f.offset for f in facets) for x in queries]
    assert answers.count(False) == len(facets)


@pytest.mark.parametrize("count", [8, 12])
def test_contains3_under_a_ring_cone_answers_within_a_gib(count):
    """Fourier-Motzkin in one variable per generator exhausted 1 GiB at 8."""
    out = run_capped(f"""
        from fractions import Fraction
        from minkpair.core import Cone3
        from minkpair.spatial import contains3, from_points3
        cone = Cone3.from_generators([(x, y, 7) for x, y in {RING[:count]!r}])
        p = from_points3([(0, 0, 0), (1, 0, 0)], cone)
        queries = [(1, 1, 20), (1, 0, 0), (6, 0, 7), (1, 1, -1), (2, 0, 0), (6, Fraction(1, 97), 7)]
        print(*(contains3(p, x) for x in queries))
    """)
    assert out.split() == ["True"] * 3 + ["False"] * 3


# ---------------------------------------------------------------------------
# certified negatives and rational coordinates

def three_generator_cone(rng):
    while True:
        gens = [(rng.randint(-1, 1), rng.randint(-1, 1), rng.randint(-3, -2)) for _ in range(3)]
        cone = Cone3.from_generators(gens)
        if len(cone.gens) == 3:
            return cone


def cone_of_kind(rng, kind):
    return {"trivial": TRIV, "ray": DOWN}.get(kind) or three_generator_cone(rng)


def test_summand_certified_negatives_under_every_cone_kind():
    rng = random.Random(59)
    for kind in ("trivial", "ray", "three"):
        for _ in range(4):
            P, K = certified_negative(rng, cone_of_kind(rng, kind))
            assert not summand_criterion3(P, K)
            assert equiparallel_edges(P, K) == []


def _affine(scale, shift):
    return lambda v: tuple(scale * x + t for x, t in zip(v, shift))


def _moved(P, f):
    return from_points3([f(v) for v in P.bounded.vertices], P.cone)


def test_criteria_invariant_under_rational_scaling_and_translation():
    """Scaling both sets by 7/6 and translating each by its own vector with
    denominators 2, 3, 5 and 7 keeps every verdict and maps every edge pair."""
    rng = random.Random(61)
    instances = [(from_points3(CUBE, TRIV), from_points3(TETRA, TRIV))]
    for kind in ("trivial", "ray", "three"):
        cone = cone_of_kind(rng, kind)
        for _ in range(3):
            P = from_points3(rand_points3(rng, 4), cone)
            instances.append((P, minkowski_sum3(P, from_points3(rand_points3(rng, 3), cone))))
        instances.append(certified_negative(rng, cone))
    scale = F(7, 6)
    for P, K in instances:
        fp = _affine(scale, (F(1, 2), F(-2, 3), F(3, 5)))
        fk = _affine(scale, (F(-5, 7), F(1, 3), F(7, 2)))
        P2, K2 = _moved(P, fp), _moved(K, fk)
        assert summand_criterion3(P2, K2) == summand_criterion3(P, K)
        pairs = {(tuple(map(fp, ea.endpoints)), tuple(map(fk, eb.endpoints)))
                 for ea, eb in equiparallel_edges(P, K)}
        assert {(ea.endpoints, eb.endpoints) for ea, eb in equiparallel_edges(P2, K2)} == pairs
    verdicts = [summand_criterion3(P, K) for P, K in instances]
    assert verdicts.count(False) == 4 and verdicts.count(True) == 9


# ---------------------------------------------------------------------------
# face translates, and the sweeps on the vertex lattice

K_DENOMINATORS = (1, 3, 5, 9, 15)  # coprime to every P denominator below
P_DENOMINATORS = (1, 2, 4, 7, 8)


@st.composite
def face_translate_cases(draw):
    """A full, flat or collinear K with coordinates over one denominator,
    and a seeded rng for the vectors tried on its faces."""
    kd = draw(st.sampled_from(K_DENOMINATORS))
    vec = st.tuples(*(st.builds(Fraction, st.integers(-9, 9), st.just(kd)) for _ in range(3)))
    rank = draw(st.sampled_from((3, 2, 1)))  # full, flat or collinear
    base = draw(vec)
    if rank == 3:
        pts = draw(st.lists(vec, min_size=4, max_size=8))
    else:
        axes = draw(st.lists(vec.filter(lambda v: v != (0, 0, 0)), min_size=rank, max_size=rank))
        grid = st.tuples(*(st.integers(-3, 3) for _ in axes))
        pts = [tuple(b + sum(t * a[c] for t, a in zip(ts, axes)) for c, b in enumerate(base))
               for ts in draw(st.lists(grid, min_size=2, max_size=8))]
    return pts, draw(st.randoms(use_true_random=False))


def _edge_lattice(rng, e):
    """(pden, elat): e on a P lattice whose denominator is a multiple of e's."""
    pden = math.lcm(*(x.denominator for x in e)) * rng.choice((1, 1, 2, 7))
    return pden, tuple(int(x * pden) for x in e)


def _tried_vectors(rng, q, ids):
    """In-face vectors of K and their negatives (translates exist), the same
    longer by 1/den along their primitive direction, and random vectors:
    in the face's span, or anywhere, with a denominator coprime to K's."""
    vs = q.vertices
    diffs = [vsub(vs[b], vs[a]) for a, b in itertools.combinations(ids, 2)]
    diffs = [d for d in diffs if d != (0, 0, 0)]
    out = []
    for w in rng.sample(diffs, min(len(diffs), 4)):
        den = rng.choice(P_DENOMINATORS[1:])
        longer = vadd(w, vscale(Fraction(1, den), normalize_direction(w)))
        out += [(w, True), (vneg(w), True), (longer, None), (vneg(longer), None)]
    for _ in range(3):
        den = rng.choice(P_DENOMINATORS)
        if len(diffs) >= 2:
            a, b = rng.sample(diffs, 2)
            s, t = (Fraction(rng.randint(-6, 6), den) for _ in range(2))
            out.append((vadd(vscale(s, a), vscale(t, b)), None))
        out.append((tuple(Fraction(rng.randint(-20, 20), den) for _ in range(3)), None))
    return [(e, want) for e, want in out if e != (0, 0, 0)]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(face_translate_cases())
def test_face_translate_matches_fraction_oracle(case):
    """The integer length test agrees with Fourier-Motzkin on every vertex
    and edge of K for parallel, antiparallel, equal, longer and random
    vectors."""
    points, rng = case
    q = hull3(points)
    kden, klat = lattice(q.vertices)
    faces = [("vertex", (i,)) for i in range(len(q.vertices))] + [("edge", e) for e in q.edges]
    for kind, ids in faces:
        for e, want in _tried_vectors(rng, q, ids):
            pden, elat = _edge_lattice(rng, e)
            got = _face_contains_translate(kden, klat, ids, pden, elat)
            assert got == fm_face_contains_translate(q, kind, ids, None, e)
            assert want is None or got is want


def _sweep_instances(rng):
    """Sums and certified negatives under every cone kind, with flat P too."""
    out = []
    for kind in ("trivial", "ray", "three"):
        cone = cone_of_kind(rng, kind)
        for flat in (False, True):
            pts = rand_points3(rng, rng.randint(2, 6))
            if flat:
                pts = [(x, y, x - y) for x, y, _ in pts]
            P = from_points3(pts, cone)
            out.append((P, minkowski_sum3(P, from_points3(rand_points3(rng, 4), cone))))
            out.append((P, from_points3(rand_points3(rng, 5), cone)))
        out.append(certified_negative(rng, cone))
    return out


def test_equiparallel_edges_symmetric_and_exposed():
    rng = random.Random(83)
    for P, K in _sweep_instances(rng):
        for a, b in ((P, K), (K, P)):
            pairs = equiparallel_edges(a, b)
            back = {(ea, eb) for eb, ea in equiparallel_edges(b, a)}
            assert set(pairs) == back
            exposed = bounded_edges(b)
            assert all(eb in exposed for _, eb in pairs)


def test_sweeps_make_no_fraction_feasibility_call(monkeypatch):
    def refuse(*args):
        raise AssertionError("linear_feasible called")

    rng = random.Random(89)
    instances = _sweep_instances(rng)
    expected = [(summand_criterion3(P, K), equiparallel_edges(P, K)) for P, K in instances]
    assert not hasattr(spatial, "linear_feasible")
    monkeypatch.setattr(core, "linear_feasible", refuse)
    assert [(summand_criterion3(P, K), equiparallel_edges(P, K)) for P, K in instances] == expected
    assert any(v for v, _ in expected) and not all(v for v, _ in expected)


def test_construction_makes_no_fraction_feasibility_call(monkeypatch):
    def refuse(*args):
        raise AssertionError("linear_feasible called")

    rng = random.Random(97)
    cases = [(rand_points3(rng, rng.randint(1, 9)), cone_of_kind(rng, kind).gens)
             for kind in ("trivial", "ray", "three") * 6]

    def build():
        out = []
        for pts, gens in cases:
            cone = Cone3.from_generators(gens)
            out.append(minkowski_sum3(from_points3(pts, cone), from_points3(pts[:3], cone)))
        return out

    expected = build()
    assert not hasattr(spatial, "linear_feasible")
    monkeypatch.setattr(core, "linear_feasible", refuse)
    assert build() == expected


def test_edge_frame_built_once_per_edge_of_the_first_argument(monkeypatch):
    calls = []
    frame = spatial._edge_frame
    monkeypatch.setattr(spatial, "_edge_frame", lambda *a: calls.append(a[1:]) or frame(*a))
    for P, K in _sweep_instances(random.Random(97)):
        for check in (summand_criterion3, equiparallel_edges):
            calls.clear()
            verdict = check(P, K)
            assert len(set(calls)) == len(calls) and set(calls) <= set(P.bounded.edges)
            # a false summand verdict stops the sweep at the first failing edge
            if check is equiparallel_edges or verdict:
                assert sorted(calls) == sorted(P.bounded.edges)


# ---------------------------------------------------------------------------
# prisms over planar pairs: an independent oracle for the 3D criteria

def _prism(poly):
    """poly x [0, 1] under the cone C2 x {0}, for a V-polygon poly under C2."""
    cone = Cone3.from_generators([(x, y, 0) for x, y in poly.cone.gens])
    return from_points3([(x, y, z) for x, y in poly.chain for z in (0, 1)], cone)


def test_prism_criteria_match_the_planar_measure_calculus():
    """P2 x [0, 1] is a summand of K2 x [0, 1] exactly when P2 is one of K2
    (project a 3D decomposition; the converse is direct), so
    `summand_criterion3` must agree with `is_summand` on positives and random
    negatives.  Two horizontal edges of the prisms are parallel and exposed by
    one direction exactly when the planar edges share an outer normal; the
    vertical edges always form such a pair, as the two normal fans overlap."""
    rng = random.Random(103)
    verdicts = []
    for kind in ("trivial", "ray", "wedge") * 20:
        cone = {"trivial": Cone2(()), "ray": Cone2((rand_direction(rng),)),
                "wedge": rand_wedge(rng)}[kind]
        P2 = rand_vpolygon(rng, cone, 5, 6)
        for K2 in (minkowski_sum(P2, rand_vpolygon(rng, cone, 4, 6)), rand_vpolygon(rng, cone, 6, 6)):
            P3, K3 = _prism(P2), _prism(K2)
            verdict = is_summand(P2, K2)[0]
            assert summand_criterion3(P3, K3) == verdict
            verdicts.append(verdict)
            pairs = equiparallel_edges(P3, K3)
            horizontal = [(a, b) for a, b in pairs if a.vector[2] == 0]
            assert bool(horizontal) == bool(shared_normals(P2, K2))
            assert len(horizontal) < len(pairs)
    assert verdicts.count(False) >= 10 and verdicts.count(True) >= 60


def _low_dimensional_pairs(rng):
    """Flat, segment and point sets against full, flat, segment and point
    sets, alone and summed, under every cone kind."""
    def shaped(shape):
        pts = rand_points3(rng, 5)
        return {"full": pts, "flat": [(x, y, x - y) for x, y, _ in pts],
                "segment": pts[:2], "point": pts[:1]}[shape]

    out = []
    for kind in ("trivial", "ray", "three"):
        cone = cone_of_kind(rng, kind)
        for low in ("flat", "segment", "point"):
            for other in ("full", "flat", "segment", "point"):
                P, L = from_points3(shaped(low), cone), from_points3(shaped(other), cone)
                out += [(P, L), (P, minkowski_sum3(P, L)), (L, minkowski_sum3(L, P))]
    return out


def test_equiparallel_edges_match_the_face_rows_oracle():
    """The pairs, in order, agree with the scan of every parallel edge pair
    by Fourier-Motzkin on both edges' tagged rows, in both argument orders."""
    rng = random.Random(109)
    instances = _sweep_instances(rng) + _low_dimensional_pairs(rng)
    for kind in ("trivial", "ray", "wedge"):
        cone = {"trivial": Cone2(()), "ray": Cone2((rand_direction(rng),)), "wedge": rand_wedge(rng)}[kind]
        P2 = rand_vpolygon(rng, cone, 5, 6)
        for K2 in (minkowski_sum(P2, rand_vpolygon(rng, cone, 4, 6)), rand_vpolygon(rng, cone, 6, 6)):
            instances.append((_prism(P2), _prism(K2)))
    found = []
    for P, K in instances:
        for a, b in ((P, K), (K, P)):
            pairs = equiparallel_edges(a, b)
            assert pairs == fm_equiparallel_edges(a, b)
            found.append(len(pairs))
    assert 0 in found and max(found) >= 4

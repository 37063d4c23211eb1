import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minkpair import core, spatial
from minkpair.core import (
    Cone2,
    Cone3,
    ConeMismatchError,
    GeometryError,
    lattice,
    normalize_direction,
    vadd,
    vneg,
    vscale,
    vsub,
)
from minkpair.spatial import (
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
    fm_contains3,
    fm_face_contains_translate,
    fm_vertex_survives,
    fraction_from_points3,
    fraction_hull3,
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


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(point_sets())
def test_hull3_matches_fraction_oracle(points):
    h = hull3(points)
    assert h == fraction_hull3(points)
    assert all(type(x) is Fraction for v in h.vertices for x in v)
    assert all(type(f.offset) is Fraction for f in h.facets)


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(point_sets())
def test_hull3_of_its_own_vertices_is_itself(points):
    h = hull3(points)
    assert hull3(h.vertices) == h


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


@st.composite
def survival_cases(draw):
    """A full, flat, collinear or one-point hull over one denominator up to 7,
    under a trivial, ray, 3-generator or 4-generator cone."""
    den = draw(st.integers(1, 7))
    vec = st.tuples(*(st.builds(Fraction, st.integers(-6, 6), st.just(den)) for _ in range(3)))
    rank = draw(st.sampled_from((3, 3, 2, 1, 0)))
    base = draw(vec)
    axes = draw(st.lists(vec.filter(any), min_size=rank, max_size=rank))
    grid = st.tuples(*(st.integers(-3, 3) for _ in axes))
    pts = [tuple(b + sum(t * a[c] for t, a in zip(ts, axes)) for c, b in enumerate(base))
           for ts in draw(st.lists(grid, min_size=rank + 1, max_size=9))]
    return pts, draw(st.one_of(st.just(TRIV), _cone_with(1), _cone_with(3), _cone_with(4)))


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(survival_cases())
def test_vertex_survival_matches_vertex_list_oracle(case):
    """The edge rows decide survival as Fourier-Motzkin on "u exposes this
    vertex alone, in the open polar" over all the vertices does."""
    pts, cone = case
    q = hull3(pts)
    lat = lattice(q.vertices)[1]
    for i in range(len(q.vertices)):
        assert _vertex_survives(q, lat, i, cone) == fm_vertex_survives(q.vertices, i, cone)


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
        print(max(len(q.incident_facets(i)) for i in range(len(q.vertices))))
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


def test_example_29_identity():
    A, B, E, Fv = ex29()
    assert minkowski_sum3(A, Fv) == minkowski_sum3(B, E)
    assert are_equivalent3(A, B, E, Fv)
    assert are_equivalent3(A, B, A, B)
    assert not are_translates3(A, E)


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


def _tried_vectors(rng, q, kind, ids):
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
    """The integer width test agrees with Fourier-Motzkin on every face of K
    for parallel, antiparallel, equal, longer and random vectors."""
    points, rng = case
    q = hull3(points)
    kden, klat = lattice(q.vertices)
    for kind, ids, facet in q.faces():
        for e, want in _tried_vectors(rng, q, kind, ids):
            pden, elat = _edge_lattice(rng, e)
            got = _face_contains_translate(kden, klat, kind, ids, facet, pden, elat)
            assert got == fm_face_contains_translate(q, kind, ids, facet, e)
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
    monkeypatch.setattr(spatial, "_edge_frame", lambda *a: calls.append(a[2:]) or frame(*a))
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

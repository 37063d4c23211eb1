import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from minkpair.core import (
    Cone2,
    ConeMismatchError,
    GeometryError,
    cross2,
    dot,
    lattice,
    normalize_direction,
    linear_feasible,
    rot90,
    vadd,
    vneg,
    vsub,
)
from minkpair.planar import (
    ORIGIN,
    EdgeMeasure,
    VPolygon,
    are_equivalent,
    convex_hull_2d,
    from_points,
    hull_chain,
    is_minimal_bounded,
    is_summand,
    is_zero_minimal,
    kernel_of_minimality,
    measure_inf,
    minkowski_sum,
    polygon_summand_check,
    reduce_pair,
    scale,
    shared_normals,
    translate,
)
from conftest import (
    poly_with_origin_on_chain,
    rand_cone2,
    rand_measure,
    rand_point,
    rand_polar_interior_dir,
    rand_vpolygon,
    rand_wedge,
)
from oracles import (
    dict_add,
    dict_from_entries,
    dict_measure_inf,
    dict_scale,
    dict_sub,
    fm_contains,
    fraction_closes,
    fraction_chain,
    fraction_face_midpoint,
    fraction_is_zero_minimal,
    fraction_support,
    hull_2d_vertices,
)

TRIV = Cone2(())
WEDGE = Cone2.from_generators([(-1, -1), (-1, 1)])
UP = Cone2.from_generators([(0, 1)])

F = Fraction


def tri_A():
    return from_points([(0, 0), (2, 0), (1, 1)], TRIV)


def seg_B():
    return from_points([(0, 0), (2, 0)], TRIV)


# ---------------------------------------------------------------------------
# construction

def test_from_points_triangle_measure():
    A = tri_A()
    assert A.measure.as_dict() == {(0, -1): 2, (1, 1): 1, (-1, 1): 1}


def test_from_points_single_point_plus_wedge():
    P = from_points([(5, 7)], WEDGE)
    assert P.measure.is_empty
    assert P.anchor == (5, 7)


def test_from_points_collinear_collapses():
    S = from_points([(0, 0), (1, 0), (2, 0)], TRIV)
    assert S.measure.as_dict() == {(0, 1): 2, (0, -1): 2}


def test_from_points_drops_absorbed_edges():
    P = from_points([(0, 0), (2, 0), (1, 1)], UP)
    assert P.measure.as_dict() == {(0, -1): 2}
    assert set(P.chain) == {(0, 0), (2, 0)}


def test_round_trip_canonical():
    rng = random.Random(202)
    for _ in range(1000):
        cone = rand_cone2(rng)
        P = rand_vpolygon(rng, cone)
        assert from_points(P.chain, cone) == P


# ---------------------------------------------------------------------------
# support

def test_support_triangle_bottom():
    val, face = tri_A().support((0, -1))
    assert val == 0
    assert face == ("segment", (0, 0), (2, 0))


def test_support_point_plus_wedge():
    P = from_points([(5, 7)], WEDGE)
    val, face = P.support((1, 0))
    assert val == 5 and face == ("point", (5, 7))
    val, face = P.support((-1, 0))
    assert val == float("inf") and face is None


def test_support_boundary_ray_faces():
    B = from_points([(0, 0), (2, 0)], UP)
    val, face = B.support((1, 0))
    assert val == 2 and face == ("ray", (2, 0), (0, 1))
    val, face = B.support((-1, 0))
    assert val == 0 and face == ("ray", (0, 0), (0, 1))


# ---------------------------------------------------------------------------
# sums, scaling, translation

def test_sum_neutral_element():
    rng = random.Random(1)
    for _ in range(50):
        cone = rand_cone2(rng)
        A = rand_vpolygon(rng, cone)
        V0 = from_points([(0, 0)], cone)
        assert minkowski_sum(A, V0) == A


def test_sum_segment_doubles():
    S = seg_B()
    assert minkowski_sum(S, S) == from_points([(0, 0), (4, 0)], TRIV)


def test_sum_matches_pairwise_vertex_hull_oracle():
    rng = random.Random(40)
    for _ in range(300):
        A = rand_vpolygon(rng, TRIV, 3, 5)
        B = rand_vpolygon(rng, TRIV, 3, 5)
        oracle = from_points([vadd(p, q) for p in A.chain for q in B.chain], TRIV)
        assert minkowski_sum(A, B) == oracle


def test_sum_cone_mismatch():
    with pytest.raises(ConeMismatchError):
        minkowski_sum(tri_A(), from_points([(0, 0)], UP))


def test_shared_normals_cone_mismatch():
    # two rays along different generators: no normal is shared, but no cone either
    right = Cone2.from_generators([(1, 0)])
    with pytest.raises(ConeMismatchError):
        shared_normals(from_points([(0, 0)], UP), from_points([(0, 0)], right))


def test_scale():
    A = tri_A()
    assert scale(A, 1) == A
    Z = scale(A, 0)
    assert Z.measure.is_empty and Z.anchor == ORIGIN
    assert scale(seg_B(), F(3, 2)) == from_points([(0, 0), (3, 0)], TRIV)
    with pytest.raises(GeometryError):
        scale(A, -1)


def test_translate_identities():
    A = tri_A()
    assert translate(A, (0, 0)) == A
    assert translate(translate(A, (3, -2)), (-3, 2)) == A


def test_translate_matches_shift_construction():
    B = seg_B()
    shifted = translate(B, (-1, 2))
    assert set(shifted.chain) == {(-1, 2), (1, 2)}


def test_translate_shifts_a_built_lattice():
    """A translate of a set whose lattice is built carries that lattice
    shifted, equal to the one its canonical form builds afresh, for int and
    `Fraction` shifts under every cone kind."""
    rng = random.Random(211)
    cones = [Cone2(()), Cone2(((1, 2),)), rand_wedge(rng)]
    shifts = [(3, -2), (0, 0), (Fraction(1, 3), Fraction(-5, 6)), (Fraction(7, 4), 2), (-1, Fraction(2, 9))]
    for cone in cones:
        for _ in range(8):
            a = rand_vpolygon(rng, cone)
            a.lattice
            for v in shifts:
                b = translate(a, v)
                assert b.lattice == VPolygon(b.cone, b.anchor, b.measure).lattice
                assert b.chain == tuple(vadd(p, v) for p in a.chain)


# ---------------------------------------------------------------------------
# measure infimum

def test_measure_inf():
    m = tri_A().measure
    assert measure_inf(m, m) == m
    disjoint = EdgeMeasure.from_entries({(0, 1): 3})
    assert measure_inf(m, disjoint).is_empty
    ma = EdgeMeasure.from_entries({(0, -1): 2, (1, 1): 1})
    mb = EdgeMeasure.from_entries({(0, -1): 3})
    assert measure_inf(ma, mb).as_dict() == {(0, -1): 2}


# ---------------------------------------------------------------------------
# 0-minimality and reduction

def test_zero_minimal_fixture():
    A = from_points([(1, 0)], UP)
    B = from_points([(0, 0), (2, 0)], UP)
    assert is_zero_minimal(A, B)
    assert not is_zero_minimal(translate(A, (0, 1)), translate(B, (0, 1)))


def test_zero_minimal_common_direction_fails():
    A = from_points([(0, 0), (2, 0)], UP)
    assert not is_zero_minimal(A, A)


def test_zero_minimal_requires_unbounded():
    with pytest.raises(GeometryError):
        is_zero_minimal(tri_A(), seg_B())


def test_reduce_pair_of_equal_sets():
    rng = random.Random(9)
    A = rand_vpolygon(rng, WEDGE)
    A1, B1 = reduce_pair(A, A)
    neutral = VPolygon(WEDGE, ORIGIN, EdgeMeasure.empty())
    assert A1 == neutral and B1 == neutral


def test_reduce_pair_idempotent_and_common_summand_invariant():
    rng = random.Random(77)
    for _ in range(100):
        cone = rand_wedge(rng)
        A = rand_vpolygon(rng, cone)
        B = rand_vpolygon(rng, cone)
        M = rand_vpolygon(rng, cone)
        A1, B1 = reduce_pair(A, B)
        assert are_equivalent(A1, B1, A, B)
        assert is_zero_minimal(A1, B1)
        assert reduce_pair(A1, B1) == (A1, B1)
        assert reduce_pair(minkowski_sum(A, M), minkowski_sum(B, M)) == (A1, B1)


def test_reduce_pair_disjoint_support_recovers_translate():
    rng = random.Random(123)
    for _ in range(50):
        cone = rand_wedge(rng)
        ma = rand_measure(rng, cone)
        dirs_b = {u for u in rand_measure(rng, cone).directions() if u not in ma.as_dict()}
        mb = EdgeMeasure.from_entries({u: F(rng.randint(1, 4)) for u in dirs_b})
        A0 = VPolygon(cone, rand_point(rng, 4), ma)
        B0 = VPolygon(cone, rand_point(rng, 4), mb)
        M = rand_vpolygon(rng, cone)
        A1, B1 = reduce_pair(minkowski_sum(A0, M), minkowski_sum(B0, M))
        assert A1.measure == ma and B1.measure == mb
        shift = vsub(B1.anchor, B0.anchor)
        assert translate(B0, shift) == B1 and translate(A0, shift) == A1
        # oracle: equivalence by direct sum equality, minimality by the criterion
        assert minkowski_sum(A1, minkowski_sum(B0, M)) == minkowski_sum(B1, minkowski_sum(A0, M))


def test_reduce_pair_rejects_bounded():
    with pytest.raises(GeometryError):
        reduce_pair(tri_A(), seg_B())


# ---------------------------------------------------------------------------
# bounded minimality

def test_minimal_bounded_examples():
    assert is_minimal_bounded(tri_A(), seg_B())
    assert shared_normals(tri_A(), seg_B()) == [(0, -1)]
    sq = from_points([(0, 0), (1, 0), (1, 1), (0, 1)], TRIV)
    assert not is_minimal_bounded(sq, translate(sq, (5, 5)))
    assert is_minimal_bounded(tri_A(), from_points([(3, 3)], TRIV))
    with pytest.raises(GeometryError):
        is_minimal_bounded(tri_A(), from_points([(0, 0)], UP))


# ---------------------------------------------------------------------------
# summands

def test_summand_reflexive_and_cancellation():
    rng = random.Random(31)
    for _ in range(100):
        cone = rand_cone2(rng)
        A = rand_vpolygon(rng, cone)
        B = rand_vpolygon(rng, cone)
        ok, comp = is_summand(A, A)
        assert ok and comp.measure.is_empty
        ok, comp = is_summand(B, minkowski_sum(A, B))
        assert ok and comp == A


def test_summand_triangle_segment_negative():
    # B has normal (0,1) with weight 2; A has no such edge, and no candidate
    # sub-measure of A's can complete B's measure to A's.
    ok, comp = is_summand(seg_B(), tri_A())
    assert not ok and comp is None
    mb, ma = seg_B().measure.as_dict(), tri_A().measure.as_dict()
    from itertools import chain, combinations

    entries = list(ma.items())
    for picks in chain.from_iterable(combinations(entries, k) for k in range(len(entries) + 1)):
        trial = dict(mb)
        for u, lam in picks:
            trial[u] = trial.get(u, F(0)) + lam
        assert trial != ma


def test_polygon_summand_check_examples():
    pt = from_points([(2, 2)], TRIV)
    K = from_points([(0, 0), (2, 0), (1, 1)], UP)
    assert polygon_summand_check(pt, K)
    bottom = from_points([(0, 0), (2, 0)], TRIV)
    assert polygon_summand_check(bottom, K)
    long_seg = from_points([(0, 0), (3, 0)], TRIV)
    tri = from_points([(0, 0), (2, 0), (1, 5)], UP)
    assert not polygon_summand_check(long_seg, tri)


def test_polygon_summand_agrees_with_measure_route():
    rng = random.Random(555)
    agree = 0
    for _ in range(300):
        cone = rand_cone2(rng)
        P = rand_vpolygon(rng, TRIV, 4, 4)
        if rng.random() < 0.5:
            K = minkowski_sum(from_points(P.chain, cone), rand_vpolygon(rng, cone))
        else:
            K = rand_vpolygon(rng, cone)
        via_faces = polygon_summand_check(P, K)
        via_measure, _ = is_summand(from_points(P.chain, cone), K)
        assert via_faces == via_measure
        agree += 1
    assert agree == 300


# ---------------------------------------------------------------------------
# equivalence

def test_equivalence_reflexive_and_common_summand():
    rng = random.Random(4)
    for _ in range(50):
        cone = rand_cone2(rng)
        A, B, M = (rand_vpolygon(rng, cone) for _ in range(3))
        assert are_equivalent(A, B, A, B)
        assert are_equivalent(A, B, minkowski_sum(A, M), minkowski_sum(B, M))


def _example_210_pairs():
    B = from_points([(0, 0), (2, 0)], TRIV)
    A = from_points([(0, 0), (2, 0), (1, 1)], TRIV)
    out = {"A": A, "B": B}
    for name, p, extra_a in (("0", (1, 0), []), ("1", (1, -2), [(0, 0)]),
                             ("2", (F(-1), F(-1, 2)), [(0, 0), (1, 1)])):
        shift = vneg(p)
        b_pts = [vadd(q, shift) for q in B.chain] + [(0, 0)]
        a_pts = [vadd(q, shift) for q in A.chain] + extra_a
        out["A" + name] = from_points(a_pts, TRIV)
        out["B" + name] = from_points(b_pts, TRIV)
    return out

def test_example_210_equivalences():
    s = _example_210_pairs()
    for i in "012":
        assert are_equivalent(s["A" + i], s["B" + i], s["A"], s["B"])


# ---------------------------------------------------------------------------
# kernel of minimality

def _halfplanes(B):
    rows = [(u, max(dot(u, p) for p in B.chain)) for u in B.measure.directions()]
    rb, ra = B.cone.polar_boundary_rays()
    rows.append((rb, dot(rb, B.chain[0])))
    rows.append((ra, dot(ra, B.chain[-1])))
    return rows


def _kernel_oracle(B, x):
    """x in B and no v in V minus 0 with x - v still in B (direct criterion)."""
    rows = _halfplanes(B)
    if any(dot(n, x) > c for n, c in rows):
        return False
    gens = B.cone.gens
    cons = []
    for n, c in rows:
        cons.append((tuple(-dot(n, g) for g in gens), "<=", c - dot(n, x)))
    for j in range(len(gens)):
        cons.append((tuple(-1 if i == j else 0 for i in range(len(gens))), "<=", 0))
    cons.append((tuple(-1 for _ in gens), "<", 0))
    return not linear_feasible(cons, len(gens))


def test_kernel_slab_fixture_with_oracle():
    A = from_points([(1, 0)], UP)
    B = from_points([(0, 0), (2, 0)], UP)
    chain = kernel_of_minimality(A, B).points
    assert chain == ((0, 0), (2, 0))
    samples = [(F(k, 25), F(0)) for k in range(51)]               # bottom edge
    samples += [(F(0), F(k, 10)) for k in range(1, 6)]            # left ray
    samples += [(F(2), F(k, 10)) for k in range(1, 6)]            # right ray
    for x in samples:
        expected = x[1] == 0 and 0 <= x[0] <= 2
        assert _kernel_oracle(B, x) == expected


def test_kernel_point_plus_cone():
    A = from_points([(0, 5)], WEDGE)
    B = from_points([(0, 0)], WEDGE)
    assert kernel_of_minimality(A, B).points == ((0, 0),)


def test_kernel_requires_zero_minimal():
    A = from_points([(1, 0)], UP)
    B = from_points([(0, 0), (2, 0)], UP)
    with pytest.raises(GeometryError, match="kernel defined only"):
        kernel_of_minimality(A, translate(B, (0, 3)))


def test_kernel_chain_is_union_of_complete_faces():
    rng = random.Random(88)
    for _ in range(50):
        cone = rand_wedge(rng)
        B = poly_with_origin_on_chain(rng, cone, rand_measure(rng, cone))
        A = VPolygon(cone, rand_point(rng), EdgeMeasure.empty())
        if not is_zero_minimal(A, B):
            continue
        chain = kernel_of_minimality(A, B).points
        for p, q in zip(chain, chain[1:]):
            u = None
            for d in B.measure.directions():
                lam = B.measure.as_dict().get(d, 0)
                if vsub(q, p) == tuple(lam * c for c in rot90(d)):
                    u = d
            assert u is not None
            assert B.support(u)[1] == ("segment", p, q)


def _face_points(face):
    if face[0] == "point":
        return [face[1]]
    if face[0] == "segment":
        return [face[1], face[2]]
    raise AssertionError("unbounded face in iterated support")


def _iterated_support(poly, dirs):
    pts = _face_points(poly.support(dirs[0])[1])
    for u in dirs[1:]:
        m = max(dot(p, u) for p in pts)
        pts = [p for p in pts if dot(p, u) == m]
    return pts


def test_kernel_directionality_on_two_sided_minimal_pairs():
    rng = random.Random(99)
    tried = 0
    for _ in range(200):
        cone = rand_wedge(rng)
        ma = rand_measure(rng, cone)
        mb = EdgeMeasure.from_entries(
            {u: F(rng.randint(1, 4)) for u in rand_measure(rng, cone).directions()
             if u not in ma.as_dict()})
        A = poly_with_origin_on_chain(rng, cone, ma)
        B = poly_with_origin_on_chain(rng, cone, mb)
        if not (is_zero_minimal(A, B) and is_zero_minimal(B, A)):
            continue
        tried += 1
        kb = kernel_of_minimality(A, B).points
        ka = kernel_of_minimality(B, A).points
        dirs = [rand_polar_interior_dir(rng, cone) for _ in range(rng.randint(1, 3))]
        from minkpair.planar import _on_chain

        assert all(_on_chain(kb, p) for p in _iterated_support(B, dirs))
        assert all(_on_chain(ka, p) for p in _iterated_support(A, dirs))
        if tried >= 40:
            break
    assert tried >= 40


# ---------------------------------------------------------------------------
# additivity and order cancellation

def test_measure_and_support_additivity():
    rng = random.Random(1001)
    for _ in range(100):
        cone = rand_cone2(rng)
        A = rand_vpolygon(rng, cone)
        B = rand_vpolygon(rng, cone)
        S = minkowski_sum(A, B)
        assert S.measure == A.measure.add(B.measure)
        for _ in range(20):
            u = rand_polar_interior_dir(rng, cone)
            assert S.support(u)[0] == A.support(u)[0] + B.support(u)[0]


def test_support_infinite_exactly_off_polar():
    rng = random.Random(1002)
    for _ in range(100):
        cone = rand_cone2(rng)
        if cone.is_trivial:
            continue
        A = rand_vpolygon(rng, cone)
        from conftest import rand_direction

        u = rand_direction(rng, 6)
        val, _ = A.support(u)
        assert (val == float("inf")) == (not cone.polar_contains(u))


def subset(a: VPolygon, c: VPolygon) -> bool:
    """a subseteq c: chain vertices inside c and cone contained in c's cone."""
    if not all(c.cone.contains_vector(g) for g in a.cone.gens):
        return False
    return all(c.contains(p) for p in a.chain)


def test_order_cancellation():
    rng = random.Random(63)
    for _ in range(100):
        cone = rand_cone2(rng)
        A = rand_vpolygon(rng, cone)
        B = rand_vpolygon(rng, cone)
        M = rand_vpolygon(rng, cone)
        C = minkowski_sum(A, translate(M, vneg(M.anchor)))  # 0 in the second factor
        assert subset(minkowski_sum(A, B), minkowski_sum(B, C))
        assert subset(A, C)
    # independently generated triples: premise checked, conclusion asserted
    hits = 0
    for _ in range(500):
        cone = rand_cone2(rng)
        A = rand_vpolygon(rng, cone, 3, 3)
        B = rand_vpolygon(rng, cone, 3, 3)
        C = rand_vpolygon(rng, cone, 3, 3)
        if subset(minkowski_sum(A, B), minkowski_sum(B, C)):
            assert subset(A, C)
            hits += 1
    assert hits > 5


def test_recession_cone_is_declared_cone():
    rng = random.Random(2024)
    for _ in range(100):
        cone = rand_cone2(rng)
        A = rand_vpolygon(rng, cone)
        for g in cone.gens:
            for p in A.chain:
                assert A.contains(vadd(p, g))
                assert A.contains(vadd(p, tuple(907 * c for c in g)))
        from conftest import rand_direction

        d = rand_direction(rng, 5)
        if not cone.contains_vector(d):
            p = A.chain[0]
            assert not all(A.contains(vadd(p, tuple(t * c for c in d))) for t in (1, 13, 701))


def test_hull_2d_basics():
    assert convex_hull_2d([(0, 0)]) == [(0, 0)]
    assert convex_hull_2d([(0, 0), (2, 2), (1, 1)]) == [(0, 0), (2, 2)]
    sq = convex_hull_2d([(0, 0), (1, 0), (1, 1), (0, 1), (F(1, 2), F(1, 2))])
    assert len(sq) == 4


NEAR_2_64 = st.builds(lambda s, k: s * 2**64 + k, st.sampled_from((1, -1)), st.integers(-3, 3))
HULL_SCALARS = (
    st.integers(-4, 4),
    st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6)),
    st.one_of(st.integers(-4, 4), NEAR_2_64),
)


@st.composite
def hull_2d_inputs(draw):
    """One to nine points of small ints, `Fraction`s or coordinates near
    +-2^64: as drawn, on one line, or drawn with repeats."""
    scalar = draw(st.sampled_from(HULL_SCALARS))
    point = st.tuples(scalar, scalar)
    n = draw(st.integers(1, 9))
    shape = draw(st.sampled_from(("free", "line", "repeats")))
    if shape == "line":
        (x, y), (dx, dy) = draw(point), draw(point)
        return [(x + t * dx, y + t * dy) for t in draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))]
    pts = draw(st.lists(point, min_size=1, max_size=n))
    return [draw(st.sampled_from(pts)) for _ in range(n)] if shape == "repeats" else pts


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(hull_2d_inputs())
@example([(2**64, -3)])
@example([(Fraction(1, 3), 2), (-(2**64), 2**64)])
@example([(0, 0), (2, 2), (1, 1), (1, 1), (3, 3)])
def test_hull_2d_matches_the_brute_force_oracle(points):
    """The monotone chain returns exactly the points outside the hull of the
    others, CCW from the lexicographic minimum, list for list.
    `convex_hull_2d` turns every coordinate into a `Fraction`; integer
    draws also go to `hull_chain` as int tuples, as the perp-plane scan and
    `_planar_cycle` pass them."""
    hull = hull_2d_vertices(points)
    assert convex_hull_2d(points) == hull
    if all(type(c) is int for p in points for c in p):
        assert hull_chain(sorted(set(points))) == hull


# ---------------------------------------------------------------------------
# point membership against the Fourier-Motzkin oracle

DENOMINATORS = (1, 2, 3, 5, 7, 11, 13, 64, 81, 89, 91, 95, 96, 97)
HUGE = st.integers(2**64, 2**72) | st.integers(-(2**72), -(2**64))
SCALARS = (
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-60, 60), st.sampled_from(DENOMINATORS)),
    st.one_of(st.integers(-6, 6), HUGE, st.builds(Fraction, HUGE, st.sampled_from(DENOMINATORS))),
)
DIR2 = st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(any).map(normalize_direction)


@st.composite
def cones2(draw):
    kind = draw(st.sampled_from(["trivial", "ray", "wedge"]))
    if kind == "trivial":
        return TRIV
    a = draw(DIR2)
    if kind == "ray":
        return Cone2((a,))
    b = draw(DIR2.filter(lambda b: cross2(a, b) != 0))
    return Cone2((a, b)) if cross2(a, b) > 0 else Cone2((b, a))


@st.composite
def membership_cases(draw):
    """A V-polygon over one point, a collinear or a general set (with repeated
    points) under any cone kind, and queries at its vertices, on and near its
    edges, along its cone and anywhere."""
    scalar = draw(st.sampled_from(SCALARS))
    point = st.tuples(scalar, scalar)
    cone = draw(cones2())
    shape = draw(st.sampled_from(["point", "collinear", "general", "general"]))
    if shape == "point":
        pts = [draw(point)]
    elif shape == "collinear":
        base, axis = draw(point), draw(point.filter(any))
        steps = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=5))
        pts = [vadd(base, tuple(t * c for c in axis)) for t in steps]
    else:
        pts = draw(st.lists(point, min_size=1, max_size=7))
    pts += draw(st.lists(st.sampled_from(pts), max_size=3))
    A = from_points(pts, cone)
    chain = A.chain
    queries = [draw(st.sampled_from(chain)), draw(point), draw(point)]
    for _ in range(3):
        i = draw(st.integers(0, len(chain) - 1))
        p, q = chain[i], chain[(i + 1) % len(chain)]
        t = Fraction(draw(st.integers(-2, 10)), 8)
        queries.append(vadd(p, tuple(t * c for c in vsub(q, p))))
    for g in cone.gens:
        k = draw(st.sampled_from([1, 3, 2**64 + 1]))
        nudge = draw(st.sampled_from([(0, 0), (Fraction(1, 97), 0), (0, Fraction(-1, 97))]))
        queries.append(vadd(vadd(draw(st.sampled_from(chain)), tuple(k * c for c in g)), nudge))
    return A, queries


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(membership_cases())
def test_contains_matches_fourier_motzkin(case):
    A, queries = case
    for x in queries:
        assert A.contains(x) == fm_contains(A, x)


def test_contains_degenerate_examples():
    # one point, a segment and a ray's base: vertices and edge points are inside
    P = from_points([(1, 2)], TRIV)
    assert P.contains((1, 2)) and not P.contains((1, F(2001, 1000)))
    S = from_points([(0, 0), (4, 2), (2, 1), (4, 2)], TRIV)
    assert S.contains((2, 1)) and S.contains((4, 2)) and not S.contains((6, 3))
    assert not S.contains((2, F(1, 1) + F(1, 2**64)))
    R = from_points([(0, 0), (2, 0)], UP)
    assert R.contains((1, 2**70)) and not R.contains((-F(1, 97), 5))
    W = from_points([(0, 0)], WEDGE)
    assert W.contains((-3, 2)) and W.contains((-3, -3)) and not W.contains((-3, F(301, 100)))
    for point in ((0, 0, 0), (0,)):
        with pytest.raises(GeometryError, match="coordinates"):
            W.contains(point)


# ---------------------------------------------------------------------------
# the chain's integer lattice against the `Fraction` bodies it replaced


@st.composite
def lattice_cases(draw):
    """A V-polygon over one point, a collinear or a general set, or a sum of
    two, under any cone kind; the raw points; directions as ints, Fractions
    and scaled vectors, the polar boundary rays and the edge normals among
    them; and membership queries."""
    scalar = draw(st.sampled_from(SCALARS))
    point = st.tuples(scalar, scalar)
    cone = draw(cones2())
    shape = draw(st.sampled_from(["point", "collinear", "general", "general", "sum"]))
    if shape == "point":
        pts = [draw(point)]
    elif shape == "collinear":
        base, axis = draw(point), draw(point.filter(any))
        steps = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=5))
        pts = [vadd(base, tuple(t * c for c in axis)) for t in steps]
    else:
        pts = draw(st.lists(point, min_size=1, max_size=7))
    pts += draw(st.lists(st.sampled_from(pts), max_size=3))
    A = from_points(pts, cone)
    if shape == "sum":
        A = minkowski_sum(A, from_points(draw(st.lists(point, min_size=1, max_size=4)), cone))
    prims = draw(st.lists(DIR2, min_size=1, max_size=4)) + A.measure.directions()
    if not cone.is_trivial:
        prims += list(cone.polar_boundary_rays())
    factor = st.sampled_from([1, 3, 2**64 + 1]) | st.builds(
        Fraction, st.integers(1, 2**70), st.sampled_from(DENOMINATORS))
    dirs = list(prims) + [tuple(draw(factor) * Fraction(c) for c in u) for u in prims]
    queries = list(A.chain) + draw(st.lists(point, max_size=3))
    for g in cone.gens:
        queries.append(vadd(draw(st.sampled_from(A.chain)), tuple(draw(factor) * c for c in g)))
    return A, pts, dirs, queries


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(lattice_cases())
def test_lattice_paths_match_fraction_oracles(case):
    A, pts, dirs, queries = case
    assert A.chain == fraction_chain(A)
    den, ints = lattice(A.chain)
    assert A.lattice == (den, tuple(ints))
    for u in dirs:
        assert A.support(u) == fraction_support(A, u)
    assert from_points(pts, A.cone).anchor == fraction_face_midpoint(convex_hull_2d(pts), A.cone.u0)
    for x in queries:
        assert A.contains(x) == fm_contains(A, x)
    if not A.cone.is_trivial:
        for x in queries:
            B = translate(A, vneg(x))
            for C in (A, from_points([x], A.cone), from_points(pts[:2], A.cone)):
                assert is_zero_minimal(C, B) == fraction_is_zero_minimal(C, B)


def test_measure_directions_must_be_primitive():
    # equal sets, but a non-primitive direction would give a second canonical form
    half = EdgeMeasure.from_entries({(4, -2): F(1, 2)})
    with pytest.raises(GeometryError, match="primitive"):
        VPolygon(UP, (0, 0), half)
    for u in [(0, 0), (F(2), F(-1)), (2, -1, 0)]:
        with pytest.raises(GeometryError, match="primitive"):
            VPolygon(UP, (0, 0), EdgeMeasure.from_entries({u: 1}))
    whole = VPolygon(UP, (0, 0), EdgeMeasure.from_entries({(2, -1): 1}))
    assert whole.chain == ((0, 0), (1, 2))


# ---------------------------------------------------------------------------
# canonical edge measures: refused when built out of order or non-positive,
# and the integer operations against the dict-and-re-sort `Fraction` bodies

def _one_line_refusal(entries, match):
    with pytest.raises(GeometryError, match=match) as info:
        EdgeMeasure(entries)
    assert "\n" not in str(info.value)


def test_measure_refuses_reversed_entries():
    # a square's entries reversed would be a second canonical form with a
    # clockwise chain
    square = from_points([(0, 0), (1, 0), (1, 1), (0, 1)], TRIV)
    _one_line_refusal(tuple(reversed(square.measure.entries)), "CCW order")
    _one_line_refusal(square.measure.entries[:1] * 2, "CCW order")  # a repeated direction
    assert EdgeMeasure(square.measure.entries) == square.measure


def test_measure_refuses_negated_coefficients():
    negated = tuple((u, -lam) for u, lam in tri_A().measure.entries)
    _one_line_refusal(negated, "positive")
    with pytest.raises(GeometryError, match="positive"):
        VPolygon(TRIV, ORIGIN, EdgeMeasure.from_entries(dict(negated)))


def test_measure_refuses_zero_coefficients():
    # a zero entry on a ray-cone set would repeat a chain point and make the
    # set unequal to itself with the entry left out
    ray = from_points([(0, 0), (2, -1)], UP)
    (u, lam), = ray.measure.entries
    _one_line_refusal(((u, lam), ((1, -1), F(0))), "positive")
    _one_line_refusal((((0, -1), F(0)),), "positive")
    assert EdgeMeasure.from_entries({u: lam, (1, -1): 0}) == ray.measure


HUGE_DENS = (2**64 + 13, 3**41, 2**70 - 1)
COEFFS = st.builds(
    Fraction,
    st.integers(1, 40) | st.integers(2**64, 2**72),
    st.sampled_from(DENOMINATORS + HUGE_DENS),
)


@st.composite
def measure_cases(draw):
    """Two measures on shared and private primitive directions (some from a
    closing polygon), coefficients with denominators past 2^64, and a
    scalar of either sign."""
    shared = draw(st.lists(DIR2, max_size=5, unique=True))
    def measure():
        dirs = shared + draw(st.lists(DIR2, max_size=4, unique=True))
        return EdgeMeasure.from_entries({u: draw(COEFFS) for u in dirs})
    ma, mb = measure(), measure()
    if draw(st.booleans()):
        pts = draw(st.lists(st.tuples(SCALARS[2], SCALARS[2]), min_size=1, max_size=6))
        ma = from_points(pts, TRIV).measure
        if draw(st.booleans()):
            mb = ma.scale(draw(COEFFS)).add(mb)
    t = draw(st.sampled_from([0, 1, -1]) | COEFFS | COEFFS.map(lambda c: -c))
    return ma, mb, t


def _outcome(f, *args):
    try:
        out = f(*args)
    except GeometryError as exc:
        return "refused", str(exc)
    return getattr(out, "entries", out)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(measure_cases())
def test_measure_operations_match_dict_oracles(case):
    ma, mb, t = case
    assert EdgeMeasure(ma.entries) == ma and EdgeMeasure.from_entries(ma.as_dict()) == ma
    assert ma.entries == dict_from_entries(ma.as_dict())
    for op, oracle in [(EdgeMeasure.add, dict_add), (EdgeMeasure.sub, dict_sub),
                       (measure_inf, dict_measure_inf)]:
        for x, y in [(ma, mb), (mb, ma), (ma, ma)]:
            got = _outcome(op, x, y)
            assert got == _outcome(oracle, x, y)
            if got[:1] != ("refused",):
                assert op(x, y) == EdgeMeasure(got)  # one canonical form
    assert _outcome(EdgeMeasure.scale, ma, t) == _outcome(dict_scale, ma, t)
    open_chain = ("refused", "bounded polygon measure does not close up")
    for m in (ma, mb, ma.add(mb)):
        assert (_outcome(VPolygon, TRIV, ORIGIN, m) == open_chain) is not fraction_closes(m)


def test_support_does_constant_fraction_work(monkeypatch):
    """On a fresh lifted parabola (k/3, k^2/9), |k| <= 200 (401 vertices),
    support queries build the integer lattice and then a few `Fraction`s
    each, the value and the face points, never the `Fraction` chain (the dot
    product at every vertex took two products per vertex)."""
    pts = [(F(k, 3), F(k * k, 9)) for k in range(-200, 201)]
    dirs = [(1, -3), (0, -1), (F(-7, 2), F(1, 5)), (2, 9)]
    expected = [fraction_support(from_points(pts, TRIV), u) for u in dirs]
    P = from_points(pts, TRIV)
    built, products = [0], [0]

    def counting(op, calls):
        def counted(*args, **kwargs):
            calls[0] += 1
            return op(*args, **kwargs)
        return counted

    monkeypatch.setattr(F, "__new__", staticmethod(counting(F.__new__, built)))
    monkeypatch.setattr(F, "__mul__", counting(F.__mul__, products))
    monkeypatch.setattr(F, "__rmul__", counting(F.__rmul__, products))
    got = [P.support(u) for u in dirs]
    monkeypatch.undo()
    assert "chain" not in vars(P)
    assert products[0] <= 2 * len(dirs)
    assert built[0] <= 8 * len(dirs)
    assert got == expected

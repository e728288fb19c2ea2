import itertools
import random
from collections import Counter
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from momstrat import (
    HPolytope,
    face_lattice,
    mat,
    project_relint,
    vec,
    vertices,
)
from momstrat.errors import DimensionMismatch, EmptyPolytope, RankDeficient, UnboundedPolytope
from momstrat.polyhedron import (
    _facets,
    _SignTable,
    cell_from_closure_points,
    cell_key,
    closure_faces,
    is_bounded,
    meets,
    split_cell,
)
from support import (
    ambient_rows,
    box_cell,
    int_form,
    paper_action,
    prism_polytope,
    random_toric_instance,
    scanned_hull_cell,
    segment_cell,
    simplex2_scaled,
    unit_square,
)

F = Fraction


def test_vertices_unit_square():
    assert vertices(unit_square()) == [
        vec([0, 0]),
        vec([0, 1]),
        vec([1, 0]),
        vec([1, 1]),
    ]


def test_vertices_prism_are_the_six_fixed_point_images():
    vs = vertices(prism_polytope())
    expect = {(0, 0, 0), (1, 0, 0), (0, 3, 0), (1, 3, 0), (0, 0, 3), (1, 0, 3)}
    assert {tuple(map(int, v)) for v in vs} == expect


def test_vertices_simplex():
    p = HPolytope.from_rows([[-1, 0], [0, -1], [1, 1]], [0, 0, 1])
    assert vertices(p) == [vec([0, 0]), vec([0, 1]), vec([1, 0])]


def test_vertices_unbounded_raises():
    p = HPolytope.from_rows([[-1, 0], [0, -1]], [0, 0])
    assert not is_bounded(p)
    with pytest.raises(UnboundedPolytope):
        vertices(p)


def test_vertices_empty_raises():
    p = HPolytope.from_rows([[1, 0], [-1, 0], [0, 1], [0, -1]], [0, -1, 1, 0])
    with pytest.raises(EmptyPolytope):
        vertices(p)


def _dim_counts(lattice):
    return Counter(f.dim for f in lattice.faces if f.dim >= 0)


def test_face_lattice_square():
    counts = _dim_counts(face_lattice(unit_square()))
    assert counts == Counter({0: 4, 1: 4, 2: 1})


def test_face_lattice_prism():
    # product lattice count (2,1) x (3,3,1) expanded by hand: 6 / 9 / 5 / 1
    counts = _dim_counts(face_lattice(prism_polytope()))
    assert counts == Counter({0: 6, 1: 9, 2: 5, 3: 1})


def test_face_lattice_simplex():
    counts = _dim_counts(face_lattice(simplex2_scaled(1)))
    assert counts == Counter({0: 3, 1: 3, 2: 1})


def test_face_lattice_six_cube():
    # the cube [-1, 1]^6 has C(6, i) * 2^(6 - i) faces of dimension i
    rows = [[s if j == i else 0 for j in range(6)] for i in range(6) for s in (1, -1)]
    counts = _dim_counts(face_lattice(HPolytope.from_rows(rows, [1] * 12)))
    assert counts == Counter({i: comb(6, i) * 2 ** (6 - i) for i in range(7)})


def test_face_lattice_graded_and_vertex_intersection():
    lattice = face_lattice(prism_polytope())
    top_dim = max(f.dim for f in lattice.faces)
    facets = [f for f in lattice.faces if f.dim == top_dim - 1]
    # cover relation: lower face inside upper face, dimension gap one
    covers = [
        (lo, hi)
        for lo in lattice.faces
        for hi in lattice.faces
        if hi.dim == lo.dim + 1 and set(lo.vertex_ids) <= set(hi.vertex_ids)
    ]
    for f in lattice.faces:
        # gradedness: every face below the top covers something and is covered
        if f.dim < top_dim:
            assert any(lo is f for lo, _ in covers)
        if f.dim > -1:
            assert any(hi is f for _, hi in covers) or f.dim == top_dim
        # proper nonempty faces are the intersections of the facets above them
        if 0 <= f.dim < top_dim - 1:
            above = [g for g in facets if set(f.vertex_ids) <= set(g.vertex_ids)]
            assert above
            meet = set.intersection(*(set(g.vertex_ids) for g in above))
            assert meet == set(f.vertex_ids)


def test_facets_match_the_all_pairs_maximality_scan():
    # reference: each meet tested for maximality against every other meet
    rng = random.Random(7)
    for _ in range(400):
        count = rng.randint(1, 12)
        tight = [rng.getrandbits(count) for _ in range(rng.randint(0, 10))]
        face = rng.getrandbits(count) | 1 << rng.randrange(count)
        parts = {face & t for t in tight} - {face, 0}
        want = [s for s in parts if not any(s != t and s & t == s for t in parts)]
        assert _facets(face, tight) == want


def _random_product_polytope(rng):
    # random product of scaled simplices and intervals, total dim <= 4
    n = rng.randint(1, 4)
    rows, offs, at = [], [], 0
    dims = []
    rem = n
    while rem:
        d = rng.randint(1, rem)
        dims.append(d)
        rem -= d
    for d in dims:
        c = rng.randint(1, 3)
        for i in range(d):
            row = [0] * n
            row[at + i] = -1
            rows.append(row)
            offs.append(0)
        row = [0] * n
        for i in range(d):
            row[at + i] = 1
        rows.append(row)
        offs.append(c)
        at += d
    return HPolytope.from_rows(rows, offs)


def test_euler_characteristic_random_products():
    rng = random.Random(5)
    for _ in range(12):
        p = _random_product_polytope(rng)
        lattice = face_lattice(p)
        d = max(f.dim for f in lattice.faces)
        total = sum((-1) ** f.dim for f in lattice.faces if 0 <= f.dim < d)
        assert total == 1 - (-1) ** d


def _prism_face_with_vertices(vset):
    lattice = face_lattice(prism_polytope())
    for f in lattice.faces:
        if f.dim >= 0 and {tuple(map(int, v)) for v in f.vertex_coords} == vset:
            return f
    raise AssertionError(f"no face with vertices {vset}")


B_T = mat([[1, 1, 0], [0, 0, 1]])


def test_project_relint_vertex_is_yellow_dot():
    f = _prism_face_with_vertices({(0, 0, 3)})
    cell = project_relint(f, B_T)
    assert cell.dim == 0
    assert cell.closure_vertices == mat([[0, 3]])


def test_project_relint_edge_is_open_segment():
    f = _prism_face_with_vertices({(1, 0, 0), (1, 0, 3)})
    cell = project_relint(f, B_T)
    assert cell.dim == 1
    assert cell.closure_vertices == mat([[1, 0], [1, 3]])
    assert cell.contains(vec([1, 2]))
    assert not cell.contains(vec([1, 3]))
    assert not cell.contains(vec([1, 0]))


def test_project_relint_full_prism_is_open_quadrilateral():
    f = _prism_face_with_vertices(
        {(0, 0, 0), (1, 0, 0), (0, 3, 0), (1, 3, 0), (0, 0, 3), (1, 0, 3)}
    )
    cell = project_relint(f, B_T)
    assert cell.dim == 2
    assert {tuple(map(int, v)) for v in cell.closure_vertices} == {
        (0, 0),
        (4, 0),
        (1, 3),
        (0, 3),
    }
    assert cell.contains(vec([2, 1]))
    assert not cell.contains(vec([2, 2]))  # on the boundary line x + y = 4


def test_project_relint_rank_deficient():
    f = _prism_face_with_vertices({(0, 0, 3)})
    with pytest.raises(RankDeficient):
        project_relint(f, mat([[1, 1, 0], [2, 2, 0]]))


def test_cell_contains_open_segment():
    seg = segment_cell([1, 0], [1, 3])
    assert seg.contains(vec([1, 2]))
    assert not seg.contains(vec([1, 3]))
    assert not seg.contains(vec([2, 2]))


def _carrier_local_membership(cell, x, closed):
    """Reference point test in the cell's carrier coordinates: x on the
    carrier, every local row holding, and for the open cell every excluded
    face keeping one of its rows strict."""
    if not cell.carrier.contains(x):
        return False
    t = cell.carrier.to_local(x)
    slack = [b - sum(ai * ti for ai, ti in zip(a, t)) for a, b in zip(cell.closed_A, cell.closed_b)]
    if any(v < 0 for v in slack):
        return False
    return closed or all(any(slack[i] > 0 for i in face) for face in cell.excluded_faces)


def _probe_points(cell):
    verts = list(cell.closure_vertices)
    centre = cell.sample_point()
    pts = verts + [centre]
    pts += [tuple((p + q) / 2 for p, q in zip(u, w)) for u, w in itertools.combinations(verts, 2)]
    # off the carrier along each of its normals
    pts += [tuple(c + F(1, 7) * ai for c, ai in zip(centre, a)) for a, _ in cell.carrier.equations()]
    return pts


def test_point_tests_match_carrier_local_reference():
    for action in [paper_action()] + [random_toric_instance(seed) for seed in (1000, 1005, 1008)]:
        members = action.cover.members
        cells = list(members) + closure_faces(members)
        for cell in cells:
            for x in _probe_points(cell):
                assert cell.contains(x) == _carrier_local_membership(cell, x, closed=False)
                assert cell.closure_contains(x) == _carrier_local_membership(cell, x, closed=True)


def _assert_canonical_sides(parts):
    # every side is the cell of its closure vertices, and its integer rows
    # are the integer forms of the Fraction reference rows
    for part in parts.values():
        assert part == cell_from_closure_points(part.closure_vertices)
        equations, facets = ambient_rows(part)
        assert part._int_equations == int_form(equations)
        assert part._int_facet_rows == int_form(facets)


def _vertices(parts):
    return {side: [[str(c) for c in v] for v in part.closure_vertices] for side, part in parts.items()}


def test_split_cell_signs():
    # cuts are integer rows (a, beta numerator, beta denominator)
    square = box_cell([[0, 0], [0, 2], [2, 0], [2, 2]])
    parts = split_cell(square, ((1, 0), 1, 1))
    assert set(parts) == {-1, 0, 1}
    assert parts[0].dim == 1
    _assert_canonical_sides(parts)
    parts2 = split_cell(square, ((1, 0), 5, 1))
    assert set(parts2) == {-1}
    assert parts2[-1] is square
    # a non-integer offset: x = 1/2
    half = split_cell(square, ((1, 0), 1, 2))
    assert _vertices(half) == {
        -1: [["0", "0"], ["0", "2"], ["1/2", "0"], ["1/2", "2"]],
        0: [["1/2", "0"], ["1/2", "2"]],
        1: [["1/2", "0"], ["1/2", "2"], ["2", "0"], ["2", "2"]],
    }
    _assert_canonical_sides(half)
    # a positive multiple of a cut gives identical sides, cached rows included
    for cut, same in ((((3, 0), 3, 1), parts), (((2, 0), 1, 1), half)):
        multiple = split_cell(square, cut)
        assert multiple == same
        assert all(multiple[k]._int_facet_rows == same[k]._int_facet_rows for k in same)
    # a triangle on the plane x + y + z = 1 in R^3, cut by x = 1/2: the two
    # sides keep its carrier, and a cut that differs on R^3 but agrees with
    # x = 1/2 on that plane gives the same sides
    triangle = cell_from_closure_points([vec(p) for p in ([0, 0, 1], [2, 0, -1], [0, 2, -1])])
    tri = split_cell(triangle, ((1, 0, 0), 1, 2))
    assert _vertices(tri) == {
        -1: [["0", "0", "1"], ["0", "2", "-1"], ["1/2", "0", "1/2"], ["1/2", "3/2", "-1"]],
        0: [["1/2", "0", "1/2"], ["1/2", "3/2", "-1"]],
        1: [["1/2", "0", "1/2"], ["1/2", "3/2", "-1"], ["2", "0", "-1"]],
    }
    assert tri[-1].carrier == tri[1].carrier == triangle.carrier and tri[0].dim == 1
    _assert_canonical_sides(tri)
    assert split_cell(triangle, ((2, 1, 1), 3, 2)) == tri


def test_closure_faces_are_canonical_cells():
    # the prism's closure faces: 6 vertices, 9 edges, 5 facets, the prism itself
    cell = cell_from_closure_points(list(vertices(prism_polytope())))
    faces = closure_faces([cell])
    assert Counter(f.dim for f in faces) == Counter({0: 6, 1: 9, 2: 5, 3: 1})
    assert cell in faces
    for f in faces:
        assert f == cell_from_closure_points(list(f.closure_vertices))
        assert all(cell.closure_contains(v) for v in f.closure_vertices)
    # faces shared by two closures come back once
    facets = [f for f in faces if f.dim == 2]
    a, b = next(
        (f, g) for f in facets for g in facets if f != g and set(f.closure_vertices) & set(g.closure_vertices)
    )
    both = closure_faces([a, b])
    assert len(both) == len(set(both)) < len(closure_faces([a])) + len(closure_faces([b]))
    assert set(both) == set(closure_faces([a])) | set(closure_faces([b]))


def test_cell_canonical_encoding():
    c1 = box_cell([[0, 0], [0, 1], [1, 0], [1, 1]])
    c2 = box_cell([[1, 1], [0, 1], [1, 0], [0, 0]])
    assert c1 == c2
    assert cell_key(c1) == cell_key(c2)


def test_project_relint_direction_is_projected_face_direction():
    from momstrat.linalg import AffineSubspace, mat_vec, row_space_basis

    lattice = face_lattice(prism_polytope())
    for f in lattice.nonempty_faces():
        cell = project_relint(f, B_T)
        hull = AffineSubspace.from_points(list(f.vertex_coords))
        pushed = row_space_basis(mat([mat_vec(B_T, d) for d in hull.directions]))
        assert cell.carrier.directions == pushed


def test_meets_open_cell_excludes_its_facet_hyperplane():
    # the segment {1} x [0, 1] lies in the facet line u = 1 of the box
    seg = segment_cell([1, 0], [1, 1])
    box = box_cell([[0, 0], [0, 2], [1, 0], [1, 2]])
    # ``meets`` reads the box as its closure, which holds the segment
    assert meets(seg, box, _SignTable([seg, box]))


def test_cell_from_closure_points_is_exact():
    cell = cell_from_closure_points([[1, 0], [1, 1]])
    assert cell == cell_from_closure_points([["1", "0"], ["1", "1"]]) == segment_cell([1, 0], [1, 1])
    assert all(type(c) is Fraction for row in cell.carrier.directions for c in row)
    assert all(type(c) is Fraction for v in cell.closure_vertices for c in v)
    with pytest.raises(TypeError):
        cell_from_closure_points([[1.0, 0], [1, 1]])


def test_cell_contains_dimension_mismatch():
    seg = segment_cell([1, 0], [1, 3])
    with pytest.raises(DimensionMismatch):
        seg.contains(vec([1, 2, 3]))


def test_cell_from_no_points_is_empty():
    with pytest.raises(EmptyPolytope):
        cell_from_closure_points([])


def test_cell_from_ragged_points_is_refused():
    with pytest.raises(DimensionMismatch):
        cell_from_closure_points([[0, 0], [1]])


@st.composite
def point_sets(draw):
    """Rational points in R^1..R^4 on a carrier of any dimension up to n:
    a base point plus rational combinations of d rational directions, drawn
    with repeats (so collinear, coplanar and single points come up), or the
    d + 1 vertices of a simplex; entries have mixed denominators."""
    n = draw(st.integers(1, 4))
    d = n - draw(st.integers(0, n))
    rational = st.fractions(-3, 3, max_denominator=6)
    base = [draw(rational) for _ in range(n)]
    dirs = [[draw(rational) for _ in range(n)] for _ in range(d)]
    if draw(st.booleans()):
        mixes = [[F(0)] * d] + [[F(i == j) for j in range(d)] for i in range(d)]
    else:
        pool = draw(st.lists(st.lists(rational, min_size=d, max_size=d), min_size=2, max_size=8))
        mixes = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=12))
    return [[b + sum(c * v[i] for c, v in zip(mix, dirs)) for i, b in enumerate(base)] for mix in mixes]


@settings(derandomize=True, deadline=None, max_examples=200)
@given(point_sets())
@example([[0, 0], [0, 1], [1, 0], [1, 1]])
@example(list(itertools.product((0, 1), repeat=4)))
def test_cell_from_closure_points_matches_the_hyperplane_scan(points):
    cell, ref = cell_from_closure_points(points), scanned_hull_cell(points)
    fields = ("carrier", "closed_A", "closed_b", "excluded_faces", "closure_vertices")
    assert [getattr(cell, f) for f in fields] == [getattr(ref, f) for f in fields]
    assert cell_key(cell) == cell_key(ref)


def test_cell_of_the_5_cube_vertices_is_found_without_a_hyperplane_scan():
    # the scan tried C(32, 5) = 201,376 hyperplanes through the 32 vertices
    cell = cell_from_closure_points(list(itertools.product((0, 1), repeat=5)))
    assert (len(cell.closed_A), len(cell.closure_vertices)) == (10, 32)

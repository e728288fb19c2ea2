"""Property tests: the integer sign kernel of ``polyhedron`` against a plain
``Fraction`` reference (``dot(a, x) <= b`` and box comparisons on the
closure vertices), ``meets`` and the sign table against vertex enumeration,
the sign table against the pairwise separation test it replaced and its
vertex-signed bit sets against bit sets evaluated key by key per cell, and
the incidence routines (bit-set tight sets, face dimensions by descent, fan
volumes) against ranks and closed forms; and the box sweep and the point
location built on it against all pairs."""

import math
from fractions import Fraction
from functools import lru_cache

from hypothesis import example, given, settings
from hypothesis import strategies as st

from momstrat.dh import polytope_volume
from momstrat.linalg import AffineSubspace, dot, vec
from momstrat.polyhedron import (
    _bbox_disjoint,
    _box_pairs,
    _faces_by_incidence,
    _int_points,
    _interiors,
    _located,
    _SignTable,
    _split_by,
    cell_from_closure_points,
    closure_faces,
    enumerate_vertices,
    face_lattice,
    meets,
    tight_sets,
    vertices,
)
from support import (
    all_pairs_located,
    ambient_rows,
    closures_separated,
    corpus,
    large_product_action,
    paper_action,
    per_cell_signs,
    product_actions,
    product_polytope,
    random_toric_instance,
)

F = Fraction
SETTINGS = settings(derandomize=True, deadline=None, max_examples=300)


# closure vertices with unlike denominators, so offsets are not integers
RATIONAL = (
    [["1/2", "1/3"], ["5/2", "2/7"], ["3/5", "9/4"]],
    [["-1/3", "0", "1/2"], ["2/3", "1/5", "0"], ["0", "7/6", "1/4"], ["1/7", "1/7", "5/3"]],
    [["1/3", "1/2", "0"], ["4/3", "-1/4", "2/5"]],
)


@lru_cache(maxsize=None)
def pool():
    """Cover members, refined pieces and closure faces of the paper example
    and three corpus instances, the faces of two products of simplices, and
    cells with rational vertices."""
    cells = []
    for action in [paper_action()] + [random_toric_instance(seed) for seed in (1000, 1005, 1008)]:
        members = action.cover.members
        cells += list(members) + list(action.cover.pieces) + closure_faces(members)
    for dims, scales, shifts in (([1, 2], [2, 1], [[0], [1, -1]]), ([2, 1], [3, 2], [[-1, 0], [1]])):
        prod = cell_from_closure_points(vertices(product_polytope(dims, scales, shifts)))
        cells += closure_faces([prod])
    cells += closure_faces([cell_from_closure_points(points) for points in RATIONAL])
    return tuple(sorted(set(cells), key=lambda c: (c.ambient_dim, c.dim, c.closure_vertices)))


def by_ambient_dim(n):
    return [c for c in pool() if c.ambient_dim == n]


@lru_cache(maxsize=None)
def family_table(n):
    """One sign table over every pool cell of ambient dimension n."""
    return _SignTable(by_ambient_dim(n))


def fraction_bbox(cell):
    cols = list(zip(*cell.closure_vertices))
    return tuple(map(min, cols)), tuple(map(max, cols))


def reference_test(cell, x, strict):
    lo, hi = fraction_bbox(cell)
    if not all(l <= c <= h for l, c, h in zip(lo, x, hi)):
        return False
    equations, facets = ambient_rows(cell)
    if any(dot(a, x) != b for a, b in equations):
        return False
    return all((dot(a, x) < b) if strict else (dot(a, x) <= b) for a, b in facets)


def restrict(carrier, a, b):
    """The ambient row a.x <= b in the carrier's local coordinates, in ``Fraction``."""
    return tuple(dot(a, row) for row in carrier.directions), b - dot(a, carrier.base)


def reference_meets(x, obj):
    """Does the relatively open x meet Cl(obj)?  Q = Cl(x) ∩ Cl(obj) in
    x-local coordinates, by exhaustive vertex enumeration.  Q minus the
    facet hyperplanes of x is nonempty exactly when the convex Q lies in
    none of them."""
    rows = x.local_rows()
    equations, facets = ambient_rows(obj)
    for a, b in equations:
        a_loc, b_loc = restrict(x.carrier, a, b)
        rows += [(a_loc, b_loc), (tuple(-c for c in a_loc), -b_loc)]
    rows += [restrict(x.carrier, a, b) for a, b in facets]
    q = enumerate_vertices(rows, x.dim)
    return bool(q) and all(any(dot(a, t) != b for t in q) for a, b in x.local_rows())


cells = st.integers(min_value=0).map(lambda i: pool()[i % len(pool())])
weights = st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=12)
shifts = st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=7), min_size=4, max_size=4)


@st.composite
def cell_and_point(draw):
    """A cell and a rational point: a mix of its closure vertices (zero
    weights reach the boundary), often moved by a small rational shift."""
    cell = draw(cells)
    verts = cell.closure_vertices
    w = draw(weights)
    w = [w[i % len(w)] for i in range(len(verts))]
    if not any(w):
        w[0] = 1
    total = sum(w)
    x = tuple(sum(F(wi, total) * v[j] for wi, v in zip(w, verts)) for j in range(cell.ambient_dim))
    kind = draw(st.sampled_from(["mix", "shift", "normal"]))
    if kind == "shift":
        x = tuple(c + s for c, s in zip(x, draw(shifts)))
    elif kind == "normal" and (equations := ambient_rows(cell)[0]):
        a = equations[draw(st.integers(0, len(equations) - 1))][0]
        t = draw(st.fractions(min_value=-1, max_value=1, max_denominator=5))
        x = tuple(c + t * ai for c, ai in zip(x, a))
    return cell, vec(x)


@SETTINGS
@given(cell_and_point())
def test_point_tests_match_fraction_reference(case):
    cell, x = case
    assert cell.contains(x) == reference_test(cell, x, strict=True)
    assert cell.closure_contains(x) == reference_test(cell, x, strict=False)


@SETTINGS
@given(cells, st.integers(min_value=0))
def test_bbox_disjoint_matches_fraction_reference(c1, j):
    same = by_ambient_dim(c1.ambient_dim)
    c2 = same[j % len(same)]
    (lo1, hi1), (lo2, hi2) = fraction_bbox(c1), fraction_bbox(c2)
    expected = any(h1 < l2 or h2 < l1 for l1, h1, l2, h2 in zip(lo1, hi1, lo2, hi2))
    assert _bbox_disjoint(c1.bbox, c2.bbox) == expected


@st.composite
def box_families(draw):
    """Two lists of integer boxes in R^0 .. R^3 over mixed denominators, with
    small corners, so that faces often touch, and some boxes one point."""
    dim = draw(st.integers(min_value=0, max_value=3))
    corner = st.lists(st.integers(min_value=-4, max_value=4), min_size=dim, max_size=dim)

    def box():
        lo = draw(corner)
        hi = lo if draw(st.booleans()) else [l + draw(st.integers(min_value=0, max_value=4)) for l in lo]
        return tuple(lo), tuple(hi), draw(st.sampled_from([1, 2, 3, 6]))

    return [[box() for _ in range(draw(st.integers(min_value=0, max_value=8)))] for _ in range(2)]


@SETTINGS
@given(box_families())
def test_box_pairs_match_all_pairs(families):
    left, right = families
    pairs = list(_box_pairs(left, right))
    assert len(pairs) == len(set(pairs))
    assert set(pairs) == {
        (i, j) for i, b1 in enumerate(left) for j, b2 in enumerate(right) if not _bbox_disjoint(b1, b2)
    }


def test_box_pairs_on_touching_faces_points_and_r0():
    square = ((0, 0), (1, 1), 1)
    touching, point_beyond = ((2, 1), (4, 3), 2), ((3, 0), (3, 0), 2)  # [1, 2] x [1/2, 3/2]; (3/2, 0)
    assert list(_box_pairs([square], [touching, point_beyond])) == [(0, 0)]
    boxes = [square, touching, point_beyond]
    assert sorted(_box_pairs(boxes, boxes)) == [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)]
    assert sorted(_box_pairs([((), (), 1)] * 2, [((), (), 3)])) == [(0, 0), (1, 0)]


@lru_cache(maxsize=None)
def located_families():
    """Pool cells by ambient dimension, with the cover members, pieces and
    closure faces of a circle action (R^1) and the one cell of R^0."""
    circle = random_toric_instance(1031).cover
    line = list(circle.members) + list(circle.pieces) + closure_faces(circle.members)
    families = {0: [cell_from_closure_points([()])], 1: sorted(set(line), key=lambda c: c.closure_vertices)}
    return families | {n: by_ambient_dim(n) for n in (2, 3)}


@st.composite
def cells_and_points(draw):
    """Up to 10 cells of one ambient dimension and a batch of 0, 1 or up to
    8 integer points, each over its own denominator: a mix of a cell's
    closure vertices (zero weights reach facets, one weight a vertex),
    moved by a small shift or far outside every box."""
    family = located_families()[draw(st.integers(min_value=0, max_value=3))]
    picks = draw(st.lists(st.integers(min_value=0), min_size=1, max_size=10))
    chosen = [family[i % len(family)] for i in picks]
    points = []
    for _ in range(draw(st.sampled_from([0, 1, 1, 2, 5, 8]))):
        verts = draw(st.sampled_from(chosen)).closure_vertices
        kind = draw(st.sampled_from(["mix", "vertex", "shift", "outside"]))
        w = [1] if kind == "vertex" else draw(weights)
        w = [w[i % len(w)] if kind != "vertex" or i == 0 else 0 for i in range(len(verts))]
        if not any(w):
            w[0] = 1
        x = tuple(sum(F(wi, sum(w)) * v[j] for wi, v in zip(w, verts)) for j in range(len(verts[0])))
        if kind == "shift":
            x = tuple(c + t for c, t in zip(x, draw(shifts)))
        elif kind == "outside":
            x = tuple(c + 1000 for c in x)
        (n,), d = _int_points((x,))
        points.append((n, d))
    return chosen, points


@SETTINGS
@given(cells_and_points())
def test_located_matches_all_pairs(case):
    """The sweep of a batch and the cell-by-cell test of one point give the
    pairs that every point tested against every cell gives, once each, and
    one point comes in the cells' order."""
    cells, points = case
    found = list(_located(cells, points))
    assert len(found) == len({(i, j) for i, j, _ in found})
    assert all(worst == cells[i]._worst_excess(points[j]) for i, j, worst in found)
    assert {(i, j, worst < 0) for i, j, worst in found} == all_pairs_located(cells, points)
    if len(points) == 1:
        assert [i for i, _, _ in found] == sorted(i for i, _, _ in found)
    assert _interiors(cells, points) == [[i for i, c in enumerate(cells) if c._holds(x, strict=True)] for x in points]


def test_located_on_r0_vertices_facets_and_outside():
    point = cell_from_closure_points([()])
    assert list(_located([point, point], [((), 1)])) == [(0, 0, -1), (1, 0, -1)]
    assert sorted(_located([point], [((), 1), ((), 3)])) == [(0, 0, -1), (0, 1, -1)]
    square = cell_from_closure_points([[0, 0], [1, 0], [0, 1], [1, 1]])
    edge = cell_from_closure_points([[1, 0], [1, 1]])
    cells = [square, edge]
    corner, on_edge, inside, outside = ((1, 1), 1), ((2, 1), 2), ((1, 1), 2), ((3, 1), 2)
    for batch in ([corner], [on_edge], [inside], [outside], [corner, on_edge, inside, outside], []):
        assert {(i, j, w < 0) for i, j, w in _located(cells, batch)} == all_pairs_located(cells, batch)
    assert {(i, j, w < 0) for i, j, w in _located(cells, [corner, on_edge, inside, outside])} == {
        (0, 0, False), (1, 0, False), (0, 1, False), (1, 1, True), (0, 2, True)
    }


@SETTINGS
@given(cells, st.integers(min_value=0))
def test_sign_table_separation_implies_no_meeting(x, j):
    same = by_ambient_dim(x.ambient_dim)
    obj = same[j % len(same)]
    for table in (family_table(x.ambient_dim), _SignTable([x, obj]), _SignTable([obj])):
        if table.separated(x, obj):
            assert not reference_meets(x, obj)


@SETTINGS
@given(cells, st.integers(min_value=0))
def test_pairwise_separation_implies_sign_table_separation(x, j):
    same = by_ambient_dim(x.ambient_dim)
    obj = same[j % len(same)]
    if closures_separated(x, obj):
        assert _SignTable([x, obj]).separated(x, obj)
        assert family_table(x.ambient_dim).separated(x, obj)


@settings(derandomize=True, deadline=None, max_examples=20)
@given(product_actions())
@example(large_product_action())
def test_vertex_signed_masks_equal_the_per_cell_signs(action):
    """The table signs each distinct closure vertex once and forms a cell's
    bit sets from its vertices' signs; they equal the bit sets evaluated key
    by key on the cell's vertices, for the refinement's family and its
    pieces, on a table over that family and on one over the pieces."""
    members = action.cover.members
    family = closure_faces(members)
    pieces = list(action.cover.pieces)
    for table in (_SignTable(family), _SignTable(pieces)):
        for cell in family + pieces:
            assert table._sign(cell)[1:] == per_cell_signs(table, cell)


@SETTINGS
@given(cells, st.integers(min_value=0))
def test_meets_and_split_and_sample_match_vertex_enumeration(x, j):
    same = by_ambient_dim(x.ambient_dim)
    obj = same[j % len(same)]
    expected = reference_meets(x, obj)
    assert meets(x, obj, family_table(x.ambient_dim)) == expected
    assert meets(x, obj, _SignTable([x, obj])) == expected
    # the last step of ``meets`` alone, without the cheap tests before it
    assert any(obj.closure_contains(p.sample_point()) for p in _split_by(x, [obj])) == expected


@SETTINGS
@given(cells, st.integers(min_value=0))
def test_tight_sets_are_bit_sets_of_the_fraction_test(cell, j):
    # the rows of the cell and of another cell of the same ambient space, at
    # the cell's closure vertices
    same = by_ambient_dim(cell.ambient_dim)
    (equations, facets), (_, other) = ambient_rows(cell), ambient_rows(same[j % len(same)])
    rows = [*facets, *other, *equations]
    points = cell.closure_vertices
    expected = [sum(1 << i for i, p in enumerate(points) if dot(a, p) == b) for a, b in rows]
    assert tight_sets(rows, points) == expected


def _rank_dim(points):
    return AffineSubspace.from_points(list(points)).dim


def test_face_dimensions_by_descent_match_ranks():
    polytopes = [a.polytope for a in corpus()]
    polytopes += [
        product_polytope([1, 2], [2, 1], [[0], [1, -1]]),
        product_polytope([2, 1], [3, 2], [[-1, 0], [1]]),
    ]
    for p in polytopes:
        for f in face_lattice(p).nonempty_faces():
            assert f.dim == _rank_dim(f.vertex_coords)
    checked = 0
    for cell in pool():
        verts = cell.closure_vertices
        assert cell.dim == _rank_dim(verts)
        faces = _faces_by_incidence(tight_sets(ambient_rows(cell)[1], verts), len(verts))
        for face, dim in faces.items():
            assert dim == _rank_dim(v for i, v in enumerate(verts) if face >> i & 1)
            checked += 1
    assert checked > 1000


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 4)), min_size=1, max_size=2))
def test_polytope_volume_on_bit_set_tight_sets_matches_closed_forms(blocks):
    # a product of scaled simplices c * Delta_d has volume prod c^d / d!
    dims = [d for d, _ in blocks]
    p = product_polytope(dims, [c for _, c in blocks], [[0] * d for d in dims])
    verts = vertices(p)
    tight = tight_sets(zip(p.A, p.b), verts)
    assert all(type(t) is int and 0 < t < 1 << len(verts) for t in tight)
    expected = math.prod(F(c**d, math.factorial(d)) for d, c in blocks)
    assert polytope_volume(tight, _int_points(verts), sum(dims)) == expected


def test_known_rows_and_hyperplane_scan_build_the_same_cells():
    # pieces come from facet rows and cuts, closure faces from the closure's
    # facet rows; cell_from_closure_points reads them off the polar's
    # double-description run on the closure vertices
    assert len(pool()) == 344
    for cell in pool():
        assert cell == cell_from_closure_points(cell.closure_vertices)

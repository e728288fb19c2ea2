"""Property tests: the integer sign kernel of ``polyhedron`` against a plain
``Fraction`` reference (``dot(a, x) <= b`` and box comparisons on the
closure vertices), and ``_closures_separated`` against the vertex test."""

from fractions import Fraction
from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from momstrat.linalg import dot, vec
from momstrat.polyhedron import (
    _bbox_disjoint,
    _closures_separated,
    _restrict_functional,
    cell_from_closure_points,
    closure_faces,
    enumerate_vertices,
    vertices,
)
from support import paper_action, product_polytope, random_toric_instance

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


def fraction_bbox(cell):
    cols = list(zip(*cell.closure_vertices))
    return tuple(map(min, cols)), tuple(map(max, cols))


def reference_test(cell, x, strict):
    lo, hi = fraction_bbox(cell)
    if not all(l <= c <= h for l, c, h in zip(lo, x, hi)):
        return False
    if any(dot(a, x) != b for a, b in cell.ambient_equations):
        return False
    return all((dot(a, x) < b) if strict else (dot(a, x) <= b) for a, b in cell.ambient_facet_rows)


def reference_meets_closure(x, obj):
    """Does the relatively open x meet Cl(obj)?  Q = Cl(x) ∩ Cl(obj) in
    x-local coordinates, by exhaustive vertex enumeration; x meets Cl(obj)
    exactly when Q is nonempty and lies in no facet hyperplane of x."""
    rows = x.local_rows()
    for a, b in obj.ambient_equations:
        a_loc, b_loc = _restrict_functional(x.carrier, a, b)
        rows += [(a_loc, b_loc), (tuple(-c for c in a_loc), -b_loc)]
    rows += [_restrict_functional(x.carrier, a, b) for a, b in obj.ambient_facet_rows]
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
    elif kind == "normal" and cell.ambient_equations:
        a = cell.ambient_equations[draw(st.integers(0, len(cell.ambient_equations) - 1))][0]
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


@SETTINGS
@given(cells, st.integers(min_value=0))
def test_closures_separated_implies_no_meeting(x, j):
    same = by_ambient_dim(x.ambient_dim)
    obj = same[j % len(same)]
    if _closures_separated(x, obj):
        assert not reference_meets_closure(x, obj)


def test_known_rows_and_hyperplane_scan_build_the_same_cells():
    # pieces come from facet rows and cuts, closure faces from the closure's
    # facet rows; the scan tries every hyperplane through the closure vertices
    assert len(pool()) == 344
    for cell in pool():
        assert cell == cell_from_closure_points(cell.closure_vertices)

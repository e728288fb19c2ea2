"""The tight-basis scan and the double-description run of ``polyhedron``
against the code they replaced: boundedness by Fourier-Motzkin elimination
and vertices by one augmented ``rref`` per basis, both kept here as
references; the face lattice of an 18-row box in R^4, whose boundedness
Fourier-Motzkin did not prove in minutes; and that of the 5-dimensional
cross-polytope, whose 32 rows the tight-basis scan took seconds over."""

import itertools
import json
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd

from hypothesis import example, given, settings
from hypothesis import strategies as st

from momstrat.errors import EmptyPolytope, UnboundedPolytope
from momstrat.linalg import ONE, ZERO, dot, mat, primitive_functional, rref, vec
from momstrat.polyhedron import HPolytope, _double_description, enumerate_vertices, is_bounded, vertices

F = Fraction
SETTINGS = settings(derandomize=True, deadline=None, max_examples=300)


def reference_fm_feasible(rows, nvars):
    """Fourier-Motzkin feasibility of a system of rows a.x <= beta."""
    rows = [primitive_functional(*r) for r in rows]
    for v in range(nvars):
        pos = [r for r in rows if r[0][v] > 0]
        neg = [r for r in rows if r[0][v] < 0]
        new = [r for r in rows if r[0][v] == 0]
        for (ap, bp), (an, bn) in itertools.product(pos, neg):
            coeff = tuple(x * (-an[v]) + y * ap[v] for x, y in zip(ap, an))
            new.append(primitive_functional(coeff, bp * (-an[v]) + bn * ap[v]))
        rows = sorted(set(new))
    return all(b >= 0 for _, b in rows)


def reference_is_bounded(p):
    """The recession cone {A.x <= 0} is the origin: no point of it has a
    coordinate equal to 1 or -1, by 2n Fourier-Motzkin runs."""
    n = p.ambient_dim
    cone = [(row, ZERO) for row in p.A]
    for i, s in itertools.product(range(n), (ONE, -ONE)):
        e = tuple(s if j == i else ZERO for j in range(n))
        if reference_fm_feasible(cone + [(e, -ONE), (tuple(-x for x in e), ONE)], n):
            return False
    return True


def reference_enumerate_vertices(rows, dim):
    """Every vertex of {x : a.x <= beta}: each dim rows of rank dim whose
    augmented system [a | beta] is consistent, solved by one ``rref``."""
    if dim == 0:
        return [()] if all(b >= 0 for _, b in rows) else []
    found = set()
    for subset in itertools.combinations(rows, dim):
        red, pivots = rref(tuple(a + (b,) for a, b in subset))
        if len(pivots) != dim or dim in pivots:
            continue
        pt = tuple(red[r][dim] for r in range(dim))
        if all(dot(a, pt) <= b for a, b in rows):
            found.add(pt)
    return sorted(found)


@st.composite
def systems(draw):
    """Integer systems a.x <= beta with n <= 3 unknowns and up to 6 rows."""
    dim = draw(st.integers(min_value=0, max_value=3))
    coeff = st.integers(min_value=-3, max_value=3)
    rows = draw(st.lists(st.tuples(st.lists(coeff, min_size=dim, max_size=dim), coeff), max_size=6))
    return dim, [(vec(a), F(b)) for a, b in rows]


def _system(dim, *rows):
    return dim, [(vec(a), F(b)) for a, b in rows]


EMPTY = _system(1, ([1], 0), ([-1], -1))  # x <= 0 and x >= 1
UNBOUNDED = _system(2, ([-1, 0], 0), ([0, -1], 0))  # the positive quadrant
LINE = _system(2, ([1, 1], 1), ([-1, -1], 1))  # a strip: rank 1 < 2
TRIANGLE = _system(2, ([-1, 0], 0), ([0, -1], 0), ([1, 1], 1))


@SETTINGS
@given(systems())
@example(EMPTY)
@example(UNBOUNDED)
@example(LINE)
@example(TRIANGLE)
@example(_system(0))
@example(_system(0, ([], 1), ([], 0)))
@example(_system(0, ([], 1), ([], -1)))
@example(_system(3))
def test_tight_basis_scan_matches_the_references(system):
    dim, rows = system
    assert enumerate_vertices(rows, dim) == reference_enumerate_vertices(rows, dim)
    if rows:
        p = HPolytope(mat(a for a, _ in rows), vec(b for _, b in rows))
        assert is_bounded(p) == reference_is_bounded(p)


def _outcome(run):
    """The vertex list ``run`` returns, or the name of the error it raises."""
    try:
        return run()
    except UnboundedPolytope:
        return "unbounded"
    except EmptyPolytope:
        return "empty"


def reference_vertices(rows, dim, p):
    """``vertices`` from the references: unboundedness first, then emptiness."""
    if not reference_is_bounded(p):
        raise UnboundedPolytope("reference")
    found = reference_enumerate_vertices(rows, dim)
    if not found:
        raise EmptyPolytope("reference")
    return found


@SETTINGS
@given(systems())
@example(EMPTY)
@example(UNBOUNDED)
@example(LINE)
@example(TRIANGLE)
@example(_system(2, ([-1, 0], 0), ([0, -1], 0), ([1, 1], 1), ([1, 1], 1), ([0, -1], 0)))  # duplicate rows
@example(_system(2, ([-1, 0], 0), ([0, -1], 0), ([1, 1], 1), ([0, 0], 1)))  # a zero row with beta > 0
@example(_system(2, ([-1, 0], 0), ([0, -1], 0), ([1, 1], 1), ([0, 0], -1)))  # a zero row with beta < 0: empty
# a zero row is tight on every ray: only the adjacency test keeps (1, 1) and (0, 0) from a joint ray
@example(_system(2, ([0, 0], 0), ([-1, 0], 0), ([0, -1], 0), ([1, 0], 1), ([0, 1], 1), ([2, 2], 3)))
@example(_system(3, ([1, 0, 0], 1), ([-1, 0, 0], 1), ([0, 1, 0], 1), ([0, -1, 0], 1)))  # rank A = 2 < 3
@example(_system(2, ([1, 0], 0), ([-1, 0], -1), ([0, -1], 0)))  # empty, with a recession ray (0, 1)
@example(_system(2, ([1, 0], 0), ([-1, 0], -1)))  # empty, and rank A = 1 < 2
@example(_system(0, ([], 1)))
@example(_system(0, ([], 1), ([], -1)))
def test_double_description_matches_the_references(system):
    dim, rows = system
    if rows:
        p = HPolytope(mat(a for a, _ in rows), vec(b for _, b in rows))
        assert _outcome(lambda: vertices(p)) == _outcome(lambda: reference_vertices(rows, dim, p))


def test_zero_dimensional_polytope_is_bounded():
    assert is_bounded(HPolytope.from_rows([[]], [1]))


def box_with_cuts(extra: int, seed: int):
    """The cube [-1, 1]^4 and ``extra`` seeded rows a.x <= beta with
    coefficients in [-3, 3], each cutting the cube but keeping the origin."""
    rng = random.Random(seed)
    rows = [[s if j == i else 0 for j in range(4)] for i in range(4) for s in (1, -1)]
    offsets = [1] * len(rows)
    while len(rows) < 8 + extra:
        a = [rng.randint(-3, 3) for _ in range(4)]
        if any(a):
            rows.append(a)
            offsets.append(rng.randint(1, sum(map(abs, a))))
    return rows, offsets


def test_double_description_of_an_18_row_box_in_r4_keeps_primitive_extreme_rays():
    rows, offsets = box_with_cuts(10, seed=3)
    p = HPolytope.from_rows(rows, offsets)
    rays = _double_description([(*a, -b) for a, b in zip(rows, offsets)], 4)
    assert all(gcd(*r) == 1 and r[4] > 0 for r in rays)
    assert sorted(tuple(F(c, r[4]) for c in r[:4]) for r in rays) == enumerate_vertices(list(zip(p.A, p.b)), 4)


FACE_COUNTS = """
import json, sys
from collections import Counter
from momstrat.polyhedron import HPolytope, face_lattice
rows, offsets = json.load(sys.stdin)
lattice = face_lattice(HPolytope.from_rows(rows, offsets))
print(json.dumps(sorted(Counter(f.dim for f in lattice.faces).items())))
"""


def test_face_lattice_of_an_18_row_box_in_r4_finishes_in_seconds():
    rows, offsets = box_with_cuts(10, seed=3)
    proc = subprocess.run(
        [sys.executable, "-c", FACE_COUNTS],
        input=json.dumps([rows, offsets]),
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    f = dict(json.loads(proc.stdout))
    assert f[-1] == f[4] == 1
    assert f[0] - f[1] + f[2] - f[3] == 0  # Euler's relation for a 4-polytope


def test_face_lattice_of_the_5_dimensional_cross_polytope_finishes_in_seconds():
    # 32 rows +-x1 +- ... +- x5 <= 1: the tight-basis scan solved C(32, 5) =
    # 201,376 bases for the vertices
    rows = [list(signs) for signs in itertools.product((1, -1), repeat=5)]
    proc = subprocess.run(
        [sys.executable, "-c", FACE_COUNTS],
        input=json.dumps([rows, [1] * 32]),
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    f = dict(json.loads(proc.stdout))
    assert f[0] == 10
    assert sum(count for dim, count in f.items() if dim >= 0) == 3**5

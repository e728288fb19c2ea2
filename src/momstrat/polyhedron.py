"""Exact rational convex polyhedra, face lattices and relatively open cells.

All geometry is desk scale (ambient dimension <= 8, handfuls of facets), so
the algorithms favour transparent exactness over asymptotics.  Faces come
from vertex-facet incidence alone: ``_facets`` gives the facets of a face S,
a bit set of points, as the maximal proper nonempty sets S & t over the tight
sets t.  The face lattice, ``_cell``, ``closure_faces`` and the volume fans of
``dh`` all use it, with no rank.  One double-description run,
``_double_description``, gives the extreme rays of a homogenized cone in
integers, and so converts between vertices and facets both ways:
``vertices`` reads the vertices of a polytope off it and ``is_bounded`` the
recession rays, and ``cell_from_closure_points`` reads the facets of the
hull of points off the run on their polar, with no scan over subsets of
rows or points.  ``_kernel_lines`` yields the kernel line of integer rows of
rank k in k + 1 homogeneous coordinates, as an integer vector read off the
fraction-free elimination of ``linalg`` (``_eliminate``); any nonzero
multiple serves.  It gives the first rays of that run and, as a scan of
every k rows, the vertices of ``enumerate_vertices``, the Monte-Carlo
oracle's own path.

A ``RelOpenCell`` is the relative interior of a bounded rational polytope:
a carrier affine subspace, the facet inequalities of its closure expressed in
carrier-local coordinates, and the excluded proper faces (the facets).  Every
cell is assembled by one function, ``_assemble``, from its carrier, the
points whose hull is its closure and its facets, each a canonical local row
with the points it is tight on; so equal cells have bit-identical encodings
however their facets were found.  ``_cell`` finds the facets among candidate
rows that callers already hold: the rows that hold on every point and are
tight on a maximal set of them.  ``split_cell`` builds the two sides of a
cut in the cell's frame: they keep its carrier, and its canonical local rows
with their integer lifts, and only the cut is restricted and lifted; the
piece on the cut gets the cell's integer facet rows and the cut.
``closure_faces`` gives a face the facet rows of the closure it came from,
and a whole closure is that cell.  ``cell_from_closure_points``, which has
no rows to start from, reads the facets off the polar's double-description
run.  The faces of a cell's closure are cells too, and the refinement and
the frontier check read every such object as its closure.  The open reading
adds nothing: a cell is the whole face of its own closure, a piece that
meets the cell meets that closure, and both readings demand the same
hyperplanes.

This module alone decides cell membership:

- is the point x in the cell, or in its closure?  ``RelOpenCell.contains``
  and ``RelOpenCell.closure_contains``, from the cached integer rows;
- does a cell lie in another's closure?  One test, ``_SignTable.within``:
  the refinement and the frontier check read it off the sign tables they
  build, and the stratifier, which reads containment off the closures'
  faces (``_face_sets``), builds a table over the pieces where a face of a
  closure is no piece;
- which hyperplane of a family of cells separates two cells?  A
  ``_SignTable`` over the family.  It signs each distinct closure vertex
  once, as the bit sets of the family's hyperplanes it lies weakly below
  and weakly above, and a cell's bit sets (the hyperplanes its closure lies
  below, above or off) are ANDs and ORs of its vertices' sets, so that each
  pair is a few bit operations.  The AND of the bit sets of a set of cells
  tests all their pairs at once.  The refinement builds one over the closure
  faces of its members and signs the cells that reach a test; the frontier
  check builds one over the stratification's cells and ANDs them by
  stratum, so that one test rejects a stratum pair; a table lives for that
  one call;
- which cells of a family hold each of a batch of points?  ``_located``,
  which the cover's incidence table and membership signatures, the fiber
  charts and face images over a point, and the strata read: one box sweep
  for a batch, and the box test of ``RelOpenCell._holds`` per cell for one;
- which boxes meet?  One sweep, ``_box_pairs``, pairs a family of cells with
  a batch of points (``_located``), the refinement's objects with its
  pieces, and the frontier check's strata with each other;
- does the relatively open x meet the closure of a cell?  ``meets``, which
  both the refinement and the frontier check call with the table they
  built, after ``within``.  The refinement's pieces are plain cells with no
  record of their signs: ``meets`` tries the table, the boxes and x's sample
  point, then tells a piece that misses an object by splitting x by the
  object's hyperplanes (``_split_by``) and testing one sample point per piece;
- is x covered by a union of closures?  ``uncovered_point`` returns a point
  of x outside all of them, or None, by the same split and sample test.

Every ambient row is an integer row (``IntRow``): a.x <= beta scaled by a
positive rational to primitive integer a (``_int_row``), kept as
(a, beta_n, beta_d) with beta = beta_n / beta_d.  Points are integer
numerators over one common denominator d > 0.  At x = n / d the integer
(a.n) * beta_d - beta_n * d is a.x - beta times d * beta_d > 0, so it has the
same sign: the test is exact, with no rational normalization.  A cell's
ambient rows are ``_int_equations``, from the carrier's equations, and
``_int_facet_rows``, the lifts of its local rows (``_lift``); with their
sign fixed (``_object_functionals``) they are the refinement's cuts and the
sign tables' keys.  A cell also caches ``_int_vertices``, ``bbox`` (corners
over the vertices' denominator) and ``_int_sample``.  They serve every
point, box and sign test, every tight set, the crossing points of a split
and the dedup of the refinement's pieces.  ``Fraction`` stays only where a
value is output or canonical: carriers, local facet rows (``closed_A``,
``closed_b``), closure vertices, sample points and returned points.

There are no module-level caches.  Derived data is memoized on the immutable
object it describes (``cached_property``), so it lives exactly as long as
that object: a polytope's face lattice, a cell's integer rows and vertices
and the bounding box.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cached_property, reduce
from math import gcd, lcm
from operator import and_, le, mul
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import DimensionMismatch, EmptyPolytope, RankDeficient, UnboundedPolytope
from .linalg import (
    ZERO,
    AffineSubspace,
    FrozenValue,
    Mat,
    Vec,
    _eliminate,
    _integer_rows,
    add,
    dot,
    mat,
    mat_vec,
    primitive_functional,
    rank,
    scale,
    vec,
    zeros,
)

# An affine functional (a, beta) stands for the hyperplane {x : a.x = beta}
# or the inequality a.x <= beta depending on context.
Functional = tuple[Vec, Fraction]


def _neg(f):
    """The opposite row of a ``Functional`` or an ``IntRow`` (the offset's
    denominator stays)."""
    return (tuple(-c for c in f[0]), -f[1], *f[2:])


def _canon_cut(f):
    """The hyperplane {a.x = beta} of a canonical row (a is primitive), with
    its sign fixed: the row itself when a's leading entry is positive."""
    return f if next(filter(None, f[0])) > 0 else _neg(f)


# Integer forms of the sign kernel (see the module docstring).
IntRow = tuple[tuple[int, ...], int, int]  # (a, numerator of beta, denominator of beta)
IntPoints = tuple[tuple[tuple[int, ...], ...], int]  # (numerator rows, common denominator)
IntPoint = tuple[tuple[int, ...], int]  # (numerators, denominator)
Box = tuple[tuple[int, ...], tuple[int, ...], int]  # (lo, hi, d): corners lo / d and hi / d


def _int_row(f: Functional) -> IntRow:
    """The canonical integer form of the row a.x <= beta: scaled by a
    positive rational so that a is primitive integral (``primitive_functional``)."""
    a, b = f
    m = lcm(*(c.denominator for c in a))
    ints = [c.numerator * (m // c.denominator) for c in a]
    g = gcd(*ints) or 1
    b = b * Fraction(m, g)
    return tuple(c // g for c in ints), b.numerator, b.denominator


def _int_points(points: Iterable[Vec]) -> IntPoints:
    """Points over one common denominator d > 0: x = n / d for each row n."""
    points = tuple(points)
    d = lcm(*(c.denominator for p in points for c in p))
    return tuple(tuple(c.numerator * (d // c.denominator) for c in p) for p in points), d


def _bbox(points: IntPoints) -> Box:
    nums, d = points
    cols = list(zip(*nums))
    return tuple(map(min, cols)), tuple(map(max, cols)), d


def _excess(row: IntRow, n: tuple[int, ...], d: int) -> int:
    """An integer with the sign of a.x - beta at x = n / d: (a.n) * beta_d -
    beta_n * d, which is a.x - beta times d * beta_d > 0."""
    a, bn, bd = row
    return sum(map(mul, a, n)) * bd - bn * d


def _excesses(row: IntRow, points: IntPoints) -> list[int]:
    """``_excess`` of one row at each point, sharing the denominator."""
    a, bn, bd = row
    nums, d = points
    t = bn * d
    return [sum(map(mul, a, n)) * bd - t for n in nums]


def _zeros(vals: Sequence[int]) -> int:
    """The indices of the zero values, as a bit set: bit i stands for point i."""
    return sum(1 << i for i, v in enumerate(vals) if v == 0)


def _facets(face: int, tight: Iterable[int]) -> list[int]:
    """The facets of a face S, as bit sets of points: the maximal proper
    nonempty sets S & t over the tight sets t of valid rows among which every
    facet of the polytope lies (every facet of S is S meet one of those).

    Scanned by descending size, a set is maximal unless a maximal set
    already found holds it; the facets keep the order of the set of meets."""
    parts = {face & t for t in tight} - {face, 0}
    maximal: set[int] = set()
    for s in sorted(parts, key=int.bit_count, reverse=True):
        for t in maximal:
            if s & t == s:
                break
        else:
            maximal.add(s)
    return [s for s in parts if s in maximal]


# ---------------------------------------------------------------------------
# H-polytopes


class HPolytope(FrozenValue):
    """The set {x : A.x <= b} with rational data."""

    A: Mat
    b: Vec

    @staticmethod
    def from_rows(rows: Iterable[Iterable], offsets: Iterable) -> "HPolytope":
        return HPolytope(mat(rows), vec(offsets))

    @property
    def ambient_dim(self) -> int:
        return len(self.A[0]) if self.A else 0

    def contains(self, x: Vec) -> bool:
        return all(dot(row, x) <= bi for row, bi in zip(self.A, self.b))

    @cached_property
    def lattice(self) -> "FaceLattice":
        """The face lattice, computed on first use (raises like ``vertices``)."""
        return face_lattice(self)


def _kernel_lines(rows: Sequence[Sequence[int]], k: int) -> Iterator[tuple[int, ...]]:
    """For each k-subset of the integer homogeneous rows (each of length
    k + 1) whose kernel is a line, an integer vector spanning that line, read
    off the integer elimination ``_eliminate`` of the subset: the last pivot
    at the free coordinate, minus that column's entry of each reduced row at
    the row's pivot.  Given exactly k rows, it is one line, a first ray of
    ``_double_description``; given more, it is the tight-basis scan of
    ``enumerate_vertices``."""
    for subset in itertools.combinations(rows, k):
        red, pivots, d = _eliminate(subset)
        if len(pivots) == k:
            free = next((c for c, pc in enumerate(pivots) if c != pc), k)
            z = [0] * (k + 1)
            z[free] = d
            for r, pc in zip(red, pivots):
                z[pc] = -r[free]
            yield tuple(z)


def _primitive(z: Sequence[int], sign: int = 1) -> tuple[int, ...]:
    """The nonzero integer vector z over the gcd of its entries, times ``sign``."""
    g = gcd(*z) * sign
    return tuple(c // g for c in z)


def _homogeneous(rows: Iterable[Functional]) -> list[list[int]]:
    """The integer homogeneous rows (a, -beta) of rows a.x <= beta, each
    scaled by a positive integer, so that a.x - beta t <= 0 at (x, t)."""
    return _integer_rows([(*a, -b) for a, b in rows])[0]


def _double_description(rows: Sequence[Sequence[int]], n: int) -> list[tuple[int, ...]] | None:
    """The extreme rays (x, t) of the cone {(x, t) : h.(x, t) <= 0 for every
    integer homogeneous row h of length n + 1, t >= 0}, primitive integral,
    by the double-description method (Motzkin et al. 1953; Fukuda and Prodon
    1996); None when the polytope {x : h.(x, 1) <= 0} is unbounded, as the
    cone has a line (rank < n + 1) or a ray with t = 0.  The rays are the
    vertices times t > 0, and none means empty.  The n + 1 first independent
    rows, t >= 0 first, give a simplicial cone; each other row h keeps the
    rays r with h.r <= 0 and joins each adjacent pair with h.p > 0 > h.q into
    (h.p) q - (h.q) p: adjacent when no other ray is tight on all their
    common tight rows (bit sets), at least n - 1 of them."""
    rows = [(0,) * n + (-1,), *rows]
    basis = _eliminate(list(zip(*rows)))[1]
    if len(basis) <= n:
        return None
    rays = []  # (primitive ray, tight rows as a bit set)
    for i in basis:
        z = next(_kernel_lines([rows[j] for j in basis if j != i], n))
        sign = -1 if sum(map(mul, rows[i], z)) > 0 else 1
        rays.append((_primitive(z, sign), sum(1 << j for j in basis if j != i)))
    for j in (j for j in range(len(rows)) if j not in basis):
        h, bit = rows[j], 1 << j
        vals = [sum(map(mul, h, r)) for r, _ in rays]
        tights = [t for _, t in rays]
        pos = [(r, t, v) for (r, t), v in zip(rays, vals) if v > 0]
        neg = [(r, t, v) for (r, t), v in zip(rays, vals) if v < 0]
        rays = [(r, t | bit if v == 0 else t) for (r, t), v in zip(rays, vals) if v <= 0]
        for (a, ta, va), (b, tb, vb) in itertools.product(pos, neg):
            common = ta & tb
            if common.bit_count() >= n - 1 and sum(common & t == common for t in tights) == 2:
                rays.append((_primitive([va * y - vb * x for x, y in zip(a, b)]), common | bit))
    return None if any(r[n] == 0 for r, _ in rays) else [r for r, _ in rays]


def is_bounded(p: HPolytope) -> bool:
    """Exact boundedness: the recession cone {r : A.r <= 0} is the origin
    alone, read off the double-description run (``_double_description``)."""
    return _double_description(_homogeneous(zip(p.A, p.b)), p.ambient_dim) is not None


def enumerate_vertices(rows: Sequence[Functional], dim: int) -> list[Vec]:
    """All vertices of {x : a.x <= beta} by exhaustive tight-basis
    enumeration: each kernel line z of dim rows (a, -beta), scaled to
    integers, with z[dim] != 0 gives the candidate point z[:dim] / z[dim].
    Candidates are kept as primitive lines with z[dim] > 0 and tested in
    integers: the point is feasible when every row has (a, -beta).z <= 0.
    It is the Monte-Carlo oracle's own path, apart from ``vertices``."""
    ints = _homogeneous(rows)
    found: set[tuple[int, ...]] = set()
    for z in _kernel_lines(ints, dim):
        if z[dim]:
            z = _primitive(z, 1 if z[dim] > 0 else -1)
            if z not in found and all(sum(map(mul, a, z)) <= 0 for a in ints):
                found.add(z)
    return sorted(tuple(Fraction(c, z[dim]) for c in z[:dim]) for z in found)


def vertices(p: HPolytope) -> list[Vec]:
    """Exact, lexicographically sorted vertex list: the double-description
    rays divided by t.  ``UnboundedPolytope`` comes before ``EmptyPolytope``."""
    n = p.ambient_dim
    rays = _double_description(_homogeneous(zip(p.A, p.b)), n)
    if rays is None:
        raise UnboundedPolytope("polytope has a nonzero recession direction")
    if not rays:
        raise EmptyPolytope("polytope has no points")
    return sorted(tuple(Fraction(c, r[n]) for c in r[:n]) for r in rays)


def _lift_functional(carrier: AffineSubspace, a_loc: Vec, b_loc: Fraction) -> Functional:
    """Ambient functional agreeing with a_loc.t <= b_loc on the carrier.

    Uses the pivot-coordinate chart, so the lift is canonical given the
    carrier encoding; since ``to_local`` reads the pivot coordinates, the
    lift equals a_loc.to_local(x) - b_loc at every x, not only on the carrier.
    """
    n = carrier.ambient_dim
    a_amb = [ZERO] * n
    shift = ZERO
    for coef, piv in zip(a_loc, carrier.pivots):
        a_amb[piv] = coef
        shift += coef * carrier.base[piv]
    return tuple(a_amb), b_loc + shift


def _lift(carrier: AffineSubspace, row: Functional) -> IntRow:
    """The canonical integer form of a local row's ambient lift."""
    return _int_row(_lift_functional(carrier, *row))


def _restrict_functional(carrier: AffineSubspace, row: IntRow) -> Functional:
    """Carrier-local form of the ambient row a.x <= beta."""
    a, bn, bd = row
    return tuple(dot(a, r) for r in carrier.directions), Fraction(bn, bd) - dot(a, carrier.base)


# ---------------------------------------------------------------------------
# faces and the face lattice


class Face(NamedTuple):
    """A face of a polytope: tight rows, dimension, vertices."""

    active_set: tuple[int, ...]
    dim: int
    vertex_ids: tuple[int, ...]
    vertex_coords: Mat


class FaceLattice(NamedTuple):
    faces: tuple[Face, ...]
    vertex_list: Mat

    def by_dim(self, d: int) -> list[Face]:
        return [f for f in self.faces if f.dim == d]

    def nonempty_faces(self) -> list[Face]:
        return [f for f in self.faces if f.dim >= 0]


def tight_sets(rows: Iterable[Functional], points: Sequence[Vec]) -> list[int]:
    """For each row a.x <= beta, the points at which it is tight, as a bit
    set: bit i stands for points[i]."""
    frame = _int_points(points)
    return [_zeros(_excesses(_int_row(f), frame)) for f in rows]


def _faces_by_incidence(tight: Sequence[int], count: int) -> dict[int, int]:
    """Every nonempty face of conv(points 0..count-1) as a bit set of points,
    with its dimension, by descent through facets (``_facets``) from the
    whole set: a point has dimension 0, any other face one more than any of
    its facets."""
    dims: dict[int, int] = {}

    def descend(face: int) -> int:
        if face not in dims:
            dims[face] = max((descend(f) + 1 for f in _facets(face, tight)), default=0)
        return dims[face]

    descend((1 << count) - 1)
    return dims


def face_lattice(p: HPolytope) -> FaceLattice:
    """Complete graded face lattice from the empty face to the polytope.

    Faces and their dimensions come from vertex-facet incidence alone
    (``_faces_by_incidence``), which stays correct for redundant H-rows.
    ``HPolytope.lattice`` memoizes the result on the polytope.
    """
    verts = vertices(p)
    tight = tight_sets(zip(p.A, p.b), verts)
    faces = []
    for s, dim in _faces_by_incidence(tight, len(verts)).items():
        ids = tuple(i for i in range(len(verts)) if s >> i & 1)
        active = tuple(i for i, t in enumerate(tight) if s & t == s)
        faces.append(Face(active, dim, ids, tuple(verts[i] for i in ids)))
    faces.append(Face(tuple(range(len(p.A))), -1, (), ()))
    faces.sort(key=lambda f: (f.dim, f.active_set, f.vertex_ids))
    return FaceLattice(tuple(faces), tuple(verts))


# ---------------------------------------------------------------------------
# relatively open cells


class RelOpenCell(FrozenValue):
    """relint of a bounded polytope, canonical in its carrier coordinates."""

    carrier: AffineSubspace
    closed_A: Mat  # facet rows in carrier-local coordinates
    closed_b: Vec
    excluded_faces: tuple[tuple[int, ...], ...]
    closure_vertices: Mat

    @property
    def dim(self) -> int:
        return self.carrier.dim

    @property
    def ambient_dim(self) -> int:
        return self.carrier.ambient_dim

    def sample_point(self) -> Vec:
        """Centroid of the closure vertices; always in the relative interior."""
        return self._centroid

    @cached_property
    def _centroid(self) -> Vec:
        total = zeros(self.ambient_dim)
        for v in self.closure_vertices:
            total = add(total, v)
        return scale(total, Fraction(1, len(self.closure_vertices)))

    def local_rows(self) -> list[Functional]:
        return list(zip(self.closed_A, self.closed_b))

    @cached_property
    def _int_vertices(self) -> IntPoints:
        """The closure vertices over one common denominator."""
        return _int_points(self.closure_vertices)

    @cached_property
    def bbox(self) -> Box:
        """Bounding box of the closure, over the denominator of ``_int_vertices``."""
        return _bbox(self._int_vertices)

    @cached_property
    def _int_equations(self) -> tuple[IntRow, ...]:
        """The carrier's equations, in canonical integer form."""
        return tuple(map(_int_row, self.carrier.equations()))

    @cached_property
    def _int_facet_rows(self) -> tuple[IntRow, ...]:
        """The facet rows lifted to ambient coordinates (``_lift``)."""
        return tuple(_lift(self.carrier, f) for f in self.local_rows())

    @cached_property
    def _int_sample(self) -> IntPoint:
        """The sample point as (n, d) with x = n / d."""
        (n,), d = _int_points((self._centroid,))
        return n, d

    def _int_point(self, x: Vec) -> IntPoint:
        """x as (n, d) with x = n / d, after the dimension check."""
        if len(x) != self.ambient_dim:
            raise DimensionMismatch("point dimension mismatch")
        (n,), d = _int_points((x,))
        return n, d

    def _holds(self, x: IntPoint, strict: bool) -> bool:
        """x lies on the carrier and inside every facet row, strictly when
        ``strict``: in the relative interior, or else in the closure."""
        worst = self._boxed_excess(x)
        return worst is not None and worst < (0 if strict else 1)  # excesses are integers

    def _boxed_excess(self, x: IntPoint) -> int | None:
        """``_worst_excess`` at x after the box test: None when x is outside
        the bounding box too.  The one-point test of ``_located``."""
        (n, d), (lo, hi, e) = x, self.bbox
        for l, c, h in zip(lo, n, hi):
            if not l * d <= c * e <= h * d:
                return None
        return self._worst_excess(x)

    def _worst_excess(self, x: IntPoint) -> int | None:
        """None when x is off the carrier, else the largest facet-row excess
        at x (-1 with no facet rows), or the first positive one: at most 0 in
        the closure, below 0 in the relative interior.  The one kernel of
        every point test: ``_boxed_excess`` reads it after its box test, and
        ``_located`` on a batch, whose box sweep has tested the boxes, reads
        it alone."""
        n, d = x
        if any(_excess(r, n, d) for r in self._int_equations):
            return None
        worst = -1
        for r in self._int_facet_rows:
            e = _excess(r, n, d)
            if e > 0:
                return e
            worst = max(worst, e)
        return worst

    def closure_contains(self, x: Vec) -> bool:
        return self._holds(self._int_point(x), strict=False)

    def contains(self, x: Vec) -> bool:
        """x lies on the carrier and strictly inside every facet row.

        Read off the cached integer rows, which agree with the carrier-local
        rows at every point up to a positive scaling.  A canonical cell
        excludes exactly its single facet rows (``excluded_faces`` is
        ((0,), (1,), ...)), so its relative interior is where all are strict.
        """
        return self._holds(self._int_point(x), strict=True)

    def interior_points(self, count: int, rng) -> list[Vec]:
        """Deterministic rational points in the cell: positive vertex mixes
        sum(w_i v_i) / sum(w_i) with integer weights w_i in [1, 64], summed
        over the vertices' common denominator and divided once."""
        pts = []
        nums, d = self._int_vertices
        cols = list(zip(*nums))
        for _ in range(count):
            weights = [1 + rng.randrange(64) for _ in nums]
            total = d * sum(weights)
            pts.append(tuple(Fraction(sum(map(mul, weights, col)), total) for col in cols))
        return pts


def _smallest_face(facets: Iterable[int], points: int, count: int) -> int:
    """The smallest face of conv(points 0..count-1) holding ``points``: the
    meet of the facets through them, all as bit sets of points."""
    return reduce(and_, (t for t in facets if t & points == points), (1 << count) - 1)


def _assemble(carrier: AffineSubspace, pts: Sequence[Vec], facets: dict[Functional, int]) -> RelOpenCell:
    """The canonical cell on ``carrier`` whose closure is conv(pts), from
    its facets: each canonical local row, holding on the points, with the
    points it is tight on as a bit set.  The rows are sorted, and a point is
    a closure vertex when the facets through it meet in it alone."""
    order = sorted(facets)
    tights = list(facets.values())
    verts = [i for i in range(len(pts)) if _smallest_face(tights, 1 << i, len(pts)) == 1 << i]
    excluded = tuple((i,) for i in range(len(order)))
    closure = tuple(pts[i] for i in verts)
    return RelOpenCell(carrier, tuple(r[0] for r in order), tuple(r[1] for r in order), excluded, closure)


def _cell(points: Iterable[Vec], candidates: Iterable, carrier: AffineSubspace | None = None) -> RelOpenCell:
    """The canonical cell whose closure is conv(points).

    The candidates are ambient integer rows among which every facet of
    conv(points) lies.  Given the ``carrier``, which conv(points) spans,
    each candidate is a canonical local row with its lift's integer row,
    which the cell keeps; ambient points sort as their local (pivot)
    coordinates.  A candidate that holds on every point and is tight on some
    cuts out a face, and every face lies in a facet, so the facets are the
    candidates tight on a maximal set of points (``_facets``); they are
    restricted to the carrier, oriented and sorted (``_assemble``).
    """
    pts = sorted(set(points))
    inherit = carrier is not None
    carrier = carrier if inherit else AffineSubspace.from_points(pts)
    frame = _int_points(pts)
    faces: dict[int, tuple] = {}  # tight points as a bit set -> (candidate, holds as is)
    for f in candidates:
        vals = _excesses(f[1] if inherit else f, frame)
        lo, hi = min(vals), max(vals)
        if not (lo == hi or (lo and hi)):  # neither constant, nor through the points, nor tight on none
            faces.setdefault(_zeros(vals), (f, hi == 0))
    facets: dict[Functional, int] = {}  # canonical local row -> tight points
    for tight in _facets((1 << len(pts)) - 1, faces):
        f, holds = faces[tight]
        if inherit:  # canonical already, and it holds on the points
            facets[f[0]] = tight
        else:
            facets[primitive_functional(*_restrict_functional(carrier, f if holds else _neg(f)))] = tight
    cell = _assemble(carrier, pts, facets)
    if inherit:  # the lifts the cell would derive again
        lifts = dict(f for f, _ in faces.values())
        vars(cell)["_int_facet_rows"] = tuple(lifts[r] for r in cell.local_rows())
    return cell


def cell_from_closure_points(points: Sequence[Vec]) -> RelOpenCell:
    """Canonical cell whose closure is conv(points), its facets read off one
    double-description run on the polar (Ziegler 1995, section 2.3).

    In carrier coordinates, with c the centroid of the m distinct points,
    the facets of conv(points) are a.(x - c) <= 1 for the vertices a of the
    polar {a : (p - c).a <= 1 for every point p}, which is bounded since c
    lies inside the hull.  Over one denominator D, with T the sum of the
    points' numerators n_p, its rows are (m n_p - T, -m D) in integers, and
    a ray (a, t) gives the row a.x <= (t m D + a.T) / (m D), canonical once
    divided by the gcd g of a.  In R^0 the hull has no facet."""
    pts = sorted({vec(p) for p in points})
    if not pts:
        raise EmptyPolytope("the hull of no points is empty")
    if len({len(p) for p in pts}) > 1:
        raise DimensionMismatch("closure points of different dimensions")
    carrier = AffineSubspace.from_points(pts)
    nums, den = frame = _int_points(carrier.to_local(p) for p in pts)
    d, m = carrier.dim, len(nums)
    total = [sum(col) for col in zip(*nums)]
    rays = _double_description([(*(m * c - s for c, s in zip(n, total)), -m * den) for n in nums], d) if d else ()
    facets: dict[Functional, int] = {}  # canonical local row -> tight points
    for r in rays:
        a, g = r[:d], gcd(*r[:d])
        row = tuple(c // g for c in a), r[d] * m * den + sum(map(mul, a, total)), m * den * g
        facets[tuple(map(Fraction, row[0])), Fraction(row[1], row[2])] = _zeros(_excesses(row, frame))
    return _assemble(carrier, pts, facets)


def cell_key(c: RelOpenCell):
    """Canonical sort key: dimension first, then the full encoding."""
    return (c.dim, c.carrier.base, c.carrier.directions, c.closure_vertices)


def project_relint(f: Face, b_t: Mat) -> RelOpenCell:
    """The cell pi(relint F) for the linear map pi with matrix b_t (k x n)."""
    if f.dim < 0 or not f.vertex_coords:
        raise EmptyPolytope("cannot project the empty face")
    if rank(b_t) != len(b_t):
        raise RankDeficient("projection matrix must have full row rank")
    return cell_from_closure_points([mat_vec(b_t, v) for v in f.vertex_coords])


# ---------------------------------------------------------------------------
# splitting cells by hyperplanes


def split_cell(cell: RelOpenCell, cut: IntRow) -> dict[int, RelOpenCell]:
    """Split a cell by the hyperplane {a.x = beta} of an integer row.

    Returns a dict from sign (-1, 0, +1 relative to the hyperplane) to the
    nonempty subcells on that side.  A cell whose relative interior misses
    the hyperplane comes back intact under its single sign.  Crossing points
    are formed once, from the integer vertices.  The sides -1 and +1 span
    the cell's carrier and are built in it: their candidates are the cell's
    local rows and the restricted cut, each with its lift's integer row.
    """
    nums, d = verts = cell._int_vertices
    vals = _excesses(cut, verts)
    negs = [i for i, v in enumerate(vals) if v < 0]
    poss = [i for i, v in enumerate(vals) if v > 0]
    if not (negs and poss):
        if not negs and not poss:
            return {0: cell}
        return {-1 if negs else 1: cell}
    facets = [_zeros(_excesses(r, verts)) for r in cell._int_facet_rows]
    crossings: list[Vec] = []
    for i in negs:
        u, vu = nums[i], vals[i]
        for j in poss:
            if _smallest_face(facets, 1 << i | 1 << j, len(vals)) != 1 << i | 1 << j:
                continue  # no edge joins the two vertices
            w, vw = nums[j], vals[j]  # one positive scale: the crossing is (w vu - u vw) / (d (vu - vw))
            crossings.append(tuple(Fraction(cw * vu - cu * vw, d * (vu - vw)) for cu, cw in zip(u, w)))
    carrier = cell.carrier
    kept = list(zip(cell.local_rows(), cell._int_facet_rows))
    down = primitive_functional(*_restrict_functional(carrier, cut))
    below = (down, _lift(carrier, down))
    on = [p for p, v in zip(cell.closure_vertices, vals) if v == 0] + crossings
    lo = [p for p, v in zip(cell.closure_vertices, vals) if v < 0] + on
    hi = [p for p, v in zip(cell.closure_vertices, vals) if v > 0] + on
    return {
        -1: _cell(lo, [*kept, below], carrier),
        0: _cell(on, [*cell._int_facet_rows, cut, _neg(cut)]),
        1: _cell(hi, [*kept, tuple(map(_neg, below))], carrier),
    }


# ---------------------------------------------------------------------------
# closure faces of a cell


def _face_sets(cell: RelOpenCell) -> dict[int, int]:
    """Every nonempty face of Cl(cell), as a bit set over its closure vertices, with its dimension."""
    tight = [_zeros(_excesses(r, cell._int_vertices)) for r in cell._int_facet_rows]
    return _faces_by_incidence(tight, len(cell.closure_vertices))


def closure_faces(cells: Iterable[RelOpenCell]) -> list[RelOpenCell]:
    """Every nonempty face of the closure of some given cell, the closures
    themselves included, each as the canonical cell that is its relative
    interior.  A face's facets lie on facets of the closure it came from, so
    those rows are its candidates; a face shared by several closures is
    built once, and a whole closure is the given cell itself."""
    faces: dict[tuple[Vec, ...], RelOpenCell] = {}  # vertices -> a cell whose closure has that face
    for cell in cells:
        verts = cell.closure_vertices
        for s in _face_sets(cell):
            faces.setdefault(tuple(v for i, v in enumerate(verts) if s >> i & 1), cell)
        faces[verts] = cell  # the whole closure is the cell itself
    return [c if c.closure_vertices == p else _cell(p, c._int_facet_rows) for p, c in sorted(faces.items())]


# ---------------------------------------------------------------------------
# cell tests: meeting, constant membership, covering


def _bbox_disjoint(b1: Box, b2: Box) -> bool:
    (lo1, hi1, d1), (lo2, hi2, d2) = b1, b2
    return any(h1 * d2 < l2 * d1 or h2 * d1 < l1 * d2 for l1, h1, l2, h2 in zip(lo1, hi1, lo2, hi2))


def _box_pairs(left: Sequence[Box], right: Sequence[Box]) -> Iterator[tuple[int, int]]:
    """Every (i, j) whose closed boxes left[i] and right[j] intersect, once
    each, by the scanning step of Zomorodian and Edelsbrunner, "Fast software
    for box intersections" (2000).  Over the common denominator both lists
    are sorted on the first coordinate, and a box is tested only against the
    boxes of the other list that start within its first interval: the left
    boxes at or after its start for a right one, the right boxes strictly
    after it for a left one.  In R^0 all boxes meet."""
    d = lcm(*[e for _, _, e in left], *[e for _, _, e in right])

    def scaled(boxes):  # (lo, hi, index) over d, by first start; [0], [0] in R^0
        rows = []
        for k, (lo, hi, e) in enumerate(boxes):
            m = d // e
            rows.append(([c * m for c in lo] or [0], [c * m for c in hi] or [0], k))
        rows.sort(key=lambda r: r[0][0])
        return rows, [lo[0] for lo, _, _ in rows]

    (a, a_starts), (b, b_starts) = scaled(left), scaled(right)
    for lo, hi, j in b:
        for lo2, hi2, i in a[bisect_left(a_starts, lo[0]) : bisect_right(a_starts, hi[0])]:
            if all(map(le, lo, hi2)) and all(map(le, lo2, hi)):
                yield i, j
    for lo, hi, i in a:
        for lo2, hi2, j in b[bisect_right(b_starts, lo[0]) : bisect_right(b_starts, hi[0])]:
            if all(map(le, lo, hi2)) and all(map(le, lo2, hi)):
                yield i, j


def _located(cells: Sequence[RelOpenCell], points: Sequence[IntPoint]) -> Iterator[tuple[int, int, int]]:
    """(i, j, ``_worst_excess``) for each cell i whose closure holds point j:
    the excess is below 0 when the point is in the relative interior.  The
    caller has checked the points' dimension.

    A batch is paired with the cells by one box sweep (``_box_pairs``), the
    points read as boxes of one point, in the sweep's order.  One point is
    tested cell by cell, in the cells' order (``_boxed_excess``): sorting
    the boxes for a single point costs more than the tests it spares."""
    if len(points) == 1:
        x = points[0]
        for i, cell in enumerate(cells):
            worst = cell._boxed_excess(x)
            if worst is not None and worst <= 0:
                yield i, 0, worst
        return
    for i, j in _box_pairs([c.bbox for c in cells], [(n, n, d) for n, d in points]):
        worst = cells[i]._worst_excess(points[j])
        if worst is not None and worst <= 0:
            yield i, j, worst


def _interiors(cells: Sequence[RelOpenCell], points: Sequence[IntPoint]) -> list[list[int]]:
    """Per point, the indices of the cells whose relative interior holds it,
    in the cells' order (``_located``)."""
    found: list[list[int]] = [[] for _ in points]
    for i, j, worst in _located(cells, points):
        if worst < 0:
            found[j].append(i)
    return [sorted(f) for f in found]


def _box_union(boxes: Sequence[Box]) -> Box:
    """The smallest box holding the given ones, over the lcm of their denominators."""
    if len(boxes) == 1:
        return boxes[0]
    d = lcm(*(e for _, _, e in boxes))
    lo = [[c * (d // e) for c in l] for l, _, e in boxes]
    hi = [[c * (d // e) for c in h] for _, h, e in boxes]
    return tuple(map(min, zip(*lo))), tuple(map(max, zip(*hi))), d


class _SignTable:
    """The sides of cell closures against the hyperplanes of a family of
    cells, as bit sets: the covectors of the family's arrangement (Björner,
    Las Vergnas, Sturmfels, White and Ziegler 1999), kept to what proves
    two cells disjoint.

    The keys are the hyperplanes of the facet rows and carrier equations of
    the family, each as its integer row with positive leading coefficient,
    the refinement's cuts (``_object_functionals``).
    On its first test a cell, in the family or not, gets bit sets over the
    keys, read off its closure vertices: the keys h with h <= 0 on its
    closure, with h >= 0, and with h < 0 or h > 0 on all of it; and, for the
    relatively open cell, the keys with h > 0 on it (its closure above h and
    not on h), with h < 0, and with h = 0.  Each distinct closure vertex is
    signed once per table, as the keys with h <= 0 and with h >= 0 there,
    evaluated on its cell's integer numerators and denominator (a positive
    scale keeps every sign) and remembered by the vertex.  A cell's sets
    are bit operations over its vertices: below is the AND of their h <= 0
    sets, above the AND of their h >= 0 sets, and off is below or above
    less the keys some vertex lies on.  The open x misses Cl(obj) when,
    for some key, Cl(obj) lies weakly on one side and x strictly on the
    other, or x lies on h and Cl(obj) off it.  When both cells are in the
    family every row of either is a key, so this finds every separation by
    one of their rows.  The same bit sets decide Cl(x) ⊆ Cl(obj) for obj in
    the family (``within``).  The AND of several cells' entries (``shared``)
    is an entry of the same form, and ``apart`` tests two entries, so a key
    that separates two sets of cells, such as two strata, separates each of
    their pairs; ``separated`` is ``apart`` on two cells.  The refinement
    signs only the cells that reach a test; the frontier check signs every
    cell, once, to AND them by stratum.  A table lives for the call that
    builds it, and keeps the cells it has signed, so their ids stay theirs.
    """

    def __init__(self, family: Iterable[RelOpenCell]):
        self._keys = list(dict.fromkeys(f for c in family for f in _object_functionals(c)))
        self._vertices: dict[Vec, tuple[int, int]] = {}
        self._signs: dict[int, tuple[RelOpenCell, int, int, int, int, int, int]] = {}

    def _sign(self, cell: RelOpenCell) -> tuple[RelOpenCell, int, int, int, int, int, int]:
        below, above, on = -1, -1, 0  # -1 has every bit set; a cell has a vertex
        nums, d = cell._int_vertices
        for v, n in zip(cell.closure_vertices, nums):
            signs = self._vertices.get(v)
            if signs is None:  # the keys with h <= 0, and with h >= 0, at v = n / d
                vals = list(enumerate(sum(map(mul, a, n)) * bd - bn * d for a, bn, bd in self._keys))
                signs = sum(1 << i for i, e in vals if e <= 0), sum(1 << i for i, e in vals if e >= 0)
                self._vertices[v] = signs
            le, ge = signs
            below &= le
            above &= ge
            on |= le & ge
        entry = (cell, below, above, (below | above) & ~on, above & ~below, below & ~above, above & below)
        self._signs[id(cell)] = entry
        return entry

    def shared(self, cells: Sequence[RelOpenCell]) -> tuple:
        """The AND of the cells' entries, an entry of the same form: the keys
        that every closure lies below, above and off, and that every open
        cell lies above, below and on."""
        below = above = off = up = down = on = -1
        for c in cells:
            _, b, a, o, u, d, n = self._signs.get(id(c)) or self._sign(c)
            below, above, off, up, down, on = below & b, above & a, off & o, up & u, down & d, on & n
        return cells, below, above, off, up, down, on

    @staticmethod
    def apart(x: tuple, obj: tuple) -> bool:
        """Some key separates the open cells of the entry x from the closures
        of the entry obj: they lie weakly on one side and the cells strictly
        on the other, or the cells on it and the closures off it.  One key
        does so for every pair of their cells at once."""
        return bool(obj[1] & x[4] | obj[2] & x[5] | obj[3] & x[6])

    def separated(self, x: RelOpenCell, obj: RelOpenCell) -> bool:
        """Some key separates the relatively open x from Cl(obj)."""
        return self.apart(self._signs.get(id(x)) or self._sign(x), self._signs.get(id(obj)) or self._sign(obj))

    def within(self, x: RelOpenCell, obj: RelOpenCell) -> bool:
        """Cl(x) ⊆ Cl(obj), for obj in the family: Cl(x) lies weakly on the
        side of every key that Cl(obj) lies weakly on one side of.  obj's
        own rows are among those keys, so this is exact."""
        _, x_below, x_above, _, _, _, _ = self._signs.get(id(x)) or self._sign(x)
        _, below, above, _, _, _, _ = self._signs.get(id(obj)) or self._sign(obj)
        return not (below & ~x_below or above & ~x_above)


def meets(x: RelOpenCell, obj: RelOpenCell, table: _SignTable) -> bool:
    """Does the relatively open x meet Cl(obj)?  The table and the boxes prove
    disjointness, the sample point of x a meeting; the split decides the
    rest.  Only the closure is read: x meets Cl(obj) whenever it meets obj,
    and where the open obj matters, in the refinement, it is Cl(obj) less
    its proper faces, which are objects there too."""
    if table.separated(x, obj) or _bbox_disjoint(x.bbox, obj.bbox):
        return False
    if obj._holds(x._int_sample, strict=False):
        return True
    return any(obj._holds(piece._int_sample, strict=False) for piece in _split_by(x, [obj]))


def _object_functionals(obj: RelOpenCell) -> list[IntRow]:
    """The hyperplanes that make membership in obj sign-determined: its
    integer rows, sign fixed; the refinement's cuts and a sign table's keys."""
    return [_canon_cut(f) for f in obj._int_equations + obj._int_facet_rows]


def _split_by(x: RelOpenCell, objs: Iterable[RelOpenCell]) -> list[RelOpenCell]:
    """x split by every defining hyperplane of the objects.  Membership in
    each object's closure is constant on every piece, so one sample point
    per piece decides it."""
    pieces = [x]
    for cut in sorted({f for obj in objs for f in _object_functionals(obj)}):
        pieces = [sub_cell for piece in pieces for sub_cell in split_cell(piece, cut).values()]
    return pieces


def uncovered_point(x: RelOpenCell, closures: Sequence[RelOpenCell]) -> Vec | None:
    """A point of x outside every Cl(t) for t in ``closures``, or None when
    x lies in their union.  x is split by the defining hyperplanes of the
    cells near it (``_split_by``), and one sample point per piece decides."""
    relevant = [t for t in closures if not _bbox_disjoint(x.bbox, t.bbox)]
    for piece in _split_by(x, relevant):
        if not any(t._holds(piece._int_sample, strict=False) for t in relevant):
            return piece.sample_point()
    return None


# ---------------------------------------------------------------------------
# common refinement


def _distinct(cells: Iterable[RelOpenCell]) -> list[RelOpenCell]:
    """The cells distinct by dimension and integer closure vertices, each kept
    as first seen: overlapping cells give identical classes, and a cell that
    a cut left intact keeps the data it has cached."""
    out: dict = {}
    for c in cells:
        out.setdefault((c.dim, c._int_vertices), c)
    return list(out.values())


def _refine_engine(cells: Sequence[RelOpenCell]) -> list[RelOpenCell]:
    """Refine the cells until membership in every face of every cell's
    closure, the closures included, is constant per piece; the pieces come
    sorted by ``cell_key``.  The objects are these closures alone: a cell is
    its closure less the proper faces, so membership in it is constant too.
    The first cuts are the hyperplanes of the codimension-one objects.

    Order invariant: the cut set grows by globally collected demands and the
    final pieces are the sign classes of that set intersected with the
    cells, independent of any processing order.  An object all of whose
    defining hyperplanes are already cuts is sign-determined and needs no
    geometric test.  Membership in any other object is constant on a piece
    whose box misses the object's (``_box_pairs`` leaves that pair out) and
    on a piece inside it (``within``); a piece that still meets the object
    demands the object's hyperplanes as cuts.
    """
    objects = closure_faces(cells)
    obj_funcs = [frozenset(_object_functionals(obj)) for obj in objects]
    table = _SignTable(objects)
    cuts = {_canon_cut(e) for obj in objects if obj.dim == obj.ambient_dim - 1 for e in obj._int_equations}
    pieces = _distinct(cells)
    pending = sorted(cuts)
    while True:
        for cut in pending:
            pieces = _distinct(c for p in pieces for c in split_cell(p, cut).values())
        live = [k for k, funcs in enumerate(obj_funcs) if not funcs <= cuts]
        demanded: set[int] = set()
        for i, j in _box_pairs([objects[k].bbox for k in live], [p.bbox for p in pieces]):
            obj, x = objects[live[i]], pieces[j]
            if live[i] not in demanded and not table.within(x, obj) and meets(x, obj, table):
                demanded.add(live[i])
        new = set().union(*(obj_funcs[k] for k in demanded)) - cuts
        if not new:
            return sorted(pieces, key=cell_key)
        cuts |= new
        pending = sorted(new)

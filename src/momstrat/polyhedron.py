"""Exact rational convex polyhedra, face lattices and relatively open cells.

All geometry is desk scale (ambient dimension <= 8, handfuls of facets), so
the algorithms favour transparent exactness over asymptotics.  Faces come
from vertex-facet incidence alone: ``_facets`` gives the facets of a face S,
a bit set of points, as the maximal proper nonempty sets S & t over the tight
sets t.  The face lattice, ``_cell``, ``closure_faces`` and the volume fans of
``dh`` all use it, with no rank.  One tight-basis scan, ``_kernel_lines``,
yields the kernel line of every k integer rows of rank k in k + 1
homogeneous coordinates, as an integer vector read off the fraction-free
elimination of ``linalg`` (``_eliminate``); any nonzero multiple serves.  It
gives the vertices (``enumerate_vertices``), the extreme rays that decide
boundedness (``is_bounded``) and the hyperplanes through points
(``_hyperplanes``), with the rows scaled to integers first.

A ``RelOpenCell`` is the relative interior of a bounded rational polytope:
a carrier affine subspace, the facet inequalities of its closure expressed in
carrier-local coordinates, and the excluded proper faces (the facets).  Every
cell is built by one private builder, ``_cell``, from the vertex set of its
closure and candidate rows among which its facets lie: it keeps the rows
that hold on every point and are tight on a maximal set of them, so equal
cells have bit-identical encodings whatever the candidates.  Callers pass
the rows they already hold: ``split_cell`` the cell's facet rows and the
cut, ``closure_faces`` the facet rows of the closure a face came from.
Only ``cell_from_closure_points`` tries every hyperplane through d affinely
independent points.  The faces of a cell's closure are cells too; the
refinement and frontier tests read one as a closed set through an explicit
``closed`` flag.

This module alone decides cell membership:

- is the point x in the cell, or in its closure?  ``RelOpenCell.contains``
  and ``RelOpenCell.closure_contains``, from the cached ambient rows;
- does a cell lie in another's closure?  ``_within_closure``, from the
  closure vertices;
- does the relatively open x meet a cell, or its closure?  ``meets``, which
  both the refinement (through ``_membership_constant``) and the frontier
  check call.  The refinement's pieces are plain cells with no record of
  their signs: ``meets`` itself tells a piece that misses an object, after a
  box test, a sample-point test and ``_closures_separated``, by splitting x
  by the object's hyperplanes (``_split_by``) and testing one sample point
  per piece;
- is x covered by a union of closures?  ``uncovered_point`` returns a point
  of x outside all of them, or None, by the same split and sample test.

The sign tests of cells run in integers.  A canonical row a.x <= beta has
primitive integer coefficients (``_canon_row``), so it is kept as
(a, beta_n, beta_d) with beta = beta_n / beta_d; points are kept as integer
numerators over one common denominator d > 0.  At x = n / d the integer
(a.n) * beta_d - beta_n * d is a.x - beta times d * beta_d > 0, so it has the
same sign: the test is exact, with no rational normalization.  A cell caches
these forms beside its ``Fraction`` data (``_int_equations``,
``_int_facet_rows``, ``_int_vertices`` and ``bbox``, whose corners share the
vertices' denominator, so a box test is one cross-multiplication per
coordinate), and ``_int_sample``, the sample point in integer form, which
the point tests of ``meets``, ``uncovered_point`` and the cover's incidence
table share.  They serve the point tests, the box tests, ``_within_closure``,
``_closures_separated`` and every tight set.  Crossing points, carriers,
restricted rows and everything returned stay ``Fraction``; the tight-basis
scan converts only the vertices and the facet rows it returns.

There are no module-level caches.  Derived data is memoized on the immutable
object it describes (``cached_property``), so it lives exactly as long as
that object: a polytope's face lattice, a cell's ambient rows, their integer
forms and the bounding box.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from math import gcd, lcm
from operator import and_, mul
from typing import Iterable, Iterator, Sequence

from .errors import DimensionMismatch, EmptyPolytope, RankDeficient, UnboundedPolytope
from .linalg import (
    ONE,
    ZERO,
    AffineSubspace,
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
    sub,
    vec,
    zeros,
)

# An affine functional (a, beta) stands for the hyperplane {x : a.x = beta}
# or the inequality a.x <= beta depending on context.
Functional = tuple[Vec, Fraction]


def _canon_cut(f: Functional) -> Functional:
    """Canonical representative of the hyperplane {a.x = beta} (sign fixed)."""
    a, b = primitive_functional(*f)
    lead = next((x for x in a if x != 0), ZERO)
    if lead < 0:
        a, b = tuple(-x for x in a), -b
    return a, b


def _canon_row(f: Functional) -> Functional:
    """Canonical oriented inequality row a.x <= beta (positive scaling only)."""
    return primitive_functional(*f)


# Integer forms of the sign kernel (see the module docstring).
IntRow = tuple[tuple[int, ...], int, int]  # (a, numerator of beta, denominator of beta)
IntPoints = tuple[tuple[tuple[int, ...], ...], int]  # (numerator rows, common denominator)
IntPoint = tuple[tuple[int, ...], int]  # (numerators, denominator)
Box = tuple[tuple[int, ...], tuple[int, ...], int]  # (lo, hi, d): corners lo / d and hi / d


def _int_row(f: Functional) -> IntRow:
    """The row a.x <= beta scaled by a positive integer to integer
    coefficients (by 1 for a canonical row), in integer form."""
    a, b = f
    m = lcm(*(c.denominator for c in a))
    if m != 1:
        b = b * m
    return tuple(c.numerator * (m // c.denominator) for c in a), b.numerator, b.denominator


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
    facet of the polytope lies (every facet of S is S meet one of those)."""
    parts = {face & t for t in tight} - {face, 0}
    return [s for s in parts if not any(s != t and s & t == s for t in parts)]


# ---------------------------------------------------------------------------
# H-polytopes


@dataclass(frozen=True)
class HPolytope:
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
    """The tight-basis scan: for each k-subset of the integer homogeneous rows
    (each of length k + 1) whose kernel is a line, an integer vector spanning
    that line, read off the integer elimination ``_eliminate`` of the subset:
    the last pivot at the free coordinate, minus that column's entry of each
    reduced row at the row's pivot."""
    for subset in itertools.combinations(rows, k):
        red, pivots, d = _eliminate(subset)
        if len(pivots) == k:
            free = next((c for c, pc in enumerate(pivots) if c != pc), k)
            z = [0] * (k + 1)
            z[free] = d
            for r, pc in zip(red, pivots):
                z[pc] = -r[free]
            yield tuple(z)


def is_bounded(p: HPolytope) -> bool:
    """Exact boundedness: the recession cone {r : A.r <= 0} is the origin
    alone.  With rank A = n the cone is pointed, and a pointed cone other
    than the origin has an extreme ray, which spans the kernel line of n - 1
    independent rows of A (Schrijver 1986, section 8.8); so it suffices that
    neither r nor -r lies in the cone for any such line r.  The rows are
    scaled to integers, which keeps every sign."""
    n = p.ambient_dim
    if n == 0:
        return True
    rows = _integer_rows(p.A)[0]
    values = ([sum(map(mul, a, r)) for a in rows] for r in _kernel_lines(rows, n - 1))
    return rank(p.A) == n and all(min(v) < 0 < max(v) for v in values)


def enumerate_vertices(rows: Sequence[Functional], dim: int) -> list[Vec]:
    """All vertices of {x : a.x <= beta} by exhaustive tight-basis
    enumeration: each kernel line z of dim rows (a, -beta), scaled to
    integers, with z[dim] != 0 gives the candidate point z[:dim] / z[dim].
    Candidates are kept as primitive lines with z[dim] > 0 and tested in
    integers: the point is feasible when every row has (a, -beta).z <= 0."""
    ints = _integer_rows([(*a, -b) for a, b in rows])[0]
    found: set[tuple[int, ...]] = set()
    for z in _kernel_lines(ints, dim):
        if z[dim]:
            g = gcd(*z) if z[dim] > 0 else -gcd(*z)
            z = tuple(c // g for c in z)
            if z not in found and all(sum(map(mul, a, z)) <= 0 for a in ints):
                found.add(z)
    return sorted(tuple(Fraction(c, z[dim]) for c in z[:dim]) for z in found)


def vertices(p: HPolytope) -> list[Vec]:
    """Exact, deduplicated, lexicographically sorted vertex list."""
    if not is_bounded(p):
        raise UnboundedPolytope("polytope has a nonzero recession direction")
    vs = enumerate_vertices(list(zip(p.A, p.b)), p.ambient_dim)
    if not vs:
        raise EmptyPolytope("polytope has no points")
    return vs


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


def _restrict_functional(carrier: AffineSubspace, a: Vec, beta: Fraction) -> Functional:
    """Carrier-local form of the ambient functional a.x <= beta."""
    return tuple(dot(a, row) for row in carrier.directions), beta - dot(a, carrier.base)


# ---------------------------------------------------------------------------
# faces and the face lattice


@dataclass(frozen=True)
class Face:
    """A face of a polytope: tight rows, dimension, vertices."""

    active_set: tuple[int, ...]
    dim: int
    vertex_ids: tuple[int, ...]
    vertex_coords: Mat


@dataclass(frozen=True)
class FaceLattice:
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
        faces.append(Face(active, dim, ids, mat(verts[i] for i in ids)))
    faces.append(Face(tuple(range(len(p.A))), -1, (), ()))
    faces.sort(key=lambda f: (f.dim, f.active_set, f.vertex_ids))
    return FaceLattice(tuple(faces), mat(verts))


# ---------------------------------------------------------------------------
# relatively open cells


@dataclass(frozen=True)
class RelOpenCell:
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
    def local_vertices(self) -> tuple[Vec, ...]:
        return tuple(self.carrier.to_local(v) for v in self.closure_vertices)

    @cached_property
    def _int_vertices(self) -> IntPoints:
        """The closure vertices over one common denominator."""
        return _int_points(self.closure_vertices)

    @cached_property
    def bbox(self) -> Box:
        """Bounding box of the closure, over the denominator of ``_int_vertices``."""
        return _bbox(self._int_vertices)

    @cached_property
    def ambient_equations(self) -> tuple[Functional, ...]:
        """Canonical ambient equations of the carrier."""
        return tuple(_canon_row(e) for e in self.carrier.equations())

    @cached_property
    def ambient_facet_rows(self) -> tuple[Functional, ...]:
        """The facet rows lifted to ambient coordinates (``_lift_functional``)."""
        return tuple(_canon_row(_lift_functional(self.carrier, a, b)) for a, b in self.local_rows())

    @cached_property
    def _int_equations(self) -> tuple[IntRow, ...]:
        return tuple(map(_int_row, self.ambient_equations))

    @cached_property
    def _int_facet_rows(self) -> tuple[IntRow, ...]:
        return tuple(map(_int_row, self.ambient_facet_rows))

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
        (n, d), (lo, hi, e) = x, self.bbox
        cap = 0 if strict else 1  # excesses are integers: v <= 0 is v < 1
        return (
            all(l * d <= c * e <= h * d for l, c, h in zip(lo, n, hi))
            and not any(_excess(r, n, d) for r in self._int_equations)
            and all(_excess(r, n, d) < cap for r in self._int_facet_rows)
        )

    def closure_contains(self, x: Vec) -> bool:
        return self._holds(self._int_point(x), strict=False)

    def contains(self, x: Vec) -> bool:
        """x lies on the carrier and strictly inside every facet row.

        Read off the cached ambient rows, which agree with the carrier-local
        rows at every point up to a positive scaling.  A canonical cell
        excludes exactly its single facet rows (``excluded_faces`` is
        ((0,), (1,), ...)), so its relative interior is where all are strict.
        """
        return self._holds(self._int_point(x), strict=True)

    def interior_points(self, count: int, rng) -> list[Vec]:
        """Deterministic rational points in the cell: positive vertex mixes."""
        pts = []
        verts = self.closure_vertices
        for _ in range(count):
            weights = [Fraction(1 + rng.randrange(64)) for _ in verts]
            total = sum(weights)
            x = zeros(self.ambient_dim)
            for w, v in zip(weights, verts):
                x = add(x, scale(v, w / total))
            pts.append(x)
        return pts


def _hyperplanes(local: Sequence[Vec], d: int) -> Iterable[IntRow]:
    """Every hyperplane a.x = beta through d affinely independent points of
    ``local``, as the integer row of the kernel line (a, beta) of their rows
    (p, -1)."""
    for z in _kernel_lines(_integer_rows([(*p, -ONE) for p in local])[0], d):
        yield z[:d], z[d], 1


def _smallest_face(facets: Iterable[int], points: int, count: int) -> int:
    """The smallest face of conv(points 0..count-1) holding ``points``: the
    meet of the facets through them, all as bit sets of points."""
    return reduce(and_, (t for t in facets if t & points == points), (1 << count) - 1)


def _cell(points: Iterable[Vec], candidates: Iterable[Functional] | None) -> RelOpenCell:
    """The canonical cell whose closure is conv(points).

    The candidates are ambient rows among which every facet of conv(points)
    lies; None means every hyperplane through d affinely independent points,
    found and tested in carrier coordinates.  A candidate that holds on every
    point and is tight on some cuts out a face, and every face lies in a
    facet, so the facets are the candidates tight on a maximal set of points
    (``_facets``); they are restricted to the carrier, oriented and sorted.
    A point is a closure vertex when the facets through it meet in it alone.
    """
    pts = sorted(set(points))
    carrier = AffineSubspace.from_points(pts)
    local = [carrier.to_local(p) for p in pts]
    scan = candidates is None
    frame = _int_points(local if scan else pts)
    faces: dict[int, tuple[Functional | IntRow, bool]] = {}  # tight points as a bit set -> (row, holds as is)
    for f in _hyperplanes(local, carrier.dim) if scan else candidates:
        vals = _excesses(f if scan else _int_row(f), frame)
        lo, hi = min(vals), max(vals)
        if not (lo == hi or (lo and hi)):  # neither constant, nor through the points, nor tight on none
            faces.setdefault(_zeros(vals), (f, hi == 0))
    rows: dict[Functional, int] = {}
    for tight in _facets((1 << len(pts)) - 1, faces):
        f, holds = faces[tight]
        a, b = (vec(f[0]), Fraction(f[1])) if scan else _restrict_functional(carrier, *f)
        rows[_canon_row((a, b) if holds else (tuple(-c for c in a), -b))] = tight
    order = sorted(rows)
    verts = [p for i, p in enumerate(pts) if _smallest_face(rows.values(), 1 << i, len(pts)) == 1 << i]
    excluded = tuple((i,) for i in range(len(order)))
    return RelOpenCell(carrier, mat(r[0] for r in order), vec(r[1] for r in order), excluded, mat(verts))


def cell_from_closure_points(points: Sequence[Vec]) -> RelOpenCell:
    """Canonical cell whose closure is conv(points), its facets found among
    the hyperplanes through the points."""
    return _cell((vec(p) for p in points), None)


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


def split_cell(cell: RelOpenCell, cut: Functional) -> dict[int, RelOpenCell]:
    """Split a cell by the hyperplane {a.x = beta}.

    Returns a dict from sign (-1, 0, +1 relative to the hyperplane) to the
    nonempty subcells on that side.  A cell whose relative interior misses
    the hyperplane comes back intact under its single sign.
    """
    verts = cell._int_vertices
    vals = _excesses(_int_row(cut), verts)
    negs = [i for i, v in enumerate(vals) if v < 0]
    poss = [i for i, v in enumerate(vals) if v > 0]
    if not (negs and poss):
        if not negs and not poss:
            return {0: cell}
        return {-1 if negs else 1: cell}
    local_pts = list(cell.local_vertices)
    facets = [_zeros(_excesses(r, verts)) for r in cell._int_facet_rows]
    crossings: list[Vec] = []
    for i in negs:
        u, vu = local_pts[i], vals[i]
        for j in poss:
            if _smallest_face(facets, 1 << i | 1 << j, len(vals)) != 1 << i | 1 << j:
                continue  # no edge joins the two vertices
            w, vw = local_pts[j], vals[j]
            # the excesses share one positive scale, so their ratio is exact
            lam = Fraction(vu, vu - vw)
            crossings.append(add(u, scale(sub(w, u), lam)))
    to_amb = cell.carrier.from_local
    candidates = [*cell.ambient_facet_rows, cut, (tuple(-c for c in cut[0]), -cut[1])]
    lo = [to_amb(p) for p, v in zip(local_pts, vals) if v <= 0] + [to_amb(t) for t in crossings]
    hi = [to_amb(p) for p, v in zip(local_pts, vals) if v >= 0] + [to_amb(t) for t in crossings]
    mid = [to_amb(p) for p, v in zip(local_pts, vals) if v == 0] + [to_amb(t) for t in crossings]
    return {-1: _cell(lo, candidates), 0: _cell(mid, candidates), 1: _cell(hi, candidates)}


# ---------------------------------------------------------------------------
# closure faces of a cell


def closure_faces(cells: Iterable[RelOpenCell]) -> list[RelOpenCell]:
    """Every nonempty face of the closure of some given cell, the closures
    themselves included, each as the canonical cell that is its relative
    interior.  A face's facets lie on facets of the closure it came from, so
    those rows are its candidates; a face shared by several closures is
    built once."""
    faces: dict[tuple[Vec, ...], RelOpenCell] = {}
    for cell in cells:
        verts = cell.closure_vertices
        tight = [_zeros(_excesses(r, cell._int_vertices)) for r in cell._int_facet_rows]
        for s in _faces_by_incidence(tight, len(verts)):
            faces.setdefault(tuple(v for i, v in enumerate(verts) if s >> i & 1), cell)
    return [_cell(points, faces[points].ambient_facet_rows) for points in sorted(faces)]


# ---------------------------------------------------------------------------
# cell tests: meeting, constant membership, covering
#
# An object is a cell read either as the relatively open set it is
# (closed=False) or as its closure (closed=True).


def _cells_bbox(cells: Iterable[RelOpenCell]) -> Box:
    """Bounding box of the union of the cells' closures."""
    return _bbox(_int_points(v for c in cells for v in c.closure_vertices))


def _bbox_disjoint(b1: Box, b2: Box) -> bool:
    (lo1, hi1, d1), (lo2, hi2, d2) = b1, b2
    return any(h1 * d2 < l2 * d1 or h2 * d1 < l1 * d2 for l1, h1, l2, h2 in zip(lo1, hi1, lo2, hi2))


def _within_closure(x: RelOpenCell, obj: RelOpenCell) -> bool:
    """x ⊆ Cl(obj): every closure vertex of x lies in Cl(obj)."""
    verts = x._int_vertices
    (lo, hi, e), (xlo, xhi, d) = obj.bbox, x.bbox
    return (
        all(l * d <= c * e for l, c in zip(lo, xlo))
        and all(c * e <= h * d for c, h in zip(xhi, hi))
        and not any(any(_excesses(r, verts)) for r in obj._int_equations)
        and all(max(_excesses(r, verts)) <= 0 for r in obj._int_facet_rows)
    )


def _closures_separated(x: RelOpenCell, obj: RelOpenCell) -> bool:
    """Cheap sufficient test for x ∩ Cl(obj) = ∅ (x relatively open).

    Points of x are strictly positive mixes of its closure vertices and lie
    strictly inside every facet of x, so one-sided weak separations with one
    strict vertex already rule out the intersection.
    """
    xverts = x._int_vertices
    for row in obj._int_facet_rows:
        vals = _excesses(row, xverts)
        if min(vals) >= 0 and max(vals) > 0:
            return True
    for row in obj._int_equations:
        vals = _excesses(row, xverts)
        if (min(vals) >= 0 or max(vals) <= 0) and any(vals):
            return True
    pts = obj._int_vertices
    for row in x._int_facet_rows:
        if min(_excesses(row, pts)) >= 0:
            return True
    for row in x._int_equations:
        vals = _excesses(row, pts)
        if min(vals) > 0 or max(vals) < 0:
            return True
    return False


def meets(x: RelOpenCell, obj: RelOpenCell, closed: bool) -> bool:
    """Does the relatively open x meet obj, read as its closure (closed=True)
    or as the relatively open set it is?"""
    if _bbox_disjoint(x.bbox, obj.bbox):
        return False
    if obj._holds(x._int_sample, strict=not closed):
        return True
    if _closures_separated(x, obj):
        return False
    return any(obj._holds(piece._int_sample, strict=not closed) for piece in _split_by(x, [obj]))


def _membership_constant(x: RelOpenCell, obj: RelOpenCell, closed: bool) -> bool:
    """Is membership in obj (read as closed or open) constant on x?

    Inside the closure it is: constant true for the closed object, and for
    the open one x lies either inside a facet (constant false) or strictly
    inside every facet (constant true).  Otherwise it is non-constant
    exactly when x still meets obj.
    """
    return _within_closure(x, obj) or not meets(x, obj, closed)


def _object_functionals(obj: RelOpenCell) -> list[Functional]:
    """Cut functionals that make membership in obj sign-determined."""
    return [_canon_cut(f) for f in obj.ambient_equations + obj.ambient_facet_rows]


def _split_by(x: RelOpenCell, objs: Iterable[RelOpenCell]) -> list[RelOpenCell]:
    """x split by every defining hyperplane of the objects.  Membership in
    each object, open or closed, is constant on every piece, so one sample
    point per piece decides it."""
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


def _initial_cuts(objects: Iterable[tuple[RelOpenCell, bool]]) -> set[Functional]:
    """Codimension-one affine hulls among the members and closure faces."""
    cuts: set[Functional] = set()
    for obj, closed in objects:
        if obj.dim == obj.ambient_dim - 1:
            cuts.update(_canon_cut(e) for e in obj.carrier.equations())
        if not closed and obj.dim == obj.ambient_dim:
            cuts.update(_canon_cut(r) for r in obj.ambient_facet_rows)
    return cuts


def _distinct(cells: Iterable[RelOpenCell]) -> dict:
    """The cells by ``cell_key``, each kept as first seen: overlapping cells
    give identical classes, and a cell that a cut left intact keeps the data
    it has cached."""
    out: dict = {}
    for c in cells:
        out.setdefault(cell_key(c), c)
    return out


def _refine_engine(cells: Sequence[RelOpenCell]) -> list[RelOpenCell]:
    """Refine the cells until membership in every cell and in every face of
    every cell's closure is constant per piece; the pieces come sorted by
    ``cell_key``.

    Order invariant: the cut set grows by globally collected demands and the
    final pieces are the sign classes of that set intersected with the
    cells, independent of any processing order.  An object all of whose
    defining hyperplanes are already cuts is sign-determined and needs no
    geometric test.
    """
    objects = list(dict.fromkeys((c, False) for c in cells))
    objects += [(face, True) for face in closure_faces(cells)]
    obj_funcs = [frozenset(_object_functionals(obj)) for obj, _ in objects]
    cuts: set[Functional] = _initial_cuts(objects)
    pieces = _distinct(cells)
    pending = sorted(cuts)
    while True:
        for cut in pending:
            pieces = _distinct(c for p in pieces.values() for c in split_cell(p, cut).values())
        demands: set[Functional] = set()
        for (obj, closed), funcs in zip(objects, obj_funcs):
            if funcs <= cuts:
                continue  # fully sign-determined: membership constant per piece
            if not all(_membership_constant(p, obj, closed) for p in pieces.values()):
                demands |= funcs
        new = demands - cuts
        if not new:
            return [pieces[k] for k in sorted(pieces)]
        cuts |= new
        pending = sorted(new)

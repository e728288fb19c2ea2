"""Hamiltonian subtorus actions on symplectic toric manifolds.

The input is purely polyhedral: the momentum polytope of the big torus in
R^n (a complete invariant of the toric manifold) and an integral n x k
matrix embedding the subtorus Lie algebra.  The induced map on duals is the
transpose, and the momentum image of every orbit-type stratum is a
projection of an open face, so the whole cover machinery applies verbatim.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from .cover import PiecewiseAffineCover
from .errors import (
    NonEffectiveAction,
    NonIntegralInput,
    PointOutsideImage,
    RankDeficient,
)
from .linalg import (
    FrozenValue,
    Mat,
    Vec,
    _eliminate,
    _integer_rows,
    det,
    dot,
    hnf_lattice_basis,
    identity,
    integer_row_basis,
    kernel_lattice,
    mat,
    mat_vec,
    nullspace,
    primitive_functional,
    rank,
    row_space_basis,
    rref,
    solve,
    transpose,
    unit,
    vec,
)
from .polyhedron import (
    Face,
    HPolytope,
    RelOpenCell,
    cell_from_closure_points,
    cell_key,
)
from .stratifier import Stratification, stratify


class ToricAction(FrozenValue):
    """Momentum polytope in R^n plus the subtorus inclusion matrix B (n x k)."""

    polytope: HPolytope
    B: Mat
    name: str = ""

    @staticmethod
    def make(polytope: HPolytope, b: Mat, name: str = "") -> "ToricAction":
        b = mat(b)
        if any(x.denominator != 1 for row in b for x in row):
            raise NonIntegralInput("subtorus matrix must be integral")
        n = polytope.ambient_dim
        if len(b) != n:
            raise RankDeficient("subtorus matrix must have one row per ambient dimension")
        k = len(b[0]) if b else 0
        if rank(b) != k:
            raise RankDeficient("subtorus matrix must have full column rank")
        polytope.lattice  # raises UnboundedPolytope / EmptyPolytope
        return ToricAction(polytope, b, name)

    @property
    def n(self) -> int:
        return self.polytope.ambient_dim

    @property
    def k(self) -> int:
        return len(self.B[0]) if self.B else 0

    @property
    def projection(self) -> Mat:
        """The induced map on duals t_n^* -> t_k^*: the transpose of B."""
        return transpose(self.B)

    @cached_property
    def face_images(self) -> tuple[tuple[RelOpenCell, tuple[Face, ...]], ...]:
        """``face_image_cells`` of this action, computed on first use."""
        return face_image_cells(self)

    @cached_property
    def face_isotropy(self) -> dict[Face, "IsotropyData"]:
        """``isotropy_for_face`` of every nonempty face, computed on first use."""
        return {f: isotropy_for_face(self, f) for _, faces in self.face_images for f in faces}

    @cached_property
    def fiber_charts(self) -> "FiberCharts":
        """``fiber_vertex_charts`` of this action, computed on first use."""
        return fiber_vertex_charts(self)

    @cached_property
    def cover(self) -> PiecewiseAffineCover:
        """``momentum_cover`` of this action, computed on first use; it keeps
        its own refinement and validation."""
        return momentum_cover(self)

    def is_effective(self) -> bool:
        """The subtorus embeds iff the rows of B span Z^k: all elementary
        divisors of B are one exactly when its HNF is the identity."""
        return hnf_lattice_basis(self.B) == identity(self.k)

    def is_delzant(self) -> bool:
        """Each vertex must lie on exactly n facets whose primitive normals
        form a Z^n basis (the smoothness criterion for toric manifolds)."""
        for f in self.polytope.lattice.by_dim(0):
            prim = sorted(
                {primitive_functional(self.polytope.A[i], self.polytope.b[i])[0] for i in f.active_set}
            )
            if len(prim) != self.n:
                return False
            if abs(det(prim)) != 1:
                return False
        return True


class IsotropyData(NamedTuple):
    """Isotropy Lie algebra of the subtorus over a face, with its annihilator."""

    face_active_set: tuple[int, ...]
    face_dim: int
    isotropy_basis: Mat  # basis of {xi in R^k : B.xi in span(active normals)}
    annihilator: Mat  # canonical basis of the annihilator in (R^k)*

    @property
    def isotropy_rank(self) -> int:
        return len(self.isotropy_basis)


def isotropy_for_face(a: ToricAction, f: Face) -> IsotropyData:
    normals = mat(a.polytope.A[i] for i in f.active_set)
    k = a.k
    # unknowns (xi, lambda): B.xi - N^T.lambda = 0, one equation per ambient coord
    rows = []
    for i in range(a.n):
        row = list(a.B[i]) + [-nr[i] for nr in normals]
        rows.append(vec(row))
    kernel = nullspace(mat(rows), k + len(normals))
    iso = row_space_basis(mat(r[:k] for r in kernel)) if kernel else ()
    ann = nullspace(iso, k)
    return IsotropyData(f.active_set, f.dim, iso, ann)


def face_image_cells(a: ToricAction) -> tuple[tuple[RelOpenCell, tuple[Face, ...]], ...]:
    """The distinct projected open faces, sorted by ``cell_key``, each with
    the nonempty faces F, in lattice order, with pi(relint F) equal to it.

    pi(relint F) is the relative interior of the hull of F's projected
    vertices, so the vertices are projected once and one cell is built per
    distinct set of projected vertices (``project_relint`` per face, with its
    rank check once).  The cover, the fiber charts and ``faces_through`` read
    each image once from this table.
    """
    b_t = a.projection
    if rank(b_t) != len(b_t):
        raise RankDeficient("projection matrix must have full row rank")
    lattice = a.polytope.lattice
    images = [mat_vec(b_t, v) for v in lattice.vertex_list]
    groups: dict[RelOpenCell, list[Face]] = {}
    by_points: dict[frozenset[Vec], list[Face]] = {}  # the group of the cell the points span
    for f in lattice.nonempty_faces():
        points = frozenset(images[i] for i in f.vertex_ids)
        if points not in by_points:
            by_points[points] = groups.setdefault(cell_from_closure_points(points), [])
        by_points[points].append(f)
    return tuple(sorted(((cell, tuple(faces)) for cell, faces in groups.items()), key=lambda g: cell_key(g[0])))


def momentum_cover(a: ToricAction) -> PiecewiseAffineCover:
    """Cover of the momentum image by the distinct projected open faces."""
    return PiecewiseAffineCover.make([cell for cell, _ in a.face_images])


# The chart types are NamedTuples, as is every plain record of the package:
# a class whose methods are generated through ``exec`` costs about 1 ms of
# ``import momstrat`` to create, a NamedTuple a tenth of that.  The values
# that cache derived data share ``linalg.FrozenValue`` instead.


class FiberChart(NamedTuple):
    """The fiber vertex contributed by one face G of the polytope.

    For every x in pi(relint G) the fiber over x meets aff G in a single
    point, which is a vertex of the fiber tight at exactly the rows of
    ``active_set``.  Its kernel-lattice coordinates are affine in x, held as
    integer rows over one denominator den > 0:
    t_i = (rows[i][0] + rows[i][1:].x) / den.
    """

    active_set: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]
    den: int


class FiberCharts(NamedTuple):
    """The fiber over x is {p(x) + t.lattice : rows hold at t}, where p(x) is
    ``solve(a.projection, x)``.  ``cells`` pairs each projected face pi(relint G)
    with charts, in cover order, with the charts of the faces G that project onto it."""

    lattice: Mat
    cells: tuple[tuple[RelOpenCell, tuple[FiberChart, ...]], ...]

    def over(self, x: Vec) -> list[FiberChart]:
        """The charts of the fiber vertices over x, one per vertex."""
        point = self.cells[0][0]._int_point(x)  # converted once, shared by every cell
        return [chart for cell, charts in self.cells if cell._holds(point, strict=True) for chart in charts]


def fiber_vertex_charts(a: ToricAction) -> FiberCharts:
    """One chart per nonempty face G on whose affine hull pi is injective;
    the ``dh`` module docstring says why these give every fiber vertex once.

    In kernel-lattice coordinates t the fiber row of polytope row i reads
    (A_i.L).t <= b_i - A_i.p(x), with p linear in x.  The vertex on G solves
    the active rows of G, and any n - k independent ones among them give its
    affine chart, read off their fraction-free elimination (den * RREF).
    """
    lattice = kernel_lattice(a.projection, a.n)
    d = len(lattice)
    p_basis = [solve(a.projection, unit(a.k, j)) for j in range(a.k)]
    # row i as (A_i.L | b_i | -A_i.p(e_1) ... -A_i.p(e_k))
    rows = [
        tuple(dot(row, l) for l in lattice) + (beta,) + tuple(-dot(row, p) for p in p_basis)
        for row, beta in zip(a.polytope.A, a.polytope.b)
    ]
    cells = []
    for cell, faces in a.face_images:
        charts = []
        for f in (f for f in faces if f.dim == cell.dim):
            pick = rref(transpose(mat(rows[i][:d] for i in f.active_set)))[1] if d else []
            red, _, den = _eliminate(_integer_rows([rows[f.active_set[i]] for i in pick])[0])
            s = 1 if den > 0 else -1
            charts.append(FiberChart(f.active_set, tuple(tuple(s * c for c in r[d:]) for r in red), s * den))
        if charts:
            cells.append((cell, tuple(charts)))
    return FiberCharts(lattice, tuple(cells))


def hamiltonian_stratification(a: ToricAction) -> Stratification:
    """Stratify the momentum cover and attach integer direction bases.

    Every stratum direction is a rational subspace of (R^k, Z^k), so the
    integer basis always exists; it witnesses the integral affine structure.
    """
    s = stratify(a.cover)
    strata = tuple(
        st._replace(integer_direction=integer_row_basis(st.direction)) for st in s.strata
    )
    return Stratification(strata, s.frontier, s.ambient_dim)


def faces_through(a: ToricAction, x: Vec) -> list[Face]:
    """The faces whose projected open face holds x, each image tested once."""
    point = a.face_images[0][0]._int_point(x)  # converted once, shared by every image
    return [f for cell, faces in a.face_images if cell._holds(point, strict=True) for f in faces]


def isotropy_at(a: ToricAction, x) -> list[IsotropyData]:
    """Isotropy data of every face whose projected open face contains x."""
    hits = faces_through(a, vec(x))
    if not hits:
        raise PointOutsideImage(f"{x} is not in the momentum image")
    return [a.face_isotropy[f] for f in hits]


def regular_locus(a: ToricAction, s: Stratification) -> set[int]:
    """Stratum ids over which every contributing face has zero isotropy."""
    if not a.is_effective():
        raise NonEffectiveAction("regular locus is only defined for effective actions")
    singular = {f for f, iso in a.face_isotropy.items() if iso.isotropy_rank != 0}
    return {
        st.id
        for st in s.strata
        if not any(f in singular for cell in st.cells for f in faces_through(a, cell.sample_point()))
    }

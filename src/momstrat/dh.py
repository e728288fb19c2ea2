"""Exact fiber volumes and per-chamber density polynomials.

The density at x is the volume of the momentum fiber over x, measured in the
affine lattice Z^n ∩ ker(pi) (so a fundamental cell of that lattice has
volume one).  Working in kernel-lattice coordinates makes the normalization
automatic: the fiber becomes a polytope in R^(n-k) whose Euclidean volume is
the lattice-normalized one.

The fiber vertices come from the faces of the momentum polytope Delta, not
from a search over the fiber's rows.  The relative interiors of the faces
partition Delta, so a point of the fiber over x is a vertex of the fiber
exactly when the face G whose relative interior holds it meets the fiber in
that point alone: when pi is injective on aff G, which forces dim G <= k.
That point depends affinely on x while x stays in pi(relint G) -- the local
triviality of the momentum map over each stratum, seen one vertex at a time.
``ToricAction.fiber_charts`` therefore holds one affine chart per such face,
built once per action, and the vertices over x are the chart values of the
faces whose projected relative interior contains x: one vertex per face, with
no duplicates, and a polytope row tight at a vertex exactly when it is
active on that vertex's face.

The volume is exact and comes from a triangulation driven by vertex-facet
incidence (Bueler-Enge-Fukuda, "Exact volume computation for polytopes"):
each fiber row comes with the vertices it is tight at, and a face is handled
as a bit set of vertex indices.  The facets of a face come from
``polyhedron._facets``, the routine the face lattice and the cells use: the
maximal proper nonempty sets among the intersections of the face with the
row tight sets, which stays correct for redundant and repeated rows.  The
fan from the least vertex of a face over its facets that miss it is recursed
into down to single vertices; only the resulting d-simplices touch
coordinates, one exact determinant each.

On each top-dimensional stratum the density is
a polynomial of total degree at most n-k, recovered by exact interpolation
and re-verified on held-out points.

The Monte-Carlo estimator at the bottom is the only floating-point code in
the package outside SVG coordinate formatting; it exists purely as an
independent cross-check of the exact path, so it finds the fiber vertices on
its own, by the exhaustive tight-basis scan over the fiber's rows.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import (
    DegenerateFiber,
    DimensionMismatch,
    EmptyFiber,
    InterpolationInconsistent,
    NotTopDimensional,
)
from .linalg import (
    ZERO,
    AffineSubspace,
    Mat,
    Vec,
    det,
    dot,
    mat,
    rank,
    solve,
    sub,
    vec,
)
from .polyhedron import Functional, _facets, enumerate_vertices
from .stratifier import Stratification
from .toric import ToricAction


class FiberVolume(NamedTuple):
    point: Vec
    volume: Fraction


class DensityPoly(NamedTuple):
    """Multivariate polynomial with rational coefficients on one stratum."""

    stratum_id: int
    coefficients: tuple[tuple[tuple[int, ...], Fraction], ...]  # sorted, nonzero
    degree: int

    def evaluate(self, x) -> Fraction:
        point = vec(x)
        return sum((c * _monomial(point, e) for e, c in self.coefficients), ZERO)

    def coefficient(self, expo: tuple[int, ...]) -> Fraction:
        for e, c in self.coefficients:
            if e == expo:
                return c
        return ZERO


def _fiber_point(a: ToricAction, x) -> Vec:
    point = vec(x)
    if len(point) != a.k:
        raise DimensionMismatch(f"the momentum image lies in R^{a.k}, got {len(point)} coordinates")
    return point


def _fiber_rows(a: ToricAction, x: Vec) -> tuple[list[Functional], Vec, Mat]:
    """The fiber polytope over x in kernel-lattice coordinates, as H-rows.

    Returns (rows, particular solution p, lattice basis L) with the fiber
    equal to {p + t.L : rows hold at t}.  Only the Monte-Carlo oracle reads
    the rows: it finds the fiber vertices from them on its own.
    """
    p = solve(a.projection, x)
    if p is None:
        raise EmptyFiber(f"projection misses {x}")
    lattice = a.fiber_charts.lattice
    rows = []
    for row, beta in zip(a.polytope.A, a.polytope.b):
        coeffs = tuple(dot(row, li) for li in lattice)
        rows.append((coeffs, beta - dot(row, p)))
    return rows, p, lattice


def _incidence_fan(tight: Sequence[int], face: int, memo: dict) -> list[tuple[int, ...]]:
    """Fan triangulation of a face, a bit set of vertex indices, as
    vertex-index simplices: the apex is the face's least vertex index, and
    the facets (``polyhedron._facets``) that contain it are skipped."""
    apex = face & -face
    if face == apex:
        return [(apex.bit_length() - 1,)]
    if face not in memo:
        fans = (_incidence_fan(tight, f, memo) for f in _facets(face, tight) if not f & apex)
        memo[face] = [(apex.bit_length() - 1,) + s for fan in fans for s in fan]
    return memo[face]


def polytope_volume(tight: Sequence[int], verts: list[Vec], d: int) -> Fraction:
    """Exact Euclidean d-volume of conv(verts) inside R^d.

    ``tight`` holds, for each of a set of valid inequalities of conv(verts)
    among which every facet appears (redundant and repeated ones are
    harmless), the vertices at which it is tight as a bit set -- e.g.
    ``tight_sets(rows, verts)`` for the H-rows the vertices came from.
    """
    if d == 0:
        return Fraction(1)
    simplices = _incidence_fan(list(set(tight)), (1 << len(verts)) - 1, {})
    if len(simplices[0]) <= d:
        return ZERO  # the fan of an e-polytope is made of (e+1)-vertex simplices
    total = ZERO
    for simplex in simplices:
        v0 = verts[simplex[0]]
        total += abs(det([sub(verts[i], v0) for i in simplex[1:]]))
    return total / math.factorial(d)


def fiber_volume(a: ToricAction, x) -> FiberVolume:
    """Lattice-normalized exact volume of the momentum fiber over x.

    The vertices come from the action's fiber charts, one per face whose
    projected relative interior contains x; a polytope row is tight at a
    vertex exactly when it is active on that vertex's face.
    """
    point = _fiber_point(a, x)
    hits = a.fiber_charts.over(point)
    if not hits:
        raise EmptyFiber(f"fiber over {x} is empty")
    tight = [0] * len(a.polytope.A)
    for j, chart in enumerate(hits):
        for i in chart.active_set:
            tight[i] |= 1 << j
    verts = [chart.vertex(point) for chart in hits]
    return FiberVolume(point, polytope_volume(tight, verts, a.n - a.k))


# ---------------------------------------------------------------------------
# density polynomials by exact interpolation


def _monomials(k: int, max_degree: int) -> list[tuple[int, ...]]:
    out = [
        e
        for e in itertools.product(range(max_degree + 1), repeat=k)
        if sum(e) <= max_degree
    ]
    out.sort(key=lambda e: (sum(e), e))
    return out


def _monomial(x: Vec, expo: tuple[int, ...]) -> Fraction:
    return math.prod((xi**e for xi, e in zip(x, expo)), start=Fraction(1))


def _monomial_row(x: Vec, monomials: list[tuple[int, ...]]) -> Vec:
    return tuple(_monomial(x, expo) for expo in monomials)


def _stratum_point_stream(stratum, seed: int):
    """Deterministic stream of rational interior points of the stratum."""
    rng = random.Random(seed)
    cells = list(stratum.cells)
    i = 0
    while True:
        cell = cells[i % len(cells)]
        yield cell.interior_points(1, rng)[0]
        i += 1


def density_polynomial(
    a: ToricAction, s: Stratification, stratum_id: int, seed: int = 0
) -> DensityPoly:
    """The unique polynomial of degree <= n-k matching fiber volumes on the
    stratum, interpolated on affinely generic points and verified on held-out
    interior points (exact equality required).

    For k = 0 the stratum is the one point of R^0, so there is no held-out
    point: the density is the constant fiber volume there."""
    stratum = s.strata[stratum_id]
    if stratum.dim != a.k:
        raise NotTopDimensional(
            f"stratum {stratum_id} has dimension {stratum.dim}, expected {a.k}"
        )
    monomials = _monomials(a.k, a.n - a.k)
    m = len(monomials)
    stream = _stratum_point_stream(stratum, seed + 7919 * stratum_id)
    rows: list[Vec] = []
    rhs: list[Fraction] = []
    used: set[Vec] = set()
    # grow an invertible interpolation system, rejecting rank-neutral points
    while len(rows) < m:
        x = next(stream)
        if x in used:
            continue
        candidate = rows + [_monomial_row(x, monomials)]
        if rank(mat(candidate)) == len(candidate):
            rows.append(candidate[-1])
            rhs.append(fiber_volume(a, x).volume)
            used.add(x)
    coeffs = solve(mat(rows), vec(rhs))
    if coeffs is None:
        raise InterpolationInconsistent(
            f"stratum {stratum_id}: the interpolation system has no solution"
        )
    poly = DensityPoly(
        stratum_id,
        tuple((e, c) for e, c in zip(monomials, coeffs) if c != 0),
        max((sum(e) for e, c in zip(monomials, coeffs) if c != 0), default=0),
    )
    holdout = max(a.k + 1, 3) if a.k else 0
    checked = 0
    while checked < holdout:
        x = next(stream)
        if x in used:
            continue
        used.add(x)
        if poly.evaluate(x) != fiber_volume(a, x).volume:
            raise InterpolationInconsistent(
                f"held-out point {x} disagrees with the interpolated density"
            )
        checked += 1
    return poly


# ---------------------------------------------------------------------------
# Monte-Carlo oracle (floating point, test harness only)


class MCVolume(NamedTuple):
    point: Vec
    estimate: float
    std_error: float
    trials: int
    seed: int


def mc_fiber_volume(a: ToricAction, x, trials: int, seed: int) -> MCVolume:
    """Rejection-sampling estimate of the lattice-normalized fiber volume.

    Samples uniformly in the bounding box of the fiber in kernel-lattice
    coordinates; reproducible for a fixed seed.
    """
    import numpy as np  # only the oracle needs it; kept out of ``import momstrat``

    point = _fiber_point(a, x)
    rows, _, _ = _fiber_rows(a, point)
    d = a.n - a.k
    verts = enumerate_vertices(rows, d)
    if not verts:
        raise EmptyFiber(f"fiber over {x} is empty")
    if d == 0:
        return MCVolume(point, 1.0, 0.0, trials, seed)
    hull = AffineSubspace.from_points(verts)
    if hull.dim < d:
        raise DegenerateFiber(f"fiber over {x} has dimension {hull.dim} < {d}")
    lo = np.array([float(min(v[i] for v in verts)) for i in range(d)])
    hi = np.array([float(max(v[i] for v in verts)) for i in range(d)])
    amat = np.array([[float(c) for c in row] for row, _ in rows])
    bvec = np.array([float(b) for _, b in rows])
    box_volume = float(np.prod(hi - lo))
    rng = np.random.default_rng(seed)
    samples = lo + rng.random((trials, d)) * (hi - lo)
    inside = np.all(samples @ amat.T <= bvec + 0.0, axis=1)
    p_hat = float(np.count_nonzero(inside)) / trials
    estimate = p_hat * box_volume
    std_error = box_volume * float(np.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / trials))
    return MCVolume(point, estimate, std_error, trials, seed)

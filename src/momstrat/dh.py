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
as integer rows over one denominator, built once per action, and the
vertices over x are the chart values, in integers, of the faces whose
projected relative interior contains x: one vertex per face, with no
duplicates, and a polytope row tight at a vertex exactly when it is active on
that vertex's face.

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

On a chamber, a top-dimensional stratum, the charts over x stay the same, so
do their tight sets and the fan, and every fiber vertex is affine in x.  The
density is therefore sum_s sign(s) det(v_i(x) - v_0(x) : i in s) / d! over
the fan's simplices s: a polynomial of total degree at most n-k read off one
triangulation, the chamber-complex view of Brion and Vergne (1997).  The
determinants are taken division free over Z[x], on one common denominator,
each sign is read at the point the fan was built over, and the polynomial is
re-verified by exact equality against the per-point fiber volume on held-out
points.

The Monte-Carlo estimator at the bottom is the only floating-point code in
the package outside SVG coordinate formatting; it exists purely as an
independent cross-check of the exact path, so it finds the fiber vertices on
its own, by the exhaustive tight-basis scan over the fiber's rows.
"""

from __future__ import annotations

import itertools
import math
import operator
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
    _eliminate,
    dot,
    solve,
    vec,
)
from .polyhedron import Functional, IntPoints, _facets, _int_points, enumerate_vertices
from .stratifier import Stratification, _stratum_point_stream
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
        """The value at x = n / q, summed in integers over m q^D: each term
        c x^e is c m * n^e * q^(D - |e|), with m the lcm of the coefficients'
        denominators and D the terms' largest total degree."""
        point = vec(x)
        if any(len(e) != len(point) for e, _ in self.coefficients):
            raise DimensionMismatch(
                f"stratum {self.stratum_id}: a point with {len(point)} coordinates does not fit the density's exponents"
            )
        (n,), q = _int_points((point,))
        m = math.lcm(*(c.denominator for _, c in self.coefficients))
        top = max((sum(e) for e, _ in self.coefficients), default=0)
        total = sum(
            c.numerator * (m // c.denominator) * math.prod(map(pow, n, e)) * q ** (top - sum(e))
            for e, c in self.coefficients
        )
        return Fraction(total, m * q**top)


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


def polytope_volume(tight: Sequence[int], verts: IntPoints, d: int) -> Fraction:
    """Exact Euclidean d-volume of conv(verts) inside R^d, the vertices over
    one denominator den (``polyhedron._int_points``).

    ``tight`` holds, for each of a set of valid inequalities of conv(verts)
    among which every facet appears (redundant and repeated ones are
    harmless), the vertices at which it is tight as a bit set -- e.g.
    ``tight_sets(rows, verts)`` for the H-rows the vertices came from.  The
    absolute last pivots of the simplices' integer edge rows
    (``linalg._eliminate``) are summed and divided by den^d * d!.
    """
    if d == 0:
        return Fraction(1)
    nums, den = verts
    simplices = _incidence_fan(list(set(tight)), (1 << len(nums)) - 1, {})
    if len(simplices[0]) <= d:
        return ZERO  # the fan of an e-polytope is made of (e+1)-vertex simplices
    total = 0
    for simplex in simplices:
        v0 = nums[simplex[0]]
        _, pivots, last = _eliminate([list(map(operator.sub, nums[i], v0)) for i in simplex[1:]])
        if len(pivots) == d:
            total += abs(last)
    return Fraction(total, den**d * math.factorial(d))


def _fiber_at(a: ToricAction, point: Vec) -> tuple[list, list[int]]:
    """The charts of the fiber vertices over the point and, per polytope row,
    the vertices it is tight at as a bit set: a row is tight at a vertex
    exactly when it is active on that vertex's face."""
    hits = a.fiber_charts.over(point)
    if not hits:
        raise EmptyFiber(f"fiber over {point} is empty")
    tight = [0] * len(a.polytope.A)
    for j, chart in enumerate(hits):
        for i in chart.active_set:
            tight[i] |= 1 << j
    return hits, tight


def fiber_volume(a: ToricAction, x) -> FiberVolume:
    """Lattice-normalized exact volume of the momentum fiber over x.

    The vertices come from the action's fiber charts, one per face whose
    projected relative interior contains x (``_fiber_at``), evaluated at
    x = n / q in integers over lcm(den) * q.
    """
    point = _fiber_point(a, x)
    hits, tight = _fiber_at(a, point)
    (n,), q = _int_points((point,))
    m = math.lcm(*(chart.den for chart in hits))
    verts = [[(r[0] * q + sum(map(operator.mul, r[1:], n))) * (m // c.den) for r in c.rows] for c in hits]
    return FiberVolume(point, polytope_volume(tight, (verts, m * q), a.n - a.k))


# ---------------------------------------------------------------------------
# density polynomials from the chamber's fan
#
# A polynomial over Q[x_1..x_k] of total degree <= d is held as a dict from
# packed monomials to integer coefficients over a denominator kept aside: the
# monomial x^e is the integer sum of e_i * (d + 1)^i, so multiplying by x_i
# adds (d + 1)^i and no exponent overflows into the next variable.


def _add_product(acc: dict, sign: int, affine: tuple[int, ...], poly: dict, steps: tuple[int, ...]) -> None:
    """acc += sign * affine * poly, with ``affine`` the integer coefficients
    of 1, x_1, ..., x_k and ``steps`` their packed monomials."""
    for key, c in poly.items():
        c *= sign
        for step, f in zip(steps, affine):
            if f:
                acc[key + step] = acc.get(key + step, 0) + f * c


def _fan_determinants(rows: list, simplices: list[tuple[int, ...]], d: int, steps: tuple[int, ...]) -> list[dict]:
    """det(rows[s_1], ..., rows[s_d]) over Z[x] for each simplex (0, s_1, ...,
    s_d), division free: the minors of the first r rows, one per column set
    (a bit set), come by cofactor expansion along row r from those of the
    first r - 1, and are shared by the simplices with the same first r rows,
    as the fan's recursion makes many."""
    layers: dict[tuple[int, ...], dict[int, dict]] = {(): {0: {0: 1}}}
    full = (1 << d) - 1
    # the column sets of the r-row minors; only the full one for r = d
    column_sets = [[sum(1 << j for j in c) for c in itertools.combinations(range(d), r)] for r in range(d)]
    column_sets.append([full])
    out = []
    for simplex in simplices:
        for r in range(1, d + 1):
            prefix = simplex[1 : r + 1]
            if prefix in layers:
                continue
            prev, row = layers[prefix[:-1]], rows[prefix[-1]]
            layer = {}
            for cols in column_sets[r]:
                acc: dict = {}
                for j in range(d):
                    if cols >> j & 1:
                        # the cofactor sign of entry (r - 1, j) of the minor on ``cols``
                        parity = r - 1 + (cols & ((1 << j) - 1)).bit_count()
                        _add_product(acc, -1 if parity & 1 else 1, row[j], prev[cols & ~(1 << j)], steps)
                layer[cols] = acc
            layers[prefix] = layer
        out.append(layers[simplex[1:]][full])
    return out


def _fan_density(a: ToricAction, stratum_id: int, x0: Vec) -> tuple[dict, int]:
    """The fiber volume as a polynomial in x on the chamber through x0, as
    (packed integer coefficients, denominator).

    The charts over x0 and their fan stay fixed on the chamber, and every
    fan simplex starts at vertex 0, so the volume is the sum over the fan of
    sign(s) * det(v_i(x) - v_0(x) : i in s, i != 0) / d!, the rows affine in
    x and each sign read at x0.
    """
    d, k = a.n - a.k, a.k
    hits, tight = _fiber_at(a, x0)
    if d == 0:
        return {0: 1}, 1  # the fiber is a point, of volume 1 as in polytope_volume
    simplices = _incidence_fan(list(set(tight)), (1 << len(hits)) - 1, {})
    if len(simplices[0]) <= d:
        return {}, 1  # the fiber is flat; polytope_volume reads zero too
    # coordinate c of vertex j is (w[0] + w[1:].x) / den for w = num[j * d + c]
    den = math.lcm(*(h.den for h in hits))
    num = [tuple(c * (den // h.den) for c in r) for h in hits for r in h.rows]
    rows = [[tuple(map(operator.sub, w, w0)) for w, w0 in zip(num[j : j + d], num)] for j in range(0, len(num), d)]
    steps = (0, *((d + 1) ** i for i in range(k)))
    (n0,), q = _int_points((x0,))
    values: dict[int, int] = {}  # q^d * (the packed monomial at x0)
    total: dict[int, int] = {}
    for simplex, poly in zip(simplices, _fan_determinants(rows, simplices, d, steps)):
        for key in poly.keys() - values.keys():
            e = _unpack(key, d, k)
            values[key] = math.prod(map(pow, n0, e)) * q ** (d - sum(e))
        sign = sum(c * values[key] for key, c in poly.items())
        if sign == 0:
            raise InterpolationInconsistent(
                f"stratum {stratum_id}: the fan simplex {simplex} of the fiber over {x0} is flat"
            )
        for key, c in poly.items():
            total[key] = total.get(key, 0) + (c if sign > 0 else -c)
    return total, den**d * math.factorial(d)


def _unpack(key: int, d: int, k: int) -> tuple[int, ...]:
    return tuple(key // (d + 1) ** i % (d + 1) for i in range(k))


def density_polynomial(
    a: ToricAction, s: Stratification, stratum_id: int, seed: int = 0
) -> DensityPoly:
    """The fiber volume on a chamber as a polynomial of degree <= n-k, read
    off the fan of the fiber over the chamber's first stream point
    (``_fan_density``) and verified, by exact equality, against the
    independent ``fiber_volume`` at max(k + 1, 3) further interior points.

    For k = 0 the stratum is the one point of R^0, so there is no held-out
    point: the density is the constant fiber volume there."""
    stratum = s.strata[stratum_id]
    if stratum.dim != a.k:
        raise NotTopDimensional(
            f"stratum {stratum_id} has dimension {stratum.dim}, expected {a.k}"
        )
    stream = _stratum_point_stream(stratum, seed + 7919 * stratum_id)
    x0 = next(stream)
    total, den = _fan_density(a, stratum_id, x0)
    d = a.n - a.k
    terms = sorted(
        ((_unpack(key, d, a.k), Fraction(c, den)) for key, c in total.items() if c),
        key=lambda t: (sum(t[0]), t[0]),
    )
    poly = DensityPoly(stratum_id, tuple(terms), max((sum(e) for e, _ in terms), default=0))
    holdout = max(a.k + 1, 3) if a.k else 0
    used = {x0}
    while len(used) <= holdout:
        x = next(stream)
        if x in used:
            continue
        used.add(x)
        if poly.evaluate(x) != fiber_volume(a, x).volume:
            raise InterpolationInconsistent(
                f"stratum {stratum_id}: held-out point {x} disagrees with the fan density"
            )
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

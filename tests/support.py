"""Shared fixtures: canonical worked examples, the randomized toric corpus and random non-toric covers."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache, reduce
from operator import and_, mul

from hypothesis import assume, strategies

from momstrat import HPolytope, PiecewiseAffineCover, ToricAction, mat, vec
from momstrat.io import SCHEMA_STRATIFICATION, _mat2j, _vec2j
from momstrat.linalg import (
    AffineSubspace,
    Mat,
    Vec,
    _integer_rows,
    dot,
    is_zero_vec,
    mat_vec,
    primitive_functional,
    rank,
    row_space_basis,
    transpose,
)
from momstrat.polyhedron import (
    RelOpenCell,
    _bbox,
    _bbox_disjoint,
    _excesses,
    _facets,
    _int_points,
    _kernel_lines,
    _lift_functional,
    _SignTable,
    _split_by,
    _zeros,
    cell_from_closure_points,
    cell_key,
    project_relint,
    uncovered_point,
)
from momstrat.stratifier import FrontierReport, FrontierViolation, Stratification, Stratum


def mat_mul(a: Mat, b: Mat) -> Mat:
    """Exact matrix product."""
    bt = transpose(b)
    return tuple(tuple(dot(ra, cb) for cb in bt) for ra in a)


def in_row_space(v: Vec, basis: Mat) -> bool:
    """Exact membership of v in the span of the basis rows."""
    if is_zero_vec(v):
        return True
    if not basis:
        return False
    return rank(basis + (v,)) == rank(basis)


def ambient_rows(cell: RelOpenCell):
    """A ``Fraction`` reference for a cell's ambient rows, apart from its
    integer caches: the carrier's equations, and the local facet rows lifted
    by ``_lift_functional``, each scaled by a positive rational to a
    primitive integral normal (``primitive_functional``)."""
    equations = tuple(primitive_functional(*e) for e in cell.carrier.equations())
    facets = tuple(primitive_functional(*_lift_functional(cell.carrier, a, b)) for a, b in cell.local_rows())
    return equations, facets


def int_form(rows) -> tuple:
    """Rows with integral normals as integer rows (a, beta numerator, beta denominator)."""
    return tuple((tuple(int(c) for c in a), b.numerator, b.denominator) for a, b in rows)


def hpolytope_from_points(points) -> HPolytope:
    """Ambient H-description of conv(points): the carrier equations as
    paired rows, then the facet rows of the canonical cell."""
    equations, facets = ambient_rows(cell_from_closure_points(points))
    rows = [r for a, b in equations for r in ((a, b), (tuple(-c for c in a), -b))]
    rows += facets
    return HPolytope(mat(r[0] for r in rows), vec(r[1] for r in rows))


def prism_polytope() -> HPolytope:
    """[0,1] x 3*simplex2 in coordinates (u, v1, v2)."""
    return HPolytope.from_rows(
        [[-1, 0, 0], [1, 0, 0], [0, -1, 0], [0, 0, -1], [0, 1, 1]],
        [0, 1, 0, 0, 3],
    )


def paper_action() -> ToricAction:
    return ToricAction.make(prism_polytope(), mat([[1, 0], [1, 0], [0, 1]]), "paper")


def unit_square() -> HPolytope:
    return HPolytope.from_rows([[-1, 0], [1, 0], [0, -1], [0, 1]], [0, 1, 0, 1])


def square_identity_action() -> ToricAction:
    return ToricAction.make(unit_square(), mat([[1, 0], [0, 1]]), "square")


def simplex2_scaled(c: int = 2) -> HPolytope:
    return HPolytope.from_rows([[-1, 0], [0, -1], [1, 1]], [0, 0, c])


def simplex_sum_action() -> ToricAction:
    return ToricAction.make(simplex2_scaled(2), mat([[1], [1]]), "simplex_sum")


def segment_cell(p, q) -> RelOpenCell:
    return cell_from_closure_points([vec(p), vec(q)])


def point_cell(p) -> RelOpenCell:
    return cell_from_closure_points([vec(p)])


def box_cell(corners) -> RelOpenCell:
    return cell_from_closure_points([vec(c) for c in corners])


# ---------------------------------------------------------------------------
# randomized toric corpus


def _simplex_block(dim: int, scale: int, shift: list[int]) -> tuple[list[list[int]], list[int]]:
    """Scaled standard simplex translated by the integer shift vector."""
    rows = []
    offs = []
    for i in range(dim):
        row = [0] * dim
        row[i] = -1
        rows.append(row)
        offs.append(-shift[i])
    rows.append([1] * dim)
    offs.append(scale + sum(shift))
    return rows, offs


def product_polytope(factor_dims: list[int], scales: list[int], shifts: list[list[int]]) -> HPolytope:
    n = sum(factor_dims)
    rows: list[list[int]] = []
    offs: list = []
    at = 0
    for d, c, sh in zip(factor_dims, scales, shifts):
        block_rows, block_offs = _simplex_block(d, c, sh)
        for row, off in zip(block_rows, block_offs):
            full = [0] * n
            full[at : at + d] = row
            rows.append(full)
            offs.append(off)
        at += d
    return HPolytope.from_rows(rows, offs)


def _face_count(factor_dims: list[int]) -> int:
    total = 1
    for d in factor_dims:
        total *= 2 ** (d + 1) - 1
    return total


def random_toric_instance(seed: int, n_max: int = 6, k_max: int = 3) -> ToricAction:
    """A random effective subtorus action on a product of scaled simplices.

    Instance sizes are kept at desk scale: the projected cover must stay
    below a per-rank member budget (exact arrangements grow quickly with
    the number of distinct hyperplanes, especially for k = 3).
    """
    from momstrat.toric import momentum_cover

    rng = random.Random(seed)
    while True:
        n = rng.choices(range(2, n_max + 1), weights=[1, 2, 2, 2, 2][: n_max - 1])[0]
        dims = None
        for _ in range(8):
            trial: list[int] = []
            rem = n
            while rem > 0:
                d = rng.randint(1, rem)
                trial.append(d)
                rem -= d
            if _face_count(trial) <= 130:
                dims = trial
                break
        if dims is None:
            continue
        k = rng.randint(1, min(k_max, n))
        scales = [rng.randint(1, 3) for _ in dims]
        shifts = [[rng.randint(-1, 1) for _ in range(d)] for d in dims]
        polytope = product_polytope(dims, scales, shifts)
        action = None
        for _ in range(40):
            b = mat([[rng.randint(-2, 2) for _ in range(k)] for _ in range(n)])
            if rank(b) != k:
                continue
            candidate = ToricAction(polytope, b, f"corpus_{seed}")
            if candidate.is_effective():
                action = candidate
                break
        if action is None:
            continue
        budget = 55 if k == 3 else 70
        if len(momentum_cover(action).members) > budget:
            continue
        return action


@strategies.composite
def product_actions(draw) -> ToricAction:
    """A subtorus of rank k <= 2 acting on a product of scaled, shifted
    simplices of total dimension n <= 4.

    n is drawn first, and shrinks towards 3; the simplex dimensions are a
    composition of n.  Drawn as a list of dimensions that shrinks towards
    one segment, half of the first 20 examples of a test were the k = 1
    action on a segment, whose image has 3 pieces."""
    n = draw(strategies.sampled_from((3, 4, 2, 1)))
    dims: list[int] = []
    while sum(dims) < n:
        dims.append(draw(strategies.integers(1, min(3, n - sum(dims)))))
    k = draw(strategies.integers(1, min(2, n)))
    scales = [draw(strategies.integers(1, 3)) for _ in dims]
    shifts = [[draw(strategies.integers(-1, 1)) for _ in range(d)] for d in dims]
    b = mat([[draw(strategies.integers(-2, 2)) for _ in range(k)] for _ in range(n)])
    assume(rank(b) == k)
    action = ToricAction(product_polytope(dims, scales, shifts), b, "product")
    assume(action.is_effective())
    return action


def large_product_action() -> ToricAction:
    """A fixed n = 4, k = 2 draw of ``product_actions()`` whose image has 105
    pieces: the tests over that strategy take it as an explicit example, so
    they see a large cover whatever the random draws are."""
    b = mat([[-2, 0], [1, -2], [0, 1], [1, -1]])
    return ToricAction(product_polytope([1, 1, 2], [1, 1, 1], [[0], [0], [0, 0]]), b, "product")


@lru_cache(maxsize=None)
def corpus(count: int = 50, start_seed: int = 1000) -> tuple[ToricAction, ...]:
    return tuple(random_toric_instance(start_seed + i) for i in range(count))


def random_cover(seed: int) -> PiecewiseAffineCover:
    """A cover in R^1, R^2 or R^3 that is no momentum image: two to four
    members, each the relative interior of the hull of one to n + 2 random
    points with coordinates in halves between -2 and 2, so that the members
    overlap and often share faces or lie in one another's boundary."""
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    members = []
    for _ in range(rng.randint(2, 4)):
        points = [[Fraction(rng.randint(-4, 4), 2) for _ in range(n)] for _ in range(rng.randint(1, n + 2))]
        members.append(cell_from_closure_points(points))
    return PiecewiseAffineCover.make(members)


@lru_cache(maxsize=None)
def stratification_for(action: ToricAction):
    from momstrat.toric import hamiltonian_stratification

    return hamiltonian_stratification(action)


# ---------------------------------------------------------------------------
# unimodular transforms of stratifications


def random_unimodular(rng: random.Random, k: int) -> Mat:
    """Product of elementary integer shears and swaps: always in GL(k, Z)."""
    u = [[Fraction(1 if i == j else 0) for j in range(k)] for i in range(k)]
    for _ in range(6):
        i, j = rng.randrange(k), rng.randrange(k)
        if i == j:
            continue
        c = rng.choice([-2, -1, 1, 2])
        for col in range(k):
            u[i][col] += c * u[j][col]
    if rng.random() < 0.5 and k > 1:
        u[0], u[1] = u[1], u[0]
    return mat(u)


def transform_cell(cell: RelOpenCell, u: Mat) -> RelOpenCell:
    return cell_from_closure_points([mat_vec(u, v) for v in cell.closure_vertices])


def transform_stratification(s: Stratification, u: Mat) -> Stratification:
    """Push the stratification through x -> u.x and re-canonicalize.

    Mirrors the canonical ordering rules of the stratifier so the result can
    be compared bit-for-bit with stratifying the transformed input.
    """
    ut = transpose(u)
    raw = []
    for st in s.strata:
        cells = sorted((transform_cell(c, u) for c in st.cells), key=cell_key)
        direction = row_space_basis(mat([mat_vec(u, d) for d in st.direction]))
        carrier = AffineSubspace.from_point_and_directions(
            mat_vec(u, st.carrier.base), direction
        )
        r = carrier.dim
        tops = [i for i, c in enumerate(cells) if c.dim == r]
        edges = []
        for li, low in enumerate(cells):
            if low.dim == r:
                continue
            for ti in tops:
                if all(cells[ti].closure_contains(v) for v in low.closure_vertices):
                    edges.append((li, ti))
        integer_direction = None
        if st.integer_direction is not None:
            from momstrat.linalg import integer_row_basis

            integer_direction = integer_row_basis(direction)
        raw.append((st.id, carrier, tuple(cells), tuple(sorted(edges)), integer_direction))
    order = sorted(
        range(len(raw)),
        key=lambda i: (
            raw[i][1].dim,
            raw[i][1].base,
            raw[i][1].directions,
            tuple(cell_key(c) for c in raw[i][2]),
        ),
    )
    old_to_new = {raw[i][0]: new for new, i in enumerate(order)}
    strata = tuple(
        Stratum(
            new,
            raw[i][1].directions,
            raw[i][1],
            raw[i][2],
            raw[i][1].dim,
            raw[i][3],
            raw[i][4],
        )
        for new, i in enumerate(order)
    )
    frontier = tuple(sorted((old_to_new[a], old_to_new[b]) for a, b in s.frontier))
    return Stratification(strata, frontier, s.ambient_dim)


def stratum_point_set(st: Stratum) -> set:
    return {tuple(v) for c in st.cells for v in c.closure_vertices}


def interior_rational_points(cell: RelOpenCell, count: int, seed: int) -> list[Vec]:
    rng = random.Random(seed)
    return cell.interior_points(count, rng)


def per_face_images(action: ToricAction) -> tuple:
    """``face_image_cells`` face by face: every nonempty face, in lattice
    order, with ``project_relint`` of it."""
    return tuple((f, project_relint(f, action.projection)) for f in action.polytope.lattice.nonempty_faces())


def chart_vertex(chart, x: Vec) -> Vec:
    """The fiber vertex of a ``FiberChart`` at x, in ``Fraction`` arithmetic."""
    return tuple(Fraction(r[0] + sum(map(mul, r[1:], x)), chart.den) for r in chart.rows)


def all_pairs_incidence(cover) -> tuple[tuple[int, int], ...]:
    """``PiecewiseAffineCover.incidence`` with every piece's sample point
    tested against every member, with no index."""
    inside, closure = [0] * len(cover.members), [0] * len(cover.members)
    for j, piece in enumerate(cover.pieces):
        s, bit = piece._int_sample, 1 << j
        for i, m in enumerate(cover.members):
            if m._holds(s, strict=False):
                closure[i] |= bit
                if m._holds(s, strict=True):
                    inside[i] |= bit
    return tuple(zip(inside, closure))


def all_pairs_located(cells, points) -> set[tuple[int, int, bool]]:
    """``polyhedron._located`` as a set of (cell index, point index, in the
    relative interior), with every integer point tested against every cell
    by ``_holds``, with no index."""
    return {
        (i, j, cell._holds(x, strict=True))
        for j, x in enumerate(points)
        for i, cell in enumerate(cells)
        if cell._holds(x, strict=False)
    }


# ---------------------------------------------------------------------------
# the hyperplane scan the polar double description replaced, kept as a reference


def scanned_hull_cell(points) -> RelOpenCell:
    """The canonical cell whose closure is conv(points), its facets found by
    scanning, in carrier coordinates, every hyperplane a.x = beta through d
    affinely independent points: the kernel line of their rows (p, -1).  A
    hyperplane with every point weakly on one side and tight on a maximal
    set of them is a facet; a point is a closure vertex when the facets
    through it meet in it alone.  C(V, d) eliminations for V points."""
    pts = sorted({vec(p) for p in points})
    carrier = AffineSubspace.from_points(pts)
    local = [carrier.to_local(p) for p in pts]
    frame, d, everything = _int_points(local), carrier.dim, (1 << len(pts)) - 1
    faces = {}  # tight points as a bit set -> (kernel line, holds as is)
    for z in _kernel_lines(_integer_rows([(*p, -1) for p in local])[0], d):
        vals = _excesses((z[:d], z[d], 1), frame)
        lo, hi = min(vals), max(vals)
        if not (lo == hi or (lo and hi)):
            faces.setdefault(_zeros(vals), (z, hi == 0))
    rows = {}  # canonical local row -> tight points
    for tight in _facets(everything, faces):
        z, holds = faces[tight]
        sign = 1 if holds else -1
        rows[primitive_functional(vec(sign * c for c in z[:d]), Fraction(sign * z[d]))] = tight
    order = sorted(rows)
    verts = [
        p for i, p in enumerate(pts) if reduce(and_, (t for t in rows.values() if t >> i & 1), everything) == 1 << i
    ]
    return RelOpenCell(
        carrier,
        tuple(a for a, _ in order),
        tuple(b for _, b in order),
        tuple((i,) for i in range(len(order))),
        tuple(verts),
    )


# ---------------------------------------------------------------------------
# the pairwise frontier check the sign table replaced, kept as a reference


def _within_closure(x: RelOpenCell, obj: RelOpenCell) -> bool:
    """x ⊆ Cl(obj): every closure vertex of x lies in Cl(obj), after the boxes."""
    (lo1, hi1, d1), (lo2, hi2, d2), verts = x.bbox, obj.bbox, x._int_vertices
    return (
        all(l2 * d1 <= l1 * d2 and h1 * d2 <= h2 * d1 for l1, h1, l2, h2 in zip(lo1, hi1, lo2, hi2))
        and not any(any(_excesses(r, verts)) for r in obj._int_equations)
        and all(max(_excesses(r, verts)) <= 0 for r in obj._int_facet_rows)
    )


def per_cell_signs(table: _SignTable, cell: RelOpenCell) -> tuple[int, int, int, int, int, int]:
    """The bit sets that ``_SignTable`` gives a cell, evaluated key by key on
    all of the cell's closure vertices at once: below, above, off, and the
    open cell's up, down and on."""
    nums, d = cell._int_vertices
    below = above = off = 0
    bit = 1
    for a, bn, bd in table._keys:
        t = bn * d
        vals = [sum(map(mul, a, n)) * bd - t for n in nums]
        lo, hi = min(vals), max(vals)
        if hi <= 0:
            below |= bit
            if hi < 0:
                off |= bit
        if lo >= 0:
            above |= bit
            if lo > 0:
                off |= bit
        bit <<= 1
    return below, above, off, above & ~below, below & ~above, above & below


def closures_separated(x: RelOpenCell, obj: RelOpenCell) -> bool:
    """Cheap sufficient test for x ∩ Cl(obj) = ∅ (x relatively open), from
    the rows of the two cells alone.

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


def pairwise_meets(x: RelOpenCell, obj: RelOpenCell, closed: bool) -> bool:
    """``meets`` with ``closures_separated`` in place of the sign table: box,
    sample point, the two cells' own rows, then the split."""
    if _bbox_disjoint(x.bbox, obj.bbox):
        return False
    if obj._holds(x._int_sample, strict=not closed):
        return True
    if closures_separated(x, obj):
        return False
    return any(obj._holds(piece._int_sample, strict=not closed) for piece in _split_by(x, [obj]))


def pairwise_verify_frontier(s: Stratification) -> FrontierReport:
    """``verify_frontier`` with every cell pair tested on its own
    (``pairwise_meets``) and stratum boxes from every closure vertex."""
    violations = []
    boxes = {st.id: _bbox(_int_points(v for c in st.cells for v in c.closure_vertices)) for st in s.strata}
    for up in s.strata:
        for lo in s.strata:
            if lo.id == up.id or _bbox_disjoint(boxes[lo.id], boxes[up.id]):
                continue
            if not any(pairwise_meets(sigma, t, closed=True) for sigma in lo.cells for t in up.cells):
                continue
            if lo.dim >= up.dim:
                violations.append(
                    FrontierViolation(lo.id, up.id, "closure meets a stratum of equal or larger dimension")
                )
                continue
            if all(any(_within_closure(sigma, t) for t in up.cells) for sigma in lo.cells):
                continue
            for sigma in lo.cells:
                witness = uncovered_point(sigma, up.cells)
                if witness is not None:
                    violations.append(
                        FrontierViolation(lo.id, up.id, "stratum not contained in the closure it meets", witness)
                    )
                    break
    return FrontierReport(tuple(violations))


def all_pairs_frontier(s: Stratification) -> tuple[tuple[int, int], ...]:
    """The frontier pairs by ``_within_closure`` on every cell pair of every
    stratum pair of rising dimension, with no box test."""
    return tuple(
        (lo.id, up.id)
        for lo in s.strata
        for up in s.strata
        if lo.dim < up.dim and all(any(_within_closure(sigma, t) for t in up.cells) for sigma in lo.cells)
    )


def all_pairs_holders(pieces) -> list[list[int]]:
    """For each piece, the other pieces whose closure holds it, by
    ``_within_closure`` on every pair."""
    return [[t for t, q in enumerate(pieces) if t != i and _within_closure(p, q)] for i, p in enumerate(pieces)]


def all_pairs_adjacency(st: Stratum) -> tuple[tuple[int, int], ...]:
    """The gluing edges of a stratum: every (lower cell, top cell) pair of
    its cells with the lower cell in the top cell's closure."""
    return tuple(
        (i, j)
        for i, low in enumerate(st.cells)
        if low.dim < st.dim
        for j, top in enumerate(st.cells)
        if top.dim == st.dim and _within_closure(low, top)
    )


# ---------------------------------------------------------------------------
# the document tree the one-pass writer replaced, kept as a reference


def _subspace2j(s: AffineSubspace) -> dict:
    return {
        "ambient_dim": s.ambient_dim,
        "base": _vec2j(s.base),
        "directions": _mat2j(s.directions),
    }


def _cell2j(c: RelOpenCell) -> dict:
    return {
        "carrier": _subspace2j(c.carrier),
        "inequalities": {"A": _mat2j(c.closed_A), "b": _vec2j(c.closed_b)},
        "excluded_faces": [list(f) for f in c.excluded_faces],
        "closure_vertices": _mat2j(c.closure_vertices),
    }


def _density2j(poly) -> dict:
    return {
        "stratum_id": poly.stratum_id,
        "degree": poly.degree,
        "coefficients": [{"exponents": list(e), "value": str(c)} for e, c in poly.coefficients],
    }


def document_to_json(doc) -> dict:
    """The JSON tree of a stratification document; ``serialize_document``
    must write ``json.dumps(tree, indent=2, sort_keys=True) + "\\n"``."""
    s = doc.stratification
    strata = []
    for st in s.strata:
        entry = {
            "id": st.id,
            "dim": st.dim,
            "direction": _mat2j(st.direction),
            "carrier": _subspace2j(st.carrier),
            "cells": [_cell2j(c) for c in st.cells],
            "adjacency": [list(e) for e in st.adjacency],
        }
        if st.integer_direction is not None:
            entry["integer_direction"] = [[int(x) for x in row] for row in st.integer_direction]
        poly = doc.density_for(st.id)
        if poly is not None:
            entry["density"] = _density2j(poly)
        strata.append(entry)
    return {
        "schema": SCHEMA_STRATIFICATION,
        "ambient_dim": s.ambient_dim,
        "strata": strata,
        "frontier": [list(p) for p in s.frontier],
        "provenance": dict(doc.provenance),
    }

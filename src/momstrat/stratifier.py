"""Construction of the canonical stratification induced by a valid cover.

The direction field assigns to each refined piece the intersection of the
direction spaces of all cover members through it.  Strata are the maximal
connected unions of pieces sharing one direction space and one affine
translate of it, glued across codimension-one pieces of the same group;
this merge-over-refinement construction produces the unique partition into
connected affine-open sets integrating the field.
"""

from __future__ import annotations

import random
from typing import NamedTuple, Sequence

from .errors import InvalidCover, NonIntegrable
from .cover import PiecewiseAffineCover, membership_signature
from .linalg import AffineSubspace, Mat, Vec, direction_intersect
from .polyhedron import (
    Box,
    RelOpenCell,
    _bbox_disjoint,
    _box_union,
    _box_within,
    _SignTable,
    _within_closure,
    cell_key,
    meets,
    uncovered_point,
)


class Stratum(NamedTuple):
    id: int
    direction: Mat
    carrier: AffineSubspace
    cells: tuple[RelOpenCell, ...]
    dim: int
    adjacency: tuple[tuple[int, int], ...]  # (lower cell idx, top cell idx) witnesses
    integer_direction: Mat | None = None

    def sample_point(self) -> Vec:
        return self.cells[0].sample_point()

    def contains(self, x: Vec) -> bool:
        point = self.cells[0]._int_point(x)  # converted once, shared by every cell
        return any(cell._holds(point, strict=True) for cell in self.cells)

    def closure_contains(self, x: Vec) -> bool:
        point = self.cells[0]._int_point(x)
        return any(cell._holds(point, strict=False) for cell in self.cells)


class Stratification(NamedTuple):
    strata: tuple[Stratum, ...]
    frontier: tuple[tuple[int, int], ...]  # (lower id, upper id)
    ambient_dim: int


def _point(x: Vec) -> str:
    return "(" + ", ".join(map(str, x)) + ")"


def compute_d_field(c: PiecewiseAffineCover) -> tuple[tuple[RelOpenCell, Mat], ...]:
    """Intersect member directions along the signatures in ``c.incidence``:
    (piece, direction space) pairs in the order of ``c.pieces``, by cell_key."""
    report = c.validation
    if not report.valid:
        bad = report.member_reports[report.offending_members()[0]]
        raise InvalidCover(
            f"cover fails the closure condition: the closure of member {bad.member_index} "
            f"holds {_point(bad.uncovered_witness)}, which no member inside it covers"
        )
    sigs: list[list[int]] = [[] for _ in c.pieces]
    for i, (inside, _) in enumerate(c.incidence):
        while inside:
            low = inside & -inside
            sigs[low.bit_length() - 1].append(i)
            inside ^= low
    carriers = [m.carrier for m in c.members]
    return tuple((piece, direction_intersect([carriers[i] for i in sig])) for piece, sig in zip(c.pieces, sigs))


def _translate_through(piece: RelOpenCell, direction: Mat) -> AffineSubspace:
    return AffineSubspace.from_point_and_directions(piece.carrier.base, direction)


def stratify(c: PiecewiseAffineCover) -> Stratification:
    """The unique stratification of the support induced by the cover."""
    groups: dict[AffineSubspace, list[RelOpenCell]] = {}  # pieces in d-field order, by cell_key
    for piece, direction in compute_d_field(c):
        translate = _translate_through(piece, direction)
        if not all(translate.contains(v) for v in piece.closure_vertices):
            raise NonIntegrable(
                f"refined piece at {_point(piece.sample_point())} "
                "leaves the translate of its direction space"
            )
        groups.setdefault(translate, []).append(piece)

    strata_raw = []
    for translate in sorted(groups, key=lambda t: (t.dim, t.base, t.directions)):
        cells = groups[translate]
        r = translate.dim
        tops = [i for i, cell in enumerate(cells) if cell.dim == r]
        lowers = [i for i, cell in enumerate(cells) if cell.dim < r]
        parent = list(range(len(cells)))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        def union(i, j):
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)

        attach_edges = []
        for li in lowers:
            low = cells[li]
            containing = [ti for ti in tops if _within_closure(low, cells[ti])]
            if not containing:
                raise NonIntegrable(
                    f"group piece of positive codimension at {_point(low.sample_point())} "
                    "not glued to any top piece"
                )
            for ti in containing:
                union(li, ti)
                attach_edges.append((li, ti))
        components: dict[int, list[int]] = {}
        for i in range(len(cells)):
            components.setdefault(find(i), []).append(i)
        for root in sorted(components):
            idxs = components[root]
            comp_cells = tuple(cells[i] for i in idxs)
            remap = {orig: new for new, orig in enumerate(idxs)}
            edges = tuple(
                sorted((remap[a], remap[b]) for a, b in attach_edges if a in remap and b in remap)
            )
            strata_raw.append((translate, comp_cells, edges))

    strata_raw.sort(key=lambda s: (s[0].dim, s[0].base, s[0].directions, tuple(cell_key(c0) for c0 in s[1])))
    strata = tuple(
        Stratum(i, translate.directions, translate, cells, translate.dim, edges)
        for i, (translate, cells, edges) in enumerate(strata_raw)
    )
    frontier = _frontier_pairs(strata)
    return Stratification(strata, frontier, c.ambient_dim)


def _cell_inside_closure(sigma: RelOpenCell, stratum: Stratum) -> bool:
    """sigma ⊆ Cl(stratum); complete for cells of one common refinement."""
    return any(_within_closure(sigma, t) for t in stratum.cells)


def _with_boxes(strata: Sequence[Stratum]) -> list[tuple[Stratum, int, int, Box]]:
    """Each stratum with its id, its dimension and the bounding box of its
    closure, from its cells' boxes.  The loops over stratum pairs read these
    once per stratum: a NamedTuple field costs more to read than an instance
    attribute, and the loops are quadratic."""
    return [(st, st.id, st.dim, _box_union([c.bbox for c in st.cells])) for st in strata]


def _frontier_pairs(strata: Sequence[Stratum]) -> tuple[tuple[int, int], ...]:
    pairs = []
    keyed = _with_boxes(strata)
    for lo, lo_id, lo_dim, lo_box in keyed:
        for up, up_id, up_dim, up_box in keyed:
            if lo_dim >= up_dim or lo_id == up_id or not _box_within(lo_box, up_box):
                continue
            if all(_cell_inside_closure(sigma, up) for sigma in lo.cells):
                pairs.append((lo_id, up_id))
    return tuple(sorted(pairs))


# ---------------------------------------------------------------------------
# verification reports


class FrontierViolation(NamedTuple):
    lower_id: int
    upper_id: int
    reason: str
    witness: Vec | None = None


class FrontierReport(NamedTuple):
    violations: tuple[FrontierViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_frontier(s: Stratification) -> FrontierReport:
    """Exhaustive exact check of the frontier condition on all stratum pairs.
    Cell pairs are proved disjoint by one sign table over every cell and by
    their boxes before any exact test."""
    violations = []
    keyed = _with_boxes(s.strata)
    table = _SignTable(c for st in s.strata for c in st.cells)
    for up, up_id, up_dim, up_box in keyed:
        for lo, lo_id, lo_dim, lo_box in keyed:
            if lo_id == up_id:
                continue
            if _bbox_disjoint(lo_box, up_box):
                continue
            if not any(meets(sigma, t, True, table) for sigma in lo.cells for t in up.cells):
                continue
            if lo_dim >= up_dim:
                violations.append(
                    FrontierViolation(lo_id, up_id, "closure meets a stratum of equal or larger dimension")
                )
                continue
            # cells of one common refinement never straddle a closure, so a
            # per-cell containment scan settles almost every pair cheaply
            if all(_cell_inside_closure(sigma, up) for sigma in lo.cells):
                continue
            for sigma in lo.cells:
                witness = uncovered_point(sigma, up.cells)
                if witness is not None:
                    violations.append(
                        FrontierViolation(lo_id, up_id, "stratum not contained in the closure it meets", witness)
                    )
                    break
    return FrontierReport(tuple(violations))


class TangentMismatch(NamedTuple):
    stratum_id: int
    point: Vec
    expected: Mat
    found: Mat


class TangentReport(NamedTuple):
    checked: int
    mismatches: tuple[TangentMismatch, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def verify_tangent_condition(
    s: Stratification, c: PiecewiseAffineCover, samples_per_stratum: int = 5
) -> TangentReport:
    """At rational samples of each stratum, the stratum direction must equal
    the intersection of the directions of all members through the sample."""
    checked = 0
    mismatches = []
    for stratum in s.strata:
        rng = random.Random(0xC0FFEE + stratum.id)
        points = [stratum.sample_point()]
        cell_cycle = list(stratum.cells)
        i = 0
        while len(points) < samples_per_stratum:
            cell = cell_cycle[i % len(cell_cycle)]
            points.extend(cell.interior_points(1, rng))
            i += 1
        for x in points[:samples_per_stratum]:
            sig = membership_signature(c, x)
            found = direction_intersect([c.members[j].carrier for j in sig])
            checked += 1
            if found != stratum.direction:
                mismatches.append(TangentMismatch(stratum.id, x, stratum.direction, found))
    return TangentReport(checked, tuple(mismatches))

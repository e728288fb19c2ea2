"""Construction of the canonical stratification induced by a valid cover.

The direction field assigns to each refined piece the intersection of the
direction spaces of all cover members through it.  Strata are the maximal
connected unions of pieces sharing one direction space and one affine
translate of it: a lower piece of a translate is glued to the top pieces
whose closures hold it.  This merge-over-refinement construction produces
the unique partition into connected affine-open sets integrating the field.
Which closures hold each piece is read off the pieces' face lattices
(``_holders``), and gives the frontier too: a lower stratum lies in the
closure of a larger one when each of its cells does.  ``verify_frontier``
checks the frontier condition geometrically, on its own, on a sign table
over every cell: one test of two strata's ANDed bit sets rejects most pairs,
containment on the table settles the frontier pairs, and only the rest are
tested cell pair by cell pair.
"""

from __future__ import annotations

import random
from itertools import cycle, islice
from typing import Iterator, NamedTuple, Sequence

from .errors import InvalidCover, NonIntegrable
from .cover import PiecewiseAffineCover, membership_signature
from .linalg import AffineSubspace, Mat, Vec, direction_intersect
from .polyhedron import (
    RelOpenCell,
    _box_pairs,
    _box_union,
    _face_sets,
    _SignTable,
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


def _holders(pieces: Sequence[RelOpenCell]) -> list[list[int]]:
    """For each piece, the indices of the other pieces whose closure holds it.

    A relatively open piece inside Cl(t) lies in the relative interior of one
    face of Cl(t), and the pieces partition the support, so when every face
    of Cl(t) is a piece those faces are all the pieces inside Cl(t): they are
    looked up by their closure vertex ids, interned once per call.  A closure
    with a face that is no piece (the support is not closed) tests every piece
    on a sign table over the pieces, built on first need: exact, since the
    closure's own rows are among its keys.
    """
    table = None
    ids: dict[Vec, int] = {}
    vids = [[ids.setdefault(v, len(ids)) for v in p.closure_vertices] for p in pieces]
    index = {tuple(sorted(own)): i for i, own in enumerate(vids)}
    holders: list[list[int]] = [[] for _ in pieces]
    for t, (piece, own) in enumerate(zip(pieces, vids)):
        inside = [index.get(tuple(sorted(own[i] for i in range(len(own)) if f >> i & 1))) for f in _face_sets(piece)]
        if None in inside:
            table = table or _SignTable(pieces)
            inside = [i for i, p in enumerate(pieces) if table.within(p, piece)]
        for i in inside:
            if i != t:
                holders[i].append(t)
    return holders


def stratify(c: PiecewiseAffineCover) -> Stratification:
    """The unique stratification of the support induced by the cover."""
    field = compute_d_field(c)
    pieces = [piece for piece, _ in field]
    groups: dict[AffineSubspace, list[int]] = {}  # piece indices in d-field order, by cell_key
    for i, (piece, direction) in enumerate(field):
        translate = _translate_through(piece, direction)
        if not all(translate.contains(v) for v in piece.closure_vertices):
            raise NonIntegrable(
                f"refined piece at {_point(piece.sample_point())} "
                "leaves the translate of its direction space"
            )
        groups.setdefault(translate, []).append(i)
    holders = _holders(pieces)
    parent = list(range(len(pieces)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    strata_raw = []
    for translate in sorted(groups, key=lambda t: (t.dim, t.base, t.directions)):
        members = groups[translate]
        tops = {g for g in members if pieces[g].dim == translate.dim}
        edges = []  # a lower piece is glued to the top pieces of its translate that hold it
        for g in [g for g in members if g not in tops]:
            containing = [h for h in holders[g] if h in tops]
            if not containing:
                raise NonIntegrable(
                    f"group piece of positive codimension at {_point(pieces[g].sample_point())} "
                    "not glued to any top piece"
                )
            for h in containing:
                ri, rh = find(g), find(h)
                parent[max(ri, rh)] = min(ri, rh)
                edges.append((g, h))
        components: dict[int, list[int]] = {}
        for g in members:
            components.setdefault(find(g), []).append(g)
        for idxs in components.values():
            remap = {g: i for i, g in enumerate(idxs)}
            strata_raw.append((translate, idxs, tuple(sorted((remap[a], remap[b]) for a, b in edges if a in remap))))

    strata_raw.sort(key=lambda s: (s[0].dim, s[0].base, s[0].directions, tuple(cell_key(pieces[g]) for g in s[1])))
    strata = tuple(
        Stratum(i, translate.directions, translate, tuple(pieces[g] for g in idxs), translate.dim, edges)
        for i, (translate, idxs, edges) in enumerate(strata_raw)
    )
    owner = {g: i for i, (_, idxs, _) in enumerate(strata_raw) for g in idxs}
    frontier = sorted(
        (st.id, up)
        for st, (_, idxs, _) in zip(strata, strata_raw)
        for up in set.intersection(*({owner[h] for h in holders[g]} for g in idxs))
        if strata[up].dim > st.dim
    )
    return Stratification(strata, tuple(frontier), c.ambient_dim)


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
    """Exhaustive exact check of the frontier condition on all stratum pairs,
    independent of ``stratify``.  Only the pairs whose stratum boxes meet can
    meet; one box sweep (``_box_pairs``) yields them, and they are taken by
    (upper, lower) position.  One sign table over every cell gives each
    stratum the AND of its cells' bit sets, and a key that separates two
    strata's sets separates each of their cell pairs, so one test rejects
    the pair.  A pair left whose lower cells each lie in an upper closure
    meets, read off the same table; only the others test their cell pairs
    (``meets``) and, when they meet, search a witness of the lower stratum
    outside the upper closures."""
    violations = []
    boxes = [_box_union([c.bbox for c in st.cells]) for st in s.strata]
    table = _SignTable(c for st in s.strata for c in st.cells)
    signs = [table.shared(st.cells) for st in s.strata]
    for u, l in sorted(_box_pairs(boxes, boxes)):
        if u == l or table.apart(signs[l], signs[u]):
            continue
        up, lo = s.strata[u], s.strata[l]
        # every cell is in the table's family, so ``within`` is exact, and a
        # lower stratum inside the upper closure meets it
        inside = all(any(table.within(sigma, t) for t in up.cells) for sigma in lo.cells)
        if not inside and not any(meets(sigma, t, table) for sigma in lo.cells for t in up.cells):
            continue
        if lo.dim >= up.dim:
            violations.append(FrontierViolation(lo.id, up.id, "closure meets a stratum of equal or larger dimension"))
            continue
        if inside:
            continue
        for sigma in lo.cells:
            witness = uncovered_point(sigma, up.cells)
            if witness is not None:
                violations.append(
                    FrontierViolation(lo.id, up.id, "stratum not contained in the closure it meets", witness)
                )
                break
    return FrontierReport(tuple(violations))


def _stratum_point_stream(stratum: Stratum, seed: int) -> Iterator[Vec]:
    """Deterministic stream of rational interior points of the stratum: one
    point of each cell in turn, drawn by ``interior_points`` from one rng."""
    rng = random.Random(seed)
    for cell in cycle(stratum.cells):
        yield cell.interior_points(1, rng)[0]


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
    for stratum in s.strata if samples_per_stratum > 0 else ():
        stream = _stratum_point_stream(stratum, 0xC0FFEE + stratum.id)
        for x in [stratum.sample_point(), *islice(stream, samples_per_stratum - 1)]:
            sig = membership_signature(c, x)
            found = direction_intersect([c.members[j].carrier for j in sig])
            checked += 1
            if found != stratum.direction:
                mismatches.append(TangentMismatch(stratum.id, x, stratum.direction, found))
    return TangentReport(checked, tuple(mismatches))

"""Piecewise-affine covers of compact polyhedral sets and their validation.

A cover is a finite ordered collection of relatively open cells whose union
is the supported set.  The two cover axioms checked here: every member is
open in its affine hull (true by construction of ``RelOpenCell``), and the
closure of each member inside the support is again a union of members.
Membership in each member and in its closure is constant on every piece, so
``incidence`` reads it once, at one sample point per piece, as bit sets that
validation and the direction field share; the sample points are located in
one batch by ``polyhedron._located``, which ``membership_signature`` calls
with one point.
"""

from __future__ import annotations

from functools import cached_property, reduce
from operator import or_
from typing import NamedTuple, Sequence

from .errors import DimensionMismatch, PointOutsideSupport
from .linalg import FrozenValue, Vec, vec
from .polyhedron import RelOpenCell, _interiors, _located, _refine_engine


class PiecewiseAffineCover(FrozenValue):
    members: tuple[RelOpenCell, ...]
    ambient_dim: int

    @staticmethod
    def make(members: Sequence[RelOpenCell]) -> "PiecewiseAffineCover":
        if not members:
            raise DimensionMismatch("a cover needs at least one member")
        n = members[0].ambient_dim
        if any(m.ambient_dim != n for m in members):
            raise DimensionMismatch("cover members live in different ambient spaces")
        return PiecewiseAffineCover(tuple(members), n)

    @cached_property
    def pieces(self) -> tuple[RelOpenCell, ...]:
        """``refined_cells`` of this cover, computed on first use."""
        return refined_cells(self)

    @cached_property
    def incidence(self) -> tuple[tuple[int, int], ...]:
        """Per member, the bit sets over ``pieces`` of the pieces inside it
        and of those inside its closure (bit j for ``pieces[j]``): the
        pieces' sample points located among the members in one batch
        (``polyhedron._located``)."""
        inside, closure = [0] * len(self.members), [0] * len(self.members)
        for i, j, worst in _located(self.members, [p._int_sample for p in self.pieces]):
            closure[i] |= 1 << j
            if worst < 0:
                inside[i] |= 1 << j
        return tuple(zip(inside, closure))

    @cached_property
    def validation(self) -> "ValidationReport":
        """``validate`` of this cover, computed on first use."""
        return validate(self)


class MemberReport(NamedTuple):
    member_index: int
    affine_open: bool
    closure_covered: bool
    covering_members: tuple[int, ...]
    uncovered_witness: Vec | None


class ValidationReport(NamedTuple):
    valid: bool
    member_reports: tuple[MemberReport, ...]

    def offending_members(self) -> list[int]:
        return [r.member_index for r in self.member_reports if not r.closure_covered]


def refined_cells(c: PiecewiseAffineCover) -> tuple[RelOpenCell, ...]:
    """The canonical partition of the support underlying every refinement use.

    Pieces are the sign classes of the refinement cut set intersected with
    the members, sorted by ``cell_key``; overlapping members produce
    identical pieces, deduplicated by their canonical encodings.
    """
    return tuple(_refine_engine(c.members))


def validate(c: PiecewiseAffineCover) -> ValidationReport:
    """Check the closure condition for every member; never raises.

    For member P the closure within the support X is Cl(P) ∩ X; it equals a
    union of members iff every piece inside Cl(P) lies in some member Q
    contained in Cl(P): as pieces refine the members, in some Q all of whose
    pieces are inside Cl(P).  The witness is the first piece left uncovered.
    """
    table = c.incidence
    reports = []
    for i, (_, closure) in enumerate(table):
        contained = tuple(j for j, (inside, _) in enumerate(table) if not inside & ~closure)
        uncovered = closure & ~reduce(or_, (table[j][0] for j in contained), 0)
        witness = c.pieces[(uncovered & -uncovered).bit_length() - 1].sample_point() if uncovered else None
        reports.append(MemberReport(i, True, not uncovered, contained, witness))
    return ValidationReport(all(r.closure_covered for r in reports), tuple(reports))


def membership_signature(c: PiecewiseAffineCover, x) -> tuple[int, ...]:
    """The exact index set {i : x in P_i}; raises when x misses the support."""
    sig = tuple(_interiors(c.members, [c.members[0]._int_point(vec(x))])[0])
    if not sig:
        raise PointOutsideSupport(f"{x} lies in no cover member")
    return sig

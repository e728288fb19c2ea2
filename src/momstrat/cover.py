"""Piecewise-affine covers of compact polyhedral sets and their validation.

A cover is a finite ordered collection of relatively open cells whose union
is the supported set.  The two cover axioms checked here: every member is
open in its affine hull (true by construction of ``RelOpenCell``), and the
closure of each member inside the support is again a union of members.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .errors import DimensionMismatch, PointOutsideSupport
from .linalg import Vec, vec
from .polyhedron import RelOpenCell, _refine_engine, _within_closure


@dataclass(frozen=True)
class PiecewiseAffineCover:
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
    def validation(self) -> "ValidationReport":
        """``validate`` of this cover, computed on first use."""
        return validate(self)


@dataclass(frozen=True)
class MemberReport:
    member_index: int
    affine_open: bool
    closure_covered: bool
    covering_members: tuple[int, ...]
    uncovered_witness: Vec | None


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    member_reports: tuple[MemberReport, ...]

    def offending_members(self) -> list[int]:
        return [r.member_index for r in self.member_reports if not r.closure_covered]


def refined_cells(c: PiecewiseAffineCover) -> tuple[RelOpenCell, ...]:
    """The canonical partition of the support underlying every refinement use.

    Pieces are the sign classes of the refinement cut set intersected with
    the members; overlapping members produce identical pieces, deduplicated
    by their canonical encodings.
    """
    return tuple(_refine_engine(c.members, c.members))


def validate(c: PiecewiseAffineCover) -> ValidationReport:
    """Check the closure condition for every member; never raises.

    For member P the closure within the support X is Cl(P) ∩ X; it equals a
    union of members iff every refined piece inside Cl(P) lies in some member
    that is itself contained in Cl(P).
    """
    pieces = c.pieces
    reports = []
    valid = True
    for i, p in enumerate(c.members):
        contained = tuple(j for j, q in enumerate(c.members) if _within_closure(q, p))
        witness = None
        for piece in pieces:
            s = piece._int_sample  # converted once per piece, shared by every member
            if not p._holds(s, strict=False):
                continue
            if not any(c.members[j]._holds(s, strict=True) for j in contained):
                witness = piece.sample_point()
                break
        covered = witness is None
        valid = valid and covered
        reports.append(MemberReport(i, True, covered, contained, witness))
    return ValidationReport(valid, tuple(reports))


def membership_signature(c: PiecewiseAffineCover, x) -> tuple[int, ...]:
    """The exact index set {i : x in P_i}; raises when x misses the support."""
    point = c.members[0]._int_point(vec(x))  # converted once, shared by every member
    sig = tuple(i for i, m in enumerate(c.members) if m._holds(point, strict=True))
    if not sig:
        raise PointOutsideSupport(f"{x} lies in no cover member")
    return sig


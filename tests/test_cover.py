import random
from collections import Counter
from fractions import Fraction

import pytest

from momstrat import PiecewiseAffineCover, membership_signature, validate, vec
from momstrat.cover import MemberReport, ValidationReport, refined_cells
from momstrat.errors import DimensionMismatch, PointOutsideSupport
from momstrat.polyhedron import _within_closure
from momstrat.toric import momentum_cover
from support import box_cell, corpus, paper_action, point_cell, segment_cell


def reference_validate(c):
    """The closure condition decided geometrically, member by member: the
    members whose closure lies in Cl(P), then a scan of every piece inside
    Cl(P) for one that none of them holds."""
    reports = []
    for i, p in enumerate(c.members):
        contained = tuple(j for j, q in enumerate(c.members) if _within_closure(q, p))
        witness = None
        for piece in c.pieces:
            x = piece.sample_point()
            if p.closure_contains(x) and not any(c.members[j].contains(x) for j in contained):
                witness = x
                break
        reports.append(MemberReport(i, True, witness is None, contained, witness))
    return ValidationReport(all(r.closure_covered for r in reports), tuple(reports))


def counterexample_cover():
    """The three-member cover that admits no stratification, on a compact box:
    two open horizontal segments approaching the origin plus the open box."""
    box = box_cell([[-1, -1], [-1, 1], [1, -1], [1, 1]])
    left = segment_cell([-1, 0], [0, 0])
    right = segment_cell([0, 0], [1, 0])
    return PiecewiseAffineCover.make([left, right, box])


def test_validate_rejects_counterexample():
    report = validate(counterexample_cover())
    assert not report.valid
    # both segment members have closures reaching the origin, which no
    # member contained in those closures covers
    assert report.offending_members() == [0, 1]
    for r in report.member_reports:
        if not r.closure_covered:
            assert r.uncovered_witness == vec([0, 0])


def nested_interval_cover():
    """An invalid cover with two offending members after a valid one: in
    (0, 4), the closure of (1, 3) holds the points 1 and 3 and that of (0, 1)
    the point 1, which only (0, 4) covers."""
    inner = [segment_cell([1], [3]), segment_cell([0], [1])]
    return PiecewiseAffineCover.make([point_cell([5]), segment_cell([0], [4]), *inner])


def test_validate_names_both_offending_members():
    report = validate(nested_interval_cover())
    assert report.offending_members() == [2, 3]
    # the first uncovered piece in the order of ``pieces``: 1 before 3
    assert [r.uncovered_witness for r in report.member_reports] == [None, None, vec([1]), vec([1])]
    assert [r.covering_members for r in report.member_reports] == [(0,), (1, 2, 3), (2,), (3,)]


def test_validate_matches_geometric_reference():
    covers = [counterexample_cover(), nested_interval_cover()] + [a.cover for a in corpus()]
    for cover in covers:
        assert validate(cover) == reference_validate(cover)


def test_incidence_rows_match_point_tests():
    rng = random.Random(5)
    for action in corpus()[:12]:
        cover = action.cover
        for j, piece in enumerate(cover.pieces):
            for x in piece.interior_points(3, rng):
                for m, (inside, closure) in zip(cover.members, cover.incidence):
                    assert m.contains(x) == bool(inside >> j & 1)
                    assert m.closure_contains(x) == bool(closure >> j & 1)


def test_validate_accepts_paper_cover():
    report = validate(momentum_cover(paper_action()))
    assert report.valid
    assert all(r.affine_open for r in report.member_reports)


def test_validate_single_point_member():
    cover = PiecewiseAffineCover.make([point_cell([2, 5])])
    report = validate(cover)
    assert report.valid


def _member_index(cover, closure_vertex_ints):
    for i, m in enumerate(cover.members):
        if {tuple(map(int, v)) for v in m.closure_vertices} == closure_vertex_ints:
            return i
    raise AssertionError(f"no member with closure vertices {closure_vertex_ints}")


def test_membership_signature_blue_dot():
    cov = momentum_cover(paper_action())
    sig = membership_signature(cov, [1, 2])
    full = _member_index(cov, {(0, 0), (4, 0), (1, 3), (0, 3)})
    x_eq_1 = _member_index(cov, {(1, 0), (1, 3)})
    diagonal = _member_index(cov, {(0, 3), (3, 0)})
    assert set(sig) == {full, x_eq_1, diagonal}


def test_membership_signature_origin_vertex():
    cov = momentum_cover(paper_action())
    sig = membership_signature(cov, [0, 0])
    assert sig == (_member_index(cov, {(0, 0)}),)


def test_membership_signature_generic_interior():
    cov = momentum_cover(paper_action())
    sig = membership_signature(cov, ["5/2", "1/4"])
    # generic interior point: only full-dimensional members contain it
    assert all(cov.members[i].dim == 2 for i in sig)
    full = _member_index(cov, {(0, 0), (4, 0), (1, 3), (0, 3)})
    assert full in sig


def test_membership_signature_outside_support():
    cov = momentum_cover(paper_action())
    with pytest.raises(PointOutsideSupport):
        membership_signature(cov, [10, 10])


def test_signatures_nonempty_on_support_samples():
    cov = momentum_cover(paper_action())
    for x in (piece.sample_point() for piece in cov.pieces):
        assert membership_signature(cov, x)


def test_pieces_single_cut():
    square = box_cell([[0, 0], [0, 2], [2, 0], [2, 2]])
    pieces = PiecewiseAffineCover.make([square, segment_cell([1, 0], [1, 2])]).pieces
    assert Counter(c.dim for c in pieces) == Counter({2: 2, 1: 1})
    mid = [c for c in pieces if c.dim == 1][0]
    assert mid.contains(vec([1, 1]))


def test_pieces_interval_with_point():
    pieces = PiecewiseAffineCover.make([segment_cell([0], [2]), point_cell([1])]).pieces
    assert Counter(c.dim for c in pieces) == Counter({0: 1, 1: 2})
    pt = [c for c in pieces if c.dim == 0][0]
    assert pt.closure_vertices == ((1,),)


def test_pieces_partition_properties():
    rng = random.Random(41)
    members = [
        box_cell([[0, 0], [0, 2], [2, 0], [2, 2]]),
        segment_cell([1, 0], [1, 2]),
        segment_cell([0, 1], [2, 1]),
        box_cell([["1/2", "1/2"], ["1/2", "3/2"], ["3/2", "1/2"], ["3/2", "3/2"]]),
        point_cell([1, 1]),
    ]
    pieces = PiecewiseAffineCover.make(members).pieces
    # pairwise disjoint: the sample of one piece is in no other
    for a in pieces:
        s = a.sample_point()
        assert sum(1 for b in pieces if b.contains(s)) == 1
    # random points of the open square lie in exactly one piece
    for _ in range(40):
        x = vec([Fraction(rng.randint(1, 79), 40), Fraction(rng.randint(1, 79), 40)])
        assert sum(1 for b in pieces if b.contains(x)) == 1
    # membership in every member and its closure is constant per piece
    for piece in pieces:
        pts = [piece.sample_point()] + piece.interior_points(3, random.Random(1))
        for m in members:
            assert len({m.contains(x) for x in pts}) == 1
            assert len({m.closure_contains(x) for x in pts}) == 1


def test_cover_of_mixed_dimensions_rejected():
    square = box_cell([[0, 0], [0, 2], [2, 0], [2, 2]])
    with pytest.raises(DimensionMismatch):
        PiecewiseAffineCover.make([square, point_cell([1])])


def test_refined_cells_partition_counts():
    cov = momentum_cover(paper_action())
    pieces = refined_cells(cov)
    assert Counter(c.dim for c in pieces) == Counter({0: 7, 1: 10, 2: 4})

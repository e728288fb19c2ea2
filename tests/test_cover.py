from collections import Counter

import pytest

from momstrat import PiecewiseAffineCover, membership_signature, validate, vec
from momstrat.cover import refined_cells
from momstrat.errors import PointOutsideSupport
from momstrat.toric import momentum_cover
from support import box_cell, paper_action, point_cell, segment_cell


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


def test_refined_cells_partition_counts():
    cov = momentum_cover(paper_action())
    pieces = refined_cells(cov)
    assert Counter(c.dim for c in pieces) == Counter({0: 7, 1: 10, 2: 4})

import hashlib
import json
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings

from momstrat import PiecewiseAffineCover, membership_signature, validate, vec
from momstrat.cover import MemberReport, ValidationReport, refined_cells
from momstrat.errors import DimensionMismatch, PointOutsideSupport
from momstrat.polyhedron import RelOpenCell, cell_key
from momstrat.toric import momentum_cover
from support import (
    _within_closure,
    all_pairs_incidence,
    box_cell,
    corpus,
    large_product_action,
    paper_action,
    point_cell,
    product_actions,
    random_cover,
    segment_cell,
)

# SHA-256 over (cell_key, closed_A, closed_b) of every piece of the 50 corpus
# covers, seeds 1000-1049 (1,720 pieces)
CORPUS_PIECES_SHA256 = "6b311b3f5e222afb0cc09938450d25834af33506800633e7ec2dc31269fff46d"
# the same over the 40 non-toric covers ``random_cover(seed)``, seeds 0-39
# (2,461 pieces)
RANDOM_COVER_PIECES_SHA256 = "c82dabb1b292ca011ac977a4801b92d21982cdae1e437c841f56eb055477fbc9"


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


def assert_partition(members, pieces, points, seed):
    """The pieces are pairwise disjoint, each given point of the support lies
    in exactly one, and membership in every member and in its closure is
    constant at the sample and interior points of each piece."""
    # pairwise disjoint: the sample of one piece is in no other
    for a in pieces:
        s = a.sample_point()
        assert sum(1 for b in pieces if b.contains(s)) == 1
    for x in points:
        assert sum(1 for b in pieces if b.contains(x)) == 1
    for piece in pieces:
        pts = [piece.sample_point()] + piece.interior_points(3, random.Random(seed))
        for m in members:
            assert len({m.contains(x) for x in pts}) == 1
            assert len({m.closure_contains(x) for x in pts}) == 1


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
    # random points of the open square
    points = [vec([Fraction(rng.randint(1, 79), 40), Fraction(rng.randint(1, 79), 40)]) for _ in range(40)]
    assert_partition(members, pieces, points, seed=1)


@settings(derandomize=True, deadline=None, max_examples=20)
@given(product_actions())
@example(large_product_action())
def test_pieces_partition_momentum_covers_of_products_of_simplices(action):
    cover = action.cover
    rng = random.Random(7)
    # interior points and closure vertices of the members
    points = [x for m in cover.members for x in m.interior_points(2, rng) + list(m.closure_vertices)]
    assert_partition(cover.members, cover.pieces, points, seed=7)
    assert cover.incidence == all_pairs_incidence(cover)


def test_product_actions_draw_varied_examples():
    seen = []

    @settings(derandomize=True, deadline=None, max_examples=20, database=None)
    @given(product_actions())
    def collect(action):
        seen.append(action)

    collect()
    assert len({(a.n, a.k, len(a.cover.pieces)) for a in seen[:20]}) >= 10
    assert max(Counter(seen[:20]).values()) <= 3
    # the explicit example of the tests over the strategy is a large cover
    large = large_product_action()
    assert (large.n, large.k, large.is_effective(), len(large.cover.pieces)) == (4, 2, True, 105)


def test_incidence_index_matches_all_pairs():
    for cover in [counterexample_cover(), nested_interval_cover()] + [a.cover for a in corpus()]:
        assert cover.incidence == all_pairs_incidence(cover)


def test_incidence_tests_only_members_whose_box_holds_the_sample(monkeypatch):
    """The box sweep tests a piece's sample x against exactly the members
    whose whole box holds x; the result stays the all-pairs one."""
    covers = [counterexample_cover(), nested_interval_cover(), paper_action().cover, corpus()[3].cover]
    for cover in map(PiecewiseAffineCover.make, (c.members for c in covers)):  # no table built yet
        reference = all_pairs_incidence(cover)  # refines first
        expected = Counter()
        for piece in cover.pieces:
            (n, e), x = piece._int_sample, piece.sample_point()
            for m in cover.members:
                lo, hi, d = m.bbox
                if all(Fraction(l, d) <= c <= Fraction(h, d) for l, c, h in zip(lo, x, hi)):
                    expected[id(m), n, e] += 1
        tested = Counter()
        original = RelOpenCell._worst_excess

        def counted(cell, point):
            tested[id(cell), *point] += 1
            return original(cell, point)

        with monkeypatch.context() as m:
            m.setattr(RelOpenCell, "_worst_excess", counted)
            table = cover.incidence
        assert tested == expected
        assert table == reference


@settings(derandomize=True, deadline=None, max_examples=20)
@given(product_actions())
@example(large_product_action())
def test_interior_points_equal_the_vertex_mix_in_fractions(action):
    """``interior_points`` sums integer numerators once per coordinate; its
    points equal the mixes sum((w_i / W) v_i) formed vertex by vertex in
    ``Fraction`` arithmetic, with the same weights drawn from the rng."""
    cells = list(action.cover.members) + list(action.cover.pieces)
    got_rng, ref_rng = random.Random(11), random.Random(11)
    for cell in cells:
        expected = []
        for _ in range(3):
            weights = [Fraction(1 + ref_rng.randrange(64)) for _ in cell.closure_vertices]
            total = sum(weights)
            x = [Fraction(0)] * cell.ambient_dim
            for w, v in zip(weights, cell.closure_vertices):
                x = [c + w / total * vc for c, vc in zip(x, v)]
            expected.append(tuple(x))
        assert cell.interior_points(3, got_rng) == expected


def _text(v):
    return [_text(x) for x in v] if isinstance(v, tuple) else str(v)


def test_corpus_pieces_are_pinned():
    digest = hashlib.sha256()
    for action in corpus():
        for p in action.cover.pieces:
            digest.update(json.dumps([_text(cell_key(p)), _text(p.closed_A), _text(p.closed_b)]).encode())
    assert digest.hexdigest() == CORPUS_PIECES_SHA256


def test_random_cover_pieces_are_pinned():
    """Covers that are no momentum images, whose members overlap and lie in
    each other's boundaries, pinned as the corpus pieces are."""
    digest = hashlib.sha256()
    for cover in map(random_cover, range(40)):
        for p in cover.pieces:
            digest.update(json.dumps([_text(cell_key(p)), _text(p.closed_A), _text(p.closed_b)]).encode())
    assert digest.hexdigest() == RANDOM_COVER_PIECES_SHA256


def test_cover_of_mixed_dimensions_rejected():
    square = box_cell([[0, 0], [0, 2], [2, 0], [2, 2]])
    with pytest.raises(DimensionMismatch):
        PiecewiseAffineCover.make([square, point_cell([1])])


def test_refined_cells_partition_counts():
    cov = momentum_cover(paper_action())
    pieces = refined_cells(cov)
    assert Counter(c.dim for c in pieces) == Counter({0: 7, 1: 10, 2: 4})

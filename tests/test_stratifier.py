import random
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings

from momstrat import (
    PiecewiseAffineCover,
    compute_d_field,
    stratify,
    verify_frontier,
    verify_tangent_condition,
)
from momstrat import polyhedron, stratifier
from momstrat.errors import InvalidCover, NonIntegrable
from momstrat.io import parse_input_file
from momstrat.linalg import AffineSubspace, add, identity, scale
from momstrat.polyhedron import _SignTable, cell_from_closure_points, closure_faces
from momstrat.stratifier import Stratification, Stratum
from momstrat.toric import hamiltonian_stratification, momentum_cover
from support import (
    _within_closure,
    all_pairs_adjacency,
    all_pairs_frontier,
    all_pairs_holders,
    ambient_rows,
    box_cell,
    corpus,
    hpolytope_from_points,
    int_form,
    large_product_action,
    pairwise_meets,
    pairwise_verify_frontier,
    paper_action,
    point_cell,
    product_actions,
    segment_cell,
    square_identity_action,
    stratification_for,
)

INPUTS = Path(__file__).resolve().parent.parent / "inputs"

F = Fraction


def test_compute_d_field_single_member():
    cover = PiecewiseAffineCover.make([box_cell([[0, 0], [0, 1], [1, 0], [1, 1]])])
    field = compute_d_field(cover)
    assert len(field) == 1
    cell, direction = field[0]
    assert direction == identity(2)


def test_compute_d_field_paper_counts_and_ranks():
    field = compute_d_field(momentum_cover(paper_action()))
    assert len(field) == 21
    by_rank = Counter(len(direction) for _, direction in field)
    assert by_rank == Counter({0: 7, 1: 10, 2: 4})
    for cell, direction in field:
        assert cell.dim == len(direction)


def test_compute_d_field_interval_with_point():
    cover = PiecewiseAffineCover.make([segment_cell([0], [2]), point_cell([1])])
    field = compute_d_field(cover)
    cells = [(len(d), tuple(map(tuple, c.closure_vertices))) for c, d in field]
    assert sorted(cells) == [
        (0, ((F(1),),)),
        (1, ((F(0),), (F(1),))),
        (1, ((F(1),), (F(2),))),
    ]


def test_compute_d_field_rejects_invalid_cover():
    box = box_cell([[-1, -1], [-1, 1], [1, -1], [1, 1]])
    cover = PiecewiseAffineCover.make(
        [segment_cell([-1, 0], [0, 0]), segment_cell([0, 0], [1, 0]), box]
    )
    with pytest.raises(InvalidCover):
        compute_d_field(cover)
    with pytest.raises(InvalidCover):
        stratify(cover)


PAPER_ZERO_STRATA = {(0, 0), (0, 3), (1, 3), (4, 0), (1, 0), (3, 0), (1, 2)}


def test_stratify_paper_example():
    s = stratify(momentum_cover(paper_action()))
    counts = Counter(st.dim for st in s.strata)
    assert counts == Counter({0: 7, 1: 10, 2: 4})
    zero_points = {
        tuple(map(int, st.cells[0].closure_vertices[0])) for st in s.strata if st.dim == 0
    }
    assert zero_points == PAPER_ZERO_STRATA


def test_stratify_square_identity_is_face_relints():
    s = stratify(momentum_cover(square_identity_action()))
    assert Counter(st.dim for st in s.strata) == Counter({0: 4, 1: 4, 2: 1})
    assert all(len(st.cells) == 1 for st in s.strata)


def test_stratify_segment_chain_no_merge_across_point():
    members = [
        segment_cell([0, 0], [1, 0]),
        segment_cell([1, 0], [2, 0]),
        point_cell([1, 0]),
        point_cell([0, 0]),
        point_cell([2, 0]),
    ]
    s = stratify(PiecewiseAffineCover.make(members))
    assert Counter(st.dim for st in s.strata) == Counter({0: 3, 1: 2})
    one_dim = [st for st in s.strata if st.dim == 1]
    ends = sorted(
        tuple(sorted(tuple(map(int, v)) for v in st.cells[0].closure_vertices))
        for st in one_dim
    )
    assert ends == [(((0, 0)), ((1, 0))), (((1, 0)), ((2, 0)))]


def test_stratify_invariant_under_member_permutation():
    cov = momentum_cover(paper_action())
    s1 = stratify(cov)
    rng = random.Random(3)
    members = list(cov.members)
    for _ in range(3):
        rng.shuffle(members)
        permuted = PiecewiseAffineCover.make(members)
        s2 = stratify(permuted)
        assert s1 == s2


def test_stratum_union_open_in_carrier():
    # exact cross-polytope neighborhood check at stratum samples
    for action in (paper_action(), square_identity_action()):
        s = stratify(momentum_cover(action))
        for st in s.strata:
            x = st.cells[0].sample_point()
            for d in st.direction:
                for sign in (1, -1):
                    eps = F(1)
                    ok = False
                    for _ in range(60):
                        y = add(x, scale(d, sign * eps))
                        if any(c.contains(y) for c in st.cells):
                            ok = True
                            break
                        eps /= 2
                    assert ok, f"stratum {st.id} not open along {d}"


def test_verify_frontier_paper():
    s = stratify(momentum_cover(paper_action()))
    report = verify_frontier(s)
    assert report.ok
    # poset shape: every 1-stratum lies under at least one chamber, every
    # 0-stratum under at least one 1-stratum
    under = {lo: set() for lo in range(len(s.strata))}
    for lo, up in s.frontier:
        under[lo].add(up)
    for st in s.strata:
        if st.dim == 0:
            assert any(s.strata[u].dim == 1 for u in under[st.id])
        if st.dim == 1:
            assert any(s.strata[u].dim == 2 for u in under[st.id])
    # the interior crossing point sits below the two x=1 pieces, the two
    # diagonal pieces and all four chambers, exactly as in the figure
    blue = next(
        st for st in s.strata if st.dim == 0 and st.cells[0].closure_vertices == (vec_12(),)
    )
    ups = under[blue.id]
    assert sum(1 for u in ups if s.strata[u].dim == 1) == 4
    assert sum(1 for u in ups if s.strata[u].dim == 2) == 4


def vec_12():
    from momstrat import vec

    return vec([1, 2])


def test_verify_frontier_single_stratum():
    s = stratify(PiecewiseAffineCover.make([box_cell([[0, 0], [0, 1], [1, 0], [1, 1]])]))
    assert len(s.strata) == 1
    assert verify_frontier(s).ok


def _two_strata(lower_cells, upper_cells, frontier=()) -> Stratification:
    """Two strata of the plane, each given by its cells, the first one lower."""
    strata = tuple(
        Stratum(i, cells[0].carrier.directions, cells[0].carrier, cells, cells[0].dim, ())
        for i, cells in enumerate((lower_cells, upper_cells))
    )
    return Stratification(strata, frontier, 2)


def _long_edge_under_chamber() -> Stratification:
    # chamber (0,1)^2 and a long edge {1} x (0,2): the closure of the chamber
    # meets the edge without containing it
    return _two_strata((segment_cell([1, 0], [1, 2]),), (box_cell([[0, 0], [0, 1], [1, 0], [1, 1]]),))


def _edge_under_two_chambers() -> Stratification:
    # the edge {1} x (0,2) lies in the union of the closures of the chambers
    # (0,1) x (0,1) and (0,1) x (1,2), but in neither closure alone
    lower = box_cell([[0, 0], [0, 1], [1, 0], [1, 1]])
    upper = box_cell([[0, 1], [0, 2], [1, 1], [1, 2]])
    return _two_strata((segment_cell([1, 0], [1, 2]),), (lower, upper), ((0, 1),))


def _cells_moved_into_neighbour(s: Stratification, pair: tuple[int, int]) -> Stratification:
    """s with the cells of the lower stratum of a frontier pair moved into
    the upper one and the ids renumbered: the closures of the strata around
    the emptied one now meet the grown stratum, or miss part of it."""
    lo, up = pair
    strata = []
    for st in s.strata:
        if st.id != lo:
            cells = st.cells + s.strata[lo].cells if st.id == up else st.cells
            strata.append(Stratum(len(strata), st.direction, st.carrier, cells, st.dim, st.adjacency))
    return Stratification(tuple(strata), (), s.ambient_dim)


def test_verify_frontier_flags_hand_built_violation():
    broken = _long_edge_under_chamber()
    long_edge, chamber = (st.cells[0] for st in broken.strata)
    report = verify_frontier(broken)
    assert not report.ok
    hits = [v for v in report.violations if v.lower_id == 0 and v.upper_id == 1]
    assert hits
    assert all(long_edge.contains(v.witness) and not chamber.closure_contains(v.witness) for v in hits)


def test_verify_frontier_edge_covered_by_two_closures_only_together():
    assert verify_frontier(_edge_under_two_chambers()).ok


def test_verify_frontier_matches_the_pairwise_reference():
    # same violations, reasons and witnesses, in the same order
    cases = [stratification_for(action) for action in corpus()]
    assert all(pairwise_verify_frontier(s) == verify_frontier(s) for s in cases)
    broken = [_long_edge_under_chamber(), _edge_under_two_chambers()]
    for s in [stratify(momentum_cover(paper_action())), *(c for c in cases[:8] if len(c.strata) < 50)]:
        broken += [_cells_moved_into_neighbour(s, pair) for pair in s.frontier[:: max(1, len(s.frontier) // 4)]]
    reports = [verify_frontier(s) for s in broken]
    assert reports == [pairwise_verify_frontier(s) for s in broken]
    assert not reports[0].ok and reports[1].ok and sum(not r.ok for r in reports) > len(reports) // 2
    assert {v.reason for r in reports for v in r.violations} == {
        "closure meets a stratum of equal or larger dimension",
        "stratum not contained in the closure it meets",
    }


def _assert_masks_sound(s: Stratification) -> int:
    """Every (upper, lower) stratum pair that the ANDed sign masks reject,
    boxes aside, has no cell pair that meets by ``pairwise_meets``, which
    reads no sign table.  The table is built over every cell, as
    ``verify_frontier`` builds it.  Returns the number of rejected pairs."""
    table = _SignTable(c for st in s.strata for c in st.cells)
    signs = [table.shared(st.cells) for st in s.strata]
    rejected = 0
    for u, up in enumerate(s.strata):
        for l, lo in enumerate(s.strata):
            if u != l and table.apart(signs[l], signs[u]):
                rejected += 1
                assert not any(pairwise_meets(sigma, t, closed=True) for sigma in lo.cells for t in up.cells)
    return rejected


def test_stratum_masks_reject_only_pairs_that_do_not_meet():
    cases = [stratification_for(action) for action in corpus()]
    assert sum(map(_assert_masks_sound, cases)) > 0
    paper = stratify(momentum_cover(paper_action()))
    assert _assert_masks_sound(paper) > 0
    for s in [paper, *(c for c in cases[:8] if len(c.strata) < 50)]:
        for pair in s.frontier[:: max(1, len(s.frontier) // 4)]:
            _assert_masks_sound(_cells_moved_into_neighbour(s, pair))


def test_verify_frontier_tests_no_cell_pair_on_valid_inputs(monkeypatch):
    # the masks reject every pair that does not meet, and containment
    # settles every frontier pair, so ``meets`` is never reached
    calls = []
    original = stratifier.meets
    monkeypatch.setattr(stratifier, "meets", lambda *args: calls.append(args) or original(*args))
    for action in [paper_action(), large_product_action(), *corpus()]:
        assert verify_frontier(stratification_for(action)).ok
    assert calls == []
    assert not verify_frontier(_long_edge_under_chamber()).ok and calls  # the counter is live


@settings(derandomize=True, deadline=None, max_examples=20)
@given(product_actions())
@example(large_product_action())
def test_frontier_invariants_on_products_of_simplices(action):
    s = hamiltonian_stratification(action)
    assert verify_frontier(s).ok
    _assert_masks_sound(s)
    _assert_holders_match_all_pairs(action.cover, s)


def _assert_holders_match_all_pairs(cover, s):
    """The holder relation, the gluing edges and the frontier equal their
    references by ``_within_closure`` on every pair of pieces."""
    pieces = [piece for piece, _ in compute_d_field(cover)]
    assert stratifier._holders(pieces) == all_pairs_holders(pieces)
    assert [st.adjacency for st in s.strata] == [all_pairs_adjacency(st) for st in s.strata]
    assert s.frontier == all_pairs_frontier(s)


def test_holders_match_all_pairs_on_the_corpus():
    for action in corpus():
        _assert_holders_match_all_pairs(action.cover, stratification_for(action))


@pytest.mark.parametrize("segment", [(["0", "1/2"], ["0", "1"]), (["0", "1/4"], ["0", "3/4"])])
def test_frontier_of_a_cover_whose_support_is_not_closed(segment):
    # the open unit square and an open segment on its left edge: the edge is
    # a face of the square's closure but no piece, so the square's closure
    # is searched piece by piece, and the segment lies in it
    cover = PiecewiseAffineCover.make([box_cell([[0, 0], [0, 1], [1, 0], [1, 1]]), segment_cell(*segment)])
    s = stratify(cover)
    assert [st.dim for st in s.strata] == [1, 2]
    assert s.frontier == ((0, 1),) == all_pairs_frontier(s)
    assert verify_frontier(s).ok
    _assert_holders_match_all_pairs(cover, s)


@settings(derandomize=True, deadline=None, max_examples=20)
@given(product_actions())
@example(large_product_action())
def test_sign_table_and_split_children_on_products_of_simplices(action):
    members = action.cover.members
    family = list(members) + closure_faces(members)
    table = _SignTable(family)
    # Cl(x) ⊆ Cl(obj) read off the table, for the pieces too, as the refinement asks it
    for x in family + list(action.cover.pieces):
        assert [table.within(x, obj) for obj in family] == [_within_closure(x, obj) for obj in family]
    # every child of every split equals the cell built from its closure
    # vertices alone, and its inherited integer rows are the integer forms
    # of the Fraction reference rows
    children = {}
    split = polyhedron.split_cell

    def recording_split(cell, cut):
        parts = split(cell, cut)
        children.update((id(c), c) for c in parts.values())
        return parts

    with pytest.MonkeyPatch.context() as m:
        m.setattr(polyhedron, "split_cell", recording_split)
        assert polyhedron._refine_engine(members) == list(action.cover.pieces)
    for child in children.values():
        ref = cell_from_closure_points(child.closure_vertices)
        assert child == ref
        equations, facets = ambient_rows(child)
        assert child._int_facet_rows == ref._int_facet_rows == int_form(facets)
        assert child._int_equations == ref._int_equations == int_form(equations)


def test_verify_tangent_paper_and_identity():
    for action in (paper_action(), square_identity_action()):
        cov = momentum_cover(action)
        s = stratify(cov)
        report = verify_tangent_condition(s, cov, samples_per_stratum=5)
        assert report.ok
        assert report.checked == 5 * len(s.strata)


def test_verify_tangent_checks_no_point_without_samples():
    cov = momentum_cover(paper_action())
    s = stratify(cov)
    for samples in (0, -3):
        assert verify_tangent_condition(s, cov, samples_per_stratum=samples) == (0, ())
    assert verify_tangent_condition(s, cov, samples_per_stratum=1).checked == len(s.strata)


def test_verify_tangent_random_projected_covers():
    for action in corpus()[:6]:
        cov = action.cover
        s = stratify(cov)
        assert verify_tangent_condition(s, cov, samples_per_stratum=3).ok


def test_stratum_refinement_of_coarser_partition():
    # every fine stratum lies inside exactly one stratum of the coarser
    # face-relint partition of the image polytope (pointwise larger field)
    action = paper_action()
    fine = stratify(momentum_cover(action))
    from momstrat import ToricAction
    from momstrat.linalg import identity as id_mat

    image_pts = [v for st in fine.strata for c in st.cells for v in c.closure_vertices]
    image = hpolytope_from_points(image_pts)
    coarse_action = ToricAction.make(image, id_mat(2), "image")
    coarse = stratify(momentum_cover(coarse_action))
    for st in fine.strata:
        containers = set()
        for cell in st.cells:
            for co in coarse.strata:
                if all(
                    any(t.closure_contains(v) for t in co.cells) for v in cell.closure_vertices
                ) and co.contains(cell.sample_point()):
                    containers.add(co.id)
        assert len(containers) == 1


def test_stratum_adjacency_witness_connects_cells():
    for action in [paper_action(), *corpus()[:5]]:
        s = stratify(action.cover)
        for st in s.strata:
            if len(st.cells) == 1:
                assert st.adjacency == ()
                continue
            neighbors = {i: set() for i in range(len(st.cells))}
            for a, b in st.adjacency:
                neighbors[a].add(b)
                neighbors[b].add(a)
            seen = {0}
            frontier = [0]
            while frontier:
                i = frontier.pop()
                for j in neighbors[i]:
                    if j not in seen:
                        seen.add(j)
                        frontier.append(j)
            assert seen == set(range(len(st.cells)))


def test_strata_partition_support():
    cov = momentum_cover(paper_action())
    s = stratify(cov)
    rng = random.Random(9)
    # every refined-piece sample and random interior point lies in exactly one stratum
    pts = [piece.sample_point() for piece in cov.pieces]
    for st in s.strata:
        for cell in st.cells:
            pts.extend(cell.interior_points(2, rng))
    for x in pts:
        owners = [st.id for st in s.strata if st.contains(x)]
        assert len(owners) == 1


def test_invalid_cover_error_names_member_and_witness():
    cover = parse_input_file((INPUTS / "counterexample_cover.json").read_bytes())
    with pytest.raises(InvalidCover, match=r"closure of member 0 holds \(0, 0\)"):
        compute_d_field(cover)


def test_non_integrable_errors_name_the_piece(monkeypatch):
    # the carrier x = 1 of the second segment cuts the first at the lower piece (1, 0)
    cover = PiecewiseAffineCover.make(
        [segment_cell([0, 0], [2, 0]), segment_cell([1, 1], [1, 2])]
        + [point_cell(p) for p in ([0, 0], [2, 0], [1, 1], [1, 2])]
    )
    first = compute_d_field(cover)[0][0].sample_point()
    far = AffineSubspace.from_points([(F(-7), F(-7))])
    with monkeypatch.context() as m:
        m.setattr(stratifier, "_translate_through", lambda piece, direction: far)
        with pytest.raises(NonIntegrable, match=re.escape(f"piece at ({first[0]}, {first[1]}) leaves")):
            stratify(cover)
    monkeypatch.setattr(stratifier, "_holders", lambda pieces: [[] for _ in pieces])
    with pytest.raises(NonIntegrable, match=re.escape("codimension at (1, 0) not glued")):
        stratify(cover)

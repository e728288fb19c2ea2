import random
from collections import Counter
from fractions import Fraction

import pytest

from momstrat import (
    HPolytope,
    ToricAction,
    hamiltonian_stratification,
    isotropy_at,
    mat,
    momentum_cover,
    regular_locus,
    stratify,
    validate,
    vec,
)
from momstrat.errors import (
    DimensionMismatch,
    EmptyPolytope,
    NonEffectiveAction,
    NonIntegralInput,
    PointOutsideImage,
    RankDeficient,
    UnboundedPolytope,
)
from momstrat.linalg import identity, row_space_basis
from momstrat.polyhedron import RelOpenCell, cell_key
from momstrat.toric import face_image_cells, faces_through, isotropy_for_face
from support import (
    corpus,
    in_row_space,
    mat_mul,
    paper_action,
    per_face_images,
    random_toric_instance,
    random_unimodular,
    simplex_sum_action,
    square_identity_action,
    transform_stratification,
    unit_square,
)

F = Fraction


def test_momentum_cover_paper_members():
    cov = momentum_cover(paper_action())
    # all 21 nonempty faces project to pairwise distinct cells here
    assert Counter(m.dim for m in cov.members) == Counter({0: 6, 1: 10, 2: 5})
    segs = {
        tuple(sorted(tuple(map(int, v)) for v in m.closure_vertices))
        for m in cov.members
        if m.dim == 1
    }
    assert ((0, 0), (0, 3)) in segs  # x = 0
    assert ((1, 0), (1, 3)) in segs  # x = 1
    assert ((0, 0), (4, 0)) in segs  # full bottom image
    assert ((0, 3), (1, 3)) in segs  # top
    assert ((0, 3), (3, 0)) in segs  # diagonal x + y = 3
    assert ((1, 3), (4, 0)) in segs  # diagonal x + y = 4


def test_momentum_cover_identity_is_face_relints():
    cov = momentum_cover(square_identity_action())
    assert Counter(m.dim for m in cov.members) == Counter({0: 4, 1: 4, 2: 1})


def test_momentum_cover_square_projection_collapses():
    a = ToricAction.make(unit_square(), mat([[1], [0]]), "collapse")
    cov = momentum_cover(a)
    kinds = sorted((m.dim, tuple(map(tuple, m.closure_vertices))) for m in cov.members)
    assert Counter(m.dim for m in cov.members) == Counter({0: 2, 1: 1})
    assert kinds[0][1] == ((F(0),),)
    assert kinds[1][1] == ((F(1),),)
    assert kinds[2][1] == ((F(0),), (F(1),))


def test_momentum_cover_validates_on_corpus_sample():
    for a in corpus()[:10]:
        assert validate(a.cover).valid


def test_toric_action_input_validation():
    with pytest.raises(NonIntegralInput):
        ToricAction.make(unit_square(), mat([["1/2", 0], [0, 1]]))
    with pytest.raises(RankDeficient):
        ToricAction.make(unit_square(), mat([[1, 1], [1, 1]]))
    with pytest.raises(RankDeficient):
        ToricAction.make(unit_square(), mat([[1], [0], [0]]))
    with pytest.raises(UnboundedPolytope):
        ToricAction.make(HPolytope.from_rows([[-1, 0], [0, -1]], [0, 0]), mat([[1], [0]]))
    empty = HPolytope.from_rows([[1, 0], [-1, 0], [0, 1], [0, -1]], [0, -1, 1, 0])
    with pytest.raises(EmptyPolytope):
        ToricAction.make(empty, mat([[1], [0]]))


PAPER_ZERO = {(0, 0), (0, 3), (1, 3), (4, 0), (1, 0), (3, 0), (1, 2)}


def test_hamiltonian_stratification_paper():
    s = hamiltonian_stratification(paper_action())
    assert Counter(st.dim for st in s.strata) == Counter({0: 7, 1: 10, 2: 4})
    zero = {tuple(map(int, st.cells[0].closure_vertices[0])) for st in s.strata if st.dim == 0}
    assert zero == PAPER_ZERO


def test_hamiltonian_stratification_identity_square():
    s = hamiltonian_stratification(square_identity_action())
    assert len(s.strata) == 9


def test_hamiltonian_stratification_simplex_sum():
    s = hamiltonian_stratification(simplex_sum_action())
    assert Counter(st.dim for st in s.strata) == Counter({0: 2, 1: 1})
    points = sorted(tuple(map(int, st.cells[0].closure_vertices[0])) for st in s.strata if st.dim == 0)
    assert points == [(0,), (2,)]
    seg = [st for st in s.strata if st.dim == 1][0]
    assert {tuple(map(int, v)) for v in seg.cells[0].closure_vertices} == {(0,), (2,)}


def test_integer_direction_bases():
    for action in (paper_action(), simplex_sum_action()):
        s = hamiltonian_stratification(action)
        for st in s.strata:
            assert st.integer_direction is not None
            assert len(st.integer_direction) == st.dim
            for row in st.integer_direction:
                assert all(x.denominator == 1 for x in row)
                assert in_row_space(row, st.direction)
            for row in st.direction:
                assert in_row_space(row, st.integer_direction)


def test_regular_locus_paper():
    a = paper_action()
    s = hamiltonian_stratification(a)
    reg = regular_locus(a, s)
    assert reg == {st.id for st in s.strata if st.dim == 2}


def test_regular_locus_identity_square():
    a = square_identity_action()
    s = hamiltonian_stratification(a)
    assert regular_locus(a, s) == {st.id for st in s.strata if st.dim == 2}


def test_regular_locus_simplex_sum():
    a = simplex_sum_action()
    s = hamiltonian_stratification(a)
    assert regular_locus(a, s) == {st.id for st in s.strata if st.dim == 1}


def test_regular_locus_needs_effective():
    a = ToricAction.make(unit_square(), mat([[2], [0]]), "double_cover")
    assert not a.is_effective()
    s = hamiltonian_stratification(a)
    with pytest.raises(NonEffectiveAction):
        regular_locus(a, s)


def test_isotropy_at_blue_dot():
    a = paper_action()
    entries = isotropy_at(a, [1, 2])
    nontrivial = [e for e in entries if e.isotropy_rank > 0]
    assert len(nontrivial) == 2
    anns = {e.annihilator for e in nontrivial}
    assert row_space_basis(mat([[0, 1]])) in anns
    assert row_space_basis(mat([[1, -1]])) in anns
    # intersecting all annihilators recovers the zero-dimensional direction
    from momstrat.linalg import AffineSubspace, direction_intersect

    spaces = [
        AffineSubspace.from_point_and_directions(vec([0, 0]), e.annihilator) for e in entries
    ]
    assert direction_intersect(spaces) == ()


def test_isotropy_at_generic_interior():
    # note (2,1) would NOT be generic: it sits on the diagonal x + y = 3
    a = paper_action()
    entries = isotropy_at(a, ["5/2", "1/4"])
    assert all(e.isotropy_rank == 0 for e in entries)
    assert all(e.annihilator == identity(2) for e in entries)


def test_isotropy_at_diagonal_point():
    # (2,1) lies on the open diagonal segment: one fiber component carries
    # the diagonally embedded circle as isotropy
    a = paper_action()
    entries = isotropy_at(a, [2, 1])
    nontrivial = [e for e in entries if e.isotropy_rank > 0]
    assert len(nontrivial) == 1
    assert nontrivial[0].annihilator == row_space_basis(mat([[1, -1]]))


def test_isotropy_at_vertex_full():
    a = paper_action()
    entries = isotropy_at(a, [0, 0])
    assert len(entries) == 1
    assert entries[0].isotropy_rank == 2
    assert entries[0].annihilator == ()


def test_isotropy_at_outside_image():
    with pytest.raises(PointOutsideImage):
        isotropy_at(paper_action(), [10, 10])


def test_face_images_equal_per_face_projections():
    for a in (paper_action(), simplex_sum_action(), *corpus()):
        table, reference = face_image_cells(a), per_face_images(a)
        assert {f: cell for cell, faces in table for f in faces} == dict(reference)
        order = {f: i for i, (f, _) in enumerate(reference)}
        assert all(list(faces) == sorted(faces, key=order.get) for _, faces in table)
        cells = [cell for cell, _ in table]
        assert len(set(cells)) == len(cells)
        assert [cell_key(c) for c in cells] == sorted(map(cell_key, cells))
        assert a.cover.members == tuple(cells)


def test_faces_through_tests_each_image_once(monkeypatch):
    a = random_toric_instance(1031)  # the standard 5-simplex over a circle
    assert (len(a.face_images), len(a.polytope.lattice.nonempty_faces())) == (3, 63)
    calls = []
    original = RelOpenCell._holds

    def counted(cell, point, strict):
        calls.append(cell)
        return original(cell, point, strict)

    x = a.face_images[-1][0].sample_point()
    with monkeypatch.context() as m:
        m.setattr(RelOpenCell, "_holds", counted)
        faces = faces_through(a, x)
    assert calls == [cell for cell, _ in a.face_images]
    assert faces == [f for cell, fs in a.face_images if cell.contains(x) for f in fs]


def test_face_images_check_the_projection_rank():
    a = ToricAction(unit_square(), mat([[1, 1], [1, 1]]))  # skips the checks of make
    with pytest.raises(RankDeficient):
        face_image_cells(a)


def test_isotropy_annihilator_equals_projected_face_direction():
    for a in (paper_action(), simplex_sum_action(), *corpus()[:6]):
        for cell, faces in face_image_cells(a):
            for f in faces:
                assert isotropy_for_face(a, f).annihilator == cell.carrier.directions


def test_defining_property_on_corpus_sample():
    # stratum direction = intersection of isotropy annihilators over the fiber
    from momstrat.linalg import AffineSubspace, direction_intersect

    rng = random.Random(99)
    for a in corpus()[:8]:
        s = hamiltonian_stratification(a)
        for st in s.strata:
            pts = [st.cells[0].sample_point()] + st.cells[0].interior_points(2, rng)
            for x in pts:
                anns = [
                    AffineSubspace.from_point_and_directions(vec([0] * a.k), e.annihilator)
                    for e in isotropy_at(a, x)
                ]
                assert direction_intersect(anns) == st.direction


def test_delzant_detection():
    assert paper_action().is_delzant()
    assert square_identity_action().is_delzant()
    assert simplex_sum_action().is_delzant()
    bad = ToricAction.make(
        HPolytope.from_rows([[0, -1], [1, 1], [-1, 1]], [0, 2, 0]),
        mat([[1, 0], [0, 1]]),
        "non_delzant",
    )
    assert not bad.is_delzant()


def test_unimodular_invariance_paper():
    a = paper_action()
    s = hamiltonian_stratification(a)
    rng = random.Random(7)
    for _ in range(3):
        u = random_unimodular(rng, a.k)
        from momstrat.linalg import transpose

        b_new = mat_mul(a.B, transpose(u))
        transformed_action = ToricAction.make(a.polytope, b_new, "transformed")
        s_direct = hamiltonian_stratification(transformed_action)
        s_pushed = transform_stratification(s, u)
        assert s_direct == s_pushed


def test_stratification_invariant_under_member_permutation_corpus():
    import momstrat

    for a in corpus()[:4]:
        cov = a.cover
        s1 = stratify(cov)
        members = list(cov.members)
        random.Random(5).shuffle(members)
        cov2 = momstrat.PiecewiseAffineCover.make(members)
        assert stratify(cov2) == s1


def test_point_location_rejects_wrong_length_point():
    action = paper_action()
    stratum = hamiltonian_stratification(action).strata[0]
    locators = [stratum.contains, stratum.closure_contains, action.fiber_charts.over]
    for locate in locators + [lambda x: faces_through(action, x), lambda x: isotropy_at(action, x)]:
        with pytest.raises(DimensionMismatch):
            locate(vec([1, 2, 3]))

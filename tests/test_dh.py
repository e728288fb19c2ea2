import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hs

from momstrat import (
    ToricAction,
    density_polynomial,
    fiber_volume,
    hamiltonian_stratification,
    mat,
    mc_fiber_volume,
    vec,
)
from momstrat import dh
from momstrat.dh import DensityPoly, polytope_volume
from momstrat.errors import (
    DimensionMismatch,
    EmptyFiber,
    InterpolationInconsistent,
    MomstratError,
    NotTopDimensional,
)
from momstrat.linalg import dot
from momstrat.polyhedron import _int_points, enumerate_vertices, tight_sets
from support import (
    chart_vertex,
    corpus,
    paper_action,
    simplex_sum_action,
    square_identity_action,
    stratification_for,
    unit_square,
)

F = Fraction
INPUTS = Path(__file__).resolve().parent.parent / "inputs"


def test_fiber_volume_paper_interval():
    # fiber over (1/2, 1): u in [max(0, x+y-3), min(1, x)] = [0, 1/2]
    assert fiber_volume(paper_action(), ["1/2", 1]).volume == F(1, 2)


def test_fiber_volume_paper_degenerate_point():
    assert fiber_volume(paper_action(), [2, 2]).volume == 0


def test_fiber_volume_identity_convention():
    a = square_identity_action()
    assert fiber_volume(a, ["1/2", "1/2"]).volume == 1
    assert fiber_volume(a, [0, 0]).volume == 1


def test_fiber_volume_empty_raises():
    with pytest.raises(EmptyFiber):
        fiber_volume(paper_action(), [10, 10])


def test_fiber_volume_rejects_wrong_point_dimension():
    with pytest.raises(DimensionMismatch):
        fiber_volume(paper_action(), [1, 2, 3])


def test_mc_fiber_volume_rejects_wrong_point_dimension():
    with pytest.raises(DimensionMismatch):
        mc_fiber_volume(paper_action(), [1], 100, 0)


def test_density_poly_rejects_wrong_point_dimension():
    xy = DensityPoly(0, (((1, 1), F(1)),), 2)
    assert xy.evaluate([2, 3]) == 6
    for point in ([2], [2, 3, 5]):
        with pytest.raises(DimensionMismatch):
            xy.evaluate(point)


def test_density_poly_evaluates_in_integers_as_the_fraction_sum():
    # reference: the sum of c * x^e in Fraction arithmetic; the evaluation
    # reads the degree off the terms, so a wrong degree field changes nothing
    rng = random.Random(25)
    for _ in range(300):
        k = rng.randint(0, 3)
        terms = {
            tuple(rng.randint(0, 3) for _ in range(k)): F(rng.choice((-1, 1)) * rng.randint(1, 60), rng.randint(1, 40))
            for _ in range(rng.randint(0, 6))
        }
        poly = DensityPoly(0, tuple(sorted(terms.items())), max(map(sum, terms), default=0))
        x = [F(rng.randint(-30, 30), rng.randint(1, 15)) for _ in range(k)]
        want = sum((c * math.prod((xi**e for xi, e in zip(x, expo)), start=F(1)) for expo, c in terms.items()), F(0))
        for p in (poly, poly._replace(degree=0)):
            value = p.evaluate(x)
            assert type(value) is F and value == want


def test_fiber_charts_match_tight_basis_enumeration():
    # reference: the fiber rows over x and every vertex they define, found by
    # the exhaustive tight-basis scan; both sides use the kernel-lattice
    # coordinates t of p(x) + t.L with p(x) = solve(projection, x)
    rng = random.Random(1018)
    actions = [paper_action(), *rng.sample(corpus(), 8)]
    checked = 0
    for a in actions:
        d = a.n - a.k
        points = [c.sample_point() for st in stratification_for(a).strata for c in st.cells]
        if a.name == "paper":
            points.append(vec([2, 2]))  # an image vertex: the fiber is a point
        for x in points:
            rows, _, _ = dh._fiber_rows(a, x)
            expected = enumerate_vertices(rows, d)
            hits = a.fiber_charts.over(x)
            assert sorted(chart_vertex(c, x) for c in hits) == expected
            assert hits == [c for cell, cs in a.fiber_charts.cells if cell.contains(x) for c in cs]
            volume = polytope_volume(tight_sets(rows, expected), _int_points(expected), d)
            assert fiber_volume(a, x).volume == volume
            checked += 1
    assert checked > 100


def _rows(*pairs):
    return [(vec(a), F(b)) for a, b in pairs]


def test_polytope_volume_triangulation():
    square = [vec([0, 0]), vec([0, 1]), vec([1, 0]), vec([1, 1])]
    square_rows = _rows(([-1, 0], 0), ([1, 0], 1), ([0, -1], 0), ([0, 1], 1))
    assert polytope_volume(tight_sets(square_rows, square), _int_points(square), 2) == 1
    simplex3 = [vec([0, 0, 0]), vec([1, 0, 0]), vec([0, 1, 0]), vec([0, 0, 1])]
    simplex3_rows = _rows(([-1, 0, 0], 0), ([0, -1, 0], 0), ([0, 0, -1], 0), ([1, 1, 1], 1))
    assert polytope_volume(tight_sets(simplex3_rows, simplex3), _int_points(simplex3), 3) == F(1, 6)
    flat = [vec([0, 0]), vec([1, 1])]
    flat_rows = _rows(([1, -1], 0), ([-1, 1], 0), ([1, 0], 1), ([-1, 0], 0))
    assert polytope_volume(tight_sets(flat_rows, flat), _int_points(flat), 2) == 0


def _box(lo, sides):
    verts = [vec([l + s * c for l, s, c in zip(lo, sides, corner)])
             for corner in itertools.product((0, 1), repeat=len(lo))]
    rows = []
    for i, (l, s) in enumerate(zip(lo, sides)):
        e = [0] * len(lo)
        e[i] = 1
        rows += _rows(([-x for x in e], -l), (e, l + s))
    return rows, verts


def _simplex(lo, c):
    d = len(lo)
    verts = [vec(lo)]
    verts += [vec([l + (c if j == i else 0) for j, l in enumerate(lo)]) for i in range(d)]
    rows = [(vec([-1 if j == i else 0 for j in range(d)]), F(-lo[i])) for i in range(d)]
    rows += _rows(([1] * d, sum(lo) + c))
    return rows, verts


@hs.composite
def _polytope_with_redundant_rows(draw):
    d = draw(hs.integers(1, 4))
    lo = draw(hs.lists(hs.integers(-3, 3), min_size=d, max_size=d))
    if draw(hs.booleans()):
        sides = draw(hs.lists(hs.integers(1, 4), min_size=d, max_size=d))
        rows, verts = _box(lo, sides)
        expected = F(math.prod(sides))
    else:
        c = draw(hs.integers(1, 4))
        rows, verts = _simplex(lo, c)
        expected = F(c**d, math.factorial(d))
    a, beta = rows[draw(hs.integers(0, len(rows) - 1))]
    scale = F(draw(hs.integers(1, 5)), draw(hs.integers(1, 5)))
    rows.append((a, beta))  # duplicated row
    rows.append((tuple(scale * x for x in a), scale * beta))  # positively scaled copy
    a, beta = rows[draw(hs.integers(0, len(rows) - 1))]
    rows.append((a, beta + 1))  # tight nowhere
    # tight at exactly one vertex: a functional with a unique maximizer
    w = vec(draw(hs.lists(hs.integers(-3, 3).filter(bool), min_size=d, max_size=d)))
    values = sorted(dot(w, v) for v in verts)
    assume(len(values) == 1 or values[-1] != values[-2])
    rows.append((w, values[-1]))
    rows = draw(hs.permutations(rows))
    verts = draw(hs.permutations(verts))
    return rows, verts, d, expected


@settings(max_examples=80, deadline=None)
@given(_polytope_with_redundant_rows())
def test_polytope_volume_closed_forms_with_redundant_rows(case):
    rows, verts, d, expected = case
    assert polytope_volume(tight_sets(rows, verts), _int_points(verts), d) == expected


def test_polytope_volume_flat_box_is_zero():
    rows, verts = _box([0, 1, -1], [2, 0, 3])
    assert len(set(verts)) == 4
    verts = sorted(set(verts))
    assert polytope_volume(tight_sets(rows, verts), _int_points(verts), 3) == 0


def _wrong_volume(monkeypatch):
    """Patch ``dh._volume``, the per-point fiber volume given the charts over
    the point, which ``fiber_volume`` and the held-out checks share, to report
    one more than the true volume, and return the list the points it was
    asked about are appended to."""
    real, asked = dh._volume, []

    def wrong(a, x, hits):
        asked.append(vec(x))
        got = real(a, x, hits)
        return got._replace(volume=got.volume + 1)

    monkeypatch.setattr(dh, "_volume", wrong)
    return asked


def test_density_polynomial_wrong_held_out_volume_is_typed(monkeypatch):
    a = paper_action()
    s = hamiltonian_stratification(a)
    top = [st for st in s.strata if st.dim == 2][0]
    asked = _wrong_volume(monkeypatch)
    with pytest.raises(InterpolationInconsistent) as err:
        density_polynomial(a, s, top.id)
    assert len(asked) == 1  # the first held-out point already disagrees
    assert f"stratum {top.id}" in str(err.value)
    assert f"held-out point {asked[0]}" in str(err.value)


def test_cli_wrong_held_out_volume_exits_5(monkeypatch, capsys):
    from momstrat.cli import main

    _wrong_volume(monkeypatch)
    assert main(["dh", str(INPUTS / "paper_cp1xcp2.json"), "--seed", "0"]) == 5
    err = capsys.readouterr().err
    assert "stratum" in err and "held-out point" in err and "Traceback" not in err


def test_density_polynomial_flat_fan_simplex_is_typed(monkeypatch):
    # a fan simplex whose determinant vanishes at the base point is an error,
    # never a simplex silently dropped from the sum
    a = paper_action()
    s = hamiltonian_stratification(a)
    top = [st for st in s.strata if st.dim == 2][0]
    real = dh._fan_determinants
    monkeypatch.setattr(dh, "_fan_determinants", lambda *args: [{}] + real(*args)[1:])
    with pytest.raises(InterpolationInconsistent, match=f"stratum {top.id}: the fan simplex .* is flat"):
        density_polynomial(a, s, top.id)


def test_fan_is_constant_on_every_chamber_and_held_out_count(monkeypatch):
    """The fan density rests on local triviality: the charts over x, hence
    their active sets and the fan, are the same at the sample point of every
    cell of a chamber.  Each chamber density costs exactly max(k + 1, 3)
    independent fiber volumes, its held-out checks."""
    real, calls = dh._volume, []

    def counted(a, x, hits):
        calls.append(x)
        return real(a, x, hits)

    monkeypatch.setattr(dh, "_volume", counted)
    chambers = 0
    for a in (paper_action(), *corpus()):
        s = stratification_for(a)
        for st in s.strata:
            if st.dim != a.k:
                continue
            active = {
                tuple(c.active_set for c in a.fiber_charts.over(cell.sample_point())) for cell in st.cells
            }
            assert len(active) == 1, (a.name, st.id)
            calls.clear()
            density_polynomial(a, s, st.id)
            assert len(calls) == max(a.k + 1, 3), (a.name, st.id)
            chambers += 1
    assert chambers > 200


def _chamber_with_sample(s, predicate):
    for st in s.strata:
        if st.dim == 2 and predicate(st.cells[0].sample_point()):
            return st
    raise AssertionError("chamber not found")


def test_density_polynomials_paper_chambers():
    a = paper_action()
    s = hamiltonian_stratification(a)
    expected = {
        # (x < 1, x + y < 3): density x
        (True, True): {(1, 0): F(1)},
        # (x > 1, x + y < 3): density 1
        (False, True): {(0, 0): F(1)},
        # (x > 1, x + y > 3): density 4 - x - y
        (False, False): {(0, 0): F(4), (1, 0): F(-1), (0, 1): F(-1)},
        # (x < 1, x + y > 3): density 3 - y
        (True, False): {(0, 0): F(3), (0, 1): F(-1)},
    }
    seen = set()
    for st in s.strata:
        if st.dim != 2:
            continue
        x = st.cells[0].sample_point()
        key = (x[0] < 1, x[0] + x[1] < 3)
        poly = density_polynomial(a, s, st.id)
        assert dict(poly.coefficients) == expected[key]
        assert poly.degree <= a.n - a.k
        seen.add(key)
    assert len(seen) == 4


def test_density_polynomial_simplex_sum():
    a = simplex_sum_action()
    s = hamiltonian_stratification(a)
    top = [st for st in s.strata if st.dim == 1][0]
    poly = density_polynomial(a, s, top.id)
    assert dict(poly.coefficients) == {(1,): F(1)}
    assert poly.degree == 1 == a.n - a.k


def test_density_polynomial_identity_constant_one():
    a = square_identity_action()
    s = hamiltonian_stratification(a)
    top = [st for st in s.strata if st.dim == 2][0]
    poly = density_polynomial(a, s, top.id)
    assert dict(poly.coefficients) == {(0, 0): F(1)}
    assert poly.degree == 0


def test_density_polynomial_rejects_lower_strata():
    a = paper_action()
    s = hamiltonian_stratification(a)
    low = [st for st in s.strata if st.dim == 0][0]
    with pytest.raises(NotTopDimensional):
        density_polynomial(a, s, low.id)


def test_density_polynomial_rejects_stratum_ids_out_of_range():
    # -1 once gave the last stratum's density, labelled -1 and drawn with
    # another seed, and an id past the end a bare IndexError
    a = paper_action()
    s = hamiltonian_stratification(a)
    count = len(s.strata)
    for bad in (-1, -count, count, count + 5):
        with pytest.raises(MomstratError, match=f"^no stratum {bad}: the stratification has {count} strata$"):
            density_polynomial(a, s, bad)


def test_density_matches_fiber_volume_on_fresh_points():
    rng = random.Random(4242)
    a = paper_action()
    s = hamiltonian_stratification(a)
    for st in s.strata:
        if st.dim != 2:
            continue
        poly = density_polynomial(a, s, st.id)
        for x in st.cells[0].interior_points(10, rng):
            assert poly.evaluate(x) == fiber_volume(a, x).volume


def test_adjacent_chambers_agree_on_shared_walls():
    a = paper_action()
    s = hamiltonian_stratification(a)
    polys = {st.id: density_polynomial(a, s, st.id) for st in s.strata if st.dim == 2}
    rng = random.Random(7)
    upper = {}
    for lo, up in s.frontier:
        upper.setdefault(lo, []).append(up)
    checked = 0
    for st in s.strata:
        if st.dim != 1:
            continue
        chambers = [u for u in upper.get(st.id, []) if s.strata[u].dim == 2]
        if len(chambers) < 2:
            continue
        for x in [st.cells[0].sample_point()] + st.cells[0].interior_points(3, rng):
            values = {polys[c].evaluate(x) for c in chambers}
            assert len(values) == 1
            assert values.pop() == fiber_volume(a, x).volume
        checked += 1
    assert checked >= 2  # the two interior walls of the example


def test_mc_oracle_paper_points():
    a = paper_action()
    for point, exact in (
        (["1/2", 1], F(1, 2)),
        ([2, 1], F(1)),
        (["3/2", "1/2"], F(1)),
        (["5/2", "1/2"], F(1)),
    ):
        est = mc_fiber_volume(a, point, trials=10**5, seed=20240917)
        sigma = max(est.std_error, 1e-9)
        assert abs(est.estimate - float(exact)) <= 4 * sigma


def test_mc_oracle_identity_exact():
    est = mc_fiber_volume(square_identity_action(), ["1/2", "1/2"], trials=100, seed=1)
    assert est.estimate == 1.0
    assert est.std_error == 0.0


def test_mc_oracle_reproducible():
    a = paper_action()
    e1 = mc_fiber_volume(a, ["1/2", 1], trials=5000, seed=99)
    e2 = mc_fiber_volume(a, ["1/2", 1], trials=5000, seed=99)
    assert e1 == e2


@pytest.mark.parametrize("trials", [0, -5])
def test_mc_oracle_rejects_non_positive_trials(trials):
    # 0 once raised ZeroDivisionError and -5 numpy's "negative dimensions";
    # a point fiber (n = k) returned an estimate over no trials
    for a, x in ((paper_action(), ["1/2", 1]), (square_identity_action(), ["1/2", "1/2"])):
        with pytest.raises(MomstratError, match=f"positive number of trials, got {trials}$"):
            mc_fiber_volume(a, x, trials=trials, seed=0)


def test_mc_oracle_degenerate_fiber():
    from momstrat.errors import DegenerateFiber

    with pytest.raises(DegenerateFiber):
        mc_fiber_volume(paper_action(), [2, 2], trials=100, seed=0)


def test_degree_bound_on_corpus_sample():
    for a in corpus()[:6]:
        s = hamiltonian_stratification(a)
        for st in s.strata:
            if st.dim != a.k:
                continue
            poly = density_polynomial(a, s, st.id)
            assert poly.degree <= a.n - a.k


def test_linear_variation_interval_instances():
    # k = 1, n - k = 1: each chamber density is affine
    seg_actions = [a for a in corpus() if a.k == 1 and a.n - a.k == 1]
    if not seg_actions:
        seg_actions = [
            ToricAction.make(unit_square(), mat([[1], [0]]), "strip")
        ]
    for a in seg_actions[:3]:
        s = hamiltonian_stratification(a)
        for st in s.strata:
            if st.dim == 1:
                assert density_polynomial(a, s, st.id).degree <= 1

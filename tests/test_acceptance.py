"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import random
import time
from collections import Counter
from fractions import Fraction

from momstrat import (
    PiecewiseAffineCover,
    density_polynomial,
    fiber_volume,
    hamiltonian_stratification,
    mc_fiber_volume,
    regular_locus,
    stratify,
    validate,
    vec,
    verify_frontier,
)
from momstrat.linalg import AffineSubspace, add, direction_intersect, scale
from momstrat.toric import isotropy_at
from support import (
    box_cell,
    corpus,
    mat_mul,
    paper_action,
    random_unimodular,
    segment_cell,
    stratification_for,
    transform_stratification,
)

F = Fraction


def _report(criterion, ok, detail=""):
    line = f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


def test_criterion_1_paper_example_golden():
    a = paper_action()
    t0 = time.perf_counter()
    s = hamiltonian_stratification(a)
    elapsed = time.perf_counter() - t0
    counts = Counter(st.dim for st in s.strata)
    zero_points = {
        tuple(map(int, st.cells[0].closure_vertices[0])) for st in s.strata if st.dim == 0
    }
    expected_points = {(0, 0), (0, 3), (1, 3), (4, 0), (1, 0), (3, 0), (1, 2)}
    ok = (
        counts == Counter({0: 7, 1: 10, 2: 4})
        and zero_points == expected_points
        and elapsed < 1.0
    )
    _report(1, ok, f"counts={dict(counts)}, runtime={elapsed:.3f}s")


def test_criterion_2_paper_dh_densities():
    a = paper_action()
    t0 = time.perf_counter()
    s = stratification_for(a)
    expected = {
        (True, True): {(1, 0): F(1)},
        (False, True): {(0, 0): F(1)},
        (False, False): {(0, 0): F(4), (1, 0): F(-1), (0, 1): F(-1)},
        (True, False): {(0, 0): F(3), (0, 1): F(-1)},
    }
    rng = random.Random(20240917)
    all_ok = True
    for st in s.strata:
        if st.dim != 2:
            continue
        sample = st.cells[0].sample_point()
        key = (sample[0] < 1, sample[0] + sample[1] < 3)
        poly = density_polynomial(a, s, st.id)
        all_ok &= dict(poly.coefficients) == expected[key]
        for x in st.cells[0].interior_points(3, rng):
            exact = fiber_volume(a, x).volume
            est = mc_fiber_volume(a, x, trials=10**5, seed=rng.randrange(2**30))
            sigma = max(est.std_error, 1e-12)
            all_ok &= abs(est.estimate - float(exact)) <= 4 * sigma
    elapsed = time.perf_counter() - t0
    _report(2, all_ok and elapsed < 60.0, f"runtime={elapsed:.3f}s")


def test_criterion_3_defining_property_suite():
    instances = corpus()
    assert len(instances) >= 50
    checked = 0
    bad = 0
    for a in instances:
        s = stratification_for(a)
        for st in s.strata:
            rng = random.Random(0xAB1 + 131 * st.id)
            points = [st.cells[0].sample_point()]
            i = 0
            while len(points) < 5:
                cell = st.cells[i % len(st.cells)]
                points.extend(cell.interior_points(1, rng))
                i += 1
            for x in points[:5]:
                anns = [
                    AffineSubspace.from_point_and_directions(vec([0] * a.k), e.annihilator)
                    for e in isotropy_at(a, x)
                ]
                checked += 1
                if direction_intersect(anns) != st.direction:
                    bad += 1
    _report(3, bad == 0, f"{len(instances)} instances, {checked} samples, {bad} mismatches")


def test_criterion_4_stratification_axioms():
    instances = corpus()
    rng = random.Random(0xF00)
    problems = []
    for idx, a in enumerate(instances):
        cov = a.cover
        s = stratification_for(a)
        # disjointness + covering on refined-piece samples
        for piece in cov.pieces:
            owners = [st.id for st in s.strata if st.contains(piece.sample_point())]
            if len(owners) != 1:
                problems.append((idx, "partition", piece.sample_point()))
        # affine-openness: exact cross-polytope neighborhood inside the carrier
        for st in s.strata:
            x = st.cells[0].sample_point()
            for d in st.direction:
                for sign in (1, -1):
                    eps = F(1)
                    for _ in range(64):
                        if any(c.contains(add(x, scale(d, sign * eps))) for c in st.cells):
                            break
                        eps /= 2
                    else:
                        problems.append((idx, "openness", st.id))
        # frontier condition
        if not verify_frontier(s).ok:
            problems.append((idx, "frontier", None))
        # bit-identical under member permutation
        members = list(cov.members)
        rng.shuffle(members)
        if stratify(PiecewiseAffineCover.make(members)) != stratify(cov):
            problems.append((idx, "permutation", None))
        # bit-identical under unimodular change of coordinates
        from momstrat import ToricAction
        from momstrat.linalg import transpose

        u = random_unimodular(rng, a.k)
        transformed = ToricAction.make(a.polytope, mat_mul(a.B, transpose(u)))
        if hamiltonian_stratification(transformed) != transform_stratification(s, u):
            problems.append((idx, "unimodular", None))
    _report(4, not problems, f"{len(instances)} instances, problems={problems[:3]}")


def test_criterion_5_regular_locus():
    instances = corpus()
    bad = []
    for idx, a in enumerate(instances):
        if not a.is_effective():
            continue
        s = stratification_for(a)
        expected = {st.id for st in s.strata if st.dim == a.k}
        if regular_locus(a, s) != expected:
            bad.append(idx)
    _report(5, not bad, f"{len(instances)} effective instances, mismatches={bad}")


def test_criterion_6_density_degree_and_exactness():
    instances = corpus()
    rng = random.Random(0xD0)
    problems = []
    for idx, a in enumerate(instances):
        s = stratification_for(a)
        tops = [st for st in s.strata if st.dim == a.k]
        polys = {}
        for st in tops:
            poly = density_polynomial(a, s, st.id)
            polys[st.id] = poly
            if poly.degree > a.n - a.k:
                problems.append((idx, "degree", st.id))
            held_out = []
            i = 0
            while len(held_out) < 20:
                cell = st.cells[i % len(st.cells)]
                held_out.extend(cell.interior_points(1, rng))
                i += 1
            for x in held_out:
                if poly.evaluate(x) != fiber_volume(a, x).volume:
                    problems.append((idx, "exactness", st.id))
                    break
        # adjacent chambers agree on shared boundary strata
        upper = {}
        for lo, up in s.frontier:
            upper.setdefault(lo, []).append(up)
        for st in s.strata:
            if st.dim >= a.k:
                continue
            chambers = [u for u in upper.get(st.id, []) if s.strata[u].dim == a.k]
            if len(chambers) < 2:
                continue
            x = st.cells[0].sample_point()
            values = {polys[c].evaluate(x) for c in chambers}
            if len(values) != 1:
                problems.append((idx, "boundary", st.id))
    _report(6, not problems, f"{len(instances)} instances, problems={problems[:3]}")


def test_criterion_7_counterexample_rejection():
    box = box_cell([[-1, -1], [-1, 1], [1, -1], [1, 1]])
    cover = PiecewiseAffineCover.make([segment_cell([-1, 0], [0, 0]), segment_cell([0, 0], [1, 0]), box])
    report = validate(cover)
    ok = (
        not report.valid
        and report.offending_members() == [0, 1]
        and all(
            r.uncovered_witness == vec([0, 0])
            for r in report.member_reports
            if not r.closure_covered
        )
    )
    _report(7, ok, f"offenders={report.offending_members()}")


def test_criterion_8_oracle_agreement():
    instances = [a for a in corpus() if a.n > a.k]
    rng = random.Random(0x0A11CE)
    pairs = 0
    failures = 0
    while pairs < 200:
        a = instances[pairs % len(instances)]
        s = stratification_for(a)
        tops = [st for st in s.strata if st.dim == a.k]
        st = tops[rng.randrange(len(tops))]
        x = st.cells[0].interior_points(1, rng)[0]
        exact = fiber_volume(a, x).volume
        est = mc_fiber_volume(a, x, trials=10**5, seed=rng.randrange(2**30))
        sigma = max(est.std_error, 1e-12)
        if abs(est.estimate - float(exact)) > 4 * sigma:
            failures += 1
        pairs += 1
    _report(8, failures <= 2, f"{pairs} pairs, {failures} beyond 4 standard errors")

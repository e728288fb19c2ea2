"""Correctness checks computed apart from the program.

Everything here reads the program's output as plain JSON and uses its own
exact rational arithmetic; nothing is imported from ``momstrat``.

* Euler characteristic: the cells of all strata partition the compact
  convex image, and a relatively open d-cell has compactly supported Euler
  characteristic (-1)^d, so the sum over cells is 1.
* DH mass identity: for an effective action the chamber densities integrate
  to the volume of the polytope.  Integrals are exact: antiderivatives on
  intervals for k = 1, and a fan triangulation of each chamber cell with
  exact monomial integration over simplices for k >= 2.
* Degree: every density has total degree at most n - k.
"""

from __future__ import annotations

import itertools
import json
import math
import xml.etree.ElementTree as ET
from fractions import Fraction

Poly = dict  # exponent tuple -> Fraction


def point(raw) -> tuple[Fraction, ...]:
    return tuple(Fraction(x) for x in raw)


def det(rows: list[list[Fraction]]) -> Fraction:
    a = [list(r) for r in rows]
    n = len(a)
    out = Fraction(1)
    for i in range(n):
        piv = next((j for j in range(i, n) if a[j][i] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != i:
            a[i], a[piv] = a[piv], a[i]
            out = -out
        out *= a[i][i]
        for j in range(i + 1, n):
            if a[j][i] != 0:
                f = a[j][i] / a[i][i]
                a[j] = [u - f * v for u, v in zip(a[j], a[i])]
    return out


def affine_dim(pts) -> int:
    """Dimension of the affine hull, by exact elimination."""
    rows = [[x - y for x, y in zip(p, pts[0])] for p in pts[1:]]
    r = 0
    cols = len(pts[0])
    for c in range(cols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c] / rows[r][c]
                rows[i] = [u - f * v for u, v in zip(rows[i], rows[r])]
        r += 1
    return r


def _normal(base, others) -> list[Fraction]:
    """Normal of the hyperplane through base and the d - 1 others (cofactors)."""
    m = [[x - y for x, y in zip(p, base)] for p in others]
    d = len(base)
    return [
        (-1) ** i * det([row[:i] + row[i + 1 :] for row in m]) for i in range(d)
    ]


def triangulate(pts: list[tuple], d: int) -> list[tuple[int, ...]]:
    """Fan triangulation of the full-dimensional conv(pts) in R^d, as index
    tuples.  Facets come from exhaustive supporting-hyperplane search; a facet
    is triangulated in the coordinates left after dropping one coordinate in
    which its normal is nonzero (an affine bijection of the hyperplane)."""
    if d == 1:
        lo = min(range(len(pts)), key=lambda i: pts[i])
        hi = max(range(len(pts)), key=lambda i: pts[i])
        return [(lo, hi)]
    v0 = min(range(len(pts)), key=lambda i: pts[i])
    facets = set()
    for combo in itertools.combinations(range(len(pts)), d):
        a = _normal(pts[combo[0]], [pts[i] for i in combo[1:]])
        if not any(a):
            continue
        beta = sum(x * y for x, y in zip(a, pts[combo[0]]))
        vals = [sum(x * y for x, y in zip(a, p)) - beta for p in pts]
        if all(v <= 0 for v in vals) or all(v >= 0 for v in vals):
            on = tuple(i for i, v in enumerate(vals) if v == 0)
            if v0 not in on:
                facets.add((on, next(j for j, x in enumerate(a) if x != 0)))
    out = []
    for on, drop in sorted(facets):
        sub = [pts[i][:drop] + pts[i][drop + 1 :] for i in on]
        for s in triangulate(sub, d - 1):
            out.append((v0,) + tuple(on[i] for i in s))
    return out


def _poly_mul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return out


def integrate_simplex(poly: Poly, verts: list[tuple]) -> Fraction:
    """Exact integral of poly over the simplex conv(verts) in R^d.

    Substitute x = v0 + sum_i t_i (v_i - v0) and use
    int over the standard simplex of t^a = a! / (d + |a|)!.
    """
    d = len(verts[0])
    v0 = verts[0]
    edges = [[x - y for x, y in zip(v, v0)] for v in verts[1:]]
    jac = abs(det(edges))
    if jac == 0:
        return Fraction(0)
    zero = (0,) * d
    # x_j as a linear polynomial in t
    coords = []
    for j in range(d):
        lin: Poly = {zero: v0[j]}
        for i in range(d):
            if edges[i][j] != 0:
                e = tuple(1 if m == i else 0 for m in range(d))
                lin[e] = edges[i][j]
        coords.append(lin)
    total = Fraction(0)
    for expo, c in poly.items():
        term: Poly = {zero: Fraction(c)}
        for j, e in enumerate(expo):
            for _ in range(e):
                term = _poly_mul(term, coords[j])
        for a, coeff in term.items():
            num = math.prod(math.factorial(x) for x in a)
            total += coeff * Fraction(num, math.factorial(d + sum(a)))
    return jac * total


def integrate_cell(poly: Poly, pts: list[tuple]) -> Fraction:
    """Exact integral over the full-dimensional convex cell conv(pts)."""
    d = len(pts[0])
    if d == 1:
        a, b = min(p[0] for p in pts), max(p[0] for p in pts)
        return sum(
            (c * (b ** (e[0] + 1) - a ** (e[0] + 1)) / (e[0] + 1) for e, c in poly.items()),
            Fraction(0),
        )
    return sum(
        (integrate_simplex(poly, [pts[i] for i in s]) for s in triangulate(pts, d)),
        Fraction(0),
    )


def evaluate(poly: Poly, x) -> Fraction:
    return sum((c * math.prod(xi**e for xi, e in zip(x, expo)) for expo, c in poly.items()), Fraction(0))


# ---------------------------------------------------------------------------
# documents


def load(text: str | bytes) -> dict:
    return json.loads(text)


def cells_of(stratum: dict) -> list[list[tuple]]:
    return [[point(v) for v in c["closure_vertices"]] for c in stratum["cells"]]


def density_of(stratum: dict) -> Poly | None:
    dens = stratum.get("density")
    if dens is None:
        return None
    return {tuple(item["exponents"]): Fraction(item["value"]) for item in dens["coefficients"]}


def chambers(doc: dict, k: int) -> list[dict]:
    return [st for st in doc["strata"] if st["dim"] == k]


def euler_characteristic(doc: dict) -> int:
    return sum((-1) ** affine_dim(c) for st in doc["strata"] for c in cells_of(st))


def check_stratification(doc: dict) -> list[str]:
    chi = euler_characteristic(doc)
    return [] if chi == 1 else [f"Euler characteristic {chi}, expected 1"]


def check_densities(doc: dict, n: int, k: int, volume: Fraction) -> list[str]:
    """Every chamber has a density of degree <= n - k, and they integrate to volume."""
    problems = []
    mass = Fraction(0)
    for st in chambers(doc, k):
        poly = density_of(st)
        if poly is None:
            problems.append(f"chamber {st['id']} has no density")
            continue
        deg = max((sum(e) for e, c in poly.items() if c != 0), default=0)
        if deg > n - k or st["density"]["degree"] > n - k:
            problems.append(f"chamber {st['id']} density degree {deg} exceeds {n - k}")
        for cell in cells_of(st):
            if affine_dim(cell) == k:
                mass += integrate_cell(poly, cell)
    if mass != volume:
        problems.append(f"DH mass {mass} != polytope volume {volume}")
    return problems


def chamber_points(doc: dict, k: int, rng) -> list[tuple[int, tuple]]:
    """One seeded rational point strictly inside a top cell of each chamber."""
    out = []
    for st in chambers(doc, k):
        tops = [c for c in cells_of(st) if affine_dim(c) == k]
        cell = tops[rng.randrange(len(tops))]
        simplices = triangulate(cell, k)
        simplex = simplices[rng.randrange(len(simplices))]
        weights = [Fraction(1 + rng.randrange(97)) for _ in simplex]
        total = sum(weights)
        x = tuple(
            sum(w * cell[i][j] for w, i in zip(weights, simplex)) / total for j in range(k)
        )
        out.append((st["id"], x))
    return out


# ---------------------------------------------------------------------------
# facts about the paper example and the other shipped inputs


PAPER_STRATA_BY_DIM = [7, 10, 4]
PAPER_DENSITIES = sorted(
    [
        {(1, 0): Fraction(1)},
        {(0, 0): Fraction(1)},
        {(0, 0): Fraction(4), (1, 0): Fraction(-1), (0, 1): Fraction(-1)},
        {(0, 0): Fraction(3), (0, 1): Fraction(-1)},
    ],
    key=lambda p: sorted(p.items()),
)


def check_paper_strata(doc: dict) -> list[str]:
    by_dim = [sum(1 for st in doc["strata"] if st["dim"] == d) for d in range(3)]
    if by_dim != PAPER_STRATA_BY_DIM:
        return [f"paper example strata by dimension {by_dim}, expected {PAPER_STRATA_BY_DIM}"]
    return []


def check_paper_densities(doc: dict) -> list[str]:
    found = sorted(
        ({e: c for e, c in (density_of(st) or {}).items() if c != 0} for st in chambers(doc, 2)),
        key=lambda p: sorted(p.items()),
    )
    return [] if found == PAPER_DENSITIES else ["paper example densities differ from x, 1, 4 - x - y, 3 - y"]


def check_svg(svg: bytes, doc: dict) -> list[str]:
    try:
        root = ET.fromstring(svg)
    except ET.ParseError as exc:
        return [f"SVG does not parse: {exc}"]
    dots = sum(1 for el in root.iter() if el.tag.endswith("circle"))
    points = sum(1 for st in doc["strata"] if st["dim"] == 0)
    return [] if dots == points else [f"SVG has {dots} dots for {points} point strata"]


def check_oracle(report: dict, sigmas: float = 4.0) -> list[str]:
    bad = [r for r in report["points"] if r["sigmas_off"] > sigmas]
    if not report["points"]:
        return ["oracle reported no points"]
    return [f"oracle {len(bad)} points beyond {sigmas} sigma"] if bad else []

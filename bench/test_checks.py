"""Self-test of the benchmark's correctness checks.

    python3 -m pytest -q bench/test_checks.py      (or: python3 bench/test_checks.py)

A correct document passes every check; three corruptions of it (a chamber
dropped, one density coefficient perturbed, one cell removed) must each fail
at least one check.
"""

from __future__ import annotations

import copy
import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402

# (input file, n, k, closed-form polytope volume)
CASES = [
    (HERE.parent / "inputs" / "simplex_sum.json", 2, 1, Fraction(2)),
    (HERE.parent / "inputs" / "paper_cp1xcp2.json", 3, 2, Fraction(9, 2)),
    (HERE / "inputs" / "strata-heavy" / "00_corpus_1005.json", 4, 3, None),
]


def _volume(path: Path) -> Fraction:
    manifest = json.loads((path.parent / "manifest.json").read_text())
    return Fraction(next(e["volume"] for e in manifest["instances"] if e["file"] == path.name))


def _document(path: Path) -> dict:
    from momstrat import density_polynomial, hamiltonian_stratification
    from momstrat.io import make_document, parse_input_file, serialize_document

    raw = path.read_bytes()
    action = parse_input_file(raw)
    s = hamiltonian_stratification(action)
    dens = {st.id: density_polynomial(action, s, st.id) for st in s.strata if st.dim == action.k}
    return checks.load(serialize_document(make_document(s, dens, raw_input=raw)))


def _problems(doc: dict, n: int, k: int, volume: Fraction) -> list[str]:
    return checks.check_stratification(doc) + checks.check_densities(doc, n, k, volume)


def _drop_chamber(doc: dict, k: int) -> dict:
    out = copy.deepcopy(doc)
    victim = next(st for st in out["strata"] if st["dim"] == k)
    out["strata"].remove(victim)
    return out


def _perturb_density(doc: dict, k: int) -> dict:
    out = copy.deepcopy(doc)
    coeff = next(st for st in out["strata"] if st["dim"] == k)["density"]["coefficients"][0]
    coeff["value"] = str(Fraction(coeff["value"]) + Fraction(1, 7))
    return out


def _remove_cell(doc: dict, k: int) -> dict:
    out = copy.deepcopy(doc)
    victim = next(st for st in out["strata"] if len(st["cells"]) > 1 or st["dim"] < k)
    victim["cells"].pop()
    if not victim["cells"]:
        out["strata"].remove(victim)
    return out


def test_checks_accept_correct_and_catch_corruptions():
    for path, n, k, volume in CASES:
        volume = volume if volume is not None else _volume(path)
        doc = _document(path)
        assert _problems(doc, n, k, volume) == [], path.name
        for corrupt in (_drop_chamber, _perturb_density, _remove_cell):
            assert _problems(corrupt(doc, k), n, k, volume), f"{path.name}: {corrupt.__name__} not caught"


def test_paper_facts():
    doc = _document(CASES[1][0])
    assert checks.check_paper_strata(doc) == []
    assert checks.check_paper_densities(doc) == []
    assert checks.check_paper_densities(_perturb_density(doc, 2))
    assert checks.check_paper_strata(_drop_chamber(doc, 2))


def test_exact_integration():
    # unit square split along its diagonal: int of x over it is 1/2, of x*y is 1/4
    square = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)), (Fraction(1), Fraction(1))]
    assert checks.integrate_cell({(1, 0): Fraction(1)}, square) == Fraction(1, 2)
    assert checks.integrate_cell({(1, 1): Fraction(1)}, square) == Fraction(1, 4)
    cube = [tuple(Fraction(c) for c in (a, b, d)) for a in (0, 2) for b in (0, 2) for d in (0, 2)]
    assert checks.integrate_cell({(0, 0, 0): Fraction(1)}, cube) == 8
    assert checks.integrate_cell({(2, 0, 0): Fraction(1)}, cube) == Fraction(32, 3)


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"{name}: ok")

"""Memoization lives on the objects it describes, never in module tables.

Each expensive derived result (a polytope's face lattice, a cover's
refinement, incidence table and validation, an action's projected faces and
fiber charts) is computed once per object and dropped with it; these tests
pin that down by counting calls.
"""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import momstrat
from momstrat import (
    ToricAction,
    compute_d_field,
    cover as cover_module,
    density_polynomial,
    hamiltonian_stratification,
    mat,
    mc_fiber_volume,
    momentum_cover,
    polyhedron,
    stratify,
    toric,
    validate,
)
from momstrat.polyhedron import RelOpenCell
from momstrat.cli import main
from support import paper_action, prism_polytope

INPUTS = Path(__file__).resolve().parent.parent / "inputs"
SRC = Path(momstrat.__file__).resolve().parent.parent


def _momstrat_modules():
    return [importlib.import_module(f"momstrat.{m.name}") for m in pkgutil.iter_modules(momstrat.__path__)]


def _count_calls(monkeypatch, module, name) -> list:
    """Wrap module.name in every momstrat namespace that binds it; the
    returned list grows by one entry per call."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod in [momstrat, *_momstrat_modules()]:
        for key, value in list(vars(mod).items()):
            if value is original:
                monkeypatch.setattr(mod, key, counted)
    return calls


def test_no_module_level_memo_tables():
    for mod in _momstrat_modules():
        cached = [key for key, value in vars(mod).items() if hasattr(value, "cache_info")]
        assert not cached, f"{mod.__name__} holds memo tables: {cached}"


def test_stratify_cover_refines_once(monkeypatch):
    cover = momentum_cover(paper_action())
    calls = _count_calls(monkeypatch, polyhedron, "_refine_engine")
    stratify(cover)
    assert len(calls) == 1


def test_validation_and_d_field_read_the_incidence_table(monkeypatch):
    cover = momentum_cover(paper_action())
    assert cover.pieces  # refined before counting: the refinement tests geometry itself
    within = _count_calls(monkeypatch, polyhedron, "_within_closure")
    signatures = _count_calls(monkeypatch, cover_module, "membership_signature")
    conversions = []
    original = RelOpenCell._int_point
    monkeypatch.setattr(RelOpenCell, "_int_point", lambda cell, x: conversions.append(x) or original(cell, x))
    assert validate(cover).valid
    assert len(compute_d_field(cover)) == len(cover.pieces)
    assert (within, signatures, conversions) == ([], [], [])


def test_hamiltonian_stratification_refines_once(monkeypatch):
    action = paper_action()
    calls = _count_calls(monkeypatch, polyhedron, "_refine_engine")
    first = hamiltonian_stratification(action)
    assert hamiltonian_stratification(action) == first  # the action keeps its cover
    assert len(calls) == 1


def test_cli_stratify_cover_file_refines_once(monkeypatch, tmp_path):
    calls = _count_calls(monkeypatch, polyhedron, "_refine_engine")
    assert main(["stratify", str(INPUTS / "square_cover.json"), "--out", str(tmp_path / "s.json")]) == 0
    assert len(calls) == 1  # validate, then stratify, on one refinement


def test_face_lattice_built_once_per_polytope(monkeypatch):
    calls = _count_calls(monkeypatch, polyhedron, "face_lattice")
    action = ToricAction.make(prism_polytope(), mat([[1, 0], [1, 0], [0, 1]]))
    hamiltonian_stratification(action)
    assert action.is_delzant()
    assert len(calls) == 1


def test_fiber_charts_built_once_per_action(monkeypatch):
    action = paper_action()
    s = hamiltonian_stratification(action)
    calls = _count_calls(monkeypatch, toric, "fiber_vertex_charts")
    tops = [st.id for st in s.strata if st.dim == action.k]
    for stratum_id in tops:
        density_polynomial(action, s, stratum_id)
    mc_fiber_volume(action, ["1/2", 1], trials=100, seed=0)  # reads the same lattice
    assert len(tops) == 4
    assert len(calls) == 1


def test_import_leaves_numpy_out():
    code = "import sys, momstrat, momstrat.cli; sys.exit('numpy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr or "numpy imported by `import momstrat`"

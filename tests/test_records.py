"""The public types keep the behaviour they had as frozen dataclasses.

Plain records are NamedTuples; the five values that cache derived data share
``linalg.FrozenValue``.  Each fixed instance below must print exactly as the
dataclass did; the expected strings are that repr.
"""

from fractions import Fraction
from functools import cached_property

import pytest

from momstrat import HPolytope, PiecewiseAffineCover, ToricAction, hamiltonian_stratification, mat, stratify, vec
from momstrat.cover import MemberReport, ValidationReport
from momstrat.dh import DensityPoly, FiberVolume, MCVolume
from momstrat.io import StratificationDocument
from momstrat.linalg import AffineSubspace, FrozenValue, integer_row_basis
from momstrat.polyhedron import Face, FaceLattice, RelOpenCell, cell_from_closure_points
from momstrat.stratifier import (
    FrontierReport,
    FrontierViolation,
    Stratification,
    Stratum,
    TangentMismatch,
    TangentReport,
)
from momstrat.toric import IsotropyData
from support import paper_action

SEGMENT = "HPolytope(A=((Fraction(-1, 1),), (Fraction(1, 1),)), b=(Fraction(0, 1), Fraction(2, 1)))"
CARRIER = "AffineSubspace(base=(Fraction(0, 1),), directions=((Fraction(1, 1),),), ambient_dim=1)"
CELL = (
    f"RelOpenCell(carrier={CARRIER}, closed_A=((Fraction(-1, 1),), (Fraction(1, 1),)), "
    "closed_b=(Fraction(0, 1), Fraction(2, 1)), excluded_faces=((0,), (1,)), "
    "closure_vertices=((Fraction(0, 1),), (Fraction(2, 1),)))"
)
MEMBER = (
    "MemberReport(member_index=0, affine_open=True, closure_covered=False, covering_members=(1,), "
    "uncovered_witness=(Fraction(1, 2),))"
)
POLY = "DensityPoly(stratum_id=0, coefficients=(((1,), Fraction(2, 1)),), degree=1)"
FACE = "Face(active_set=(0,), dim=0, vertex_ids=(1,), vertex_coords=((Fraction(2, 1),),))"
STRATUM = (
    f"Stratum(id=0, direction=((Fraction(1, 1),),), carrier={CARRIER}, cells=({CELL},), dim=1, "
    "adjacency=(), integer_direction=None)"
)
STRATIFICATION = f"Stratification(strata=({STRATUM},), frontier=(), ambient_dim=1)"
VIOLATION = "FrontierViolation(lower_id=0, upper_id=1, reason='reason', witness=None)"
MISMATCH = "TangentMismatch(stratum_id=0, point=(Fraction(1, 1),), expected=((Fraction(1, 1),),), found=())"


def _segment() -> HPolytope:
    return HPolytope.from_rows([[-1], [1]], [0, 2])


def _cell() -> RelOpenCell:
    return cell_from_closure_points([vec([0]), vec([2])])


def caching_values() -> dict:
    """One fixed instance of each class on ``FrozenValue``, with its expected repr."""
    return {
        AffineSubspace: (
            AffineSubspace.from_points([vec([0, 1]), vec([1, 2])]),
            "AffineSubspace(base=(Fraction(0, 1), Fraction(1, 1)), directions=((Fraction(1, 1), Fraction(1, 1)),), "
            "ambient_dim=2)",
        ),
        HPolytope: (_segment(), SEGMENT),
        RelOpenCell: (_cell(), CELL),
        PiecewiseAffineCover: (
            PiecewiseAffineCover.make([_cell()]),
            f"PiecewiseAffineCover(members=({CELL},), ambient_dim=1)",
        ),
        ToricAction: (
            ToricAction.make(_segment(), mat([[1]]), "segment"),
            f"ToricAction(polytope={SEGMENT}, B=((Fraction(1, 1),),), name='segment')",
        ),
    }


def records() -> list:
    """One fixed instance of each NamedTuple record, with its expected repr."""
    member = MemberReport(0, True, False, (1,), vec(["1/2"]))
    poly = DensityPoly(0, (((1,), Fraction(2)),), 1)
    face = Face((0,), 0, (1,), mat([[2]]))
    stratum = Stratum(0, mat([[1]]), _cell().carrier, (_cell(),), 1, ())
    strat = Stratification((stratum,), (), 1)
    violation = FrontierViolation(0, 1, "reason")
    mismatch = TangentMismatch(0, vec([1]), mat([[1]]), ())
    return [
        (member, MEMBER),
        (ValidationReport(False, (member,)), f"ValidationReport(valid=False, member_reports=({MEMBER},))"),
        (FiberVolume(vec([1]), Fraction(1, 2)), "FiberVolume(point=(Fraction(1, 1),), volume=Fraction(1, 2))"),
        (poly, POLY),
        (
            MCVolume(vec([1]), 0.5, 0.25, 100, 7),
            "MCVolume(point=(Fraction(1, 1),), estimate=0.5, std_error=0.25, trials=100, seed=7)",
        ),
        (
            StratificationDocument(strat, ((0, poly),), (("k", "v"),)),
            f"StratificationDocument(stratification={STRATIFICATION}, densities=((0, {POLY}),), "
            "provenance=(('k', 'v'),))",
        ),
        (face, FACE),
        (FaceLattice((face,), mat([[2]])), f"FaceLattice(faces=({FACE},), vertex_list=((Fraction(2, 1),),))"),
        (stratum, STRATUM),
        (strat, STRATIFICATION),
        (violation, VIOLATION),
        (FrontierReport((violation,)), f"FrontierReport(violations=({VIOLATION},))"),
        (mismatch, MISMATCH),
        (TangentReport(1, (mismatch,)), f"TangentReport(checked=1, mismatches=({MISMATCH},))"),
        (
            IsotropyData((0,), 0, mat([[1]]), ()),
            "IsotropyData(face_active_set=(0,), face_dim=0, isotropy_basis=((Fraction(1, 1),),), annihilator=())",
        ),
    ]


def _fields(obj) -> tuple:
    return tuple(getattr(obj, f) for f in type(obj)._fields)


@pytest.mark.parametrize("cls", list(caching_values()), ids=lambda c: c.__name__)
def test_caching_value_semantics(cls):
    obj, expected_repr = caching_values()[cls]
    fields = _fields(obj)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    twin = cls(*fields)
    assert twin == obj and hash(twin) == hash(obj) == hash(fields)
    assert twin is not obj and not twin != obj
    other = type("Other", (FrozenValue,), {"__annotations__": dict.fromkeys(cls._fields, object)})(*fields)
    assert other != obj and obj != other
    assert repr(obj) == expected_repr


@pytest.mark.parametrize("cls", list(caching_values()), ids=lambda c: c.__name__)
def test_caching_value_computes_each_cached_property_once(cls, monkeypatch):
    names = [n for n, v in vars(cls).items() if isinstance(v, cached_property)]
    assert names
    obj, expected_repr = caching_values()[cls]
    calls = []
    for name in names:
        prop = vars(cls)[name]
        monkeypatch.setattr(prop, "func", lambda self, f=prop.func, n=name: calls.append(n) or f(self))
    for name in names:
        first = getattr(obj, name)
        assert getattr(obj, name) is first
        assert vars(obj)[name] is first
    assert sorted(calls) == sorted(names)
    assert repr(obj) == expected_repr  # the caches are not fields


def test_caching_value_takes_its_fields_positionally_with_defaults():
    polytope, b = _segment(), mat([[1]])
    assert ToricAction(polytope, b) == ToricAction(polytope, b, "")
    with pytest.raises(TypeError):
        ToricAction(polytope)
    with pytest.raises(TypeError):
        ToricAction(polytope, b, "", None)


@pytest.mark.parametrize("index", range(len(records())))
def test_record_repr_and_fields(index):
    obj, expected_repr = records()[index]
    assert repr(obj) == expected_repr
    with pytest.raises(AttributeError):
        setattr(obj, type(obj)._fields[0], None)
    assert obj == type(obj)(*obj) and hash(obj) == hash(tuple(obj))


def test_hamiltonian_stratification_replaces_only_the_integer_direction():
    action = paper_action()
    plain = stratify(action.cover)
    s = hamiltonian_stratification(action)
    assert (s.frontier, s.ambient_dim) == (plain.frontier, plain.ambient_dim)
    for st, base in zip(s.strata, plain.strata, strict=True):
        assert type(st) is Stratum and base.integer_direction is None
        assert st.integer_direction == integer_row_basis(base.direction)
        assert st == base._replace(integer_direction=st.integer_direction)

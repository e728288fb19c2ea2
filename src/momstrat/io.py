"""JSON input/output.

Rationals are serialized as exact "p/q" strings, never floats.  Output files
are deterministic: canonical field ordering, sorted keys, no timestamps, and
the provenance block carries only the input hash and tool version.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quoted
from typing import NamedTuple

from . import __version__
from .cover import PiecewiseAffineCover, ValidationReport
from .dh import DensityPoly
from .errors import MomstratError, ParseError
from .linalg import AffineSubspace, Mat, Vec, frac, mat
from .polyhedron import HPolytope, RelOpenCell, cell_from_closure_points
from .stratifier import Stratification, Stratum
from .toric import ToricAction

SCHEMA_STRATIFICATION = "momstrat.stratification/1"


def _vec2j(v: Vec) -> list[str]:
    return [str(x) for x in v]


def _mat2j(m: Mat) -> list[list[str]]:
    return [_vec2j(row) for row in m]


def _int(x) -> int:
    """A JSON integer; booleans and floats are refused, never converted."""
    if type(x) is not int:
        raise ParseError(f"expected an integer, got {x!r}")
    return x


def _rat(x) -> Fraction:
    """An exact rational: a JSON integer or a "p/q" string (``frac``)."""
    if not isinstance(x, str):
        return Fraction(_int(x))
    try:
        return frac(x)
    except ValueError:
        raise ParseError(f"not an exact rational: {x!r}") from None


def _nonempty(items, what: str):
    if not items:
        raise ParseError(f"{what} must not be empty")
    return items


def _j2vec(data) -> Vec:
    return tuple(_rat(x) for x in data)


def _sized(v, n: int, what: str):
    """v, after checking that it has n coordinates."""
    if len(v) != n:
        raise ParseError(f"{what} has {len(v)} coordinates, not {n}")
    return v


def _j2rows(data, n: int, what: str) -> Mat:
    """Rows of exact rationals, each checked to have n coordinates."""
    return tuple(_sized(_j2vec(row), n, what) for row in data)


def input_hash(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


# ---------------------------------------------------------------------------
# toric spec files


def parse_toric_spec(data: dict) -> ToricAction:
    try:
        n = _int(data["ambient_dim"])
        rows = []
        offsets = []
        for ineq in _nonempty(data["inequalities"], "inequalities"):
            normal = [_int(c) for c in ineq["normal"]]
            if len(normal) != n:
                raise ParseError("inequality normal has wrong dimension")
            rows.append(normal)
            offsets.append(_rat(ineq["offset"]))
        b = [[_int(c) for c in row] for row in data["subtorus_matrix"]]
        name = data.get("name", "")
        if type(name) is not str:
            raise ParseError(f"name must be a string, got {name!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed toric spec: {exc}") from exc
    polytope = HPolytope.from_rows(rows, offsets)
    try:
        return ToricAction.make(polytope, mat(b), name)
    except MomstratError as exc:
        raise ParseError(f"invalid toric spec: {exc}") from exc


# ---------------------------------------------------------------------------
# cover files


def parse_cover(data: dict) -> PiecewiseAffineCover:
    """The cover's members; ``support_closure`` is checked but not used, since
    the members alone determine the covered set."""
    try:
        n = _int(data["ambient_dim"])
        members = [
            cell_from_closure_points(
                _j2rows(_nonempty(m["closure_vertices"], "closure_vertices"), n, "closure vertex")
            )
            for m in data["members"]
        ]
        for poly in data.get("support_closure", []):
            _j2rows(_nonempty(poly["vertices"], "vertices"), n, "support_closure vertex")
    except (KeyError, TypeError, ValueError, MomstratError) as exc:
        raise ParseError(f"malformed cover file: {exc}") from exc
    try:
        return PiecewiseAffineCover.make(members)
    except MomstratError as exc:
        raise ParseError(f"invalid cover: {exc}") from exc


def parse_input_file(raw: bytes):
    """Dispatch on content: toric spec or cover file."""
    try:
        data = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError("top-level JSON value must be an object")
    if "subtorus_matrix" in data:
        return parse_toric_spec(data)
    if "members" in data:
        return parse_cover(data)
    raise ParseError("input is neither a toric spec nor a cover file")


# ---------------------------------------------------------------------------
# stratification files


class StratificationDocument(NamedTuple):
    stratification: Stratification
    densities: tuple[tuple[int, DensityPoly], ...]  # (stratum id, poly), sorted
    provenance: tuple[tuple[str, str], ...]  # sorted key/value pairs

    def density_for(self, stratum_id: int) -> DensityPoly | None:
        for sid, poly in self.densities:
            if sid == stratum_id:
                return poly
        return None


def make_document(
    s: Stratification,
    densities: dict[int, DensityPoly] | None = None,
    raw_input: bytes = b"",
    extra_provenance: dict[str, str] | None = None,
) -> StratificationDocument:
    entries = {
        "input_sha256": input_hash(raw_input),
        "tool_version": __version__,
    }
    entries.update(extra_provenance or {})
    dens = tuple(sorted((densities or {}).items()))
    return StratificationDocument(s, dens, tuple(sorted(entries.items())))


def _j2subspace(data, n: int) -> AffineSubspace:
    if _int(data["ambient_dim"]) != n:
        raise ParseError(f"carrier of ambient dimension {data['ambient_dim']} in a document of {n}")
    base = _sized(_j2vec(data["base"]), n, "carrier base")
    return AffineSubspace(base, _j2rows(data["directions"], n, "carrier direction"), n)


def _j2cell(data, n: int) -> RelOpenCell:
    carrier = _j2subspace(data["carrier"], n)
    a = _j2rows(data["inequalities"]["A"], carrier.dim, "cell inequality row")
    b = _sized(_j2vec(data["inequalities"]["b"]), len(a), "cell offset vector b")
    excluded = tuple(tuple(_int(i) for i in f) for f in data["excluded_faces"])
    if not all(0 <= i < len(a) for f in excluded for i in f):
        raise ParseError(f"excluded faces {[list(f) for f in excluded]} name no row of a cell of {len(a)}")
    verts = _j2rows(_nonempty(data["closure_vertices"], "closure_vertices"), n, "closure vertex")
    cell = cell_from_closure_points(verts)
    if cell.carrier != carrier:
        raise ParseError(f"closure vertices {_mat2j(verts)} do not span their cell's carrier")
    if cell != RelOpenCell(carrier, a, b, excluded, verts):
        raise ParseError(f"the cell with closure vertices {_mat2j(verts)} is not their canonical cell")
    return cell


def _exponents(data, n: int) -> tuple[int, ...]:
    expo = tuple(_int(i) for i in data)
    if len(expo) != n or any(e < 0 for e in expo):
        raise ParseError(f"density exponents {list(expo)} are not {n} nonnegative integers")
    return expo


def _j2density(data, n: int, stratum_id: int) -> DensityPoly:
    """A stratum's density as ``dh`` writes it: its own stratum id, distinct
    exponent vectors, nonzero values and the terms' largest total degree."""
    terms = tuple((_exponents(item["exponents"], n), _rat(item["value"])) for item in data["coefficients"])
    poly = DensityPoly(_int(data["stratum_id"]), terms, _int(data["degree"]))
    exponents = {e for e, _ in terms}
    if poly.stratum_id != stratum_id or len(exponents) < len(terms) or not all(c for _, c in terms):
        raise ParseError(f"the density of stratum {stratum_id} names another, repeats exponents or has a zero value")
    if poly.degree != max(map(sum, exponents), default=0):
        raise ParseError(f"the density of stratum {stratum_id} has degree {poly.degree}, not that of its terms")
    return poly


def parse_document(raw: bytes) -> StratificationDocument:
    try:
        data = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or data.get("schema") != SCHEMA_STRATIFICATION:
        raise ParseError("unknown or missing stratification schema")
    try:
        n = _int(data["ambient_dim"])
        strata = []
        densities = {}
        dims = {}  # stratum id -> dimension
        for entry in _nonempty(data["strata"], "strata"):
            integer_direction = None
            if "integer_direction" in entry:
                integer_direction = _j2rows(entry["integer_direction"], n, "integer direction")
            st = Stratum(
                _int(entry["id"]),
                _j2rows(entry["direction"], n, "stratum direction"),
                _j2subspace(entry["carrier"], n),
                tuple(_j2cell(c, n) for c in _nonempty(entry["cells"], "cells")),
                _int(entry["dim"]),
                tuple(tuple(_int(i) for i in e) for e in entry["adjacency"]),
                integer_direction,
            )
            if st.id in dims:
                raise ParseError(f"stratum id {st.id} is used twice")
            top = max(c.dim for c in st.cells)
            if not st.dim == len(st.direction) == st.carrier.dim == top:
                raise ParseError(
                    f"stratum {st.id} has dimension {st.dim}, {len(st.direction)} direction rows,"
                    f" a carrier of dimension {st.carrier.dim} and cells of dimension up to {top}"
                )
            if st.direction != st.carrier.directions:
                raise ParseError(f"stratum {st.id} has a direction other than its carrier's directions")
            if not all(len(e) == 2 and all(0 <= i < len(st.cells) for i in e) for e in st.adjacency):
                raise ParseError(f"stratum {st.id} has adjacency entries that are not pairs of its cells")
            dims[st.id] = st.dim
            strata.append(st)
            if "density" in entry:
                densities[st.id] = _j2density(entry["density"], n, st.id)
        frontier = tuple(tuple(_int(i) for i in p) for p in data["frontier"])
        for pair in frontier:
            if len(pair) != 2 or not all(i in dims for i in pair):
                raise ParseError(f"frontier pair {list(pair)} does not name two strata")
            lower, upper = pair
            if dims[lower] >= dims[upper]:
                raise ParseError(
                    f"frontier pair {list(pair)} puts a stratum of dimension {dims[lower]}"
                    f" in the closure of one of dimension {dims[upper]}"
                )
        s = Stratification(tuple(strata), frontier, n)
        if not isinstance(data["provenance"], dict):
            raise ParseError("provenance must be an object")
        prov = tuple(sorted((str(k), str(v)) for k, v in data["provenance"].items()))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed stratification file: {exc}") from exc
    return StratificationDocument(s, tuple(sorted(densities.items())), prov)


def dumps(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# the document writer: the text of ``dumps`` of the document's JSON tree, in one pass from the
# records, keys in sorted order.  ``ind`` is a newline and the indentation of the value's last line.


def _join(items: list[str], ind: str, brackets: str = "[]") -> str:
    inner = ind + "  "
    return brackets[0] + inner + ("," + inner).join(items) + ind + brackets[1] if items else brackets


def _list(v, ind: str, fmt: str = '"%s"') -> str:
    return _join([fmt % x for x in v], ind)


def _rows(m, ind: str, fmt: str = '"%s"') -> str:
    return _join([_list(row, ind + "  ", fmt) for row in m], ind)


def _subspace_text(s: AffineSubspace, ind: str) -> str:
    i = ind + "  "
    fields = ['"ambient_dim": %d' % s.ambient_dim, '"base": ' + _list(s.base, i)]
    return _join(fields + ['"directions": ' + _rows(s.directions, i)], ind, "{}")


def _cell_text(c: RelOpenCell, ind: str) -> str:
    i, j = ind + "  ", ind + "    "
    fields = ['"carrier": ' + _subspace_text(c.carrier, i), '"closure_vertices": ' + _rows(c.closure_vertices, i)]
    rows = _join(['"A": ' + _rows(c.closed_A, j), '"b": ' + _list(c.closed_b, j)], i, "{}")
    fields += ['"excluded_faces": ' + _rows(c.excluded_faces, i, "%d"), '"inequalities": ' + rows]
    return _join(fields, ind, "{}")


def _density_text(poly: DensityPoly, ind: str) -> str:
    i, j = ind + "  ", ind + "    "
    terms = [_join(['"exponents": ' + _list(e, j + "  ", "%d"), '"value": "%s"' % c], j, "{}") for e, c in poly.coefficients]
    fields = ['"coefficients": ' + _join(terms, i), '"degree": %d' % poly.degree, '"stratum_id": %d' % poly.stratum_id]
    return _join(fields, ind, "{}")


def _stratum_text(st: Stratum, poly: DensityPoly | None, ind: str) -> str:
    i = ind + "  "
    fields = ['"adjacency": ' + _rows(st.adjacency, i, "%d"), '"carrier": ' + _subspace_text(st.carrier, i)]
    fields.append('"cells": ' + _join([_cell_text(c, i + "  ") for c in st.cells], i))
    if poly is not None:
        fields.append('"density": ' + _density_text(poly, i))
    fields += ['"dim": %d' % st.dim, '"direction": ' + _rows(st.direction, i), '"id": %d' % st.id]
    if st.integer_direction is not None:
        fields.append('"integer_direction": ' + _rows(st.integer_direction, i, "%d"))
    return _join(fields, ind, "{}")


def serialize_document(doc: StratificationDocument) -> str:
    """The document as ``dumps`` writes its JSON tree (docs/formats.md)."""
    s, polys, i = doc.stratification, dict(doc.densities), "\n  "
    prov = [_quoted(k) + ": " + _quoted(v) for k, v in sorted(dict(doc.provenance).items())]
    strata = [_stratum_text(st, polys.get(st.id), i + "  ") for st in s.strata]
    fields = ['"ambient_dim": %d' % s.ambient_dim, '"frontier": ' + _rows(s.frontier, i, "%d")]
    fields += ['"provenance": ' + _join(prov, i, "{}"), '"schema": ' + _quoted(SCHEMA_STRATIFICATION)]
    return _join(fields + ['"strata": ' + _join(strata, i)], "\n", "{}") + "\n"


def validation_report_to_json(report: ValidationReport) -> dict:
    return {
        "valid": report.valid,
        "members": [
            {
                "index": r.member_index,
                "affine_open": r.affine_open,
                "closure_covered": r.closure_covered,
                "covering_members": list(r.covering_members),
                "uncovered_witness": _vec2j(r.uncovered_witness) if r.uncovered_witness else None,
            }
            for r in report.member_reports
        ],
    }

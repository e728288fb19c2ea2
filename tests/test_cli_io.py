import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from momstrat import density_polynomial, hamiltonian_stratification, stratify
from momstrat.cli import main
from momstrat.errors import ParseError
from momstrat.io import (
    _rat,
    make_document,
    parse_document,
    parse_input_file,
    serialize_document,
)
from support import corpus, document_to_json, paper_action, stratification_for
from test_output_digests import COMMANDS, DIGESTS, ROOT

INPUTS = Path(__file__).resolve().parent.parent / "inputs"


def run_cli(*argv):
    return main(list(argv))


def test_parse_toric_spec_file():
    raw = (INPUTS / "paper_cp1xcp2.json").read_bytes()
    action = parse_input_file(raw)
    assert action.n == 3 and action.k == 2
    assert action.name == "paper_cp1xcp2"


def test_parse_cover_file():
    raw = (INPUTS / "counterexample_cover.json").read_bytes()
    cover = parse_input_file(raw)
    assert len(cover.members) == 3


def test_document_round_trip_bit_identical():
    a = paper_action()
    s = hamiltonian_stratification(a)
    dens = {st.id: density_polynomial(a, s, st.id) for st in s.strata if st.dim == 2}
    doc = make_document(s, dens, raw_input=b"unit-test")
    text = serialize_document(doc)
    parsed = parse_document(text.encode("utf-8"))
    assert parsed == doc
    assert serialize_document(parsed) == text


def _densities(a, s):
    return {st.id: density_polynomial(a, s, st.id, seed=0) for st in s.strata if st.dim == a.k}


def test_serialized_document_is_the_json_dump_of_its_tree():
    """The one-pass writer gives the text of ``json.dumps`` of the reference
    document tree, on the corpus with and without densities, the paper
    example, a cover document with no integer directions, an empty frontier
    and provenance strings that JSON must escape."""
    docs = []
    for a in corpus():
        s = stratification_for(a)
        docs += [make_document(s, raw_input=b"corpus"), make_document(s, _densities(a, s), raw_input=b"corpus")]
    a = paper_action()
    s = hamiltonian_stratification(a)
    # "formal!" sorts after "formal", but its quoted form sorts first
    odd = {"formal": "true", "formal!": "1", 'k\u00e9y "[a, b]"\\\n\u2603': 'v\u00e0lue, "q" \\ [\n\U0001d11e'}
    escaped = make_document(s, raw_input=b"paper", extra_provenance=odd)
    no_frontier = make_document(s._replace(frontier=()), raw_input=b"paper")
    raw = (INPUTS / "square_cover.json").read_bytes()
    cover_doc = make_document(stratify(parse_input_file(raw)), raw_input=raw)
    assert all(st.integer_direction is None for st in cover_doc.stratification.strata)
    docs += [make_document(s, _densities(a, s), raw_input=b"paper"), escaped, no_frontier, cover_doc]
    for doc in docs:
        text = serialize_document(doc)
        assert text == json.dumps(document_to_json(doc), indent=2, sort_keys=True) + "\n"
    assert '"frontier": [],' in serialize_document(no_frontier)
    text = serialize_document(escaped)
    assert text.isascii() and serialize_document(parse_document(text.encode())) == text


@pytest.mark.parametrize(
    "path, command",
    [key for key, (code, _) in DIGESTS.items() if code == 0 and key[1] != "validate-cover"],
    ids=lambda v: v,
)
def test_shipped_document_round_trip_bit_identical(capsys, path, command):
    """Every shipped ``stratify`` and ``dh --seed 0`` document passes the
    document checks and re-serializes byte for byte."""
    assert main([command, str(ROOT / path), *COMMANDS[command]]) == 0
    text = capsys.readouterr().out
    assert serialize_document(parse_document(text.encode("utf-8"))) == text


def test_cli_stratify_paper_golden(tmp_path):
    out = tmp_path / "strat.json"
    code = run_cli("stratify", str(INPUTS / "paper_cp1xcp2.json"), "--out", str(out))
    assert code == 0
    data = json.loads(out.read_text())
    assert Counter(st["dim"] for st in data["strata"]) == Counter({0: 7, 1: 10, 2: 4})
    blue = [
        st
        for st in data["strata"]
        if st["dim"] == 0 and st["cells"][0]["closure_vertices"] == [["1", "2"]]
    ]
    assert len(blue) == 1


def test_cli_stratify_square_identity(tmp_path):
    out = tmp_path / "strat.json"
    assert run_cli("stratify", str(INPUTS / "square_identity.json"), "--out", str(out)) == 0
    data = json.loads(out.read_text())
    assert len(data["strata"]) == 9


def test_cli_stratify_simplex_sum(tmp_path):
    out = tmp_path / "strat.json"
    assert run_cli("stratify", str(INPUTS / "simplex_sum.json"), "--out", str(out)) == 0
    data = json.loads(out.read_text())
    assert len(data["strata"]) == 3


def test_cli_stratify_valid_cover_file(tmp_path):
    out = tmp_path / "strat.json"
    assert run_cli("validate-cover", str(INPUTS / "square_cover.json"), "--out", str(tmp_path / "v.json")) == 0
    assert run_cli("stratify", str(INPUTS / "square_cover.json"), "--out", str(out)) == 0
    data = json.loads(out.read_text())
    assert len(data["strata"]) == 9


def test_cli_dh_paper_densities(tmp_path):
    out = tmp_path / "dh.json"
    assert run_cli("dh", str(INPUTS / "paper_cp1xcp2.json"), "--out", str(out)) == 0
    data = json.loads(out.read_text())
    densities = {}
    for st in data["strata"]:
        if "density" in st:
            coeffs = {
                tuple(item["exponents"]): item["value"]
                for item in st["density"]["coefficients"]
            }
            densities[st["id"]] = coeffs
    assert len(densities) == 4
    polys = sorted(tuple(sorted(c.items())) for c in densities.values())
    assert polys == sorted(
        [
            tuple(sorted({(1, 0): "1"}.items())),
            tuple(sorted({(0, 0): "1"}.items())),
            tuple(sorted({(0, 0): "4", (1, 0): "-1", (0, 1): "-1"}.items())),
            tuple(sorted({(0, 0): "3", (0, 1): "-1"}.items())),
        ]
    )


def test_cli_dh_simplex_sum(tmp_path):
    out = tmp_path / "dh.json"
    assert run_cli("dh", str(INPUTS / "simplex_sum.json"), "--out", str(out)) == 0
    data = json.loads(out.read_text())
    tops = [st for st in data["strata"] if "density" in st]
    assert len(tops) == 1
    assert tops[0]["density"]["coefficients"] == [{"exponents": [1], "value": "1"}]


def test_cli_dh_identity_constant(tmp_path):
    out = tmp_path / "dh.json"
    assert run_cli("dh", str(INPUTS / "square_identity.json"), "--out", str(out)) == 0
    data = json.loads(out.read_text())
    tops = [st for st in data["strata"] if "density" in st]
    assert len(tops) == 1
    assert tops[0]["density"]["coefficients"] == [{"exponents": [0, 0], "value": "1"}]


def test_cli_determinism_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    run_cli("dh", str(INPUTS / "paper_cp1xcp2.json"), "--seed", "5", "--out", str(out1))
    run_cli("dh", str(INPUTS / "paper_cp1xcp2.json"), "--seed", "5", "--out", str(out2))
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_determinism_across_processes(tmp_path):
    # fresh interpreters with different hash seeds must agree byte for byte
    outputs = []
    for hash_seed in ("1", "2"):
        out = tmp_path / f"proc_{hash_seed}.json"
        env = dict(**__import__("os").environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "momstrat.cli",
                "dh",
                str(INPUTS / "paper_cp1xcp2.json"),
                "--seed",
                "5",
                "--out",
                str(out),
            ],
            env=env,
            capture_output=True,
        )
        assert proc.returncode == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_cli_exit_codes(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("stratify", str(bad)) == 2
    assert run_cli("stratify", str(tmp_path / "missing.json")) == 2
    assert run_cli("validate-cover", str(INPUTS / "counterexample_cover.json"), "--out", str(tmp_path / "r.json")) == 3
    assert run_cli("stratify", str(INPUTS / "counterexample_cover.json")) == 3


@pytest.mark.parametrize("command", ["stratify", "render", "validate-cover"])
def test_cli_directory_input_exits_2_without_traceback(tmp_path, command):
    argv = [sys.executable, "-m", "momstrat.cli", command, str(tmp_path)]
    proc = subprocess.run(argv, capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("parse error:")


def test_cli_render_paper(tmp_path):
    strat = tmp_path / "strat.json"
    run_cli("dh", str(INPUTS / "paper_cp1xcp2.json"), "--out", str(strat))
    svg = tmp_path / "out.svg"
    assert run_cli("render", str(strat), "--labels", "--out", str(svg)) == 0
    text = svg.read_text()
    assert text.startswith("<?xml")
    assert text.count("<circle") == 7
    assert text.count("<line") == 10
    assert text.count("<polygon") == 4
    assert "4 - x - y" in text and "3 - y" in text
    # determinism
    svg2 = tmp_path / "out2.svg"
    run_cli("render", str(strat), "--labels", "--out", str(svg2))
    assert svg.read_bytes() == svg2.read_bytes()


def test_cli_render_interval(tmp_path):
    strat = tmp_path / "strat.json"
    run_cli("stratify", str(INPUTS / "simplex_sum.json"), "--out", str(strat))
    svg = tmp_path / "out.svg"
    assert run_cli("render", str(strat), "--out", str(svg)) == 0
    assert svg.read_text().count("<circle") == 2


def test_cli_render_unsupported_dimension(tmp_path):
    spec = {
        "name": "cube_identity",
        "ambient_dim": 3,
        "inequalities": [
            {"normal": [-1, 0, 0], "offset": "0"},
            {"normal": [1, 0, 0], "offset": "1"},
            {"normal": [0, -1, 0], "offset": "0"},
            {"normal": [0, 1, 0], "offset": "1"},
            {"normal": [0, 0, -1], "offset": "0"},
            {"normal": [0, 0, 1], "offset": "1"},
        ],
        "subtorus_matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    }
    path = tmp_path / "cube.json"
    path.write_text(json.dumps(spec))
    strat = tmp_path / "strat.json"
    assert run_cli("stratify", str(path), "--out", str(strat)) == 0
    assert run_cli("render", str(strat)) == 6


def _renderable_inputs():
    """Toric specs with k <= 2 under inputs/ and bench/inputs/."""
    bench = INPUTS.parent / "bench" / "inputs"
    for path in sorted(INPUTS.glob("*.json")) + sorted(bench.glob("*/[0-9]*.json")):
        data = json.loads(path.read_text())
        if "subtorus_matrix" in data and len(data["subtorus_matrix"][0]) <= 2:
            yield pytest.param(path, id=path.name)


@pytest.mark.parametrize("path", list(_renderable_inputs()))
def test_cli_render_every_planar_input(tmp_path, path):
    # a stratum may hold pieces of lower dimension glued into it (corpus 1008 has
    # some); only the chambers' 2-dimensional cells are drawn as polygons
    for command in ("stratify", "dh"):
        doc = tmp_path / f"{command}.json"
        assert run_cli(command, str(path), "--seed", "0", "--out", str(doc)) == 0
        strata = json.loads(doc.read_text())["strata"]
        chamber_cells = sum(
            len(c["carrier"]["directions"]) == 2 for st in strata if st["dim"] == 2 for c in st["cells"]
        )
        for labels in ((), ("--labels",)):
            svg = tmp_path / "out.svg"
            assert run_cli("render", str(doc), *labels, "--out", str(svg)) == 0
            assert svg.read_text().count("<polygon") == chamber_cells


def test_cli_render_square_identity(tmp_path):
    strat = tmp_path / "strat.json"
    run_cli("stratify", str(INPUTS / "square_identity.json"), "--out", str(strat))
    svg = tmp_path / "out.svg"
    assert run_cli("render", str(strat), "--out", str(svg)) == 0
    text = svg.read_text()
    assert text.count("<circle") == 4
    assert text.count("<line") == 4
    assert text.count("<polygon") == 1


def test_cli_non_delzant_is_labeled_formal(tmp_path, capsys):
    spec = {
        "name": "non_delzant",
        "ambient_dim": 2,
        "inequalities": [
            {"normal": [0, -1], "offset": "0"},
            {"normal": [1, 1], "offset": "2"},
            {"normal": [-1, 1], "offset": "0"},
        ],
        "subtorus_matrix": [[1, 0], [0, 1]],
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "strat.json"
    assert run_cli("stratify", str(path), "--out", str(out)) == 0
    captured = capsys.readouterr()
    assert "not Delzant" in captured.err
    data = json.loads(out.read_text())
    assert data["provenance"]["formal"] == "true"


def test_cli_oracle(tmp_path):
    out = tmp_path / "oracle.json"
    code = run_cli(
        "oracle",
        str(INPUTS / "paper_cp1xcp2.json"),
        "--point",
        "1/2,1",
        "--trials",
        "20000",
        "--seed",
        "3",
        "--out",
        str(out),
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["points"][0]["exact"] == "1/2"
    assert data["points"][0]["sigmas_off"] <= 4


@pytest.mark.parametrize(
    "spec, density",
    [
        pytest.param(
            {
                "ambient_dim": 2,
                "inequalities": [
                    {"normal": [-1, 0], "offset": "0"},
                    {"normal": [0, -1], "offset": "0"},
                    {"normal": [1, 1], "offset": "2"},
                ],
                "subtorus_matrix": [[], []],
            },
            "2",
            id="triangle",
        ),
        pytest.param(
            {"ambient_dim": 0, "inequalities": [{"normal": [], "offset": "1"}], "subtorus_matrix": []},
            "1",
            id="point",
        ),
    ],
)
def test_cli_dh_trivial_subtorus_ends(tmp_path, spec, density):
    """With k = 0 the image is one point: its density is the fiber volume
    there, with no held-out point to wait for."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    proc = subprocess.run(
        [sys.executable, "-m", "momstrat.cli", "dh", str(path), "--seed", "0"],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    (stratum,) = json.loads(proc.stdout)["strata"]
    assert stratum["density"]["coefficients"] == [{"exponents": [], "value": density}]


def test_cli_oracle_trivial_subtorus_one_row(tmp_path):
    """With k = 0 the one top stratum is a point, drawn once however many
    samples are asked for."""
    spec = {
        "ambient_dim": 2,
        "inequalities": [
            {"normal": [-1, 0], "offset": "0"},
            {"normal": [0, -1], "offset": "0"},
            {"normal": [1, 1], "offset": "2"},
        ],
        "subtorus_matrix": [[], []],
    }
    path, out = tmp_path / "spec.json", tmp_path / "oracle.json"
    path.write_text(json.dumps(spec))
    assert run_cli("oracle", str(path), "--trials", "200", "--out", str(out)) == 0
    (row,) = json.loads(out.read_text())["points"]
    assert row["point"] == [] and row["exact"] == "2"


def test_cli_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "momstrat.cli", "stratify", str(INPUTS / "simplex_sum.json")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert '"schema": "momstrat.stratification/1"' in proc.stdout


def test_seed_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("STRATA_SEED", "12345")
    from momstrat.cli import build_parser

    args = build_parser().parse_args(["dh", "x.json"])
    assert args.seed == 12345


def test_malformed_seed_env_exits_2_without_traceback():
    argv = [sys.executable, "-m", "momstrat.cli", "dh", str(INPUTS / "simplex_sum.json")]
    env = {**os.environ, "STRATA_SEED": "abc"}
    proc = subprocess.run(argv, capture_output=True, text=True, env=env)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr == "parse error: STRATA_SEED is not an integer: 'abc'\n"
    assert proc.stdout == ""
    # an explicit --seed never reads the variable
    proc = subprocess.run([*argv, "--seed", "0"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0 and proc.stderr == "" and proc.stdout, proc.stderr


def _square_spec(normal=(1, 0), offset="1", matrix=((1, 0), (0, 1))):
    rows = [([-1, 0], "0"), (list(normal), offset), ([0, -1], "0"), ([0, 1], "1")]
    return {
        "ambient_dim": 2,
        "inequalities": [{"normal": n, "offset": o} for n, o in rows],
        "subtorus_matrix": [list(r) for r in matrix],
    }


def _segment_cover(ambient_dim=2, support=()):
    """A one-member cover file: the open segment from (0, 0) to (1, 0)."""
    data = {"members": [{"closure_vertices": [["0", "0"], ["1", "0"]]}]}
    if ambient_dim is not None:
        data["ambient_dim"] = ambient_dim
    if support:
        data["support_closure"] = [{"vertices": vertices} for vertices in support]
    return data


def _paper_document(**first_stratum):
    doc = json.loads(serialize_document(make_document(hamiltonian_stratification(paper_action()))))
    doc["strata"][0].update(first_stratum)
    return doc


def _paper_document_with(value, *path):
    """The paper document with the entry at ``path`` replaced by ``value``."""
    doc = _paper_document()
    *head, last = path
    part = doc
    for key in head:
        part = part[key]
    part[last] = value
    return doc


def _cell_of(stratum):
    """The first cell of a stratum of the paper document."""
    return _paper_document()["strata"][stratum]["cells"][0]


def _density(*exponents, stratum_id=20, degree=1, values=("1",)):
    """A density for the last stratum of the paper document (id 20): one
    term per value, each with the given exponents."""
    terms = [{"exponents": list(exponents), "value": v} for v in values]
    return {"stratum_id": stratum_id, "degree": degree, "coefficients": terms}


@pytest.mark.parametrize(
    "command, payload, options",
    [
        pytest.param("stratify", _square_spec(normal=(1.7, 0)), (), id="float-normal"),
        pytest.param("stratify", _square_spec(normal=(True, 0)), (), id="bool-normal"),
        pytest.param("stratify", _square_spec(offset=0.1), (), id="float-offset"),
        pytest.param("stratify", _square_spec(offset="1/0"), (), id="zero-denominator"),
        pytest.param("stratify", _square_spec(matrix=((1.0, 0), (0, 1))), (), id="float-matrix"),
        pytest.param(
            "stratify", {"ambient_dim": 1, "members": [{"closure_vertices": []}]}, (), id="empty-vertices"
        ),
        pytest.param("render", _paper_document(cells=[]), (), id="empty-cells"),
        pytest.param("render", _paper_document(dim=0.0), (), id="float-stratum-dim"),
        pytest.param("render", [1, 2], (), id="non-object-document"),
        pytest.param(
            "render",
            _paper_document_with(["1"], "strata", 0, "cells", 0, "closure_vertices", 0),
            (),
            id="short-closure-vertex",
        ),
        pytest.param(
            "render",
            _paper_document_with([], "strata", 0, "cells", 0, "carrier", "base"),
            (),
            id="empty-carrier-base",
        ),
        pytest.param(
            "render", _paper_document_with([], "strata", 0, "carrier", "base"), (), id="empty-stratum-base"
        ),
        pytest.param("render", _paper_document_with(["x"], "provenance"), (), id="non-object-provenance"),
        pytest.param(
            "render", _paper_document_with([0, 999], "frontier", 0), (), id="frontier-unknown-stratum"
        ),
        pytest.param("render", _paper_document_with(0, "strata", -1, "dim"), (), id="stratum-dim-too-small"),
        pytest.param(
            "render", _paper_document_with([], "strata", -1, "direction"), (), id="stratum-direction-rows"
        ),
        pytest.param(
            "render",
            _paper_document_with([], "strata", -1, "carrier", "directions"),
            (),
            id="stratum-carrier-dimension",
        ),
        pytest.param(
            "render",
            _paper_document_with(_paper_document()["strata"] * 2, "strata"),
            (),
            id="duplicate-stratum-ids",
        ),
        pytest.param(
            "render", _paper_document_with(_density(1), "strata", -1, "density"), (), id="short-exponents"
        ),
        pytest.param(
            "render",
            _paper_document_with(["1"], "strata", -1, "direction", 0),
            (),
            id="stratum-direction-row-length",
        ),
        pytest.param(
            "render",
            _paper_document_with(["0"], "strata", -1, "cells", 0, "inequalities", "b"),
            (),
            id="cell-offsets-short",
        ),
        pytest.param(
            "render",
            _paper_document_with(
                [row + ["0"] for row in _cell_of(-1)["inequalities"]["A"]],
                *("strata", -1, "cells", 0, "inequalities", "A"),
            ),
            (),
            id="cell-row-length",
        ),
        pytest.param(
            "render",
            _paper_document_with([[99]], "strata", -1, "cells", 0, "excluded_faces"),
            (),
            id="excluded-face-names-no-row",
        ),
        pytest.param(
            "render",
            _paper_document_with([_cell_of(0), _cell_of(-1)], "strata", 0, "cells"),
            (),
            id="cell-above-stratum-dim",
        ),
        pytest.param(
            "render",
            _paper_document_with([_cell_of(7)], "strata", -1, "cells"),
            (),
            id="no-cell-of-stratum-dim",
        ),
        pytest.param(
            "render",
            _paper_document_with(_density(-1, 0), "strata", -1, "density"),
            (),
            id="negative-exponent",
        ),
        pytest.param(
            "render",
            _paper_document_with(_density(1, 0, stratum_id=19), "strata", -1, "density"),
            (),
            id="density-names-another-stratum",
        ),
        pytest.param(
            "render",
            _paper_document_with(_density(1, 0, values=("1", "2")), "strata", -1, "density"),
            (),
            id="density-repeated-exponents",
        ),
        pytest.param(
            "render",
            _paper_document_with(_density(1, 0, values=("0",)), "strata", -1, "density"),
            (),
            id="density-zero-value",
        ),
        pytest.param(
            "render",
            _paper_document_with(_density(1, 0, degree=2), "strata", -1, "density"),
            (),
            id="density-degree-above-its-terms",
        ),
        pytest.param(
            "render",
            _paper_document_with(_density(values=()), "strata", -1, "density"),
            (),
            id="density-degree-without-terms",
        ),
        pytest.param(
            "render",
            _paper_document_with(_cell_of(7)["closure_vertices"][:1], "strata", 7, "cells", 0, "closure_vertices"),
            (),
            id="line-cell-with-one-vertex",
        ),
        pytest.param(
            "render",
            _paper_document_with(_cell_of(-1)["closure_vertices"][:2], "strata", -1, "cells", 0, "closure_vertices"),
            (),
            id="plane-cell-with-two-vertices",
        ),
        pytest.param(
            "render",
            _paper_document_with(["1/2", "1/3"], "strata", 7, "cells", 0, "closure_vertices", 1),
            (),
            id="closure-vertex-off-its-carrier",
        ),
        pytest.param(
            "render", _paper_document_with([["0", "1"]], "strata", 8, "direction"), (), id="direction-not-the-carriers"
        ),
        pytest.param(
            "render", _paper_document_with([[99, 0], [1, 2, 3]], "strata", 7, "adjacency"), (), id="adjacency-not-cell-pairs"
        ),
        pytest.param(
            "render",
            _paper_document_with(
                ["7"] * len(_cell_of(-1)["inequalities"]["b"]), *("strata", -1, "cells", 0, "inequalities", "b")
            ),
            (),
            id="cell-rows-not-its-closures",
        ),
        pytest.param(
            "render", _paper_document_with([[20, 0]], "frontier"), (), id="frontier-chamber-below-a-point"
        ),
        pytest.param("render", _paper_document_with([[3, 3]], "frontier"), (), id="frontier-pair-of-one-stratum"),
        pytest.param("stratify", {**_square_spec(), "name": ["x"]}, (), id="spec-name-not-a-string"),
        pytest.param("oracle", _square_spec(), ("--point", "1/0,1"), id="oracle-zero-denominator"),
        pytest.param("oracle", _square_spec(), ("--point", "1/2,1/2,1/2"), id="oracle-point-dimension"),
        pytest.param("oracle", _square_spec(), ("--point", "1/2,1/2", "--trials", "0"), id="oracle-zero-trials"),
        pytest.param(
            "oracle", _square_spec(), ("--point", "1/2,1/2", "--trials", "-5"), id="oracle-negative-trials"
        ),
        pytest.param("oracle", _square_spec(), ("--samples", "0"), id="oracle-zero-samples"),
        pytest.param("oracle", _square_spec(), ("--samples", "-5"), id="oracle-negative-samples"),
        pytest.param("stratify", _segment_cover(ambient_dim=3), (), id="cover-member-dimension"),
        pytest.param(
            "stratify", _segment_cover(support=[[["0"], ["1"]]]), (), id="cover-support-vertex-dimension"
        ),
        pytest.param("stratify", _segment_cover(ambient_dim=None), (), id="cover-no-ambient-dim"),
    ],
)
def test_cli_malformed_input_exits_2_without_traceback(tmp_path, command, payload, options):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    proc = subprocess.run(
        [sys.executable, "-m", "momstrat.cli", command, str(path), *options], capture_output=True, text=True
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("parse error:")


NOT_P_OVER_Q = ["1e5", "0.5", "1_000", " 3/4 ", "\u0663", "1e999999999"]


@pytest.mark.parametrize("text", NOT_P_OVER_Q)
def test_rational_strings_other_than_p_over_q_exit_2(tmp_path, capsys, text):
    # "1e999999999" must be refused before any number is built: as a Fraction
    # it is 10**999999999
    with pytest.raises(ParseError, match="not an exact rational"):
        _rat(text)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_square_spec(offset=text)))
    assert run_cli("stratify", str(path)) == 2
    path.write_text(json.dumps(_square_spec()))
    assert run_cli("oracle", str(path), "--point", f"{text},1/2") == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("parse error:") for line in err)
    assert "--point is not a list of exact rationals" in err[1]


def test_rational_strings_in_p_over_q_form():
    assert [_rat(t) for t in ("3/4", "-3/4", "+6/8", "007", "-0", "12")] == [
        Fraction(3, 4), Fraction(-3, 4), Fraction(3, 4), 7, 0, 12
    ]

"""Malformed input never escapes the CLI: mutated toric specs, cover files and
stratification documents go through ``cli.main`` for ``stratify``,
``validate-cover`` and ``render``, and each call must return 0 or one of the
error codes 2-6 with no exception."""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from momstrat import density_polynomial, hamiltonian_stratification
from momstrat.cli import main
from momstrat.io import make_document, serialize_document
from support import paper_action

INPUTS = Path(__file__).resolve().parent.parent / "inputs"

FUZZ = settings(derandomize=True, deadline=None, max_examples=60)

# values that stand in for any node: wrong types, non-rationals, huge and empty
REPLACEMENTS = [None, True, 0, -1, 2, 10**30, 0.5, "", "x", "1/0", "-3/2", "nan", [], {}, [[]], [["1"]]]


def _load(name):
    return json.loads((INPUTS / name).read_text())


def _mutate(draw, node):
    """Walk down a random path of the JSON tree, then replace the node found
    there, or drop or repeat one of its entries."""
    if isinstance(node, (dict, list)) and node and draw(st.integers(0, 3)):
        key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        node[key] = _mutate(draw, node[key])
        return node
    action = draw(st.sampled_from(["replace", "drop", "repeat"]))
    if action == "replace" or not node or not isinstance(node, (dict, list)):
        return copy.deepcopy(draw(st.sampled_from(REPLACEMENTS)))
    if isinstance(node, dict):
        del node[draw(st.sampled_from(sorted(node)))]
    elif action == "drop":
        del node[draw(st.integers(0, len(node) - 1))]
    else:
        node.append(copy.deepcopy(node[draw(st.integers(0, len(node) - 1))]))
    return node


@st.composite
def mutated_text(draw, doc):
    """1-3 mutations of a JSON document, serialized; sometimes cut short."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        doc = _mutate(draw, doc)
    text = json.dumps(doc)
    if draw(st.integers(0, 9)) == 0:
        text = text[: draw(st.integers(0, len(text)))]
    return text


def _run(command, text, *options):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, str(path), *options])
    assert code in (0, 2, 3, 4, 5, 6), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()


SPECS = [_load("paper_cp1xcp2.json"), _load("square_identity.json"), _load("simplex_sum.json")]
COVERS = [_load("square_cover.json"), _load("counterexample_cover.json")]


def _paper_dh_document():
    """The paper's stratification with the density of every top stratum."""
    action = paper_action()
    s = hamiltonian_stratification(action)
    tops = [stratum.id for stratum in s.strata if stratum.dim == action.k]
    densities = {i: density_polynomial(action, s, i, seed=0) for i in tops}
    return json.loads(serialize_document(make_document(s, densities)))


@FUZZ
@given(st.sampled_from(SPECS).flatmap(mutated_text), st.sampled_from(["stratify", "validate-cover"]))
def test_mutated_toric_spec_exits_cleanly(text, command):
    _run(command, text)


@FUZZ
@given(st.sampled_from(COVERS).flatmap(mutated_text), st.sampled_from(["stratify", "validate-cover"]))
def test_mutated_cover_file_exits_cleanly(text, command):
    _run(command, text)


@FUZZ
@given(st.just(_paper_dh_document()).flatmap(mutated_text), st.booleans())
def test_mutated_document_render_exits_cleanly(text, labels):
    _run("render", text, *(["--labels"] if labels else []))

"""The output bytes are pinned: the SHA-256 of the ``stratify`` and
``dh --seed 0`` documents and of the ``validate-cover`` report, with the exit
code, for every shipped input under ``inputs/`` and ``bench/inputs/``.

A change that alters any of these bytes must say why and update the digest
printed by the failing assertion."""

import hashlib
from pathlib import Path

import pytest

from momstrat.cli import main

ROOT = Path(__file__).resolve().parent.parent

COMMANDS = {"stratify": (), "dh": ("--seed", "0"), "validate-cover": ()}

# (input, command) -> (exit code, sha256 of stdout)
DIGESTS = {
    ("inputs/counterexample_cover.json", "stratify"): (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("inputs/counterexample_cover.json", "dh"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("inputs/counterexample_cover.json", "validate-cover"): (3, "4a6d963483fff5ee38d4bf33336146c2a20d7df792bfa93b6c42c1cb7e1e08f1"),
    ("inputs/paper_cp1xcp2.json", "stratify"): (0, "601b25eb9e78d8491b4a6e1595f69dc359d8360553f0af0ddf336e948286fc27"),
    ("inputs/paper_cp1xcp2.json", "dh"): (0, "8fa2eef37a33b1a553e4345f255736f09a0ac02c7485736b7d1c0091cae778a5"),
    ("inputs/paper_cp1xcp2.json", "validate-cover"): (0, "1b7bd9b26e65d364f65f7b92953f227d1be4c7cbba596a2d0a9a0d8fefc65978"),
    ("inputs/simplex_sum.json", "stratify"): (0, "2df04aba66858740014d5877efbc2b0214a94faedbaf36a9a9b8a73bfa8a3071"),
    ("inputs/simplex_sum.json", "dh"): (0, "ee4394772509237695fc75cd8773517458a5df5bc985b889795ce5a0afb3f6ee"),
    ("inputs/simplex_sum.json", "validate-cover"): (0, "c8e6b63d727f2656621c5077d7a09b8b2228d986e5b92aee55947f059d062418"),
    ("inputs/square_cover.json", "stratify"): (0, "37aa983037beadb4da5f36eaab18a36f91ae68895158b75cd0475edc95c1c204"),
    ("inputs/square_cover.json", "dh"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("inputs/square_cover.json", "validate-cover"): (0, "4ba3652056b39df3b0b32d9d2f64961719b43be68eff92c3c8fd2fc5553689bf"),
    ("inputs/square_identity.json", "stratify"): (0, "f0d86e107e590c40766e1bde3d5a3230d849856b7aef1223d8700459f573cb68"),
    ("inputs/square_identity.json", "dh"): (0, "677dc7a46e2db09192f0dfa5748c1b32efbe781330138929adc9bca085bab0af"),
    ("inputs/square_identity.json", "validate-cover"): (0, "4ba3652056b39df3b0b32d9d2f64961719b43be68eff92c3c8fd2fc5553689bf"),
    ("bench/inputs/dense-facets/00_box_1000.json", "stratify"): (0, "1d9d652c9b1765a9dffa56136e81a01228381dfe873c88fd0cbc06b469905352"),
    ("bench/inputs/dense-facets/00_box_1000.json", "dh"): (0, "58b5ea89bf8e7e6b2ec9a22b058c3f2aa6967e5701e0a9ac4513b8092b854671"),
    ("bench/inputs/dense-facets/00_box_1000.json", "validate-cover"): (0, "d87fa76257b2d0e3d4a832f6e9dd3eee8bc8dc07520c23471115a65150805db7"),
    ("bench/inputs/fiber-heavy/00_corpus_1031.json", "stratify"): (0, "f92d46b83b42938e599f3f127286ec491da304511d40fc46e26679ba052c66b7"),
    ("bench/inputs/fiber-heavy/00_corpus_1031.json", "dh"): (0, "24a00056dedc743865dc193cbcebe8cf7223e6c3e429f51ea7435c564f47babe"),
    ("bench/inputs/fiber-heavy/00_corpus_1031.json", "validate-cover"): (0, "c8e6b63d727f2656621c5077d7a09b8b2228d986e5b92aee55947f059d062418"),
    ("bench/inputs/strata-heavy/00_corpus_1005.json", "stratify"): (0, "a0003bccd21df97a33530cbb39546309470ae4e33f5d09d902de0914b57d1608"),
    ("bench/inputs/strata-heavy/00_corpus_1005.json", "dh"): (0, "f4f98e935628f5cd408d31137f78827a8004b57eaf612b6b2b1579b416485189"),
    ("bench/inputs/strata-heavy/00_corpus_1005.json", "validate-cover"): (0, "70d2123291fc45977070d3168450969876f8de43ed263918816d8bc8510ce893"),
    ("bench/inputs/strata-heavy/01_corpus_1008.json", "stratify"): (0, "c11075b513721c877030a298730748efbabe8658c3e7233dd9062b38c13dfe4d"),
    ("bench/inputs/strata-heavy/01_corpus_1008.json", "dh"): (0, "e5cfdaed449c233c3801021386d64818373572920842713b07add1fd7297ab8e"),
    ("bench/inputs/strata-heavy/01_corpus_1008.json", "validate-cover"): (0, "fcd3ac833b6f26b5a9f4af1d4dd6c224c61c40b836479317d6dc148f1363b1ab"),
}


def _inputs():
    bench = sorted(p for p in (ROOT / "bench" / "inputs").glob("*/[0-9]*.json"))
    return sorted((ROOT / "inputs").glob("*.json")) + bench


def _name(path: Path) -> str:
    return str(path.relative_to(ROOT))


def _run(capsys, path: Path, command: str) -> tuple[int, str]:
    code = main([command, str(path), *COMMANDS[command]])
    out = capsys.readouterr().out
    return code, hashlib.sha256(out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("command", list(COMMANDS))
@pytest.mark.parametrize("path", _inputs(), ids=_name)
def test_output_digest_is_pinned(capsys, path, command):
    got = _run(capsys, path, command)
    assert got == DIGESTS[_name(path), command], f"new digest: {got}"


def test_every_input_is_pinned():
    assert {name for name, _ in DIGESTS} == {_name(p) for p in _inputs()}

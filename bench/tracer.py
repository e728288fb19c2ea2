"""Spans around the public entry points of each momstrat module.

The tracer wraps each listed function, by identity, in every ``momstrat.*``
module namespace that binds it, so calls between modules are seen as well as
calls from the benchmark.  Spans (name, start, end, parent, instance, size)
stay in memory until the caller writes them out.  A listed function that no
longer exists is reported as missing and yields no spans.

Run as a script it traces one CLI call:

    python3 bench/tracer.py SPANS_FILE stratify input.json --out doc.json
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path

# module -> public entry points; ``linalg`` is reached only through these
ENTRY_POINTS = {
    "io": ("parse_input_file", "make_document", "serialize_document", "parse_document"),
    "toric": ("ToricAction.make", "momentum_cover", "hamiltonian_stratification"),
    "polyhedron": ("vertices", "face_lattice", "split_cell", "enumerate_vertices"),
    "cover": ("refined_cells", "validate"),
    "stratifier": ("stratify", "verify_frontier"),
    "dh": ("density_polynomial", "fiber_volume", "polytope_volume"),
    "render": ("render_svg",),
    "cli": ("main",),
}


# what a span records as its size, per entry point: (result, args) -> int
SIZES = {
    "polyhedron.face_lattice": lambda result, args: len(result.faces),
    "toric.momentum_cover": lambda result, args: len(result.members),
    "cover.refined_cells": lambda result, args: len(result),
    "stratifier.stratify": lambda result, args: len(result.strata),
    "stratifier.verify_frontier": lambda result, args: len(args[0].frontier),
    "io.serialize_document": lambda result, args: len(result.encode()),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, instance, size, key]
        self.stack: list[int] = []
        self.instance = ""
        self.missing: list[str] = []

    def _wrap(self, name: str, fn):
        size = SIZES.get(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.instance, 0, id(args[0]) if args else 0]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if size is not None:
                span[5] = size(result, args)
            return result

        return traced

    def install(self) -> None:
        modules = {m: importlib.import_module(f"momstrat.{m}") for m in ENTRY_POINTS}
        for mod_name, names in ENTRY_POINTS.items():
            for qual in names:
                full = f"{mod_name}.{qual}"
                owner = modules[mod_name]
                *path, attr = qual.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                original = getattr(owner, attr, None) if owner is not None else None
                if original is None:
                    self.missing.append(full)
                    continue
                wrapped = self._wrap(full, original)
                if isinstance(owner, type):
                    setattr(owner, attr, staticmethod(wrapped))
                    continue
                for name, mod in list(sys.modules.items()):
                    if name == "momstrat" or name.startswith("momstrat."):
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, key, wrapped)

    def dump(self) -> dict:
        return {"spans": self.spans, "missing": self.missing}


# ---------------------------------------------------------------------------
# per-layer metrics from spans


def _has_ancestor(spans, span, name) -> bool:
    p = span[3]
    while p >= 0:
        if spans[p][0] == name:
            return True
        p = spans[p][3]
    return False


def _total(spans, *names):
    """Time in spans of ``names``, counting a span nested in its own name once."""
    return sum(s[2] - s[1] for s in spans if s[0] in names and not _has_ancestor(spans, s, s[0]))


def _self_time(spans, name):
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_time[s[3]] += s[2] - s[1]
    return sum(s[2] - s[1] - child_time[i] for i, s in enumerate(spans) if s[0] == name)


def _calls(spans, name):
    return sum(1 for s in spans if s[0] == name)


def _size(spans, name):
    return sum(s[5] for s in spans if s[0] == name)


def _distinct_size(spans, name):
    """Sizes counted once per (instance, argument): cached repeats add nothing."""
    seen = {}
    for s in spans:
        if s[0] == name:
            seen.setdefault((s[4], s[6]), s[5])
    return sum(seen.values())


def _under(spans, name, ancestor):
    return sum(s[2] - s[1] for s in spans if s[0] == name and _has_ancestor(spans, s, ancestor))


# name -> (unit, better, function of the span list)
LAYER_METRICS = {
    "toric.make_s": ("s", "lower", lambda sp: _total(sp, "toric.ToricAction.make")),
    "polyhedron.vertices_s": ("s", "lower", lambda sp: _total(sp, "polyhedron.vertices")),
    "polyhedron.vertices_calls": ("count", "lower", lambda sp: _calls(sp, "polyhedron.vertices")),
    "polyhedron.face_lattice_s": ("s", "lower", lambda sp: _total(sp, "polyhedron.face_lattice")),
    "polyhedron.faces": ("count", "lower", lambda sp: _size(sp, "polyhedron.face_lattice")),
    "toric.momentum_cover_s": ("s", "lower", lambda sp: _total(sp, "toric.momentum_cover")),
    "toric.cover_members": ("count", "lower", lambda sp: _size(sp, "toric.momentum_cover")),
    "cover.refine_s": ("s", "lower", lambda sp: _total(sp, "cover.refined_cells")),
    "cover.refined_pieces": ("count", "lower", lambda sp: _distinct_size(sp, "cover.refined_cells")),
    "polyhedron.split_cell_s": ("s", "lower", lambda sp: _total(sp, "polyhedron.split_cell")),
    "polyhedron.split_cell_calls": ("count", "lower", lambda sp: _calls(sp, "polyhedron.split_cell")),
    "cover.validate_s": ("s", "lower", lambda sp: _total(sp, "cover.validate")),
    "stratifier.stratify_self_s": ("s", "lower", lambda sp: _self_time(sp, "stratifier.stratify")),
    "stratifier.strata": ("count", "lower", lambda sp: _size(sp, "stratifier.stratify")),
    "stratifier.verify_frontier_s": ("s", "lower", lambda sp: _total(sp, "stratifier.verify_frontier")),
    "stratifier.frontier_pairs": ("count", "lower", lambda sp: _size(sp, "stratifier.verify_frontier")),
    "dh.fiber_volume_s": ("s", "lower", lambda sp: _total(sp, "dh.fiber_volume")),
    "dh.fiber_volume_calls": ("count", "lower", lambda sp: _calls(sp, "dh.fiber_volume")),
    "dh.polytope_volume_s": ("s", "lower", lambda sp: _total(sp, "dh.polytope_volume")),
    "dh.enumerate_vertices_s": (
        "s", "lower", lambda sp: _under(sp, "polyhedron.enumerate_vertices", "dh.fiber_volume")
    ),
    "dh.density_self_s": ("s", "lower", lambda sp: _self_time(sp, "dh.density_polynomial")),
    "dh.chambers": ("count", "lower", lambda sp: _calls(sp, "dh.density_polynomial")),
    "io.parse_s": ("s", "lower", lambda sp: _total(sp, "io.parse_input_file", "io.parse_document")),
    "io.serialize_s": ("s", "lower", lambda sp: _total(sp, "io.make_document", "io.serialize_document")),
    "io.document_bytes": ("count", "lower", lambda sp: _size(sp, "io.serialize_document")),
    "render.render_s": ("s", "lower", lambda sp: _total(sp, "render.render_svg")),
    "cli.main_s": ("s", "lower", lambda sp: _total(sp, "cli.main")),
}


def layer_metrics(spans) -> dict[str, float]:
    return {name: fn(spans) for name, (_, _, fn) in LAYER_METRICS.items()}


def main(argv: list[str]) -> int:
    spans_file, cli_args = Path(argv[0]), argv[1:]
    from momstrat import cli  # noqa: F401  (bind cli's names before wrapping)

    tracer = Tracer()
    tracer.install()
    try:
        code = sys.modules["momstrat.cli"].main(cli_args)
    finally:
        spans_file.write_text(json.dumps(tracer.dump()))
    return code


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    sys.exit(main(sys.argv[1:]))

"""One in-process repeat: every instance of a workload through the pipeline.

    python3 bench/worker.py INSTANCE_DIR SEED TRACE OUT_JSON

Runs in a fresh interpreter per repeat, so each repeat starts with the
program's memo tables empty, as a command-line user does.  For each
instance it times, from outside and through public functions only:

* stratify_s: parse_input_file, hamiltonian_stratification, make_document
  and serialize_document;
* verify_s: verify_frontier;
* densities_s: density_polynomial on every chamber, then the document with
  densities serialized;
* fiber_volume_s: fiber_volume at ``points_per_chamber`` seeded points
  inside each chamber (from the manifest).

Each timed unit (an instance's stratify or verify, one chamber's density,
the document, one fiber-volume point) runs between the two halves of a run
of the reference work of ``speed``, and both times are reported.  Each of the four
stages is one operation; it fails if it raises or if its output fails an
independent check from ``checks``.
"""

from __future__ import annotations

import importlib
import json
import random
import sys
import time
import traceback
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
from speed import REFERENCE_REPS, reference_work  # noqa: E402

HALF = REFERENCE_REPS // 2


class Clock:
    """Times units of work, each between two halves of the reference work,
    so that the unit and the reference see the host at one speed, also over
    a unit long enough for the speed to change during it (see ``speed``)."""

    def __init__(self):
        self.times: dict[str, list[float]] = {}  # "stage|instance|part" -> [seconds, reference seconds]

    @contextmanager
    def unit(self, key: str):
        before = reference_work(HALF)
        t0 = time.perf_counter()
        yield
        seconds = time.perf_counter() - t0
        self.times[key] = [seconds, before + reference_work(HALF)]


class Op:
    """Collects one operation's outcome: raised, wrong output, or fine."""

    def __init__(self, log, name):
        self.log, self.name = log, name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            return False
        if issubclass(exc_type, Exception):
            self.log.append([self.name, "raised", "".join(traceback.format_exception_only(exc_type, exc)).strip()])
            return True
        return False

    def result(self, problems):
        self.log.append([self.name, "wrong" if problems else "ok", "; ".join(problems)])


def run_instance(mods, path: Path, entry: dict, rng, points_per_chamber, clock, log):
    mio, toric, strat_mod, dh = mods
    raw = path.read_bytes()
    name = path.name
    volume = Fraction(entry["volume"])

    with Op(log, f"{name}:stratify") as op:
        with clock.unit(f"stratify_s|{name}|all"):
            action = mio.parse_input_file(raw)
            strat = toric.hamiltonian_stratification(action)
            text = mio.serialize_document(mio.make_document(strat, raw_input=raw))
        op.result(checks.check_stratification(checks.load(text)))
    if log[-1][1] == "raised":
        log.extend([f"{name}:{s}", "raised", "no stratification"] for s in ("verify", "densities", "fiber_volume"))
        return

    with Op(log, f"{name}:verify") as op:
        with clock.unit(f"verify_s|{name}|all"):
            report = strat_mod.verify_frontier(strat)
        op.result([] if report.ok else [f"{len(report.violations)} frontier violations"])

    doc = None
    with Op(log, f"{name}:densities") as op:
        dens = {}
        for st in strat.strata:
            if st.dim == action.k:
                with clock.unit(f"densities_s|{name}|{st.id}"):
                    dens[st.id] = dh.density_polynomial(action, strat, st.id)
        with clock.unit(f"densities_s|{name}|document"):
            dtext = mio.serialize_document(mio.make_document(strat, dens, raw_input=raw))
        doc = checks.load(dtext)
        op.result(checks.check_densities(doc, action.n, action.k, volume))
    if doc is None:
        log.append([f"{name}:fiber_volume", "raised", "no densities"])
        return

    with Op(log, f"{name}:fiber_volume") as op:
        points = [p for _ in range(points_per_chamber) for p in checks.chamber_points(doc, action.k, rng)]
        vols = []
        for j, (_, x) in enumerate(points):
            with clock.unit(f"fiber_volume_s|{name}|{j}"):
                vols.append(dh.fiber_volume(action, x).volume)
        by_id = {st["id"]: checks.density_of(st) for st in doc["strata"]}
        bad = [x for (sid, x), v in zip(points, vols) if checks.evaluate(by_id[sid], x) != v]
        op.result([f"fiber volume disagrees with the chamber density at {len(bad)} points"] if bad else [])


def main(argv) -> int:
    instance_dir, seed, traced, out = Path(argv[0]), int(argv[1]), argv[2] == "1", Path(argv[3])
    manifest = json.loads((instance_dir / "manifest.json").read_text())
    mods = tuple(importlib.import_module(f"momstrat.{m}") for m in ("io", "toric", "stratifier", "dh"))
    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracer.install()
    clock = Clock()
    log: list = []
    for i, entry in enumerate(manifest["instances"]):
        if tracer is not None:
            tracer.instance = entry["file"]
        rng = random.Random(f"{seed}:{i}")
        run_instance(mods, instance_dir / entry["file"], entry, rng, manifest["points_per_chamber"], clock, log)
    result = {"times": clock.times, "ops": log}
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer.spans)
        result["missing"] = tracer.missing
    out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""momstrat benchmark: one workload, timed for a fixed number of seconds.

    python3 bench/run.py --workload strata-heavy --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Each round is the same set of operations:

* the in-process pipeline once, in a fresh worker interpreter
  (``worker.py``), so every repeat starts with the program's memo tables
  empty;
* command-line calls, one process per call and one call at a time (a closed
  loop with one client).

The run repeats whole rounds until the next one would end after --seconds,
then prints one JSON line (see ``end_to_end_metrics`` for the estimators).
With --trace 1, rounds alternate between traced and untraced; the per-layer
metrics come from the traced ones, and trace.overhead_s is the difference
between the median traced and untraced round totals.

--seed picks the inputs: seed 0 runs the committed instance files as they
are, any other seed the same instances under a seeded symmetry that keeps
the geometry, and so the cost, unchanged (facet order, coordinate order and
an integer translation; facet and cover-member order only for the CLI
calls, whose checks rest on facts stated in the image's own coordinates).
The same seed also draws the fiber-volume points.  Fresh held-out
instances come from ``gen.py --seed`` and run with --inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
import speed  # noqa: E402

WORKLOADS = ("strata-heavy", "fiber-heavy", "dense-facets", "cli-small")
STAGES = ("stratify_s", "verify_s", "densities_s", "fiber_volume_s")
SETUP_PROBES = 2  # at the start; one more after every round
CALL_TIMEOUT_S = 150

# the shipped inputs and what is known about them without running the program
SHIPPED = {
    "paper_cp1xcp2.json": {"n": 3, "k": 2, "volume": "9/2"},
    "simplex_sum.json": {"n": 2, "k": 1, "volume": "2"},
    "square_identity.json": {"n": 2, "k": 2, "volume": "1"},
    "counterexample_cover.json": {"valid": False},
    "square_cover.json": {"valid": True},
}
PAPER = "paper_cp1xcp2.json"
# fiber-volume points per chamber: where a workload has few chambers or cheap
# fibers (dimension <= 2), more points give fiber_volume_s enough work to time
POINTS_PER_CHAMBER = {"strata-heavy": 4, "fiber-heavy": 8, "cli-small": 4, "dense-facets": 2}


class CallTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise CallTimeout()


# ---------------------------------------------------------------------------
# inputs


def _permute_spec(spec: dict, rng: random.Random, coords: bool) -> dict:
    ineqs = list(spec["inequalities"])
    rng.shuffle(ineqs)
    n = spec["ambient_dim"]
    b = spec["subtorus_matrix"]
    if coords:
        perm = list(range(n))
        rng.shuffle(perm)
        shift = [rng.randint(-1, 1) for _ in range(n)]
        ineqs = [
            {
                "normal": [q["normal"][j] for j in perm],
                "offset": str(Fraction(q["offset"]) + sum(q["normal"][j] * t for j, t in zip(perm, shift))),
            }
            for q in ineqs
        ]
        b = [b[j] for j in perm]
    return dict(spec, inequalities=ineqs, subtorus_matrix=b)


def transform(data: dict, seed: int, salt: str, coords: bool) -> dict:
    """Seed 0: the file as committed.  Otherwise a seeded symmetry of it."""
    if seed == 0:
        return data
    rng = random.Random(f"{seed}:{salt}")
    if "members" in data:
        members = list(data["members"])
        rng.shuffle(members)
        return dict(data, members=members)
    return _permute_spec(data, rng, coords)


def _write_json(path: Path, data) -> None:
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def prepare(workload: str, seed: int, inputs: Path, work: Path) -> tuple[Path, list[tuple[str, Path, dict]]]:
    """Write this run's instance directory and CLI inputs under ``work``."""
    inst_dir = work / "instances"
    inst_dir.mkdir(parents=True)
    if workload == "cli-small":
        entries = []
        for fname, facts in SHIPPED.items():
            if "volume" in facts:
                spec = json.loads((ROOT / "inputs" / fname).read_text())
                _write_json(inst_dir / fname, transform(spec, seed, fname, coords=True))
                entries.append({"file": fname, "volume": facts["volume"]})
        manifest = {"instances": entries}
        cli_files = list(SHIPPED)
    else:
        manifest = json.loads((inputs / workload / "manifest.json").read_text())
        for entry in manifest["instances"]:
            spec = json.loads((inputs / workload / entry["file"]).read_text())
            _write_json(inst_dir / entry["file"], transform(spec, seed, entry["file"], coords=True))
        cli_files = [PAPER]
    manifest["points_per_chamber"] = POINTS_PER_CHAMBER[workload]
    _write_json(inst_dir / "manifest.json", manifest)
    cli_dir = work / "cli"
    cli_dir.mkdir()
    cli_inputs = []
    for fname in cli_files:
        data = json.loads((ROOT / "inputs" / fname).read_text())
        path = cli_dir / fname
        _write_json(path, transform(data, seed, "cli:" + fname, coords=False))
        cli_inputs.append((fname, path, SHIPPED[fname]))
    return inst_dir, cli_inputs


# ---------------------------------------------------------------------------
# processes


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # numpy's import would otherwise start a BLAS thread pool
    env.pop("STRATA_SEED", None)
    return env


def spawn(cmd: list[str], out: Path) -> tuple[int, float, float]:
    """Run cmd to completion: (exit code, wall seconds, peak RSS in MB)."""
    with open(out, "wb") as fo, open(out.with_suffix(".err"), "wb") as fe:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=fo, stderr=fe, env=child_env(), cwd=ROOT)
        signal.alarm(CALL_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            rc = os.waitstatus_to_exitcode(status)
        except CallTimeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            rc = -9
        finally:
            signal.alarm(0)
        wall = time.perf_counter() - t0
    proc.returncode = rc
    return rc, wall, usage.ru_maxrss / 1024


def setup_probe(work: Path) -> list[float]:
    """Seconds for a cold ``import momstrat`` in a fresh interpreter, and for
    the reference work right after it."""
    code = (
        "import sys, time; t = time.perf_counter(); import momstrat; t = time.perf_counter() - t; "
        f"sys.path.insert(0, {str(HERE)!r}); import speed; print(t, speed.reference_work())"
    )
    out = work / "setup.txt"
    rc, _, _ = spawn([sys.executable, "-c", code], out)
    if rc != 0:
        raise RuntimeError("import momstrat failed: " + out.with_suffix(".err").read_text())
    return [float(x) for x in out.read_text().split()]


# ---------------------------------------------------------------------------
# one round


def _cli_cmd(traced: bool, spans: Path, args: list[str]) -> list[str]:
    if traced:
        return [sys.executable, str(HERE / "tracer.py"), str(spans)] + args
    return [sys.executable, "-m", "momstrat.cli"] + args


def cli_round(cli_inputs, work: Path, traced: bool, log: list, walls: dict, layers: list) -> float:
    """Every CLI call of one round; returns the largest child peak RSS (MB)."""
    peak = 0.0

    def call(sub: str, tag: str, args: list[str], expect: int, check=None):
        nonlocal peak
        out = work / f"{sub}-{tag}.out"
        spans = work / f"{sub}-{tag}.spans"
        _, reference, _ = spawn([sys.executable, str(HERE / "speed.py")], work / "reference.out")
        rc, wall, rss = spawn(_cli_cmd(traced, spans, [sub] + args), out)
        walls.setdefault(f"{sub} {tag}", []).append([wall, reference])
        peak = max(peak, rss)
        name = f"cli {sub} {tag}"
        if rc != expect:
            err = out.with_suffix(".err").read_text()[-300:]
            log.append([name, "raised", f"exit {rc}, expected {expect}: {err}"])
            return
        if traced:
            layers.append(tracing.layer_metrics(json.loads(spans.read_text())["spans"]))
        try:
            problems = check(out) if check else []
        except (ValueError, KeyError, TypeError) as exc:
            problems = [f"unreadable output: {exc}"]
        log.append([name, "wrong" if problems else "ok", "; ".join(problems)])

    def doc(path: Path) -> dict:
        return checks.load(path.read_text())

    for fname, path, facts in cli_inputs:
        valid = facts.get("valid", True)
        call("validate-cover", Path(fname).stem, [str(path)], 0 if valid else 3,
             lambda out, v=valid: [] if json.loads(out.read_text())["valid"] is v else ["validity differs"])
    for fname, path, facts in cli_inputs:
        tag = Path(fname).stem
        target = work / f"{tag}.strat.json"
        if not facts.get("valid", True):
            call("stratify", tag, [str(path)], 3)
            continue
        extra = checks.check_paper_strata if fname == PAPER else (lambda d: [])
        call("stratify", tag, [str(path), "--out", str(target)], 0,
             lambda out, t=target, x=extra: checks.check_stratification(doc(t)) + x(doc(t)))
    toric = [(f, p, facts) for f, p, facts in cli_inputs if "volume" in facts]
    for fname, path, facts in toric:
        tag = Path(fname).stem
        target = work / f"{tag}.dh.json"

        def check_dh(out, t=target, fa=facts, paper=fname == PAPER):
            d = doc(t)
            problems = checks.check_stratification(d)
            problems += checks.check_densities(d, fa["n"], fa["k"], Fraction(fa["volume"]))
            if paper:
                problems += checks.check_paper_strata(d) + checks.check_paper_densities(d)
            return problems

        call("dh", tag, [str(path), "--out", str(target)], 0, check_dh)
    for fname, path, facts in toric:
        tag = Path(fname).stem
        source, target = work / f"{tag}.dh.json", work / f"{tag}.svg"
        call("render", tag, [str(source), "--labels", "--out", str(target)], 0,
             lambda out, s=source, t=target: checks.check_svg(t.read_bytes(), doc(s)))
    for fname, path, facts in toric:
        call("oracle", Path(fname).stem, [str(path)], 0,
             lambda out: checks.check_oracle(json.loads(out.read_text())))
    return peak


def run_worker(inst_dir: Path, seed: int, traced: bool, work: Path) -> dict:
    out = work / "worker.json"
    cmd = [sys.executable, str(HERE / "worker.py"), str(inst_dir), str(seed), "1" if traced else "0", str(out)]
    rc, _, rss = spawn(cmd, out.with_suffix(".log"))
    if rc != 0:
        raise RuntimeError(f"worker exited {rc}: " + out.with_suffix(".err").read_text()[-2000:])
    result = json.loads(out.read_text())
    result["rss"] = rss
    return result


def run_round(workload, seed, inst_dir, cli_inputs, work, traced) -> dict:
    """The in-process pipeline in a fresh worker, then one pass of CLI calls."""
    worker = run_worker(inst_dir, seed, traced, work)
    ops = list(worker["ops"])
    layers = [worker["layers"]] if traced else []
    walls: dict[str, list[list[float]]] = {}  # "subcommand input" -> [[seconds, reference seconds], ...]
    cli_rss = cli_round(cli_inputs, work, traced, ops, walls, layers)
    layer_sum: dict[str, float] = {}
    for entry in layers:
        for key, value in entry.items():
            layer_sum[key] = layer_sum.get(key, 0) + value
    return {
        "traced": traced,
        "times": worker["times"],
        "cli": walls,
        "peak_rss_mb": cli_rss if workload == "cli-small" else worker["rss"],
        # seconds at the reference's usual speed, for trace.overhead_s
        "total": sum(t / ref * speed.REFERENCE_S for t, ref in worker["times"].values())
        + sum(t / ref * speed.PROCESS_REFERENCE_S for v in walls.values() for t, ref in v),
        "layers": layer_sum,
        "missing": worker.get("missing", []),
        "ops": ops,
    }


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="momstrat benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or all four in order, each in a fresh process")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inputs", type=Path, default=HERE / "inputs",
                    help="instance directory tree (default: the committed set)")
    args = ap.parse_args(argv)

    if not (SRC / "momstrat" / "__init__.py").is_file():
        print(f"no momstrat sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    signal.signal(signal.SIGALRM, _alarm)
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_all(args) -> int:
    """Every workload in order, each in a fresh process; one summary line each."""
    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--inputs", str(args.inputs)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"{workload}: exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
        r = results[workload]
        print(f"{workload}: attempted {r['attempted']}, failed {r['failed']}, correct {r['correct']}")
        for name, m in r["metrics"].items():
            print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(results))
    return 0


def _run(args, work: Path) -> int:
    setup_probe(work)  # writes the bytecode caches
    setup = [setup_probe(work) for _ in range(SETUP_PROBES)]
    inst_dir, cli_inputs = prepare(args.workload, args.seed, args.inputs, work)
    rounds: list[dict] = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 0
        t0 = time.perf_counter()
        r = run_round(args.workload, args.seed, inst_dir, cli_inputs, work, traced)
        # probes between rounds see the machine in the same states as the rounds
        setup.append(setup_probe(work))
        longest = max(longest, time.perf_counter() - t0)
        rounds.append(r)
        stages = {st: round(sum(t for key, (t, _) in r["times"].items() if key.startswith(st + "|")), 4) for st in STAGES}
        print(f"round {len(rounds)}: " + json.dumps(dict({k: r[k] for k in ("traced", "cli", "peak_rss_mb", "total")}, stages=stages)), file=sys.stderr)
        enough = len(rounds) >= (2 if args.trace else 1)
        if enough and time.perf_counter() - start + longest > args.seconds:
            break

    log = [op for r in rounds for op in r["ops"]]
    failed = [op for op in log if op[1] != "ok"]
    for op in failed[:20]:
        print("FAILED " + " | ".join(op), file=sys.stderr)
    for name in sorted({m for r in rounds for m in r["missing"]}):
        print(f"missing span: {name}", file=sys.stderr)
    print(f"{args.workload}: {len(rounds)} rounds in {time.perf_counter() - start:.1f} s", file=sys.stderr)
    print(json.dumps({
        "correct": not any(op[1] == "wrong" for op in log),
        "attempted": len(log),
        "failed": len(failed),
        "metrics": layer_metrics(rounds) if args.trace else end_to_end_metrics(rounds, setup),
    }))
    return 0


def end_to_end_metrics(rounds: list[dict], setup: list[list[float]]) -> dict:
    """Every timed unit counts with the median over the run's repeats of its
    time over that of the reference work next to it, at the reference's
    usual time (``speed.scaled``): an instance's stratify or verify, one
    chamber's density, a document and one fiber-volume point over
    the worker processes, a CLI subcommand on one input over its calls, a
    cold import over the set-up probes.  A stage is the sum of its units, a
    ``cli_*`` metric the mean over its inputs.  peak_rss_mb is the median
    over rounds."""
    metrics = {"setup_s": {"value": speed.scaled(setup, speed.REFERENCE_S), "unit": "s"}}
    units: dict[str, list] = {}
    for r in rounds:
        for key, pair in r["times"].items():
            units.setdefault(key, []).append(pair)
    for stage in STAGES:
        value = sum(speed.scaled(v, speed.REFERENCE_S) for key, v in units.items() if key.split("|")[0] == stage)
        metrics[stage] = {"value": value, "unit": "s"}
    metrics["peak_rss_mb"] = {"value": statistics.median(r["peak_rss_mb"] for r in rounds), "unit": "MB"}
    for sub in ("stratify", "dh", "render", "validate-cover", "oracle"):
        keys = sorted({key for r in rounds for key in r["cli"] if key.split()[0] == sub})
        per_input = [
            speed.scaled([pair for r in rounds for pair in r["cli"][key]], speed.PROCESS_REFERENCE_S) for key in keys
        ]
        metrics["cli_" + sub.split("-")[0] + "_s"] = {"value": statistics.fmean(per_input), "unit": "s"}
    return metrics


def layer_metrics(rounds: list[dict]) -> dict:
    traced = [r for r in rounds if r["traced"]]
    metrics = {
        name: {"value": statistics.median(r["layers"][name] for r in traced), "unit": unit}
        for name, (unit, _, _) in tracing.LAYER_METRICS.items()
    }
    overhead = statistics.median(r["total"] for r in traced) - statistics.median(
        r["total"] for r in rounds if not r["traced"]
    )
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


if __name__ == "__main__":
    sys.exit(main())

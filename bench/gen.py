"""Generate the benchmark's frozen toric-spec inputs.

    python3 bench/gen.py --check           regenerate the committed set and
                                           compare it byte for byte
    python3 bench/gen.py --write           rewrite the committed set
    python3 bench/gen.py --seed 7 --out D  draw a fresh held-out set into D

The corpus rule below is a copy of ``random_toric_instance`` from the test
support module, kept here so that an edit to the tests cannot shift a
workload.  Selection rules per workload, scanning draws upward from the
start seed:

* strata-heavy: the first corpus-rule draw with k = 3, fiber dimension
  n - k <= 2 and 30 to 64 strata, and the first with k = 2, n - k <= 2 and
  15 to 30 strata;
* fiber-heavy:  the first corpus-rule draw with k = 1 and n = 5 whose
  polytope is a single simplex;
* dense-facets: the first box in R^4 with 4 non-overlapping corner
  truncations (12 facets) and a coordinate circle subtorus.

Each workload is sized so that no single timed call takes much more than a
second and one round of it, in-process part and CLI pass together, takes
2-5 s on a 2-core machine, so that a run repeats every timed call five to
twelve times.

Every instance carries its exact polytope volume, from a closed form that
does not go through the program: prod c^d / d! for a product of scaled
simplices, and box volume minus t * c^4 / 4! for a truncated box.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
INPUTS = HERE / "inputs"
CORPUS_START = 1000
WORKLOADS = ("strata-heavy", "fiber-heavy", "dense-facets")
# strata-heavy: k -> (fewest, most) strata
STRATA = {3: (30, 64), 2: (15, 30)}


# ---------------------------------------------------------------------------
# corpus rule (copy of the test corpus generator)


def _simplex_block(dim, scale, shift):
    rows, offs = [], []
    for i in range(dim):
        row = [0] * dim
        row[i] = -1
        rows.append(row)
        offs.append(-shift[i])
    rows.append([1] * dim)
    offs.append(scale + sum(shift))
    return rows, offs


def _product_rows(factor_dims, scales, shifts):
    n = sum(factor_dims)
    rows, offs = [], []
    at = 0
    for d, c, sh in zip(factor_dims, scales, shifts):
        block_rows, block_offs = _simplex_block(d, c, sh)
        for row, off in zip(block_rows, block_offs):
            full = [0] * n
            full[at : at + d] = row
            rows.append(full)
            offs.append(off)
        at += d
    return rows, offs


def _face_count(factor_dims):
    total = 1
    for d in factor_dims:
        total *= 2 ** (d + 1) - 1
    return total


def corpus_instance(seed: int, n_max: int = 6, k_max: int = 3) -> dict:
    """One draw of the corpus rule, as a spec dict plus its closed-form volume."""
    import momstrat as m
    from momstrat.toric import momentum_cover

    rng = random.Random(seed)
    while True:
        n = rng.choices(range(2, n_max + 1), weights=[1, 2, 2, 2, 2][: n_max - 1])[0]
        dims = None
        for _ in range(8):
            trial = []
            rem = n
            while rem > 0:
                d = rng.randint(1, rem)
                trial.append(d)
                rem -= d
            if _face_count(trial) <= 130:
                dims = trial
                break
        if dims is None:
            continue
        k = rng.randint(1, min(k_max, n))
        scales = [rng.randint(1, 3) for _ in dims]
        shifts = [[rng.randint(-1, 1) for _ in range(d)] for d in dims]
        rows, offs = _product_rows(dims, scales, shifts)
        polytope = m.HPolytope.from_rows(rows, offs)
        action = None
        for _ in range(40):
            b = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(n)]
            if m.linalg.rank(m.mat(b)) != k:
                continue
            candidate = m.ToricAction(polytope, m.mat(b), f"corpus_{seed}")
            if candidate.is_effective():
                action = candidate
                break
        if action is None:
            continue
        budget = 55 if k == 3 else 70
        if len(momentum_cover(action).members) > budget:
            continue
        volume = Fraction(1)
        for d, c in zip(dims, scales):
            volume *= Fraction(c**d, math.factorial(d))
        return _spec(f"corpus_{seed}", rows, offs, b, volume, {"factors": [list(p) for p in zip(dims, scales)]})


def _spec(name, rows, offs, b, volume, makeup) -> dict:
    return {
        "spec": {
            "name": name,
            "ambient_dim": len(rows[0]),
            "inequalities": [
                {"normal": list(r), "offset": str(Fraction(o))} for r, o in zip(rows, offs)
            ],
            "subtorus_matrix": [list(r) for r in b],
        },
        "volume": str(volume),
        "makeup": makeup,
    }


# ---------------------------------------------------------------------------
# dense-facets rule


def truncated_box(seed: int, cuts: int) -> dict:
    """Box [0,a_1] x ... x [0,a_4] with ``cuts`` corner simplices of leg c cut off.

    Each cut is the hyperplane sum_i s_i x_i = sum_i s_i v_i - c at corner v,
    with s_i = +1 where v_i = a_i and -1 where v_i = 0.  Since 2c < a_i,
    no two cut-off simplices meet, and each one has volume c^4 / 4!.  The
    subtorus is a random coordinate circle, so the image has three chambers
    and each fiber is a 3-dimensional truncated box with many rows.
    """
    rng = random.Random(seed)
    dim = 4
    sides = [rng.randint(3, 6) for _ in range(dim)]
    cut = 1
    corners = sorted(rng.sample(list(itertools.product((0, 1), repeat=dim)), cuts))
    rows, offs = [], []
    for i in range(dim):
        for sign in (-1, 1):
            row = [0] * dim
            row[i] = sign
            rows.append(row)
            offs.append(sides[i] if sign > 0 else 0)
    for corner in corners:
        signs = [1 if c else -1 for c in corner]
        v = [a if c else 0 for a, c in zip(sides, corner)]
        rows.append(signs)
        offs.append(sum(s * x for s, x in zip(signs, v)) - cut)
    axis = rng.randrange(dim)
    b = [[1 if i == axis else 0] for i in range(dim)]
    volume = Fraction(math.prod(sides)) - Fraction(len(corners) * cut**dim, math.factorial(dim))
    return _spec(
        f"box_{seed}", rows, offs, b, volume,
        {"box": sides, "cut": cut, "corners": [list(c) for c in corners]},
    )


# ---------------------------------------------------------------------------
# selection


def _strata(spec: dict) -> int:
    import momstrat
    from momstrat.io import parse_toric_spec

    return len(momstrat.hamiltonian_stratification(parse_toric_spec(spec)).strata)


def select(workload: str, seed: int) -> list[dict]:
    """The instances of one workload; seed 0 gives the committed set."""
    s = CORPUS_START + 100_000 * seed
    if workload == "dense-facets":
        return [truncated_box(s, 4)]
    wanted = {3: None, 2: None} if workload == "strata-heavy" else {1: None}
    while None in wanted.values():
        inst = corpus_instance(s)
        s += 1
        spec = inst["spec"]
        n, k = spec["ambient_dim"], len(spec["subtorus_matrix"][0])
        if wanted.get(k, 0) is not None:
            continue
        if workload == "fiber-heavy" and n == 5 and len(inst["makeup"]["factors"]) == 1:
            wanted[k] = inst
        elif workload == "strata-heavy" and n - k <= 2 and STRATA[k][0] <= _strata(spec) <= STRATA[k][1]:
            wanted[k] = inst
    return list(wanted.values())


def render_set(workload: str, seed: int) -> dict[str, bytes]:
    """File name -> bytes for one workload's instance directory."""
    insts = select(workload, seed)
    files = {}
    manifest = []
    for i, inst in enumerate(insts):
        fname = f"{i:02d}_{inst['spec']['name']}.json"
        files[fname] = _dump(inst["spec"])
        manifest.append({"file": fname, "volume": inst["volume"], "makeup": inst["makeup"]})
    files["manifest.json"] = _dump({"workload": workload, "seed": seed, "instances": manifest})
    return files


def _dump(obj) -> bytes:
    return (json.dumps(obj, indent=1, sort_keys=True) + "\n").encode()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", type=Path, default=INPUTS)
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="compare with the files on disk")
    mode.add_argument("--write", action="store_true", help="write the files")
    args = ap.parse_args(argv)
    bad = 0
    for workload in WORKLOADS:
        target = args.out / workload
        files = render_set(workload, args.seed)
        if args.write:
            target.mkdir(parents=True, exist_ok=True)
            for old in target.glob("*.json"):
                old.unlink()
            for name, data in files.items():
                (target / name).write_bytes(data)
            print(f"{workload}: wrote {len(files)} files to {target}")
            continue
        on_disk = {p.name for p in target.glob("*.json")}
        for name, data in files.items():
            path = target / name
            if not path.is_file() or path.read_bytes() != data:
                print(f"{workload}: {name} differs", file=sys.stderr)
                bad += 1
        for name in sorted(on_disk - set(files)):
            print(f"{workload}: unexpected file {name}", file=sys.stderr)
            bad += 1
        if not bad:
            print(f"{workload}: {len(files)} files identical")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

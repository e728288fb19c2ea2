"""Command-line interface.

Exit codes: 0 success, 2 parse error, 3 cover validation failure,
4 internal soundness assertion, 5 interpolation inconsistency,
6 unsupported render dimension.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .cover import PiecewiseAffineCover
from .dh import density_polynomial, fiber_volume, mc_fiber_volume
from .errors import (
    DimensionMismatch,
    InterpolationInconsistent,
    InvalidCover,
    MomstratError,
    NonIntegrable,
    ParseError,
)
from .io import (
    _rat,
    dumps,
    make_document,
    parse_document,
    parse_input_file,
    serialize_document,
    validation_report_to_json,
)
from .render import render_svg
from .stratifier import stratify
from .toric import ToricAction, hamiltonian_stratification

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INVALID_COVER = 3
EXIT_INTERNAL = 4
EXIT_INTERPOLATION = 5
EXIT_RENDER_DIM = 6


def _default_seed() -> int | None:
    """STRATA_SEED, then 0; None when STRATA_SEED is not an integer."""
    try:
        return int(os.environ.get("STRATA_SEED", "0"))
    except ValueError:
        return None


def _write_out(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _load(path: str):
    raw = Path(path).read_bytes()
    return raw, parse_input_file(raw)


def _formality_provenance(obj) -> dict[str, str]:
    """Non-Delzant rational inputs are accepted; the output is then only a
    formal stratification of the projected polytope, flagged as such."""
    if isinstance(obj, ToricAction) and not obj.is_delzant():
        sys.stderr.write(
            "warning: polytope is not Delzant; output is a formal stratification\n"
        )
        return {"formal": "true"}
    return {}


def cmd_validate_cover(args) -> int:
    raw, obj = _load(args.input)
    if isinstance(obj, ToricAction):
        obj = obj.cover
    report = obj.validation
    _write_out(dumps(validation_report_to_json(report)), args.out)
    return EXIT_OK if report.valid else EXIT_INVALID_COVER


def cmd_stratify(args) -> int:
    raw, obj = _load(args.input)
    if isinstance(obj, PiecewiseAffineCover):
        report = obj.validation  # kept on the cover: stratify does not validate again
        if not report.valid:
            sys.stderr.write(dumps(validation_report_to_json(report)))
            return EXIT_INVALID_COVER
        s = stratify(obj)
    else:
        s = hamiltonian_stratification(obj)
    doc = make_document(s, raw_input=raw, extra_provenance=_formality_provenance(obj))
    _write_out(serialize_document(doc), args.out)
    return EXIT_OK


def cmd_dh(args) -> int:
    raw, obj = _load(args.input)
    if not isinstance(obj, ToricAction):
        raise ParseError("density computation needs a toric spec input")
    s = hamiltonian_stratification(obj)
    densities = {}
    for st in s.strata:
        if st.dim == obj.k:
            densities[st.id] = density_polynomial(obj, s, st.id, seed=args.seed)
    doc = make_document(s, densities, raw_input=raw, extra_provenance=_formality_provenance(obj))
    _write_out(serialize_document(doc), args.out)
    return EXIT_OK


def cmd_render(args) -> int:
    raw = Path(args.input).read_bytes()
    doc = parse_document(raw)
    svg = render_svg(doc, label_densities=args.labels)
    _write_out(svg, args.out)
    return EXIT_OK


def cmd_oracle(args) -> int:
    raw, obj = _load(args.input)
    if not isinstance(obj, ToricAction):
        raise ParseError("the oracle needs a toric spec input")
    for flag in ("trials", "samples"):
        if getattr(args, flag) < 1:
            raise ParseError(f"--{flag} must be positive, got {getattr(args, flag)}")
    points = []
    if args.point:
        try:
            x = tuple(_rat(t) for t in args.point.split(","))
        except ParseError as exc:
            raise ParseError(f"--point is not a list of exact rationals: {exc}") from exc
        if len(x) != obj.k:
            raise ParseError(f"--point needs {obj.k} coordinates, got {len(x)}")
        points.append(x)
    else:
        s = hamiltonian_stratification(obj)
        import random

        rng = random.Random(args.seed)
        tops = [st for st in s.strata if st.dim == obj.k]
        for st in tops:
            points.extend(st.cells[0].interior_points(max(1, args.samples // max(len(tops), 1)), rng))
        # a 0-dimensional cell gives its one point every time
        points = list(dict.fromkeys(points))
    rows = []
    for x in points:
        exact = fiber_volume(obj, x).volume
        est = mc_fiber_volume(obj, x, trials=args.trials, seed=args.seed)
        sigma = est.std_error if est.std_error > 0 else 1e-12
        rows.append(
            {
                "point": [str(c) for c in x],
                "exact": str(exact),
                "estimate": est.estimate,
                "std_error": est.std_error,
                "sigmas_off": abs(est.estimate - float(exact)) / sigma,
            }
        )
    _write_out(dumps({"trials": args.trials, "seed": args.seed, "points": rows}), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="momstrat",
        description="Exact stratifications of momentum-map images and DH densities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    seed = _default_seed()

    def common(p):
        p.add_argument("input", help="input file path")
        p.add_argument("--out", default=None, help="output file (default: stdout)")
        p.add_argument("--seed", type=int, default=seed, help="deterministic seed")

    p = sub.add_parser("validate-cover", help="check the piecewise-affine cover axioms")
    common(p)
    p.set_defaults(func=cmd_validate_cover)

    p = sub.add_parser("stratify", help="compute the canonical stratification")
    common(p)
    p.set_defaults(func=cmd_stratify)

    p = sub.add_parser("dh", help="stratify and attach density polynomials")
    common(p)
    p.set_defaults(func=cmd_dh)

    p = sub.add_parser("render", help="render a stratification file to SVG")
    common(p)
    p.add_argument("--labels", action="store_true", help="label chambers with densities")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("oracle", help="Monte-Carlo cross-check of exact fiber volumes")
    common(p)
    p.add_argument("--point", default=None, help="comma-separated rational coordinates")
    p.add_argument("--trials", type=int, default=100000, help="Monte-Carlo trials per point")
    p.add_argument("--samples", type=int, default=5, help="points per chamber, max(1, SAMPLES // chambers), without --point")
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.seed is None:  # no --seed, and STRATA_SEED is not an integer
            raise ParseError(f"STRATA_SEED is not an integer: {os.environ['STRATA_SEED']!r}")
        return args.func(args)
    except (ParseError, OSError) as exc:  # OSError: a missing, unreadable or directory path
        sys.stderr.write(f"parse error: {exc}\n")
        return EXIT_PARSE
    except InvalidCover as exc:
        sys.stderr.write(f"cover validation failure: {exc}\n")
        return EXIT_INVALID_COVER
    except InterpolationInconsistent as exc:
        sys.stderr.write(f"interpolation inconsistency: {exc}\n")
        return EXIT_INTERPOLATION
    except (NonIntegrable, AssertionError) as exc:
        sys.stderr.write(f"internal soundness assertion failed: {exc}\n")
        return EXIT_INTERNAL
    except DimensionMismatch as exc:
        sys.stderr.write(f"unsupported dimension: {exc}\n")
        return EXIT_RENDER_DIM
    except MomstratError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())

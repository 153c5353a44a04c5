"""Batch command-line surface.

Subcommands: entropy, mahler, polygon, trajectory, classify, verify.
Documents are UTF-8 JSON: exact integers (counts, valuations, clearing
integers, coefficients) are serialized as decimal strings since they
overflow doubles quickly; floats are serialized at full double precision;
polynomial coefficients are ascending by degree everywhere.

A computing subcommand reads only its keys in `_READS`, each from `--input`
or its flag (`--max-n` for `n_max`): entropy matrix or poly, tolerance;
mahler poly, tolerance; polygon poly; trajectory and classify matrix, m,
n_max, budget, tolerance.  Any other flag exits 2 (argparse), and any other
key, `precision` among them, is ignored (the root ladder starts at 64 bits).

Exit codes: 0 success, 2 input error (also an integer to factor that Pollard
rho cannot split within its budget), 3 certification failure (partial
report emitted), 4 verification failure, 5 internal error (a library
invariant failed, or a library ValueError got past the input checks).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

from .entropy import algebraic_entropy, polynomial_entropy
from .linalg import RationalMatrix
from .mahler import DEFAULT_TOLERANCE, mahler_measure
from .numtheory import FactorizationError
from .padic import verify_place_identity
from .ratpoly import IntPoly, InvariantError, parse_rational
from .roots import CertificationError
from .trajectory import (
    DEFAULT_BUDGET,
    MIN_LEVELS,
    admissible_m,
    classify_growth,
    trajectory_counts,
)
from .verify import SUITES, run_suite

_ENTRY_LIMIT = 10**1000  # per numerator and denominator of a matrix entry

# the document keys each computing subcommand reads, and the flag of each key
_READS = {
    "entropy": ("matrix", "poly", "tolerance"),
    "mahler": ("poly", "tolerance"),
    "polygon": ("poly",),
    "trajectory": ("matrix", "m", "n_max", "budget", "tolerance"),
    "classify": ("matrix", "m", "n_max", "budget", "tolerance"),
}
_FLAGS = {
    "matrix": ("--matrix", "inline matrix JSON, e.g. '[[\"3/2\"]]'"),
    "poly": ("--poly", "inline ascending integer coefficients, e.g. '[1,-5,6]'"),
    "m": ("--m", "grid density (0 = admissible)"),
    "n_max": ("--max-n", "trajectory levels"),
    "budget": ("--budget", "stored-point budget"),
    "tolerance": ("--tolerance", "measure tolerance"),
}


class InputError(ValueError):
    """Bad input document or flags (exit code 2)."""


@dataclass
class InputSpec:
    matrix: RationalMatrix | None = None
    poly: IntPoly | None = None
    m: int = 1
    n_max: int = 10
    budget: int = DEFAULT_BUDGET
    tolerance: float = DEFAULT_TOLERANCE


def _parse_entry(value) -> Fraction:
    if isinstance(value, float):
        raise InputError(f"floating-point entry {value!r}: use exact strings like \"a/b\"")
    try:
        entry = parse_rational(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational entry {value!r}: {exc}") from exc
    if max(abs(entry.numerator), entry.denominator) >= _ENTRY_LIMIT:
        raise InputError("a matrix entry's numerator and denominator must have at most 1000 digits")
    return entry


def _parse_int(value, what: str) -> int:
    """An int, or a string of ASCII digits with an optional sign, as for a
    matrix entry but with no slash; a bool or a float is an input error."""
    if isinstance(value, bool) or isinstance(value, float):
        raise InputError(f"{what} must be an integer, got {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, str) and "/" not in value:
        try:
            return parse_rational(value).numerator
        except ValueError as exc:
            raise InputError(f"bad {what}: {value!r}") from exc
    raise InputError(f"bad {what}: {value!r}")


def parse_spec(doc: dict, command: str) -> InputSpec:
    """The input of `command`: the keys it reads, validated; other keys are ignored."""
    if not isinstance(doc, dict):
        raise InputError("input document must be a JSON object")
    doc = {key: doc[key] for key in _READS[command] if key in doc}
    inputs = [key for key in ("matrix", "poly") if key in _READS[command]]
    if sum(key in doc for key in inputs) != 1:
        raise InputError(f"{command} needs exactly one of {' or '.join(map(repr, inputs))}")
    spec = InputSpec()
    if "matrix" in doc:
        rows = doc["matrix"]
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise InputError("'matrix' must be an array of rows")
        try:
            spec.matrix = RationalMatrix([[_parse_entry(e) for e in row] for row in rows])
        except ValueError as exc:
            raise InputError(str(exc)) from exc
    else:
        coeffs = doc["poly"]
        if not isinstance(coeffs, list) or not coeffs:
            raise InputError("'poly' must be a non-empty coefficient array")
        parsed = [_parse_int(c, "polynomial coefficient") for c in coeffs]
        if parsed[-1] == 0:
            raise InputError("leading (last) polynomial coefficient must be nonzero")
        spec.poly = IntPoly(parsed)
    for field in ("m", "n_max", "budget"):
        if field in doc:
            setattr(spec, field, _parse_int(doc[field], f"option {field!r}"))
    if "tolerance" in doc:
        value = doc["tolerance"]
        if isinstance(value, bool):
            raise InputError(f"bad option 'tolerance': {value!r}")
        try:
            spec.tolerance = float(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"bad option 'tolerance': {value!r}") from exc
    if not 0 < spec.tolerance < float("inf"):
        raise InputError(f"tolerance must be finite and > 0, got {spec.tolerance!r}")
    if spec.m < 0:
        raise InputError(f"m must be >= 0 (0 = admissible), got {spec.m}")
    return spec


def _spec_from_args(args) -> InputSpec:
    doc: dict = {}
    if args.input:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:  # bad JSON or UTF-8, or an int past 4300 digits
            raise InputError(f"cannot read input file: {exc}") from exc
        if not isinstance(doc, dict):
            raise InputError("input document must be a JSON object")
    given = {key: getattr(args, key) for key in _READS[args.command]}
    inline = {key: value for key, value in given.items() if value is not None}
    if inline.keys() & {"matrix", "poly"}:  # an inline input replaces the file's; two stay two
        doc = {key: value for key, value in doc.items() if key not in ("matrix", "poly")}
    for key, value in inline.items():
        if key in ("matrix", "poly"):
            try:
                value = json.loads(value)
            except ValueError as exc:
                raise InputError(f"bad {_FLAGS[key][0]} JSON: {exc}") from exc
        doc[key] = value
    spec = parse_spec(doc, args.command)
    # each subcommand's checks on its input: a ValueError from the library
    # past this point is a defect, not an input error
    if args.command in ("trajectory", "classify"):
        least = MIN_LEVELS if args.command == "classify" else 1
        if spec.n_max < least:
            raise InputError(f"{args.command} needs n_max >= {least}, got {spec.n_max}")
        spec.m = spec.m or admissible_m(spec.matrix)
        grid_size = (2 * spec.m + 1) ** spec.matrix.n
        if spec.budget < grid_size:
            raise InputError(f"budget {spec.budget} below the grid size {grid_size}")
    return spec


def _emit(doc: dict, pretty: bool) -> None:
    print(json.dumps(doc, indent=2 if pretty else None))


def _cmd_entropy(args) -> int:
    spec = _spec_from_args(args)
    if spec.matrix is not None:
        report = algebraic_entropy(spec.matrix, tolerance=spec.tolerance)
    else:
        report = polynomial_entropy(spec.poly, tolerance=spec.tolerance)
    doc = {
        "entropy": report.total,
        "log_s": report.log_s,
        "archimedean": report.archimedean,
        "finite_places": [
            {"p": p, "v_s": v, "contribution": c} for p, v, c in report.finite_places
        ],
        "s": str(Decimal(report.s)),  # str() of an int stops at 4300 digits, Decimal's does not
        "char_poly_primitive": [str(Decimal(c)) for c in report.char_poly_primitive.coeffs],
        "zero_entropy_exact": report.zero_entropy_exact,
        "certified": True,  # an uncertified entropy raises: exit 3
    }
    _emit(doc, args.pretty)
    return 0


def _root_docs(roots) -> list[dict]:
    """One object per certified root (RootInterval)."""
    return [
        {"re": r.re, "im": r.im, "mod_lo": r.mod_lo, "mod_hi": r.mod_hi,
         "multiplicity": r.multiplicity}
        for r in roots
    ]


def _cmd_mahler(args) -> int:
    spec = _spec_from_args(args)
    measured = mahler_measure(spec.poly, tolerance=spec.tolerance)
    doc = {
        "value": measured.value,
        "certified": True,  # an uncertified measure raises: exit 3
        "archimedean": measured.archimedean,
        "log_lead": measured.log_lead,
        "roots": _root_docs(measured.roots),
    }
    _emit(doc, args.pretty)
    return 0


def _cmd_polygon(args) -> int:
    spec = _spec_from_args(args)
    poly = spec.poly
    content = poly.content()
    primitive = poly.primitive_part()
    identity = verify_place_identity(primitive)
    primes = []
    for (p, v_s, mass, _), polygon in zip(identity.per_prime, identity.polygons):
        primes.append(
            {
                "p": p,
                "points": [[i, v] for i, v in polygon.points],
                "segments": [
                    {"slope": str(s.slope), "length": s.length} for s in polygon.segments
                ],
                "contribution_exact": str(mass),
                "contribution": float(mass) * math.log(p),
                "v_s": v_s,
            }
        )
    doc = {
        "poly": [str(c) for c in poly.coeffs],
        "content": str(content),
        "primitive": [str(c) for c in primitive.coeffs],
        "s": str(identity.s),
        "primes": primes,
        "identity": {"pass": identity.all_ok, "log_gap": identity.log_gap},
    }
    _emit(doc, args.pretty)
    return 0 if identity.all_ok else 4


def _trajectory_payload(spec: InputSpec) -> dict:
    run = trajectory_counts(spec.matrix, spec.m, spec.n_max, budget=spec.budget)
    formula = algebraic_entropy(spec.matrix, tolerance=spec.tolerance).total
    assessment = (
        classify_growth(run, formula_entropy=formula) if run.levels >= MIN_LEVELS else None
    )
    return {
        "m": spec.m,
        "n_max": spec.n_max,
        "budget": spec.budget,
        "counts": [str(t) for t in run.counts],
        "h_cum": list(run.h_cum),
        "h_inc": list(run.h_inc),
        "budget_exhausted_at": run.budget_exhausted_at,
        "classification": assessment.classification if assessment else None,
        "formula_entropy": formula,
        "gap": abs(run.h_inc[-1] - formula),
        "discrepancy": assessment.discrepancy if assessment else False,
        "support_primes": list(run.support_primes),
    }


def _cmd_trajectory(args) -> int:
    spec = _spec_from_args(args)
    _emit(_trajectory_payload(spec), args.pretty)
    return 0


def _cmd_classify(args) -> int:
    spec = _spec_from_args(args)
    payload = _trajectory_payload(spec)
    if len(payload["counts"]) < MIN_LEVELS:
        raise InputError(
            f"classify needs at least {MIN_LEVELS} computed levels, got {len(payload['counts'])}: "
            "raise --max-n or --budget"
        )
    doc = {
        "classification": payload["classification"],
        "formula_entropy": payload["formula_entropy"],
        "discrepancy": payload["discrepancy"],
        "levels": len(payload["counts"]),
        "h_inc_final": payload["h_inc"][-1],
        "gap": payload["gap"],
    }
    _emit(doc, args.pretty)
    return 0


def _cmd_verify(args) -> int:
    if args.count is not None and args.count < 0:
        raise InputError(f"--count must be >= 0, got {args.count}")
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    failures = 0
    for name in names:
        result = run_suite(name, seed=args.seed, count=args.count)
        for check in result.checks:
            mark = "ok " if check.passed else "FAIL"
            print(f"{mark} {check.name} {check.detail}")
        failures += len(result.checks) - result.passed
        print(f"SUITE {name}: {result.passed}/{len(result.checks)} passed")
    return 0 if failures == 0 else 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="algentropy",
        description="Exact algebraic entropy of rational matrices: "
        "Mahler measure, per-place decomposition, and a brute-force "
        "trajectory oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn in (
        ("entropy", _cmd_entropy),
        ("mahler", _cmd_mahler),
        ("polygon", _cmd_polygon),
        ("trajectory", _cmd_trajectory),
        ("classify", _cmd_classify),
    ):
        p = sub.add_parser(name, allow_abbrev=False)  # else entropy's --m is --matrix
        p.add_argument("--input", help="JSON input document")
        for key in _READS[name]:
            flag, text = _FLAGS[key]
            p.add_argument(flag, dest=key, help=text)
        p.add_argument("--pretty", action="store_true", help="indent the JSON output")
        p.set_defaults(func=fn)

    v = sub.add_parser("verify", allow_abbrev=False)
    v.add_argument("--suite", required=True, choices=["all", *sorted(SUITES)])
    v.add_argument("--count", type=int, default=None, help="number of random checks")
    v.add_argument("--seed", type=int, default=0, help="RNG seed")
    v.set_defaults(func=_cmd_verify)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of `main`, built on its first call and reused."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, FactorizationError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except CertificationError as exc:
        report = {"error": str(exc), "certified": False, "roots": _root_docs(exc.partial)}
        _emit(report, getattr(args, "pretty", False))
        return 3
    except (InvariantError, ValueError) as exc:
        # every input check raises InputError, so any other ValueError is a defect
        print(f"internal error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())

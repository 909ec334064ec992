"""Command-line front end.

Subcommands: dims, check, decompose, realize, curvature, paper-examples,
selftest.  Human-readable tables go to stdout; the --report/--out options
write machine-readable JSON.  Exit codes: 0 success, 1 domain failure (input
violates a mathematical precondition), 2 usage or file-schema error,
3 internal invariant breach.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .connections import connection_from_theta, curvature_at
from .decomposition import (
    DIMENSION_LABELS,
    computed_dimension_table,
    module_dimension_table,
    w_project,
)
from .errors import DomainViolation, InternalCheckFailure, SchemaViolation
from .realization import VERIFICATION_KEYS, realize
from .selfcheck import run_selftest
from .serialization import (
    read_tensor_file,
    read_theta_file,
    tensor_to_payload,
    write_tensor_file,
    write_theta_file,
)
from .tensors import (
    DEFAULT_TOL,
    IDENTITY_NAMES,
    SpaceConfig,
    _parity_parts,
    classify_symmetries,
)
from .witnesses import CASES, run_witness_case

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _fmt(value) -> str:
    """Integers print bare; other floats use the shortest faithful repr."""
    if isinstance(value, str):
        return value
    real = float(value)
    if real == int(real) and abs(real) < 1e15:
        return str(int(real))
    return repr(real)


def _write_report(path: str | None, payload: dict) -> None:
    if path:
        Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8")


def _option_error(args) -> str | None:
    """The first option value that parsed but lies outside its range."""
    if args.command in ("dims", "selftest") and args.mbar < 2:
        return f"--mbar must be at least 2, got {args.mbar}"
    if args.command == "selftest" and args.trials < 1:
        return f"--trials must be at least 1, got {args.trials}"
    if args.command in ("check", "decompose") and not (math.isfinite(args.tol) and args.tol >= 0.0):
        return f"--tol must be a finite number >= 0, got {args.tol}"
    return None


def _finite_numbers(option: str, text: str, count: int, owner: str) -> tuple[float, ...]:
    """The ``count`` comma-separated finite numbers of an option value, or a
    SchemaViolation (exit 2) naming the option."""
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError:
        raise SchemaViolation(f"{option} {text} must be comma-separated numbers") from None
    if not all(math.isfinite(value) for value in values):
        raise SchemaViolation(f"{option} {text} has a non-finite value")
    if len(values) != count:
        raise SchemaViolation(f"{option}: {owner} takes {count} value(s), got {len(values)}")
    return values


def _cmd_dims(args) -> int:
    closed = module_dimension_table(args.mbar).dims
    computed = computed_dimension_table(SpaceConfig(args.mbar)).dims
    rows = []
    all_ok = True
    for label in DIMENSION_LABELS:
        ok = closed[label] == computed[label]
        all_ok &= ok
        rows.append({"label": label, "closed_form": closed[label], "computed": computed[label], "ok": ok})
        print(f"{label} {closed[label]} {computed[label]} {'OK' if ok else 'FAIL'}")
    _write_report(args.report, {"m_bar": args.mbar, "rows": rows, "ok": all_ok})
    return EXIT_OK if all_ok else EXIT_INTERNAL


def _cmd_check(args) -> int:
    tensor = read_tensor_file(args.input)
    report = classify_symmetries(tensor, tol=args.tol)
    for name in IDENTITY_NAMES:
        flag = "OK" if report.flags[name] else "VIOLATED"
        print(f"{name} {flag} max_violation={report.violations[name]:.6e}")
    print(f"in_K {'true' if report.in_K else 'false'}")
    payload = {
        "m_bar": tensor.config.m_bar,
        "tol": args.tol,
        "identities": {
            name: {"ok": report.flags[name], "max_violation": report.violations[name]}
            for name in IDENTITY_NAMES
        },
        "in_K": report.in_K,
    }
    _write_report(args.report, payload)
    return EXIT_OK if report.in_K else EXIT_DOMAIN


def _cmd_decompose(args) -> int:
    tensor = read_tensor_file(args.input)
    decomp = w_project(tensor, tol=args.tol)  # validates membership in K
    plus, minus = _parity_parts(tensor)
    print(f"total_norm {tensor.norm():.12e}")
    for label, norm in decomp.norms.items():
        print(f"{label} {norm:.12e}")
    print(f"residual {decomp.residual:.6e}")
    print(f"parity_plus_norm {plus.norm():.12e}")
    print(f"parity_minus_norm {minus.norm():.12e}")
    payload = {
        "m_bar": tensor.config.m_bar,
        "norms": decomp.norms,
        "residual": decomp.residual,
        "parity": {"plus_norm": plus.norm(), "minus_norm": minus.norm()},
        "total_norm": tensor.norm(),
    }
    _write_report(args.report, payload)
    return EXIT_OK


def _cmd_realize(args) -> int:
    tensor = read_tensor_file(args.input)
    result = realize(tensor, mode=args.mode)
    write_theta_file(args.out, result.theta)
    for name in VERIFICATION_KEYS:
        print(f"{name} {result.report[name]:.6e}")
    print(f"verified {'true' if result.verified else 'false'}")
    print(f"theta_written {args.out}")
    _write_report(
        args.report,
        {
            "mode": result.parity_mode,
            "residual": result.residual,
            "verified": result.verified,
            "report": result.report,
        },
    )
    return EXIT_OK if result.verified else EXIT_INTERNAL


def _cmd_curvature(args) -> int:
    theta = read_theta_file(args.theta)
    m = 2 * theta.m_bar
    coords = _finite_numbers("--point", args.point, m, f"a point in R^{m}")
    curv = curvature_at(connection_from_theta(theta), np.array(coords))
    payload = tensor_to_payload(curv)
    if args.out:
        write_tensor_file(args.out, curv)
        print(f"tensor_written {args.out}")
    else:
        print(json.dumps(payload))
    return EXIT_OK


def _cmd_paper_examples(args) -> int:
    rho = None
    if args.rho is not None:
        rho = _finite_numbers("--rho", args.rho, len(CASES[args.case].default_rho), f"case {args.case}")
    case = run_witness_case(args.case, rho=rho, m_bar=args.mbar)
    for check in case.checks:
        print(f"{check.name} {_fmt(check.expected)} {_fmt(check.computed)} {'OK' if check.ok else 'FAIL'}")
    passed = sum(check.ok for check in case.checks)
    print(f"{passed}/{len(case.checks)} checks passed")
    _write_report(
        args.report,
        {
            "case": case.case_id,
            "m_bar": case.m_bar,
            "rho": list(case.rho),
            "checks": [
                {
                    "name": chk.name,
                    "expected": chk.expected,
                    "computed": chk.computed,
                    "ok": chk.ok,
                }
                for chk in case.checks
            ],
            "ok": case.ok,
        },
    )
    return EXIT_OK if case.ok else EXIT_DOMAIN


def _cmd_selftest(args) -> int:
    report = run_selftest(args.mbar, args.trials, args.seed)
    print(report.render())
    _write_report(
        args.report,
        {
            "m_bar": report.m_bar,
            "trials": report.trials,
            "seed": report.seed,
            "items": [
                {"name": item.name, "worst": item.worst, "tol": item.tol, "ok": item.ok}
                for item in report.items
            ],
            "ok": report.ok,
        },
    )
    return EXIT_OK if report.ok else EXIT_DOMAIN


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affine-kahler",
        description="Classify, decompose and geometrically realize curvature "
        "tensors with Kahler symmetry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dims", help="closed-form vs computed dimension table")
    p.add_argument("--mbar", type=int, required=True)
    p.add_argument("--report", help="write the table as JSON")
    p.set_defaults(fn=_cmd_dims)

    p = sub.add_parser("check", help="evaluate the symmetry identities of a tensor file")
    p.add_argument("--input", required=True)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--report", help="write the result as JSON")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("decompose", help="project a tensor onto the twelve modules")
    p.add_argument("--input", required=True)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--report", help="write the norms as JSON")
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("realize", help="solve for a coefficient field with the given curvature")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True, help="where to write the coefficient field")
    p.add_argument("--mode", choices=("joint", "split"), default="joint")
    p.add_argument("--report", help="write the verification residuals as JSON")
    p.set_defaults(fn=_cmd_realize)

    p = sub.add_parser("curvature", help="evaluate the curvature of a coefficient field at a point")
    p.add_argument("--theta", required=True)
    p.add_argument("--point", required=True, help="comma-separated coordinates, length 2*m_bar")
    p.add_argument("--out", help="write the tensor file here instead of stdout")
    p.set_defaults(fn=_cmd_curvature)

    p = sub.add_parser("paper-examples", help="reproduce a named witness value table")
    p.add_argument("--case", required=True, choices=sorted(CASES))
    p.add_argument("--rho", help="comma-separated parameters (defaults per case)")
    p.add_argument("--mbar", type=int, help="model size (defaults to the case minimum)")
    p.add_argument("--report", help="write the comparison as JSON")
    p.set_defaults(fn=_cmd_paper_examples)

    p = sub.add_parser("selftest", help="run the seeded invariant suite")
    p.add_argument("--mbar", type=int, required=True)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", help="write the results as JSON")
    p.set_defaults(fn=_cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    problem = _option_error(args)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.fn(args)
    except SchemaViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DomainViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except InternalCheckFailure as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

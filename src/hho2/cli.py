"""Command line front end.

Subcommand groups wrap the library layers: `catalog` exposes the built-in
operator entries, `op` works on operator JSON documents (validation, linear
transformation, conformal checks, the correspondence with constant 3-forms),
and `sys` generates, verifies and diagnoses conservative systems.

Only `--seed`, `--coefficient-range` and `--output` come before the group;
every other option belongs to the one command that reads it. Reports echo no
options, so a seeded report depends only on the arguments that affect it.

Exit codes: 0 all checks passed, 1 a mathematical check failed, 2 bad input.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import re
import sys as _sys
from fractions import Fraction
from typing import List, Optional

from .catalog import N8_CLASS_COUNT, get_entry, list_entries
from .operators import (
    Hho2,
    conformal_check,
    conformal_determinant_check,
    transform,
    validate,
)
from .poly import MAX_COEFFICIENT_RANGE, MAX_DIGITS, MAX_POINTS, rat
from .systems import (
    ConservativeSystem,
    DegenerateOperatorError,
    FluxParams,
    casimir_check,
    check_compat,
    euler_check,
    linearity_report,
    pluecker_relations,
    random_flux_params,
)
from .diagnostics import run_diagnostics, sample_points
from .threeform import LinearMapN1, ThreeForm, chart_restrict, embed


class InputError(Exception):
    """Bad file, malformed document, or unknown identifier."""


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _load(source: str, reader, flag: Optional[str] = None):
    """`reader` applied to the document at the path `source`, or to `source`
    itself when it is empty or a JSON literal given to the option `flag`; a
    malformed document is an InputError naming the path, or the option for a
    literal, which is never echoed."""
    inline = flag is not None and source.lstrip()[:1] in "[{"
    text, label = (source, f"{flag} (inline JSON)") if inline else (_read_text(source), source)
    try:
        return reader(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{label}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise InputError(f"{label}: {exc}") from exc


def _load_sl(source: str, op: Hho2) -> LinearMapN1:
    """The --sl map of a command on `op`, refused unless it is (n+1)x(n+1)."""
    a = _load(source, LinearMapN1.from_json, "--sl")
    if a.dim != op.n + 1:
        raise InputError(f"--sl matrix must be {op.n + 1}x{op.n + 1} for this operator")
    return a


def _parse_param_list(items: Optional[List[str]]) -> dict:
    values = {}
    for item in items or []:
        name, sep, raw = item.partition("=")
        if not sep or not name:
            raise InputError(f"parameter {item!r} is not of the form name=value")
        try:
            values[name] = rat(raw)
        except ValueError as exc:
            raise InputError(f"parameter {item!r}: {exc}") from exc
    return values


def _parse_constants(raw: Optional[str], n: int) -> Optional[List[Fraction]]:
    if raw is None:
        return None
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != n:
        raise InputError(f"--constants expects {n} comma-separated values")
    try:
        return [rat(p) for p in parts]
    except ValueError as exc:
        raise InputError(f"--constants: {exc}") from exc


def _sample_points(op: Hho2, count: int, rng, bound: int, allow_degenerate: bool = False):
    """`sample_points` with a sampling failure reported as bad input: every
    point of the coefficient box lies on the degeneracy locus."""
    try:
        return sample_points(op, count, rng, bound=bound, allow_degenerate=allow_degenerate)
    except RuntimeError as exc:
        raise InputError(str(exc)) from exc


# A plain decimal integer: its sign and its digits after any leading zeros.
_DECIMAL = re.compile(r"\s*([+-]?)0*([0-9]+)\s*", re.ASCII)


def _bounded_int(flag: str, high: int):
    """An argparse type: an int from 1 to `high`, refused naming `flag`.

    A decimal value is read only up to one digit more than `high` has: a
    longer one is out of range either way, so one past Python's int string
    limit is refused by the bound, not echoed back in full.
    """
    def parse(text: str) -> int:
        decimal = _DECIMAL.fullmatch(text)
        value = int(decimal[1] + decimal[2][:len(str(high)) + 1]) if decimal else int(text)
        if value < 1:
            raise argparse.ArgumentTypeError(f"{flag} must be at least 1")
        if value > high:
            raise argparse.ArgumentTypeError(f"{flag} must be at most {high}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _dump(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2)


def _emit(report: dict, args, text_lines: List[str]) -> None:
    if args.output == "json":
        print(_dump(report))
    else:
        for line in text_lines:
            print(line)


def _write_payload(payload: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
    else:
        print(payload)


# ----- catalog ------------------------------------------------------------------


def cmd_catalog_list(args) -> int:
    entries = list_entries()
    rows = [
        {
            "id": e.id,
            "n": e.n,
            "parameters": list(e.params),
            "degenerate": e.degenerate,
            "notes": e.notes,
        }
        for e in entries
    ]
    report = {
        "command": "catalog list",
        "count": len(rows),
        "entries": rows,
        "n8_class_count": N8_CLASS_COUNT,
    }
    lines = [f"{len(rows)} catalog entries (n=8 classification holds {N8_CLASS_COUNT} classes; two families built here):"]
    for row in rows:
        tag = " degenerate" if row["degenerate"] else ""
        par = f" params={','.join(row['parameters'])}" if row["parameters"] else ""
        lines.append(f"  {row['id']:14s} n={row['n']}{par}{tag}  {row['notes']}")
    _emit(report, args, lines)
    return 0


def cmd_catalog_show(args) -> int:
    entry = _get_catalog_entry(args.id)
    g = entry.metric()
    matrix = [[str(g.at(i, j)) for j in range(entry.n)] for i in range(entry.n)]
    report = {
        "command": "catalog show",
        "id": entry.id,
        "n": entry.n,
        "parameters": list(entry.params),
        "degenerate": entry.degenerate,
        "metric": matrix,
        "expected_det": entry.expected_det,
        "notes": entry.notes,
    }
    lines = [f"{entry.id}: n={entry.n}  {entry.notes}"]
    if entry.params:
        lines.append(f"parameters: {', '.join(entry.params)}")
    lines.append("metric g_ij:")
    width = max(len(cell) for row in matrix for cell in row)
    for row in matrix:
        lines.append("  [ " + "  ".join(cell.rjust(width) for cell in row) + " ]")
    if entry.expected_det is not None:
        lines.append(f"det(g) = {entry.expected_det}")
    if entry.degenerate:
        lines.append("degenerate: Pfaffian vanishes identically")
    _emit(report, args, lines)
    return 0


def _get_catalog_entry(entry_id: str):
    try:
        return get_entry(entry_id)
    except (KeyError, ValueError) as exc:
        raise InputError(str(exc)) from exc


def cmd_catalog_export(args) -> int:
    entry = _get_catalog_entry(args.id)
    values = _parse_param_list(args.params)
    if entry.params and not values:
        raise InputError(f"{entry.id} needs --params for: {', '.join(entry.params)}")
    try:
        op = entry.build(values)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    _write_payload(op.to_json(), args.out)
    return 0


# ----- op -----------------------------------------------------------------------


def cmd_op_validate(args) -> int:
    op = _load(args.file, Hho2.from_json)
    rep = validate(op)
    pfaffian = str(rep.pfaffian)
    report = {
        "command": "op validate",
        "n": rep.n,
        "pfaffian": pfaffian,
        "degenerate": rep.degenerate,
        "ok": True,  # every document that loads is a valid operator
    }
    lines = [
        f"n = {rep.n}",
        f"Pfaffian: {pfaffian}",
        f"degenerate: {rep.degenerate}",
        "ok",
    ]
    _emit(report, args, lines)
    return 0


def cmd_op_transform(args) -> int:
    op = _load(args.file, Hho2.from_json)
    moved = transform(op, _load_sl(args.sl, op))
    _write_payload(moved.to_json(), args.out)
    return 0


def cmd_op_conformal_check(args) -> int:
    op = _load(args.file, Hho2.from_json)
    a = _load_sl(args.sl, op)
    moved = transform(op, a)
    rng = random.Random(args.seed)
    failures = 0
    attempts = 0
    results = []
    while len(results) < args.points and attempts < 50 * args.points:
        attempts += 1
        u = _sample_points(op, 1, rng, args.coefficient_range, allow_degenerate=True)[0]
        try:
            ok_metric = conformal_check(op, moved, a, u)
        except ZeroDivisionError:  # a pole of the chart
            continue
        ok_det = conformal_determinant_check(op, moved, a, u)
        results.append({"point": [str(x) for x in u], "metric_identity": ok_metric, "determinant_identity": ok_det})
        if not (ok_metric and ok_det):
            failures += 1
    if len(results) < args.points:
        raise InputError("could not sample enough points off the poles")
    report = {
        "command": "op conformal-check",
        "n": op.n,
        "sl": a.is_sl,
        "points_checked": args.points,
        "failures": failures,
        "points": results,
        "ok": failures == 0,
    }
    lines = [
        f"map is unimodular: {a.is_sl}",
        f"checked {args.points} points: {'all conformal identities hold' if failures == 0 else f'{failures} failures'}",
    ]
    _emit(report, args, lines)
    return 0 if failures == 0 else 1


def cmd_op_to_3form(args) -> int:
    op = _load(args.file, Hho2.from_json)
    form = embed(op)
    _write_payload(form.to_json(), args.out)
    return 0


def cmd_op_from_3form(args) -> int:
    def read(text: str) -> Hho2:
        # chart_restrict scales the checked coefficients of the form by 3, so
        # only n is left to check.
        form = ThreeForm.from_json(text)
        Hho2._check_n(form.dim - 1)
        return Hho2._of(form.dim - 1, chart_restrict(form))

    op = _load(args.file, read)
    _write_payload(op.to_json(), args.out)
    return 0


# ----- sys ----------------------------------------------------------------------


def cmd_sys_generate(args) -> int:
    op = _load(args.op, Hho2.from_json)
    constants = _parse_constants(args.constants, op.n)
    rng = random.Random(args.seed)
    try:
        if args.random:
            if args.A is not None or args.B is not None:
                raise InputError("--random draws A and B; it cannot be combined with --A or --B")
            flux = random_flux_params(op.n, rng, bound=args.coefficient_range)
            system = ConservativeSystem(op, flux, constants)
        elif args.A or args.B:
            if not (args.A and args.B):
                raise InputError("--A and --B must be given together")
            a_data = _load(args.A, json.loads, "--A")
            b_data = _load(args.B, json.loads, "--B")
            try:
                flux = FluxParams.make(a_data, b_data)
            except (ValueError, TypeError) as exc:
                raise InputError(f"bad flux data: {exc}") from exc
            if flux.n != op.n:
                raise InputError(f"bad flux data: A and B are for n={flux.n}, the operator has n={op.n}")
            system = ConservativeSystem(op, flux, constants)
        else:
            raise InputError("either --random or both --A and --B are required")
    except DegenerateOperatorError as exc:
        raise InputError(str(exc)) from exc
    lin = linearity_report(system)
    den = system.flux_denominator_report()
    payload = system.to_json()
    report = {
        "command": "sys generate",
        "n": op.n,
        "random_flux": bool(args.random),
        "linear": lin.is_linear,
        "pfaffian_degree": system.d.degree(),
        "denominators_ok": den["ok"],
        "system": json.loads(payload),
    }
    lines = [
        f"generated conservative system on n={op.n}",
        f"flux linear: {lin.is_linear}",
        f"denominators divide the Pfaffian, numerator degrees within n/2: {den['ok']}",
    ]
    if args.out:
        _write_payload(payload, args.out)
        lines.append(f"system written to {args.out}")
    else:
        lines.append(payload)
    _emit(report, args, lines)
    return 0


def cmd_sys_verify(args) -> int:
    system = _load(args.file, ConservativeSystem.from_json)
    n = system.op.n
    compat = check_compat(system)
    plk = pluecker_relations(system)
    den = system.flux_denominator_report()
    eul = euler_check(system)
    cas = casimir_check(system.op)
    ok = compat.passed and plk.passed and den["ok"] and eul.passed
    report = {
        "command": "sys verify",
        "n": n,
        "compatibility": {
            "mode": compat.mode,
            "first_order_ok": compat.first_order_ok,
            "second_order_ok": compat.second_order_ok,
            "points_checked": compat.points_checked,
        },
        "pluecker_ok": plk.passed,
        "denominators_ok": den["ok"],
        "euler_ok": eul.passed,
        "casimir_corank": cas.corank,
        "ok": ok,
    }
    lines = [
        f"compatibility ({compat.mode}): {'pass' if compat.passed else 'FAIL'}",
        f"line-congruence relations: {'pass' if plk.passed else 'FAIL'}",
        f"flux denominators: {'pass' if den['ok'] else 'FAIL'}",
        f"variational reconstruction: {'pass' if eul.passed else 'FAIL'}",
        f"casimir corank: {cas.corank}",
        "ok" if ok else "VERIFICATION FAILED",
    ]
    _emit(report, args, lines)
    return 0 if ok else 1


def cmd_sys_diagnose(args) -> int:
    system = _load(args.file, ConservativeSystem.from_json)
    rng = random.Random(args.seed)
    pts = _sample_points(system.op, args.points, rng, args.coefficient_range)
    rep = run_diagnostics(system, pts, mode=args.mode, digits=args.digits or 50)
    body = rep.to_dict()
    ok = body["haantjes_zero"] and body["nijenhuis_routes_agree"] and body["charpoly_square_ok"]
    report = {
        "command": "sys diagnose",
        "report": body,
        "ok": ok,
    }
    lines = [
        f"points sampled: {len(pts)}",
        f"haantjes zero at all points: {body['haantjes_zero']}",
        f"nijenhuis routes agree: {body['nijenhuis_routes_agree']}",
        f"nijenhuis nonzero at {body['nijenhuis_nonzero_points']} points",
        f"charpoly is a perfect square at all points: {body['charpoly_square_ok']}",
        f"diagonalizable at all points: {body['all_diagonalizable']}",
        "ok" if ok else "DIAGNOSTIC FAILURE",
    ]
    _emit(report, args, lines)
    return 0 if ok else 1


# ----- parser -------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hho2",
        description="Exact tools for second-order homogeneous Hamiltonian operators and their conservative systems.",
    )
    parser.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    parser.add_argument(
        "--coefficient-range", type=_bounded_int("--coefficient-range", MAX_COEFFICIENT_RANGE), default=10,
        metavar="N", help="integer bound for random coefficients and sample coordinates (default 10, at most 10^100)",
    )
    parser.add_argument("--output", choices=("text", "json"), default="text", help="report format (default text)")

    points = _bounded_int("--points", MAX_POINTS)
    sub = parser.add_subparsers(dest="group", required=True)

    cat = sub.add_parser("catalog", help="built-in operator entries").add_subparsers(dest="command", required=True)
    cat.add_parser("list", help="list all entries").set_defaults(func=cmd_catalog_list)
    show = cat.add_parser("show", help="display an entry's metric and determinant")
    show.add_argument("id")
    show.set_defaults(func=cmd_catalog_show)
    export = cat.add_parser("export", help="write an entry as operator JSON")
    export.add_argument("id")
    export.add_argument("--params", nargs="*", metavar="NAME=VALUE", help="values for parametric entries")
    export.add_argument("--out", help="write to a file instead of stdout")
    export.set_defaults(func=cmd_catalog_export)

    opg = sub.add_parser("op", help="operator documents").add_subparsers(dest="command", required=True)
    val = opg.add_parser("validate", help="structural validation and nondegeneracy")
    val.add_argument("file")
    val.set_defaults(func=cmd_op_validate)
    tra = opg.add_parser("transform", help="pull back along a linear map of the extended space")
    tra.add_argument("file")
    tra.add_argument("--sl", required=True, help="(n+1)x(n+1) matrix, inline JSON or a file path")
    tra.add_argument("--out", help="write to a file instead of stdout")
    tra.set_defaults(func=cmd_op_transform)
    conf = opg.add_parser("conformal-check", help="pointwise conformal identity under a reciprocal transformation")
    conf.add_argument("file")
    conf.add_argument("--sl", required=True, help="(n+1)x(n+1) matrix, inline JSON or a file path")
    conf.add_argument("--points", type=points, default=20, help=f"number of sample points (default 20, at most {MAX_POINTS})")
    conf.set_defaults(func=cmd_op_conformal_check)
    to3 = opg.add_parser("to-3form", help="extended constant 3-form of the operator")
    to3.add_argument("file")
    to3.add_argument("--out", help="write to a file instead of stdout")
    to3.set_defaults(func=cmd_op_to_3form)
    fr3 = opg.add_parser("from-3form", help="operator determined by a constant 3-form")
    fr3.add_argument("file")
    fr3.add_argument("--out", help="write to a file instead of stdout")
    fr3.set_defaults(func=cmd_op_from_3form)

    sysg = sub.add_parser("sys", help="conservative systems").add_subparsers(dest="command", required=True)
    gen = sysg.add_parser("generate", help="build a compatible flux for an operator")
    gen.add_argument("op", help="operator JSON file")
    gen.add_argument("--A", help="n x n skew matrix, inline JSON or a file path")
    gen.add_argument("--B", help="length-n vector, inline JSON or a file path")
    gen.add_argument("--random", action="store_true", help="draw A and B from the seeded generator")
    gen.add_argument("--constants", help="comma-separated additive flux constants")
    gen.add_argument("--out", help="write the system JSON to a file")
    gen.set_defaults(func=cmd_sys_generate)
    ver = sysg.add_parser("verify", help="compatibility identities, congruence relations, denominators")
    ver.add_argument("file", help="system JSON file")
    ver.set_defaults(func=cmd_sys_verify)
    dia = sysg.add_parser("diagnose", help="torsion tensors, square charpoly, eigenstructure at sample points")
    dia.add_argument("file", help="system JSON file")
    dia.add_argument("--points", type=points, default=20, help=f"number of sample points (default 20, at most {MAX_POINTS})")
    dia.add_argument("--mode", choices=("exact", "float"), default="exact", help="eigenstructure arithmetic (default exact)")
    dia.add_argument("--digits", type=_bounded_int("--digits", MAX_DIGITS),
                     help=f"working precision, only with --mode float (default 50, at most {MAX_DIGITS})")
    dia.set_defaults(func=cmd_sys_diagnose)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "digits", None) is not None and args.mode != "float":
        parser.error("--digits needs --mode float")
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    raise SystemExit(main())

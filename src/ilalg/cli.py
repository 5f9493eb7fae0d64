"""Command-line interface.

Commands: check, filters, quotient, derive-arrow. Exit codes: 0 all pass,
1 violations or failed preconditions, 2 parse error, 3 usage error or a
stdout closed before the report was written.
"""
from __future__ import annotations

import argparse
import os
import sys

from .core import build_algebra, check_identities
from .errors import BuildError, NotAFilterError, NotResiduatedError, ParseError
from .filters import (
    FilterCheck,
    classify_all,
    describe_filter_failure,
    enumerate_filters,
)
from .quotient import (
    check_affine_quotient,
    check_distributive_quotient,
    check_linear_quotient,
    check_quotient_order,
    quotient_algebra,
)
from .report import ReportDocument
from .specfile import _named_rows, _row_lines, document_of, parse_spec, render_spec

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_PARSE = 2
EXIT_USAGE = 3

# Commands that refuse an algebra whose lenient build broke a law.
_NEEDS_VALID = {
    "filters": "filter enumeration needs a law-valid algebra",
    "quotient": "quotient construction needs a law-valid algebra",
    "derive-arrow": "residual derivation needs a law-valid algebra",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ilalg",
        description="Workbench for finite IL-algebras: verify the laws, "
        "enumerate and classify filters, build quotients.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="verify the law and identity suites")
    p.add_argument("file")
    p.add_argument("--lenient", action="store_true",
                   help="run the identity suite even when core laws fail")
    p.add_argument("--machine", action="store_true")

    p = sub.add_parser("filters", help="enumerate (and classify) all filters")
    p.add_argument("file")
    p.add_argument("--classify", action="store_true")
    p.add_argument("--machine", action="store_true")

    p = sub.add_parser("quotient", help="quotient by a filter")
    p.add_argument("file")
    p.add_argument("--filter", dest="filter_members", required=True,
                   metavar="e1,e2,...",
                   help="comma-separated member names; write --filter=e1,... "
                   "when the first name begins with '-'")
    p.add_argument("--machine", action="store_true")

    p = sub.add_parser("derive-arrow",
                       help="derive the residual table from star and order")
    p.add_argument("file")
    p.add_argument("--machine", action="store_true")
    return parser


def main(argv=None) -> int:
    try:
        code = _main(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (`ilalg check FILE | head`). Point the
        # descriptor at devnull, so the flush at exit has somewhere to go.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
    return code


def _main(argv) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read {args.file}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        doc = parse_spec(text)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    if args.command == "derive-arrow":
        doc = doc._replace(arrow_rows=None)
    out = ReportDocument([])
    try:
        alg, report = build_algebra(doc, mode="lenient")
    except NotResiduatedError as exc:
        for x, z in exc.pairs:
            out.add("ERROR", "not-residuated",
                    (doc.elements[x], doc.elements[z]),
                    "no greatest solution w of x*w <= z")
    except BuildError as exc:
        out.add("ERROR", "build", (), str(exc))
    else:
        refusal = None if alg.valid else _NEEDS_VALID.get(args.command)
        if refusal is None:
            command = {
                "check": _cmd_check,
                "filters": _cmd_filters,
                "quotient": _cmd_quotient,
                "derive-arrow": _cmd_derive_arrow,
            }[args.command]
            return command(doc, alg, report, out, args)
        out.add("ERROR", args.command, (), refusal)
        out.extend_violations(report)
    _emit(out, args.machine)
    return EXIT_VIOLATIONS


def _emit(doc: ReportDocument, machine: bool) -> None:
    text = doc.render(machine)
    if text:
        print(text)


def _add_table(out, opname, alg, table) -> None:
    """A TABLE record per cell of an index table of `alg`, row-major."""
    nm = alg.carrier
    for i, row in enumerate(table):
        for j, v in enumerate(row):
            out.add("TABLE", opname, (nm[i], nm[j]), nm[v])


def _cmd_check(doc, alg, report, out, args) -> int:
    for label, part in report.suites:
        out.add("VERDICT", label, (), part.status)
        out.extend_violations(part)
    for v in report.violations:
        if v.law == "top-declared":
            out.add("VIOLATION", v.law, v.witness,
                    f"expected {v.expected} | found {v.found}")
    if alg.valid:
        # Every identity is a theorem of the laws that alg.valid certifies;
        # the proofs are in the docstring of ilalg.core.
        out.add("VERDICT", "identities", (), "pass")
    elif args.lenient:
        ident = check_identities(alg)
        out.add("VERDICT", "identities", (), ident.status)
        out.extend_violations(ident)
    out.add("VERDICT", "overall", (), report.status)
    _emit(out, args.machine)
    return EXIT_OK if report.ok else EXIT_VIOLATIONS


def _cmd_filters(doc, alg, report, out, args) -> int:
    if args.classify:
        rows = classify_all(alg)
        for row in rows:
            detail = " ".join(
                f"{name}={'yes' if flag else 'no'}"
                for name, flag in row.flags._asdict().items()
            )
            out.add("FILTER", "classified", row.member_names(), detail)
    else:
        rows = enumerate_filters(alg)
        for row in rows:
            out.add("FILTER", "filter", row.member_names(), "")
    out.add("VERDICT", "filters", (), f"count={len(rows)}")
    _emit(out, args.machine)
    return EXIT_OK


def _cmd_quotient(doc, alg, report, out, args) -> int:
    member_names = [m for m in args.filter_members.split(",") if m]
    try:
        members = [alg.index(m) for m in member_names]
    except KeyError as exc:
        print(f"bad --filter value: {exc.args[0]}", file=sys.stderr)
        return EXIT_USAGE
    try:
        result = quotient_algebra(alg, members)
    except NotAFilterError as exc:
        check = FilterCheck(False, exc.condition, exc.witness)
        out.add("VIOLATION", check.condition, alg.names(check.witness),
                "not a filter: " + describe_filter_failure(alg, check))
        _emit(out, args.machine)
        return EXIT_VIOLATIONS
    for bi, blk in enumerate(result.blocks):
        out.add("BLOCK", result.algebra.carrier[bi], alg.names(blk),
                f"index={bi}")
    if args.machine:
        q = result.algebra
        _add_table(out, "star", q, q.star_table)
        _add_table(out, "arrow", q, q.arrow_table)
    order_ok = check_quotient_order(alg, members)
    checks = {
        "induced-algebra": result.algebra.valid,
        "quotient-order": order_ok,
    }
    for label, ok in checks.items():
        out.add("VERDICT", label, (), "pass" if ok else "fail")
    for label, theorem in (
        ("distributive-quotient", check_distributive_quotient(alg, members)),
        ("linear-quotient", check_linear_quotient(alg, members)),
        ("affine-quotient", check_affine_quotient(alg, members)),
    ):
        detail = (
            f"premise={'yes' if theorem.premise else 'no'} "
            f"conclusion={'yes' if theorem.conclusion else 'no'} "
            f"{'pass' if theorem.holds else 'fail'}"
        )
        out.add("VERDICT", label, (), detail)
        checks[label] = theorem.holds
    if len(result.blocks) == alg.n:
        out.add("NOTE", "quotient", (),
                "all blocks are singletons, the quotient matches the source")
    _emit(out, args.machine)
    if not args.machine:
        print()
        print(render_spec(document_of(result.algebra, doc.name + "-quotient")),
              end="")
    return EXIT_OK if all(checks.values()) else EXIT_VIOLATIONS


def _cmd_derive_arrow(doc, alg, report, out, args) -> int:
    if args.machine:
        _add_table(out, "arrow", alg, alg.arrow_table)
        _emit(out, True)
    else:
        rows = _named_rows(alg, alg.arrow_table)
        print("\n".join(_row_lines("arrow", alg.carrier, rows)))
    return EXIT_OK

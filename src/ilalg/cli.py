"""Command-line interface.

Commands: check, filters, quotient, derive-arrow. Exit codes: 0 all pass,
1 violations or failed preconditions, 2 parse error, 3 usage error or a
stdout that is closed or cannot take the report.

Each subcommand is declared once, in `_build_parser`, with its handler and
its refusal: the `ERROR` sentence it prints instead of running on an algebra
whose lenient build broke a law (`check` never refuses).

Each command returns its exit code, its records (`ReportLine`s and
`Violation`s) and the text that follows them: the pasted quotient document
or the derived `arrow` rows. `_main` writes the records SLICE at a time, so
a report of k records takes ceil(k / SLICE) writes. Every record is made
only as the writer reaches it: the law suites are generators, and the
build's report resumes them when read, so `cli.py` holds at most SLICE
records and a report of any length is written in bounded memory.
"""
from __future__ import annotations

import argparse
import os
import sys
from itertools import chain, islice

from .core import _Run, build_algebra
from .errors import BuildError, NotAFilterError, NotResiduatedError, ParseError
from .report import ReportDocument, ReportLine
from .specfile import _named_rows, _row_lines, document_of, parse_spec, render_spec

# `filters`, `quotient` and `identities` are imported where they run, so
# `check` and `derive-arrow` compile none of them. Only a lenient check with
# violations compiles `identities`, the home of the judges, for its suite.

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_PARSE = 2
EXIT_USAGE = 3

# Records per write, and the most records held at once. A write is a system
# call when stdout is unbuffered, so records are not written one at a time.
SLICE = 1024

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
    p.set_defaults(run=_cmd_check, refusal=None)

    p = sub.add_parser("filters", help="enumerate (and classify) all filters")
    p.add_argument("file")
    p.add_argument("--classify", action="store_true")
    p.add_argument("--machine", action="store_true")
    p.set_defaults(run=_cmd_filters, refusal="filter enumeration needs a law-valid algebra")

    p = sub.add_parser("quotient", help="quotient by a filter")
    p.add_argument("file")
    p.add_argument("--filter", dest="filter_members", required=True,
                   metavar="e1,e2,...",
                   help="comma-separated member names; write --filter=e1,... "
                   "when the first name begins with '-'")
    p.add_argument("--machine", action="store_true")
    p.set_defaults(run=_cmd_quotient, refusal="quotient construction needs a law-valid algebra")

    p = sub.add_parser("derive-arrow",
                       help="derive the residual table from star and order")
    p.add_argument("file")
    p.add_argument("--machine", action="store_true")
    p.set_defaults(run=_cmd_derive_arrow, refusal="residual derivation needs a law-valid algebra")
    return parser


def main(argv=None) -> int:
    try:
        code = _main(argv)
        sys.stdout.flush()
    except OSError as exc:
        # The reader closed stdout (`ilalg check FILE | head`), or stdout
        # cannot take the report (a full disk). Point the descriptor at
        # devnull, so the flush at exit has somewhere to go.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):
            print(f"cannot write the report: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return code


def _main(argv) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        with open(args.file, encoding="utf-8-sig") as fh:
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
    code, tail = EXIT_VIOLATIONS, ""
    try:
        alg, report = build_algebra(doc, mode="lenient")
    except NotResiduatedError as exc:
        records = (ReportLine("ERROR", "not-residuated", (doc.elements[x], doc.elements[z]),
                              "no greatest solution w of x*w <= z") for x, z in exc.pairs)
    except BuildError as exc:
        records = [ReportLine("ERROR", "build", (), str(exc))]
    else:
        if alg.valid or args.refusal is None:
            code, records, tail = args.run(doc, alg, report, args)
        else:
            records = chain([ReportLine("ERROR", args.command, (), args.refusal)],
                            report.violations)
    # The one place records reach stdout: SLICE records a write.
    records = iter(records)
    while block := list(islice(records, SLICE)):
        sys.stdout.write(ReportDocument(block).render(args.machine) + "\n")
    if tail:
        sys.stdout.write(tail)
    return code


def _table(opname, alg, table):
    """A machine TABLE record per cell of an index table of `alg`,
    row-major, made as it is reached."""
    nm = alg.carrier
    for i, row in enumerate(table):
        for j, v in enumerate(row):
            yield ReportLine("TABLE", opname, (nm[i], nm[j]), nm[v])


def _cmd_check(doc, alg, report, args):
    def sections():
        # Whole sections, chained below, so that a violation reaches the
        # writer without a resume of this generator.
        for label, part in report.suites:
            yield (ReportLine("VERDICT", label, (), part.status),)
            yield part.violations
        # The build's last run is its top suite.
        yield (v for v in report.violations.runs[-1] if v.law == "top-declared")
        if alg.valid:
            # Every identity is a theorem of the laws that alg.valid
            # certifies; the proofs are in the docstring of ilalg.identities.
            yield (ReportLine("VERDICT", "identities", (), "pass"),)
        elif args.lenient:
            from .identities import identity_laws

            identities = _Run(identity_laws, alg)
            yield (ReportLine("VERDICT", "identities", (), "fail" if identities else "pass"),)
            yield identities
        yield (ReportLine("VERDICT", "overall", (), report.status),)

    return (EXIT_OK if report.ok else EXIT_VIOLATIONS), chain.from_iterable(sections()), ""


def _cmd_filters(doc, alg, report, args):
    from .filters import classify_all, enumerate_filters

    if args.classify:
        rows = classify_all(alg)
        records = [
            ReportLine("FILTER", "classified", row.member_names(), " ".join(
                f"{name}={'yes' if flag else 'no'}"
                for name, flag in row.flags._asdict().items()
            ))
            for row in rows
        ]
    else:
        rows = enumerate_filters(alg)
        records = [ReportLine("FILTER", "filter", row.member_names()) for row in rows]
    records.append(ReportLine("VERDICT", "filters", (), f"count={len(rows)}"))
    return EXIT_OK, records, ""


def _cmd_quotient(doc, alg, report, args):
    from .filters import describe_filter_failure
    from .quotient import (
        check_affine_quotient,
        check_distributive_quotient,
        check_linear_quotient,
        check_quotient_order,
        quotient_algebra,
    )

    member_names = [m for m in args.filter_members.split(",") if m]
    try:
        members = [alg.index(m) for m in member_names]
    except KeyError as exc:
        print(f"bad --filter value: {exc.args[0]}", file=sys.stderr)
        return EXIT_USAGE, (), ""
    try:
        result = quotient_algebra(alg, members)
    except NotAFilterError as exc:
        return EXIT_VIOLATIONS, [ReportLine(
            "VIOLATION", exc.condition, alg.names(exc.witness),
            "not a filter: " + describe_filter_failure(alg, exc.condition, exc.witness))], ""
    q = result.algebra
    blocks = [ReportLine("BLOCK", q.carrier[bi], alg.names(blk), f"index={bi}")
              for bi, blk in enumerate(result.blocks)]
    checks = {
        "induced-algebra": q.valid,
        "quotient-order": check_quotient_order(alg, result.filter_mask),
    }
    verdicts = [ReportLine("VERDICT", label, (), "pass" if ok else "fail")
                for label, ok in checks.items()]
    for label, theorem in (
        ("distributive-quotient", check_distributive_quotient(alg, result.filter_mask)),
        ("linear-quotient", check_linear_quotient(alg, result.filter_mask)),
        ("affine-quotient", check_affine_quotient(alg, result.filter_mask)),
    ):
        detail = (
            f"premise={'yes' if theorem.premise else 'no'} "
            f"conclusion={'yes' if theorem.conclusion else 'no'} "
            f"{'pass' if theorem.holds else 'fail'}"
        )
        verdicts.append(ReportLine("VERDICT", label, (), detail))
        checks[label] = theorem.holds
    if len(result.blocks) == alg.n:
        verdicts.append(ReportLine("NOTE", "quotient", (),
                                   "all blocks are singletons, the quotient matches the source"))
    code = EXIT_OK if all(checks.values()) else EXIT_VIOLATIONS
    if args.machine:
        tables = chain(_table("star", q, q.star_table), _table("arrow", q, q.arrow_table))
        return code, chain(blocks, tables, verdicts), ""
    return code, blocks + verdicts, "\n" + render_spec(document_of(q, doc.name + "-quotient"))


def _cmd_derive_arrow(doc, alg, report, args):
    if args.machine:
        return EXIT_OK, _table("arrow", alg, alg.arrow_table), ""
    rows = _named_rows(alg, alg.arrow_table)
    return EXIT_OK, (), "\n".join(_row_lines("arrow", alg.carrier, rows)) + "\n"

"""Command-line interface.

Commands: check, filters, quotient, derive-arrow. Exit codes: 0 all pass,
1 violations or failed preconditions, 2 parse error, 3 usage error or a
stdout that is closed or cannot take the report.

Each command is declared once, in `_COMMANDS` at the end of this module,
with its handler, its refusal and its options. The refusal is the `ERROR`
sentence it prints instead of running on an algebra whose lenient build
broke a law (`check` never refuses). `_parse` reads argv from that table,
and help prints it as the README's grammar lines.

Each command returns its exit code, its records (`ReportLine`s and
`Violation`s) and the text that follows them: the pasted quotient document
or the derived `arrow` rows. `_main` writes the records SLICE at a time, so
a report of k records takes ceil(k / SLICE) writes. Every record is made
only as the writer reaches it: the law suites are generators, and the
build's report resumes them when read, so `cli.py` holds at most SLICE
records and a report of any length is written in bounded memory.
"""
from __future__ import annotations

import os
import sys
from itertools import chain, islice
from types import SimpleNamespace

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


class _Usage(Exception):
    """A command line that `_COMMANDS` does not accept: the message that
    follows `ilalg: error: `."""


def _usage() -> str:
    """Help: the README's grammar lines, one per command, after `usage:`."""
    lines = (" ".join(["ilalg", name, "FILE", *(o if "=" in o else f"[{o}]" for o in options)])
             for name, (_, _, options) in _COMMANDS.items())
    return "usage: " + "\n       ".join(lines) + "\n"


def _dest(option: str) -> str:
    """The attribute an option sets: its name, and filter_members for --filter."""
    name = option.partition("=")[0][2:]
    return "filter_members" if name == "filter" else name


def _option(token: str, names) -> tuple | None:
    """None when `token` is a positional: it does not begin with "-", is "-"
    alone or a number such as -1 or -.5, or names no option and holds a
    space. Otherwise (name, value): an option of `names` or a unique prefix
    of one (-h, -hh, ... stand for --help), with value None unless written
    name=value, or (None, None) for an unknown option."""
    if token[:1] != "-" or token == "-":
        return None
    if token[1] == "-":
        head, eq, value = token.partition("=")
        found = [head] if head in names else [n for n in names if n.startswith(head)]
        if len(found) > 1:
            raise _Usage(f"ambiguous option: {token} could match {', '.join(found)}")
        if found:
            return found[0], value if eq else None
    elif token[1] == "h":
        return "--help", token[2:].strip("h") or None
    else:
        whole, dot, frac = token[1:].partition(".")
        if (whole.isdecimal() or dot and not whole) and (not dot or frac.isdecimal()):
            return None
    return None if " " in token else (None, None)


def _parse(argv: list[str]):
    """The command line as attributes: `command`, `file`, one per option of
    the command, and its `run` and `refusal`; None when it asks for help.

    Options may come before or after FILE, and after `--` every token is
    FILE or an extra; a `--` that comes after FILE must follow it directly.
    Raise `_Usage` on a flag given a value, a missing FILE or value of an
    option, an unknown option or any extra token."""
    extras = []
    for at, token in enumerate(argv):  # before the command, only --help
        option = None if token == "--" else _option(token, ("--help",))
        if option is None:
            break
        if option[1] is not None:
            raise _Usage("option --help takes no value")
        if option[0]:
            return None
        extras.append(token)
    else:
        raise _Usage("missing command")
    command, rest = argv[at], argv[at + 1:]
    if command not in _COMMANDS:
        raise _Usage(f"invalid command {command!r} (choose from {', '.join(_COMMANDS)})")
    run, refusal, options = _COMMANDS[command]
    spec = {"--help": "--help", **{o.partition("=")[0]: o for o in options}}
    args = SimpleNamespace(command=command, file=None, run=run, refusal=refusal,
                           **{_dest(o): None if "=" in o else False for o in options})
    end = rest.index("--") if "--" in rest else len(rest)
    kinds = [_option(token, spec) for token in rest[:end]]  # an ambiguous prefix first
    i = file_end = 0
    while i < len(rest):
        if i == end:  # after FILE, "--" must follow it directly
            if args.file is not None and file_end != end:
                extras.append(rest[i])
        elif i > end or kinds[i] is None:
            if args.file is None:
                args.file, file_end = rest[i], i + 1
            else:
                extras.append(rest[i])
        elif kinds[i][0] is None:
            extras.append(rest[i])
        else:
            name, value = kinds[i]
            if "=" in spec[name]:
                if value is None:
                    i += 1
                    if i == end or kinds[i] is not None:
                        raise _Usage(f"option {name} expects a value")
                    value = rest[i]
                setattr(args, _dest(name), value)
            elif value is not None:
                raise _Usage(f"option {name} takes no value")
            elif name == "--help":
                return None
            else:
                setattr(args, _dest(name), True)
        i += 1
    if args.file is None:
        raise _Usage("missing FILE")
    for option in options:
        if "=" in option and getattr(args, _dest(option)) is None:
            raise _Usage(f"missing {option}")
    if extras:
        raise _Usage(f"unrecognized arguments: {' '.join(extras)}")
    return args


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
        args = _parse(list(sys.argv[1:] if argv is None else argv))
    except _Usage as exc:
        sys.stderr.write(f"{_usage()}ilalg: error: {exc}\n")
        return EXIT_USAGE
    if args is None:
        sys.stdout.write(_usage())
        return EXIT_OK
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


# Each command once: its handler, its refusal and its options. An option
# written NAME=VALUE takes a value and is required; the others are flags.
_COMMANDS = {
    "check": (_cmd_check, None, ("--lenient", "--machine")),
    "filters": (_cmd_filters, "filter enumeration needs a law-valid algebra",
                ("--classify", "--machine")),
    "quotient": (_cmd_quotient, "quotient construction needs a law-valid algebra",
                 ("--filter=e1,e2,...", "--machine")),
    "derive-arrow": (_cmd_derive_arrow, "residual derivation needs a law-valid algebra",
                     ("--machine",)),
}

"""Command-line surface: exit codes, report lines, machine format."""
from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc

import pytest

from helpers import (
    ALL_FIXTURES,
    VALID_FIXTURES,
    algebra_of,
    bool2_power,
    direct_product,
    godel_chain,
    rot_star,
    star_tampered,
    sugihara_chain,
)
from ilalg import cli, core
from ilalg.cli import main
from ilalg import identities
from ilalg.fixtures import fixture_path, fixture_text
from ilalg.report import ReportDocument, ReportLine, parse_machine
from ilalg import document_of, parse_spec, quotient_algebra, render_spec


def fx(name):
    return str(fixture_path(name))


def written(tmp_path, alg, name):
    """Path of a file holding the rendered document of `alg`."""
    source = tmp_path / f"{name}.alg"
    source.write_text(render_spec(document_of(alg, name)))
    return str(source)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


@pytest.fixture(scope="module")
def bool2_6(tmp_path_factory):
    """Files of bool2^6 ("valid") and of bool2^6 with 20 star cells changed
    ("bad20", seeded), whose check --lenient report has 13,932 records."""
    doc = document_of(bool2_power(6), "bool2-6")
    folder = tmp_path_factory.mktemp("bool2-6")
    docs = {"valid": doc, "bad20": star_tampered(doc._replace(name="bool2-6-bad20"), 20, 20)}
    for label, d in docs.items():
        (folder / f"{label}.alg").write_text(render_spec(d))
    return {label: str(folder / f"{label}.alg") for label in docs}


@pytest.fixture(scope="module")
def over_cap(tmp_path_factory):
    """A file of 65 elements, one more than the carrier cap."""
    names = [f"e{i}" for i in range(65)]
    lines = ["algebra big65", "elements " + " ".join(names), "unit e0"]
    lines += [f"star {x} : " + " ".join(names) for x in names]
    source = tmp_path_factory.mktemp("over-cap") / "big65.alg"
    source.write_text("\n".join(lines) + "\n")
    return str(source)


def test_check_valid_fixture_exits_zero(capsys):
    code, out = run(capsys, "check", fx("chain6lo"))
    assert code == 0
    assert "overall" in out and "pass" in out


def test_check_erratic_fixture_exits_one_with_witnesses(capsys):
    code, out = run(capsys, "check", fx("pentagon-printed"))
    assert code == 1
    assert "star-unit" in out
    assert "(a, 1)" in out


def test_check_machine_output_round_trips(capsys):
    code, out = run(capsys, "check", fx("chain6hi-printed"), "--machine")
    assert code == 1
    doc = parse_machine(out)
    rerendered = doc.render(machine=True)
    assert rerendered == out.rstrip("\n")
    kinds = {line.kind for line in doc.lines}
    assert kinds <= {"VERDICT", "VIOLATION"}
    laws = {line.label for line in doc.lines if line.kind == "VIOLATION"}
    assert "star-unit" in laws and "residuation" in laws


def test_check_lenient_adds_identity_suite_on_erratic_input(capsys):
    code, out = run(capsys, "check", fx("chain6hi-printed"), "--lenient", "--machine")
    assert code == 1
    labels = {l.label for l in parse_machine(out).lines}
    assert "identities" in labels
    assert "star-monotone" in labels
    code, out = run(capsys, "check", fx("chain6hi-printed"), "--machine")
    labels = {l.label for l in parse_machine(out).lines}
    assert "identities" not in labels


def test_check_takes_the_identity_verdict_of_a_valid_algebra_from_the_proofs(
    capsys, tmp_path, monkeypatch
):
    # Every identity is a theorem of the laws a valid build certifies, so
    # `check` prints its verdict without the sweep, with or without --lenient.
    def refuse(alg):
        pytest.fail(f"identity sweep on a law-valid algebra of {alg.n} elements")

    identity_laws = identities.identity_laws
    monkeypatch.setattr(identities, "identity_laws", refuse)
    expected = ReportDocument([])
    for label in ("lattice", "monoid", "residuation", "identities", "overall"):
        expected.lines.append(ReportLine("VERDICT", label, (), "pass"))
    sources = [fx(name) for name in VALID_FIXTURES]
    sources.append(written(tmp_path, bool2_power(6), "bool2-6"))
    for source in sources:
        for lenient in ([], ["--lenient"]):
            for machine in (False, True):
                argv = ["check", source, *lenient] + ["--machine"] * machine
                assert run(capsys, *argv) == (0, expected.render(machine) + "\n")
    # A lenient build with violations still runs the suite for its witnesses.
    calls = []

    def spy(alg):
        calls.append(alg.n)
        return identity_laws(alg)

    monkeypatch.setattr(identities, "identity_laws", spy)
    code, out = run(capsys, "check", fx("chain6hi-printed"), "--lenient", "--machine")
    assert code == 1
    assert calls == [6]
    records = {(l.label, l.witness) for l in parse_machine(out).lines}
    assert ("star-monotone", ("a", "a", "a", "1")) in records


def test_missing_file_is_usage_error(capsys):
    assert main(["check", "/nonexistent/file.alg"]) == 3


def test_non_utf8_file_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "latin1.alg"
    bad.write_bytes("algebra caf\xe9\nelements a\n".encode("latin-1"))
    assert main(["check", str(bad)]) == 3
    assert capsys.readouterr().err.startswith(f"cannot read {bad}: ")


def test_leading_byte_order_mark_is_ignored(tmp_path, capsys):
    source = tmp_path / "chain6lo-bom.alg"
    source.write_bytes(b"\xef\xbb\xbf" + fixture_path("chain6lo").read_bytes())
    for machine in ([], ["--machine"]):
        printed = []
        for path in (str(source), fx("chain6lo")):
            printed.append((main(["check", path, *machine]), capsys.readouterr()))
        assert printed[0] == printed[1]


def test_bad_usage_is_exit_three(capsys):
    assert main(["no-such-command"]) == 3
    assert main([]) == 3
    assert main(["quotient", fx("fork")]) == 3  # --filter is required


# The argv rules of the README's "Command line": options on either side of
# FILE, `--`, unique prefixes, help. F is fork.alg. The third column is, for
# exit 0 or 1, the canonical spelling whose stdout an accepted form prints;
# for exit 3, the parser's error line, which follows the help text, or how
# stderr begins when the command refuses after parsing.
CHOOSE = "(choose from check, filters, quotient, derive-arrow)"
ARGV_CONTRACT = [
    (["--help"], 0, ["--help"]),
    (["-h"], 0, ["--help"]),
    (["--he"], 0, ["--help"]),
    (["check", "--help"], 0, ["--help"]),
    (["check", "F", "--lenient", "--help"], 0, ["--help"]),
    (["check", "--machine", "F"], 0, ["check", "F", "--machine"]),
    (["check", "F", "--mach"], 0, ["check", "F", "--machine"]),
    (["check", "F", "--len"], 0, ["check", "F", "--lenient"]),
    (["check", "F", "--machine", "--machine"], 0, ["check", "F", "--machine"]),
    (["check", "--", "F"], 0, ["check", "F"]),
    (["check", "F", "--"], 0, ["check", "F"]),
    (["filters", "F", "--c"], 0, ["filters", "F", "--classify"]),
    (["quotient", "--filter", "1,top", "F"], 0, ["quotient", "F", "--filter=1,top"]),
    (["quotient", "F", "--filt=1,top"], 0, ["quotient", "F", "--filter=1,top"]),
    (["quotient", "F", "--filter="], 1, ["quotient", "F", "--filter="]),
    (["quotient", "F", "--filter=1,top", "--filter=top"], 1, ["quotient", "F", "--filter=top"]),
    ([], 3, "ilalg: error: missing command"),
    (["check"], 3, "ilalg: error: missing FILE"),
    (["nope", "F"], 3, "ilalg: error: invalid command 'nope' " + CHOOSE),
    (["CHECK", "F"], 3, "ilalg: error: invalid command 'CHECK' " + CHOOSE),
    (["che", "F"], 3, "ilalg: error: invalid command 'che' " + CHOOSE),
    (["check", "F", "--machine=1"], 3, "ilalg: error: option --machine takes no value"),
    (["check", "F", "extra"], 3, "ilalg: error: unrecognized arguments: extra"),
    (["check", "F", "-x"], 3, "ilalg: error: unrecognized arguments: -x"),
    (["derive-arrow", "F", "-m"], 3, "ilalg: error: unrecognized arguments: -m"),
    (["filters", "F", "--lenient"], 3, "ilalg: error: unrecognized arguments: --lenient"),
    (["quotient", "F"], 3, "ilalg: error: missing --filter=e1,e2,..."),
    (["quotient", "F", "--filter"], 3, "ilalg: error: option --filter expects a value"),
    (["quotient", "F", "--filter", "-1,0"], 3, "ilalg: error: option --filter expects a value"),
    (["check", "--=x", "F"], 3,
     "ilalg: error: ambiguous option: --=x could match --help, --lenient, --machine"),
    (["--help=x", "check", "F"], 3, "ilalg: error: option --help takes no value"),
    (["--bogus", "check", "F"], 3, "ilalg: error: unrecognized arguments: --bogus"),
    (["check", "F", "extra", "--"], 3, "ilalg: error: unrecognized arguments: extra --"),
    (["quotient", "F", "--filter", "-1"], 3, "bad --filter value: unknown element name '-1'"),
    (["check", "-3.alg"], 3, "ilalg: error: missing FILE"),
    (["check", "-"], 3, "cannot read -: "),
]


@pytest.mark.parametrize("argv,code,expected", ARGV_CONTRACT,
                         ids=[" ".join(argv) or "[]" for argv, _, _ in ARGV_CONTRACT])
def test_argv_contract(argv, code, expected, capsys):
    def run_argv(argv):
        code = main([fx("fork") if a == "F" else a for a in argv])
        return code, *capsys.readouterr()

    got, out, err = run_argv(argv)
    assert got == code
    if code != 3:
        assert (out, err) == run_argv(expected)[1:]
        return
    assert out == ""
    if not expected.startswith("ilalg: error: "):
        assert err.startswith(expected)
        return
    # the help text, then the parser's one error line
    *usage, error = err.splitlines(keepends=True)
    assert "".join(usage) == run_argv(["--help"])[1]
    assert error == expected + "\n"


def test_parse_error_is_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.alg"
    bad.write_text("algebra x\nelements a\nunit a\nstar a : a a\n")
    assert main(["check", str(bad)]) == 2


def test_filters_plain_and_classified(capsys):
    code, out = run(capsys, "filters", fx("fork"), "--machine")
    assert code == 0
    lines = parse_machine(out).lines
    rows = [l for l in lines if l.kind == "FILTER"]
    assert [l.witness for l in rows] == [
        ("1", "top"), ("bot", "b", "c", "d", "1", "top"),
    ]
    code, out = run(capsys, "filters", fx("fork"), "--classify", "--machine")
    rows = [l for l in parse_machine(out).lines if l.kind == "FILTER"]
    assert rows[0].witness == ("1", "top")
    assert "prime=no" in rows[0].detail
    code, out = run(capsys, "filters", fx("chain6lo"), "--classify", "--machine")
    rows = [l for l in parse_machine(out).lines if l.kind == "FILTER"]
    assert "distributive=yes" in rows[0].detail
    assert "prime=yes" in rows[0].detail
    assert "implicative=yes" in rows[0].detail
    assert "affine=no" in rows[0].detail


def test_filters_on_erratic_fixture_exits_one(capsys):
    code, out = run(capsys, "filters", fx("wide7-printed"), "--machine")
    assert code == 1
    assert "law-valid" in out


def test_filters_on_one_element_algebra(capsys):
    code, out = run(capsys, "filters", fx("point"), "--machine")
    assert code == 0
    rows = [l for l in parse_machine(out).lines if l.kind == "FILTER"]
    assert len(rows) == 1


def test_quotient_singleton_note_and_verdicts(capsys):
    code, out = run(capsys, "quotient", fx("chain6lo"),
                    "--filter", "1,b,c,d,top")
    assert code == 0
    assert "matches the source" in out
    assert "algebra chain6lo-quotient" in out
    # printed induced document parses back
    tail = out[out.index("algebra chain6lo-quotient"):]
    doc = parse_spec(tail)
    assert len(doc.elements) == 6


def test_quotient_whole_carrier(capsys):
    code, out = run(capsys, "quotient", fx("fork"), "--machine",
                    "--filter", "bot,b,c,d,1,top")
    assert code == 0
    blocks = [l for l in parse_machine(out).lines if l.kind == "BLOCK"]
    assert len(blocks) == 1


def test_quotient_non_filter_exits_one_with_witness(capsys, tmp_path):
    code, out = run(capsys, "quotient", fx("fork"), "--machine",
                    "--filter", "b,c,d,1,top")
    assert code == 1
    lines = parse_machine(out).lines
    assert lines[0].kind == "VIOLATION"
    assert lines[0].label == "star-closed"
    assert lines[0].witness == ("b", "b")
    assert "bot" in lines[0].detail
    # {bot, 1} is closed under * and meet on G8 but not upward closed.
    code, out = run(capsys, "quotient", written(tmp_path, godel_chain(8), "G8"),
                    "--machine", "--filter", "g0,g7")
    assert code == 1
    [line] = parse_machine(out).lines
    assert (line.kind, line.label, line.witness) == (
        "VIOLATION", "upward-closed", ("g0", "g1"))
    assert line.detail == "not a filter: g0 is in the subset but g1 above it is not"
    # {c, 1, top} on fork is closed under * and upward closed; only meet fails.
    code, out = run(capsys, "quotient", fx("fork"), "--machine", "--filter=c,1,top")
    assert code == 1
    assert out == "VIOLATION;meet-closed;c,1;not a filter: c meet 1 = b escapes the subset\n"


def test_quotient_filter_names_beginning_with_minus(capsys, tmp_path):
    # After a space, "-1,..." begins with "-" and is no number, so it is read
    # as an option and refused; such a filter is passed as --filter=-1,...
    alg, members = sugihara_chain(3), "-1,0,1,2,3"
    source = written(tmp_path, alg, "S7")
    assert main(["quotient", source, "--machine", "--filter", members]) == 3
    capsys.readouterr()
    code, out = run(capsys, "quotient", source, "--machine", f"--filter={members}")
    assert code == 0
    blocks = [l.witness for l in parse_machine(out).lines if l.kind == "BLOCK"]
    expected = quotient_algebra(alg, [alg.index(m) for m in members.split(",")])
    assert blocks == [alg.names(blk) for blk in expected.blocks]
    assert blocks[2] == ("-1", "0", "1")


def test_quotient_unknown_member_is_usage_error(capsys):
    assert main(["quotient", fx("fork"), "--filter", "1,zz"]) == 3


def test_quotient_machine_tables(capsys):
    code, out = run(capsys, "quotient", fx("chain6hi-corrected"), "--machine",
                    "--filter", "b,c,1,top")
    assert code == 0
    doc = parse_machine(out)
    tables = [l for l in doc.lines if l.kind == "TABLE"]
    assert len(tables) == 2 * 3 * 3  # star and arrow over three blocks
    star = {l.witness: l.detail for l in tables if l.label == "star"}
    assert star[("[a]", "[a]")] == "[bot]"
    verdicts = {l.label: l.detail for l in doc.lines if l.kind == "VERDICT"}
    assert verdicts["affine-quotient"].endswith("pass")


def test_thousand_element_file_is_refused_without_hanging(capsys, tmp_path):
    # Parsing looks every table entry up by name; a 1000-element file has a
    # million entries and must reach the carrier cap in linear time.
    n = 1000
    names = [f"e{i}" for i in range(n)]
    lines = ["algebra big", "elements " + " ".join(names), "unit e0"]
    for i, x in enumerate(names):
        row = " ".join(names[(i + j) % n] for j in range(n))
        lines.append(f"star {x} : {row}")
    source = tmp_path / "big.alg"
    source.write_text("\n".join(lines) + "\n")
    start = time.perf_counter()
    code, out = run(capsys, "check", str(source))
    elapsed = time.perf_counter() - start
    assert code == 1
    [line] = out.splitlines()
    assert line.split()[:2] == ["ERROR", "build"]
    assert "at most 64" in line
    assert elapsed < 5.0


def test_over_cap_file_machine_report_round_trips(capsys, over_cap):
    # The refusal is printed as a report field, so it must hold no ';'.
    code, out = run(capsys, "check", over_cap, "--machine")
    assert code == 1
    [line] = parse_machine(out).lines
    assert (line.kind, line.label, line.witness) == ("ERROR", "build", ())
    assert "at most 64" in line.detail
    assert line.machine() == out.rstrip("\n")


def test_derive_arrow_reproduces_fixture_table(capsys, tmp_path):
    text = fixture_path("chain6lo").read_text(encoding="utf-8")
    stripped = "\n".join(
        line for line in text.splitlines() if not line.startswith("arrow")
    )
    source = tmp_path / "noarrow.alg"
    source.write_text(stripped + "\n")
    code, out = run(capsys, "derive-arrow", str(source))
    assert code == 0
    derived = {}
    for line in out.splitlines():
        doc_line = line.split()
        assert doc_line[0] == "arrow" and doc_line[2] == ":"
        derived[doc_line[1]] = doc_line[3:]
    original = parse_spec(text)
    assert derived == original.arrow_rows


@pytest.mark.parametrize("name", VALID_FIXTURES + ["bool2*chain6hi-corrected"])
def test_derive_arrow_prints_render_spec_arrow_lines(capsys, tmp_path, name):
    # derive-arrow promises rows that paste into an .alg file unchanged
    if name in VALID_FIXTURES:
        alg, source = algebra_of(name), fx(name)
    else:
        alg = direct_product(*(algebra_of(factor) for factor in name.split("*")))
        source = written(tmp_path, alg, "product")
    code, out = run(capsys, "derive-arrow", str(source))
    assert code == 0
    text = render_spec(document_of(alg, name))
    arrows = [
        line for line in text.splitlines(keepends=True) if line.startswith("arrow ")
    ]
    assert len(arrows) == alg.n
    assert out == "".join(arrows)


def test_derive_arrow_one_element(capsys):
    code, out = run(capsys, "derive-arrow", fx("point"))
    assert code == 0
    assert out.split() == ["arrow", "e", ":", "e"]


def test_derive_arrow_not_residuated_mutation(capsys, tmp_path):
    alg = algebra_of("chain6lo")
    doc = parse_spec(fixture_path("chain6lo").read_text(encoding="utf-8"))
    doc.star_rows["b"][0] = "top"  # b*bot := top empties a solution set
    doc = doc._replace(arrow_rows=None)
    source = tmp_path / "mutated.alg"
    source.write_text(render_spec(doc))
    code, out = run(capsys, "derive-arrow", str(source), "--machine")
    assert code == 1
    lines = parse_machine(out).lines
    assert lines[0].kind == "ERROR"
    assert lines[0].label == "not-residuated"
    assert lines[0].witness == ("b", "bot")


def test_derive_arrow_refuses_law_broken_algebra(capsys):
    # pentagon-printed is residuated but breaks the monoid laws at a*1
    code, out = run(capsys, "derive-arrow", fx("pentagon-printed"), "--machine")
    assert code == 1
    lines = parse_machine(out).lines
    assert (lines[0].kind, lines[0].label) == ("ERROR", "derive-arrow")
    assert "law-valid" in lines[0].detail
    assert {l.kind for l in lines[1:]} == {"VIOLATION"}
    assert ("star-unit", ("a", "1")) in {(l.label, l.witness) for l in lines}
    assert not any(l.kind == "TABLE" for l in lines)


class _Writes:
    """A stdout that keeps each write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


def _streamed(monkeypatch, *argv):
    """Exit code, the writes to stdout, and every record rendered."""
    records = []
    render = ReportDocument.render

    def recording(self, machine=False):
        records.extend(self.lines)
        return render(self, machine)

    stdout = _Writes()
    with monkeypatch.context() as patch:
        patch.setattr(ReportDocument, "render", recording)
        patch.setattr(sys, "stdout", stdout)
        code = main(list(argv))
    return code, stdout.writes, records


@pytest.mark.parametrize("source, argv, expected", [
    ("bad20", ["check"], 1),
    ("bad20", ["check", "--machine"], 1),
    ("bad20", ["check", "--lenient"], 1),
    ("bad20", ["check", "--lenient", "--machine"], 1),
    ("bad20", ["filters"], 1),
    ("bad20", ["quotient", "--filter=1.1.1.1.1.1"], 1),
    ("bad20", ["derive-arrow"], 1),  # its star has no residual
    ("valid", ["check"], 0),
    ("valid", ["derive-arrow", "--machine"], 0),
    ("valid", ["filters", "--classify", "--machine"], 0),
    # the unit is the top, so its upset is {top}: 64 blocks
    ("valid", ["quotient", "--machine", "--filter=1.1.1.1.1.1"], 0),
    ("valid", ["quotient", "--filter=1.1.1.1.1.1"], 0),
    # {bot, top} is not upward closed
    ("valid", ["quotient", "--filter=bot.bot.bot.bot.bot.bot,1.1.1.1.1.1"], 1),
    ("over-cap", ["check", "--machine"], 1),
], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_report_is_written_in_bounded_slices(monkeypatch, bool2_6, over_cap, source, argv,
                                             expected):
    command, *flags = argv
    path = over_cap if source == "over-cap" else bool2_6[source]
    code, writes, records = _streamed(monkeypatch, command, path, *flags)
    assert code == expected
    if command == "quotient" and "--machine" not in flags and code == 0:
        # the pasted quotient document follows the records, in a write of its own
        alg = bool2_power(6)
        members = [alg.index(m) for m in flags[-1].removeprefix("--filter=").split(",")]
        q = quotient_algebra(alg, members).algebra
        assert writes.pop() == "\n" + render_spec(document_of(q, "bool2-6-quotient"))
    # the writes add up to the whole document's rendering, a record a line,
    # and k records take ceil(k / SLICE) writes
    assert "".join(writes) == ReportDocument(records).render("--machine" in flags) + "\n"
    sizes = [w.count("\n") for w in writes]
    assert sum(sizes) == len(records)
    assert len(writes) == -(-len(records) // cli.SLICE)
    assert all(0 < size <= cli.SLICE for size in sizes)


@pytest.mark.parametrize("flags, digest", [
    ([], "80f9b1a728207bc4174b74569051d2c0a567a199b19256a82e02f1f2022d792e"),
    (["--machine"], "12646e23955c3246d8aa9e0a2866bcba00088cfc6f7558587ddc865854f50d03"),
], ids=["human", "machine"])
def test_lenient_check_of_bad20_is_byte_identical(capsys, bool2_6, flags, digest):
    # sha256 of the exit code and stdout (13,932 records, about 2.4 MB). A
    # deliberate output change re-pins them and names them in CHANGES.md.
    code, out = run(capsys, "check", bool2_6["bad20"], "--lenient", *flags)
    assert hashlib.sha256(f"{code}\n{out}".encode()).hexdigest() == digest


def test_check_and_the_refusals_run_each_build_suite_once(capsys, monkeypatch, bool2_6):
    # They read the build's suites where the build left them, so no suite
    # is swept twice.
    calls = []
    for name in ("_monoid_laws", "_residuation_law", "_top_laws"):
        suite = getattr(core, name)
        monkeypatch.setattr(core, name, lambda *a, s=suite: calls.append(s.__name__) or s(*a))
    for argv in (["check"], ["check", "--lenient", "--machine"], ["filters"],
                 ["quotient", "--filter=1.1.1.1.1.1"]):
        calls.clear()
        code, out = run(capsys, argv[0], bool2_6["bad20"], *argv[1:])
        assert code == 1 and out.count("VIOLATION") > 4000
        assert sorted(calls) == ["_monoid_laws", "_residuation_law", "_top_laws"]


class _Sink:
    """A stdout that keeps nothing but the number of lines written."""

    lines = 0

    def write(self, text):
        self.lines += text.count("\n")
        return len(text)

    def flush(self):
        pass


def test_lenient_check_of_a_long_report_runs_in_bounded_memory(monkeypatch, tmp_path):
    # rot-star bool2^5 lists 54,400 records (about 8 MB of text). Its traced
    # peak was 12.7 MB while the suites returned whole lists; streamed, it is
    # about 1.2 MB, against 0.4 MB for a valid check of bool2^5.
    source = tmp_path / "rot-star-bool2-5.alg"
    source.write_text(render_spec(rot_star(5)))
    sink = _Sink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        code = main(["check", "--lenient", "--machine", str(source)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, sink.lines) == (1, 54_400)
    assert peak < 3_000_000


@pytest.mark.parametrize("flags, records", [
    (["--lenient"], 54_400),
    (["--lenient", "--machine"], 54_400),
    ([], 28_249),
], ids=["lenient", "lenient-machine", "strict"])
def test_long_report_holds_one_slice_at_a_time(monkeypatch, tmp_path, flags, records):
    # Once ilalg.identities is compiled, what a long check holds at once is
    # one slice: its records, their lines and the written text. Traced peaks
    # on rot-star bool2^5: 0.90-0.93 MB at 1024 records a slice, 0.32-0.37 MB
    # at 256.
    source = tmp_path / "rot-star-bool2-5.alg"
    source.write_text(render_spec(rot_star(5)))
    monkeypatch.setattr(sys, "stdout", _Sink())
    main(["check", "--lenient", str(source)])
    sink = _Sink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        code = main(["check", *flags, str(source)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, sink.lines) == (1, records)
    assert peak < 600_000


@pytest.mark.parametrize("flags", [["--machine"], []], ids=["machine", "human"])
def test_closed_stdout_exits_three_without_traceback(bool2_6, flags):
    # a lenient report of 2.3-2.5 MB in many writes, far more than a pipe
    # holds, so a later write meets the closed end
    proc = subprocess.Popen(
        [sys.executable, "-m", "ilalg", "check", bool2_6["bad20"], "--lenient", *flags],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline().startswith(b"VERDICT")
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 3
    assert stderr == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_stdout_exits_three_with_one_line():
    # every write to /dev/full fails with ENOSPC: one line on stderr, no
    # traceback, and not the exit code of violations
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "ilalg", "check", fx("chain6lo")],
            stdout=full, stderr=subprocess.PIPE, timeout=60,
        )
    assert proc.returncode == 3
    assert proc.stderr.startswith(b"cannot write the report: ")
    assert proc.stderr.count(b"\n") == 1 and proc.stderr.endswith(b"\n")


# `python -m ilalg` ends with `os._exit` once `main` has flushed (`cli.run`).
# Each process must still print what `main` prints in-process: the long
# lenient reports in many slices, a quotient whose pasted document is the
# last write, and the exits that print on stderr only.
PROCESS_EXITS = [
    (["check", "bad20", "--lenient"], 1),
    (["check", "bad20", "--lenient", "--machine"], 1),
    (["quotient", "chain6lo", "--filter=1,b,c,d,top"], 0),
    (["derive-arrow", "bool2"], 0),
    (["check", "unparsable"], 2),
    (["check"], 3),
    (["--help"], 0),
]


@pytest.mark.parametrize("sink", ["pipe", "file"])
@pytest.mark.parametrize("argv, code", PROCESS_EXITS, ids=[" ".join(a) for a, _ in PROCESS_EXITS])
def test_process_exit_loses_nothing(capsys, tmp_path, bool2_6, argv, code, sink):
    unparsable = tmp_path / "unparsable.alg"
    unparsable.write_text("algebra x\nelements a\nunit a\nstar a : a a\n")
    paths = {"bad20": bool2_6["bad20"], "chain6lo": fx("chain6lo"), "bool2": fx("bool2"),
             "unparsable": str(unparsable)}
    argv = [paths.get(a, a) for a in argv]
    assert main(argv) == code
    captured = capsys.readouterr()
    expected = (code, captured.out.encode(), captured.err.encode())
    command = [sys.executable, "-m", "ilalg", *argv]
    # block-buffered stdout, as by default: what `os._exit` would drop
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if sink == "pipe":
        proc = subprocess.run(command, capture_output=True, env=env, timeout=60)
        got = (proc.returncode, proc.stdout, proc.stderr)
    else:
        with open(tmp_path / "out", "wb") as out, open(tmp_path / "err", "wb") as err:
            returncode = subprocess.run(command, stdout=out, stderr=err, env=env,
                                        timeout=60).returncode
        got = (returncode, (tmp_path / "out").read_bytes(), (tmp_path / "err").read_bytes())
    assert got == expected


def test_profiler_prints_its_table_after_the_report(capsys):
    # Under a profiler `cli.run` leaves the exit to `sys.exit`, so cProfile
    # still prints its table when the command is done.
    assert main(["check", fx("chain6lo")]) == 0
    report = capsys.readouterr().out
    proc = subprocess.run([sys.executable, "-m", "cProfile", "-m", "ilalg", "check",
                           fx("chain6lo")], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(report)
    assert "function calls" in proc.stdout[len(report):]


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # Every CLI start pays for what `import ilalg.cli` loads, and for what
    # reading argv loads: not argparse either. It runs in a subprocess
    # because pytest itself has loaded all three modules here.
    probe = """
import contextlib, io, sys, ilalg.cli
loaded = sorted({'dataclasses', 'inspect'} & set(sys.modules))
with contextlib.redirect_stdout(io.StringIO()):
    ilalg.cli.main(["check", sys.argv[1]])
print(loaded, "argparse" in sys.modules)
"""
    proc = subprocess.run([sys.executable, "-c", probe, fx("fork")], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[] False\n"


def test_cli_commands_import_only_what_they_run():
    # `check` and `derive-arrow` need neither filters nor quotient, and
    # `filters` does not need quotient; only a lenient check with violations
    # needs the identity suite. The package still serves every name of
    # __all__, each from its home module. A fresh process, since this one
    # has loaded everything.
    probe = """
import contextlib, io, json, sys
import ilalg
from ilalg import cli, core
from ilalg.fixtures import fixture_path

def loaded(*argv, fixture="wide7-corrected"):
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main([argv[0], str(fixture_path(fixture)), *argv[1:]])
    return sorted(m for m in ("ilalg.filters", "ilalg.quotient", "ilalg.identities")
                  if m in sys.modules)

result = {
    "check": loaded("check"),
    "valid check --lenient": loaded("check", "--lenient"),
    "derive-arrow": loaded("derive-arrow", "--machine"),
    "filters": loaded("filters", "--classify"),
    "quotient": loaded("quotient", "--filter=1,top", fixture="chain6lo"),
    "check --lenient": loaded("check", "--lenient", fixture="wide7-printed"),
    "unlisted": [n for n in ilalg.__all__ if n not in dir(ilalg)],
    "unbound": [n for n in ilalg.__all__ if getattr(ilalg, n, None) is None],
    "modules": [ilalg.classify_all is ilalg.filters.classify_all,
                ilalg.quotient_algebra is ilalg.quotient.quotient_algebra,
                ilalg.check_lattice is ilalg.identities.check_lattice,
                ilalg.check_integrality_equivalence
                is ilalg.identities.check_integrality_equivalence,
                ilalg.check_identities is ilalg.identities.check_identities,
                ilalg.is_idempotent is ilalg.filters.is_idempotent],
    "missing": hasattr(ilalg, "no_such_name"),
}
star = {}
exec("from ilalg import *", star)
result["unstarred"] = [n for n in ilalg.__all__ if n not in star]
print(json.dumps(result))
"""
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "check": [],
        "valid check --lenient": [],
        "derive-arrow": [],
        "filters": ["ilalg.filters"],
        "quotient": ["ilalg.filters", "ilalg.quotient"],
        "check --lenient": ["ilalg.filters", "ilalg.identities", "ilalg.quotient"],
        "unlisted": [],
        "unbound": [],
        "modules": [True] * 6,
        "missing": False,
        "unstarred": [],
    }


def test_derive_arrow_machine_table(capsys):
    code, out = run(capsys, "derive-arrow", fx("bool2"), "--machine")
    assert code == 0
    lines = parse_machine(out).lines
    assert all(l.kind == "TABLE" and l.label == "arrow" for l in lines)
    cells = {l.witness: l.detail for l in lines}
    assert cells[("bot", "bot")] == "1"
    assert cells[("1", "bot")] == "bot"


def test_machine_output_is_deterministic(capsys):
    _, first = run(capsys, "filters", fx("wide7-corrected"), "--classify", "--machine")
    _, second = run(capsys, "filters", fx("wide7-corrected"), "--classify", "--machine")
    assert first == second


def test_report_line_round_trip_unit():
    line = ReportLine("VERDICT", "monoid", ("a", "b"), "expected x | found y")
    assert ReportLine.from_machine(line.machine()) == line
    with pytest.raises(ValueError):
        ReportLine("NOTE", "x;y", (), "").machine()
    with pytest.raises(ValueError):
        ReportLine("NOTE", "x", ("a,b",), "").machine()
    with pytest.raises(ValueError):
        ReportLine.from_machine("only;three;fields")


# Tokens a mutation may write: the directives, the order and row
# separators, and names no fixture uses.
JUNK = ("algebra", "elements", "order", "unit", "bottom", "top", "star", "arrow",
        "<=", ":", "#", "zz", "-1", "caf\u00e9")
PROBE_COMMANDS = (["check"], ["check", "--lenient", "--machine"], ["filters", "--classify"],
                  ["derive-arrow"], ["quotient"])


def mutated(text, names, rng):
    """`text` with one to three seeded token mutations: a token replaced by
    an element name (twice as likely as the others) or by a JUNK token, a
    token deleted, a line repeated or a line deleted."""
    lines = [line.split() for line in text.splitlines()]
    for _ in range(rng.randint(1, 3)):
        i, kind = rng.randrange(len(lines)), rng.randrange(-1, 5)
        line = lines[i]
        if kind < 3 and line:
            k = rng.randrange(len(line))
            if kind == 2:
                del line[k]
            else:
                line[k] = rng.choice(JUNK if kind == 1 else names)
        elif kind == 3:
            lines.insert(i, list(line))
        else:
            del lines[i]
    return "\n".join(" ".join(line) for line in lines) + "\n"


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_mutated_fixtures_never_end_in_a_traceback(tmp_path, capsys, name):
    # every command on 100 seeded mutations of each fixture's text, about 1 s
    # in all: each run ends with exit 0-3 and an exception reaches no caller
    rng = random.Random(name)
    text, path = fixture_text(name), tmp_path / "mutated.alg"
    names = parse_spec(text).elements
    codes = set()
    for _ in range(100):
        path.write_text(mutated(text, names, rng), encoding="utf-8")
        argv = [*rng.choice(PROBE_COMMANDS)]
        if argv == ["quotient"]:
            argv.append("--filter=" + ",".join(rng.sample(names, rng.randint(1, len(names)))))
        code = main([argv[0], str(path), *argv[1:]])
        err = capsys.readouterr().err
        assert code in range(4) and "Traceback" not in err, (argv, path.read_text())
        codes.add(code)
    assert len(codes) > 1

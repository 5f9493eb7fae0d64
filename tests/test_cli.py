"""Command-line surface: exit codes, report lines, machine format."""
from __future__ import annotations

import subprocess
import sys
import time

import pytest

from helpers import (
    VALID_FIXTURES,
    algebra_of,
    bool2_power,
    direct_product,
    godel_chain,
    sugihara_chain,
)
from ilalg import cli
from ilalg.cli import main
from ilalg.core import check_identities
from ilalg.fixtures import fixture_path
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

    monkeypatch.setattr(cli, "check_identities", refuse)
    expected = ReportDocument([])
    for label in ("lattice", "monoid", "residuation", "identities", "overall"):
        expected.add("VERDICT", label, (), "pass")
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
        return check_identities(alg)

    monkeypatch.setattr(cli, "check_identities", spy)
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


def test_bad_usage_is_exit_three(capsys):
    assert main(["no-such-command"]) == 3
    assert main([]) == 3
    assert main(["quotient", fx("fork")]) == 3  # --filter is required


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


def test_quotient_filter_names_beginning_with_minus(capsys, tmp_path):
    # argparse reads "-1,..." after a space as an option, so such a filter
    # is passed as --filter=-1,...
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


def test_over_cap_file_machine_report_round_trips(capsys, tmp_path):
    # The refusal is printed as a report field, so it must hold no ';'.
    names = [f"e{i}" for i in range(65)]
    lines = ["algebra big65", "elements " + " ".join(names), "unit e0"]
    lines += [f"star {x} : " + " ".join(names) for x in names]
    source = tmp_path / "big65.alg"
    source.write_text("\n".join(lines) + "\n")
    code, out = run(capsys, "check", str(source), "--machine")
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


def test_closed_stdout_exits_three_without_traceback(tmp_path):
    # corrupted star cells give a lenient machine report of about 450 kB,
    # far more than a pipe holds, so the writer meets the closed end
    alg = direct_product(algebra_of("chain6lo"), algebra_of("wide7-corrected"))
    doc = document_of(alg, "corrupted")
    for i in range(3, 40, 3):
        row = doc.star_rows[alg.carrier[i]]
        row[i] = alg.carrier[-1] if row[i] == alg.carrier[0] else alg.carrier[0]
    source = tmp_path / "corrupted.alg"
    source.write_text(render_spec(doc))
    proc = subprocess.Popen(
        [sys.executable, "-m", "ilalg", "check", str(source), "--lenient", "--machine"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline().startswith(b"VERDICT;")
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 3
    assert stderr == b""


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # Every CLI start pays for what `import ilalg.cli` loads. It runs in a
    # subprocess because pytest itself has loaded both modules here.
    probe = "import sys, ilalg.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


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

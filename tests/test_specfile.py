"""The .alg grammar: parsing, positioned errors, rendering, round-trips."""
from __future__ import annotations

import random
import re

import pytest

from helpers import (
    ALL_FIXTURES,
    VALID_FIXTURES,
    algebra_of,
    bool2_power,
    direct_product,
    doc_of,
    godel_chain,
    lukasiewicz_chain,
    shuffled,
    sugihara_chain,
)
from ilalg import (
    ParseError,
    build_algebra,
    document_of,
    parse_spec,
    render_spec,
)
from ilalg.fixtures import fixture_text

MINIMAL = """\
algebra two
elements lo hi
order lo <= hi
unit hi
star lo : lo lo
star hi : lo hi
"""


def test_parse_minimal_document():
    doc = parse_spec(MINIMAL)
    assert doc.name == "two"
    assert doc.elements == ["lo", "hi"]
    assert doc.order_pairs == [("lo", "hi")]
    assert doc.unit == "hi"
    assert doc.star_rows == {"lo": ["lo", "lo"], "hi": ["lo", "hi"]}
    assert doc.arrow_rows is None
    assert doc.declared_bottom is None and doc.declared_top is None


def test_parse_fixture_with_arrow_section():
    doc = doc_of("chain6lo")
    assert doc.name == "chain6lo"
    assert len(doc.elements) == 6
    assert len(doc.star_rows) == 6
    assert len(doc.arrow_rows) == 6
    assert doc.order_pairs[0] == ("bot", "1")


def test_comments_and_blank_lines_are_ignored():
    text = "# heading\n\nalgebra t # trailing\nelements a\nunit a\nstar a : a\n"
    doc = parse_spec(text)
    assert doc.name == "t"
    assert doc.elements == ["a"]


@pytest.mark.parametrize(
    "text,line,col,fragment",
    [
        ("", 1, 1, "missing 'elements'"),
        ("algebra x\n", 1, 1, "missing 'elements'"),
        ("elements a b\nunit a\nstar a : a a\nstar b : a b\n", 4, 1, "missing 'algebra'"),
        ("algebra x\nelements a\nstar a : a\n", 3, 1, "missing 'unit'"),
        ("algebra x\nelements a b\nunit a\nstar a : a a\n", 4, 1, "missing star row for 'b'"),
        ("algebra x\nelements a\nunit a\nstar a : a\nstar a : a\n", 5, 6, "duplicate star row"),
        ("algebra x\nelements a a\n", 2, 12, "duplicate element name"),
        ("algebra x\nelements a\nunit b\n", 3, 6, "unknown element name 'b'"),
        ("algebra x\nelements a\nunit a\nstar a : b\n", 4, 10, "unknown element name 'b'"),
        ("order a <= b\n", 1, 1, "before 'elements'"),
        ("algebra x\nelements a b\nunit a\norder a b\n", 4, 1, "order <a> <= <b>"),
        ("algebra x\nelements a\nunit a\nwibble a\n", 4, 1, "unknown directive"),
        ("algebra x\nelements a;b\n", 2, 10, "bad element name"),
        ("algebra x\nalgebra y\n", 2, 1, "duplicate 'algebra'"),
        ("algebra x\nelements a b\nunit a\nunit b\n", 4, 1, "duplicate 'unit'"),
        ("algebra x\nelements a\nunit a a\n", 3, 1, "'unit' takes exactly one name"),
        ("algebra x\nelements a\nelements b\n", 3, 1, "duplicate 'elements' line"),
        ("algebra x\nelements\n", 2, 1, "'elements' needs at least one name"),
    ],
)
def test_positioned_parse_errors(text, line, col, fragment):
    with pytest.raises(ParseError) as err:
        parse_spec(text)
    assert err.value.line == line
    assert err.value.column == col
    assert fragment in err.value.message


def test_row_arity_error_is_positioned():
    text = (
        "algebra x\nelements e1 e2 e3 e4 e5 e6\nunit e1\n"
        "star e1 : e1 e1 e1 e1 e1\n"
    )
    with pytest.raises(ParseError) as err:
        parse_spec(text)
    assert err.value.line == 4
    assert "5 entries" in err.value.message
    assert "expected 6" in err.value.message


def token_columns(line):
    """1-based start column of each token of a line before any '#'."""
    return [m.start() + 1 for m in re.finditer(r"\S+", line.split("#", 1)[0])]


def test_positioned_errors_on_every_table_line_at_the_cap():
    # One defect per star or arrow line of a rendered 64-element spec, the
    # six kinds in turn, each reported line indented by a seeded amount.
    # The expected column is read off the reported line itself.
    rng = random.Random(17)
    lines = render_spec(document_of(bool2_power(6), "b6")).splitlines()
    n = 64
    table_lines = [i for i, line in enumerate(lines)
                   if line.split()[0] in ("star", "arrow")]
    assert len(table_lines) == 2 * n
    for kind, i in enumerate(table_lines):
        toks = lines[i].split()
        kw, row = toks[:2]
        indent = " " * rng.randrange(4)
        planted = list(lines)
        if kind % 6 == 0:
            k = rng.randrange(3, 3 + n)
            toks[k] = "nowhere"
            line = planted[i] = indent + "  ".join(toks)
            want = (i + 1, token_columns(line)[k], "unknown element name 'nowhere'")
        elif kind % 6 == 1:
            toks = toks + [toks[3]] if rng.random() < 0.5 else toks[:-1]
            line = planted[i] = indent + " ".join(toks)
            want = (i + 1, token_columns(line)[1],
                    f"{kw} row for {row!r} has {len(toks) - 3} entries, expected {n}")
        elif kind % 6 == 2:
            line = indent + lines[i]
            planted.insert(i + 1, line)
            want = (i + 2, token_columns(line)[1], f"duplicate {kw} row for {row!r}")
        elif kind % 6 == 3:
            line = planted[i] = indent + lines[i].replace(" : ", "   ", 1)
            want = (i + 1, token_columns(line)[0],
                    f"expected: {kw} <row-element> : <entries>")
        elif kind % 6 == 4:
            line = indent + lines[i]
            planted.insert(0, line)
            want = (1, token_columns(line)[0], "directive before 'elements'")
        else:
            k = rng.randrange(3, 3 + n)
            line = planted[i] = indent + " ".join(toks[:k] + ["#", "note"] + toks[k:])
            want = (i + 1, token_columns(line)[1],
                    f"{kw} row for {row!r} has {k - 3} entries, expected {n}")
        with pytest.raises(ParseError) as err:
            parse_spec("\n".join(planted) + "\n")
        assert (err.value.line, err.value.column, err.value.message) == want


def test_partial_arrow_section_is_rejected():
    text = MINIMAL + "arrow lo : hi hi\n"
    with pytest.raises(ParseError, match="missing arrow row for 'hi'"):
        parse_spec(text)


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_parse_render_parse_is_identity(name):
    doc = parse_spec(fixture_text(name))
    assert parse_spec(render_spec(doc)) == doc


def test_render_includes_declared_bounds():
    doc = parse_spec(MINIMAL)._replace(declared_bottom="lo", declared_top="hi")
    text = render_spec(doc)
    assert "bottom lo" in text and "top hi" in text
    assert parse_spec(text) == doc


def test_document_of_round_trips_an_algebra():
    wide7 = algebra_of("wide7-corrected")
    inputs = {name: algebra_of(name) for name in ALL_FIXTURES}
    inputs.update({
        "bool2-6": bool2_power(6),
        "godel-64": godel_chain(64),
        "wide7-2": direct_product(wide7, wide7),
        "sugihara-63": sugihara_chain(31),
        "lukasiewicz-64": lukasiewicz_chain(64),
    })
    inputs.update({f"shuffled-{name}": shuffled(algebra_of(name), 11)
                   for name in VALID_FIXTURES})
    for name, alg in inputs.items():
        doc = document_of(alg, "again")
        n, le = alg.n, alg.leq_table
        covers = [
            (alg.carrier[i], alg.carrier[j])
            for i in range(n)
            for j in range(n)
            if i != j and le[i][j]
            and not any(k not in (i, j) and le[i][k] and le[k][j] for k in range(n))
        ]
        assert doc.order_pairs == covers, name
        rebuilt, report = build_algebra(doc, mode="strict" if alg.valid else "lenient")
        assert report.ok == alg.valid, name
        assert rebuilt.leq_table == alg.leq_table, name
        assert rebuilt.star_table == alg.star_table, name
        assert rebuilt.arrow_table == alg.arrow_table, name
    # Hasse edges only: a six-chain has five covers
    assert len(document_of(algebra_of("chain6lo"), "again").order_pairs) == 5


def test_unicode_and_odd_names_are_fine():
    text = "algebra u\nelements ⊥ ⊤\norder ⊥ <= ⊤\nunit ⊤\nstar ⊥ : ⊥ ⊥\nstar ⊤ : ⊥ ⊤\n"
    doc = parse_spec(text)
    alg, report = build_algebra(doc)
    assert report.ok
    assert alg.carrier == ("⊥", "⊤")


def test_render_pads_table_columns_to_the_longest_name():
    text = MINIMAL.replace("hi", "high")
    assert render_spec(parse_spec(text)) == (
        "algebra two\n"
        "elements lo high\n"
        "order lo <= high\n"
        "unit high\n"
        "star lo   : lo   lo\n"
        "star high : lo   high\n"
    )

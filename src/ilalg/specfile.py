"""Parsing and rendering of the line-oriented .alg description format.

Grammar (one directive per line, '#' starts a comment, blanks ignored):

    algebra <name>
    elements <e1> <e2> ... <en>
    order <a> <= <b>          # repeatable; Hasse edges or a full relation
    unit <e>
    bottom <e>                # optional, cross-checked against the order
    top <e>                   # optional, cross-checked against bot->bot
    star <row> : <v1> ... <vn>
    arrow <row> : <v1> ... <vn>   # optional section; validated, not trusted

Element names are free tokens: no whitespace and none of ':', ';', ',', '#'.
Column order of table rows is the `elements` order.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .errors import ParseError

if TYPE_CHECKING:
    from .core import FiniteILAlgebra

_FORBIDDEN = set(":;,#")


@dataclass
class AlgebraSpecDocument:
    """Parsed form of an .alg file; purely syntactic, nothing validated
    beyond names, arity and section completeness."""

    name: str
    elements: list[str]
    order_pairs: list[tuple[str, str]] = field(default_factory=list)
    unit: str = ""
    star_rows: dict[str, list[str]] = field(default_factory=dict)
    arrow_rows: dict[str, list[str]] | None = None
    declared_bottom: str | None = None
    declared_top: str | None = None


def _tokenize(line: str) -> list[tuple[int, str]]:
    """Split a line into (1-based column, token) pairs."""
    out = []
    col = 0
    for piece in line.split("#", 1)[0].split():
        col = line.index(piece, col)
        out.append((col + 1, piece))
        col += len(piece)
    return out


def _valid_name(tok: str) -> bool:
    return bool(tok) and tok != "<=" and not (_FORBIDDEN & set(tok))


def parse_spec(text: str) -> AlgebraSpecDocument:
    """Parse an .alg document, raising positioned ParseError on any defect."""
    lines = text.splitlines()
    name: str | None = None
    elements: list[str] | None = None
    order_pairs: list[tuple[str, str]] = []
    unit: str | None = None
    declared: dict[str, str | None] = {"bottom": None, "top": None}
    names: set[str] = set()
    star_rows: dict[str, list[str]] = {}
    arrow_rows: dict[str, list[str]] = {}

    def fail(line_no, col, msg):
        raise ParseError(line_no, col, msg)

    def known(line_no, col, tok):
        if tok not in names:
            fail(line_no, col, f"unknown element name {tok!r}")
        return tok

    for line_no, raw in enumerate(lines, 1):
        toks = _tokenize(raw)
        if not toks:
            continue
        col0, kw = toks[0]
        rest = toks[1:]
        if kw in ("order", "unit", "bottom", "top", "star", "arrow") and elements is None:
            fail(line_no, col0, "directive before 'elements'")
        if kw == "algebra":
            if name is not None:
                fail(line_no, col0, "duplicate 'algebra' line")
            if len(rest) != 1:
                fail(line_no, col0, "'algebra' takes exactly one name")
            name = rest[0][1]
        elif kw == "elements":
            if elements is not None:
                fail(line_no, col0, "duplicate 'elements' line")
            if not rest:
                fail(line_no, col0, "'elements' needs at least one name")
            elements = []
            for col, tok in rest:
                if not _valid_name(tok):
                    fail(line_no, col, f"bad element name {tok!r}")
                if tok in names:
                    fail(line_no, col, f"duplicate element name {tok!r}")
                names.add(tok)
                elements.append(tok)
        elif kw == "order":
            if len(rest) != 3 or rest[1][1] != "<=":
                fail(line_no, col0, "expected: order <a> <= <b>")
            a = known(line_no, rest[0][0], rest[0][1])
            b = known(line_no, rest[2][0], rest[2][1])
            order_pairs.append((a, b))
        elif kw == "unit":
            if unit is not None:
                fail(line_no, col0, "duplicate 'unit' line")
            if len(rest) != 1:
                fail(line_no, col0, "'unit' takes exactly one name")
            unit = known(line_no, rest[0][0], rest[0][1])
        elif kw in ("bottom", "top"):
            if declared[kw] is not None:
                fail(line_no, col0, f"duplicate '{kw}' line")
            if len(rest) != 1:
                fail(line_no, col0, f"'{kw}' takes exactly one name")
            declared[kw] = known(line_no, rest[0][0], rest[0][1])
        elif kw in ("star", "arrow"):
            rows = star_rows if kw == "star" else arrow_rows
            if len(rest) < 2 or rest[1][1] != ":":
                fail(line_no, col0, f"expected: {kw} <row-element> : <entries>")
            rcol, rname = rest[0]
            known(line_no, rcol, rname)
            if rname in rows:
                fail(line_no, rcol, f"duplicate {kw} row for {rname!r}")
            entries = rest[2:]
            if len(entries) != len(elements):
                fail(
                    line_no, rcol,
                    f"{kw} row for {rname!r} has {len(entries)} entries, "
                    f"expected {len(elements)}",
                )
            rows[rname] = [known(line_no, c, t) for c, t in entries]
        else:
            fail(line_no, col0, f"unknown directive {kw!r}")

    end = max(len(lines), 1)
    if elements is None:
        raise ParseError(end, 1, "missing 'elements'")
    if name is None:
        raise ParseError(end, 1, "missing 'algebra'")
    if unit is None:
        raise ParseError(end, 1, "missing 'unit'")
    for e in elements:
        if e not in star_rows:
            raise ParseError(end, 1, f"missing star row for {e!r}")
    if arrow_rows:
        for e in elements:
            if e not in arrow_rows:
                raise ParseError(end, 1, f"missing arrow row for {e!r}")
    return AlgebraSpecDocument(
        name=name,
        elements=elements,
        order_pairs=order_pairs,
        unit=unit,
        star_rows=star_rows,
        arrow_rows=arrow_rows or None,
        declared_bottom=declared["bottom"],
        declared_top=declared["top"],
    )


def render_spec(doc: AlgebraSpecDocument) -> str:
    """Canonical text for a document; parse(render(doc)) == doc."""
    width = max(len(e) for e in doc.elements)
    lines = [f"algebra {doc.name}", "elements " + " ".join(doc.elements)]
    for a, b in doc.order_pairs:
        lines.append(f"order {a} <= {b}")
    lines.append(f"unit {doc.unit}")
    if doc.declared_bottom is not None:
        lines.append(f"bottom {doc.declared_bottom}")
    if doc.declared_top is not None:
        lines.append(f"top {doc.declared_top}")
    for kw, rows in (("star", doc.star_rows), ("arrow", doc.arrow_rows or {})):
        for e in doc.elements:
            if e in rows:
                row = " ".join(v.ljust(width) for v in rows[e]).rstrip()
                lines.append(f"{kw} {e.ljust(width)} : {row}")
    return "\n".join(lines) + "\n"


def document_of(alg: "FiniteILAlgebra", name: str) -> AlgebraSpecDocument:
    """Describe a built algebra as a document (Hasse edges, full tables)."""
    n = alg.n
    le = alg.leq_table
    covers = []
    for i in range(n):
        for j in range(n):
            if i == j or not le[i][j]:
                continue
            if any(k != i and k != j and le[i][k] and le[k][j] for k in range(n)):
                continue
            covers.append((alg.carrier[i], alg.carrier[j]))
    return AlgebraSpecDocument(
        name=name,
        elements=list(alg.carrier),
        order_pairs=covers,
        unit=alg.carrier[alg.unit],
        star_rows={
            alg.carrier[i]: [alg.carrier[v] for v in alg.star_table[i]]
            for i in range(n)
        },
        arrow_rows={
            alg.carrier[i]: [alg.carrier[v] for v in alg.arrow_table[i]]
            for i in range(n)
        },
    )

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

from typing import NamedTuple

from .core import FiniteILAlgebra, _bits, _order_masks
from .errors import ParseError

_FORBIDDEN = set(":;,#")


class AlgebraSpecDocument(NamedTuple):
    """Parsed form of an .alg file; purely syntactic, nothing validated
    beyond names, arity and section completeness."""

    name: str
    elements: list[str]
    order_pairs: list[tuple[str, str]]
    unit: str
    star_rows: dict[str, list[str]]
    arrow_rows: dict[str, list[str]] | None = None
    declared_bottom: str | None = None
    declared_top: str | None = None


def _column(line: str, k: int) -> int:
    """1-based column of token k of a line, counting tokens from 0."""
    pieces = line.split("#", 1)[0].split()
    col = 0
    for piece in pieces[:k]:
        col = line.index(piece, col) + len(piece)
    return line.index(pieces[k], col) + 1


def _valid_name(tok: str) -> bool:
    return bool(tok) and tok != "<=" and not (_FORBIDDEN & set(tok))


def parse_spec(text: str) -> AlgebraSpecDocument:
    """Parse an .alg document, raising positioned ParseError on any defect.

    Lines are split into tokens without positions; a token's column is
    worked out only for the error that names it."""
    lines = text.splitlines()
    elements: list[str] | None = None
    order_pairs: list[tuple[str, str]] = []
    # Directives that take exactly one name and appear at most once.
    single: dict[str, str | None] = dict.fromkeys(
        ("algebra", "unit", "bottom", "top")
    )
    # Each name maps to itself, so table rows can hold the one string of
    # each name rather than a fresh token per cell.
    names: dict[str, str] = {}
    star_rows: dict[str, list[str]] = {}
    arrow_rows: dict[str, list[str]] = {}

    def fail(line_no, k, msg):
        raise ParseError(line_no, _column(lines[line_no - 1], k), msg)

    def known(line_no, k, tok):
        if tok not in names:
            fail(line_no, k, f"unknown element name {tok!r}")
        return tok

    for line_no, raw in enumerate(lines, 1):
        toks = raw.split("#", 1)[0].split()
        if not toks:
            continue
        kw = toks[0]
        if kw in ("order", "unit", "bottom", "top", "star", "arrow") and elements is None:
            fail(line_no, 0, "directive before 'elements'")
        if kw in single:
            if single[kw] is not None:
                fail(line_no, 0, f"duplicate '{kw}' line")
            if len(toks) != 2:
                fail(line_no, 0, f"'{kw}' takes exactly one name")
            single[kw] = toks[1] if kw == "algebra" else known(line_no, 1, toks[1])
        elif kw == "elements":
            if elements is not None:
                fail(line_no, 0, "duplicate 'elements' line")
            if len(toks) == 1:
                fail(line_no, 0, "'elements' needs at least one name")
            elements = toks[1:]
            for k, tok in enumerate(elements, 1):
                if not _valid_name(tok):
                    fail(line_no, k, f"bad element name {tok!r}")
                if tok in names:
                    fail(line_no, k, f"duplicate element name {tok!r}")
                names[tok] = tok
        elif kw == "order":
            if len(toks) != 4 or toks[2] != "<=":
                fail(line_no, 0, "expected: order <a> <= <b>")
            a, b = known(line_no, 1, toks[1]), known(line_no, 3, toks[3])
            order_pairs.append((a, b))
        elif kw in ("star", "arrow"):
            rows = star_rows if kw == "star" else arrow_rows
            if len(toks) < 3 or toks[2] != ":":
                fail(line_no, 0, f"expected: {kw} <row-element> : <entries>")
            rname = known(line_no, 1, toks[1])
            if rname in rows:
                fail(line_no, 1, f"duplicate {kw} row for {rname!r}")
            entries = toks[3:]
            if len(entries) != len(elements):
                fail(
                    line_no, 1,
                    f"{kw} row for {rname!r} has {len(entries)} entries, "
                    f"expected {len(elements)}",
                )
            try:
                rows[rname] = list(map(names.__getitem__, entries))
            except KeyError:
                for k, tok in enumerate(entries, 3):  # raises at the first bad cell
                    known(line_no, k, tok)
        else:
            fail(line_no, 0, f"unknown directive {kw!r}")

    end = max(len(lines), 1)
    if elements is None:
        raise ParseError(end, 1, "missing 'elements'")
    for kw in ("algebra", "unit"):
        if single[kw] is None:
            raise ParseError(end, 1, f"missing '{kw}'")
    for e in elements:
        if e not in star_rows:
            raise ParseError(end, 1, f"missing star row for {e!r}")
    if arrow_rows:
        for e in elements:
            if e not in arrow_rows:
                raise ParseError(end, 1, f"missing arrow row for {e!r}")
    return AlgebraSpecDocument(
        name=single["algebra"],
        elements=elements,
        order_pairs=order_pairs,
        unit=single["unit"],
        star_rows=star_rows,
        arrow_rows=arrow_rows or None,
        declared_bottom=single["bottom"],
        declared_top=single["top"],
    )


def render_spec(doc: AlgebraSpecDocument) -> str:
    """Canonical text for a document; parse(render(doc)) == doc."""
    lines = [f"algebra {doc.name}", "elements " + " ".join(doc.elements)]
    for a, b in doc.order_pairs:
        lines.append(f"order {a} <= {b}")
    lines.append(f"unit {doc.unit}")
    if doc.declared_bottom is not None:
        lines.append(f"bottom {doc.declared_bottom}")
    if doc.declared_top is not None:
        lines.append(f"top {doc.declared_top}")
    lines += _row_lines("star", doc.elements, doc.star_rows)
    lines += _row_lines("arrow", doc.elements, doc.arrow_rows or {})
    return "\n".join(lines) + "\n"


def _row_lines(kw: str, elements, rows: dict[str, list[str]]) -> list[str]:
    """The `kw <row> : <entries>` lines for the rows present, in `elements`
    order, each name padded to the longest element name."""
    width = max(len(e) for e in elements)
    return [
        f"{kw} {e.ljust(width)} : "
        + " ".join(v.ljust(width) for v in rows[e]).rstrip()
        for e in elements
        if e in rows
    ]


def document_of(alg: FiniteILAlgebra, name: str) -> AlgebraSpecDocument:
    """Describe a built algebra as a document (Hasse edges, full tables)."""
    # j != i covers i when i and j are all that lies between them.
    up, down = _order_masks(alg.leq_table)
    nm = alg.carrier
    covers = [
        (nm[i], nm[j])
        for i in range(alg.n)
        for j in _bits(up[i])
        if j != i and up[i] & down[j] == 1 << i | 1 << j
    ]
    return AlgebraSpecDocument(
        name=name,
        elements=list(alg.carrier),
        order_pairs=covers,
        unit=alg.carrier[alg.unit],
        star_rows=_named_rows(alg, alg.star_table),
        arrow_rows=_named_rows(alg, alg.arrow_table),
    )


def _named_rows(alg: FiniteILAlgebra, table) -> dict[str, list[str]]:
    """An index table of `alg` as rows of names keyed by row name."""
    nm = alg.carrier
    return {nm[i]: [nm[v] for v in row] for i, row in enumerate(table)}

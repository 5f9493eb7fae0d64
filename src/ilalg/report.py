"""Report documents with a human rendering and a lossless machine format.

Machine format: one record per line, four fields joined by single
semicolons: KIND;label;witness-elements;detail. Witness elements are
comma-joined; element names never contain ',' or ';' (the parser forbids
them), and details are composed without semicolons.

Both renderings are line-local: each record is one line of its own, with
no alignment across lines, so the renderings of consecutive slices of a
document, joined by a newline, are the rendering of the whole.
"""
from __future__ import annotations

from typing import NamedTuple

from .core import Violation


def _machine(kind: str, label: str, witness: tuple[str, ...], detail: str) -> str:
    wit = ",".join(witness)
    line = f"{kind};{label};{wit};{detail}"
    # A ';' in a field or a ',' in an element breaks one of these counts.
    if line.count(";") != 3 or witness and wit.count(",") >= len(witness):
        for part in (kind, label, detail, *witness):
            if ";" in part:
                raise ValueError(f"semicolon in report field {part!r}")
        for part in witness:
            if "," in part:
                raise ValueError(f"comma in witness element {part!r}")
    return line


def _human(kind: str, label: str, witness: tuple[str, ...], detail: str) -> str:
    wit = f"{'(' + ', '.join(witness) + ')':<18} " if witness else ""
    return f"{kind:<9} {label:<26} {wit}{detail}".rstrip()


class ReportLine(NamedTuple):
    kind: str
    label: str
    witness: tuple[str, ...] = ()
    detail: str = ""

    def machine(self) -> str:
        return _machine(*self)

    @classmethod
    def from_machine(cls, line: str) -> "ReportLine":
        parts = line.rstrip("\n").split(";")
        if len(parts) != 4:
            raise ValueError(f"expected 4 semicolon-separated fields: {line!r}")
        kind, label, witness, detail = parts
        return cls(
            kind=kind,
            label=label,
            witness=tuple(witness.split(",")) if witness else (),
            detail=detail,
        )

    def human(self) -> str:
        return _human(*self)


class ReportDocument(NamedTuple):
    # A VIOLATION record is held as its `Violation`, formatted only by
    # render. No default: one list would serve every document.
    lines: list[ReportLine | Violation]

    def render(self, machine: bool = False) -> str:
        """The records, one a line. A `Violation` renders as
        ReportLine("VIOLATION", law, witness, "expected E | found F") would."""
        fmt = _machine if machine else _human
        out = []
        for r in self.lines:
            if type(r) is Violation:
                law, witness, expected, found = r
                out.append(fmt("VIOLATION", law, witness, f"expected {expected} | found {found}"))
            else:
                out.append(fmt(*r))
        return "\n".join(out)


def parse_machine(text: str) -> ReportDocument:
    lines = [
        ReportLine.from_machine(raw)
        for raw in text.splitlines()
        if raw.strip()
    ]
    return ReportDocument(lines)

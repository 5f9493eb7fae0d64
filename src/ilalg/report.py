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


class ReportLine(NamedTuple):
    kind: str
    label: str
    witness: tuple[str, ...] = ()
    detail: str = ""

    def machine(self) -> str:
        for part in (self.kind, self.label, self.detail, *self.witness):
            if ";" in part:
                raise ValueError(f"semicolon in report field {part!r}")
        for part in self.witness:
            if "," in part:
                raise ValueError(f"comma in witness element {part!r}")
        return ";".join(
            (self.kind, self.label, ",".join(self.witness), self.detail)
        )

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
        wit = "(" + ", ".join(self.witness) + ")" if self.witness else ""
        parts = [f"{self.kind:<9}", f"{self.label:<26}"]
        if wit:
            parts.append(f"{wit:<18}")
        if self.detail:
            parts.append(self.detail)
        return " ".join(parts).rstrip()


class ReportDocument(NamedTuple):
    # A VIOLATION record is held as its `Violation`, formatted only by
    # render. No default: one list would serve every document.
    lines: list[ReportLine | Violation]

    def add(self, kind: str, label: str, witness=(), detail: str = "") -> None:
        self.lines.append(ReportLine(kind, label, tuple(witness), detail))

    def add_violation(self, v: Violation) -> None:
        self.lines.append(v)

    def render(self, machine: bool = False) -> str:
        """The records, one a line. A `Violation` renders as
        ReportLine("VIOLATION", law, witness, "expected E | found F") would,
        formatted straight from its fields."""
        out = []
        for r in self.lines:
            if type(r) is not Violation:
                out.append(r.machine() if machine else r.human())
                continue
            law, witness, expected, found = r
            if machine:
                wit = ",".join(witness)
                line = f"VIOLATION;{law};{wit};expected {expected} | found {found}"
                if line.count(";") != 3 or witness and wit.count(",") >= len(witness):
                    # a ';' in a field or a ',' in an element: raise as ReportLine does
                    ReportLine("VIOLATION", law, witness,
                               f"expected {expected} | found {found}").machine()
            else:
                wit = f"{'(' + ', '.join(witness) + ')':<18} " if witness else ""
                line = f"VIOLATION {law:<26} {wit}expected {expected} | found {found}".rstrip()
            out.append(line)
        return "\n".join(out)


def parse_machine(text: str) -> ReportDocument:
    lines = [
        ReportLine.from_machine(raw)
        for raw in text.splitlines()
        if raw.strip()
    ]
    return ReportDocument(lines)

"""Report documents with a human rendering and a lossless machine format.

Machine format: one record per line, four fields joined by single
semicolons: KIND;label;witness-elements;detail. Witness elements are
comma-joined; element names never contain ',' or ';' (the parser forbids
them), and details are composed without semicolons.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .core import VerificationReport


@dataclass(frozen=True)
class ReportLine:
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


@dataclass
class ReportDocument:
    lines: list[ReportLine] = field(default_factory=list)

    def add(self, kind: str, label: str, witness=(), detail: str = "") -> None:
        self.lines.append(ReportLine(kind, label, tuple(witness), detail))

    def extend_violations(self, report: VerificationReport) -> None:
        for v in report.violations:
            self.add(
                "VIOLATION", v.law, v.witness,
                f"expected {v.expected} | found {v.found}",
            )

    def render(self, machine: bool = False) -> str:
        if machine:
            return "\n".join(line.machine() for line in self.lines)
        return "\n".join(line.human() for line in self.lines)


def parse_machine(text: str) -> ReportDocument:
    lines = [
        ReportLine.from_machine(raw)
        for raw in text.splitlines()
        if raw.strip()
    ]
    return ReportDocument(lines)

"""Workbench for finite IL-algebras.

Build algebras from table descriptions, verify every structural law with
concrete witnesses, enumerate and classify filters, and construct quotient
algebras with exhaustively checked well-definedness.
"""

from .core import (
    MAX_CARRIER,
    FiniteILAlgebra,
    VerificationReport,
    Violation,
    assemble_algebra,
    build_algebra,
    check_monoid,
    check_residuation,
    derive_arrow,
    transitive_closure,
)
from .errors import (
    AlgebraError,
    BuildError,
    CongruenceError,
    LawViolationError,
    NotAFilterError,
    NotResiduatedError,
    ParseError,
    WellDefinednessError,
)
from .report import ReportDocument, ReportLine, parse_machine
from .specfile import AlgebraSpecDocument, document_of, parse_spec, render_spec

# The names of `filters`, `quotient` and `identities` are served on first
# use (PEP 562), so a command compiles only the modules it runs: `ilalg
# check` on a valid build compiles none of them.
_LAZY = {
    "filters": (
        "FilterCheck",
        "FilterFlags",
        "FilterSubset",
        "IdempotenceImplicativeResult",
        "check_idempotent_implies_implicative",
        "classify_all",
        "classify_filter",
        "enumerate_filters",
        "filter_closure",
        "is_affine_filter",
        "is_distributive_filter",
        "is_filter",
        "is_idempotent",
        "is_implicative_filter",
        "is_maximal_filter",
        "is_prime_filter",
        "subset_mask",
    ),
    "quotient": (
        "QuotientResult",
        "TheoremCheck",
        "check_affine_quotient",
        "check_distributive_quotient",
        "check_linear_quotient",
        "check_quotient_order",
        "congruence_classes",
        "quotient_algebra",
    ),
    "identities": (
        "check_identities",
        "check_integrality_equivalence",
        "check_lattice",
    ),
}
# Each lazy name, and each of the modules, to its module.
_HOME = {name: mod for mod, names in _LAZY.items() for name in (mod, *names)}

__version__ = "0.1.0"

__all__ = [
    "MAX_CARRIER",
    "FiniteILAlgebra",
    "VerificationReport",
    "Violation",
    "assemble_algebra",
    "build_algebra",
    "check_monoid",
    "check_residuation",
    "derive_arrow",
    "transitive_closure",
    "AlgebraError",
    "BuildError",
    "CongruenceError",
    "LawViolationError",
    "NotAFilterError",
    "NotResiduatedError",
    "ParseError",
    "WellDefinednessError",
    *_LAZY["filters"],
    *_LAZY["quotient"],
    *_LAZY["identities"],
    "ReportDocument",
    "ReportLine",
    "parse_machine",
    "AlgebraSpecDocument",
    "document_of",
    "parse_spec",
    "render_spec",
]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f"{__name__}.{_HOME[name]}")
    value = module if name == _HOME[name] else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _HOME.keys())

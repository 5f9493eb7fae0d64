"""The result and document types are immutable values with tuple storage."""
from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import VALID_FIXTURES, algebra_of, doc_of, report_of
from ilalg import (
    ReportDocument,
    ReportLine,
    Violation,
    check_distributive_quotient,
    check_idempotent_implies_implicative,
    classify_all,
    enumerate_filters,
    is_filter,
    quotient_algebra,
)


def _values():
    """One instance of each value type, taken from real results."""
    alg = algebra_of("chain6lo")
    row = classify_all(alg)[0]
    return [
        alg,
        report_of("chain6lo"),
        report_of("pentagon-printed").violations[0],
        is_filter(alg, 0),
        row,
        row.flags,
        check_idempotent_implies_implicative(alg),
        quotient_algebra(alg, row),
        check_distributive_quotient(alg, row),
        ReportLine("NOTE", "label", ("a",), "detail"),
        ReportDocument([]),
        doc_of("chain6lo"),
    ]


@pytest.mark.parametrize("value", _values(), ids=lambda v: type(v).__name__)
def test_fields_reject_assignment(value):
    for field in type(value)._fields:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
    with pytest.raises(AttributeError):
        value.extra = None


def test_replace_returns_an_updated_copy():
    alg = algebra_of("chain6lo")
    broken = alg._replace(valid=False)
    assert alg.valid and not broken.valid
    assert broken.carrier is alg.carrier and broken != alg
    doc = doc_of("chain6lo")
    bare = doc._replace(arrow_rows=None)
    assert bare.arrow_rows is None and bare.elements is doc.elements
    assert doc.arrow_rows is not None


@pytest.mark.parametrize("name", VALID_FIXTURES)
def test_filter_membership_is_mask_membership(name):
    alg = algebra_of(name)
    for f in enumerate_filters(alg):
        assert [i for i in range(alg.n) if i in f] == list(f.members())
        assert quotient_algebra(alg, f) == quotient_algebra(alg, f.mask)


def test_report_documents_never_share_lines():
    first, second = ReportDocument([]), ReportDocument([])
    first.lines.append(ReportLine("NOTE", "only-here"))
    assert first.lines is not second.lines
    assert second.lines == [] and len(first.lines) == 1


# Report fields: the machine format forbids ';' in every field and ',' in a
# witness element; anything else, newlines included, may appear.
_FIELD = st.text(max_size=12).map(lambda s: s.replace(";", ""))
_ELEMENT = _FIELD.map(lambda s: s.replace(",", ""))
_WITNESS = st.lists(_ELEMENT, max_size=3).map(tuple)
_LINE = st.builds(ReportLine, _FIELD, _FIELD, _WITNESS, _FIELD)
_VIOLATION = st.builds(Violation, _FIELD, _WITNESS, _FIELD, _FIELD)


def _as_line(v):
    """The ReportLine a violation's record stands for."""
    return ReportLine("VIOLATION", v.law, v.witness,
                      f"expected {v.expected} | found {v.found}")


def _document(records):
    """A document of report lines and violations, each held as the CLI
    holds it: a violation as itself, not as its report line."""
    return ReportDocument(list(records))


@settings(max_examples=200, deadline=None)
@given(lines=st.lists(_LINE | _VIOLATION, min_size=2, max_size=12), data=st.data())
def test_render_is_line_local(lines, data):
    # The CLI writes a report in slices as it is made; the output is the
    # whole document's rendering because each record renders on its own.
    k = data.draw(st.integers(min_value=1, max_value=len(lines) - 1))
    head, tail = _document(lines[:k]), _document(lines[k:])
    for machine in (False, True):
        whole = _document(lines).render(machine)
        assert head.render(machine) + "\n" + tail.render(machine) == whole


@settings(max_examples=200, deadline=None)
@given(v=_VIOLATION)
@example(v=Violation("star-monotone", ("a", "b", "c", "d"), "a*b <= c*d", "fails"))
@example(v=Violation("order-reflexive", (), "x <= x", "fails"))
@example(v=Violation("star-unit", ("x  ",), "x  ", "y  "))
@example(v=Violation("a-law-name-longer-than-the-column", ("a-long-element-name",), "", ""))
@example(v=Violation("", ("",), " ", "\t"))
def test_violation_renders_as_its_report_line(v):
    line = _as_line(v)
    assert _document([v]).render() == line.human()
    assert _document([v]).render(machine=True) == line.machine()


@pytest.mark.parametrize("v", [
    Violation("a;law", ("x",), "e", "f"),
    Violation("law", ("x", "y;z"), "e", "f"),
    Violation("law", ("x", "y,z"), "e", "f"),
    Violation("law", ("x,y",), "e", "f"),
    Violation("law", ("x;y", "z,w"), "e", "f"),
    Violation("law", (), "e;1", "f"),
    Violation("law", ("x",), "e", "f;1"),
])
def test_violation_with_a_forbidden_character_raises_as_its_report_line(v):
    with pytest.raises(ValueError) as expected:
        _as_line(v).machine()
    with pytest.raises(ValueError) as got:
        _document([v]).render(machine=True)
    assert str(got.value) == str(expected.value)
    assert _document([v]).render() == _as_line(v).human()

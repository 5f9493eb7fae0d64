"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every expected value here is either a frozen sidecar verdict produced by the
brute-force oracle (tests/oracle.py) or recomputed live from that oracle;
the engines are never their own referee.
"""
from __future__ import annotations

import subprocess
import sys

import pytest

import oracle
from helpers import (
    ALL_FIXTURES,
    VALID_FIXTURES,
    algebra_of,
    built,
    doc_of,
    model_of,
    upset_of_unit,
)
from ilalg import (
    build_algebra,
    is_prime_filter,
    check_affine_quotient,
    check_distributive_quotient,
    check_identities,
    check_idempotent_implies_implicative,
    check_integrality_equivalence,
    check_linear_quotient,
    check_quotient_order,
    classify_filter,
    derive_arrow,
    enumerate_filters,
    is_filter,
    is_idempotent,
    parse_spec,
    quotient_algebra,
    render_spec,
)
from ilalg.fixtures import expectations, fixture_path, fixture_text


class Criterion:
    def __init__(self, label):
        self.label = label
        self.failures: list[str] = []

    def check(self, ok, message):
        if not ok:
            self.failures.append(message)

    def finish(self):
        status = "FAIL" if self.failures else "PASS"
        print(f"ACCEPTANCE {self.label}: {status}")
        assert not self.failures, "; ".join(self.failures)


def test_criterion_1_axiom_verification():
    crit = Criterion("1 axiom verification on the two core fixtures")
    for name in ("fork", "chain6lo"):
        alg, report = build_algebra(doc_of(name), mode="strict")
        crit.check(report.ok and alg.valid, f"{name} fails strict build")
        identities = check_identities(alg)
        crit.check(identities.ok, f"{name} fails the identity suite")
        m = model_of(name)
        crit.check(not oracle.law_failures(m), f"oracle disputes {name} laws")
        crit.check(
            not oracle.identity_failures(m), f"oracle disputes {name} identities"
        )
    crit.finish()


def test_criterion_2_errata_detection():
    crit = Criterion("2 errata detection on printed variants")
    _, report = built("pentagon-printed")
    units = report.by_law().get("star-unit", [])
    crit.check(
        ("a", "1") in units, "pentagon-printed unit violation at (a,1) missing"
    )
    _, report = built("chain6hi-printed")
    by_law = report.by_law()
    crit.check(bool(by_law.get("star-unit")), "chain6hi-printed unit violation missing")
    crit.check(
        bool(by_law.get("residuation")), "chain6hi-printed residuation violation missing"
    )
    for name in ALL_FIXTURES:
        alg, report = built(name)
        exp = expectations(name)
        crit.check(
            alg.valid == exp["strict_valid"],
            f"{name}: engine validity {alg.valid} != sidecar",
        )
        engine = {k: [list(w) for w in v] for k, v in report.by_law().items()}
        ref = {
            k: [list(w) for w in v]
            for k, v in oracle.law_failures(model_of(name)).items()
        }
        crit.check(engine == ref, f"{name}: law witnesses differ from oracle")
        for law, data in exp["violations"].items():
            crit.check(
                len(engine.get(law, [])) == data["count"]
                and engine[law][0] == data["first"],
                f"{name}: sidecar mismatch for {law}",
            )
    crit.finish()


def test_criterion_3_arrow_derivation():
    crit = Criterion("3 residual derivation")
    alg = algebra_of("chain6lo")
    derived = derive_arrow(alg.star_table, alg.leq_table)
    crit.check(
        tuple(map(tuple, derived)) == alg.arrow_table,
        "derived residual differs from the stored 36-entry table",
    )
    for name in ALL_FIXTURES:
        a = algebra_of(name)
        crit.check(
            all(a.arrow(a.unit, x) == x for x in range(a.n)),
            f"{name}: unit row of the residual is not the identity",
        )
    crit.finish()


def test_criterion_4_filter_enumeration():
    crit = Criterion("4 filter enumeration against the subset sweep")
    for name, count in (("fork", 2), ("chain6lo", 2)):
        found = enumerate_filters(algebra_of(name))
        crit.check(len(found) == count, f"{name}: expected {count} filters")
    for name in VALID_FIXTURES:
        alg = algebra_of(name)
        got = [list(f.member_names()) for f in enumerate_filters(alg)]
        ref = oracle.sweep_filters(model_of(name))
        crit.check(got == ref, f"{name}: enumeration differs from 2^n sweep")
        masks = {f.mask for f in enumerate_filters(alg)}
        sweep_ok = all(
            (bits in masks) == is_filter(alg, bits).ok
            for bits in range(1 << alg.n)
        )
        crit.check(sweep_ok, f"{name}: some subset misclassified")
    fork = algebra_of("fork")
    check = is_filter(fork, [fork.index(e) for e in ("c", "1", "top")])
    crit.check(
        (check.condition, fork.names(check.witness)) == ("meet-closed", ("c", "1")),
        "fork {c,1,top} not rejected with the meet witness",
    )
    check = is_filter(fork, [fork.index(e) for e in ("b", "c", "d", "1", "top")])
    crit.check(
        (check.condition, fork.names(check.witness)) == ("star-closed", ("b", "b")),
        "fork upset of b not rejected with the star witness",
    )
    crit.finish()


def test_criterion_5_classification():
    crit = Criterion("5 classification flags")
    chain = algebra_of("chain6lo")
    mask = sum(1 << chain.index(e) for e in ("1", "b", "c", "d", "top"))
    crit.check(is_filter(chain, mask).ok, "chain6lo upset of 1 is a filter")
    flags = classify_filter(chain, mask)
    crit.check(
        flags.distributive and flags.prime and flags.implicative,
        "chain6lo upset of 1 should be distributive + prime + implicative",
    )
    fork = algebra_of("fork")
    prime, witness = is_prime_filter(fork, sum(1 << fork.index(e) for e in ("1", "top")))
    crit.check(
        not prime and fork.names(witness) == ("c", "d"),
        "fork {1,top} should fail primeness at (c,d)",
    )
    hi = algebra_of("chain6hi-corrected")
    f3 = sum(1 << hi.index(e) for e in ("b", "c", "1", "top"))
    hi_flags = classify_filter(hi, f3)
    crit.check(hi_flags.maximal is True, "chain6hi-corrected F3 should be maximal")
    crit.check(hi_flags.affine is True, "chain6hi-corrected F3 should be affine")
    crit.check(
        hi.carrier[hi.arrow(hi.top, hi.unit)] == "b", "top->1 should be b"
    )
    # disputed prose claims: resolved by the oracle, recorded in the sidecars
    for name, members, key in (
        ("chain6hi-corrected", ("b", "c", "1", "top"), "implicative"),
        ("wide7-corrected", ("a", "b", "d", "1", "top"), "implicative"),
    ):
        alg = algebra_of(name)
        m = sum(1 << alg.index(e) for e in members)
        engine_flag = getattr(classify_filter(alg, m), key)
        ref = oracle.classify(model_of(name), list(members))[key]
        side = next(
            row[key]
            for row in expectations(name)["classification"]
            if row["members"] == list(members)
        )
        crit.check(
            engine_flag == ref == side,
            f"{name} {key} verdict must match oracle and sidecar",
        )
    crit.finish()


def test_criterion_6_quotient_property_suite():
    crit = Criterion("6 quotient theorems over every fixture and filter")
    for name in VALID_FIXTURES:
        alg = algebra_of(name)
        m = model_of(name)
        for f in enumerate_filters(alg):
            tag = f"{name}/{{{','.join(f.member_names())}}}"
            try:
                result = quotient_algebra(alg, f.mask)
            except Exception as exc:  # noqa: BLE001 - single verdict line
                crit.check(False, f"{tag}: quotient failed: {exc}")
                continue
            crit.check(result.algebra.valid, f"{tag}: induced not valid")
            crit.check(
                check_quotient_order(alg, f.mask), f"{tag}: order biconditional"
            )
            proj = result.projection
            q = result.algebra
            for src, dst in (
                (alg.join_table, q.join_table),
                (alg.meet_table, q.meet_table),
                (alg.star_table, q.star_table),
                (alg.arrow_table, q.arrow_table),
            ):
                hom = all(
                    proj[src[x][y]] == dst[proj[x]][proj[y]]
                    for x in range(alg.n)
                    for y in range(alg.n)
                )
                crit.check(hom, f"{tag}: projection not a homomorphism")
            crit.check(
                check_distributive_quotient(alg, f.mask).holds,
                f"{tag}: distributive implication",
            )
            crit.check(
                check_linear_quotient(alg, f.mask).holds,
                f"{tag}: linearity implication",
            )
            crit.check(
                check_affine_quotient(alg, f.mask).holds,
                f"{tag}: affine implication",
            )
            members = list(f.member_names())
            crit.check(
                oracle.quotient_well_definedness_failure(m, members) is None,
                f"{tag}: oracle found ill-defined block operation",
            )
    crit.finish()


def test_criterion_7_unit_upset_quotients_are_discrete():
    crit = Criterion("7 quotient by the unit upset separates all elements")
    for name in VALID_FIXTURES:
        alg = algebra_of(name)
        upset = upset_of_unit(alg)
        if not is_filter(alg, upset).ok:
            continue  # tested per fixture, never assumed
        result = quotient_algebra(alg, upset)
        crit.check(
            len(result.blocks) == alg.n,
            f"{name}: quotient by the unit upset has a merged block",
        )
    crit.finish()


def test_criterion_8_integrality_and_idempotence():
    crit = Criterion("8 integrality equivalence and idempotence scan")
    for name in ALL_FIXTURES:
        alg = algebra_of(name)
        integral = all(
            alg.leq_table[alg.star_table[x][y]][x]
            for x in range(alg.n)
            for y in range(alg.n)
        )
        crit.check(
            integral == (alg.top == alg.unit),
            f"{name}: integrality iff top == unit fails",
        )
        if alg.valid:
            crit.check(
                check_integrality_equivalence(alg) == integral,
                f"{name}: engine equivalence check disagrees",
            )
    for name in VALID_FIXTURES:
        alg = algebra_of(name)
        if is_idempotent(alg)[0]:
            result = check_idempotent_implies_implicative(alg)
            crit.check(
                result.all_filters_implicative,
                f"{name}: idempotent but a filter is not implicative",
            )
    chain = algebra_of("chain6lo")
    result = check_idempotent_implies_implicative(chain)
    crit.check(
        not result.idempotent
        and result.converse_witness is not None
        and result.converse_witness.member_names() == ("b", "c", "d", "1", "top"),
        "chain6lo should witness the converse failure with its unit upset",
    )
    crit.finish()


def test_criterion_9_cli_contract():
    crit = Criterion("9 round-trips and scripted CLI exit codes")
    for name in ALL_FIXTURES:
        doc = parse_spec(fixture_text(name))
        crit.check(
            parse_spec(render_spec(doc)) == doc, f"{name}: round-trip broken"
        )

    def run(*argv):
        proc = subprocess.run(
            [sys.executable, "-m", "ilalg", *argv],
            capture_output=True,
            text=True,
        )
        return proc.returncode, proc.stdout

    cases = [
        (("check", str(fixture_path("chain6lo"))), 0),
        (("check", str(fixture_path("fork"))), 0),
        (("check", str(fixture_path("pentagon-printed"))), 1),
        (("check", str(fixture_path("chain6hi-printed")), "--machine"), 1),
        (("filters", str(fixture_path("chain6lo")), "--classify"), 0),
        (("filters", str(fixture_path("wide7-printed"))), 1),
        (("quotient", str(fixture_path("chain6lo")), "--filter", "1,b,c,d,top"), 0),
        (("quotient", str(fixture_path("fork")), "--filter", "b,c,d,1,top"), 1),
        (("derive-arrow", str(fixture_path("bool2"))), 0),
        (("check", "/nonexistent.alg"), 3),
        (("frobnicate", str(fixture_path("bool2"))), 3),
    ]
    for argv, expected in cases:
        code, _ = run(*argv)
        crit.check(
            code == expected, f"ilalg {' '.join(argv)} exited {code} != {expected}"
        )
    code, out = run("check", str(fixture_path("fork")), "--machine")
    code2, out2 = run("check", str(fixture_path("fork")), "--machine")
    crit.check(out == out2, "machine output not stable across runs")
    # parse error path through a temp file
    import tempfile, os

    with tempfile.NamedTemporaryFile(
        "w", suffix=".alg", delete=False
    ) as handle:
        handle.write("algebra broken\nelements a\nunit a\nstar a : a a\n")
        path = handle.name
    try:
        code, _ = run("check", path)
        crit.check(code == 2, f"parse error should exit 2, got {code}")
    finally:
        os.unlink(path)
    crit.finish()

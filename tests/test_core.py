"""Algebra construction and the law/identity suites."""
from __future__ import annotations

import itertools
import random
from functools import lru_cache

import pytest

import oracle
from helpers import (
    ALL_FIXTURES,
    ERRATIC_FIXTURES,
    VALID_FIXTURES,
    algebra_of,
    bool2_power,
    built,
    direct_product,
    doc_of,
    godel_chain,
    lukasiewicz_chain,
    model_of,
    oracle_model,
    report_of,
    sugihara_chain,
)
from ilalg import (
    AlgebraSpecDocument,
    BuildError,
    FiniteILAlgebra,
    LawViolationError,
    NotResiduatedError,
    assemble_algebra,
    build_algebra,
    check_identities,
    check_integrality_equivalence,
    check_lattice,
    check_monoid,
    check_residuation,
    derive_arrow,
    is_idempotent,
    transitive_closure,
)
from ilalg import core
from ilalg.fixtures import expectations

# Small products (n <= 12) of valid fixtures and short generated chains,
# each with one seeded cell of one table changed: lenient inputs whose
# violations the oracle can sweep. A chain's "top" case changes bot->bot,
# which moves top itself, so `top-greatest` fails.
MUTATED_PRODUCTS = [
    f"{a}*{b}/{table}"
    for a, b in itertools.combinations_with_replacement(VALID_FIXTURES, 2)
    if 1 < algebra_of(a).n <= algebra_of(b).n
    and algebra_of(a).n * algebra_of(b).n <= 12
    for table in ("star", "arrow")
]
MUTATED_CHAINS = {
    "S7": sugihara_chain(3), "G8": godel_chain(8), "L8": lukasiewicz_chain(8)
}
WITNESS_CASES = (
    ALL_FIXTURES
    + MUTATED_PRODUCTS
    + [
        f"{chain}/{table}"
        for chain in MUTATED_CHAINS
        for table in ("star", "arrow", "top")
    ]
)


@lru_cache(maxsize=None)
def mutated_inputs(case):
    """`assemble_algebra` inputs (carrier, order, star, unit, arrow) of a
    mutated product or chain."""
    source, table = case.split("/")
    if source in MUTATED_CHAINS:
        p = MUTATED_CHAINS[source]
    else:
        a, b = source.split("*")
        p = direct_product(algebra_of(a), algebra_of(b))
    tables = {
        "star": [list(row) for row in p.star_table],
        "arrow": [list(row) for row in p.arrow_table],
    }
    rng = random.Random(case)
    if table == "top":
        table, i, j = "arrow", p.bottom, p.bottom
    else:
        i, j = rng.randrange(p.n), rng.randrange(p.n)
    old = tables[table][i][j]
    tables[table][i][j] = rng.choice([v for v in range(p.n) if v != old])
    order = [(x, y) for x in range(p.n) for y in range(p.n) if p.leq_table[x][y]]
    return p.carrier, order, tables["star"], p.unit, tables["arrow"]


def build_case(case, mode):
    """Build a fixture or a mutated case in the given mode."""
    if case in ALL_FIXTURES:
        return build_algebra(doc_of(case), mode=mode)
    carrier, order, star, unit, arrow = mutated_inputs(case)
    return assemble_algebra(carrier, order, star, unit=unit, arrow=arrow, mode=mode)


@lru_cache(maxsize=None)
def lenient_case(case):
    """(algebra, build report, oracle model) for a fixture or a mutated case."""
    if case in ALL_FIXTURES:
        return algebra_of(case), report_of(case), model_of(case)
    alg, report = build_case(case, "lenient")
    return alg, report, oracle_model(*mutated_inputs(case))


def in_order(by_law):
    """Laws in first-failure order, each with its witnesses in order."""
    return [(law, [tuple(w) for w in wits]) for law, wits in by_law.items()]


def most_in_one_row(witnesses):
    """The most witnesses that share their leading pair (x, y)."""
    rows = [w[:2] for w in witnesses]
    return max(rows.count(r) for r in rows)


# Products at the carrier cap (n = 49-64), and one at n = 30 where the n^4
# identity oracle is still fast, with seeded star or arrow cells changed.
# The suites compare whole table rows and walk only a row that differs; a
# "row" case changes six cells of one star row and six of one arrow row, so
# single rows hold several witnesses.
CAP_PRODUCTS = {
    "bool2^6": ("bool2",) * 6,
    "wide7^2": ("wide7-corrected",) * 2,
    "bool2*pentagon*chain6lo": ("bool2", "pentagon-corrected", "chain6lo"),
    "chain6lo*pentagon": ("chain6lo", "pentagon-corrected"),
}
CAP_LAW_CASES = [
    f"{label}/{cells}"
    for label in ("bool2^6", "wide7^2", "bool2*pentagon*chain6lo")
    for cells in (1, 5, 20)
] + ["bool2^6/row"]
CAP_IDENTITY_CASES = [f"chain6lo*pentagon/{cells}" for cells in (1, 5, 20, "row")]


@lru_cache(maxsize=None)
def cap_product(label):
    """A product of CAP_PRODUCTS, its order pairs and its oracle model."""
    factors = CAP_PRODUCTS[label]
    p = algebra_of(factors[0])
    for factor in factors[1:]:
        p = direct_product(p, algebra_of(factor))
    order = [(x, y) for x in range(p.n) for y in range(p.n) if p.leq_table[x][y]]
    return p, order, oracle_model(p.carrier, order, p.star_table, p.unit, p.arrow_table)


def corrupted_cap_case(case):
    """(algebra, lenient build report, oracle model) of a cap case."""
    label, cells = case.split("/")
    p, order, model = cap_product(label)
    rng = random.Random(case)
    tables = {
        "star": [list(row) for row in p.star_table],
        "arrow": [list(row) for row in p.arrow_table],
    }
    if cells == "row":
        spots = [
            (table, i, j)
            for table in tables
            for i in [rng.randrange(p.n)]
            for j in rng.sample(range(p.n), 6)
        ]
    else:
        spots = [
            (rng.choice(list(tables)), rng.randrange(p.n), rng.randrange(p.n))
            for _ in range(int(cells))
        ]
    for table, i, j in spots:
        old = tables[table][i][j]
        tables[table][i][j] = rng.choice([v for v in range(p.n) if v != old])
    alg, report = assemble_algebra(
        p.carrier, order, tables["star"], unit=p.unit, arrow=tables["arrow"],
        mode="lenient",
    )
    nm = p.carrier

    def rows(table):
        return {nm[x]: [nm[v] for v in table[x]] for x in range(p.n)}

    return alg, report, model.with_tables(rows(tables["star"]), rows(tables["arrow"]))


@pytest.mark.parametrize("name", VALID_FIXTURES)
def test_strict_build_accepts_valid_fixtures(name):
    alg, report = build_algebra(doc_of(name), mode="strict")
    assert report.ok
    assert alg.valid
    assert alg.carrier == tuple(doc_of(name).elements)


@pytest.mark.parametrize("name", ERRATIC_FIXTURES)
def test_strict_build_rejects_erratic_fixtures(name):
    with pytest.raises(LawViolationError) as err:
        build_algebra(doc_of(name), mode="strict")
    assert not err.value.report.ok


@pytest.mark.parametrize("name", ERRATIC_FIXTURES)
def test_lenient_build_report_matches_sidecar(name):
    alg, report = built(name)
    assert not alg.valid
    exp = expectations(name)["violations"]
    by_law = report.by_law()
    assert set(by_law) == set(exp)
    for law, data in exp.items():
        assert len(by_law[law]) == data["count"]
        assert list(by_law[law][0]) == data["first"]


@pytest.mark.parametrize("case", WITNESS_CASES)
def test_law_witnesses_equal_oracle(case):
    _, report, model = lenient_case(case)
    assert in_order(report.by_law()) == in_order(oracle.law_failures(model))


@pytest.mark.parametrize("case", CAP_LAW_CASES)
def test_law_witnesses_at_the_cap_equal_oracle(case):
    _, report, model = corrupted_cap_case(case)
    assert not report.ok
    if case.endswith("/row"):
        for law in ("star-associative", "residuation"):
            assert most_in_one_row(report.by_law()[law]) > 1
    assert in_order(report.by_law()) == in_order(oracle.law_failures(model))


@pytest.mark.parametrize("case", WITNESS_CASES)
def test_strict_build_raises_exactly_when_lenient_report_is_not_empty(case):
    _, report, _ = lenient_case(case)
    if report.ok:
        alg, strict = build_case(case, "strict")
        assert alg.valid and strict.ok
    else:
        with pytest.raises(LawViolationError) as err:
            build_case(case, "strict")
        assert err.value.report == report


@pytest.mark.parametrize("chain", MUTATED_CHAINS)
def test_single_cell_mutations_build_or_raise_checked_errors(chain):
    # 100 seeded mutations of one star or arrow cell; a star cell is changed
    # with the arrow stored or derived. Each build is valid, or raises an
    # error the oracle confirms; any other exception fails the test.
    p = MUTATED_CHAINS[chain]
    order = [(x, y) for x in range(p.n) for y in range(p.n) if p.leq_table[x][y]]
    rng = random.Random(chain)
    for _ in range(100):
        derived = rng.random() < 0.5
        table = "star" if derived else rng.choice(["star", "arrow"])
        tables = {"star": [list(row) for row in p.star_table],
                  "arrow": None if derived else [list(row) for row in p.arrow_table]}
        i, j = rng.randrange(p.n), rng.randrange(p.n)
        old = tables[table][i][j]
        tables[table][i][j] = rng.choice([v for v in range(p.n) if v != old])
        inputs = (p.carrier, order, tables["star"], p.unit, tables["arrow"])
        model = oracle_model(*inputs)
        try:
            alg, report = assemble_algebra(*inputs)
            assert alg.valid
        except LawViolationError as err:
            report = err.report
        except NotResiduatedError as err:
            assert err.pairs == [
                (x, z) for x in range(p.n) for z in range(p.n)
                if oracle.derive_arrow_entry(model, p.carrier[x], p.carrier[z]) is None
            ]
            continue
        except BuildError:
            continue
        assert in_order(report.by_law()) == in_order(oracle.law_failures(model))


# Algebras beyond the fixtures, each rebuilt from its order, star and
# arrow tables by `assembled`.
CONSTRUCTED = {
    "bool2^6": lambda: bool2_power(6),
    "G64": lambda: godel_chain(64),
    "S63": lambda: sugihara_chain(31),
    "L64": lambda: lukasiewicz_chain(64),
    **{
        f"{a}*{b}": lambda a=a, b=b: direct_product(algebra_of(a), algebra_of(b))
        for a, b in [
            ("fork", "chain6lo"),
            ("pentagon-corrected", "wide7-corrected"),
            ("chain6hi-corrected", "bool2"),
        ]
    },
}


def assembled(alg):
    """`assemble_algebra` on the order, star and arrow tables of `alg`."""
    rn = range(alg.n)
    order = [(x, y) for x in rn for y in rn if alg.leq_table[x][y]]
    return assemble_algebra(
        alg.carrier, order, alg.star_table, unit=alg.unit, arrow=alg.arrow_table
    )


@pytest.mark.parametrize("name", ALL_FIXTURES + list(CONSTRUCTED))
def test_build_report_keeps_each_core_suite(name):
    if name in CONSTRUCTED:
        alg, report = assembled(CONSTRUCTED[name]())
    else:
        alg, report = built(name)
    assert report.suites == (
        ("lattice", check_lattice(alg)),
        ("monoid", check_monoid(alg)),
        ("residuation", check_residuation(alg)),
    )


@pytest.mark.parametrize("name", ERRATIC_FIXTURES)
def test_build_report_violations_read_alike_every_time(name, monkeypatch):
    # The build pulls the first violation of each suite. The first read of
    # the report resumes the build's generator, and a later read runs the
    # suite again on the same immutable algebra.
    monoid, calls = core._monoid_laws, []
    monkeypatch.setattr(core, "_monoid_laws", lambda alg: calls.append(alg.n) or monoid(alg))
    alg, report = build_algebra(doc_of(name), mode="lenient")
    assert not report.ok and not alg.valid and calls == [alg.n]
    reruns = 1 if any(True for _ in monoid(alg)) else 0
    first = tuple(iter(report.violations))
    assert calls == [alg.n]
    assert tuple(iter(report.violations)) == first and calls == [alg.n] * (1 + reruns)
    expected = (check_monoid(alg).violations + check_residuation(alg).violations
                + tuple(core._top_laws(alg, None)))
    assert first == expected and report.violations == first and first == report.violations
    assert len(report.violations) == len(first) and list(report.violations) == list(first)
    assert report.violations[-1] == first[-1] and report.violations.count(first[0]) == 1
    assert report == core.VerificationReport(first, report.suites)
    assert hash(report) == hash(core.VerificationReport(first, report.suites))
    assert repr(report.violations) == repr(first)


def test_one_element_algebra_is_degenerate():
    alg, report = build_algebra(doc_of("point"), mode="strict")
    assert report.ok
    assert alg.n == 1
    assert alg.bottom == alg.unit == alg.top == 0


def test_pentagon_printed_unit_law_witness():
    report = report_of("pentagon-printed")
    units = [v for v in report.violations if v.law == "star-unit"]
    assert [(v.witness, v.found) for v in units] == [(("a", "1"), "1")]


def test_check_lattice_reports_two_cycle():
    table = ((0, 0), (0, 0))
    alg = FiniteILAlgebra(
        carrier=("x", "y"),
        leq_table=((True, True), (True, True)),
        join_table=table, meet_table=table, star_table=table, arrow_table=table,
        bottom=0, unit=0, top=0, valid=False,
    )
    laws = check_lattice(alg).by_law()
    assert ("x", "y") in laws["order-antisymmetric"]


@pytest.mark.parametrize("seed", range(40))
def test_check_lattice_on_hand_built_relation_matches_sweep(seed):
    # Seed 0 is a 2-cycle above a least element; the rest are random
    # relations, almost all of them neither transitive nor antisymmetric.
    rng = random.Random(seed)
    if seed == 0:
        n, le = 3, ((True, True, True), (False, True, True), (False, True, True))
    else:
        n, density = rng.randint(2, 6), rng.random()
        le = tuple(
            tuple(rng.random() < density for _ in range(n)) for _ in range(n)
        )

    def table():
        return tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(n))

    jn, mt = table(), table()
    alg = FiniteILAlgebra(
        carrier=tuple(f"e{i}" for i in range(n)), leq_table=le,
        join_table=jn, meet_table=mt, star_table=table(), arrow_table=table(),
        bottom=0, unit=0, top=0, valid=False,
    )
    nm, rn = alg.carrier, range(n)
    sweep = {
        "order-transitive": [
            (nm[i], nm[j], nm[k]) for i in rn for j in rn for k in rn
            if le[i][j] and le[j][k] and not le[i][k]
        ],
        "join-table": [
            (nm[i], nm[j]) for i in rn for j in rn
            if not (le[i][jn[i][j]] and le[j][jn[i][j]])
            or any(le[i][v] and le[j][v] and not le[jn[i][j]][v] for v in rn)
        ],
        "meet-table": [
            (nm[i], nm[j]) for i in rn for j in rn
            if not (le[mt[i][j]][i] and le[mt[i][j]][j])
            or any(le[v][i] and le[v][j] and not le[v][mt[i][j]] for v in rn)
        ],
    }
    laws = check_lattice(alg).by_law()
    assert {law: laws.get(law, []) for law in sweep} == sweep


def test_assembled_algebras_pass_check_lattice_by_construction():
    # Random order-pair lists, mostly along a shuffled linear order and some
    # reversed, with zero star and arrow tables, so nothing is derived: each
    # either raises BuildError (a cycle, no least element, a missing bound)
    # or passes every law check_lattice sweeps, as the build report says.
    sizes, refused = set(), 0
    for seed in range(3000):
        rng = random.Random(seed)
        n, density = rng.randint(1, 8), rng.random()
        perm = rng.sample(range(n), n)
        pairs = [
            (perm[a], perm[b]) if rng.random() < 0.9 else (perm[b], perm[a])
            for a in range(n) for b in range(a, n) if rng.random() < density
        ]
        zero = [[0] * n for _ in range(n)]
        try:
            alg, report = assemble_algebra(
                [f"e{i}" for i in range(n)], pairs, zero, unit=0, arrow=zero,
                mode="lenient",
            )
        except BuildError:
            refused += 1
            continue
        sizes.add(n)
        assert check_lattice(alg).ok
        assert report.suites[0] == ("lattice", check_lattice(alg))
    assert sizes == set(range(1, 9)) and refused > 1000


def test_derive_arrow_on_two_cycle_fails_where_oracle_has_no_greatest():
    rng = random.Random(7)
    names = ["o", "p", "q", "r"]
    # o below everything, p <= q <= p, r on its own above o.
    le = (
        (True, True, True, True),
        (False, True, True, False),
        (False, True, True, False),
        (False, False, False, True),
    )
    named = {
        (a, b): le[i][j] for i, a in enumerate(names) for j, b in enumerate(names)
    }
    raised = 0
    for _ in range(30):
        star = [[rng.randrange(4) for _ in range(4)] for _ in range(4)]
        greatest = {
            (x, z): oracle.greatest_of(
                names, named, [names[w] for w in range(4) if le[star[x][w]][z]]
            )
            for x in range(4) for z in range(4)
        }
        expected = [pair for pair, g in greatest.items() if g is None]
        if not expected:
            table = derive_arrow(star, le)
            assert {(x, z): names[table[x][z]] for x, z in greatest} == greatest
            continue
        with pytest.raises(NotResiduatedError) as err:
            derive_arrow(star, le)
        assert err.value.pairs == expected
        raised += 1
    assert raised > 0


def test_derive_arrow_on_random_relations_matches_oracle():
    # Seeded relations that are neither reflexive nor transitive: some t and
    # off relate both ways while off is not related to itself. In about half
    # of them t is related both ways to everything and x*t = t, so every
    # solution set holds t and some of them derive a whole table.
    rng = random.Random(11)
    derived = 0
    for _ in range(60):
        n, density = rng.randint(2, 6), rng.random()
        rn, names = range(n), [f"e{i}" for i in range(n)]
        le = [[rng.random() < density for _ in rn] for _ in rn]
        star = [[rng.randrange(n) for _ in rn] for _ in rn]
        t = rng.randrange(n)
        if rng.random() < 0.5:
            for i in rn:
                le[i][t] = le[t][i] = True
                star[i][t] = t
        off = (t + 1) % n
        le[off][t] = le[t][off] = True
        le[off][off] = False
        named = {
            (a, b): le[i][j] for i, a in enumerate(names) for j, b in enumerate(names)
        }
        greatest = {
            (x, z): oracle.greatest_of(
                names, named, [names[w] for w in rn if le[star[x][w]][z]]
            )
            for x in rn for z in rn
        }
        expected = [pair for pair, g in greatest.items() if g is None]
        if not expected:
            table = derive_arrow(star, le)
            assert {(x, z): names[table[x][z]] for x, z in greatest} == greatest
            derived += 1
            continue
        with pytest.raises(NotResiduatedError) as err:
            derive_arrow(star, le)
        assert err.value.pairs == expected
    assert 0 < derived < 60


def test_derive_arrow_downset_lookup_traps_match_oracle(monkeypatch):
    # A seeded partial order with least element 0 and greatest n - 1, and a
    # trap planted at g: a two-way partner h, or g not related to itself.
    # Star rows other than `trap` are constant 0, so their solutions are
    # the whole carrier, down[n - 1], which the lookup answers. Row `trap`
    # is 0 on down[g] and `outside` elsewhere, so at z = 0 its solutions are
    # exactly down[g], where ↓g may not name g. With a two-way partner no
    # kept element has that down mask, so it must go to the rule.
    rng = random.Random(23)
    rule_calls = []
    rule = core._greatest_member

    def counted(mask, up):
        rule_calls.append(mask)
        return rule(mask, up)

    monkeypatch.setattr(core, "_greatest_member", counted)
    lookups = raised = 0
    for case in range(40):
        n = rng.randint(4, 7)
        rn, names = range(n), [f"e{i}" for i in range(n)]
        pairs = [(0, j) for j in rn] + [(i, n - 1) for i in rn]
        pairs += [(i, j) for i in range(1, n - 1) for j in range(i + 1, n - 1)
                  if rng.random() < 0.4]
        le = transitive_closure(n, pairs)
        g, h = rng.sample(range(1, n - 1), 2)
        if case % 2:
            le[g][h] = le[h][g] = True
        else:
            le[g][g] = False
        trap, outside = rng.randrange(n), rng.randrange(1, n)
        star = [[0] * n for _ in rn]
        star[trap] = [0 if le[w][g] else outside for w in rn]
        named = {
            (a, b): le[i][j] for i, a in enumerate(names) for j, b in enumerate(names)
        }
        greatest = {
            (x, z): oracle.greatest_of(
                names, named, [names[w] for w in rn if le[star[x][w]][z]]
            )
            for x in rn for z in rn
        }
        expected = [pair for pair, found in greatest.items() if found is None]
        before = len(rule_calls)
        if expected:
            with pytest.raises(NotResiduatedError) as err:
                derive_arrow(star, le)
            assert err.value.pairs == expected
            raised += 1
        else:
            table = derive_arrow(star, le)
            assert {(x, z): names[table[x][z]] for x, z in greatest} == greatest
        down_g = sum(1 << w for w in rn if le[w][g])
        if case % 2:
            assert down_g in rule_calls[before:]
        lookups += n * n - (len(rule_calls) - before)
    assert 0 < raised < 40
    assert rule_calls and lookups > len(rule_calls)


@pytest.mark.parametrize("seed", range(30))
def test_transitive_closure_matches_oracle(seed):
    # Random pairs, with self-loops, and on odd seeds a cycle through a
    # random sample of the elements.
    rng = random.Random(seed)
    n = rng.randint(1, 7)
    names = [f"e{i}" for i in range(n)]
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n))]
    if seed % 2:
        cycle = rng.sample(range(n), rng.randint(1, n))
        pairs += zip(cycle, cycle[1:] + cycle[:1])
    le = transitive_closure(n, pairs)
    reference = oracle.reflexive_transitive_closure(
        names, [(names[a], names[b]) for a, b in pairs]
    )
    assert le == [[reference[(a, b)] for b in names] for a in names]
    assert all(type(v) is bool for row in le for v in row)


def test_check_monoid_exhaustive_on_chain():
    assert check_monoid(algebra_of("chain6lo")).ok
    assert check_monoid(algebra_of("point")).ok


def test_check_monoid_unit_witness_on_erratic_chain():
    laws = check_monoid(algebra_of("chain6hi-printed")).by_law()
    assert laws["star-unit"] == [("a", "1")]


def test_check_residuation_pass_and_fail():
    assert check_residuation(algebra_of("chain6lo")).ok
    assert check_residuation(algebra_of("point")).ok
    witnesses = check_residuation(algebra_of("chain6hi-printed")).by_law()["residuation"]
    assert witnesses[0] == ("a", "a", "bot")
    assert ("a", "a", "b") in witnesses


def test_derive_arrow_reproduces_stored_table():
    alg = algebra_of("chain6lo")
    derived = derive_arrow(alg.star_table, alg.leq_table)
    assert tuple(map(tuple, derived)) == alg.arrow_table


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_unit_arrow_row_is_identity(name):
    alg = algebra_of(name)
    for x in range(alg.n):
        assert alg.arrow(alg.unit, x) == x


def test_derived_arrow_on_two_chain_is_classical_implication():
    alg = algebra_of("bool2")
    assert doc_of("bool2").arrow_rows is None
    bot, one = alg.index("bot"), alg.index("1")
    assert alg.arrow(bot, bot) == one
    assert alg.arrow(bot, one) == one
    assert alg.arrow(one, bot) == bot
    assert alg.arrow(one, one) == one


def test_derive_arrow_rejects_non_residuated_star():
    alg = algebra_of("chain6lo")
    star = [list(row) for row in alg.star_table]
    star[alg.index("b")][alg.index("bot")] = alg.index("top")
    with pytest.raises(NotResiduatedError) as err:
        derive_arrow(star, alg.leq_table)
    assert (alg.index("b"), alg.index("bot")) in err.value.pairs


# `check` takes the identity verdict of a valid algebra from the proofs in
# the core docstring, so this is where the theorem meets valid inputs: the
# constructed cases and every unordered pair of valid fixtures, squares
# included (n <= 49).
IDENTITY_INPUTS = {
    **CONSTRUCTED,
    **{
        f"{a}*{b}": lambda a=a, b=b: direct_product(algebra_of(a), algebra_of(b))
        for a, b in itertools.combinations_with_replacement(VALID_FIXTURES, 2)
        if f"{a}*{b}" not in CONSTRUCTED and f"{b}*{a}" not in CONSTRUCTED
    },
}


@pytest.mark.parametrize("name", VALID_FIXTURES + list(IDENTITY_INPUTS))
def test_identities_pass_on_valid_fixtures(name):
    if name in IDENTITY_INPUTS:
        alg, _ = assembled(IDENTITY_INPUTS[name]())
    else:
        alg = algebra_of(name)
    assert check_identities(alg).ok


@pytest.mark.parametrize("case", WITNESS_CASES)
def test_identity_witnesses_equal_oracle(case):
    alg, _, model = lenient_case(case)
    engine = check_identities(alg).by_law()
    assert in_order(engine) == in_order(oracle.identity_failures(model))


@pytest.mark.parametrize("case", CAP_IDENTITY_CASES)
def test_identity_witnesses_of_corrupted_products_equal_oracle(case):
    alg, _, model = corrupted_cap_case(case)
    engine = check_identities(alg).by_law()
    assert engine
    if case.endswith("/row"):
        for law in ("star-distributes-join", "arrow-curry"):
            assert most_in_one_row(engine[law]) > 1
    assert in_order(engine) == in_order(oracle.identity_failures(model))


def test_monotonicity_witness_on_erratic_chain():
    laws = check_identities(algebra_of("chain6hi-printed")).by_law()
    assert ("a", "a", "a", "1") in laws["star-monotone"]



# The monotonicity identities against plain loops over x <= x1 and y <= y1,
# the domain of the sweep: bool2^6 and the chain L32, each with three seeded
# star cells changed, with three arrow cells changed, or with its order made
# a relation that is not a partial order (a two-cycle and an element not
# below itself) and one star and one arrow cell changed.
MONOTONE_BASES = {"bool2^6": lambda: bool2_power(6), "L32": lambda: lukasiewicz_chain(32)}
MONOTONE_CASES = [
    f"{base}/{change}" for base in MONOTONE_BASES for change in ("star", "arrow", "order")
]


def monotone_case(case):
    """A tampered copy of a base algebra, as `MONOTONE_CASES` names it."""
    source, change = case.split("/")
    alg = MONOTONE_BASES[source]()
    n, rng = alg.n, random.Random(case)
    tables = {"star": [list(r) for r in alg.star_table],
              "arrow": [list(r) for r in alg.arrow_table]}
    le = [list(r) for r in alg.leq_table]
    cells = [(change, 3)] if change != "order" else [("star", 1), ("arrow", 1)]
    for table, count in cells:
        for cell in rng.sample(range(n * n), count):
            row = tables[table][cell // n]
            row[cell % n] = rng.choice([v for v in range(n) if v != row[cell % n]])
    if change == "order":
        i, j = rng.choice([(i, j) for i in range(n) for j in range(n) if i != j and le[i][j]])
        le[j][i] = True
        k = rng.randrange(n)
        le[k][k] = False
    return alg._replace(
        leq_table=tuple(map(tuple, le)),
        star_table=tuple(map(tuple, tables["star"])),
        arrow_table=tuple(map(tuple, tables["arrow"])),
    )


@pytest.mark.parametrize("case", MONOTONE_CASES)
def test_monotonicity_witnesses_equal_plain_loops(case):
    alg = monotone_case(case)
    le, st, ar, nm, rn = alg.leq_table, alg.star_table, alg.arrow_table, alg.carrier, range(alg.n)
    above = [[j for j in rn if le[i][j]] for i in rn]
    star, arrow, both = [], [], []
    for x, y in itertools.product(rn, repeat=2):
        for x1 in above[x]:
            for y1 in above[y]:
                if not le[st[x][y]][st[x1][y1]]:
                    star.append((nm[x], nm[y], nm[x1], nm[y1]))
                    both.append(("star-monotone", star[-1]))
                if not le[ar[x1][y]][ar[x][y1]]:
                    arrow.append((nm[x], nm[y], nm[x1], nm[y1]))
                    both.append(("arrow-antitone", arrow[-1]))
    report = check_identities(alg)
    laws = report.by_law()
    assert laws.get("star-monotone", []) == star
    assert laws.get("arrow-antitone", []) == arrow
    # The two laws interleave as the sweep visits (x, y, x1, y1).
    assert [(v.law, v.witness) for v in report.violations
            if v.law in ("star-monotone", "arrow-antitone")] == both
    if case.endswith("/order"):
        assert not check_lattice(alg).ok
    assert star if not case.endswith("/arrow") else arrow

def test_operation_accessors():
    alg = algebra_of("chain6lo")
    c, d, top = alg.index("c"), alg.index("d"), alg.index("top")
    assert alg.star(c, d) == top
    assert alg.join(c, d) == d
    for x in range(alg.n):
        assert alg.star(alg.unit, x) == x
    fork = algebra_of("fork")
    dd = fork.index("d")
    assert fork.star(dd, dd) == fork.index("1")
    with pytest.raises(IndexError):
        alg.star(0, alg.n)
    # One past the last index, with the message: tuple indexing raises a bare
    # IndexError of its own on a check that lets n through.
    bool2 = algebra_of("bool2")
    with pytest.raises(IndexError, match=r"^element index 2 out of range 0\.\.1$"):
        bool2.star(0, bool2.n)
    with pytest.raises(IndexError):
        alg.leq(-1, 0)


def test_is_idempotent():
    assert is_idempotent(algebra_of("point")) == (True, None)
    assert is_idempotent(algebra_of("bool2")) == (True, None)
    flag, witness = is_idempotent(algebra_of("chain6lo"))
    assert not flag
    assert algebra_of("chain6lo").carrier[witness] == "b"


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_integrality_equivalence(name):
    alg = algebra_of(name)
    integral = check_integrality_equivalence(alg)
    assert integral == (alg.top == alg.unit)
    assert integral == oracle.is_integral(model_of(name))


def test_carrier_size_cap():
    names = [f"e{i}" for i in range(65)]
    pairs = [(0, i) for i in range(1, 65)]
    star = [[0] * 65 for _ in range(65)]
    with pytest.raises(BuildError, match="64"):
        assemble_algebra(names, pairs, star, unit=0)


def test_full_relation_input_equals_hasse_input():
    doc = doc_of("chain6lo")
    alg = algebra_of("chain6lo")
    full_pairs = [
        (doc.elements[i], doc.elements[j])
        for i in range(alg.n)
        for j in range(alg.n)
        if alg.leq_table[i][j]
    ]
    other, report = build_algebra(doc._replace(order_pairs=full_pairs))
    assert report.ok
    assert other.leq_table == alg.leq_table
    assert other.join_table == alg.join_table
    assert other.meet_table == alg.meet_table


def test_declared_top_and_bottom_crosschecks():
    doc = doc_of("chain6lo")
    good, report = build_algebra(
        doc._replace(declared_bottom="bot", declared_top="top")
    )
    assert report.ok
    with pytest.raises(LawViolationError):
        build_algebra(doc._replace(declared_top="d"))
    _, lenient = build_algebra(doc._replace(declared_top="d"), mode="lenient")
    assert lenient.by_law()["top-declared"] == [("d",)]
    with pytest.raises(BuildError, match="least"):
        build_algebra(doc._replace(declared_bottom="d"))


def test_build_errors_on_malformed_structure():
    # order cycle
    with pytest.raises(BuildError, match="cycle"):
        assemble_algebra(["x", "y"], [(0, 1), (1, 0)], [[0, 0], [0, 0]], unit=0)
    # no least element
    with pytest.raises(BuildError, match="least"):
        assemble_algebra(["x", "y"], [], [[0, 0], [0, 1]], unit=1)
    # missing join: two maximal elements over a shared bottom
    with pytest.raises(BuildError, match="upper bound"):
        assemble_algebra(
            ["z", "x", "y"],
            [(0, 1), (0, 2)],
            [[0, 0, 0], [0, 1, 0], [0, 0, 2]],
            unit=0,
        )
    # missing meet: bot < a, b < c, d < top; the first failing pair in
    # row-major order is (c, d), whose join is top but whose lower bounds
    # a and b have no greatest
    with pytest.raises(BuildError, match=r"pair \(c, d\) has no greatest lower bound"):
        assemble_algebra(
            ["bot", "c", "d", "a", "b", "top"],
            [(0, 3), (0, 4), (3, 1), (3, 2), (4, 1), (4, 2), (1, 5), (2, 5)],
            [[0] * 6 for _ in range(6)],
            unit=0,
        )
    # order pair indices outside the carrier
    for pair in ((0, 2), (0, -1), (2, 0)):
        with pytest.raises(BuildError, match=r"order pair \(.*\) out of range"):
            assemble_algebra(["x", "y"], [pair], [[0, 0], [0, 1]], unit=1)
    # dimension mismatch
    with pytest.raises(BuildError, match="entries"):
        assemble_algebra(["x", "y"], [(0, 1)], [[0], [0, 1]], unit=1)
    # carrier names, star table and unit index
    for carrier, order, star, unit, message in (
        ([], [], [], 0, "carrier is empty"),
        (["x", "x"], [(0, 1)], [[0, 0], [0, 1]], 0, "carrier names are not unique"),
        (["x", "y"], [(0, 1)], [[0, 0]], 0, "star table has 1 rows, expected 2"),
        (["x", "y"], [(0, 1)], [[0, 0], [0, 7]], 0, "star table entry 7 out of range"),
        (["x", "y"], [(0, 1)], [[0, 0], [0, 1]], 5, "unit index 5 out of range"),
        (["x", "y"], [(0, 1)], [[0, 0], [0, 1]], 2, "unit index 2 out of range"),
    ):
        with pytest.raises(BuildError) as err:
            assemble_algebra(carrier, order, star, unit=unit)
        assert str(err.value) == message


TWO = AlgebraSpecDocument(
    name="two",
    elements=["lo", "hi"],
    order_pairs=[("lo", "hi")],
    unit="hi",
    star_rows={"lo": ["lo", "lo"], "hi": ["lo", "hi"]},
    arrow_rows={"lo": ["hi", "hi"], "hi": ["lo", "hi"]},
)


@pytest.mark.parametrize(
    "changes,message",
    [
        ({"elements": []}, "document has no elements"),
        ({"order_pairs": [("lo", "zz")]}, "unknown element name 'zz' in order"),
        ({"unit": "zz"}, "unknown element name 'zz' in unit"),
        ({"declared_bottom": "zz"}, "unknown element name 'zz' in bottom"),
        ({"declared_top": "zz"}, "unknown element name 'zz' in top"),
        ({"star_rows": {"lo": ["lo", "lo"]}}, "missing star row for 'hi'"),
        (
            {"star_rows": {**TWO.star_rows, "zz": ["lo", "lo"]}},
            "unknown element name 'zz' in star rows",
        ),
        (
            {"star_rows": {"lo": ["lo", "zz"], "hi": ["lo", "hi"]}},
            "unknown element name 'zz' in star row",
        ),
        (
            {"star_rows": {"lo": ["lo"], "hi": ["lo", "hi"]}},
            "star row for 'lo' has 1 entries, expected 2",
        ),
        # precedence: order, star rows, arrow rows, then unit, bottom, top
        (
            {"order_pairs": [("zz", "hi")], "star_rows": {"lo": ["lo", "lo"]}},
            "unknown element name 'zz' in order",
        ),
        (
            {"arrow_rows": {"lo": ["hi", "zz"], "hi": ["lo", "hi"]}, "unit": "yy"},
            "unknown element name 'zz' in arrow row",
        ),
        (
            {"unit": "zz", "declared_bottom": "yy", "declared_top": "xx"},
            "unknown element name 'zz' in unit",
        ),
        # within a table: missing row, unknown row name, then row by row
        (
            {"star_rows": {"lo": ["lo", "lo"], "zz": ["lo", "lo"]}},
            "missing star row for 'hi'",
        ),
        (
            {"star_rows": {"lo": ["lo", "zz"], "hi": ["lo"], "zz": []}},
            "unknown element name 'zz' in star rows",
        ),
        (
            {"star_rows": {"lo": ["lo", "zz"], "hi": ["lo"]}},
            "unknown element name 'zz' in star row",
        ),
    ],
)
def test_build_algebra_document_errors(changes, message):
    with pytest.raises(BuildError) as err:
        build_algebra(TWO._replace(**changes))
    assert str(err.value) == message


def test_build_algebra_names_the_first_bad_name_in_a_fixed_order():
    # A bad name in each of the six places; mending them one at a time
    # walks the order: order, star, arrow, unit, bottom, top.
    bad = [
        {"order_pairs": [("lo", "hi"), ("o1", "hi")]},
        {"star_rows": {"lo": ["lo", "s1"], "hi": ["s2", "hi"]}},
        {"arrow_rows": {"lo": ["hi", "hi"], "hi": ["a1", "a2"]}},
        {"unit": "u1"},
        {"declared_bottom": "b1"},
        {"declared_top": "t1"},
    ]
    doc = TWO
    for changes in bad:
        doc = doc._replace(**changes)
    named = []
    for changes in bad:
        with pytest.raises(BuildError) as err:
            build_algebra(doc)
        named.append(str(err.value))
        doc = doc._replace(**{k: getattr(TWO, k) for k in changes})
    assert named == [
        "unknown element name 'o1' in order",
        "unknown element name 's1' in star row",
        "unknown element name 'a1' in arrow row",
        "unknown element name 'u1' in unit",
        "unknown element name 'b1' in bottom",
        "unknown element name 't1' in top",
    ]
    assert build_algebra(doc)[1].ok


def test_two_element_document_builds():
    alg, report = build_algebra(TWO)
    assert report.ok and alg.carrier == ("lo", "hi")

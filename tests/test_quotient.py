"""Congruence classes, quotient construction and the quotient theorems."""
from __future__ import annotations

import itertools
from dataclasses import replace

import pytest

import oracle
from helpers import (
    VALID_FIXTURES,
    algebra_of,
    bool2_power,
    direct_product,
    mask_of,
    model_of,
    upset_of_unit,
)
from ilalg import (
    BuildError,
    CongruenceError,
    NotAFilterError,
    WellDefinednessError,
    is_filter,
    check_affine_quotient,
    check_distributive_quotient,
    check_identities,
    check_lattice,
    check_linear_quotient,
    check_monoid,
    check_quotient_order,
    check_residuation,
    congruence_classes,
    enumerate_filters,
    is_affine_filter,
    is_distributive_filter,
    is_prime_filter,
    quotient_algebra,
)

FIXTURE_FILTER_PAIRS = [
    (name, f.mask)
    for name in VALID_FIXTURES
    for f in enumerate_filters(algebra_of(name))
]


def _pair_id(pair):
    name, mask = pair
    alg = algebra_of(name)
    return f"{name}-{{{','.join(alg.names(i for i in range(alg.n) if mask >> i & 1))}}}"


def test_unit_upset_gives_singleton_blocks():
    alg = algebra_of("chain6lo")
    blocks = congruence_classes(alg, mask_of(alg, ["1", "b", "c", "d", "top"]))
    assert blocks == tuple((i,) for i in range(alg.n))


@pytest.mark.parametrize("name", VALID_FIXTURES)
def test_whole_carrier_collapses_to_one_block(name):
    alg = algebra_of(name)
    blocks = congruence_classes(alg, (1 << alg.n) - 1)
    assert blocks == (tuple(range(alg.n)),)


@pytest.mark.parametrize(
    "pair", FIXTURE_FILTER_PAIRS, ids=[_pair_id(p) for p in FIXTURE_FILTER_PAIRS]
)
def test_blocks_match_pairwise_oracle(pair):
    name, mask = pair
    alg = algebra_of(name)
    members = [alg.carrier[i] for i in range(alg.n) if mask >> i & 1]
    ref = oracle.congruence_blocks(model_of(name), members)
    got = congruence_classes(alg, mask)
    assert [list(alg.names(blk)) for blk in got] == ref


def test_quotient_by_unit_upset_reproduces_source():
    alg = algebra_of("chain6lo")
    result = quotient_algebra(alg, mask_of(alg, ["1", "b", "c", "d", "top"]))
    assert len(result.blocks) == alg.n
    q = result.algebra
    assert q.n == alg.n
    assert q.leq_table == alg.leq_table
    assert q.star_table == alg.star_table
    assert q.arrow_table == alg.arrow_table
    assert q.carrier == tuple(f"[{e}]" for e in alg.carrier)


def test_quotient_by_carrier_is_one_element():
    alg = algebra_of("fork")
    result = quotient_algebra(alg, (1 << alg.n) - 1)
    assert result.algebra.n == 1
    assert result.algebra.unit == result.algebra.top


def test_fork_quotient_by_unit_upset_passes_residuation():
    alg = algebra_of("fork")
    f1 = mask_of(alg, ["1", "top"])
    result = quotient_algebra(alg, f1)
    assert check_residuation(result.algebra).ok
    assert len(result.blocks) == alg.n
    # the source lattice contains a diamond, so the quotient stays wide
    assert not check_distributive_quotient(alg, f1).conclusion
    assert not check_linear_quotient(alg, f1).conclusion


def test_affine_quotient_collapses_top_onto_unit():
    alg = algebra_of("chain6hi-corrected")
    result = quotient_algebra(alg, mask_of(alg, ["b", "c", "1", "top"]))
    assert [alg.names(blk) for blk in result.blocks] == [
        ("bot",), ("a",), ("b", "c", "1", "top"),
    ]
    assert result.algebra.unit == result.algebra.top
    check = check_affine_quotient(alg, mask_of(alg, ["b", "c", "1", "top"]))
    assert check.premise and check.conclusion and check.holds


def test_wide7_quotient_by_maximal_filter_is_distributive_diamond():
    alg = algebra_of("wide7-corrected")
    f4 = mask_of(alg, ["a", "b", "d", "1", "top"])
    result = quotient_algebra(alg, f4)
    assert [alg.names(blk) for blk in result.blocks] == [
        ("bot",), ("a", "b", "d", "1"), ("c",), ("top",),
    ]
    assert check_distributive_quotient(alg, f4).conclusion
    assert not check_linear_quotient(alg, f4).conclusion
    assert check_distributive_quotient(alg, f4).holds


def test_quotient_rejects_non_filters_and_lenient_algebras():
    fork = algebra_of("fork")
    with pytest.raises(NotAFilterError):
        quotient_algebra(fork, mask_of(fork, ["b", "c", "d", "1", "top"]))
    erratic = algebra_of("pentagon-printed")
    with pytest.raises(BuildError):
        quotient_algebra(erratic, 0b11010)


@pytest.mark.parametrize(
    "pair", FIXTURE_FILTER_PAIRS, ids=[_pair_id(p) for p in FIXTURE_FILTER_PAIRS]
)
def test_quotient_suite(pair):
    """Full machine-check of one (algebra, filter) quotient."""
    name, mask = pair
    alg = algebra_of(name)
    result = quotient_algebra(alg, mask)
    q = result.algebra

    # induced algebra passes the complete strict suite
    assert q.valid
    assert check_lattice(q).ok
    assert check_monoid(q).ok
    assert check_residuation(q).ok
    assert check_identities(q).ok

    # projection is a homomorphism for all four operations
    proj = result.projection
    pairs_ops = [
        (alg.join_table, q.join_table),
        (alg.meet_table, q.meet_table),
        (alg.star_table, q.star_table),
        (alg.arrow_table, q.arrow_table),
    ]
    for src, dst in pairs_ops:
        for x in range(alg.n):
            for y in range(alg.n):
                assert proj[src[x][y]] == dst[proj[x]][proj[y]]

    # block order is arrow membership, for every pair
    assert check_quotient_order(alg, mask)

    # theorem implications
    distributive = check_distributive_quotient(alg, mask)
    linear = check_linear_quotient(alg, mask)
    assert distributive.holds
    assert linear.holds
    assert check_affine_quotient(alg, mask).holds

    # conclusions agree with the oracle's representative-based computation
    members = [alg.carrier[i] for i in range(alg.n) if mask >> i & 1]
    ref = oracle.quotient_verdicts(model_of(name), members)
    assert distributive.conclusion == ref["distributive"]
    assert linear.conclusion == ref["linear"]
    assert (q.unit == q.top) == ref["unit_equals_top"]
    assert (len(result.blocks) == alg.n) == ref["singleton_blocks"]
    assert ref["order_matches_prop"]
    assert oracle.quotient_well_definedness_failure(model_of(name), members) is None


@pytest.mark.parametrize("name", VALID_FIXTURES)
def test_unit_upset_quotient_has_singleton_blocks(name):
    """Where the upset of 1 is a filter, its quotient separates everything."""
    alg = algebra_of(name)
    upset = upset_of_unit(alg)
    check = is_filter(alg, upset)
    assert check.ok, "upset of the unit happens to be a filter on every fixture"
    result = quotient_algebra(alg, upset)
    assert len(result.blocks) == alg.n


def test_theorem_checks_report_premise_and_conclusion():
    alg = algebra_of("chain6lo")
    full = (1 << alg.n) - 1
    upset1 = mask_of(alg, ["1", "b", "c", "d", "top"])
    lin = check_linear_quotient(alg, upset1)
    assert lin.premise and lin.conclusion  # prime filter, chain quotient
    aff = check_affine_quotient(alg, upset1)
    assert not aff.premise and not aff.conclusion and aff.holds
    assert check_affine_quotient(alg, full).premise
    fork = algebra_of("fork")
    f1 = mask_of(fork, ["1", "top"])
    assert not is_prime_filter(fork, f1)[0]
    assert not is_distributive_filter(fork, f1)[0]
    assert not is_affine_filter(fork, f1)
    for check in (
        check_distributive_quotient(fork, f1),
        check_linear_quotient(fork, f1),
        check_affine_quotient(fork, f1),
    ):
        assert not check.premise and not check.conclusion and check.holds


def _with_cells(alg, field, cells):
    """A copy of `alg` (still marked valid) with some cells of one table
    overwritten; cells maps (x, y) names to the new value's name."""
    table = [list(row) for row in getattr(alg, field)]
    for (x, y), value in cells.items():
        table[alg.index(x)][alg.index(y)] = alg.index(value)
    return replace(alg, **{field: tuple(map(tuple, table))})


CHAIN6HI_AFFINE = ["b", "c", "1", "top"]


def test_star_that_ignores_the_blocks_is_not_well_defined():
    alg = algebra_of("chain6hi-corrected")
    f = mask_of(alg, CHAIN6HI_AFFINE)
    bad = _with_cells(alg, "star_table", {("c", "bot"): "a"})
    with pytest.raises(WellDefinednessError) as info:
        quotient_algebra(bad, f)
    assert info.value.op == "star"
    x, x_alt, y, y_alt = (alg.index(e) for e in info.value.witness)
    proj = quotient_algebra(alg, f).projection
    assert proj[x] == proj[x_alt] and proj[y] == proj[y_alt]
    star = bad.star_table
    assert proj[star[x][y]] != proj[star[x_alt][y_alt]]


def test_arrow_that_breaks_transitivity_is_not_a_congruence():
    alg = algebra_of("chain6hi-corrected")
    bad = _with_cells(
        alg, "arrow_table", {("c", "bot"): "top", ("bot", "c"): "top"}
    )
    with pytest.raises(CongruenceError) as info:
        quotient_algebra(bad, mask_of(alg, CHAIN6HI_AFFINE))
    assert type(info.value) is CongruenceError
    assert "not transitive" in str(info.value)


def _product_blocks(a_blocks, b_blocks, bn):
    return tuple(sorted(
        tuple(sorted(x * bn + y for x in bx for y in by))
        for bx in a_blocks
        for by in b_blocks
    ))


def _product_mask(f, g, bn):
    return sum(1 << x * bn + y for x in f.members() for y in g.members())


def _conclusions(alg, mask):
    """Distributive, linear, unit == top and block count of one quotient."""
    q = quotient_algebra(alg, mask).algebra
    return (
        check_distributive_quotient(alg, mask).conclusion,
        check_linear_quotient(alg, mask).conclusion,
        q.unit == q.top,
        q.n,
    )


@pytest.mark.parametrize(
    "left,right", list(itertools.combinations_with_replacement(VALID_FIXTURES, 2))
)
def test_product_quotient_blocks_are_products_of_factor_blocks(left, right):
    """A x B by F x G is A/F x B/G, so the theorem conclusions are known:
    a product lattice is distributive iff both factors are, it is a chain
    iff one factor is a chain and the other a single point, and its unit
    is its top iff that holds in both factors."""
    a, b = algebra_of(left), algebra_of(right)
    ab = direct_product(a, b)
    fa = {f.mask: _conclusions(a, f.mask) for f in enumerate_filters(a)}
    fb = {g.mask: _conclusions(b, g.mask) for g in enumerate_filters(b)}
    for f, g in itertools.product(enumerate_filters(a), enumerate_filters(b)):
        mask = _product_mask(f, g, b.n)
        result = quotient_algebra(ab, mask)
        assert result.blocks == _product_blocks(
            congruence_classes(a, f.mask), congruence_classes(b, g.mask), b.n
        )
        assert result.algebra.valid
        dist_a, lin_a, unit_top_a, na = fa[f.mask]
        dist_b, lin_b, unit_top_b, nb = fb[g.mask]
        q = result.algebra
        assert check_distributive_quotient(ab, mask).conclusion == (
            dist_a and dist_b
        )
        assert check_linear_quotient(ab, mask).conclusion == (
            lin_a and nb == 1 or lin_b and na == 1
        )
        assert (q.unit == q.top) == (unit_top_a and unit_top_b)


def test_boolean_power_quotient_by_product_filter():
    # bool2^6 = bool2^5 x bool2, and {top} x bool2 leaves 32 blocks of two
    a, b = bool2_power(5), algebra_of("bool2")
    mask = sum(1 << a.top * b.n + y for y in range(b.n))
    result = quotient_algebra(bool2_power(6), mask)
    assert len(result.blocks) == 32
    assert result.blocks == _product_blocks(
        [(x,) for x in range(a.n)], [tuple(range(b.n))], b.n
    )
    assert result.algebra.valid

"""Filter decision, closure, enumeration and classification."""
from __future__ import annotations

import itertools
from functools import lru_cache, reduce

import pytest

import oracle
from helpers import (
    VALID_FIXTURES,
    algebra_of,
    bool2_power,
    direct_product,
    godel_chain,
    lukasiewicz_chain,
    mask_of,
    model_of,
    oracle_model,
    ordinal_sum,
    shuffled,
    sugihara_chain,
    upset_of_unit,
)
from ilalg import (
    BuildError,
    FilterFlags,
    NotAFilterError,
    check_idempotent_implies_implicative,
    classify_all,
    classify_filter,
    enumerate_filters,
    filter_closure,
    is_affine_filter,
    is_distributive_filter,
    is_filter,
    is_implicative_filter,
    is_maximal_filter,
    is_prime_filter,
    quotient_algebra,
    subset_mask,
)
from ilalg import filters
from ilalg.filters import _distributive_sweep, _implicative_sweep
from ilalg.fixtures import expectations
from test_cap import GENERATORS, cap_algebra


def names_of(alg, witness):
    return tuple(alg.carrier[i] for i in witness)


def test_is_filter_accepts_known_filters():
    alg = algebra_of("chain6lo")
    assert is_filter(alg, mask_of(alg, ["1", "b", "c", "d", "top"])).ok


@pytest.mark.parametrize("name", VALID_FIXTURES)
def test_whole_carrier_is_a_filter(name):
    alg = algebra_of(name)
    assert is_filter(alg, (1 << alg.n) - 1).ok


def test_is_filter_meet_closure_witness():
    alg = algebra_of("fork")
    check = is_filter(alg, mask_of(alg, ["c", "1", "top"]))
    assert not check.ok
    assert check.condition == "meet-closed"
    assert names_of(alg, check.witness) == ("c", "1")


def test_is_filter_star_closure_witness():
    alg = algebra_of("fork")
    check = is_filter(alg, mask_of(alg, ["b", "c", "d", "1", "top"]))
    assert not check.ok
    assert check.condition == "star-closed"
    assert names_of(alg, check.witness) == ("b", "b")


def test_is_filter_unit_and_upward_witnesses():
    alg = algebra_of("chain6lo")
    check = is_filter(alg, mask_of(alg, ["top"]))
    assert check.condition == "unit-member"
    check = is_filter(alg, mask_of(alg, ["1"]))
    assert check.condition == "upward-closed"
    assert names_of(alg, check.witness) == ("1", "b")


@pytest.mark.parametrize("name", VALID_FIXTURES)
def test_closure_of_empty_set_is_least_filter(name):
    alg = algebra_of(name)
    closed = filter_closure(alg, 0)
    ref = oracle.least_filter_containing(model_of(name), [])
    assert list(closed.member_names()) == ref
    # on every shipped fixture that least filter is the upset of the unit
    assert closed.mask == subset_mask(alg, upset_of_unit(alg))


@pytest.mark.parametrize("name", VALID_FIXTURES)
def test_closure_of_carrier_is_carrier(name):
    alg = algebra_of(name)
    full = (1 << alg.n) - 1
    assert filter_closure(alg, full).mask == full


@pytest.mark.parametrize("name", VALID_FIXTURES)
def test_closure_of_every_subset_matches_oracle(name):
    alg = algebra_of(name)
    model = model_of(name)
    for bits in range(1 << alg.n):
        members = alg.names(i for i in range(alg.n) if bits >> i & 1)
        ref = oracle.least_filter_containing(model, members)
        assert list(filter_closure(alg, bits).member_names()) == ref


def test_closure_blows_up_to_carrier_when_star_escapes():
    alg = algebra_of("fork")
    closed = filter_closure(alg, mask_of(alg, ["b"]))
    assert closed.mask == (1 << alg.n) - 1


@pytest.mark.parametrize("name", VALID_FIXTURES)
def test_enumeration_matches_sidecar_and_oracle(name):
    alg = algebra_of(name)
    found = enumerate_filters(alg)
    members = [list(f.member_names()) for f in found]
    assert members == expectations(name)["filters"]
    assert members == oracle.sweep_filters(model_of(name))
    masks = [f.mask for f in found]
    assert masks == sorted(masks)


def test_enumeration_counts():
    assert len(enumerate_filters(algebra_of("fork"))) == 2
    assert len(enumerate_filters(algebra_of("chain6lo"))) == 2
    assert len(enumerate_filters(algebra_of("point"))) == 1
    assert len(enumerate_filters(algebra_of("chain6hi-corrected"))) == 4
    assert len(enumerate_filters(algebra_of("wide7-corrected"))) == 5


@pytest.mark.parametrize("name", VALID_FIXTURES)
def test_enumeration_agrees_with_full_subset_sweep(name):
    alg = algebra_of(name)
    found = {f.mask for f in enumerate_filters(alg)}
    for bits in range(1 << alg.n):
        assert (bits in found) == is_filter(alg, bits).ok


def test_distributive_filter_examples():
    alg = algebra_of("chain6lo")
    ok, _ = is_distributive_filter(alg, mask_of(alg, ["1", "b", "c", "d", "top"]))
    assert ok
    assert is_distributive_filter(alg, (1 << alg.n) - 1)[0]
    pent = algebra_of("pentagon-corrected")
    ok, witness = is_distributive_filter(pent, mask_of(pent, ["1", "a", "top"]))
    assert not ok
    assert names_of(pent, witness) == ("1", "a", "b")
    # the failing value is bottom
    x, y, z = witness
    value = pent.arrow(
        pent.meet(pent.join(x, y), pent.join(x, z)), pent.join(x, pent.meet(y, z))
    )
    assert value == pent.bottom


def test_prime_filter_examples():
    alg = algebra_of("chain6lo")
    assert is_prime_filter(alg, mask_of(alg, ["b", "c", "d", "1", "top"]))[0]
    fork = algebra_of("fork")
    ok, witness = is_prime_filter(fork, mask_of(fork, ["1", "top"]))
    assert not ok
    assert names_of(fork, witness) == ("c", "d")


def test_maximal_filter_examples():
    hi = algebra_of("chain6hi-corrected")
    assert is_maximal_filter(hi, mask_of(hi, ["b", "c", "1", "top"]))
    assert not is_maximal_filter(hi, mask_of(hi, ["1", "top"]))
    assert not is_maximal_filter(hi, mask_of(hi, ["c", "1", "top"]))
    bool2 = algebra_of("bool2")
    assert is_maximal_filter(bool2, mask_of(bool2, ["1"]))
    assert not is_maximal_filter(bool2, (1 << bool2.n) - 1)
    wide = algebra_of("wide7-corrected")
    assert is_maximal_filter(wide, mask_of(wide, ["a", "b", "d", "1", "top"]))


def test_maximal_filter_rejects_non_filters():
    fork = algebra_of("fork")
    with pytest.raises(NotAFilterError):
        is_maximal_filter(fork, mask_of(fork, ["b", "c", "d", "1", "top"]))


def test_implicative_filter_oracle_resolved_verdicts():
    alg = algebra_of("chain6lo")
    assert is_implicative_filter(alg, mask_of(alg, ["b", "c", "d", "1", "top"]))[0]
    hi = algebra_of("chain6hi-corrected")
    ok, witness = is_implicative_filter(hi, mask_of(hi, ["b", "c", "1", "top"]))
    assert not ok
    assert names_of(hi, witness) == ("a", "a", "bot")
    wide = algebra_of("wide7-corrected")
    ok, witness = is_implicative_filter(
        wide, mask_of(wide, ["a", "b", "d", "1", "top"])
    )
    assert not ok
    assert names_of(wide, witness) == ("c", "c", "a")
    # the witness cited alongside the erratic source table is genuine too
    c, one = wide.index("c"), wide.index("1")
    f4 = mask_of(wide, ["a", "b", "d", "1", "top"])
    assert f4 >> wide.arrow(c, wide.arrow(c, one)) & 1
    assert f4 >> wide.arrow(c, c) & 1
    assert not f4 >> wide.arrow(c, one) & 1


def test_affine_filter_examples():
    hi = algebra_of("chain6hi-corrected")
    assert hi.carrier[hi.arrow(hi.top, hi.unit)] == "b"
    assert is_affine_filter(hi, mask_of(hi, ["b", "c", "1", "top"]))
    assert not is_affine_filter(hi, mask_of(hi, ["1", "top"]))
    point = algebra_of("point")
    assert is_affine_filter(point, 1)


@pytest.mark.parametrize("name", VALID_FIXTURES)
def test_classification_matches_sidecar_and_oracle(name):
    alg = algebra_of(name)
    rows = classify_all(alg)
    expected = expectations(name)["classification"]
    assert len(rows) == len(expected)
    for row, exp in zip(rows, expected):
        assert list(row.member_names()) == exp["members"]
        got = {
            "distributive": row.flags.distributive,
            "prime": row.flags.prime,
            "maximal": row.flags.maximal,
            "implicative": row.flags.implicative,
            "affine": row.flags.affine,
        }
        ref = oracle.classify(model_of(name), exp["members"])
        assert got == ref
        assert got == {k: exp[k] for k in got}


def test_point_classification_row():
    alg = algebra_of("point")
    (row,) = classify_all(alg)
    assert row.flags.distributive and row.flags.prime
    assert row.flags.implicative and row.flags.affine
    # the only filter is the carrier, which is not proper, hence not maximal
    assert row.flags.maximal is False


def test_idempotent_implies_implicative_scan():
    for name in ("point", "bool2"):
        result = check_idempotent_implies_implicative(algebra_of(name))
        assert result.idempotent
        assert result.all_filters_implicative
        assert result.converse_witness is None
    alg = algebra_of("chain6lo")
    result = check_idempotent_implies_implicative(alg)
    assert not result.idempotent
    assert alg.carrier[result.non_idempotent_witness] == "b"
    assert result.converse_witness is not None
    assert result.converse_witness.member_names() == ("b", "c", "d", "1", "top")
    wide = check_idempotent_implies_implicative(algebra_of("wide7-corrected"))
    assert not wide.idempotent
    assert wide.converse_witness.mask == (1 << 7) - 1


def test_lenient_algebra_classification_permissions():
    alg = algebra_of("pentagon-printed")
    assert not alg.valid
    mask = mask_of(alg, ["1", "a", "top"])
    # pure table reads are allowed
    is_prime_filter(alg, mask)
    is_distributive_filter(alg, mask)
    is_implicative_filter(alg, mask)
    is_affine_filter(alg, mask)
    assert classify_filter(alg, mask).maximal is None
    # the filter lattice is not
    with pytest.raises(BuildError):
        enumerate_filters(alg)
    with pytest.raises(BuildError):
        is_maximal_filter(alg, mask)
    with pytest.raises(BuildError):
        filter_closure(alg, mask)


def test_subset_mask_validation():
    alg = algebra_of("bool2")
    with pytest.raises(IndexError):
        subset_mask(alg, [5])
    with pytest.raises(IndexError, match=r"^element index 2 out of range 0\.\.1$"):
        subset_mask(alg, [alg.n])
    with pytest.raises(IndexError):
        subset_mask(alg, 1 << alg.n)
    assert subset_mask(alg, [0, 1]) == 3


def test_filter_flags_attached_by_classify_all():
    for row in classify_all(algebra_of("fork")):
        assert row.flags is not None
        recomputed = classify_filter(row.algebra, row.mask)
        assert row.flags == recomputed


@pytest.mark.parametrize(
    "left,right", list(itertools.combinations_with_replacement(VALID_FIXTURES, 2))
)
def test_product_filters_are_products_of_factor_filters(left, right):
    a, b = algebra_of(left), algebra_of(right)
    expected = sorted(
        sum(1 << x * b.n + y for x in f.members() for y in g.members())
        for f in enumerate_filters(a)
        for g in enumerate_filters(b)
    )
    ab = direct_product(a, b)
    found = enumerate_filters(ab)
    assert [f.mask for f in found] == expected
    # the principal-filter theorem at product sizes: each enumerated ^e is
    # a filter and its own closure
    for f in found:
        assert is_filter(ab, f.mask).ok
        assert filter_closure(ab, f.mask).mask == f.mask


def upset_mask(alg, i):
    return sum(1 << j for j in range(alg.n) if alg.leq_table[i][j])


def test_boolean_power_filters_are_all_principal_upsets():
    alg = bool2_power(6)
    assert alg.n == 64
    # a Boolean algebra: every element is an idempotent subunit
    found = enumerate_filters(alg)
    assert len(found) == 64
    assert {f.mask for f in found} == {upset_mask(alg, i) for i in range(alg.n)}


def test_boolean_power_maximal_filters_are_atom_upsets():
    alg = bool2_power(6)
    atoms = [i for i, name in enumerate(alg.carrier) if name.split(".").count("1") == 1]
    assert len(atoms) == 6
    maximal = {f.mask for f in enumerate_filters(alg) if is_maximal_filter(alg, f.mask)}
    assert maximal == {upset_mask(alg, a) for a in atoms}


def chain_answers(kind, n):
    """A generated chain of n elements with its known filters and flags: a
    list of (least element index, flags) in enumeration order."""
    yes = dict.fromkeys(("distributive", "prime", "implicative", "affine"), True)
    if kind == "sugihara":
        k = n // 2
        # the upsets of -k+j for j = k..0, smallest first; index j is -k+j
        return sugihara_chain(k), [
            (j, {**yes, "maximal": j == 1, "affine": j == 0})
            for j in range(k, -1, -1)
        ]
    if kind == "godel":
        return godel_chain(n), [
            (j, {**yes, "maximal": j == 1}) for j in range(n - 1, -1, -1)
        ]
    return lukasiewicz_chain(n), [
        (n - 1, {**yes, "maximal": True, "implicative": False}),
        (0, {**yes, "maximal": False}),
    ]


@pytest.mark.parametrize(
    "kind,n", [("sugihara", 63), ("godel", 64), ("lukasiewicz", 64)]
)
def test_long_chain_filters_and_maximality_are_known(kind, n):
    alg, answers = chain_answers(kind, n)
    assert alg.n == n and alg.valid
    found = enumerate_filters(alg)
    assert [f.mask for f in found] == [upset_mask(alg, e) for e, _ in answers]
    assert [is_maximal_filter(alg, f.mask) for f in found] == [
        flags["maximal"] for _, flags in answers
    ]


@pytest.mark.parametrize(
    "kind,n",
    [(kind, n) for kind in ("sugihara", "godel", "lukasiewicz") for n in (3, 7, 9, 15)]
    + [("godel", 16), ("lukasiewicz", 16)]
    + [("sugihara", 63), ("godel", 64), ("lukasiewicz", 64)],
)
def test_chain_classification_is_known(kind, n):
    alg, answers = chain_answers(kind, n)
    rows = classify_all(alg)
    assert [row.mask for row in rows] == [upset_mask(alg, e) for e, _ in answers]
    for row, (_, flags) in zip(rows, answers):
        assert row.flags == FilterFlags(**flags)


@pytest.mark.parametrize("kind", ["sugihara", "godel", "lukasiewicz"])
def test_chain_classification_matches_oracle(kind):
    alg, _ = chain_answers(kind, 7)
    order = [(i, i + 1) for i in range(alg.n - 1)]
    model = oracle_model(alg.carrier, order, alg.star_table, alg.unit)
    rows = classify_all(alg)
    assert [list(row.member_names()) for row in rows] == oracle.sweep_filters(model)
    for row in rows:
        assert row.flags._asdict() == oracle.classify(model, list(row.member_names()))


def test_boolean_power_classification_is_known():
    # every filter of a Boolean algebra is distributive, implicative and
    # affine; the maximal ones are the atom upsets, and these plus the
    # carrier are the prime ones
    alg = bool2_power(6)
    atoms = {upset_mask(alg, i) for i, name in enumerate(alg.carrier)
             if name.split(".").count("1") == 1}
    rows = classify_all(alg)
    assert len(rows) == 64
    for row in rows:
        maximal = row.mask in atoms
        assert row.flags == FilterFlags(
            distributive=True,
            prime=maximal or row.mask == (1 << alg.n) - 1,
            maximal=maximal,
            implicative=True,
            affine=True,
        )
    assert sum(row.flags.maximal for row in rows) == 6
    assert sum(row.flags.prime for row in rows) == 7


CHAINS = {"S": lambda n: sugihara_chain(n // 2), "G": godel_chain, "L": lukasiewicz_chain}


def factor(label):
    """A valid fixture by name, or a chain by kind letter and size, as in G12."""
    if label[0] in CHAINS:
        return CHAINS[label[0]](int(label[1:]))
    return algebra_of(label)


def _ordinal_part(alg, summand, prefix, members):
    """The mask in the ordinal sum `alg` of a summand's members, its unit
    dropped from the lower summand."""
    return mask_of(alg, [f"{prefix}.{summand.carrier[x]}" for x in members
                         if prefix == "b" or x != summand.unit])


@pytest.mark.parametrize("lower, upper", [
    *itertools.product(["bool2", "G8", "L8"], ["bool2", "point", "G8", "L8", "bool2^2"]),
    ("G32", "bool2^5"),  # n = 63, 63 filters
])
def test_ordinal_sum_filters_are_known(lower, upper):
    a = factor(lower)
    b = bool2_power(int(upper[6:])) if upper.startswith("bool2^") else factor(upper)
    alg = ordinal_sum(a, b)
    assert alg.valid and alg.n == a.n - 1 + b.n
    # the filters of B, and (F ∖ {1}) ∪ B for each filter F ≠ {1} of A
    whole_b = _ordinal_part(alg, b, "b", range(b.n))
    expected = {_ordinal_part(alg, b, "b", g.members()) for g in enumerate_filters(b)}
    expected |= {_ordinal_part(alg, a, "a", f.members()) | whole_b
                 for f in enumerate_filters(a) if f.mask != 1 << a.unit}
    found = enumerate_filters(alg)
    assert {f.mask for f in found} == expected
    assert len(found) == len(enumerate_filters(a)) + len(enumerate_filters(b)) - 1
    primes = lambda x: sum(row.flags.prime for row in classify_all(x))
    assert primes(alg) == primes(a) + primes(b) - 1
    # by the B-filter B itself: B is one block and A ∖ {1} stays apart
    result = quotient_algebra(alg, whole_b)
    assert result.algebra.valid and len(result.blocks) == a.n


# products of two valid fixtures up to n = 30, three chains, and 5-element
# chains times each valid fixture
E_FORM_CASES = (
    [f"{left}*{right}"
     for left, right in itertools.combinations_with_replacement(VALID_FIXTURES, 2)
     if algebra_of(left).n * algebra_of(right).n <= 30]
    + ["S9", "G12", "L12"]
    + [f"{chain}*{name}" for chain in ("S5", "G5", "L5") for name in VALID_FIXTURES]
)


@pytest.mark.parametrize("case", E_FORM_CASES)
def test_e_forms_match_the_exhaustive_sweeps(case):
    factors = [factor(label) for label in case.split("*")]
    alg = factors[0] if len(factors) == 1 else direct_product(*factors)
    for row in classify_all(alg):
        distributive = _distributive_sweep(alg, row.mask)
        implicative = _implicative_sweep(alg, row.mask)
        assert is_distributive_filter(alg, row.mask) == distributive
        assert is_implicative_filter(alg, row.mask) == implicative
        assert row.flags.distributive == distributive[0]
        assert row.flags.implicative == implicative[0]


@pytest.mark.parametrize("name", VALID_FIXTURES)
def test_predicates_on_every_subset_match_the_exhaustive_sweeps(name):
    # subsets that are not ^e for an idempotent subunit take the sweep
    alg = algebra_of(name)
    for mask in range(1 << alg.n):
        assert is_distributive_filter(alg, mask) == _distributive_sweep(alg, mask)
        assert is_implicative_filter(alg, mask) == _implicative_sweep(alg, mask)


# Cap algebras of tests/test_cap.py with their number of defects: bool2^6
# and a chain below bool2^5 are distributive, and wide7-corrected^2 is not.
CAP_DEFECTS = {"bool2-6": 0, "wide7-2": 4704, "godel-32-sum-bool2-5": 0}


@pytest.mark.parametrize("case", [f"{name}{times}" for name in VALID_FIXTURES
                                  for times in ("", "*bool2")] + list(CAP_DEFECTS))
def test_distributivity_defects_follow_their_definition(case):
    # every triple (x, y, z) with y < z and a != b, in lexicographic order,
    # where (a, b) = ((x join y) meet (x join z), x join (y meet z))
    alg = cap_algebra(case) if case in CAP_DEFECTS else product_of(case)
    jn, mt = alg.join_table, alg.meet_table
    expected = []
    for x, y, z in itertools.product(range(alg.n), repeat=3):
        a, b = mt[jn[x][y]][jn[x][z]], jn[x][mt[y][z]]
        if y < z and a != b:
            expected.append(((a, b), (x, y, z)))
    assert list(filters._distributivity_defects(alg)) == expected
    assert case not in CAP_DEFECTS or len(expected) == CAP_DEFECTS[case]


def product_of(case):
    """The algebra of a case label: factors joined by '*', as in G5*fork."""
    return reduce(direct_product, [factor(label) for label in case.split("*")])


@pytest.mark.parametrize("case", E_FORM_CASES)
def test_e_forms_run_no_sweep_on_a_law_valid_filter(case, monkeypatch):
    def refuse(alg, mask):
        pytest.fail(f"exhaustive sweep on the filter {mask:#x}")

    monkeypatch.setattr(filters, "_distributive_sweep", refuse)
    monkeypatch.setattr(filters, "_implicative_sweep", refuse)
    alg = product_of(case)
    for row in classify_all(alg):
        is_distributive_filter(alg, row.mask)
        is_implicative_filter(alg, row.mask)


@pytest.mark.parametrize("case", E_FORM_CASES)
def test_e_forms_match_the_exhaustive_sweeps_on_a_shuffled_carrier(case):
    # index order need not extend the lattice order here, so the first
    # implicative witness need not have y = u and z = u*y
    alg = shuffled(product_of(case), case)
    for row in classify_all(alg):
        distributive = _distributive_sweep(alg, row.mask)
        implicative = _implicative_sweep(alg, row.mask)
        assert is_distributive_filter(alg, row.mask) == distributive
        assert is_implicative_filter(alg, row.mask) == implicative
        assert row.flags.distributive == distributive[0]
        assert row.flags.implicative == implicative[0]


@pytest.mark.parametrize(
    "case",
    ["wide7-corrected*wide7-corrected", "fork*wide7-corrected",
     "bool2*pentagon-corrected*chain6lo"],
)
def test_e_form_witnesses_break_the_definitions_on_wide_products(case):
    # n = 49, 42 and 60: each "no" witness is read back on the arrow table
    # itself, with neither the e-forms nor the sweeps as the reference
    alg = product_of(case)
    jn, mt, ar = alg.join_table, alg.meet_table, alg.arrow_table
    for row in classify_all(alg):
        mask = row.mask
        ok, witness = is_distributive_filter(alg, mask)
        assert ok == row.flags.distributive
        if not ok:
            x, y, z = witness
            assert not mask >> ar[mt[jn[x][y]][jn[x][z]]][jn[x][mt[y][z]]] & 1
        ok, witness = is_implicative_filter(alg, mask)
        assert ok == row.flags.implicative
        if not ok:
            x, y, z = witness
            assert mask >> ar[x][ar[y][z]] & 1 and mask >> ar[x][y] & 1
            assert not mask >> ar[x][z] & 1


# The filter lattice as a judge with no subset sweep. The filters are the
# upsets ^e of the idempotent subunits e, and ^f contains ^e exactly when
# f <= e: the order of the subunits is the reverse of inclusion. Inputs:
# the valid fixtures, their unordered products (wide7-corrected^2 among
# them) and the other cap algebras of tests/test_cap.py, 40 in all.
LATTICE_INPUTS = (
    VALID_FIXTURES
    + [f"{a}*{b}" for a, b in itertools.combinations_with_replacement(VALID_FIXTURES, 2)]
    + [name for name in GENERATORS if name != "wide7-2"]
)


def subunit_filters(alg):
    """The filters of `alg` as (mask, least element e) pairs, in enumeration
    order; each e is the engine's subunit of its filter."""
    le, pairs = alg.leq_table, []
    for f in enumerate_filters(alg):
        members = f.members()
        pairs.append((f.mask, next(m for m in members if all(le[m][j] for j in members))))
    return pairs


@lru_cache(maxsize=None)
def filter_lattice(label):
    """An input of LATTICE_INPUTS and its `subunit_filters`."""
    alg = cap_algebra(label) if label in GENERATORS else product_of(label)
    return alg, subunit_filters(alg)


@pytest.mark.parametrize("label", LATTICE_INPUTS)
def test_idempotent_subunits_are_closed_under_join_and_star(label):
    # ^e meet ^f = ^(e join f), and the filter they generate is ^(e*f)
    alg, pairs = filter_lattice(label)
    subunits = {e for _, e in pairs}
    assert len(subunits) == len(pairs)
    for e, f in itertools.product(subunits, repeat=2):
        assert alg.join_table[e][f] in subunits, (e, f)
        assert alg.star_table[e][f] in subunits, (e, f)


@pytest.mark.parametrize("label", LATTICE_INPUTS)
def test_filter_lattice_is_distributive(label):
    # e join (f*g) = (e join f)*(e join g): the filters correspond to the
    # congruences, whose lattice is distributive on a lattice reduct
    alg, pairs = filter_lattice(label)
    jn, st, subunits = alg.join_table, alg.star_table, [e for _, e in pairs]
    for e, f, g in itertools.product(subunits, repeat=3):
        assert jn[e][st[f][g]] == st[jn[e][f]][jn[e][g]], (e, f, g)


@pytest.mark.parametrize("label", LATTICE_INPUTS)
def test_quotient_filters_are_the_images_of_the_filters_above(label):
    # Correspondence theorem: the filters of A/^e are the images of the
    # filters that contain ^e, the ^f with f <= e (not e <= f). So the
    # subunits of the quotient are exactly the blocks [f] of those f, one
    # block for each f.
    alg, pairs = filter_lattice(label)
    le = alg.leq_table
    for mask, e in pairs:
        result = quotient_algebra(alg, mask)
        images = {result.projection[f] for _, f in pairs if le[f][e]}
        assert len(images) == sum(le[f][e] for _, f in pairs), e
        assert {f for _, f in subunit_filters(result.algebra)} == images, e


@pytest.mark.parametrize("label", LATTICE_INPUTS)
def test_filters_above_a_prime_filter_form_a_chain(label):
    # a prime filter gives a linear quotient, whose filters are nested; the
    # filters containing ^p are the ^f with f <= p
    alg, pairs = filter_lattice(label)
    le, least = alg.leq_table, dict(pairs)
    primes = [least[row.mask] for row in classify_all(alg) if row.flags.prime]
    assert primes
    for p in primes:
        above = [f for _, f in pairs if le[f][p]]
        assert all(le[f][g] or le[g][f] for f, g in itertools.combinations(above, 2)), p

"""Shared fixture-loading helpers and known-answer generators for the tests."""
from __future__ import annotations

import random
from functools import lru_cache

import oracle
from ilalg import assemble_algebra, build_algebra, document_of, parse_spec
from ilalg.fixtures import expectations, fixture_names, fixture_text

ALL_FIXTURES = fixture_names()
VALID_FIXTURES = [n for n in ALL_FIXTURES if expectations(n)["strict_valid"]]
ERRATIC_FIXTURES = [n for n in ALL_FIXTURES if not expectations(n)["strict_valid"]]


@lru_cache(maxsize=None)
def doc_of(name):
    return parse_spec(fixture_text(name))


@lru_cache(maxsize=None)
def built(name):
    """Lenient build: (algebra, report)."""
    return build_algebra(doc_of(name), mode="lenient")


def algebra_of(name):
    return built(name)[0]


def report_of(name):
    return built(name)[1]


@lru_cache(maxsize=None)
def model_of(name):
    """Independent oracle model over the same raw document fields."""
    d = doc_of(name)
    return oracle.Model(d.elements, d.order_pairs, d.star_rows, d.unit, d.arrow_rows)


def mask_of(alg, names):
    return sum(1 << alg.index(n) for n in names)


def upset_of_unit(alg):
    return [i for i in range(alg.n) if alg.leq_table[alg.unit][i]]


def direct_product(a, b):
    """The direct product A x B of two valid algebras, strictly built.

    Element (x, y) sits at index x * b.n + y, named "x.y"; order, star and
    arrow are componentwise, so the arrow table is checked, not derived.
    """
    pairs = [(x, y) for x in range(a.n) for y in range(b.n)]

    def op(ta, tb):
        return [[ta[x][u] * b.n + tb[y][v] for u, v in pairs] for x, y in pairs]

    order = [
        (i, j)
        for i, (x, y) in enumerate(pairs)
        for j, (u, v) in enumerate(pairs)
        if a.leq_table[x][u] and b.leq_table[y][v]
    ]
    alg, _ = assemble_algebra(
        [f"{a.carrier[x]}.{b.carrier[y]}" for x, y in pairs],
        order,
        op(a.star_table, b.star_table),
        unit=a.unit * b.n + b.unit,
        arrow=op(a.arrow_table, b.arrow_table),
    )
    return alg


def shuffled(alg, seed):
    """The same algebra with its carrier listed in a seeded random order,
    strictly built; index order then need not extend the lattice order."""
    perm = list(range(alg.n))
    random.Random(seed).shuffle(perm)
    pos = {old: new for new, old in enumerate(perm)}

    def op(table):
        return [[pos[table[x][y]] for y in perm] for x in perm]

    order = [(i, j) for i, x in enumerate(perm) for j, y in enumerate(perm)
             if alg.leq_table[x][y]]
    new, _ = assemble_algebra(
        [alg.carrier[x] for x in perm], order, op(alg.star_table),
        unit=pos[alg.unit], arrow=op(alg.arrow_table),
    )
    return new


@lru_cache(maxsize=None)
def bool2_power(k):
    """bool2^k; its elements are named by their k coordinates joined by '.'."""
    alg = algebra_of("bool2")
    for _ in range(k - 1):
        alg = direct_product(alg, algebra_of("bool2"))
    return alg


def star_tampered(doc, cells, seed, table="star_rows"):
    """`doc` with `cells` distinct cells of one table (star, or arrow with
    table="arrow_rows"), drawn by `seed`, each set to another element; the
    order and the other table are kept."""
    n = len(doc.elements)
    rows = {e: list(row) for e, row in getattr(doc, table).items()}
    rng = random.Random(seed)
    for cell in rng.sample(range(n * n), cells):
        row = rows[doc.elements[cell // n]]
        row[cell % n] = rng.choice([e for e in doc.elements if e != row[cell % n]])
    return doc._replace(**{table: rows})


def rot_star(k):
    """The document of bool2^k with x*y = rot(x) meet y, where rot moves
    each coordinate one place to the left, and no arrow rows.

    Meet with a fixed element is residuated, so the residual is derived,
    but the star is not commutative and top is a unit on the left only:
    `check --lenient` lists 6,036 records for k = 4, 54,400 for k = 5 and
    478,096 for k = 6.
    """
    alg = bool2_power(k)
    nm, meet = alg.carrier, alg.meet_table

    def rot(name):
        coords = name.split(".")
        return alg.index(".".join(coords[1:] + coords[:1]))

    star = {x: [nm[m] for m in meet[rot(x)]] for x in nm}
    return document_of(alg, f"rot-star-bool2-{k}")._replace(star_rows=star, arrow_rows=None)


def oracle_model(carrier, order, star, unit, arrow=None):
    """Oracle model of raw index-based inputs, as `assemble_algebra` takes them."""
    nm = list(carrier)

    def rows(table):
        return {nm[x]: [nm[v] for v in table[x]] for x in range(len(nm))}

    return oracle.Model(
        nm, [(nm[x], nm[y]) for x, y in order], rows(star), nm[unit],
        None if arrow is None else rows(arrow),
    )


def _chain(names, star, unit):
    """The chain names[0] < names[1] < ... with x*y = star(x, y) on indices,
    strictly built; the residual is derived."""
    n = len(names)
    alg, _ = assemble_algebra(
        names,
        [(i, i + 1) for i in range(n - 1)],
        [[star(x, y) for y in range(n)] for x in range(n)],
        unit=unit,
    )
    return alg


@lru_cache(maxsize=None)
def sugihara_chain(k):
    """The odd Sugihara chain S_(2k+1) on -k < ... < k, named "-k" .. "k".

    x*y is the factor of larger absolute value, the smaller one on a tie.
    The unit 0 is not top, so the chain is idempotent but not integral. Its
    filters are the upsets of e <= 0; all are prime, implicative and
    distributive, only the upset of -k+1 is maximal and only the carrier is
    affine.
    """
    def star(x, y):
        if abs(x - k) == abs(y - k):
            return min(x, y)
        return x if abs(x - k) > abs(y - k) else y

    return _chain([str(i) for i in range(-k, k + 1)], star, unit=k)


@lru_cache(maxsize=None)
def godel_chain(n):
    """The Gödel chain G_n on g0 < ... < g(n-1) with x*y = min(x, y).

    It is integral and idempotent, every upset is a filter, and every
    classification flag holds except maximality, which only the upset of g1
    has.
    """
    return _chain([f"g{i}" for i in range(n)], min, unit=n - 1)


@lru_cache(maxsize=None)
def lukasiewicz_chain(n):
    """The Łukasiewicz chain Ł_n on l0 < ... < l(n-1) with
    x*y = max(0, x + y - (n-1)).

    For n >= 3 its only filters are {top} and the carrier; {top} is maximal
    and not implicative.
    """
    return _chain(
        [f"l{i}" for i in range(n)], lambda x, y: max(0, x + y - (n - 1)), unit=n - 1
    )


def ordinal_sum(a, b):
    """The ordinal sum A ⊕ B of two integral algebras, strictly built.

    The carrier is (A ∖ {1}) ∪ B, named "a.x" and "b.y", with every element
    of A ∖ {1} below every element of B. `*` is A's within A ∖ {1} and B's
    within B, and a*b = b*a = a across; the residual is derived. A filter
    is either a filter of B or (F ∖ {1}) ∪ B for a filter F ≠ {1} of A, so
    A ⊕ B has |Filt A| + |Filt B| − 1 filters, and when A is a chain
    p(A) + p(B) − 1 prime filters.
    """
    assert a.unit == a.top and b.unit == b.top, "ordinal sums of integral algebras"
    low = [x for x in range(a.n) if x != a.unit]
    m = len(low)
    at = {x: i for i, x in enumerate(low)}

    def star(i, j):
        if i >= m and j >= m:
            return m + b.star_table[i - m][j - m]
        if i < m and j < m:
            return at[a.star_table[low[i]][low[j]]]
        return min(i, j)

    n = m + b.n
    order = ([(at[x], at[y]) for x in low for y in low if a.leq_table[x][y]]
             + [(i, j) for i in range(m) for j in range(m, n)]
             + [(m + x, m + y) for x in range(b.n) for y in range(b.n) if b.leq_table[x][y]])
    alg, _ = assemble_algebra(
        [f"a.{a.carrier[x]}" for x in low] + [f"b.{y}" for y in b.carrier],
        order,
        [[star(i, j) for j in range(n)] for i in range(n)],
        unit=m + b.unit,
    )
    return alg

"""Shared fixture-loading helpers for the test suite."""
from __future__ import annotations

from functools import lru_cache

import oracle
from ilalg import assemble_algebra, build_algebra, parse_spec
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


@lru_cache(maxsize=None)
def bool2_power(k):
    """bool2^k; its elements are named by their k coordinates joined by '.'."""
    alg = algebra_of("bool2")
    for _ in range(k - 1):
        alg = direct_product(alg, algebra_of("bool2"))
    return alg

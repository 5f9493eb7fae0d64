"""Brute-force reference computations used to cross-check the engines.

Everything here is written for obviousness, not speed: name-keyed dicts,
exhaustive sweeps with itertools.product, sets instead of bitmasks, and no
imports from the package under test. Verdicts produced by this module are
frozen into the fixture sidecars and compared against engine output.
"""
from __future__ import annotations

import copy
import itertools


def reflexive_transitive_closure(names, pairs):
    le = {(a, b): a == b for a in names for b in names}
    for a, b in pairs:
        le[(a, b)] = True
    changed = True
    while changed:
        changed = False
        for a, b, c in itertools.product(names, repeat=3):
            if le[(a, b)] and le[(b, c)] and not le[(a, c)]:
                le[(a, c)] = True
                changed = True
    return le


def antisymmetry_failures(names, le):
    return [(a, b) for a in names for b in names
            if a != b and le[(a, b)] and le[(b, a)]]


def upper_bounds(names, le, xs):
    return [u for u in names if all(le[(x, u)] for x in xs)]


def lower_bounds(names, le, xs):
    return [u for u in names if all(le[(u, x)] for x in xs)]


def least_of(names, le, candidates):
    hits = [u for u in candidates if all(le[(u, v)] for v in candidates)]
    return hits[0] if len(hits) == 1 else None


def greatest_of(names, le, candidates):
    hits = [u for u in candidates if all(le[(v, u)] for v in candidates)]
    return hits[0] if len(hits) == 1 else None


def least_upper_bound(names, le, xs):
    return least_of(names, le, upper_bounds(names, le, xs))


def greatest_lower_bound(names, le, xs):
    return greatest_of(names, le, lower_bounds(names, le, xs))


def least_element(names, le):
    return least_of(names, le, names)


def derive_arrow_entry(model, x, z):
    """Greatest w with x*w <= z, or None if there is no unique greatest."""
    solutions = [w for w in model.names if model.le[(model.star[(x, w)], z)]]
    if not solutions:
        return None
    return greatest_of(model.names, model.le, solutions)


class Model:
    """A finite algebra candidate held as plain name-keyed dictionaries.

    The order relation, join/meet, bottom and top are always recomputed from
    the raw inputs; nothing is trusted from the engine under test.
    """

    def __init__(self, names, order_pairs, star_rows, unit, arrow_rows=None):
        self.names = list(names)
        self.unit = unit
        self.le = reflexive_transitive_closure(self.names, order_pairs)
        self.star = self._table(star_rows)
        self.join = {(a, b): least_upper_bound(self.names, self.le, [a, b])
                     for a in self.names for b in self.names}
        self.meet = {(a, b): greatest_lower_bound(self.names, self.le, [a, b])
                     for a in self.names for b in self.names}
        self.bottom = least_element(self.names, self.le)
        if arrow_rows is not None:
            self.arrow = self._table(arrow_rows)
        else:
            self.arrow = {(a, b): derive_arrow_entry(self, a, b)
                          for a in self.names for b in self.names}
        self.top = self.arrow[(self.bottom, self.bottom)] if self.bottom else None

    def _table(self, rows):
        return {(a, self.names[i]): rows[a][i]
                for a in self.names for i in range(len(self.names))}

    def with_tables(self, star_rows, arrow_rows):
        """A copy with other star and arrow rows. The order, join, meet and
        bottom come from the order pairs alone, so they are kept."""
        m = copy.copy(self)
        m.star, m.arrow = m._table(star_rows), m._table(arrow_rows)
        m.top = m.arrow[(m.bottom, m.bottom)] if m.bottom else None
        return m

    def index(self, name):
        return self.names.index(name)

    def pairs(self):
        return itertools.product(self.names, repeat=2)

    def triples(self):
        return itertools.product(self.names, repeat=3)


def law_failures(m):
    """All core-law violations, keyed by the engine's law vocabulary."""
    out = {
        "order-antisymmetric": antisymmetry_failures(m.names, m.le),
        "least-element": [] if m.bottom is not None else [()],
        "join-exists": [(a, b) for a, b in m.pairs() if m.join[(a, b)] is None],
        "meet-exists": [(a, b) for a, b in m.pairs() if m.meet[(a, b)] is None],
        "star-commutative": [
            (a, b)
            for i, a in enumerate(m.names) for b in m.names[i + 1:]
            if m.star[(a, b)] != m.star[(b, a)]
        ],
        "star-associative": [
            (a, b, c) for a, b, c in m.triples()
            if m.star[(m.star[(a, b)], c)] != m.star[(a, m.star[(b, c)])]
        ],
        "star-unit": (
            [(m.unit, a) for a in m.names if m.star[(m.unit, a)] != a]
            + [(a, m.unit) for a in m.names if m.star[(a, m.unit)] != a]
        ),
        "residuation": [
            (a, b, c) for a, b, c in m.triples()
            if m.arrow[(b, c)] is None
            or m.le[(m.star[(a, b)], c)] != m.le[(a, m.arrow[(b, c)])]
        ],
        "top-greatest": (
            [] if m.top is not None and all(m.le[(a, m.top)] for a in m.names)
            else [(a,) for a in m.names
                  if m.top is None or not m.le[(a, m.top)]]
        ),
    }
    return {law: wits for law, wits in out.items() if wits}


def identity_failures(m):
    """Violations of the eleven derived identities, keyed by law name."""
    out = {}

    def record(law, witness):
        out.setdefault(law, []).append(witness)

    for a, b, c in m.triples():
        if m.star[(a, m.join[(b, c)])] != m.join[(m.star[(a, b)], m.star[(a, c)])]:
            record("star-distributes-join", (a, b, c))
    if m.top is None:
        record("top-greatest", ())
    else:
        for a in m.names:
            if not m.le[(a, m.top)]:
                record("top-greatest", (a,))
    for a, b in m.pairs():
        if m.le[(a, m.unit)] and m.le[(b, m.unit)]:
            if not m.le[(m.star[(a, b)], m.meet[(a, b)])]:
                record("subunit-star-below-meet", (a, b))
        if m.le[(m.unit, a)] and m.le[(m.unit, b)]:
            if not m.le[(m.join[(a, b)], m.star[(a, b)])]:
                record("superunit-join-below-star", (a, b))
    for a, b, c in m.triples():
        if not m.le[(m.star[(m.arrow[(a, b)], m.arrow[(b, c)])], m.arrow[(a, c)])]:
            record("arrow-transitive", (a, b, c))
    for a in m.names:
        if m.arrow[(m.unit, a)] != a:
            record("unit-arrow-identity", (a,))
    for a, b, a1, b1 in itertools.product(m.names, repeat=4):
        if m.le[(a, a1)] and m.le[(b, b1)]:
            if not m.le[(m.star[(a, b)], m.star[(a1, b1)])]:
                record("star-monotone", (a, b, a1, b1))
            if not m.le[(m.arrow[(a1, b)], m.arrow[(a, b1)])]:
                record("arrow-antitone", (a, b, a1, b1))
    for a, b, c in m.triples():
        if m.arrow[(a, m.arrow[(b, c)])] != m.arrow[(m.star[(a, b)], c)]:
            record("arrow-curry", (a, b, c))
    for a, b in m.pairs():
        if not m.le[(m.star[(a, m.arrow[(a, b)])], b)]:
            record("modus-ponens", (a, b))
    for a in m.names:
        if not m.le[(m.unit, m.arrow[(a, a)])]:
            record("self-arrow-above-unit", (a,))
    return out


def filter_failure(m, members):
    """First broken filter condition for a subset, or None if it is a filter."""
    sub = set(members)
    if m.unit not in sub:
        return ("unit-member", (m.unit,))
    for a, b in m.pairs():
        if a in sub and b in sub and m.star[(a, b)] not in sub:
            return ("star-closed", (a, b))
    for a, b in m.pairs():
        if a in sub and b in sub and m.meet[(a, b)] not in sub:
            return ("meet-closed", (a, b))
    for a in m.names:
        for b in m.names:
            if a in sub and m.le[(a, b)] and b not in sub:
                return ("upward-closed", (a, b))
    return None


def sweep_filters(m):
    """Every filter, found by sweeping all 2^n subsets; sorted by index mask."""
    found = []
    for size in range(len(m.names) + 1):
        for combo in itertools.combinations(m.names, size):
            if filter_failure(m, combo) is None:
                found.append(list(combo))
    def mask(members):
        return sum(1 << m.index(name) for name in members)
    return sorted(found, key=mask)


def least_filter_containing(m, members):
    """Smallest filter that contains the given subset (sweep, then minimize)."""
    candidates = [set(f) for f in sweep_filters(m) if set(members) <= set(f)]
    best = set(m.names)
    for cand in candidates:
        if cand <= best:
            best = cand
    return sorted(best, key=m.index)


def is_distributive_filter(m, members):
    sub = set(members)
    for a, b, c in m.triples():
        lhs = m.meet[(m.join[(a, b)], m.join[(a, c)])]
        rhs = m.join[(a, m.meet[(b, c)])]
        if m.arrow[(lhs, rhs)] not in sub:
            return False, (a, b, c)
    return True, None


def is_prime_filter(m, members):
    sub = set(members)
    for i, a in enumerate(m.names):
        for b in m.names[i:]:
            if m.arrow[(a, b)] not in sub and m.arrow[(b, a)] not in sub:
                return False, (a, b)
    return True, None


def is_implicative_filter(m, members):
    sub = set(members)
    if m.unit not in sub:
        return False, (m.unit,)
    for a, b, c in m.triples():
        if (m.arrow[(a, m.arrow[(b, c)])] in sub
                and m.arrow[(a, b)] in sub
                and m.arrow[(a, c)] not in sub):
            return False, (a, b, c)
    return True, None


def is_affine_filter(m, members):
    return m.arrow[(m.top, m.unit)] in set(members)


def is_maximal_filter(m, members):
    sub = set(members)
    if sub == set(m.names):
        return False
    for other in sweep_filters(m):
        if set(other) != set(m.names) and sub < set(other):
            return False
    return True


def classify(m, members):
    return {
        "distributive": is_distributive_filter(m, members)[0],
        "prime": is_prime_filter(m, members)[0],
        "maximal": is_maximal_filter(m, members),
        "implicative": is_implicative_filter(m, members)[0],
        "affine": is_affine_filter(m, members),
    }


def congruence_blocks(m, members):
    """Partition induced by the filter: x ~ y iff both arrows land in it."""
    sub = set(members)

    def related(a, b):
        return m.arrow[(a, b)] in sub and m.arrow[(b, a)] in sub

    classes = {a: frozenset(b for b in m.names if related(a, b)) for a in m.names}
    for a in m.names:
        assert a in classes[a], "congruence not reflexive"
        for b in classes[a]:
            assert classes[a] == classes[b], "congruence classes inconsistent"
    blocks = sorted({classes[a] for a in m.names},
                    key=lambda blk: min(m.index(x) for x in blk))
    return [sorted(blk, key=m.index) for blk in blocks]


def quotient_well_definedness_failure(m, members):
    """First representative pair where a block operation disagrees, else None."""
    blocks = congruence_blocks(m, members)
    block_of = {a: tuple(blk) for blk in blocks for a in blk}
    ops = [
        ("join", m.join), ("meet", m.meet), ("star", m.star), ("arrow", m.arrow),
    ]
    for opname, table in ops:
        for blk_x in blocks:
            for blk_y in blocks:
                results = {block_of[table[(x, y)]]
                           for x in blk_x for y in blk_y}
                if len(results) != 1:
                    return (opname, blk_x[0], blk_x[-1], blk_y[0], blk_y[-1])
    sub = set(members)
    for blk_x in blocks:
        for blk_y in blocks:
            votes = {m.arrow[(x, y)] in sub for x in blk_x for y in blk_y}
            if len(votes) != 1:
                return ("order", blk_x[0], blk_x[-1], blk_y[0], blk_y[-1])
    return None


def quotient_verdicts(m, members):
    """Structure facts about L/F, computed on representatives."""
    blocks = congruence_blocks(m, members)
    reps = [blk[0] for blk in blocks]
    block_of = {a: next(i for i, blk in enumerate(blocks) if a in blk)
                for a in m.names}
    sub = set(members)
    qle = {(i, j): m.arrow[(reps[i], reps[j])] in sub
           for i in range(len(reps)) for j in range(len(reps))}
    qjoin = {(i, j): block_of[m.join[(reps[i], reps[j])]]
             for i in range(len(reps)) for j in range(len(reps))}
    qmeet = {(i, j): block_of[m.meet[(reps[i], reps[j])]]
             for i in range(len(reps)) for j in range(len(reps))}
    qstar = {(i, j): block_of[m.star[(reps[i], reps[j])]]
             for i in range(len(reps)) for j in range(len(reps))}
    rng = range(len(reps))
    distributive = all(
        qjoin[(i, qmeet[(j, k)])] == qmeet[(qjoin[(i, j)], qjoin[(i, k)])]
        for i, j, k in itertools.product(rng, repeat=3)
    )
    linear = all(qle[(i, j)] or qle[(j, i)] for i in rng for j in rng)
    integral = all(qle[(qstar[(i, j)], i)] for i in rng for j in rng)
    return {
        "blocks": blocks,
        "order_matches_prop": all(
            qle[(block_of[a], block_of[b])] == (m.arrow[(a, b)] in sub)
            for a, b in m.pairs()
        ),
        "distributive": distributive,
        "linear": linear,
        "unit_equals_top": block_of[m.unit] == block_of[m.top],
        "integral": integral,
        "singleton_blocks": all(len(blk) == 1 for blk in blocks),
    }


def is_idempotent(m):
    for a in m.names:
        if m.star[(a, a)] != a:
            return False, a
    return True, None


def is_integral(m):
    return all(m.le[(m.star[(a, b)], a)] for a, b in m.pairs())

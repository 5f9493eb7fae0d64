"""The judges that no command runs on a valid build: `check_identities`
(the suite `identity_laws` as one report), `check_lattice` (the order and
bound-table laws, which assembly makes hold by construction, for values
built by hand) and `check_integrality_equivalence`.

Every identity here is a theorem of the IL-algebra laws (Galatos,
Jipsen, Kowalski and Ono, *Residuated Lattices*, 2007, section 2.2; Jipsen
and Tsinakis, "A survey of residuated lattices", 2002). Each takes one line
from x*y <= z <=> x <= y->z, commutativity and the unit:
- star-distributes-join, star-monotone: `*` is a left adjoint, so it
  preserves joins, x*(y join z) <= w <=> y, z <= x->w <=> x*y, x*z <= w,
  and is therefore monotone.
- arrow-antitone: for x <= x1 and y <= y1, (x1->y)*x <= (x1->y)*x1 <= y <= y1,
  so x1->y <= x->y1; `->` is antitone in its first argument.
- arrow-curry: w <= (x*y)->z <=> w*x*y <= z <=> w <= x->(y->z) for every w.
- modus-ponens: x->y <= x->y gives x*(x->y) <= y. With monotonicity,
  (x->y)*(y->z)*x <= y*(y->z) <= z, which is arrow-transitive.
- unit-arrow-identity: w <= 1->x <=> w*1 <= x <=> w <= x for every w.
  self-arrow-above-unit: 1*x <= x gives 1 <= x->x.
- subunit-star-below-meet: x, y <= 1 gives x*y <= x*1 = x and x*y <= 1*y = y.
  superunit-join-below-star: 1 <= x, y gives x = x*1 <= x*y and y <= x*y.
- top-greatest is the build report's own top suite.
So an algebra whose build report is empty (`valid`) passes every identity.
`ilalg check` prints that verdict without the sweep, and imports this
module only on a lenient build with violations, so no other command
compiles it.

The suites over triples walk rows as `ilalg.core` describes; arrow-curry
and star-distributes-join are two of its curried laws. The other checks
compare against the order instead of a table row:
- arrow-transitive asks that the row (x->y)*(y->z) lie pointwise below the
  row x->z. Each row becomes an int with one 64-bit lane per z, one holding
  the one-hot bit of its entry and the other the down mask of its entry, so
  one AND answers the whole row.
- the monotonicity identities range over x <= x1 and y <= y1. Lane x1 of
  an int per column y1 holds down[x1*y1]; ANDed over the up-list of y,
  transposed, and ANDed over the up-list of x, lane y of row x holds what
  lies below every x1*y1 of the block of (x, y), and one AND with the
  one-hot row of x names its failing blocks. Arrow takes the down-list of
  x1 for the up-list of x. The ANDs run over every pair of a block, not
  over covers, which span an upset only in a transitive relation, so the
  blocks are exact on any relation.
Arrow-transitive sorts its failing (x, y) pairs; the monotonicity
identities list the witnesses of each (x, y) in turn, sorted, which
restores the lexicographic order of the sweep and holds at most n^2 blocks.
"""
from __future__ import annotations

from functools import reduce

from .core import (
    FiniteILAlgebra,
    VerificationReport,
    Violation,
    _bits,
    _curried,
    _lookups,
    _order_masks,
    _rows,
    _top_laws,
)
from .errors import BuildError


def _lanes(row: bytes, masks: list[bytes]) -> int:
    """An int whose 64-bit lane k holds masks[row[k]], each mask given as
    8 little-endian bytes."""
    return int.from_bytes(b"".join(map(masks.__getitem__, row)), "little")


def _monotone_blocks(tab, near, ups, down_lanes, onehot):
    """The pairs (a, y), ascending, where some tab[b][y1] with b in near[a]
    and y1 in ups[y] does not lie above tab[a][y]."""
    n, full = len(tab), (1 << 64 * len(tab)) - 1
    # Lane y of by_b[b] holds what lies below every tab[b][y1], y1 in ups[y].
    cols = [_lanes(bytes(col), down_lanes) for col in zip(*tab)]
    by_y = [reduce(int.__and__, map(cols.__getitem__, at), full) for at in ups]
    flat = memoryview(b"".join(m.to_bytes(8 * n, "little") for m in by_y)).cast("Q")
    by_b = [int.from_bytes(flat[b::n].tobytes(), "little") for b in range(n)]
    for a in range(n):
        below = reduce(int.__and__, map(by_b.__getitem__, near[a]), full)
        bad = _lanes(bytes(tab[a]), onehot) & ~below
        if bad:
            lanes = memoryview(bad.to_bytes(8 * n, "little")).cast("Q")
            yield from ((a, y) for y in range(n) if lanes[y])


def identity_laws(alg: FiniteILAlgebra):
    """The violations of every identity, in the order of the sweep; the
    suite `check_identities` reports and `ilalg check --lenient` streams."""
    le, st, ar = alg.leq_table, alg.star_table, alg.arrow_table
    jn, mt, nm, n = alg.join_table, alg.meet_table, alg.carrier, alg.n
    u = alg.unit
    st_rows, ar_rows, jn_rows = _rows(st), _rows(ar), _rows(jn)
    st_lookups, ar_lookups, jn_lookups = _lookups(st), _lookups(ar), _lookups(jn)
    up, down = _order_masks(le)
    ups, downs = [bytes(_bits(m)) for m in up], [bytes(_bits(m)) for m in down]

    # Over z: want (x*y) join (x*z) and got x*(y join z). Row s of x's
    # outer rows is x*z joined with s, built for one x at a time.
    outers = ([row.translate(t) for t in jn_lookups] for row in st_rows)
    for x, y, z, want, got in _curried(st, outers, jn_rows, st_lookups):
        yield Violation("star-distributes-join", (nm[x], nm[y], nm[z]), nm[want], nm[got])
    yield from _top_laws(alg, None)
    for x in range(n):
        for y in range(n):
            if le[x][u] and le[y][u] and not le[st[x][y]][mt[x][y]]:
                yield Violation("subunit-star-below-meet", (nm[x], nm[y]),
                                f"{nm[x]}*{nm[y]} <= {nm[x]} meet {nm[y]}", nm[st[x][y]])
            if le[u][x] and le[u][y] and not le[jn[x][y]][st[x][y]]:
                yield Violation("superunit-join-below-star", (nm[x], nm[y]),
                                f"{nm[x]} join {nm[y]} <= {nm[x]}*{nm[y]}", nm[st[x][y]])
    # arrow-transitive, over z: (x->y)*(y->z) <= x->z. The left row depends
    # on x only through a = x->y, so each (a, y) builds it once, as one-hot
    # lanes; lane z of below[x] is the down mask of x->z.
    onehot = [(1 << v).to_bytes(8, "little") for v in range(n)]
    down_lanes = [m.to_bytes(8, "little") for m in down]
    below = [_lanes(row, down_lanes) for row in ar_rows]
    failing = []
    for y in range(n):
        hots: dict[int, int] = {}
        for x in range(n):
            a = ar[x][y]
            if a not in hots:
                hots[a] = _lanes(ar_rows[y].translate(st_lookups[a]), onehot)
            if hots[a] & below[x] != hots[a]:
                failing.append((x, y))
    for x, y in sorted(failing):
        left = ar_rows[y].translate(st_lookups[ar[x][y]])
        for z in range(n):
            if not le[left[z]][ar[x][z]]:
                yield Violation("arrow-transitive", (nm[x], nm[y], nm[z]),
                                f"({nm[x]}->{nm[y]})*({nm[y]}->{nm[z]}) <= {nm[x]}->{nm[z]}",
                                "fails")
    for x in range(n):
        if ar[u][x] != x:
            yield Violation("unit-arrow-identity", (nm[x],), nm[x], nm[ar[u][x]])
    # x*y <= x1*y1 and x1->y <= x->y1 for x <= x1 and y <= y1. A failing star
    # block (x, y), or arrow block (x1, y) with x <= x1, has its witnesses
    # listed under (x, y), one (x, y) at a time. Star witnesses come out in
    # (x1, y1) order, so only a mix with arrow witnesses needs a sort.
    star_bad = set(_monotone_blocks(st, ups, ups, down_lanes, onehot))
    arrow_bad = set(_monotone_blocks(ar, downs, ups, down_lanes, onehot))
    for x, y in sorted(star_bad.union((x, y) for x1, y in arrow_bad for x in downs[x1])):
        block = [(x1, y1, False) for x1 in ups[x] for y1 in ups[y]
                 if not le[st[x][y]][st[x1][y1]]] if (x, y) in star_bad else []
        if arrow_bad:
            block += [(x1, y1, True) for x1 in ups[x] if (x1, y) in arrow_bad
                      for y1 in ups[y] if not le[ar[x1][y]][ar[x][y1]]]
            block.sort()
        for x1, y1, antitone in block:
            yield Violation(
                "arrow-antitone" if antitone else "star-monotone",
                (nm[x], nm[y], nm[x1], nm[y1]),
                f"{nm[x1]}->{nm[y]} <= {nm[x]}->{nm[y1]}" if antitone
                else f"{nm[x]}*{nm[y]} <= {nm[x1]}*{nm[y1]}",
                "fails",
            )
    # Over z: want (x*y)->z and got x->(y->z).
    for x, y, z, want, got in _curried(st, [ar_rows] * n, ar_rows, ar_lookups):
        yield Violation("arrow-curry", (nm[x], nm[y], nm[z]), nm[want], nm[got])
    for x in range(n):
        for y in range(n):
            if not le[st[x][ar[x][y]]][y]:
                yield Violation("modus-ponens", (nm[x], nm[y]),
                                f"{nm[x]}*({nm[x]}->{nm[y]}) <= {nm[y]}", nm[st[x][ar[x][y]]])
    for x in range(n):
        if not le[u][ar[x][x]]:
            yield Violation("self-arrow-above-unit", (nm[x],),
                            f"{nm[u]} <= {nm[x]}->{nm[x]}", nm[ar[x][x]])


def check_identities(alg: FiniteILAlgebra) -> VerificationReport:
    """The derived-identity suite as one report.

    Every one of these follows from the axioms (the proofs are above), so a
    valid algebra passes all of them; on a leniently built algebra the
    failures localize what is wrong with the tables. No command calls it:
    `ilalg check --lenient` streams `identity_laws` on a build with
    violations, and takes the verdict of a valid algebra from the proofs.
    """
    return VerificationReport(tuple(identity_laws(alg)))


def check_lattice(alg: FiniteILAlgebra) -> VerificationReport:
    """Order axioms, least element, and correctness of the bound tables, for
    values built by hand: assembled algebras pass it by construction."""
    return VerificationReport(tuple(_lattice_laws(alg)))


def _lattice_laws(alg: FiniteILAlgebra):
    le, nm, n = alg.leq_table, alg.carrier, alg.n
    up, down = _order_masks(le)
    for i in range(n):
        if not le[i][i]:
            yield Violation("order-reflexive", (nm[i],), "x <= x", "fails")
    for i in range(n):
        for j in range(i + 1, n):
            if le[i][j] and le[j][i]:
                yield Violation("order-antisymmetric", (nm[i], nm[j]),
                                "x <= y and y <= x only when x == y", "two-way pair")
    for i in range(n):
        for j in range(n):
            if not le[i][j]:
                continue
            for k in _bits(up[j] & ~up[i]):
                yield Violation("order-transitive", (nm[i], nm[j], nm[k]),
                                "x <= z", "x <= y <= z but not x <= z")
    for j in range(n):
        if not le[alg.bottom][j]:
            yield Violation("least-element", (nm[alg.bottom], nm[j]),
                            f"{nm[alg.bottom]} <= {nm[j]}", "fails")
    for i in range(n):
        for j in range(n):
            u = alg.join_table[i][j]
            if not (le[i][u] and le[j][u]) or up[i] & up[j] & ~up[u]:
                yield Violation("join-table", (nm[i], nm[j]), "least upper bound", nm[u])
            w = alg.meet_table[i][j]
            if not (le[w][i] and le[w][j]) or down[i] & down[j] & ~down[w]:
                yield Violation("meet-table", (nm[i], nm[j]), "greatest lower bound", nm[w])


def check_integrality_equivalence(alg: FiniteILAlgebra) -> bool:
    """x*y <= x for all pairs, which must coincide with top == unit.

    Returns the quantified side. The two sides agreeing is itself a theorem,
    so disagreement means the tables are not a valid algebra.
    """
    integral = all(
        alg.leq_table[alg.star_table[x][y]][x]
        for x in range(alg.n)
        for y in range(alg.n)
    )
    if integral != (alg.top == alg.unit):
        raise BuildError(
            "integrality and top == unit disagree; the tables do not form "
            "a valid algebra"
        )
    return integral

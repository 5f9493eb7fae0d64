"""Finite IL-algebras: exact operation tables and law checking with witnesses.

An IL-algebra is a lattice with least element `bot` that also carries a
commutative monoid `*` with unit `1` and a residual `->` adjoint to it:
x*y <= z holds exactly when x <= y->z. Nothing forces x*y <= x here, which
is what separates these structures from residuated lattices proper.

Every identity of `check_identities` is a theorem of these laws (Galatos,
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
So an algebra whose build report is empty (`valid`) passes every identity,
and `ilalg check` prints that verdict without the sweep.

Algebras are immutable after construction and every operation below is a
pure read, so instances are safe to share across threads.

The order is also read as per-element bitmasks: bit j of up[i], and bit i
of down[j], is set when i <= j. In a partial order an upset U has a least
element exactly when U == up[u], and a downset D a greatest exactly when
D == down[u], so bottom, joins and meets are dict lookups by mask. On any
relation, the members of S = {w1, ..., wm} above all of S are
S & up[w1] & ... & up[wm]; the residual takes the greatest solution only
when exactly one remains, so a relation with a cycle still has none. The
bound tables are checked against the same masks, and transitivity with k
taken from up[j] minus up[i] in ascending order.

The suites over triples compare a whole table row at a time. Every entry
is an index below n <= 64, so a row fits in `bytes`, and `bytes.translate`
gathers one. Four laws are curried: for fixed x and y they compare, over
z, row y of a table sent through row x of another with a row read off x*y.
`_curried` walks all four; the row each reads off x*y is
- star-associative: row x*y of star, (x*y)*z, against x*(y*z);
- residuation: row x*y of the order, x*y <= z, against x <= y->z;
- arrow-curry: row x*y of arrow, (x*y)->z, against x->(y->z);
- star-distributes-join: row x*y of the n rows (x*z) join s, built for one
  x at a time, against x*(y join z).
Two rows are compared with one bytes equality test, and only a row that
differs is walked element by element, in ascending order, to emit its
witnesses. Rows are visited in the order of (x, y), so every violation
comes out exactly as a sweep of all triples in lexicographic order gives
it, on any table.
Two checks compare against the order instead of a table row:
- arrow-transitive asks that the row (x->y)*(y->z) lie pointwise below the
  row x->z. Each row becomes an int with one 64-bit lane per z, one holding
  the one-hot bit of its entry and the other the down mask of its entry, so
  one AND answers the whole row.
- the monotonicity identities range over x <= x1 and y <= y1. For each
  (x, y), the entries x1*y1 are gathered over both up-lists, and
  `translate` deletes those in the upset of x*y; for each (x1, y) the same
  is done for x->y1 against x1->y. Whatever remains marks a failing block.
Both collect their failing tuples and sort them, which restores the
lexicographic order of the sweep.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Literal, NamedTuple

from .errors import BuildError, LawViolationError, NotResiduatedError

if TYPE_CHECKING:
    from .specfile import AlgebraSpecDocument

MAX_CARRIER = 64  # subsets of the carrier must fit in a machine-word bitmask

BuildMode = Literal["strict", "lenient"]


class Violation(NamedTuple):
    """One broken law instance: which law, at which elements, and how."""

    law: str
    witness: tuple[str, ...]
    expected: str
    found: str


class VerificationReport(NamedTuple):
    violations: tuple[Violation, ...] = ()
    # A build report also keeps each core suite's own report, as
    # (label, report) pairs in the order the suites ran.
    suites: tuple[tuple[str, "VerificationReport"], ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def status(self) -> str:
        return "pass" if self.ok else "fail"

    def by_law(self) -> dict[str, list[tuple[str, ...]]]:
        out: dict[str, list[tuple[str, ...]]] = {}
        for v in self.violations:
            out.setdefault(v.law, []).append(v.witness)
        return out


class FiniteILAlgebra(NamedTuple):
    """A finite IL-algebra held as index-based lookup tables.

    Element identity is the index into `carrier`; all tables are n x n and
    row-major in that indexing. `valid` records whether the full law suite
    passed at build time (lenient builds may carry broken tables on purpose).
    """

    carrier: tuple[str, ...]
    leq_table: tuple[tuple[bool, ...], ...]
    join_table: tuple[tuple[int, ...], ...]
    meet_table: tuple[tuple[int, ...], ...]
    star_table: tuple[tuple[int, ...], ...]
    arrow_table: tuple[tuple[int, ...], ...]
    bottom: int
    unit: int
    top: int
    valid: bool

    @property
    def n(self) -> int:
        return len(self.carrier)

    def index(self, name: str) -> int:
        try:
            return self.carrier.index(name)
        except ValueError:
            raise KeyError(f"unknown element name {name!r}") from None

    def name(self, i: int) -> str:
        self._check(i)
        return self.carrier[i]

    def names(self, indices: Iterable[int]) -> tuple[str, ...]:
        return tuple(self.name(i) for i in indices)

    def _check(self, *indices: int) -> None:
        for i in indices:
            if not 0 <= i < len(self.carrier):
                raise IndexError(f"element index {i} out of range 0..{self.n - 1}")

    def leq(self, x: int, y: int) -> bool:
        self._check(x, y)
        return self.leq_table[x][y]

    def join(self, x: int, y: int) -> int:
        self._check(x, y)
        return self.join_table[x][y]

    def meet(self, x: int, y: int) -> int:
        self._check(x, y)
        return self.meet_table[x][y]

    def star(self, x: int, y: int) -> int:
        self._check(x, y)
        return self.star_table[x][y]

    def arrow(self, x: int, y: int) -> int:
        self._check(x, y)
        return self.arrow_table[x][y]


def require_valid(alg: FiniteILAlgebra, operation: str) -> None:
    """Guard for operations that only make sense on law-valid algebras."""
    if not alg.valid:
        raise BuildError(
            f"{operation} requires an algebra that passed the law suite; "
            "this one was built leniently with violations"
        )


def transitive_closure(n: int, pairs: Iterable[tuple[int, int]]) -> list[list[bool]]:
    """Reflexive-transitive closure of a relation given as index pairs,
    by Warshall's algorithm over up masks."""
    up = [1 << i for i in range(n)]
    for a, b in pairs:
        up[a] |= 1 << b
    for k in range(n):
        bit, above = 1 << k, up[k]
        for i in range(n):
            if up[i] & bit:
                up[i] |= above
    return [[bool(m >> j & 1) for j in range(n)] for m in up]


def _bits(mask: int):
    """Indices of the set bits of `mask`, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _order_masks(le) -> tuple[list[int], list[int]]:
    """Up and down masks of a relation: bit j of up[i] and bit i of down[j]
    are both le[i][j]."""
    n = len(le)
    up, down = [0] * n, [0] * n
    for i, row in enumerate(le):
        for j, related in enumerate(row):
            if related:
                up[i] |= 1 << j
                down[j] |= 1 << i
    return up, down


def derive_arrow(star, le) -> list[list[int]]:
    """Residual table from the monoid table and the order.

    Entry (x, z) is the greatest w with x*w <= z; "greatest" means the unique
    element of the solution set above all of it, never an arbitrary maximal
    pick. Raises NotResiduatedError listing every (x, z) where the solution
    set is empty or has no greatest element.
    """
    n = len(le)
    up, _ = _order_masks(le)
    table = [[0] * n for _ in range(n)]
    failures = []
    for x in range(n):
        # w grouped by the value x*w, so each (x, z) tests each value once;
        # each group also carries the AND of its members' up masks.
        preimages: dict[int, tuple[int, int]] = {}
        for w, s in enumerate(star[x]):
            ws, ws_above = preimages.get(s, (0, -1))
            preimages[s] = ws | 1 << w, ws_above & up[w]
        for z in range(n):
            solutions, above = 0, -1
            for s, (ws, ws_above) in preimages.items():
                if le[s][z]:
                    solutions |= ws
                    above &= ws_above
            best = solutions & above
            if best and not best & best - 1:
                table[x][z] = best.bit_length() - 1
            else:
                failures.append((x, z))
    if failures:
        raise NotResiduatedError(failures)
    return table


def assemble_algebra(
    carrier: Iterable[str],
    order_pairs: Iterable[tuple[int, int]],
    star,
    unit: int,
    arrow=None,
    declared_bottom: int | None = None,
    declared_top: int | None = None,
    mode: BuildMode = "strict",
) -> tuple[FiniteILAlgebra, VerificationReport]:
    """Build an algebra from raw index-based inputs and run the law suite.

    Structural problems (bad dimensions, order cycles, no least element,
    missing joins or meets, underivable residual) raise BuildError in both
    modes; law violations raise LawViolationError only in strict mode. The
    result passes `check_lattice` by construction, so that is not swept.
    """
    names = tuple(carrier)
    n = len(names)
    if n == 0:
        raise BuildError("carrier is empty")
    if n > MAX_CARRIER:
        raise BuildError(
            f"carrier has {n} elements, but at most {MAX_CARRIER} are "
            "supported (subsets are machine-word bitmasks)"
        )
    if len(set(names)) != n:
        raise BuildError("carrier names are not unique")
    _check_table("star", star, n)
    if arrow is not None:
        _check_table("arrow", arrow, n)
    if not 0 <= unit < n:
        raise BuildError(f"unit index {unit} out of range")
    order_pairs = list(order_pairs)
    for a, b in order_pairs:
        if not (0 <= a < n and 0 <= b < n):
            raise BuildError(f"order pair ({a}, {b}) out of range")

    le = transitive_closure(n, order_pairs)
    for i in range(n):
        for j in range(i + 1, n):
            if le[i][j] and le[j][i]:
                raise BuildError(
                    f"order contains a cycle through {names[i]!r} and {names[j]!r}"
                )

    up, down = _order_masks(le)
    least = {mask: u for u, mask in enumerate(up)}
    greatest = {mask: u for u, mask in enumerate(down)}
    bottom = least.get((1 << n) - 1)
    if bottom is None:
        raise BuildError("order has no least element")
    if declared_bottom is not None and declared_bottom != bottom:
        raise BuildError(
            f"declared bottom {names[declared_bottom]!r} is not the least "
            f"element (computed {names[bottom]!r})"
        )

    # Both bounds are symmetric in (i, j), and so is failing, so the first
    # failing pair in row-major order has i <= j.
    join = [[0] * n for _ in range(n)]
    meet = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            lub = least.get(up[i] & up[j])
            if lub is None:
                raise BuildError(
                    f"pair ({names[i]}, {names[j]}) has no least upper bound"
                )
            glb = greatest.get(down[i] & down[j])
            if glb is None:
                raise BuildError(
                    f"pair ({names[i]}, {names[j]}) has no greatest lower bound"
                )
            join[i][j] = join[j][i] = lub
            meet[i][j] = meet[j][i] = glb

    if arrow is None:
        arrow = derive_arrow(star, le)

    top = arrow[bottom][bottom]

    alg = FiniteILAlgebra(
        carrier=names,
        leq_table=_freeze(le),
        join_table=_freeze(join),
        meet_table=_freeze(meet),
        star_table=_freeze(star),
        arrow_table=_freeze(arrow),
        bottom=bottom,
        unit=unit,
        top=top,
        valid=False,
    )

    # The lattice laws hold by construction. The closure starts from
    # up[i] = 1 << i (reflexive) and is Warshall's (transitive); a cycle
    # (antisymmetry) or no least[(1 << n) - 1] (least element) raised above;
    # up[lub] == up[i] & up[j] is check_lattice's join test; meets are dual.
    suites = (
        ("lattice", VerificationReport()),
        ("monoid", check_monoid(alg)),
        ("residuation", check_residuation(alg)),
    )
    violations = [v for _, part in suites for v in part.violations]
    violations += _check_top(alg, declared_top).violations
    report = VerificationReport(tuple(violations), suites)
    alg = alg._replace(valid=report.ok)
    if mode == "strict" and not report.ok:
        raise LawViolationError(report)
    return alg, report


def build_algebra(
    doc: "AlgebraSpecDocument", mode: BuildMode = "strict"
) -> tuple[FiniteILAlgebra, VerificationReport]:
    """Assemble an algebra from a parsed description document. Every name
    goes through one resolver, and the first bad one is reported, in the
    order: order pairs, star rows, arrow rows, unit, bottom, top."""
    names = list(doc.elements)
    if not names:
        raise BuildError("document has no elements")
    index = {e: i for i, e in enumerate(names)}

    def resolve(name, what):
        if name not in index:
            raise BuildError(f"unknown element name {name!r} in {what}")
        return index[name]

    def table(what, rows):
        for e in names:
            if e not in rows:
                raise BuildError(f"missing {what} row for {e!r}")
        for e in rows:
            resolve(e, f"{what} rows")
        out = []
        for e in names:
            row = rows[e]
            if len(row) != len(names):
                raise BuildError(
                    f"{what} row for {e!r} has {len(row)} entries, "
                    f"expected {len(names)}"
                )
            out.append([resolve(v, f"{what} row") for v in row])
        return out

    def declared(name, what):
        return None if name is None else resolve(name, what)

    pairs = [
        (resolve(a, "order"), resolve(b, "order")) for a, b in doc.order_pairs
    ]
    star = table("star", doc.star_rows)
    arrow = None if doc.arrow_rows is None else table("arrow", doc.arrow_rows)
    return assemble_algebra(
        names,
        pairs,
        star,
        unit=resolve(doc.unit, "unit"),
        arrow=arrow,
        declared_bottom=declared(doc.declared_bottom, "bottom"),
        declared_top=declared(doc.declared_top, "top"),
        mode=mode,
    )


def _check_table(what, table, n):
    if len(table) != n:
        raise BuildError(f"{what} table has {len(table)} rows, expected {n}")
    for i, row in enumerate(table):
        if len(row) != n:
            raise BuildError(
                f"{what} table row {i} has {len(row)} entries, expected {n}"
            )
        for v in row:
            if not 0 <= v < n:
                raise BuildError(f"{what} table entry {v} out of range")


def _freeze(table):
    return tuple(tuple(row) for row in table)


def _rows(table) -> list[bytes]:
    """Each row of an n x n table as bytes; every entry is below n <= 64."""
    return [bytes(row) for row in table]


def _lookup(row) -> bytes:
    """A row padded to a bytes.translate table: `index_row.translate(t)` is
    `bytes(row[k] for k in index_row)`."""
    return bytes(row).ljust(256, b"\0")


def _lookups(table) -> list[bytes]:
    """`_lookup` of each row of a table."""
    return [_lookup(row) for row in table]


def _mismatches(left: bytes, right: bytes, start: int = 0) -> list[int]:
    """Positions k >= start where two rows differ, ascending."""
    if left[start:] == right[start:]:
        return []
    return [k for k in range(start, len(left)) if left[k] != right[k]]


def _curried(st, outers, inner, lookups):
    """(x, y, z, left[z], right[z]) wherever the row left = outers[x][x*y]
    differs from right = inner[y] translated through lookups[x], for x, y
    and z ascending. `outers` is read one x at a time."""
    for x, (st_x, outer, lookup_x) in enumerate(zip(st, outers, lookups)):
        for y, s in enumerate(st_x):
            left, right = outer[s], inner[y].translate(lookup_x)
            if left != right:
                for z in _mismatches(left, right):
                    yield x, y, z, left[z], right[z]


def _lanes(row: bytes, masks: list[bytes]) -> int:
    """An int whose 64-bit lane k holds masks[row[k]], each mask given as
    8 little-endian bytes."""
    return int.from_bytes(b"".join(map(masks.__getitem__, row)), "little")


def check_lattice(alg: FiniteILAlgebra) -> VerificationReport:
    """Order axioms, least element, and correctness of the bound tables, for
    values built by hand: assembled algebras pass it by construction."""
    le, nm, n = alg.leq_table, alg.carrier, alg.n
    up, down = _order_masks(le)
    out: list[Violation] = []
    for i in range(n):
        if not le[i][i]:
            out.append(Violation("order-reflexive", (nm[i],), "x <= x", "fails"))
    for i in range(n):
        for j in range(i + 1, n):
            if le[i][j] and le[j][i]:
                out.append(
                    Violation(
                        "order-antisymmetric", (nm[i], nm[j]),
                        "x <= y and y <= x only when x == y", "two-way pair",
                    )
                )
    for i in range(n):
        for j in range(n):
            if not le[i][j]:
                continue
            for k in _bits(up[j] & ~up[i]):
                out.append(
                    Violation(
                        "order-transitive", (nm[i], nm[j], nm[k]),
                        "x <= z", "x <= y <= z but not x <= z",
                    )
                )
    for j in range(n):
        if not le[alg.bottom][j]:
            out.append(
                Violation(
                    "least-element", (nm[alg.bottom], nm[j]),
                    f"{nm[alg.bottom]} <= {nm[j]}", "fails",
                )
            )
    for i in range(n):
        for j in range(n):
            u = alg.join_table[i][j]
            if not (le[i][u] and le[j][u]) or up[i] & up[j] & ~up[u]:
                out.append(
                    Violation(
                        "join-table", (nm[i], nm[j]),
                        "least upper bound", nm[u],
                    )
                )
            w = alg.meet_table[i][j]
            if not (le[w][i] and le[w][j]) or down[i] & down[j] & ~down[w]:
                out.append(
                    Violation(
                        "meet-table", (nm[i], nm[j]),
                        "greatest lower bound", nm[w],
                    )
                )
    return VerificationReport(tuple(out))


def check_monoid(alg: FiniteILAlgebra) -> VerificationReport:
    """Commutativity over all pairs, associativity over all triples, and the
    unit law in both argument positions."""
    st, nm, n = alg.star_table, alg.carrier, alg.n
    rows, cols, lookups = _rows(st), _rows(zip(*st)), _lookups(st)
    out: list[Violation] = []
    for i in range(n):
        for j in _mismatches(rows[i], cols[i], i + 1):
            out.append(
                Violation(
                    "star-commutative", (nm[i], nm[j]),
                    f"{nm[i]}*{nm[j]} == {nm[j]}*{nm[i]}",
                    f"{nm[st[i][j]]} vs {nm[st[j][i]]}",
                )
            )
    # Over z: found (x*y)*z and expected x*(y*z).
    out += [
        Violation(
            "star-associative", (nm[x], nm[y], nm[z]), nm[expected], nm[found]
        )
        for x, y, z, found, expected in _curried(st, [rows] * n, rows, lookups)
    ]
    u = alg.unit
    for i in range(n):
        if st[u][i] != i:
            out.append(
                Violation("star-unit", (nm[u], nm[i]), nm[i], nm[st[u][i]])
            )
    for i in range(n):
        if st[i][u] != i:
            out.append(
                Violation("star-unit", (nm[i], nm[u]), nm[i], nm[st[i][u]])
            )
    return VerificationReport(tuple(out))


def check_residuation(alg: FiniteILAlgebra) -> VerificationReport:
    """Both directions of the adjunction over all triples."""
    le, st, nm, n = alg.leq_table, alg.star_table, alg.carrier, alg.n
    le_rows, le_lookups, ar_rows = _rows(le), _lookups(le), _rows(alg.arrow_table)
    # Over z: starred x*y <= z and arrowed x <= y->z.
    return VerificationReport(tuple(
        Violation(
            "residuation", (nm[x], nm[y], nm[z]),
            "both directions agree",
            f"{nm[x]}*{nm[y]} <= {nm[z]} but not "
            f"{nm[x]} <= {nm[y]}->{nm[z]}"
            if starred
            else f"{nm[x]} <= {nm[y]}->{nm[z]} but not "
            f"{nm[x]}*{nm[y]} <= {nm[z]}",
        )
        for x, y, z, starred, _ in _curried(st, [le_rows] * n, ar_rows, le_lookups)
    ))


def _check_top(alg: FiniteILAlgebra, declared_top: int | None) -> VerificationReport:
    nm = alg.carrier
    out: list[Violation] = []
    if declared_top is not None and declared_top != alg.top:
        out.append(
            Violation(
                "top-declared", (nm[declared_top],),
                f"bot->bot == {nm[alg.top]}", nm[declared_top],
            )
        )
    for i in range(alg.n):
        if not alg.leq_table[i][alg.top]:
            out.append(
                Violation(
                    "top-greatest", (nm[i],),
                    f"{nm[i]} <= {nm[alg.top]}", "fails",
                )
            )
    return VerificationReport(tuple(out))


def check_identities(alg: FiniteILAlgebra) -> VerificationReport:
    """The derived-identity suite.

    Every one of these follows from the axioms (the proofs are in the module
    docstring), so a valid algebra passes all of them; on a leniently built
    algebra the failures localize what is wrong with the tables. The CLI
    runs it only on a lenient build with violations, and takes the verdict
    of a valid algebra from the proofs.
    """
    le, st, ar = alg.leq_table, alg.star_table, alg.arrow_table
    jn, mt, nm, n = alg.join_table, alg.meet_table, alg.carrier, alg.n
    u = alg.unit
    st_rows, ar_rows, jn_rows = _rows(st), _rows(ar), _rows(jn)
    st_lookups, ar_lookups, jn_lookups = _lookups(st), _lookups(ar), _lookups(jn)
    up, down = _order_masks(le)
    ups, downs = [bytes(_bits(m)) for m in up], [bytes(_bits(m)) for m in down]
    out: list[Violation] = []

    # Over z: want (x*y) join (x*z) and got x*(y join z). Row s of x's
    # outer rows is x*z joined with s, built for one x at a time.
    outers = ([row.translate(t) for t in jn_lookups] for row in st_rows)
    out += [
        Violation(
            "star-distributes-join", (nm[x], nm[y], nm[z]), nm[want], nm[got]
        )
        for x, y, z, want, got in _curried(st, outers, jn_rows, st_lookups)
    ]
    out += _check_top(alg, None).violations
    for x in range(n):
        for y in range(n):
            if le[x][u] and le[y][u] and not le[st[x][y]][mt[x][y]]:
                out.append(
                    Violation(
                        "subunit-star-below-meet", (nm[x], nm[y]),
                        f"{nm[x]}*{nm[y]} <= {nm[x]} meet {nm[y]}",
                        nm[st[x][y]],
                    )
                )
            if le[u][x] and le[u][y] and not le[jn[x][y]][st[x][y]]:
                out.append(
                    Violation(
                        "superunit-join-below-star", (nm[x], nm[y]),
                        f"{nm[x]} join {nm[y]} <= {nm[x]}*{nm[y]}",
                        nm[st[x][y]],
                    )
                )
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
                out.append(
                    Violation(
                        "arrow-transitive", (nm[x], nm[y], nm[z]),
                        f"({nm[x]}->{nm[y]})*({nm[y]}->{nm[z]}) <= {nm[x]}->{nm[z]}",
                        "fails",
                    )
                )
    for x in range(n):
        if ar[u][x] != x:
            out.append(
                Violation("unit-arrow-identity", (nm[x],), nm[x], nm[ar[u][x]])
            )
    # The monotonicity identities over x <= x1 and y <= y1, per y. For each
    # x every x1*y1 must lie in the upset of x*y, and for each x1 every
    # x->y1 in the upset of x1->y; bytes.translate deletes the members of
    # that upset, so a nonempty result means a failure there.
    failing = []
    for y in range(n):
        at = ups[y]
        st_at = [at.translate(t) for t in st_lookups]
        ar_at = [at.translate(t) for t in ar_lookups]
        for x in range(n):
            s = st[x][y]
            if b"".join([st_at[x1] for x1 in ups[x]]).translate(None, ups[s]):
                failing += [
                    (x, y, x1, y1, False)
                    for x1 in ups[x] for y1 in at if not le[s][st[x1][y1]]
                ]
        for x1 in range(n):
            r = ar[x1][y]
            if b"".join([ar_at[x] for x in downs[x1]]).translate(None, ups[r]):
                failing += [
                    (x, y, x1, y1, True)
                    for x in downs[x1] for y1 in at if not le[r][ar[x][y1]]
                ]
    for x, y, x1, y1, antitone in sorted(failing):
        out.append(
            Violation(
                "arrow-antitone" if antitone else "star-monotone",
                (nm[x], nm[y], nm[x1], nm[y1]),
                f"{nm[x1]}->{nm[y]} <= {nm[x]}->{nm[y1]}" if antitone
                else f"{nm[x]}*{nm[y]} <= {nm[x1]}*{nm[y1]}",
                "fails",
            )
        )
    # Over z: want (x*y)->z and got x->(y->z).
    out += [
        Violation("arrow-curry", (nm[x], nm[y], nm[z]), nm[want], nm[got])
        for x, y, z, want, got in _curried(st, [ar_rows] * n, ar_rows, ar_lookups)
    ]
    for x in range(n):
        for y in range(n):
            if not le[st[x][ar[x][y]]][y]:
                out.append(
                    Violation(
                        "modus-ponens", (nm[x], nm[y]),
                        f"{nm[x]}*({nm[x]}->{nm[y]}) <= {nm[y]}",
                        nm[st[x][ar[x][y]]],
                    )
                )
    for x in range(n):
        if not le[u][ar[x][x]]:
            out.append(
                Violation(
                    "self-arrow-above-unit", (nm[x],),
                    f"{nm[u]} <= {nm[x]}->{nm[x]}", nm[ar[x][x]],
                )
            )
    return VerificationReport(tuple(out))


def is_idempotent(alg: FiniteILAlgebra) -> tuple[bool, int | None]:
    """Whether x*x == x everywhere; on failure also the first bad element."""
    for x in range(alg.n):
        if alg.star_table[x][x] != x:
            return False, x
    return True, None


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

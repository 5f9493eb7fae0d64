"""Finite IL-algebras: exact operation tables and law checking with witnesses.

An IL-algebra is a lattice with least element `bot` that also carries a
commutative monoid `*` with unit `1` and a residual `->` adjoint to it:
x*y <= z holds exactly when x <= y->z. Nothing forces x*y <= x here, which
is what separates these structures from residuated lattices proper.
This module holds what a build runs; the judges no command runs on a valid
build are in `ilalg.identities`.

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

On a residuated structure the solutions of x*w <= z are exactly the
downset of x->z, so `derive_arrow` first looks the solution mask S up
among the down masks. It keeps down[g] only where up[g] & down[g] == 1 << g,
that is, g is related to itself and to nothing else both ways. Then
S == down[g] holds g, every member of S lies below g, and a member above g
lies in up[g] & down[g], so g alone is above all of S: the lookup gives
what the rule gives. No two kept g share a down mask, as each would lie
below the other. A two-way partner of g, or g not related to itself, could
make the rule give another element or none, so every mask not kept goes to
the rule itself.

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

Each suite is a generator of its violations in that order. A build pulls
only the first of each suite to decide `valid`, and its report resumes
the suites when read, so a report of any length is written in bounded
memory.
"""
from __future__ import annotations

from collections.abc import Sequence
from itertools import chain
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
    # A tuple, or for a build report a `_Violations` made as it is read.
    violations: Sequence[Violation] = ()
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


class _Run:
    """One suite on one immutable algebra. Its first violation is pulled at
    once and settles the verdict; the first iteration resumes that
    generator, and each later one runs the suite again."""

    __slots__ = ("first", "_again", "_started")

    def __init__(self, suite, *args):
        started = suite(*args)
        self.first = next(started, None)
        self._again = lambda: suite(*args)
        # A list, so that of two readers only one can pop the generator.
        self._started = [chain((self.first,), started)] if self else []

    def __bool__(self) -> bool:
        return self.first is not None

    def __iter__(self):
        try:
            return self._started.pop()
        except IndexError:
            return self._again() if self else iter(())


class _Violations(Sequence):
    """The violations of some runs in order, made as they are iterated, so
    that reading them holds one at a time; len() and indexing hold them
    all."""

    __slots__ = ("runs", "_all")

    def __init__(self, *runs: _Run):
        self.runs, self._all = runs, None

    def __iter__(self):
        return chain.from_iterable(self.runs) if self._all is None else iter(self._all)

    def __bool__(self) -> bool:
        return any(self.runs)

    def _tuple(self) -> tuple[Violation, ...]:
        if self._all is None:
            self._all = tuple(chain.from_iterable(self.runs))
        return self._all

    def __len__(self) -> int:
        return len(self._tuple())

    def __getitem__(self, i):
        return self._tuple()[i]

    def __eq__(self, other):
        return self._tuple() == (other._tuple() if isinstance(other, _Violations) else other)

    def __hash__(self) -> int:
        return hash(self._tuple())

    def __repr__(self) -> str:
        return repr(self._tuple())


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
    up, down = _order_masks(le)
    greatest = {mask: g for g, mask in enumerate(down) if up[g] & mask == 1 << g}
    # Column z of the relation as a translate table to the digits 0 and 1:
    # star row x, reversed and sent through it, spells the solution mask of
    # (x, z) in binary, with bit w set when x*w <= z.
    columns = [_lookup(b"01"[related] for related in col) for col in zip(*le)]
    table = []
    failures = []
    for x, row in enumerate(star):
        reverse = bytes(reversed(row))
        masks = [int(reverse.translate(col), 2) for col in columns]
        cells = [greatest.get(mask) for mask in masks]
        for z, g in enumerate(cells):
            if g is None:
                cells[z] = _greatest_member(masks[z], up)
                if cells[z] is None:
                    failures.append((x, z))
        table.append(cells)
    if failures:
        raise NotResiduatedError(failures)
    return table


def _greatest_member(mask: int, up: list[int]) -> int | None:
    """The only member of `mask` above every member, or None when there is
    not exactly one."""
    best = mask
    for w in _bits(mask):
        best &= up[w]
    if best and not best & best - 1:
        return best.bit_length() - 1
    return None


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
    result passes the lattice laws by construction, so they are not swept.
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
    # up[lub] == up[i] & up[j] is the join-table law; meets are dual.
    monoid, residuation = _Run(_monoid_laws, alg), _Run(_residuation_law, alg)
    report = VerificationReport(
        _Violations(monoid, residuation, _Run(_top_laws, alg, declared_top)),
        (("lattice", VerificationReport()),
         ("monoid", VerificationReport(_Violations(monoid))),
         ("residuation", VerificationReport(_Violations(residuation)))),
    )
    alg = alg._replace(valid=report.ok)
    if mode == "strict" and not report.ok:
        raise LawViolationError(report)
    return alg, report


def build_algebra(
    doc: "AlgebraSpecDocument", mode: BuildMode = "strict"
) -> tuple[FiniteILAlgebra, VerificationReport]:
    """Assemble an algebra from a parsed description document. Every name
    is looked up in one index, and the first bad one is reported, in the
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
            try:
                out.append(list(map(index.__getitem__, row)))
            except KeyError:
                for v in row:  # raises at the first bad cell
                    resolve(v, f"{what} row")
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


def check_monoid(alg: FiniteILAlgebra) -> VerificationReport:
    """Commutativity over all pairs, associativity over all triples, and the
    unit law in both argument positions."""
    return VerificationReport(tuple(_monoid_laws(alg)))


def _monoid_laws(alg: FiniteILAlgebra):
    st, nm, n = alg.star_table, alg.carrier, alg.n
    rows, cols, lookups = _rows(st), _rows(zip(*st)), _lookups(st)
    for i in range(n):
        for j in _mismatches(rows[i], cols[i], i + 1):
            yield Violation("star-commutative", (nm[i], nm[j]),
                            f"{nm[i]}*{nm[j]} == {nm[j]}*{nm[i]}",
                            f"{nm[st[i][j]]} vs {nm[st[j][i]]}")
    # Over z: found (x*y)*z and expected x*(y*z).
    for x, y, z, found, expected in _curried(st, [rows] * n, rows, lookups):
        yield Violation("star-associative", (nm[x], nm[y], nm[z]), nm[expected], nm[found])
    u = alg.unit
    for i in range(n):
        if st[u][i] != i:
            yield Violation("star-unit", (nm[u], nm[i]), nm[i], nm[st[u][i]])
    for i in range(n):
        if st[i][u] != i:
            yield Violation("star-unit", (nm[i], nm[u]), nm[i], nm[st[i][u]])


def check_residuation(alg: FiniteILAlgebra) -> VerificationReport:
    """Both directions of the adjunction over all triples."""
    return VerificationReport(tuple(_residuation_law(alg)))


def _residuation_law(alg: FiniteILAlgebra):
    le, st, nm, n = alg.leq_table, alg.star_table, alg.carrier, alg.n
    le_rows, le_lookups, ar_rows = _rows(le), _lookups(le), _rows(alg.arrow_table)
    # Over z: starred x*y <= z and arrowed x <= y->z.
    for x, y, z, starred, _ in _curried(st, [le_rows] * n, ar_rows, le_lookups):
        yield Violation(
            "residuation", (nm[x], nm[y], nm[z]),
            "both directions agree",
            f"{nm[x]}*{nm[y]} <= {nm[z]} but not {nm[x]} <= {nm[y]}->{nm[z]}"
            if starred
            else f"{nm[x]} <= {nm[y]}->{nm[z]} but not {nm[x]}*{nm[y]} <= {nm[z]}",
        )


def _top_laws(alg: FiniteILAlgebra, declared_top: int | None):
    nm = alg.carrier
    if declared_top is not None and declared_top != alg.top:
        yield Violation("top-declared", (nm[declared_top],),
                        f"bot->bot == {nm[alg.top]}", nm[declared_top])
    for i in range(alg.n):
        if not alg.leq_table[i][alg.top]:
            yield Violation("top-greatest", (nm[i],), f"{nm[i]} <= {nm[alg.top]}", "fails")

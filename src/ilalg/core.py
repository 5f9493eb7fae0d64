"""Finite IL-algebras: exact operation tables and law checking with witnesses.

An IL-algebra is a lattice with least element `bot` that also carries a
commutative monoid `*` with unit `1` and a residual `->` adjoint to it:
x*y <= z holds exactly when x <= y->z. Nothing forces x*y <= x here, which
is what separates these structures from residuated lattices proper.

Algebras are immutable after construction and every operation below is a
pure read, so instances are safe to share across threads.

The order is also read as per-element bitmasks: bit j of up[i], and bit i
of down[j], is set when i <= j. The least element of a set U is the u in U
with U inside up[u], and the greatest the u with U inside down[u]; a bound
counts only when exactly one such u exists, so a relation with a cycle
still has none. The bound tables and transitivity are checked the same
way, with k taken from up[j] minus up[i] in ascending order.

The monotonicity identities loop x1 over the ascending up-list of x and y1
over that of y. These are exactly the 4-tuples (x, y, x1, y1) with
x <= x1 and y <= y1 that a sweep of all n^4 tuples keeps, visited in the
same lexicographic order, so every witness list comes out unchanged.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterable, Literal

from .errors import BuildError, LawViolationError, NotResiduatedError

if TYPE_CHECKING:
    from .specfile import AlgebraSpecDocument

MAX_CARRIER = 64  # subsets of the carrier must fit in a machine-word bitmask

BuildMode = Literal["strict", "lenient"]


@dataclass(frozen=True)
class Violation:
    """One broken law instance: which law, at which elements, and how."""

    law: str
    witness: tuple[str, ...]
    expected: str
    found: str


@dataclass(frozen=True)
class VerificationReport:
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


@dataclass(frozen=True)
class FiniteILAlgebra:
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
    """Reflexive-transitive closure of a relation given as index pairs."""
    le = [[i == j for j in range(n)] for i in range(n)]
    for a, b in pairs:
        le[a][b] = True
    for k in range(n):
        lk = le[k]
        for i in range(n):
            if le[i][k]:
                li = le[i]
                for j in range(n):
                    if lk[j]:
                        li[j] = True
    return le


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


def _unique_bound(members: int, bound: list[int]) -> int | None:
    """The one u in `members` with members inside bound[u], or None when no
    element or several qualify. bound = up gives the least element of the
    set, bound = down the greatest. The scan does not stop at the first
    candidate because `derive_arrow` is public and must stay exact on
    relations with cycles, where a second candidate can exist."""
    found = None
    for u in _bits(members):
        if not members & ~bound[u]:
            if found is not None:
                return None
            found = u
    return found


def derive_arrow(star, le) -> list[list[int]]:
    """Residual table from the monoid table and the order.

    Entry (x, z) is the greatest w with x*w <= z; "greatest" means the unique
    element of the solution set above all of it, never an arbitrary maximal
    pick. Raises NotResiduatedError listing every (x, z) where the solution
    set is empty or has no greatest element.
    """
    n = len(le)
    _, down = _order_masks(le)
    table = [[0] * n for _ in range(n)]
    failures = []
    for x in range(n):
        # w grouped by the value x*w, so each (x, z) tests each value once.
        preimages: dict[int, int] = {}
        for w, s in enumerate(star[x]):
            preimages[s] = preimages.get(s, 0) | 1 << w
        for z in range(n):
            solutions = 0
            for s, ws in preimages.items():
                if le[s][z]:
                    solutions |= ws
            best = _unique_bound(solutions, down)
            if best is None:
                failures.append((x, z))
            else:
                table[x][z] = best
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
    modes; law violations raise LawViolationError only in strict mode.
    """
    names = tuple(carrier)
    n = len(names)
    if n == 0:
        raise BuildError("carrier is empty")
    if n > MAX_CARRIER:
        raise BuildError(
            f"carrier has {n} elements; at most {MAX_CARRIER} are supported "
            "(subsets are machine-word bitmasks)"
        )
    if len(set(names)) != n:
        raise BuildError("carrier names are not unique")
    _check_table("star", star, n)
    if arrow is not None:
        _check_table("arrow", arrow, n)
    if not 0 <= unit < n:
        raise BuildError(f"unit index {unit} out of range")

    le = transitive_closure(n, order_pairs)
    for i in range(n):
        for j in range(i + 1, n):
            if le[i][j] and le[j][i]:
                raise BuildError(
                    f"order contains a cycle through {names[i]!r} and {names[j]!r}"
                )

    up, down = _order_masks(le)
    bottom = _unique_bound((1 << n) - 1, up)
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
            lub = _unique_bound(up[i] & up[j], up)
            if lub is None:
                raise BuildError(
                    f"pair ({names[i]}, {names[j]}) has no least upper bound"
                )
            glb = _unique_bound(down[i] & down[j], down)
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
        leq_table=_freeze_bool(le),
        join_table=_freeze(join),
        meet_table=_freeze(meet),
        star_table=_freeze(star),
        arrow_table=_freeze(arrow),
        bottom=bottom,
        unit=unit,
        top=top,
        valid=False,
    )

    suites = (
        ("lattice", check_lattice(alg)),
        ("monoid", check_monoid(alg)),
        ("residuation", check_residuation(alg)),
    )
    violations = [v for _, part in suites for v in part.violations]
    violations += _check_top(alg, declared_top).violations
    report = VerificationReport(tuple(violations), suites)
    alg = replace(alg, valid=report.ok)
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


def _freeze_bool(table):
    return tuple(tuple(bool(v) for v in row) for row in table)


def check_lattice(alg: FiniteILAlgebra) -> VerificationReport:
    """Order axioms, least element, and correctness of the bound tables."""
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
    out: list[Violation] = []
    for i in range(n):
        for j in range(i + 1, n):
            if st[i][j] != st[j][i]:
                out.append(
                    Violation(
                        "star-commutative", (nm[i], nm[j]),
                        f"{nm[i]}*{nm[j]} == {nm[j]}*{nm[i]}",
                        f"{nm[st[i][j]]} vs {nm[st[j][i]]}",
                    )
                )
    for i in range(n):
        for j in range(n):
            for k in range(n):
                left = st[st[i][j]][k]
                right = st[i][st[j][k]]
                if left != right:
                    out.append(
                        Violation(
                            "star-associative", (nm[i], nm[j], nm[k]),
                            nm[right], nm[left],
                        )
                    )
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
    le, st, ar, nm, n = (
        alg.leq_table, alg.star_table, alg.arrow_table, alg.carrier, alg.n,
    )
    out: list[Violation] = []
    for x in range(n):
        for y in range(n):
            for z in range(n):
                left = le[st[x][y]][z]
                right = le[x][ar[y][z]]
                if left != right:
                    direction = (
                        f"{nm[x]}*{nm[y]} <= {nm[z]} but not "
                        f"{nm[x]} <= {nm[y]}->{nm[z]}"
                        if left
                        else f"{nm[x]} <= {nm[y]}->{nm[z]} but not "
                        f"{nm[x]}*{nm[y]} <= {nm[z]}"
                    )
                    out.append(
                        Violation(
                            "residuation", (nm[x], nm[y], nm[z]),
                            "both directions agree", direction,
                        )
                    )
    return VerificationReport(tuple(out))


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

    Every one of these follows from the axioms, so a valid algebra passes
    all of them; on a leniently built algebra the failures localize what is
    wrong with the tables.
    """
    le, st, ar = alg.leq_table, alg.star_table, alg.arrow_table
    jn, mt, nm, n = alg.join_table, alg.meet_table, alg.carrier, alg.n
    u = alg.unit
    out: list[Violation] = []

    for x in range(n):
        for y in range(n):
            for z in range(n):
                want = jn[st[x][y]][st[x][z]]
                got = st[x][jn[y][z]]
                if got != want:
                    out.append(
                        Violation(
                            "star-distributes-join", (nm[x], nm[y], nm[z]),
                            nm[want], nm[got],
                        )
                    )
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
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if not le[st[ar[x][y]][ar[y][z]]][ar[x][z]]:
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
    ups = [[j for j in range(n) if le[i][j]] for i in range(n)]
    for x in range(n):
        for y in range(n):
            le_xy = le[st[x][y]]
            for x1 in ups[x]:
                st_x1, le_x1y = st[x1], le[ar[x1][y]]
                for y1 in ups[y]:
                    if not le_xy[st_x1[y1]]:
                        out.append(
                            Violation(
                                "star-monotone", (nm[x], nm[y], nm[x1], nm[y1]),
                                f"{nm[x]}*{nm[y]} <= {nm[x1]}*{nm[y1]}",
                                "fails",
                            )
                        )
                    if not le_x1y[ar[x][y1]]:
                        out.append(
                            Violation(
                                "arrow-antitone", (nm[x], nm[y], nm[x1], nm[y1]),
                                f"{nm[x1]}->{nm[y]} <= {nm[x]}->{nm[y1]}",
                                "fails",
                            )
                        )
    for x in range(n):
        for y in range(n):
            for z in range(n):
                want = ar[st[x][y]][z]
                got = ar[x][ar[y][z]]
                if got != want:
                    out.append(
                        Violation(
                            "arrow-curry", (nm[x], nm[y], nm[z]),
                            nm[want], nm[got],
                        )
                    )
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

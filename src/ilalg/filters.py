"""Filters on finite IL-algebras: decision, closure, enumeration and the
five classification predicates.

A filter is a subset that contains the unit, is closed under both * and
meet, and is upward closed. The meet clause is not redundant here: without
x*y <= x there is no way to reach x meet y from x*y by upward closure.

Every filter is principal: on a finite law-valid algebra the filters are
exactly the upsets ^e of the idempotent subunits e (e <= 1, e*e = e), and
^e contains ^e' exactly when e <= e'.
- A filter F is finite and meet-closed, so m = meet(F) is in F, and F is
  upward closed, so F = ^m. 1 in F gives m <= 1, and m*m in F gives
  m <= m*m <= m*1 = m.
- If e <= 1 and e*e = e, monotonicity of * makes ^e a filter.
Enumeration is therefore a scan of the elements, and each upset it yields
is a filter by the second point, with no re-check.

The least filter containing S is ^f for the greatest idempotent subunit f
below a = 1 meet (meet S). As b <= 1 gives b*b <= b*1 = b, the squares
a >= a^2 >= a^4 >= ... descend through subunits to a fixpoint f = f*f <= a;
an idempotent e' <= b gives e' = e'*e' <= b*b, so every idempotent e' <= a
stays below each term, hence below f.

Residuation turns membership in ^e into an inequality on e:
x->y in ^e iff e <= x->y iff e*x <= y. On a law-valid algebra this gives
two of the classes their e-forms, each with the exhaustive sweep's
lexicographically first witness:
- ^e is implicative iff every u = e*x satisfies u <= u*u. The rule "from
  x->(y->z) and x->y conclude x->z" reads "u*y <= z and u <= y imply
  u <= z". (=>) Take y = u and z = u*u. (<=) u <= u*u <= u*y <= z, by
  monotonicity of *. Per x the rule fails for some y, z exactly when u is
  not below u*u, so the sweep's first failing triple has the first such x.
  At that x, a y has a failing z iff u <= y and u is not below u*y (take
  z = u*y; any z above u*y is otherwise above u), so y is the first such
  element and z the first above u*y but not above u. Corollary: on an
  idempotent algebra u*u = u, so every filter is implicative.
- ^e is distributive iff e*a <= b for every pair (a, b) =
  ((x join y) meet (x join z), x join (y meet z)) with a != b, since
  a->b in ^e iff e*a <= b; when a = b, e*a <= a holds as e <= 1. The pairs
  depend only on the lattice, and there are none on a distributive one.
  A triple fails exactly when its pair does, and both sides are symmetric
  in y and z, so the first failing triple has y < z and is among those
  `_distributivity_defects` yields in lexicographic order. A pair's first
  triple is its first failing one, so trying the pairs in the order of
  their first triples finds the witness.
  `_distributivity_defects` compares the two sides a whole row over z at
  a time, so a distributive lattice costs one comparison per x. It skips
  only rows whose two sides are equal, which hold no triple with a != b,
  and visits x, y and then z > y in ascending order, so it yields exactly
  the triples with y < z and a != b, in lexicographic order.
The two predicates use these forms on law-valid algebras and subsets that
are exactly ^e for an idempotent subunit e. Any other subset goes to the
exhaustive sweep over triples.

Subsets are bitmasks over carrier indices; enumeration output is sorted by
ascending mask so reports are diffable.
"""
from __future__ import annotations

from functools import reduce
from typing import Iterable, Iterator, NamedTuple

from .core import FiniteILAlgebra, _lookup, _lookups, _rows, require_valid
from .errors import AlgebraError, NotAFilterError


# A lattice pair (a, b) with a != b, and a triple (x, y, z) that gives it.
Defect = tuple[tuple[int, int], tuple[int, int, int]]


class FilterCheck(NamedTuple):
    """Outcome of the three-condition filter test."""

    ok: bool
    condition: str | None = None
    witness: tuple[int, ...] | None = None


class FilterFlags(NamedTuple):
    distributive: bool
    prime: bool
    maximal: bool | None  # None when the algebra is lenient-built
    implicative: bool
    affine: bool


class FilterSubset(NamedTuple):
    """A subset of one algebra's carrier, with optional classification."""

    algebra: FiniteILAlgebra
    mask: int
    flags: FilterFlags | None = None

    def members(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.algebra.n) if self.mask >> i & 1)

    def member_names(self) -> tuple[str, ...]:
        return self.algebra.names(self.members())

    def __contains__(self, index: int) -> bool:
        return bool(self.mask >> index & 1)


def subset_mask(alg: FiniteILAlgebra, subset: FilterSubset | int | Iterable[int]) -> int:
    """Normalize a subset argument to a bitmask over the carrier."""
    if isinstance(subset, FilterSubset):
        mask = subset.mask
    elif isinstance(subset, int):
        mask = subset
    else:
        mask = 0
        for i in subset:
            if not 0 <= i < alg.n:
                raise IndexError(f"element index {i} out of range 0..{alg.n - 1}")
            mask |= 1 << i
    if mask < 0 or mask >> alg.n:
        raise IndexError(f"mask {mask:#x} has bits outside the carrier")
    return mask


def is_filter(
    alg: FiniteILAlgebra, subset: FilterSubset | int | Iterable[int]
) -> FilterCheck:
    """Test the three filter conditions; reports the first broken one with
    the lexicographically first witness pair."""
    mask = subset_mask(alg, subset)
    if not mask >> alg.unit & 1:
        return FilterCheck(False, "unit-member", (alg.unit,))
    members = [i for i in range(alg.n) if mask >> i & 1]
    for i in members:
        for j in members:
            if not mask >> alg.star_table[i][j] & 1:
                return FilterCheck(False, "star-closed", (i, j))
    for i in members:
        for j in members:
            if not mask >> alg.meet_table[i][j] & 1:
                return FilterCheck(False, "meet-closed", (i, j))
    for i in members:
        for j in range(alg.n):
            if alg.leq_table[i][j] and not mask >> j & 1:
                return FilterCheck(False, "upward-closed", (i, j))
    return FilterCheck(True)


def describe_filter_failure(
    alg: FiniteILAlgebra, condition: str, witness: tuple[int, ...]
) -> str:
    """Human sentence for a broken filter condition, with the offending value."""
    names = alg.names(witness)
    if condition == "unit-member":
        return f"unit {names[0]} is missing"
    x, y = witness
    if condition == "star-closed":
        return f"{names[0]}*{names[1]} = {alg.carrier[alg.star_table[x][y]]} escapes the subset"
    if condition == "meet-closed":
        return f"{names[0]} meet {names[1]} = {alg.carrier[alg.meet_table[x][y]]} escapes the subset"
    return f"{names[0]} is in the subset but {names[1]} above it is not"


def _filter_mask(
    alg: FiniteILAlgebra, subset: FilterSubset | int | Iterable[int], operation: str
) -> int:
    """The mask of `subset`, a filter of the law-valid `alg`, or raise:
    `require_valid` names `operation`, and a non-filter gives `is_filter`'s
    condition and witness to `NotAFilterError`."""
    require_valid(alg, operation)
    mask = subset_mask(alg, subset)
    check = is_filter(alg, mask)
    if not check.ok:
        raise NotAFilterError(check.condition, check.witness)
    return mask


def _idempotent_subunits(alg: FiniteILAlgebra) -> list[int]:
    """Elements e <= 1 with e*e = e, in index order."""
    return [
        e for e in range(alg.n)
        if alg.leq_table[e][alg.unit] and alg.star_table[e][e] == e
    ]


def _meet_of(alg: FiniteILAlgebra, mask: int) -> int:
    """Meet of a nonempty subset."""
    members = (i for i in range(alg.n) if mask >> i & 1)
    return reduce(lambda x, y: alg.meet_table[x][y], members)


def _upset(alg: FiniteILAlgebra, e: int) -> int:
    """Mask of the upset of e."""
    return sum(1 << j for j in range(alg.n) if alg.leq_table[e][j])


def _least_idempotent_subunit(alg: FiniteILAlgebra, mask: int) -> int | None:
    """e when the algebra is law-valid and the subset is exactly ^e for an
    idempotent subunit e, the case where the e-forms apply; else None."""
    if not alg.valid or not mask:
        return None
    e = _meet_of(alg, mask)
    if alg.leq_table[e][alg.unit] and alg.star_table[e][e] == e and mask == _upset(alg, e):
        return e
    return None


def filter_closure(
    alg: FiniteILAlgebra, subset: FilterSubset | int | Iterable[int]
) -> FilterSubset:
    """Smallest filter containing the subset: the upset of the first
    fixpoint of squaring from 1 meet (meet subset). May be the carrier."""
    require_valid(alg, "filter_closure")
    a = _meet_of(alg, subset_mask(alg, subset) | 1 << alg.unit)
    while alg.star_table[a][a] != a:
        a = alg.star_table[a][a]
    return FilterSubset(alg, _upset(alg, a))


def enumerate_filters(alg: FiniteILAlgebra) -> list[FilterSubset]:
    """All filters, in ascending-bitmask order: the upsets of the idempotent
    subunits."""
    require_valid(alg, "enumerate_filters")
    masks = sorted(_upset(alg, e) for e in _idempotent_subunits(alg))
    return [FilterSubset(alg, mask) for mask in masks]


def _distributivity_defects(alg: FiniteILAlgebra) -> Iterator[Defect]:
    """Yield the pair (a, b) = ((x join y) meet (x join z), x join (y meet z))
    of every triple (x, y, z) with a != b and y < z, with the triple, in
    lexicographic order; none exist on a distributive lattice.

    Both sides are rows over z, for one x and all y at once: row y of the
    left side is the meet row of x join y read at join row x, and row y of
    the right side is meet row y sent through join row x. The left rows
    are the distinct meet rows of join row x, each translated once. One
    bytes comparison settles an x, and only an x whose two blocks differ
    is walked, by y and then z > y ascending, where the rows differ.
    """
    n, jn_rows, mt_lookups = alg.n, _rows(alg.join_table), _lookups(alg.meet_table)
    meets = b"".join(_rows(alg.meet_table))
    for x, jx in enumerate(jn_rows):
        left = {w: jx.translate(mt_lookups[w]) for w in set(jx)}
        right = meets.translate(_lookup(jx))
        if b"".join(map(left.__getitem__, jx)) == right:
            continue
        for y, w in enumerate(jx):
            a, b = left[w], right[y * n:(y + 1) * n]
            if a != b:
                for z in range(y + 1, n):
                    if a[z] != b[z]:
                        yield (a[z], b[z]), (x, y, z)


def is_distributive_filter(
    alg: FiniteILAlgebra, subset: FilterSubset | int | Iterable[int]
) -> tuple[bool, tuple[int, int, int] | None]:
    """((x join y) meet (x join z)) -> (x join (y meet z)) must land in the
    subset for every triple."""
    return _distributive_filter(alg, subset_mask(alg, subset), _distributivity_defects(alg))


def _distributive_filter(
    alg: FiniteILAlgebra, mask: int, defects: Iterable[Defect]
) -> tuple[bool, tuple[int, int, int] | None]:
    """`is_distributive_filter` on a mask, through the e-form when it
    applies. `defects` yields the algebra's `_distributivity_defects`, or
    each pair once with its first triple: a lazy generator stops at the
    first failing pair, a pair -> first-triple table serves many filters."""
    e = _least_idempotent_subunit(alg, mask)
    if e is None:
        return _distributive_sweep(alg, mask)
    le, row = alg.leq_table, alg.star_table[e]
    for (a, b), triple in defects:
        if not le[row[a]][b]:
            return False, triple
    return True, None


def _distributive_sweep(
    alg: FiniteILAlgebra, mask: int
) -> tuple[bool, tuple[int, int, int] | None]:
    """The distributive-filter definition, exhaustive over all triples."""
    jn, mt, ar = alg.join_table, alg.meet_table, alg.arrow_table
    for x in range(alg.n):
        for y in range(alg.n):
            for z in range(alg.n):
                value = ar[mt[jn[x][y]][jn[x][z]]][jn[x][mt[y][z]]]
                if not mask >> value & 1:
                    return False, (x, y, z)
    return True, None


def is_prime_filter(
    alg: FiniteILAlgebra, subset: FilterSubset | int | Iterable[int]
) -> tuple[bool, tuple[int, int] | None]:
    """For every pair, x->y or y->x must land in the subset."""
    mask = subset_mask(alg, subset)
    ar = alg.arrow_table
    for x in range(alg.n):
        for y in range(x, alg.n):
            if not (mask >> ar[x][y] & 1 or mask >> ar[y][x] & 1):
                return False, (x, y)
    return True, None


def is_implicative_filter(
    alg: FiniteILAlgebra, subset: FilterSubset | int | Iterable[int]
) -> tuple[bool, tuple[int, ...] | None]:
    """Contains the unit and is closed under the rule: from x->(y->z) and
    x->y conclude x->z. Decided by the e-form when it applies."""
    mask = subset_mask(alg, subset)
    e = _least_idempotent_subunit(alg, mask)
    if e is None:
        return _implicative_sweep(alg, mask)
    n, le, st = alg.n, alg.leq_table, alg.star_table
    for x, u in enumerate(st[e]):
        if not le[u][st[u][u]]:
            y = next(y for y in range(n) if le[u][y] and not le[u][st[u][y]])
            z = next(z for z in range(n) if le[st[u][y]][z] and not le[u][z])
            return False, (x, y, z)
    return True, None


def _implicative_sweep(
    alg: FiniteILAlgebra, mask: int
) -> tuple[bool, tuple[int, ...] | None]:
    """The implicative-filter definition, exhaustive over all triples."""
    if not mask >> alg.unit & 1:
        return False, (alg.unit,)
    ar = alg.arrow_table
    for x in range(alg.n):
        for y in range(alg.n):
            for z in range(alg.n):
                if (
                    mask >> ar[x][ar[y][z]] & 1
                    and mask >> ar[x][y] & 1
                    and not mask >> ar[x][z] & 1
                ):
                    return False, (x, y, z)
    return True, None


def is_affine_filter(
    alg: FiniteILAlgebra, subset: FilterSubset | int | Iterable[int]
) -> bool:
    """Membership of top->1; such filters collapse top onto the unit in the
    quotient."""
    mask = subset_mask(alg, subset)
    return bool(mask >> alg.arrow_table[alg.top][alg.unit] & 1)


def is_maximal_filter(
    alg: FiniteILAlgebra, subset: FilterSubset | int | Iterable[int]
) -> bool:
    """Proper, and contained in no other proper filter: the least element m
    is not bot, and no idempotent subunit lies strictly between bot and m.

    The carrier itself is a filter but never maximal; otherwise it would be
    vacuously maximal and shadow every genuine one. Needs a law-valid
    algebra, where every filter is principal.
    """
    return _maximal(alg, _filter_mask(alg, subset, "is_maximal_filter"))


def _maximal(alg: FiniteILAlgebra, mask: int) -> bool:
    """`is_maximal_filter` on a mask already known to be a filter."""
    m = _meet_of(alg, mask)
    return m != alg.bottom and not any(
        e not in (alg.bottom, m) and alg.leq_table[e][m]
        for e in _idempotent_subunits(alg)
    )


def classify_filter(
    alg: FiniteILAlgebra, subset: FilterSubset | int | Iterable[int]
) -> FilterFlags:
    """All five classification flags.

    The four table-read predicates work on any built algebra; maximality
    needs the filter lattice and is None on lenient-built ones.
    """
    mask = subset_mask(alg, subset)
    maximal = is_maximal_filter(alg, mask) if alg.valid else None
    return _classify(alg, mask, _distributivity_defects(alg), maximal)


def _classify(
    alg: FiniteILAlgebra, mask: int, defects: Iterable[Defect], maximal: bool | None
) -> FilterFlags:
    return FilterFlags(
        distributive=_distributive_filter(alg, mask, defects)[0],
        prime=is_prime_filter(alg, mask)[0],
        maximal=maximal,
        implicative=is_implicative_filter(alg, mask)[0],
        affine=is_affine_filter(alg, mask),
    )


def classify_all(alg: FiniteILAlgebra) -> list[FilterSubset]:
    """Every filter with its flags attached, in enumeration order. The
    lattice's distributivity defects are found once and shared, each pair
    with its first triple. Each mask is ^e for an idempotent subunit e, a
    filter by the module docstring's proof, so maximality skips the
    `is_filter` guard."""
    filters = enumerate_filters(alg)
    first: dict[tuple[int, int], tuple[int, int, int]] = {}
    for pair, triple in _distributivity_defects(alg):
        first.setdefault(pair, triple)
    return [
        FilterSubset(
            alg, f.mask, _classify(alg, f.mask, first.items(), _maximal(alg, f.mask))
        )
        for f in filters
    ]


def is_idempotent(alg: FiniteILAlgebra) -> tuple[bool, int | None]:
    """Whether x*x == x everywhere; on failure also the first bad element."""
    for x in range(alg.n):
        if alg.star_table[x][x] != x:
            return False, x
    return True, None


class IdempotenceImplicativeResult(NamedTuple):
    idempotent: bool
    non_idempotent_witness: int | None
    all_filters_implicative: bool
    converse_witness: FilterSubset | None


def check_idempotent_implies_implicative(
    alg: FiniteILAlgebra,
) -> IdempotenceImplicativeResult:
    """On an everywhere-idempotent algebra every filter must be implicative
    (the corollary of the implicative e-form in the module docstring); that
    direction is asserted. The converse can genuinely fail, and the
    first implicative filter of a non-idempotent algebra is reported as the
    counterexample."""
    require_valid(alg, "check_idempotent_implies_implicative")
    idem, witness = is_idempotent(alg)
    filters = enumerate_filters(alg)
    verdicts = [is_implicative_filter(alg, f.mask)[0] for f in filters]
    all_implicative = all(verdicts)
    if idem and not all_implicative:
        raise AlgebraError(
            "idempotent algebra with a non-implicative filter; tables are "
            "not a valid algebra"
        )
    converse = None
    if not idem:
        for f, ok in zip(filters, verdicts):
            if ok:
                converse = f
                break
    return IdempotenceImplicativeResult(
        idempotent=idem,
        non_idempotent_witness=witness,
        all_filters_implicative=all_implicative,
        converse_witness=converse,
    )

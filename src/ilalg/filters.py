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
Enumeration is therefore a scan of the elements; each upset it yields is
still re-checked by the exhaustive `is_filter`.

The least filter containing S is ^f for the greatest idempotent subunit f
below a = 1 meet (meet S). As b <= 1 gives b*b <= b*1 = b, the squares
a >= a^2 >= a^4 >= ... descend through subunits to a fixpoint f = f*f <= a;
an idempotent e' <= b gives e' = e'*e' <= b*b, so every idempotent e' <= a
stays below each term, hence below f.

Subsets are bitmasks over carrier indices; enumeration output is sorted by
ascending mask so reports are diffable.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Iterable

from .core import FiniteILAlgebra, is_idempotent, require_valid
from .errors import AlgebraError, NotAFilterError


@dataclass(frozen=True)
class FilterCheck:
    """Outcome of the three-condition filter test."""

    ok: bool
    condition: str | None = None
    witness: tuple[int, ...] | None = None


@dataclass(frozen=True)
class FilterFlags:
    distributive: bool
    prime: bool
    maximal: bool | None  # None when the algebra is lenient-built
    implicative: bool
    affine: bool


@dataclass(frozen=True)
class FilterSubset:
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


def describe_filter_failure(alg: FiniteILAlgebra, check: FilterCheck) -> str:
    """Human sentence for a failed FilterCheck, with the offending value."""
    if check.ok:
        return "subset is a filter"
    names = alg.names(check.witness)
    if check.condition == "unit-member":
        return f"unit {names[0]} is missing"
    x, y = check.witness
    if check.condition == "star-closed":
        return f"{names[0]}*{names[1]} = {alg.carrier[alg.star_table[x][y]]} escapes the subset"
    if check.condition == "meet-closed":
        return f"{names[0]} meet {names[1]} = {alg.carrier[alg.meet_table[x][y]]} escapes the subset"
    return f"{names[0]} is in the subset but {names[1]} above it is not"


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


def _principal_filter(alg: FiniteILAlgebra, e: int) -> int:
    """Mask of the upset of e, re-checked to be a filter."""
    mask = sum(1 << j for j in range(alg.n) if alg.leq_table[e][j])
    check = is_filter(alg, mask)
    if not check.ok:
        raise AlgebraError(f"upset of {alg.carrier[e]} is not a filter: "
                           + describe_filter_failure(alg, check))
    return mask


def filter_closure(
    alg: FiniteILAlgebra, subset: FilterSubset | int | Iterable[int]
) -> FilterSubset:
    """Smallest filter containing the subset: the upset of the first
    fixpoint of squaring from 1 meet (meet subset). May be the carrier."""
    require_valid(alg, "filter_closure")
    a = _meet_of(alg, subset_mask(alg, subset) | 1 << alg.unit)
    while alg.star_table[a][a] != a:
        a = alg.star_table[a][a]
    return FilterSubset(alg, _principal_filter(alg, a))


def enumerate_filters(alg: FiniteILAlgebra) -> list[FilterSubset]:
    """All filters, in ascending-bitmask order: the upsets of the idempotent
    subunits."""
    require_valid(alg, "enumerate_filters")
    masks = sorted(_principal_filter(alg, e) for e in _idempotent_subunits(alg))
    return [FilterSubset(alg, mask) for mask in masks]


def is_distributive_filter(
    alg: FiniteILAlgebra, subset: FilterSubset | int | Iterable[int]
) -> tuple[bool, tuple[int, int, int] | None]:
    """((x join y) meet (x join z)) -> (x join (y meet z)) must land in the
    subset for every triple."""
    mask = subset_mask(alg, subset)
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
    x->y conclude x->z. Exhaustive over all triples."""
    mask = subset_mask(alg, subset)
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
    require_valid(alg, "is_maximal_filter")
    mask = subset_mask(alg, subset)
    check = is_filter(alg, mask)
    if not check.ok:
        raise NotAFilterError(check.condition, check.witness)
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
    return FilterFlags(
        distributive=is_distributive_filter(alg, mask)[0],
        prime=is_prime_filter(alg, mask)[0],
        maximal=is_maximal_filter(alg, mask) if alg.valid else None,
        implicative=is_implicative_filter(alg, mask)[0],
        affine=is_affine_filter(alg, mask),
    )


def classify_all(alg: FiniteILAlgebra) -> list[FilterSubset]:
    """Every filter with its flags attached, in enumeration order."""
    return [
        FilterSubset(alg, f.mask, classify_filter(alg, f.mask))
        for f in enumerate_filters(alg)
    ]


@dataclass(frozen=True)
class IdempotenceImplicativeResult:
    idempotent: bool
    non_idempotent_witness: int | None
    all_filters_implicative: bool
    converse_witness: FilterSubset | None


def check_idempotent_implies_implicative(
    alg: FiniteILAlgebra,
) -> IdempotenceImplicativeResult:
    """On an everywhere-idempotent algebra every filter must be implicative;
    that direction is asserted. The converse can genuinely fail, and the
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

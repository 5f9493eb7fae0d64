"""Quotients of finite IL-algebras by filters.

The filter induces the relation x ~ y iff both x->y and y->x belong to it;
its classes are the blocks of the quotient, operations descend blockwise,
and the block order is membership of x->y in the filter. Each fact is
checked once. `congruence_classes` re-checks the equivalence.
`quotient_algebra` sweeps all element pairs for a homomorphism on join,
meet, star, arrow and order, builds the quotient strictly, and requires its
order to be the membership order. As bot join x = x, the join check makes
[bot] least, and the arrow sweep gives [bot]->[bot] = [bot->bot] = [top].
The theorem checks read their conclusions on that verified algebra, where
1 = top is integrality. Any failure raises an engine/input error.
"""
from __future__ import annotations

from typing import Iterable, NamedTuple

from .core import (
    FiniteILAlgebra,
    _bits,
    _lookup,
    _mismatches,
    assemble_algebra,
)
from .errors import CongruenceError, WellDefinednessError
from .filters import (
    FilterSubset,
    _distributivity_defects,
    _filter_mask,
    is_affine_filter,
    is_distributive_filter,
    is_prime_filter,
    subset_mask,
)

SubsetLike = FilterSubset | int | Iterable[int]


class QuotientResult(NamedTuple):
    filter_mask: int
    blocks: tuple[tuple[int, ...], ...]
    projection: tuple[int, ...]
    algebra: FiniteILAlgebra


class TheoremCheck(NamedTuple):
    """A conditional verdict: if the filter has the premise property then
    the quotient must have the conclusion property. The conclusion is
    computed either way, so reports can show near misses."""

    premise: bool
    conclusion: bool

    @property
    def holds(self) -> bool:
        return not self.premise or self.conclusion


def congruence_classes(
    alg: FiniteILAlgebra, subset: SubsetLike
) -> tuple[tuple[int, ...], ...]:
    """Blocks of the induced relation, sorted by least member index.

    Reflexivity and transitivity are re-verified (symmetry holds by
    construction); a failure means the algebra is invalid, and raises.
    """
    mask = _filter_mask(alg, subset, "congruence_classes")
    ar = alg.arrow_table
    n = alg.n
    inside = [mask >> v & 1 for v in range(n)]
    # Bit y of rel[x]: x ~ y.
    rel = [
        sum((inside[ar[x][y]] & inside[ar[y][x]]) << y for y in range(n))
        for x in range(n)
    ]
    for x in range(n):
        if not rel[x] >> x & 1:
            raise CongruenceError(f"relation not reflexive at {alg.carrier[x]}")
        for y in _bits(rel[x]):
            if rel[y] != rel[x]:
                raise CongruenceError(
                    f"relation not transitive around {alg.carrier[x]} and "
                    f"{alg.carrier[y]}"
                )
    # Each block once, at its least member.
    return tuple(
        tuple(_bits(rel[x])) for x in range(n) if not rel[x] & ((1 << x) - 1)
    )


def quotient_algebra(alg: FiniteILAlgebra, subset: SubsetLike) -> QuotientResult:
    """Construct the quotient and machine-check everything about it.

    The projection x -> [x] must be a homomorphism: for join, meet, star,
    arrow and the order (membership of x->y in the filter), the value at
    every element pair (x, y) must equal the block table at ([x], [y]),
    which is read at the blocks' least members.
    """
    mask = subset_mask(alg, subset)
    blocks = congruence_classes(alg, mask)
    nblocks = len(blocks)
    reps = [blk[0] for blk in blocks]
    projection = [0] * alg.n
    for bi, blk in enumerate(blocks):
        for x in blk:
            projection[x] = bi

    # Each value row is gathered through a translate table: `image` maps an
    # element to its block, `member` to its membership in the filter.
    image = _lookup(projection)
    member = _lookup(mask >> v & 1 for v in range(alg.n))
    values = {
        "join": (alg.join_table, image),
        "meet": (alg.meet_table, image),
        "star": (alg.star_table, image),
        "arrow": (alg.arrow_table, image),
        "order": (alg.arrow_table, member),
    }
    at_blocks, at_reps = bytes(projection), bytes(reps)
    induced = {}
    for opname, (source, lookup) in values.items():
        value = [bytes(row).translate(lookup) for row in source]
        table = [at_reps.translate(_lookup(value[r])) for r in reps]
        block_rows = [_lookup(row) for row in table]
        for x, row in enumerate(value):
            # Over y: the value at (x, y) and the block table at ([x], [y]).
            expected = at_blocks.translate(block_rows[projection[x]])
            if row != expected:
                y = _mismatches(row, expected)[0]
                raise WellDefinednessError(
                    opname,
                    alg.carrier[reps[projection[x]]], alg.carrier[x],
                    alg.carrier[reps[projection[y]]], alg.carrier[y],
                )
        induced[opname] = table

    names = tuple(f"[{alg.carrier[r]}]" for r in reps)
    qleq = induced["order"]
    order_pairs = [
        (i, j) for i in range(nblocks) for j in range(nblocks) if qleq[i][j]
    ]
    quotient, _report = assemble_algebra(
        names,
        order_pairs,
        induced["star"],
        unit=projection[alg.unit],
        arrow=induced["arrow"],
        mode="strict",
    )

    # The membership-induced order must reproduce the blockwise join/meet.
    if quotient.join_table != tuple(map(tuple, induced["join"])):
        raise CongruenceError(
            "order induced by filter membership disagrees with blockwise join"
        )
    if quotient.meet_table != tuple(map(tuple, induced["meet"])):
        raise CongruenceError(
            "order induced by filter membership disagrees with blockwise meet"
        )
    # The sweep made membership of x->y equal to qleq[[x]][[y]].
    if quotient.leq_table != tuple(map(tuple, qleq)):
        raise CongruenceError(
            "order induced by filter membership disagrees with its closure"
        )

    return QuotientResult(
        filter_mask=mask,
        blocks=blocks,
        projection=tuple(projection),
        algebra=quotient,
    )


def check_quotient_order(alg: FiniteILAlgebra, subset: SubsetLike) -> bool:
    """Biconditional between block order and arrow membership, all pairs.
    `quotient_algebra` returns only quotients whose order is that membership
    (its order sweep and invariant), so this holds once it returns."""
    quotient_algebra(alg, subset)
    return True


def check_distributive_quotient(
    alg: FiniteILAlgebra, subset: SubsetLike
) -> TheoremCheck:
    """Distributive filter implies distributive quotient lattice."""
    result = quotient_algebra(alg, subset)
    return TheoremCheck(
        premise=is_distributive_filter(alg, result.filter_mask)[0],
        conclusion=next(_distributivity_defects(result.algebra), None) is None,
    )


def check_linear_quotient(alg: FiniteILAlgebra, subset: SubsetLike) -> TheoremCheck:
    """Prime filter implies totally ordered quotient."""
    result = quotient_algebra(alg, subset)
    le = result.algebra.leq_table
    rng = range(result.algebra.n)
    return TheoremCheck(
        premise=is_prime_filter(alg, result.filter_mask)[0],
        conclusion=all(le[x][y] or le[y][x] for x in rng for y in rng),
    )


def check_affine_quotient(alg: FiniteILAlgebra, subset: SubsetLike) -> TheoremCheck:
    """Affine filter implies the quotient collapses top onto the unit, which
    on a strictly verified algebra is integrality: a residuated lattice."""
    result = quotient_algebra(alg, subset)
    q = result.algebra
    return TheoremCheck(
        premise=is_affine_filter(alg, result.filter_mask),
        conclusion=q.unit == q.top,
    )

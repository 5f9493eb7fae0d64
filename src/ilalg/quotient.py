"""Quotients of finite IL-algebras by filters.

The filter induces the relation x ~ y iff both x->y and y->x belong to it;
its classes are the blocks of the quotient, operations descend blockwise,
and the block order is membership of x->y in the filter. Nothing is taken
on faith: equivalence, well-definedness over all representative pairs, the
order cross-check and the full law suite of the induced algebra are all
verified exhaustively, and any failure is raised as an engine/input error.
"""
from __future__ import annotations

from typing import Iterable, NamedTuple

from .core import (
    FiniteILAlgebra,
    _lookup,
    assemble_algebra,
    check_integrality_equivalence,
    require_valid,
)
from .errors import CongruenceError, NotAFilterError, WellDefinednessError
from .filters import (
    FilterSubset,
    _distributivity_defects,
    is_affine_filter,
    is_distributive_filter,
    is_filter,
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

    Reflexivity, symmetry and transitivity are re-verified; a failure would
    mean the subset is not a filter or the algebra is invalid, and raises.
    """
    require_valid(alg, "congruence_classes")
    mask = subset_mask(alg, subset)
    check = is_filter(alg, mask)
    if not check.ok:
        raise NotAFilterError(check.condition, check.witness)
    ar = alg.arrow_table
    n = alg.n

    def related(x: int, y: int) -> bool:
        return bool(mask >> ar[x][y] & 1 and mask >> ar[y][x] & 1)

    classes = [frozenset(y for y in range(n) if related(x, y)) for x in range(n)]
    for x in range(n):
        if x not in classes[x]:
            raise CongruenceError(f"relation not reflexive at {alg.carrier[x]}")
        for y in classes[x]:
            if classes[y] != classes[x]:
                raise CongruenceError(
                    f"relation not transitive around {alg.carrier[x]} and "
                    f"{alg.carrier[y]}"
                )
    blocks = sorted({cls for cls in classes}, key=min)
    return tuple(tuple(sorted(blk)) for blk in blocks)


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
                y = next(y for y in range(alg.n) if row[y] != expected[y])
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
    if quotient.top != projection[alg.top]:
        raise CongruenceError(
            "top block of the quotient is not the block of the source top"
        )
    if quotient.bottom != projection[alg.bottom]:
        raise CongruenceError(
            "bottom block of the quotient is not the block of the source bottom"
        )

    return QuotientResult(
        filter_mask=mask,
        blocks=blocks,
        projection=tuple(projection),
        algebra=quotient,
    )


def check_quotient_order(alg: FiniteILAlgebra, subset: SubsetLike) -> bool:
    """Biconditional between block order and arrow membership, all pairs."""
    result = quotient_algebra(alg, subset)
    mask = result.filter_mask
    proj = result.projection
    qle = result.algebra.leq_table
    return all(
        qle[proj[x]][proj[y]] == bool(mask >> alg.arrow_table[x][y] & 1)
        for x in range(alg.n)
        for y in range(alg.n)
    )


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
    """Affine filter implies the quotient collapses top onto the unit and is
    integral, i.e. a residuated lattice."""
    result = quotient_algebra(alg, subset)
    q = result.algebra
    integral = check_integrality_equivalence(q)
    return TheoremCheck(
        premise=is_affine_filter(alg, result.filter_mask),
        conclusion=q.unit == q.top and integral,
    )

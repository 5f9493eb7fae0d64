"""Seeded direct products of the bundled fixtures, with answers known by
construction.

A product of IL-algebras is an IL-algebra under the componentwise order and
operations, so everything the benchmark checks about a product follows from
its factors:

- a product of law-valid factors passes every law suite;
- its residual table is the componentwise one, which `derive-arrow` must
  reproduce;
- its filters are exactly the products of the factors' filters, read from
  the fixtures' oracle sidecars (`*.expect.json`), and the classification
  flags of a product filter follow from the factors' flags;
- the quotient by the unit upset has one singleton block per element.

Nothing here imports the package under test: fixtures are read with a small
reader of our own, so the expected answers never come from the engine.
"""
from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "src" / "ilalg" / "fixtures"

FLAG_NAMES = ("distributive", "prime", "maximal", "implicative", "affine")


def parse_alg(text: str) -> dict:
    """Read the directives of an .alg text into plain name-keyed fields."""
    doc = {"elements": [], "order": [], "unit": None, "star": {}, "arrow": {}}
    for raw in text.splitlines():
        toks = raw.split("#", 1)[0].split()
        if not toks:
            continue
        kw, rest = toks[0], toks[1:]
        if kw == "elements":
            doc["elements"] = rest
        elif kw == "order":
            doc["order"].append((rest[0], rest[2]))
        elif kw == "unit":
            doc["unit"] = rest[0]
        elif kw in ("star", "arrow"):
            doc[kw][rest[0]] = rest[2:]
    return doc


def closure(n: int, pairs) -> list[list[bool]]:
    """Reflexive-transitive closure, Warshall's algorithm on bitmask rows."""
    up = [1 << i for i in range(n)]
    for a, b in pairs:
        up[a] |= 1 << b
    for k in range(n):
        for i in range(n):
            if up[i] >> k & 1:
                up[i] |= up[k]
    return [[bool(up[i] >> j & 1) for j in range(n)] for i in range(n)]


def _extreme(le, members, greatest):
    hits = [u for u in members
            if all((le[v][u] if greatest else le[u][v]) for v in members)]
    return hits[0] if len(hits) == 1 else None


@dataclass(frozen=True)
class Factor:
    """One bundled fixture: index tables, filters and their sidecar flags."""

    name: str
    elements: tuple[str, ...]
    le: tuple[tuple[bool, ...], ...]
    join: tuple[tuple[int, ...], ...]
    meet: tuple[tuple[int, ...], ...]
    star: tuple[tuple[int, ...], ...]
    arrow: tuple[tuple[int, ...], ...]
    unit: int
    bottom: int
    top: int
    filters: tuple[int, ...]  # masks, ascending
    flags: dict = field(hash=False, compare=False)  # mask -> {flag: bool}

    @property
    def n(self) -> int:
        return len(self.elements)

    @property
    def full(self) -> int:
        return (1 << self.n) - 1


def read_factor(name: str) -> Factor:
    doc = parse_alg((FIXTURES / f"{name}.alg").read_text(encoding="utf-8"))
    side = json.loads((FIXTURES / f"{name}.expect.json").read_text(encoding="utf-8"))
    names = doc["elements"]
    n = len(names)
    ix = {e: i for i, e in enumerate(names)}
    le = closure(n, [(ix[a], ix[b]) for a, b in doc["order"]])
    rng = range(n)
    join = [[_extreme(le, [u for u in rng if le[i][u] and le[j][u]], False)
             for j in rng] for i in rng]
    meet = [[_extreme(le, [u for u in rng if le[u][i] and le[u][j]], True)
             for j in rng] for i in rng]
    star = [[ix[v] for v in doc["star"][e]] for e in names]
    if doc["arrow"]:
        arrow = [[ix[v] for v in doc["arrow"][e]] for e in names]
    else:
        arrow = [[_extreme(le, [w for w in rng if le[star[x][w]][z]], True)
                  for z in rng] for x in rng]
    bottom = _extreme(le, list(rng), False)

    def mask(members):
        return sum(1 << ix[e] for e in members)

    flags = {mask(c["members"]): {f: c[f] for f in FLAG_NAMES}
             for c in side["classification"] or ()}
    return Factor(
        name=name,
        elements=tuple(names),
        le=_freeze(le), join=_freeze(join), meet=_freeze(meet),
        star=_freeze(star), arrow=_freeze(arrow),
        unit=ix[doc["unit"]], bottom=bottom, top=arrow[bottom][bottom],
        filters=tuple(sorted(mask(f) for f in side["filters"] or ())),
        flags=flags,
    )


def _freeze(table):
    return tuple(tuple(row) for row in table)


@dataclass
class Instance:
    """A product written in a seeded carrier order, possibly corrupted.

    Tables are indexed by carrier position. `comps[i]` holds the factor
    indices of carrier element i. `star` carries any corrupted cells;
    `arrow` is the componentwise residual of the factors as read.
    """

    label: str
    factors: tuple[Factor, ...]
    names: list[str]
    comps: list[tuple[int, ...]]
    le: list[list[bool]]
    join: list[list[int]]
    meet: list[list[int]]
    star: list[list[int]]
    arrow: list[list[int]]
    unit: int
    bottom: int
    top: int
    with_arrow: bool

    @property
    def n(self) -> int:
        return len(self.names)

    def text(self) -> str:
        """The instance as .alg text, with Hasse-cover order lines."""
        nm = self.names
        lines = [f"algebra {self.label}", "elements " + " ".join(nm), ""]
        lines += [f"order {nm[i]} <= {nm[j]}" for i, j in self.covers()]
        lines += ["", f"unit {nm[self.unit]}", ""]
        tables = [("star", self.star)] + ([("arrow", self.arrow)] if self.with_arrow else [])
        for kw, table in tables:
            lines += [f"{kw} {nm[i]} : " + " ".join(nm[v] for v in table[i])
                      for i in range(self.n)]
        return "\n".join(lines) + "\n"

    def covers(self) -> list[tuple[int, int]]:
        """(i, j) where j covers i: the two differ in exactly one component,
        and there j's component covers i's in that factor."""
        out = []
        for i, j in itertools.product(range(self.n), repeat=2):
            diff = [k for k, (a, b) in enumerate(zip(self.comps[i], self.comps[j])) if a != b]
            if len(diff) != 1:
                continue
            f = self.factors[diff[0]]
            a, b = self.comps[i][diff[0]], self.comps[j][diff[0]]
            if f.le[a][b] and not any(
                c not in (a, b) and f.le[a][c] and f.le[c][b] for c in range(f.n)
            ):
                out.append((i, j))
        return out

    def mask_of(self, factor_masks) -> int:
        """Carrier mask of the product of one subset per factor."""
        return sum(
            1 << i for i, c in enumerate(self.comps)
            if all(m >> a & 1 for m, a in zip(factor_masks, c))
        )

    def members(self, mask: int) -> list[str]:
        return [self.names[i] for i in range(self.n) if mask >> i & 1]

    def filters(self) -> list[tuple[int, dict]]:
        """Every filter with its flags, in ascending carrier-mask order."""
        out = []
        for combo in itertools.product(*(f.filters for f in self.factors)):
            out.append((self.mask_of(combo), product_flags(self.factors, combo)))
        return sorted(out, key=lambda item: item[0])

    def unit_upset(self) -> int:
        return sum(1 << j for j in range(self.n) if self.le[self.unit][j])

    def blocks(self, mask: int) -> list[list[int]]:
        """Classes of x ~ y iff x->y and y->x lie in the filter, ordered by
        least member, as the quotient lists them."""
        ar = self.arrow
        classes = {}
        for x in range(self.n):
            key = frozenset(y for y in range(self.n)
                            if mask >> ar[x][y] & 1 and mask >> ar[y][x] & 1)
            classes.setdefault(key, sorted(key))
        return sorted(classes.values(), key=lambda blk: blk[0])


def product_flags(factors, combo) -> dict:
    """Flags of a product filter from its factors' sidecar flags.

    Distributive, implicative and affine are componentwise conjunctions. A
    product of two proper filters is never prime (pick x, y that disagree in
    direction in two components), nor maximal, so those two need every
    factor but at most one to contribute its whole carrier.
    """
    flags = [f.flags[m] for f, m in zip(factors, combo)]
    proper = [fl for f, m, fl in zip(factors, combo, flags) if m != f.full]
    return {
        "distributive": all(fl["distributive"] for fl in flags),
        "prime": len(proper) <= 1 and all(fl["prime"] for fl in proper),
        "maximal": len(proper) == 1 and proper[0]["maximal"],
        "implicative": all(fl["implicative"] for fl in flags),
        "affine": all(fl["affine"] for fl in flags),
    }


def make_product(label: str, factor_names, rng: random.Random,
                 with_arrow: bool = True) -> Instance:
    """The direct product of the named fixtures in a seeded carrier order."""
    factors = tuple(read_factor(name) for name in factor_names)
    canon = list(itertools.product(*(range(f.n) for f in factors)))
    rng.shuffle(canon)
    pos = {c: i for i, c in enumerate(canon)}
    rn = range(len(canon))

    def op(table_of):
        return [[pos[tuple(table_of(f)[a][b] for f, a, b in zip(factors, x, y))]
                 for y in canon] for x in canon]

    def elem(pick):
        return pos[tuple(pick(f) for f in factors)]

    return Instance(
        label=label,
        factors=factors,
        names=[".".join(f.elements[a] for f, a in zip(factors, c)) for c in canon],
        comps=canon,
        le=[[all(f.le[a][b] for f, a, b in zip(factors, canon[i], canon[j]))
             for j in rn] for i in rn],
        join=op(lambda f: f.join),
        meet=op(lambda f: f.meet),
        star=op(lambda f: f.star),
        arrow=op(lambda f: f.arrow),
        unit=elem(lambda f: f.unit),
        bottom=elem(lambda f: f.bottom),
        top=elem(lambda f: f.top),
        with_arrow=with_arrow,
    )


def automorphism(inst: Instance, rng: random.Random):
    """A seeded automorphism of the product, as a map from factor indices
    (a `comps` tuple) to a carrier index: a permutation of the positions of
    identical factors."""
    groups: dict[str, list[int]] = {}
    for k, f in enumerate(inst.factors):
        groups.setdefault(f.name, []).append(k)
    perm = list(range(len(inst.factors)))
    for ks in groups.values():
        moved = rng.sample(ks, len(ks))
        for k, source in zip(ks, moved):
            perm[k] = source
    index = {c: i for i, c in enumerate(inst.comps)}
    return lambda c: index[tuple(c[k] for k in perm)]


def corrupt(inst: Instance, cells: int, rng: random.Random) -> Instance:
    """Overwrite `cells` distinct star cells with a different element each.

    The cells and their new values are a fixed pattern over the factor
    indices, moved by a seeded automorphism: each seed corrupts other
    cells, but every seed breaks the same number of law instances, so the
    size of the reports does not vary with the seed.
    """
    pattern = random.Random(f"{inst.label}:{cells}")
    canon = sorted(inst.comps)
    move = automorphism(inst, rng)
    for cell in pattern.sample(range(inst.n * inst.n), cells):
        a, b = (canon[i] for i in divmod(cell, inst.n))
        old = tuple(f.star[i][j] for f, i, j in zip(inst.factors, a, b))
        new = pattern.choice([c for c in canon if c != old])
        x, y = move(a), move(b)
        inst.star[x][y] = move(new)
    return inst


def break_residual(inst: Instance, rng: random.Random) -> Instance:
    """Set x*top = top for an x below top (a fixed choice moved by a seeded
    automorphism, as in `corrupt`).

    On an integral product (top is the unit) this leaves {w : x*w <= x}
    equal to every element but top, which has no greatest element once top
    has two lower covers, so the residual cannot be derived.
    """
    top = inst.comps[inst.top]
    x = automorphism(inst, rng)(random.Random(inst.label).choice(
        [c for c in sorted(inst.comps) if c != top]))
    inst.star[x][inst.top] = inst.top
    return inst


def unresiduated_pairs(inst: Instance) -> list[tuple[int, int]]:
    """Every (x, z) whose solution set {w : x*w <= z} is empty or has no
    greatest element, in row-major order; computed with bitmasks."""
    n, le, st = inst.n, inst.le, inst.star
    down = [sum(1 << v for v in range(n) if le[v][u]) for u in range(n)]
    out = []
    for x, z in itertools.product(range(n), repeat=2):
        sol = sum(1 << w for w in range(n) if le[st[x][w]][z])
        if not any(sol >> u & 1 and sol & ~down[u] == 0 for u in range(n)):
            out.append((x, z))
    return out

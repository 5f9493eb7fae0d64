"""Correctness gate: every CLI output is compared with the answer its input
was built to have.

Each check returns a list of problems; an invocation fails when its exit
code is wrong, a check reports a problem, or its output digest differs from
the one pinned for the same workload, seed, round and invocation. Violation
witnesses are re-evaluated on the generator's raw tables with the law
definitions below, which share no code with the engine, and the number of
violations per law must equal the pinned count (see `violation_counts`).
"""
from __future__ import annotations

import collections
import hashlib
import random
import re

import gen

_HUMAN = re.compile(r"^(\S+)\s+(\S+)\s*(?:\(([^)]*)\))?\s*(.*)$")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def records(text: str, machine: bool) -> list[tuple]:
    """(kind, label, witness, detail) for each report line of an output."""
    out = []
    for line in text.splitlines():
        if not line.strip():
            continue
        if machine:
            kind, label, wit, detail = line.split(";")
            out.append((kind, label, tuple(wit.split(",")) if wit else (), detail))
        else:
            m = _HUMAN.match(line)
            if m is None:
                out.append(("?", line, (), ""))
                continue
            kind, label, wit, detail = m.groups()
            out.append((kind, label, tuple(wit.split(", ")) if wit else (), detail))
    return out


def split_spec(text: str) -> tuple[str, str]:
    """A human quotient report is followed by a blank line and the quotient
    in .alg syntax."""
    head, sep, spec = text.partition("\n\n")
    return head, spec if sep else ""


def same_records(got, want, what="output") -> list[str]:
    if got == want:
        return []
    for i, (g, w) in enumerate(zip(got, want)):
        if g != w:
            return [f"{what} line {i}: got {g!r}, want {w!r}"]
    return [f"{what} has {len(got)} records, want {len(want)}"]


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


# ---- valid products -------------------------------------------------------

def expect_check_pass(machine: bool):
    want = [("VERDICT", label, (), "pass")
            for label in ("lattice", "monoid", "residuation", "identities", "overall")]
    return lambda out: same_records(records(out, machine), want)


def expect_arrow_rows(inst: gen.Instance):
    nm = inst.names
    want = [["arrow", nm[i], ":", *(nm[v] for v in inst.arrow[i])] for i in range(inst.n)]
    return lambda out: ([] if [line.split() for line in out.splitlines()] == want
                        else ["derived arrow rows differ from the componentwise residual"])


def expect_filters(inst: gen.Instance, machine: bool, classify: bool):
    found = inst.filters()
    if classify:
        want = [("FILTER", "classified", tuple(inst.members(m)),
                 " ".join(f"{k}={_yn(fl[k])}" for k in gen.FLAG_NAMES))
                for m, fl in found]
    else:
        want = [("FILTER", "filter", tuple(inst.members(m)), "") for m, _ in found]
    want.append(("VERDICT", "filters", (), f"count={len(found)}"))
    return lambda out: same_records(records(out, machine), want)


def expect_quotient(inst: gen.Instance, mask: int, machine: bool):
    """Blocks, induced tables, verdicts and (human) the pasted quotient.

    The premises come from the product filter's flags; every theorem must
    hold. For the human form the printed .alg quotient is read back and its
    tables and order compared with the blockwise ones.
    """
    flags = dict(inst.filters())[mask]
    blocks = inst.blocks(mask)
    proj = {x: bi for bi, blk in enumerate(blocks) for x in blk}
    qn = [f"[{inst.names[blk[0]]}]" for blk in blocks]
    reps = [blk[0] for blk in blocks]
    rb = range(len(blocks))
    star = [[proj[inst.star[reps[i]][reps[j]]] for j in rb] for i in rb]
    arrow = [[proj[inst.arrow[reps[i]][reps[j]]] for j in rb] for i in rb]
    qle = [[bool(mask >> inst.arrow[reps[i]][reps[j]] & 1) for j in rb] for i in rb]
    want = [("BLOCK", qn[bi], tuple(inst.names[x] for x in blk), f"index={bi}")
            for bi, blk in enumerate(blocks)]
    if machine:
        for opname, table in (("star", star), ("arrow", arrow)):
            want += [("TABLE", opname, (qn[i], qn[j]), qn[table[i][j]])
                     for i in rb for j in rb]
    want += [("VERDICT", "induced-algebra", (), "pass"),
             ("VERDICT", "quotient-order", (), "pass")]
    theorem = re.compile(r"premise=(yes|no) conclusion=(yes|no) pass$")
    premises = {"distributive-quotient": flags["distributive"],
                "linear-quotient": flags["prime"],
                "affine-quotient": flags["affine"]}
    singletons = len(blocks) == inst.n

    def check(out: str) -> list[str]:
        head, spec = (out, "") if machine else split_spec(out)
        got = records(head, machine)
        k = len(want)
        problems = same_records(got[:k], want, "quotient report")
        tail = got[k:]
        labels = [r[1] for r in tail]
        expected_labels = list(premises) + (["quotient"] if singletons else [])
        if labels != expected_labels:
            return problems + [f"quotient verdicts {labels}, want {expected_labels}"]
        for kind, label, _, detail in tail[:3]:
            m = theorem.match(detail)
            if m is None or (m.group(1) == "yes") != premises[label]:
                problems.append(f"{label}: {detail!r}, premise should be "
                                f"{_yn(premises[label])} and the theorem hold")
        if not machine:
            problems += _same_spec(spec, qn, qle, star, arrow, qn[proj[inst.unit]])
        return problems

    return check


def _same_spec(spec, names, le, star, arrow, unit) -> list[str]:
    doc = gen.parse_alg(spec)
    if doc["elements"] != names:
        return ["pasted quotient lists other elements"]
    ix = {e: i for i, e in enumerate(names)}
    problems = []
    if doc["unit"] != unit:
        problems.append(f"pasted quotient unit {doc['unit']}, want {unit}")
    if gen.closure(len(names), [(ix[a], ix[b]) for a, b in doc["order"]]) != le:
        problems.append("pasted quotient order differs")
    for kw, table in (("star", star), ("arrow", arrow)):
        rows = {e: [names[v] for v in row] for e, row in zip(names, table)}
        if doc[kw] != rows:
            problems.append(f"pasted quotient {kw} table differs")
    return problems


# ---- corrupted products ---------------------------------------------------

def _law_checks(t: gen.Instance):
    le, st, ar, jn, mt, u = t.le, t.star, t.arrow, t.join, t.meet, t.unit
    return {
        "star-commutative": lambda x, y: st[x][y] != st[y][x],
        "star-associative": lambda x, y, z: st[st[x][y]][z] != st[x][st[y][z]],
        "star-unit": lambda x, y: st[x][y] != (y if x == u else x) and u in (x, y),
        "residuation": lambda x, y, z: le[st[x][y]][z] != le[x][ar[y][z]],
        "star-distributes-join":
            lambda x, y, z: st[x][jn[y][z]] != jn[st[x][y]][st[x][z]],
        "top-greatest": lambda x: not le[x][ar[t.bottom][t.bottom]],
        "subunit-star-below-meet":
            lambda x, y: le[x][u] and le[y][u] and not le[st[x][y]][mt[x][y]],
        "superunit-join-below-star":
            lambda x, y: le[u][x] and le[u][y] and not le[jn[x][y]][st[x][y]],
        "arrow-transitive":
            lambda x, y, z: not le[st[ar[x][y]][ar[y][z]]][ar[x][z]],
        "unit-arrow-identity": lambda x: ar[u][x] != x,
        "star-monotone": lambda x, y, x1, y1: (
            le[x][x1] and le[y][y1] and not le[st[x][y]][st[x1][y1]]),
        "arrow-antitone": lambda x, y, x1, y1: (
            le[x][x1] and le[y][y1] and not le[ar[x1][y]][ar[x][y1]]),
        "arrow-curry": lambda x, y, z: ar[x][ar[y][z]] != ar[st[x][y]][z],
        "modus-ponens": lambda x, y: not le[st[x][ar[x][y]]][y],
        "self-arrow-above-unit": lambda x: not le[u][ar[x][x]],
    }


def violation_counts(recs) -> dict[str, int]:
    """Reported violations per law. The corrupted cells are a fixed pattern
    moved by an automorphism and a misprint is moved by the carrier order,
    so these counts are the same for every seed and round; pin.py pins them
    and the gate compares every errata output with them, which catches a
    report that leaves violations out."""
    return dict(sorted(collections.Counter(r[1] for r in recs if r[0] == "VIOLATION").items()))


def _same_counts(recs, want: dict | None) -> list[str]:
    if want is None:
        return []
    got = violation_counts(recs)
    if got == want:
        return []
    return [f"{sum(got.values())} violations {got}, want {sum(want.values())} {want}"]


def recheck_witnesses(t: gen.Instance, recs, rng: random.Random, k: int) -> list[str]:
    """Re-evaluate a seeded sample of k reported violations on the raw
    tables; each must really break its law at its witness."""
    laws = _law_checks(t)
    ix = {e: i for i, e in enumerate(t.names)}
    violations = [r for r in recs if r[0] == "VIOLATION"]
    problems = []
    for _, law, wit, _ in rng.sample(violations, min(k, len(violations))):
        try:
            broken = laws[law](*(ix[w] for w in wit))
        except (KeyError, TypeError):
            problems.append(f"violation {law} {wit} names no law of the suite")
            continue
        if not broken:
            problems.append(f"violation {law} {wit} holds on the tables")
    return problems


def expect_errata(t: gen.Instance, machine: bool, lenient: bool,
                  rng: random.Random, sample: int, counts: dict | None):
    """A lenient or strict `check` of a product with a broken table.

    The order is a valid product order, so the lattice suite passes; the
    residual no longer matches `star`, so residuation fails, and so does
    the overall verdict.
    """
    labels = ["lattice", "monoid", "residuation"] + (["identities"] if lenient else []) + ["overall"]

    def check(out: str) -> list[str]:
        recs = records(out, machine)
        verdicts = {r[1]: r[3] for r in recs if r[0] == "VERDICT"}
        problems = []
        if [r[1] for r in recs if r[0] == "VERDICT"] != labels:
            problems.append(f"verdicts {list(verdicts)}, want {labels}")
        for label, status in (("lattice", "pass"), ("residuation", "fail"), ("overall", "fail")):
            if verdicts.get(label) != status:
                problems.append(f"{label} verdict {verdicts.get(label)!r}, want {status!r}")
        if any(r[0] not in ("VERDICT", "VIOLATION") for r in recs):
            problems.append("unexpected record kind in check report")
        problems += _same_counts(recs, counts)
        return problems + recheck_witnesses(t, recs, rng, sample)

    return check


def expect_filters_refused(t: gen.Instance, machine: bool, rng, sample: int,
                           counts: dict | None):
    head = ("ERROR", "filters", (), "filter enumeration needs a law-valid algebra")

    def check(out: str) -> list[str]:
        recs = records(out, machine)
        problems = [] if recs[:1] == [head] else [f"first record {recs[:1]}, want {head}"]
        if not any(r[:2] == ("VIOLATION", "residuation") for r in recs):
            problems.append("no residuation violation listed")
        problems += _same_counts(recs, counts)
        return problems + recheck_witnesses(t, recs, rng, sample)

    return check


def expect_unresiduated(t: gen.Instance, machine: bool):
    nm = t.names
    want = [("ERROR", "not-residuated", (nm[x], nm[z]),
             "no greatest solution w of x*w <= z")
            for x, z in gen.unresiduated_pairs(t)]
    return lambda out: same_records(records(out, machine), want)

"""The three workloads: which products are generated and which CLI
invocations run on them, each with its expected exit code and answer.

Every workload runs each subcommand group at least once, so every metric
exists on every workload; the light invocations that only serve that are
marked "touch" below and keep their layers near idle. The seed and the
round pick each product's carrier order, the corrupted cells and the
maximal filters used; the factors are fixed so the size mix stays the same.
"""
from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import gate
import gen

PINS = Path(__file__).resolve().parent / "digests.json"

GROUPS = ("check", "filters", "classify", "quotient", "derive_arrow")
SUBCOMMAND = {"check": "check", "filters": "filters", "classify": "filters",
              "quotient": "quotient", "derive_arrow": "derive-arrow"}
SAMPLE = 32  # violation witnesses re-evaluated per errata output
# Subprocess runs per pass of an invocation that makes up a metric on its
# own and takes 0.1-0.3 s. With one run per pass such a metric rests on the
# median of 2-5 samples, and its 10-seed spread reached 0.09-0.14.
SOLO = 3


@dataclass
class Invocation:
    key: str  # unique in the plan
    group: str
    args: list[str]  # CLI arguments; args[1] is the input file name
    exit: int
    check: Callable[[str], list[str]]
    repeat: int  # subprocess runs per pass


@dataclass
class Plan:
    workload: str
    seed: int
    round: int
    violations: dict | None  # pinned violation counts by key; None while pinning
    files: dict[str, str] = field(default_factory=dict)
    invocations: list[Invocation] = field(default_factory=list)

    def rng(self, *parts) -> random.Random:
        return random.Random(":".join(map(str, (self.workload, self.seed, self.round) + parts)))

    def product(self, factors, with_arrow, label=None) -> gen.Instance:
        """The product in a carrier order drawn for this round."""
        label = label or _label(factors)
        return gen.make_product(label, factors, self.rng(label), with_arrow)

    @staticmethod
    def key(group, inst, flags=()) -> str:
        return " ".join([SUBCOMMAND[group], *_cli_flags(group, flags), inst.label])

    def pinned_violations(self, group, inst, flags=()) -> dict | None:
        """Violations per law pinned for an invocation; None while pinning."""
        if self.violations is None:
            return None
        return self.violations[self.key(group, inst, flags)]

    def add(self, group, inst, flags=(), exit=0, check=None, members=None, repeat=1) -> None:
        """Queue one invocation; `members` is the --filter argument, kept
        out of the key, which must stay short and unique in the workload."""
        fname = inst.label + ".alg"
        if fname not in self.files:
            self.files[fname] = inst.text()
        key = self.key(group, inst, flags)
        flags = _cli_flags(group, flags)
        if members is not None:
            flags += ["--filter", ",".join(inst.members(members))]
        args = [SUBCOMMAND[group], fname, *flags]
        self.invocations.append(Invocation(key, group, args, exit, check, repeat))


def _cli_flags(group, flags) -> list[str]:
    return (["--classify"] if group == "classify" else []) + list(flags)


def _label(factors) -> str:
    if len(set(factors)) == 1:
        return f"{factors[0]}^{len(factors)}"
    return "-x-".join(factors)


def law_suite_64(plan: Plan) -> None:
    """check, derive-arrow and unit-upset quotients at n = 49-64: the
    derive path (no arrow rows) and the validate path (arrow rows)."""
    for factors, with_arrow in (
        (("bool2",) * 6, False),
        (("bool2", "pentagon-corrected", "chain6lo"), False),
        (("wide7-corrected",) * 2, True),
    ):
        t = plan.product(factors, with_arrow)
        plan.add("check", t, check=gate.expect_check_pass(False))
        plan.add("derive_arrow", t, check=gate.expect_arrow_rows(t))
        up = t.unit_upset()
        plan.add("quotient", t, members=up, check=gate.expect_quotient(t, up, False))
    touch = plan.product(("fork", "pentagon-corrected"), False)
    plan.add("filters", touch, check=gate.expect_filters(touch, False, False), repeat=SOLO)
    plan.add("classify", touch, check=gate.expect_filters(touch, False, True), repeat=SOLO)


def filter_lattice(plan: Plan) -> None:
    """Filter enumeration, classification and quotients by a seeded maximal
    filter at n = 30-42, with 4-20 filters per product."""
    specs = [
        (("fork", "pentagon-corrected"), False),
        (("chain6lo", "chain6lo"), False),
        (("wide7-corrected", "chain6lo"), True),
        (("chain6hi-corrected", "wide7-corrected"), True),
    ]
    products = [plan.product(factors, with_arrow) for factors, with_arrow in specs]
    for i, t in enumerate(products):
        plan.add("filters", t, check=gate.expect_filters(t, False, False))
        plan.add("classify", t, ["--machine"], check=gate.expect_filters(t, True, True))
        maximal = [m for m, fl in t.filters() if fl["maximal"]]
        mask = plan.rng(t.label, "maximal").choice(maximal)
        machine = i > 0  # the first quotient is printed in full (touch)
        plan.add("quotient", t, ["--machine"] if machine else [], members=mask,
                 check=gate.expect_quotient(t, mask, machine))
    touch = products[0]
    plan.add("check", touch, check=gate.expect_check_pass(False), repeat=SOLO)
    plan.add("derive_arrow", touch, check=gate.expect_arrow_rows(touch), repeat=SOLO)


def errata_lenient(plan: Plan) -> None:
    """Lenient and strict checks and refused filter runs on products with
    broken tables, one of which prints 14k violation lines, plus one
    underivable residual and a valid control product (touch)."""
    broken = []
    for cells in (1, 5, 20):
        t = plan.product(("bool2",) * 6, True, f"bool2^6-bad{cells}")
        broken.append(gen.corrupt(t, cells, plan.rng(t.label, "cells")))
    broken.append(plan.product(("wide7-printed", "chain6lo"), True))
    for t in broken:
        for flags, lenient in ((["--lenient", "--machine"], True), (["--lenient"], True), ([], False)):
            plan.add("check", t, flags, exit=1, check=gate.expect_errata(
                t, "--machine" in flags, lenient, plan.rng(t.label, "check", *flags), SAMPLE,
                plan.pinned_violations("check", t, flags)))
        plan.add("filters", t, exit=1, check=gate.expect_filters_refused(
            t, False, plan.rng(t.label, "filters"), SAMPLE, plan.pinned_violations("filters", t)))
    t = plan.product(("bool2",) * 6, False, "bool2^6-noresidual")
    gen.break_residual(t, plan.rng(t.label, "cell"))
    plan.add("derive_arrow", t, exit=1, check=gate.expect_unresiduated(t, False), repeat=SOLO)
    touch = plan.product(("fork", "pentagon-corrected"), True)
    plan.add("check", touch, check=gate.expect_check_pass(False))
    plan.add("classify", touch, check=gate.expect_filters(touch, False, True), repeat=SOLO)
    up = touch.unit_upset()
    plan.add("quotient", touch, members=up, check=gate.expect_quotient(touch, up, False),
             repeat=SOLO)


WORKLOADS = {
    "law-suite-64": law_suite_64,
    "filter-lattice": filter_lattice,
    "errata-lenient": errata_lenient,
}


@functools.cache
def pins(workload: str) -> dict:
    """The workload's entry in digests.json (written by pin.py)."""
    return json.loads(PINS.read_text(encoding="utf-8"))[workload]


def build(workload: str, seed: int, round_: int = 0, pinned: bool = True) -> Plan:
    """Round `round_` of the seed's inputs for a workload: the same
    invocations with fresh carrier orders, cells and filters. With
    `pinned`, the errata checks also compare the number of violations
    per law with the counts in digests.json."""
    plan = Plan(workload, seed, round_, pins(workload)["violations"] if pinned else None)
    WORKLOADS[workload](plan)
    return plan

"""Tests of the benchmark's own code: generator, gate and tracer.

    PYTHONPATH=src python -m pytest -q perfbench
"""
from __future__ import annotations

import contextlib
import io
import random
import shutil
import subprocess
import sys

import pytest

import gate
import gen
import workloads
from tracer import Tracer, self_times, summarize

sys.path.insert(0, str(gen.ROOT / "tests"))
sys.path.insert(0, str(gen.ROOT / "src"))
import oracle  # noqa: E402

SMALL = [("bool2", "bool2"), ("bool2", "fork"), ("chain6lo", "bool2")]


def model_of(inst: gen.Instance, with_arrow: bool) -> oracle.Model:
    doc = gen.parse_alg(inst.text())
    return oracle.Model(doc["elements"], doc["order"], doc["star"], doc["unit"],
                        doc["arrow"] if with_arrow else None)


@pytest.mark.parametrize("factors", SMALL)
@pytest.mark.parametrize("with_arrow", [True, False])
def test_small_products_agree_with_oracle(factors, with_arrow):
    inst = gen.make_product("p", factors, random.Random(7), with_arrow)
    m = model_of(inst, with_arrow)
    nm = inst.names
    assert gen.closure(inst.n, [(nm.index(a), nm.index(b)) for a, b in
                                gen.parse_alg(inst.text())["order"]]) == inst.le
    assert oracle.law_failures(m) == {}
    assert oracle.identity_failures(m) == {}
    assert {(a, b): nm[inst.arrow[i][j]] for i, a in enumerate(nm)
            for j, b in enumerate(nm)} == m.arrow
    found = inst.filters()
    assert [inst.members(mask) for mask, _ in found] == oracle.sweep_filters(m)
    for mask, flags in found:
        assert flags == oracle.classify(m, inst.members(mask))
        assert [[nm[x] for x in blk] for blk in inst.blocks(mask)] == \
            oracle.congruence_blocks(m, inst.members(mask))
    assert all(len(b) == 1 for b in inst.blocks(inst.unit_upset()))


def test_unresiduated_pairs_match_oracle():
    inst = gen.make_product("p", ("bool2", "bool2", "bool2"), random.Random(3), False)
    gen.break_residual(inst, random.Random(3))
    m = model_of(inst, False)
    want = [(a, b) for a in m.names for b in m.names if m.arrow[(a, b)] is None]
    assert want
    assert [(inst.names[x], inst.names[z]) for x, z in gen.unresiduated_pairs(inst)] == want


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic(workload):
    a, b = workloads.build(workload, 5, 1), workloads.build(workload, 5, 1)
    assert a.files == b.files
    assert [i.key for i in a.invocations] == [i.key for i in b.invocations]
    for other in (workloads.build(workload, 6, 1), workloads.build(workload, 5, 2)):
        assert other.files != a.files
        assert [i.key for i in other.invocations] == [i.key for i in a.invocations]


def run_cli(args):
    from ilalg import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(args)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def errata_plan(tmp_path_factory):
    """The errata workload written out, with each output of seed 0 computed once."""
    plan = workloads.build("errata-lenient", 0)
    work = tmp_path_factory.mktemp("errata")
    for name, text in plan.files.items():
        (work / name).write_text(text)
    outputs = {}
    for inv in plan.invocations:
        args = list(inv.args)
        args[1] = str(work / args[1])
        outputs[inv.key] = run_cli(args)
    return plan, outputs


def test_gate_accepts_the_engine(errata_plan):
    plan, outputs = errata_plan
    for inv in plan.invocations:
        code, out, err = outputs[inv.key]
        assert (code, err) == (inv.exit, "")
        assert inv.check(out) == [], inv.key


def test_gate_flags_wrong_outputs(errata_plan):
    plan, outputs = errata_plan
    by_group = {}
    for inv in plan.invocations:
        by_group.setdefault((inv.group, inv.exit), inv)
    # A valid check that reports a failure.
    inv = by_group[("check", 0)]
    out = outputs[inv.key][1]
    assert inv.check(out.replace("overall                    pass",
                                 "overall                    fail"))
    # A filter list with one filter missing.
    inv = by_group[("classify", 0)]
    lines = outputs[inv.key][1].splitlines()
    assert inv.check("\n".join(lines[1:]) + "\n")
    # A broken table reported as passing residuation.
    inv = next(i for i in plan.invocations if i.key.startswith("check --lenient --machine"))
    out = outputs[inv.key][1]
    assert inv.check(out.replace("VERDICT;residuation;;fail", "VERDICT;residuation;;pass"))
    # A report that leaves one violation out; every witness left is real.
    lines = out.splitlines()
    drop = next(i for i, line in enumerate(lines) if line.startswith("VIOLATION;"))
    problems = inv.check("\n".join(lines[:drop] + lines[drop + 1:]) + "\n")
    assert len(problems) == 1 and " violations " in problems[0]
    # A violation witness at which the law holds.
    t = gen.make_product("p", ("bool2",) * 6, random.Random(1), True)
    forged = [("VIOLATION", "residuation", (t.names[0],) * 3, "")]
    assert gate.recheck_witnesses(t, forged, random.Random(0), 5)


def test_gate_counts_exit_and_digest_failures(errata_plan):
    sys.path.insert(0, str(gen.ROOT / "perfbench"))
    import run

    plan, outputs = errata_plan
    inv = plan.invocations[0]
    code, out, err = outputs[inv.key]
    judge = run.Gate()
    judge.pins = {inv.key: gate.digest(out)}
    judge.judge(inv, code, out, err)
    assert (judge.attempted, judge.failed) == (1, 0)
    judge.judge(inv, 0, out, err)  # wrong exit code
    judge.judge(inv, code, out + "\n", err)  # digest differs
    assert (judge.attempted, judge.failed) == (3, 2)


def test_tracer_spans_cover_reimported_bindings(tmp_path):
    import ilalg.cli  # noqa: F401  (the modules must be loaded to be wrapped)
    import ilalg.quotient as quotient

    inst = gen.make_product("p", ("bool2", "fork"), random.Random(2), True)
    path = tmp_path / "p.alg"
    path.write_text(inst.text())
    tracer = Tracer()
    tracer.install()
    try:
        assert quotient.assemble_algebra.__wrapped__ is not None
        code, _, _ = run_cli(["quotient", str(path), "--filter",
                              ",".join(inst.members(inst.unit_upset()))])
    finally:
        tracer.uninstall()
    assert not hasattr(quotient.assemble_algebra, "__wrapped__")
    assert code == 0
    spans = tracer.spans
    assert spans[0].name == "cli.main" and spans[0].parent == -1
    parents = {spans[s.parent].name for s in spans if s.name == "core.assemble_algebra"}
    assert "quotient.quotient_algebra" in parents
    summary = summarize(spans)
    assert summary["calls"]["core.assemble_algebra"] == 6
    assert summary["counts"]["quotient.blocks"] == 5 * inst.n
    assert sum(self_times(spans)) == spans[0].end - spans[0].start


def test_runner_refuses_without_sources(tmp_path):
    shutil.copytree(gen.ROOT / "perfbench", tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "filter-lattice",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

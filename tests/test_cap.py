"""The 64-element cap, end to end: `python -m ilalg` on files written from
the generators of `helpers`, whose answers are known by construction, with
expected counts from plain loops over the generators' tables."""
from __future__ import annotations

import itertools
import json
import subprocess
import sys
from functools import lru_cache

import pytest

from helpers import (algebra_of, bool2_power, direct_product, godel_chain, lukasiewicz_chain,
                     ordinal_sum, rot_star, star_tampered, sugihara_chain, upset_of_unit)
from ilalg import build_algebra, document_of, enumerate_filters, render_spec

GENERATORS = {
    "bool2-6": lambda: bool2_power(6),
    "godel-64": lambda: godel_chain(64),
    "wide7-2": lambda: direct_product(*[algebra_of("wide7-corrected")] * 2),
    "sugihara-63": lambda: sugihara_chain(31),
    "lukasiewicz-64": lambda: lukasiewicz_chain(64),
    "godel-32-sum-bool2-5": lambda: ordinal_sum(godel_chain(32), bool2_power(5)),
}
UNIT_UPSET = "--filter=<unit upset>"


@lru_cache(maxsize=None)
def cap_algebra(name):
    return GENERATORS[name]()


def filter_option(alg, members):
    return "--filter=" + ",".join(alg.names(members))


def spelled(argv, name):
    """`argv` with UNIT_UPSET spelled out for the cap algebra `name`."""
    alg = cap_algebra(name)
    return [filter_option(alg, upset_of_unit(alg)) if a == UNIT_UPSET else a for a in argv]


def ilalg(*argv):
    """`python -m ilalg argv`, stopped after 10 s: (exit code, stdout bytes)."""
    proc = subprocess.run([sys.executable, "-m", "ilalg", *argv], capture_output=True, timeout=10)
    return proc.returncode, proc.stdout


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Paths by label: the six cap algebras, and bool2^6 with 20 star cells
    changed (13,932 records under check --lenient) or with x*y = rot(x) meet
    y and no arrow rows (478,096 records, about 82 MB of text)."""
    folder = tmp_path_factory.mktemp("cap")
    docs = {name: document_of(cap_algebra(name), name) for name in GENERATORS}
    docs["bad20"] = star_tampered(docs["bool2-6"]._replace(name="bool2-6-bad20"), 20, 20)
    docs["rot-star"] = rot_star(6)
    for label, doc in docs.items():
        (folder / f"{label}.alg").write_text(render_spec(doc), encoding="utf-8")
    return {label: str(folder / f"{label}.alg") for label in docs}


@pytest.mark.parametrize("name", GENERATORS)
def test_derive_arrow_prints_the_generators_residual(files, name):
    # plain loops show that the generator's arrow is the residual: x*w <= z
    # exactly when w <= x->z; derive-arrow drops the file's arrow rows
    alg = cap_algebra(name)
    st, ar, le, nm = alg.star_table, alg.arrow_table, alg.leq_table, alg.carrier
    assert all(le[st[x][w]][z] == le[w][ar[x][z]]
               for x, w, z in itertools.product(range(alg.n), repeat=3))
    residual = "".join(f"TABLE;arrow;{nm[x]},{nm[z]};{nm[ar[x][z]]}\n"
                       for x, z in itertools.product(range(alg.n), repeat=2))
    assert ilalg("derive-arrow", "--machine", files[name]) == (0, residual.encode())


@pytest.mark.parametrize("argv", [("check",), ("filters",), ("filters", "--classify"),
                                  ("derive-arrow",), ("quotient", UNIT_UPSET)], ids=" ".join)
@pytest.mark.parametrize("name", GENERATORS)
def test_valid_command_exits_zero_in_ten_seconds(files, name, argv):
    assert ilalg(*spelled(argv, name), files[name])[0] == 0


@pytest.mark.parametrize("name", GENERATORS)
def test_valid_algebra_passes_the_identities_by_their_proofs(files, name):
    code, out = ilalg("check", "--machine", files[name])
    assert code == 0
    assert b"VERDICT;identities;;pass" in out.splitlines()


@pytest.mark.parametrize("name", GENERATORS)
def test_quotient_by_bottom_and_unit_exits_one_as_not_upward_closed(files, name):
    alg = cap_algebra(name)
    code, out = ilalg("quotient", filter_option(alg, [alg.bottom, alg.unit]), files[name])
    assert code == 1
    assert any(line.startswith(b"VIOLATION upward-closed ") for line in out.splitlines())


@pytest.mark.parametrize("name", GENERATORS)
def test_quotient_by_the_middle_filter_is_an_algebra(files, name):
    # the middle enumerated filter usually has blocks that are not singletons
    alg = cap_algebra(name)
    filters = enumerate_filters(alg)
    middle = filter_option(alg, filters[len(filters) // 2].members())
    code, out = ilalg("quotient", middle, "--machine", files[name])
    lines = out.splitlines()
    assert code == 0
    assert b"VERDICT;induced-algebra;;pass" in lines
    assert b"VERDICT;quotient-order;;pass" in lines


def violation_counts(alg, laws):
    """The violations of each law, counted by plain loops over the tables."""
    st, ar, jn, mt = alg.star_table, alg.arrow_table, alg.join_table, alg.meet_table
    le, u, rn = alg.leq_table, alg.unit, range(alg.n)
    pairs = lambda: itertools.product(rn, repeat=2)
    triples = lambda: itertools.product(rn, repeat=3)
    below = [(x, x1) for x, x1 in pairs() if le[x][x1]]
    # (x, y, x1, y1) with x <= x1 and y <= y1
    monotone = lambda: ((x, y, x1, y1) for x, x1 in below for y, y1 in below)
    checks = {
        "star-associative": (triples, lambda x, y, z: st[st[x][y]][z] != st[x][st[y][z]]),
        "residuation": (triples, lambda x, y, z: le[st[x][y]][z] != le[x][ar[y][z]]),
        "star-distributes-join":
            (triples, lambda x, y, z: st[x][jn[y][z]] != jn[st[x][y]][st[x][z]]),
        "arrow-curry": (triples, lambda x, y, z: ar[st[x][y]][z] != ar[x][ar[y][z]]),
        "star-monotone": (monotone, lambda x, y, x1, y1: not le[st[x][y]][st[x1][y1]]),
        "subunit-star-below-meet":
            (pairs, lambda x, y: le[x][u] and le[y][u] and not le[st[x][y]][mt[x][y]]),
        "arrow-transitive":
            (triples, lambda x, y, z: not le[st[ar[x][y]][ar[y][z]]][ar[x][z]]),
        "arrow-antitone": (monotone, lambda x, y, x1, y1: not le[ar[x1][y]][ar[x][y1]]),
        "modus-ponens": (pairs, lambda x, y: not le[st[x][ar[x][y]]][y]),
    }
    return {law: sum(1 for t in checks[law][0]() if checks[law][1](*t)) for law in laws}


# bool2^6 and the chain L64, each with one star or arrow cell (row, column)
# set to another element and the other table kept. On a valid algebra
# `check` takes the identity verdict from the proofs, so these laws run only
# on such builds. On the chain the up-lists run to 64 elements.
TAMPERINGS = {
    "bool2-6-star": ("bool2-6", "star_rows", (3, 10, 63),
                     ("star-associative", "residuation", "star-distributes-join",
                      "arrow-curry", "star-monotone", "subunit-star-below-meet")),
    "bool2-6-arrow": ("bool2-6", "arrow_rows", (3, 10, 63),
                      ("arrow-transitive", "arrow-antitone", "modus-ponens")),
    "lukasiewicz-64-star": ("lukasiewicz-64", "star_rows", (3, 10, 63), ("star-monotone",)),
    "lukasiewicz-64-arrow": ("lukasiewicz-64", "arrow_rows", (10, 3, 0), ("arrow-antitone",)),
}


@pytest.mark.parametrize("case", TAMPERINGS)
def test_tampered_cell_violations_match_plain_loops(tmp_path, case):
    name, table, (i, j, value), laws = TAMPERINGS[case]
    doc = document_of(cap_algebra(name), case)
    rows = {e: list(row) for e, row in getattr(doc, table).items()}
    assert rows[doc.elements[i]][j] != doc.elements[value]
    rows[doc.elements[i]][j] = doc.elements[value]
    doc = doc._replace(**{table: rows})
    (tmp_path / "tampered.alg").write_text(render_spec(doc), encoding="utf-8")
    expected = violation_counts(build_algebra(doc, mode="lenient")[0], laws)
    assert all(expected.values()), expected
    code, out = ilalg("check", "--lenient", "--machine", str(tmp_path / "tampered.alg"))
    lines = out.splitlines()
    assert code == 1
    assert {law: sum(line.startswith(f"VIOLATION;{law};".encode()) for line in lines)
            for law in laws} == expected


# Runs each child, its stdout sent to /dev/null, and prints its exit code and
# peak RSS in kB. A child's ru_maxrss also counts the pages of the process it
# was forked from, so the children start from this small process, not pytest.
LAUNCHER = """
import json, os, subprocess, sys
for line in sys.stdin:
    proc = subprocess.Popen(json.loads(line), stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(proc.returncode, usage.ru_maxrss, flush=True)
"""


@pytest.fixture(scope="module")
def peak_mb():
    """peak_mb(code, *argv): the median peak RSS in MB of three runs of
    `python -m ilalg argv`, each of which must exit with `code`."""
    launcher = subprocess.Popen([sys.executable, "-c", LAUNCHER], stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, text=True)

    def measure(code, *argv):
        runs = []
        for _ in range(3):
            print(json.dumps([sys.executable, "-m", "ilalg", *argv]), file=launcher.stdin,
                  flush=True)
            runs.append([int(field) for field in launcher.stdout.readline().split()])
        assert [exit_code for exit_code, _ in runs] == [code] * 3, argv
        return sorted(kb for _, kb in runs)[1] / 1024

    yield measure
    launcher.stdin.close()
    launcher.wait(timeout=60)
    launcher.stdout.close()


@pytest.fixture(scope="module")
def valid_check_mb(peak_mb, files):
    return peak_mb(0, "check", files["bool2-6"])


# Records are made as the writer reaches them and written in slices, so
# long lenient reports, the 8,192 TABLE records of a unit-upset quotient and
# the 4,096 of derive-arrow all peak within 5 MB of a valid check.
MEMORY_RUNS = [
    (1, ("check", "--lenient", "--machine", "bad20")),
    (0, ("quotient", "--machine", UNIT_UPSET, "bool2-6")),
    (0, ("quotient", UNIT_UPSET, "bool2-6")),
    (0, ("derive-arrow", "--machine", "bool2-6")),
    (1, ("check", "rot-star")),
    (1, ("check", "--lenient", "--machine", "rot-star")),
    (1, ("derive-arrow", "rot-star")),
]


@pytest.mark.parametrize("code, argv", MEMORY_RUNS, ids=[" ".join(a) for _, a in MEMORY_RUNS])
def test_report_is_written_as_it_is_made(peak_mb, files, valid_check_mb, code, argv):
    *options, label = argv
    peak = peak_mb(code, *spelled(options, "bool2-6"), files[label])
    assert peak - valid_check_mb <= 5, (
        f"the {argv[0]} report is held in memory before it is written: "
        f"{peak:.1f} MB against {valid_check_mb:.1f} MB for a valid check")

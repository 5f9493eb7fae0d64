"""Golden-output corpus of the CLI: one sha256 per invocation over its exit
code, stdout and stderr, kept in `tests/golden.json`.

`corpus(folder)` writes the inputs into `folder` and lists the invocations;
`run_corpus(folder)` runs each in-process. A key is the argv with each input
path written as `<label>`, and the same placeholder stands for the path in
the output before it is hashed. Usage errors and help are hashed in full
like every other invocation: their wording is ilalg's own, the same on every
Python version.

Run this file to re-pin the corpus after a deliberate output change:

    PYTHONPATH=src:tests python3 tests/pin_golden.py

It takes the digests in two child processes with different hash seeds and
stops, writing nothing, if they disagree.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from itertools import combinations_with_replacement
from pathlib import Path

from helpers import (
    ALL_FIXTURES,
    VALID_FIXTURES,
    algebra_of,
    bool2_power,
    direct_product,
    doc_of,
    godel_chain,
    lukasiewicz_chain,
    ordinal_sum,
    rot_star,
    star_tampered,
    sugihara_chain,
    upset_of_unit,
)
from ilalg import document_of, enumerate_filters, is_filter, render_spec

GOLDEN = Path(__file__).with_name("golden.json")

# Every input gets these, then its quotients.
COMMANDS = (
    ["check"], ["check", "--machine"],
    ["check", "--lenient"], ["check", "--lenient", "--machine"],
    ["filters"], ["filters", "--machine"],
    ["filters", "--classify"], ["filters", "--classify", "--machine"],
    ["derive-arrow"], ["derive-arrow", "--machine"],
)
# The products of two valid fixtures get only these, then their quotients.
PRODUCT_COMMANDS = (["check", "--machine"], ["filters", "--classify", "--machine"])


def _non_filter(alg):
    """{bottom, unit} when that is no filter, else the elements not above the
    unit, which lack the unit (empty on a one-element algebra)."""
    pair = sorted({alg.bottom, alg.unit})
    if not is_filter(alg, pair).ok:
        return pair
    return [i for i in range(alg.n) if not alg.leq_table[alg.unit][i]]


def _inputs():
    """label -> (document text, its commands, the --filter values its
    quotients take)."""
    inputs = {}
    for name in ALL_FIXTURES:
        alg = algebra_of(name)
        if name in VALID_FIXTURES:
            subsets = [f.members() for f in enumerate_filters(alg)] + [_non_filter(alg)]
        else:  # refused: the filters are not enumerated on a broken build
            subsets = [upset_of_unit(alg)]
        inputs[name] = (render_spec(doc_of(name)), COMMANDS, [alg.names(s) for s in subsets])
    # Each unordered pair of valid fixtures, squares included, quotiented by
    # its middle filter.
    for a, b in combinations_with_replacement(VALID_FIXTURES, 2):
        alg, label = direct_product(algebra_of(a), algebra_of(b)), f"{a}-x-{b}"
        filters = enumerate_filters(alg)
        inputs[label] = (render_spec(document_of(alg, label)), PRODUCT_COMMANDS,
                         [alg.names(filters[len(filters) // 2].members())])
    for label, alg in (("bool2-6", bool2_power(6)), ("sugihara-63", sugihara_chain(31)),
                       ("godel-64", godel_chain(64)), ("lukasiewicz-64", lukasiewicz_chain(64)),
                       ("godel-32-sum-bool2-5", ordinal_sum(godel_chain(32), bool2_power(5)))):
        filters = enumerate_filters(alg)
        subsets = (upset_of_unit(alg), filters[len(filters) // 2].members(),
                   [alg.bottom, alg.unit])  # the last is not upward closed
        inputs[label] = (render_spec(document_of(alg, label)), COMMANDS,
                         [alg.names(s) for s in subsets])
    # Broken builds, for the violation path: check lists their violations,
    # and the other commands refuse them.
    bool2_6 = bool2_power(6)
    product = direct_product(algebra_of("chain6lo"), algebra_of("pentagon-corrected"))
    for label, source, doc in (
        ("bool2-6-bad20", bool2_6, star_tampered(document_of(bool2_6, "x"), 20, 20)),
        ("bool2-6-arrow1", bool2_6, star_tampered(document_of(bool2_6, "x"), 1, 1, "arrow_rows")),
        ("chain6lo-pentagon-star1", product, star_tampered(document_of(product, "x"), 1, 1)),
        ("chain6lo-pentagon-arrow1", product,
         star_tampered(document_of(product, "x"), 1, 1, "arrow_rows")),
        ("rot-star-bool2-4", bool2_power(4), rot_star(4)),
    ):
        inputs[label] = (render_spec(doc._replace(name=label)), COMMANDS,
                         [source.names(upset_of_unit(source))])
    names = [f"e{i}" for i in range(65)]
    inputs["over-cap-65"] = ("\n".join(
        ["algebra big65", "elements " + " ".join(names), "unit e0"]
        + [f"star {x} : " + " ".join(names) for x in names]) + "\n", COMMANDS, [["e0"]])
    # b*bot := top leaves x*w <= bot without a greatest solution
    doc = doc_of("chain6lo")
    star = {e: list(row) for e, row in doc.star_rows.items()}
    star["b"][0] = "top"
    inputs["no-residual"] = (render_spec(doc._replace(star_rows=star, arrow_rows=None)),
                             COMMANDS, [["1", "top"]])
    return inputs


def corpus(folder: Path) -> tuple[list[tuple[str, list[str]]], dict[str, str]]:
    """Write the inputs into `folder`. Return the (key, argv) invocations,
    and the label of each input path."""
    paths = {}

    def path(label, text=None, data=None):
        file = folder / f"{label}.alg"
        if text is not None:
            file.write_text(text, encoding="utf-8")
        elif data is not None:
            file.write_bytes(data)
        paths[str(file)] = label
        return str(file)

    argvs = []
    for label, (text, commands, subsets) in _inputs().items():
        file = path(label, text)
        argvs += [[command[0], file, *command[1:]] for command in commands]
        argvs += [["quotient", file, "--filter=" + ",".join(members), *flags]
                  for members in subsets for flags in ([], ["--machine"])]
    fork = path("fork")
    argvs.append(["quotient", fork, "--filter=1,zz"])  # bad --filter value
    argvs += [["check", path("missing")],
              ["check", path("latin1", data="algebra caf\xe9\n".encode("latin-1"))],
              ["check", path("parse-error", "algebra x\nelements a\nunit a\nstar a : a a\n")]]
    argvs += [[], ["--help"], ["check", "--help"], ["check"], ["no-such-command", fork],
              ["quotient", fork], ["check", fork, "--no-such-flag"]]  # help and usage errors
    invocations = [(" ".join(f"<{paths[a]}>" if a in paths else a for a in argv), argv)
                   for argv in argvs]
    return invocations, paths


def run_corpus(folder: Path) -> dict[str, tuple[str, int, str, str]]:
    """key -> (digest, exit code, stdout, stderr), input paths replaced by
    their placeholders."""
    from ilalg.cli import main

    invocations, paths = corpus(folder)
    results = {}
    for key, argv in invocations:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        out, err = out.getvalue(), err.getvalue()
        for path, label in paths.items():
            out, err = out.replace(path, f"<{label}>"), err.replace(path, f"<{label}>")
        payload = json.dumps([code, out, err])
        results[key] = (hashlib.sha256(payload.encode()).hexdigest(), code, out, err)
    return results


def _digests() -> dict[str, str]:
    with tempfile.TemporaryDirectory() as folder:
        return {key: r[0] for key, r in run_corpus(Path(folder)).items()}


def main() -> int:
    if sys.argv[1:] == ["--digests"]:
        print(json.dumps(_digests()))
        return 0
    runs = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed}
        proc = subprocess.run([sys.executable, __file__, "--digests"], env=env,
                              capture_output=True, text=True, check=True)
        runs.append(json.loads(proc.stdout))
    if runs[0] != runs[1]:
        differ = sorted(k for k in runs[0].keys() | runs[1].keys()
                        if runs[0].get(k) != runs[1].get(k))
        print("two runs disagree; nothing written:", *differ, sep="\n  ", file=sys.stderr)
        return 1
    GOLDEN.write_text(json.dumps(runs[0], indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"pinned {len(runs[0])} invocations in {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

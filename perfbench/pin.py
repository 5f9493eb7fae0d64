"""Pin the output digest of every invocation, for rounds 0-3 of seeds 0-4,
and the number of violations per law of every errata output.

    python3 perfbench/pin.py

Run at the commit whose reports are the reference; it rewrites
digests.json for every workload. run.py compares the digest of each output
with the one pinned for the same workload, seed, round and invocation,
because reports must stay byte-identical; rounds without pins are checked
by the gate alone. The violation counts do not depend on the seed or the
round (see gate.violation_counts), so the gate compares every round with
them; the script stops if they vary. It also stops at an output that fails
the gate instead of pinning it.
"""
from __future__ import annotations

import itertools
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEEDS = 5
ROUNDS = 4


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import ilalg.cli as cli

    pins = {}
    work = run.WORK / "pin"
    try:
        for name in workloads.WORKLOADS:
            entry = pins[name] = {"keys": None, "violations": {}, "seeds": {}}
            for seed, round_ in itertools.product(range(SEEDS), range(ROUNDS)):
                plan = workloads.build(name, seed, round_, pinned=False)
                run.write_inputs(plan, work)
                entry["keys"] = [inv.key for inv in plan.invocations]
                digests = []
                for inv in plan.invocations:
                    code, out, err = run.run_inprocess(cli, inv, work)
                    problems = ([f"exit {code}"] if code != inv.exit else []) + inv.check(out)
                    counts = gate.violation_counts(gate.records(out, "--machine" in inv.args))
                    if counts and entry["violations"].setdefault(inv.key, counts) != counts:
                        problems.append(f"violations {counts} differ from those of seed 0")
                    if problems or err:
                        print(f"{name} {seed}:{round_} {inv.key}: {problems} {err}",
                              file=sys.stderr)
                        return 1
                    digests.append(gate.digest(out))
                entry["seeds"][f"{seed}:{round_}"] = " ".join(digests)
                print(name, seed, round_, file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (HERE / "digests.json").write_text(json.dumps(pins, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

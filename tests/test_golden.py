"""Byte-identity of CLI output: every invocation of the golden corpus
(`tests/pin_golden.py`) hashes to its pinned digest in `tests/golden.json`."""
from __future__ import annotations

import json

from pin_golden import GOLDEN, run_corpus


def test_cli_output_matches_the_golden_corpus(tmp_path):
    pinned = json.loads(GOLDEN.read_text(encoding="utf-8"))
    runs = run_corpus(tmp_path)
    assert sorted(runs) == sorted(pinned), "the corpus differs from the pinned one"
    changed = []
    for key, (digest, code, out, err) in runs.items():
        if digest != pinned[key]:
            head = "\n    ".join((out + err).splitlines()[:8])
            changed.append(f"{key!r}: exit {code}\n    {head}")
    assert not changed, (f"{len(changed)} of {len(runs)} invocations changed; "
                         "re-pin with tests/pin_golden.py only on purpose:\n"
                         + "\n".join(changed))

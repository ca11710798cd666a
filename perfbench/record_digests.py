"""Regenerate digests.json from the program as it is now.

    python3 perfbench/record_digests.py

Runs one untraced pass of every workload and records the sha256 of the
chi, homology and verify documents of each catalog-basis member.  It
refuses to record while any member misses the expected table.  A change
that rewrites digests.json changes the program's output and must say so.
"""
from __future__ import annotations

import json
import sys

from child import build_inputs, check, import_program, run_pass
from expected import DIGESTS_PATH
from spans import Recorder
from workloads import WORKLOADS


def main() -> int:
    lib = import_program()
    digests: dict[str, dict[str, str]] = {}
    for members in WORKLOADS.values():
        inputs = build_inputs(lib, members, seed=0)
        outputs, _ = run_pass(lib, members, inputs, Recorder())
        for m, g, out in zip(members, inputs, outputs):
            problems, docs = check(lib, m, g, out)
            if problems:
                print(f"{m.key}: {problems}", file=sys.stderr)
                return 1
            if not m.rebased:
                digests[m.key] = docs
    DIGESTS_PATH.write_text(json.dumps(digests, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    print(f"recorded {len(digests)} members in {DIGESTS_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

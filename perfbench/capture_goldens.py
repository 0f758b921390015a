#!/usr/bin/env python3
"""Record the expected stdout of every session command into goldens.json.

    python3 perfbench/capture_goldens.py

Run it only on a commit whose outputs are known to be right: the
``cli_session`` workload compares every command against these bytes.
Candidates that exit nonzero (arguments out of a command's domain) are
left out, and the session never draws them.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def main() -> int:
    scratch = run.prepare()
    goldens: dict[str, str] = {}
    try:
        runner = run.Runner(scratch)
        for _, candidates in run.session_slots():
            for argv in candidates:
                key = " ".join(argv)
                if key in goldens:
                    continue
                child = runner.mapchi(argv)
                if run.clean_exit(child) is None:
                    goldens[key] = child.out
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    with open(run.GOLDENS, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"{len(goldens)} goldens written to {run.GOLDENS}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Every command recorded in perfbench/goldens.json prints the same bytes.

The goldens are the expected stdout of the benchmark's CLI session.  This
test replays each command through `cli.main` in-process and compares
stdout byte for byte; it only reads the file.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from mapchi.cli import main

GOLDENS = Path(__file__).resolve().parent.parent / "perfbench" / "goldens.json"


def run_in_process(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code == 0, argv
    return out.getvalue()


def test_cli_output_matches_goldens():
    goldens = json.loads(GOLDENS.read_text(encoding="utf-8"))
    assert goldens
    mismatched = [
        command for command, expected in goldens.items()
        if run_in_process(command.split(" ")) != expected
    ]
    assert not mismatched, f"{len(mismatched)} of {len(goldens)} differ: {mismatched[:5]}"

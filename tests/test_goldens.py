"""Every command recorded in perfbench/goldens.json prints the same bytes.

The goldens are the expected stdout of the benchmark's CLI session.  This
test replays each command through `cli.main` in-process and compares
stdout byte for byte; it only reads the file.  The 10-edge table, too big
to keep there, is pinned by the sha256 of its output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

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


#: sha256 of the 10-edge table's stdout, in each format and specialization.
TABLE_DIGESTS = {
    "--format csv maps table --max-edges 10":
        "7963ce05d07f0e83bb37b5ce643e57c1ca860391fc9e684915487c2703daf884",
    "--format json maps table --max-edges 10":
        "d39254cf7019eacbf8b79b06a27257bcd60f8c4ad53f3760a26b38d9ade88c81",
    "--format csv maps table --max-edges 10 --b 0":
        "3b3fb96f32fca6ca1f155eb89df86651cc9a064c4a726c0d0fca3c6c894d2c2d",
    "--format csv maps table --max-edges 10 --b 1":
        "1d27b65d7f09566b277924f8dd4e2f50588918930caa07e08af4a31299638c63",
}


@pytest.mark.parametrize(("command", "digest"), TABLE_DIGESTS.items(), ids=TABLE_DIGESTS)
def test_ten_edge_table_bytes_are_frozen(command, digest):
    out = run_in_process(command.split(" ")).encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == digest

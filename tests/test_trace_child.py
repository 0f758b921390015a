"""The benchmark's traced sections still run against the package.

`perfbench/trace_child.py` calls mapchi functions by name; a renamed or
removed name would break every traced benchmark run.  Each section runs
here as its own process with ``PYTHONPATH=src`` and must print one JSON
object with the spans, the counts and the output as its last line, and
the sections that run a command must report exit code 0.  This test only
reads `perfbench/`.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACE_CHILD = ROOT / "perfbench" / "trace_child.py"


@pytest.mark.parametrize(
    "section",
    [
        ["table", "3"],
        ["oracle"],
        ["verify", "2"],
        ["cli", "glue", "--format", "json", "oracle", "glue", "--sides", "3,3"],
    ],
    ids=" ".join,
)
def test_trace_child_section_runs(section):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(TRACE_CHILD), *section],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.splitlines()[-1])
    assert {"spans", "counts", "output"} <= set(record)
    assert record["output"].get("exit_code", 0) == 0

"""One traced section of the benchmark, run in a fresh interpreter.

    python3 trace_child.py table 3
    python3 trace_child.py verify 3
    python3 trace_child.py oracle
    python3 trace_child.py cli <kind> <mapchi arguments...>

The parent (`run.py`) starts this script with ``PYTHONPATH`` pointing at the
package source.  Each section calls the public functions of one or more
mapchi modules and records a span of (name, start, end, parent) around every
call.  Times come from ``time.perf_counter``, which on Linux reads the same
monotonic clock in every process, so the parent can nest these spans under
its own.  The last line of stdout is one JSON object with the spans, the
counts and the section's output, which the parent checks for correctness.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time


class Spans:
    """Spans kept in memory and printed once the section ends."""

    def __init__(self):
        self.records: list[list] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.records)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), None, parent]
        self.records.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record[2] = time.perf_counter()

    def add(self, name: str, start: float, end: float) -> None:
        parent = self._stack[-1] if self._stack else -1
        self.records.append([name, start, end, parent])


def section_table(spans: Spans, max_n: int):
    """The pipeline behind ``maps table``, one layer call at a time."""
    from mapchi.arith import AlphaFn
    from mapchi.eulerchar import xi_from_maps
    from mapchi.mapseries import extract_map_counts, jack_partition_sum
    from mapchi.partitions import partitions_of
    from mapchi.symfunc import jack

    shapes = 0
    # Fill each even weight level in ascending order, as jack_partition_sum
    # would, so the assembly span below only reads cached Jack records.
    for weight in range(2, 2 * max_n + 1, 2):
        with spans.span(f"symfunc.jack_w{weight}"):
            for theta in partitions_of(weight):
                jack(theta)
                shapes += 1
    with spans.span("mapseries.assemble"):
        s = jack_partition_sum(max_n)
    with spans.span("arith.log"):
        log_s = s.log()
    with spans.span("arith.zddz"):
        m = log_s.z_ddz().scale(AlphaFn.alpha() * 2)
    with spans.span("mapseries.extract"):
        table = extract_map_counts(m)
    rows = [
        {"i": list(key.i), "j": key.j, "n": key.n, "poly": table[key].coeff_strings()}
        for key in table.keys_sorted()
    ]
    if max_n >= 3:
        with spans.span("eulerchar.xi_maps"):
            xi = xi_from_maps(1, 1, table)
        xi_coeffs = xi.coeff_strings()
    else:
        xi_coeffs = None
    counts = {"symfunc.jack_shapes": shapes, "mapseries.rows": len(rows)}
    return counts, {"rows": rows, "xi_1_1": xi_coeffs}


def section_verify(spans: Spans, max_edges: int):
    """``run_verify`` with one span per check, timed between callbacks."""
    from mapchi.verify import run_verify

    results = []
    last = time.perf_counter()

    def on_result(result) -> None:
        nonlocal last
        now = time.perf_counter()
        spans.add(f"verify.{result.name}", last, now)
        results.append([result.name, result.status])
        last = now

    with spans.span("verify.run"):
        report = run_verify(max_edges=max_edges, on_result=on_result)
    failed = sum(1 for _, status in results if status == "fail")
    counts = {"verify.checks_failed": failed}
    return counts, {"results": results, "exit_code": report.exit_code}


def section_oracle(spans: Spans):
    """The log W series and the brute-force enumerators."""
    from mapchi.eulerchar import logW_series
    from mapchi.maporacle import (
        glue_census,
        rooted_locally_orientable_counts,
        rooted_orientable_counts,
    )

    with spans.span("eulerchar.logW"):
        series = logW_series(9)
    with spans.span("maporacle.glue"):
        census = glue_census(4, 4, 2)
    with spans.span("maporacle.rooted_orientable"):
        orientable = rooted_orientable_counts(3)
    with spans.span("maporacle.rooted_all"):
        everything = rooted_locally_orientable_counts(3)
    counts = {"maporacle.glue_raw": census.raw_count}
    output = {
        "logW_terms": sum(1 for k in range(1, 10) if series.coefficient(k)),
        "glue_raw": census.raw_count,
        "glue_connected": census.connected_count,
        "rooted_orientable_total": sum(orientable.values()),
        "rooted_all_total": sum(everything.values()),
    }
    return counts, output


def section_cli(spans: Spans, kind: str, argv: list[str]):
    """``cli.main`` in-process, with its stdout captured for the golden check."""
    from mapchi.cli import main

    buffer = io.StringIO()
    with spans.span(f"cli.{kind}"), contextlib.redirect_stdout(buffer):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse exits for --version
            code = exc.code or 0
    return {}, {"stdout": buffer.getvalue(), "exit_code": code}


def main(argv: list[str]) -> int:
    spans = Spans()
    with spans.span("import.mapchi"):
        import mapchi.cli  # noqa: F401  (every module, as a mapchi command loads)
    section = argv[0]
    if section == "table":
        counts, output = section_table(spans, int(argv[1]))
    elif section == "verify":
        counts, output = section_verify(spans, int(argv[1]))
    elif section == "oracle":
        counts, output = section_oracle(spans)
    elif section == "cli":
        counts, output = section_cli(spans, argv[1], argv[2:])
    else:
        print(f"unknown section {section!r}", file=sys.stderr)
        return 2
    print(json.dumps({"spans": spans.records, "counts": counts, "output": output}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

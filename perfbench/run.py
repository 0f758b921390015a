#!/usr/bin/env python3
"""Cold-start benchmark for mapchi.

    python3 perfbench/run.py --workload table3 --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a source checkout.  Every operation is a `mapchi`
command in a fresh interpreter (``PYTHONPATH=src``, fixed ``PYTHONHASHSEED``)
started in an empty temporary directory, one child at a time, so each
measurement pays the Jack solves and imports a user pays on every
invocation.  Each command's output is checked; a wrong output, a nonzero
exit or a traceback counts as a failed operation, never as a time.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` the run instead walks every layer once, through
``trace_child.py``, and reports per-layer times from the recorded spans;
the spans are written to ``.perfbench_out/`` when the run ends.  See
README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import reference_load

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
GOLDENS = HERE / "goldens.json"

#: A child still running after this long is killed and counted as failed.
CHILD_TIMEOUT_S = 150.0
#: Fresh interpreters timed for ``setup_s`` before the first pass and after
#: each pass, so its median spans the whole run.
SETUP_SAMPLES = 3
#: The reference computation is timed again before a command once this much
#: mapchi time has passed since its last sample, so its samples cover the run.
REFERENCE_EVERY_S = 1.0
#: Launches ``mapchi.cli.main`` from its compiled module, as the installed
#: ``mapchi`` script does (``-m mapchi.cli`` would recompile it every time).
LAUNCH = "import sys; from mapchi.cli import main; sys.exit(main(sys.argv[1:]))"

#: Rooted-map totals by edge count (b = 0: orientable, b = 1: all surfaces).
#: Classical counts, kept here independently of the package.
ROOTED_TOTALS = {
    0: {1: 2, 2: 10, 3: 74, 4: 706},
    1: {1: 3, 2: 24, 3: 297, 4: 4896},
}
#: Rows of the refined table through n = 4 edges.
TABLE_ROWS_N4 = 81

VERIFY_CHECKS = (
    "exact-arith",
    "partitions",
    "jack-conditions",
    "cauchy-kernel",
    "reference-counts",
    "series-invariants",
    "rooted-oracle-agreement",
    "polygon-gluings",
    "census-lambda",
    "xi-routes",
    "xi-map-route",
    "chi-identities",
    "nonnegativity",
)

#: Sizes of the traced walk; fixed so every traced run reports the same work.
TRACE_TABLE_N = 3
TRACE_VERIFY_EDGES = 3


class BenchError(RuntimeError):
    """The benchmark cannot run in this directory."""


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


@dataclass
class Child:
    code: int
    out: str
    err: str
    rss_kb: int
    start: float
    end: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Runner:
    """Starts one child at a time in a clean directory and records its cost."""

    def __init__(self, scratch: Path):
        self.scratch = scratch
        self.env = {
            "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
            "PYTHONPATH": str(SRC),
            "PYTHONHASHSEED": "0",
            "LC_ALL": "C.UTF-8",
            "PYTHONIOENCODING": "utf-8",
        }
        self.peak_rss_kb = 0

    def run(self, args: list[str]) -> Child:
        workdir = tempfile.mkdtemp(dir=self.scratch)
        try:
            with tempfile.TemporaryFile(dir=self.scratch) as out, tempfile.TemporaryFile(
                dir=self.scratch
            ) as err:
                start = time.perf_counter()
                proc = subprocess.Popen(
                    [sys.executable, *args],
                    cwd=workdir,
                    env=self.env,
                    stdin=subprocess.DEVNULL,
                    stdout=out,
                    stderr=err,
                )
                killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
                killer.start()
                try:
                    _, status, usage = os.wait4(proc.pid, 0)
                except BaseException:
                    proc.kill()
                    proc.wait()
                    raise
                finally:
                    killer.cancel()
                end = time.perf_counter()
                proc.returncode = os.waitstatus_to_exitcode(status)
                out.seek(0)
                err.seek(0)
                child = Child(
                    code=proc.returncode,
                    out=out.read().decode("utf-8", "replace"),
                    err=err.read().decode("utf-8", "replace"),
                    rss_kb=usage.ru_maxrss,
                    start=start,
                    end=end,
                )
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return child

    def mapchi(self, argv: list[str]) -> Child:
        child = self.run(["-c", LAUNCH, *argv])
        self.peak_rss_kb = max(self.peak_rss_kb, child.rss_kb)
        return child

    def reference(self) -> float:
        """Wall time of one run of the fixed reference computation."""
        child = self.run([str(HERE / "reference_load.py")])
        problem = clean_exit(child)
        if problem is None and child.out.split()[-1:] != [str(reference_load.CHECKSUM)]:
            problem = f"checksum {child.out.strip()[-40:]!r}, expected {reference_load.CHECKSUM}"
        if problem is not None:
            raise BenchError(f"reference computation failed: {problem}")
        return child.seconds


def clean_exit(child: Child) -> str | None:
    if child.code != 0:
        return f"exit code {child.code}: {child.err.strip()[-300:]}"
    if "Traceback" in child.err:
        return "traceback on stderr"
    return None


# ---------------------------------------------------------------------------
# Correctness gates
# ---------------------------------------------------------------------------


def load_reference() -> dict[tuple, tuple[int, ...]]:
    """The package's frozen reference table, keyed by (i, j, n)."""
    sys.path.insert(0, str(SRC))
    try:
        from mapchi.verify import REFERENCE_COUNTS
    finally:
        sys.path.remove(str(SRC))
    return {(tuple(k.i), k.j, k.n): tuple(v) for k, v in REFERENCE_COUNTS.items()}


def _poly_at(coeffs: tuple[Fraction, ...], b: int) -> Fraction:
    return sum((c * b**d for d, c in enumerate(coeffs)), Fraction(0))


def check_table(rows: list[dict], max_n: int, b: int | None, reference) -> str | None:
    """Gate for ``maps table``: reference rows, integrality, classical totals.

    Rows carry ``poly`` (b-coefficients by degree) when b is None and
    ``count`` (the table specialized at b) otherwise.
    """
    values: dict[tuple, object] = {}
    for row in rows:
        key = (tuple(row["i"]), row["j"], row["n"])
        if key in values:
            return f"duplicate row {key}"
        if b is None:
            coeffs = tuple(Fraction(c) for c in row["poly"])
            if any(c.denominator != 1 for c in coeffs):
                return f"non-integer b-coefficient in row {key}: {row['poly']}"
            values[key] = coeffs
        else:
            values[key] = Fraction(row["count"])
    if {key[2] for key in values} != set(range(1, max_n + 1)):
        return f"edge counts {sorted({key[2] for key in values})}, expected 1..{max_n}"
    expected = {k: v for k, v in reference.items() if k[2] <= max_n}
    low = {k: v for k, v in values.items() if k[2] <= 3}
    if set(low) != set(expected):
        return f"rows with n <= 3 differ from the reference: {sorted(set(low) ^ set(expected))[:4]}"
    for key, ref in expected.items():
        want = tuple(Fraction(c) for c in ref) if b is None else _poly_at(ref, b)
        got = low[key]
        if got != want:
            return f"row {key} is {got}, reference {want}"
    if max_n == 4 and len(values) != TABLE_ROWS_N4:
        return f"{len(values)} rows, expected {TABLE_ROWS_N4} through n = 4"
    for at in (0, 1) if b is None else (b,):
        for n in range(1, max_n + 1):
            total = sum(
                _poly_at(v, at) if b is None else v for k, v in values.items() if k[2] == n
            )
            want = ROOTED_TOTALS[at][n]
            if total != want:
                return f"column sum at b = {at}, n = {n} is {total}, expected {want}"
    return None


def verify_failures(lines: list[tuple[str, str]], max_edges: int) -> int:
    """Checks of ``verify-all`` that did not pass, out of the 13 expected."""
    status = dict(lines)
    allowed_skip = {"xi-map-route"} if max_edges < 3 else set()
    return sum(
        1
        for name in VERIFY_CHECKS
        if not (status.get(name) == "pass" or (status.get(name) == "skip" and name in allowed_skip))
    ) + sum(1 for name in status if name not in VERIFY_CHECKS)


def parse_verify_output(text: str) -> list[tuple[str, str]]:
    lines = []
    for line in text.splitlines():
        tag, _, rest = line.partition(" ")
        if tag in ("PASS", "FAIL", "SKIP"):
            lines.append((rest.split(":")[0], tag.lower()))
    return lines


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass
class Command:
    """One `mapchi` invocation and the check of its result."""

    kind: str
    argv: list[str]
    check: Callable[[Child], int]  # number of failed operations
    attempts: int = 1


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, attempts: int, failed: int, what: str) -> None:
        self.attempted += attempts
        self.failed += failed
        if failed:
            self.problems.append(what)


def table_command(max_n: int, b: int | None, reference) -> Command:
    argv = ["--format", "json", "maps", "table", "--max-edges", str(max_n)]
    if b is not None:
        argv += ["--b", str(b)]

    def check(child: Child) -> int:
        problem = clean_exit(child)
        if problem is None:
            try:
                rows = json.loads(child.out)["rows"]
            except (ValueError, KeyError, TypeError) as exc:
                problem = f"unreadable table: {exc}"
            else:
                problem = check_table(rows, max_n, b, reference)
        return _report(argv, problem)

    return Command("table", argv, check)


def verify_command(max_edges: int) -> Command:
    argv = ["verify-all", "--max-edges", str(max_edges)]

    def check(child: Child) -> int:
        problem = clean_exit(child)
        failed = verify_failures(parse_verify_output(child.out), max_edges) or int(problem is not None)
        _report(argv, problem or (f"{failed} checks failed" if failed else None))
        return failed

    return Command("verify", argv, check, attempts=len(VERIFY_CHECKS))


def golden_command(kind: str, argv: list[str], goldens: dict[str, str]) -> Command:
    def check(child: Child) -> int:
        problem = clean_exit(child)
        if problem is None and child.out != goldens[" ".join(argv)]:
            problem = "stdout differs from the golden"
        return _report(argv, problem)

    return Command(kind, argv, check)


def _report(argv: list[str], problem: str | None) -> int:
    if problem is None:
        return 0
    print(f"FAILED mapchi {' '.join(argv)}: {problem}", file=sys.stderr)
    return 1


def session_slots() -> list[tuple[str, list[list[str]]]]:
    """The command mix of one interactive session: (kind, candidate argvs).

    Candidates within a slot cost about the same (the xi and chi slots vary
    by up to about a factor of two), so the seed changes which values a
    session asks for and in what order far more than how much work it is.
    Only candidates with a committed golden output are drawn.
    """
    fmts = ("pretty", "json")

    def xi(route: str, grid) -> list[list[str]]:
        return [
            ["--format", f, "euler", "xi", "--g", str(g), "--s", str(s), "--route", route]
            for f in fmts
            for g, s in grid
        ]

    def chi(variant: str, extra=()) -> list[list[str]]:
        return [
            ["--format", f, "euler", "chi", "--variant", variant, "--g", str(g), "--s", str(s), *e]
            for f in fmts
            for g in range(1, 7)
            for s in range(1, 4)
            for e in (extra or [()])
        ]

    def jack(weight: int) -> list[list[str]]:
        from_partitions = _partitions(weight)
        return [["--format", f, "jack", "--shape", ",".join(map(str, p))] for f in fmts for p in from_partitions]

    def table(fmt: str) -> list[list[str]]:
        return [
            ["--format", fmt, "maps", "table", "--max-edges", "2", *b]
            for b in ([], ["--b", "0"], ["--b", "1"])
        ]

    grid = [(g, s) for g in range(1, 7) for s in range(1, 5)]
    fixed = [(m, sep) for m in range(0, 4) for sep in ((), ("--separating",))]
    return [
        ("version", [["--version"]]),
        ("xi_closed", xi("closed", grid)),
        ("xi_closed", xi("closed", grid)),
        ("xi_logw", xi("logw", grid)),
        ("xi_logw", xi("logw", grid)),
        ("xi_maps", xi("maps", [(1, 1)])),
        ("chi_real", chi("real")),
        ("chi_complex", chi("complex")),
        ("chi_fixed", chi("fixed", [("--m", str(m), *sep) for m, sep in fixed])),
        ("jack", jack(4)),
        ("jack", jack(5)),
        ("jack", jack(6)),
        ("glue", [["--format", f, "oracle", "glue", "--sides", s] for f in fmts for s in ("6", "4,2", "3,3", "2,2,2", "5,1")]),
        ("rooted", [["--format", f, "oracle", "rooted", "--edges", "3"] for f in fmts]),
        ("rooted", [["--format", f, "oracle", "rooted", "--edges", "3", "--surface", "all"] for f in fmts]),
        ("lambda", [["--format", f, "oracle", "lambda", "--g", "1", "--s", "1"] for f in fmts]),
        ("table_json", table("json")),
        ("table_csv", table("csv")),
    ]


def _partitions(n: int, largest: int | None = None) -> list[tuple[int, ...]]:
    largest = n if largest is None else largest
    if n == 0:
        return [()]
    return [(k, *rest) for k in range(min(n, largest), 0, -1) for rest in _partitions(n - k, k)]


def load_goldens() -> dict[str, str]:
    with open(GOLDENS, encoding="utf-8") as fh:
        return json.load(fh)


def draw_session(rng: random.Random, goldens: dict[str, str], slots=None) -> list[Command]:
    commands = []
    for kind, candidates in slots or session_slots():
        usable = [argv for argv in candidates if " ".join(argv) in goldens]
        commands.append(golden_command(kind, rng.choice(usable), goldens))
    rng.shuffle(commands)
    return commands


SELF_TEST_KINDS = ("version", "xi_closed", "table_json")


def workload_pass(name: str, rng: random.Random, reference, goldens) -> list[Command]:
    """The commands of one pass of a workload; the seed draws the inputs."""
    if name.startswith("table"):
        return [table_command(int(name[5:]), rng.choice([None, 0, 1]), reference)]
    if name.startswith("verify"):
        return [verify_command(int(name[6:]))]
    if name == "cli_session":
        return draw_session(rng, goldens)
    if name == "cli_mini":
        slots = [s for s in one_slot_per_kind() if s[0] in SELF_TEST_KINDS]
        return draw_session(rng, goldens, slots)
    raise BenchError(f"unknown workload {name!r}")


#: Workloads listed in BENCHMARK.json; the others are for manual runs
#: (table4 takes about two minutes, verify3 about five seconds a pass) and
#: for the self-test.
WORKLOADS = ("table3", "cli_session")
EXTRA_WORKLOADS = ("table2", "table4", "verify2", "verify3", "cli_mini")


# ---------------------------------------------------------------------------
# Untraced run: end-to-end metrics
# ---------------------------------------------------------------------------


def measure_setup(runner: Runner, samples: list[float]) -> None:
    for _ in range(SETUP_SAMPLES):
        child = runner.run(["-c", "import mapchi.cli"])
        if child.code != 0:
            raise BenchError(f"cannot import mapchi.cli: {child.err.strip()[-300:]}")
        samples.append(child.seconds)


def run_command(runner: Runner, command: Command, tally: Tally) -> Child:
    child = runner.mapchi(command.argv)
    tally.record(command.attempts, command.check(child), " ".join(command.argv))
    return child


def run_pass(runner: Runner, commands: list[Command], tally: Tally) -> float:
    """Wall time of the pass's mapchi children, run one after another."""
    return sum(run_command(runner, command, tally).seconds for command in commands)


def untraced_run(workload: str, seed: int, seconds: float, runner: Runner, tally: Tally) -> dict:
    """Repeat passes of the workload for about `seconds`; report end-to-end metrics.

    The speed of the shared machine drifts by tens of percent within a
    minute, and every Python process on it drifts together.  So the fixed
    reference computation is timed before the first command and again
    whenever ``REFERENCE_EVERY_S`` of mapchi time has passed, and each
    command's wall time is divided by the mean of the two reference times
    around it.  Timings are reported in that unit (``ref``); the raw seconds
    go to the detail record.
    """
    reference = load_reference()
    goldens = load_goldens()
    rng = random.Random(seed)
    setups: list[float] = []
    measure_setup(runner, setups)
    refs = [runner.reference()]
    since_ref = 0.0
    timed: list[tuple[int, float, int]] = []  # (pass, seconds, references before it)
    walls: list[float] = []
    start = time.perf_counter()
    while True:
        wall = 0.0
        for command in workload_pass(workload, rng, reference, goldens):
            if since_ref >= REFERENCE_EVERY_S:
                refs.append(runner.reference())
                since_ref = 0.0
            child = run_command(runner, command, tally)
            timed.append((len(walls), child.seconds, len(refs)))
            wall += child.seconds
            since_ref += child.seconds
        walls.append(wall)
        measure_setup(runner, setups)
        # Start another pass only if it is expected to end within the budget.
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            break
    refs.append(runner.reference())
    latencies = [sec for _, sec, _ in timed]
    relative = [sec * 2 / (refs[k - 1] + refs[k]) for _, sec, k in timed]
    rel_walls = [0.0] * len(walls)
    for (index, _, _), rel in zip(timed, relative):
        rel_walls[index] += rel
    p50, p90 = _percentiles(latencies)
    rel_p50, rel_p90 = _percentiles(relative)
    metrics = {
        "wall_ref": (statistics.median(rel_walls), "ref"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (runner.peak_rss_kb / 1024, "MB"),
    }
    # Per-command percentiles are details, not metrics: a table3 run has too
    # few commands for a tail, and on cli_session both p50 and p90 fall
    # between command kinds of different cost, so they jump between runs.
    detail = {
        "passes": len(walls),
        "wall_s": statistics.median(walls),
        "cmd_p50_s": p50,
        "cmd_p90_s": p90,
        "cmd_p50_ref": rel_p50,
        "cmd_p90_ref": rel_p90,
        "ref_s": statistics.median(refs),
        "pass_walls_s": walls,
        "pass_walls_ref": rel_walls,
        "latencies_s": latencies,
        "reference_s": refs,
    }
    return {"metrics": metrics, "detail": detail}


def _percentiles(values: list[float]) -> tuple[float, float]:
    if len(values) == 1:
        return values[0], values[0]
    cuts = statistics.quantiles(values, n=10, method="inclusive")
    return statistics.median(values), cuts[8]


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics
# ---------------------------------------------------------------------------


class Trace:
    """Spans of this process and of its traced children, written out at the end.

    A traced child's spans nest under a ``proc.<label>`` span for its whole
    process, which nests under the ``section.<name>`` span it belongs to.
    ``layer`` sums span time by name, ``counts`` collects the children's counts.
    """

    def __init__(self, run_id: str, runner: Runner, tally: Tally):
        self.run_id = run_id
        self.runner = runner
        self.tally = tally
        self.spans: list[dict] = []
        self.layer: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.imports: list[float] = []

    def add(self, name: str, start: float, end: float, parent: int | None, request: str) -> int:
        self.spans.append(
            {"id": len(self.spans), "name": name, "start": start, "end": end,
             "parent": parent, "run": self.run_id, "request": request}
        )
        return len(self.spans) - 1

    @contextlib.contextmanager
    def section(self, name: str):
        start = time.perf_counter()
        index = self.add(f"section.{name}", start, start, None, name)
        try:
            yield index
        finally:
            self.spans[index]["end"] = time.perf_counter()

    def child(self, label: str, args: list[str], parent: int):
        """Run one ``trace_child.py`` section; returns (child, spans by name, output)."""
        child = self.runner.run([str(HERE / "trace_child.py"), *args])
        problem = clean_exit(child)
        if problem is None:
            try:
                payload = json.loads(child.out.splitlines()[-1])
            except (ValueError, IndexError) as exc:
                problem = f"unreadable trace output: {exc}"
        if problem is not None:
            self.tally.record(1, _report(args, problem), label)
            return child, {}, None
        proc = self.add(f"proc.{label}", child.start, child.end, parent, label)
        ids: list[int] = []
        by_name: dict[str, float] = {}
        for name, start, end, local_parent in payload["spans"]:
            ids.append(self.add(name, start, end, proc if local_parent < 0 else ids[local_parent], label))
            by_name[name] = by_name.get(name, 0.0) + end - start
        for name, seconds in by_name.items():
            self.layer[name] = self.layer.get(name, 0.0) + seconds
        self.imports.append(by_name["import.mapchi"])
        self.counts.update(payload["counts"])
        return child, by_name, payload["output"]

    def self_times(self) -> dict[str, float]:
        """Self time per layer: each span's duration minus its children's."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        totals: dict[str, float] = {}
        for span, inner in zip(self.spans, covered):
            layer = span["name"].split(".")[0]
            totals[layer] = totals.get(layer, 0.0) + (span["end"] - span["start"] - inner)
        return totals

    def layer_time(self, section: str) -> float:
        """Time inside the layer spans (import included) of one section's children."""
        roots = {s["id"] for s in self.spans if s["name"] == f"section.{section}"}
        procs = {s["id"] for s in self.spans if s["parent"] in roots}
        return sum(
            s["end"] - s["start"]
            for s in self.spans
            if s["parent"] in procs and s["name"] != "eulerchar.xi_maps"
        )

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans, indent=1))


SELF_LAYERS = ("proc", "import", "symfunc", "mapseries", "arith", "verify", "eulerchar", "maporacle", "cli")
XI_1_1 = ["1/12", "-1/4", "1/12"]


def one_slot_per_kind() -> list[tuple[str, list[list[str]]]]:
    """The last session slot of each kind (for jack, the weight-6 level)."""
    return list(dict(session_slots()).items())


def traced_run(workload: str, seed: int, runner: Runner, trace: Trace) -> dict:
    """Walk every layer once in fresh traced children and report per-layer times.

    The walk is the same for every workload.  The workload decides which
    section is compared with an untraced pass of the same work, which gives
    the tracing overhead.
    """
    reference = load_reference()
    goldens = load_goldens()
    tally = trace.tally
    kinds = draw_session(random.Random(seed), goldens, one_slot_per_kind())
    mirror = "table" if workload.startswith("table") else "verify" if workload.startswith("verify") else "cli"
    plain = {
        "table": [table_command(TRACE_TABLE_N, None, reference)],
        "verify": [verify_command(TRACE_VERIFY_EDGES)],
        "cli": kinds,
    }[mirror]
    untraced = run_pass(runner, plain, tally)
    traced_time: dict[str, float] = {}

    with trace.section("table") as sec:
        child, spans, out = trace.child("table", ["table", str(TRACE_TABLE_N)], sec)
    if out is not None:
        problem = check_table(out["rows"], TRACE_TABLE_N, None, reference)
        if problem is None and out["xi_1_1"] != XI_1_1:
            problem = f"xi(1,1) by maps is {out['xi_1_1']}"
        tally.record(1, _report(["traced table"], problem), "traced table")
        traced_time["table"] = child.seconds - spans["eulerchar.xi_maps"]

    with trace.section("verify") as sec:
        child, _, out = trace.child("verify", ["verify", str(TRACE_VERIFY_EDGES)], sec)
    if out is not None:
        failed = verify_failures([tuple(r) for r in out["results"]], TRACE_VERIFY_EDGES)
        tally.record(len(VERIFY_CHECKS), failed or int(out["exit_code"] != 0), "traced verify")
        traced_time["verify"] = child.seconds

    with trace.section("oracle") as sec:
        _, _, out = trace.child("oracle", ["oracle"], sec)
    if out is not None:
        got = (out["rooted_orientable_total"], out["rooted_all_total"], out["glue_raw"])
        # 9!! pairings of the 10 sides of (4, 4, 2), times 2^5 twists.
        want = (ROOTED_TOTALS[0][3], ROOTED_TOTALS[1][3], 945 * 2**5)
        tally.record(1, _report(["traced oracle"], None if got == want else f"{got}, expected {want}"), "traced oracle")

    overheads = []
    traced_time["cli"] = 0.0
    with trace.section("cli") as sec:
        for command in kinds:
            label = f"cli-{command.kind}"
            child, spans, out = trace.child(label, ["cli", command.kind, *command.argv], sec)
            if out is None:
                continue
            ok = out["exit_code"] == 0 and out["stdout"] == goldens[" ".join(command.argv)]
            tally.record(1, _report(command.argv, None if ok else "in-process output differs from the golden"), label)
            overheads.append(child.seconds - spans[f"cli.{command.kind}"])
            traced_time["cli"] += child.seconds

    metrics: dict[str, tuple[float, str]] = {name: (value, "count") for name, value in trace.counts.items()}
    for name, seconds in trace.layer.items():
        if f"{name}_s" in PER_LAYER_UNITS:
            metrics[f"{name}_s"] = (seconds, "s")
    if overheads:
        metrics["cli.proc_overhead_s"] = (statistics.median(overheads), "s")
    if trace.imports:
        metrics["cli.import_s"] = (statistics.median(trace.imports), "s")
    selfs = trace.self_times()
    for name in SELF_LAYERS:
        metrics[f"self.{name}_s"] = (selfs.get(name, 0.0), "s")
    traced = traced_time.get(mirror, 0.0)
    spanned = trace.layer_time(mirror)
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    metrics["trace.layer_share"] = (spanned / untraced, "ratio")
    detail = {"untraced_s": untraced, "traced_s": traced, "layer_spans_s": spanned}
    return {"metrics": metrics, "detail": detail}


# ---------------------------------------------------------------------------
# Metric names (mirrors BENCHMARK.json)
# ---------------------------------------------------------------------------


def _per_layer_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for w in range(2, 2 * TRACE_TABLE_N + 1, 2):
        units[f"symfunc.jack_w{w}_s"] = "s"
    units["symfunc.jack_shapes"] = "count"
    units.update({"mapseries.assemble_s": "s", "mapseries.extract_s": "s", "mapseries.rows": "count"})
    units.update({"arith.log_s": "s", "arith.zddz_s": "s"})
    for check in VERIFY_CHECKS:
        units[f"verify.{check}_s"] = "s"
    units["verify.checks_failed"] = "count"
    units.update({"eulerchar.logW_s": "s", "eulerchar.xi_maps_s": "s"})
    units.update(
        {
            "maporacle.glue_s": "s",
            "maporacle.glue_raw": "count",
            "maporacle.rooted_orientable_s": "s",
            "maporacle.rooted_all_s": "s",
        }
    )
    for kind, _ in one_slot_per_kind():
        units[f"cli.{kind}_s"] = "s"
    units.update({"cli.proc_overhead_s": "s", "cli.import_s": "s"})
    for name in SELF_LAYERS:
        units[f"self.{name}_s"] = "s"
    units.update({"trace.overhead_s": "s", "trace.layer_share": "ratio"})
    return units


PER_LAYER_UNITS = _per_layer_units()
END_TO_END_UNITS = {"wall_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB"}


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "python": platform.python_version(),
        "source_sha256": digest.hexdigest(),
    }


def prepare() -> Path:
    """Check the checkout, compile the package once, return a scratch directory."""
    if not (SRC / "mapchi" / "cli.py").is_file():
        raise BenchError(f"no mapchi source under {SRC}; run from a source checkout")
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    compiled = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC)],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        timeout=120,
    )
    if compiled.returncode != 0:
        shutil.rmtree(scratch, ignore_errors=True)
        raise BenchError(f"compileall failed: {compiled.stdout.decode()[-300:]}")
    return scratch


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if workload not in WORKLOADS + EXTRA_WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS + EXTRA_WORKLOADS)}")
    env = environment()
    scratch = prepare()
    try:
        runner = Runner(scratch)
        tally = Tally()
        label = f"{workload}-seed{seed}-trace{int(trace)}"
        if trace:
            spans = Trace(label, runner, tally)
            measured = traced_run(workload, seed, runner, spans)
            spans.write(OUT / f"spans-{label}.json")
        else:
            measured = untraced_run(workload, seed, seconds, runner, tally)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "env": env,
              "detail": measured["detail"], "problems": tally.problems}
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in measured["metrics"].items()}
    (OUT / f"result-{label}.json").write_text(json.dumps(record, indent=1))
    print("# env " + json.dumps(env))
    print("# detail " + json.dumps(measured["detail"]))
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": record["metrics"],
    }


def self_test() -> int:
    """Small runs that check the harness itself, not the package's speed."""
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for metric in spec["end_to_end"] + spec["per_layer"]:
        units = END_TO_END_UNITS if metric in spec["end_to_end"] else PER_LAYER_UNITS
        if units.get(metric["name"]) != metric["unit"]:
            problems.append(f"{metric['name']}: unit {metric['unit']} is not what the harness emits")
    for workload in ("table2", "verify2", "cli_mini"):
        result = run(workload, seed=1, seconds=0.1, trace=False)
        problems += _missing(result, spec["end_to_end"], workload)
    result = run("table2", seed=1, seconds=0.1, trace=True)
    problems += _missing(result, spec["per_layer"], "traced table2")

    reference = load_reference()
    rows = [{"i": list(k[0]), "j": k[1], "n": k[2], "poly": [str(c) for c in v]} for k, v in reference.items()]
    if check_table(rows, 3, None, reference) is not None:
        problems.append("the table gate rejects the reference table itself")
    corrupted = [dict(r) for r in rows]
    corrupted[5]["poly"] = ["7"] + corrupted[5]["poly"][1:]
    if check_table(corrupted, 3, None, reference) is None:
        problems.append("the table gate accepts a corrupted row")
    for problem in problems:
        print(f"self-test: {problem}", file=sys.stderr)
    print("self-test " + ("failed" if problems else "ok"))
    return 1 if problems else 0


def _missing(result: dict, wanted: list[dict], what: str) -> list[str]:
    problems = []
    if not result["correct"] or result["failed"]:
        problems.append(f"{what}: {result['failed']} of {result['attempted']} operations failed")
    for metric in wanted:
        got = result["metrics"].get(metric["name"])
        if got is None or got["unit"] != metric["unit"]:
            problems.append(f"{what}: metric {metric['name']} missing or without unit {metric['unit']}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="table3")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    try:
        if args.self_test:
            return self_test()
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: output shapes, determinism, exit codes."""

from __future__ import annotations

import gc
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapchi import EXIT_FAILURE, arith, btutte, cli, eulerchar, maporacle, symfunc
from mapchi.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_maps_table_json(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "maps", "table", "--max-edges", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["max_edges"] == 1
    assert payload["rows"] == [
        {"i": [2], "j": 1, "n": 1, "poly": ["1"]},
        {"i": [0, 1], "j": 1, "n": 1, "poly": ["0", "1"]},
        {"i": [0, 1], "j": 2, "n": 1, "poly": ["1"]},
    ]


def test_maps_table_output_is_byte_deterministic(capsys):
    _, first, _ = run_cli(capsys, "--format", "json", "maps", "table", "--max-edges", "2")
    _, second, _ = run_cli(capsys, "--format", "json", "maps", "table", "--max-edges", "2")
    assert first == second


def test_maps_table_csv_with_specialization(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "csv", "maps", "table", "--max-edges", "1", "--b", "1"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,j,i,count"
    assert lines[1:] == ["1,1,2,1", "1,1,0 1,1", "1,2,0 1,1"]


def test_maps_table_pretty_polynomials(capsys):
    code, out, _ = run_cli(capsys, "maps", "table", "--max-edges", "1")
    assert code == 0
    assert "n=1 j=1 i=[0, 1]" in out and " b" in out


def test_maps_table_formats_agree_row_for_row(capsys):
    """JSON, CSV and pretty output list the same rows, in one order, with one polynomial."""
    argv = ("maps", "table", "--max-edges", "4")
    _, out, _ = run_cli(capsys, "--format", "json", *argv)
    from_json = []
    for row in json.loads(out)["rows"]:
        poly = arith.poly_str(arith.UniPoly("b", map(int, row["poly"])))
        from_json.append((row["n"], row["j"], tuple(row["i"]), poly))
    _, out, _ = run_cli(capsys, "--format", "csv", *argv)
    from_csv = []
    for line in out.splitlines()[1:]:
        n, j, i, poly = line.split(",")
        from_csv.append((int(n), int(j), tuple(map(int, i.split())), poly))
    _, out, _ = run_cli(capsys, *argv)
    from_pretty = []
    for line in out.splitlines():
        label, poly = line.rsplit(" ", 1)
        n, j, i = re.fullmatch(r"n=(\d+) j=(\d+) i=\[([\d, ]*)\] *", label).groups()
        from_pretty.append((int(n), int(j), tuple(map(int, filter(None, i.split(", ")))), poly))
    assert len(from_json) == 81
    assert from_json == from_csv == from_pretty


@pytest.mark.parametrize(
    ("text", "kind"),
    [
        ("0", int),
        ("+1", int),
        ("-0", int),
        (" 3 ", int),
        ("07", int),
        ("\u0661", Fraction),  # ARABIC-INDIC DIGIT ONE: a digit, but not ASCII
        ("1/2", Fraction),
        ("0.5", Fraction),
    ],
)
def test_b_takes_the_value_fraction_reads(capsys, text, kind):
    """Only an ASCII integer literal becomes an int; every value equals Fraction(text)."""
    value = cli._parse_rational(text)
    assert value == Fraction(text) and type(value) is kind
    argv = ("--format", "csv", "maps", "table", "--max-edges", "2", "--b")
    code, out, err = run_cli(capsys, *argv, text)
    assert (code, err) == (0, "")
    assert out == run_cli(capsys, *argv, str(Fraction(text)))[1]


@pytest.mark.parametrize("text", ["1_000", "1_0/3", "0._5"])
def test_b_refuses_underscores(capsys, text):
    """`Fraction` reads underscores from Python 3.11 on, so `--b` refuses them on every Python."""
    code, out, err = run_cli(capsys, "maps", "table", "--max-edges", "2", "--b", text)
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"error: option --b: underscores are not accepted: {text!r}"]


JSON_CASES = [
    "",
    'say "hi"',
    "back\\slash",
    "tab\tnew\nline\r\x00\x1f\x7f",
    "caf\u00e9 \u2603 \U0001f600",
    [],
    {},
    [[], {}, [[]], {"": {}}],
    True,
    False,
    None,
    [True, False, None, 0, -1, 10**30],
    {"a": {"b": [1, {"c": ["x", None]}]}, "d\"": "\u00e9", "\u00e9": [False]},
    (1, (2, "three")),
    {"nested": [[1, [2, [3]]], {"k": {"k": {"k": "v"}}}]},
    {1: "int key", None: "none key"},
    [0.5, {"f": 1e100}],
]


@pytest.mark.parametrize("value", JSON_CASES, ids=repr)
def test_json_writer_matches_json_dumps(value):
    assert cli._json(value) == json.dumps(value, indent=2)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


@given(JSON_VALUES)
@settings(max_examples=200)
def test_json_writer_matches_json_dumps_on_any_value(value):
    assert cli._json(value) == json.dumps(value, indent=2)


def test_euler_xi_routes_print_same_coefficients(capsys):
    outputs = []
    for route in ("closed", "logw", "maps"):
        code, out, _ = run_cli(
            capsys,
            "--format",
            "json",
            "euler",
            "xi",
            "--g",
            "1",
            "--s",
            "1",
            "--route",
            route,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["route"] == route
        outputs.append(payload["coeffs"])
    assert outputs[0] == outputs[1] == outputs[2] == ["1/12", "-1/4", "1/12"]


def test_euler_xi_maps_route_rejects_deep_requests(capsys):
    code, out, err = run_cli(capsys, "euler", "xi", "--g", "3", "--s", "2", "--route", "maps")
    assert code == 2
    assert out == ""
    assert err == "error: xi(3,2) from map counts needs 12 edges; it reaches 10\n"


@pytest.mark.parametrize("route", ["closed", "logw", "maps"])
@pytest.mark.parametrize(("g", "s"), [("0", "1"), ("1", "0")])
def test_euler_xi_routes_refuse_small_indices_alike(capsys, route, g, s):
    code, out, err = run_cli(capsys, "euler", "xi", "--g", g, "--s", s, "--route", route)
    assert code == 2
    assert out == ""
    assert err == f"error: xi({g},{s}) needs g >= 1 and s >= 1\n"


#: Commands refused by the library's index guard, with the request it names.
INDEX_REFUSALS = {
    "euler chi --variant complex": "Lambda({g},{s})",
    "euler chi --variant fixed --m 0": "chi({g},{s}) with 0 fixed curves",
    "oracle lambda": "Lambda({g},{s}) from the censuses",
}


@pytest.mark.parametrize(("g", "s"), [("0", "1"), ("1", "0")])
@pytest.mark.parametrize(("command", "what"), INDEX_REFUSALS.items(), ids=INDEX_REFUSALS)
def test_index_refusals_read_alike(capsys, command, what, g, s):
    """Every (g, s) outside g, s >= 1 is refused by the one index guard, in one line."""
    code, out, err = run_cli(capsys, *command.split(), "--g", g, "--s", s)
    assert code == 2
    assert out == ""
    assert err == f"error: {what.format(g=g, s=s)} needs g >= 1 and s >= 1\n"


@pytest.mark.parametrize("command", [["euler", "xi"], ["euler", "chi", "--variant", "real"]])
@pytest.mark.parametrize("flag", ["--g", "--s"])
def test_euler_index_bound_is_refused_while_parsing(command, flag):
    indices = {"--g": "1", "--s": "1", flag: "601"}
    argv = [*command, *(word for option in indices.items() for word in option)]
    with pytest.raises(ValueError) as caught:
        cli.parse_args(argv)
    assert str(caught.value) == f"option {flag}: euler accepts at most 600, got 601"


def test_euler_index_limit_is_inclusive(capsys):
    code, out, _ = run_cli(capsys, "euler", "chi", "--variant", "real", "--g", "0", "--s", "600")
    assert code == 0 and out.strip() == "0"


def test_euler_chi_variants(capsys):
    code, out, _ = run_cli(capsys, "euler", "chi", "--variant", "real", "--g", "2", "--s", "1")
    assert code == 0 and out.strip() == "-1/12"
    code, out, _ = run_cli(
        capsys,
        "--format",
        "json",
        "euler",
        "chi",
        "--variant",
        "fixed",
        "--g",
        "2",
        "--s",
        "1",
        "--m",
        "1",
        "--separating",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "variant": "fixed-curves",
        "g": 2,
        "s": 1,
        "value": "1/12",
        "m": 1,
        "separating": True,
    }


def test_euler_chi_fixed_requires_m(capsys):
    code, _, err = run_cli(capsys, "euler", "chi", "--variant", "fixed", "--g", "2", "--s", "1")
    assert code == 2 and "--m" in err


def test_euler_chi_parity_error_exits_nonzero(capsys):
    code, _, err = run_cli(
        capsys,
        "euler",
        "chi",
        "--variant",
        "fixed",
        "--g",
        "3",
        "--s",
        "1",
        "--m",
        "1",
        "--separating",
    )
    assert code == 2 and "error:" in err


def test_jack_json(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "jack", "--shape", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["shape"] == [2]
    assert payload["expansion"] == {"[2]": "alpha", "[1,1]": "1"}
    assert payload["norm"] == "2alpha^2+2alpha^3"
    assert payload["principal"] == ["0", "alpha", "1"]
    assert payload["p2coeff"] == "alpha"


def test_jack_weight_zero_json(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "jack", "--shape", "")
    assert code == 0
    assert json.loads(out) == {
        "shape": [],
        "expansion": {"[]": "1"},
        "norm": "1",
        "principal": ["1"],
        "p2coeff": "1",
    }


def test_jack_weight_zero_pretty(capsys):
    """The constant term of the principal specialization prints without x."""
    code, out, _ = run_cli(capsys, "jack", "--shape", "")
    assert code == 0
    assert out.splitlines()[2] == "principal = (1)"


def test_jack_pretty(capsys):
    code, out, _ = run_cli(capsys, "jack", "--shape", "2,1")
    assert code == 0
    assert "J_[2,1] =" in out
    assert "p_[3]" in out and "norm" in out


def test_oracle_glue_json(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "json", "oracle", "glue", "--sides", "4", "--patterns"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["raw_count"] == 12
    assert payload["edges"] == 2
    klein = payload["patterns"]["chi=0,nonorientable"]
    assert set(klein) == {"a a b b", "a b a^-1 b", "a b a b^-1", "a b b a"}
    assert payload["patterns"]["chi=0,orientable"] == ["a b a^-1 b^-1"]


def test_oracle_rooted_totals(capsys):
    code, out, _ = run_cli(capsys, "oracle", "rooted", "--edges", "2", "--surface", "all")
    assert code == 0
    assert out.strip().splitlines()[-1] == "total: 24"


def test_oracle_rooted_orientable_reaches_four_edges(capsys):
    code, out, _ = run_cli(capsys, "oracle", "rooted", "--edges", "4")
    assert code == 0
    assert out.strip().splitlines()[-1] == "total: 706"


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["--edges", "7"], "the orientable census needs 7 edges; it reaches 6"),
        (
            ["--edges", "6", "--surface", "all"],
            "the all-surfaces census needs 6 edges; it reaches 5",
        ),
    ],
)
def test_oracle_rooted_refusal_names_the_limit(capsys, monkeypatch, argv, message):
    monkeypatch.setattr(maporacle, "_rooted_census", _enumeration_started)
    code, out, err = run_cli(capsys, "oracle", "rooted", *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_oracle_lambda_json(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "oracle", "lambda", "--g", "1", "--s", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "g": 1,
        "s": 1,
        "total": "-1/12",
        "orientable": "-1/12",
        "nonorientable": "0",
    }


def test_verify_all_small_truncation_skips_map_route(capsys):
    code, out, _ = run_cli(capsys, "verify-all", "--max-edges", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert any(
        line.startswith("SKIP xi-map-route") and "insufficient truncation" in line
        for line in lines
    )
    assert all(not line.startswith("FAIL") for line in lines)


def test_verify_all_detects_corrupted_bernoulli_cache(capsys):
    """Tampering with the memoized Bernoulli numbers must fail the arithmetic check."""
    arith.bernoulli(12)
    saved = list(arith._bernoulli_cache)
    try:
        arith._bernoulli_cache[6] = Fraction(1, 7)
        code, out, _ = run_cli(capsys, "verify-all", "--max-edges", "1")
    finally:
        arith._bernoulli_cache[:] = saved
    assert code == 2
    assert any(line.startswith("FAIL exact-arith") for line in out.splitlines())


#: A 5001-digit integer, past the 4300 digits Python's `int(str)` reads.
HUGE = "1" + "0" * 5000
VRUN = "v" * 5000


def param_id(words: str) -> str:
    """A parameter id: the words of a command line, with `HUGE` and `VRUN` named, not spelled."""
    return words.replace(HUGE, "HUGE").replace(VRUN, "VRUN")


def _enumeration_started(*args, **kwargs):
    raise AssertionError("a guard let an oversized request start enumerating")


@pytest.mark.parametrize(
    "argv",
    [
        ["maps", "table", "--b", "1/0"],
        ["maps", "table", "--b", "x"],
        ["maps", "table", "--max-edges", "3", "--b", "1e30000000"],
        ["maps", "table", "--b", "1e-5000"],
        ["maps", "table", "--b", "1" * 101],
        ["euler", "xi", "--g", HUGE, "--s", "1"],
        ["jack", "--shape", HUGE],
        ["maps", "table", "--b", "+-1"],
        ["maps", "table", "--b", "1e5"],
        ["maps", "table", "--max-edges", "0"],
        ["maps", "table", "--max-edges", "11"],
        ["verify-all", "--max-edges", "0"],
        ["verify-all", "--max-edges", "11"],
        ["oracle", "rooted", "--edges", "7"],
        ["oracle", "rooted", "--edges", "6", "--surface", "all"],
        ["oracle", "glue", "--sides", "3"],
        ["oracle", "glue", "--sides", "14"],
        ["oracle", "glue", "--sides", "8,6"],
        ["oracle", "glue", "--sides", "0"],
        ["oracle", "glue", "--sides", "-2,4"],
        ["jack", "--shape", "0"],
        ["jack", "--shape", "15"],
        ["jack", "--shape", "8,7"],
        ["euler", "xi", "--g", "0", "--s", "1"],
        ["euler", "xi", "--g", "0", "--s", "1", "--route", "maps"],
        ["euler", "xi", "--g", "1", "--s", "0", "--route", "maps"],
        ["euler", "xi", "--g", "601", "--s", "1"],
        ["euler", "xi", "--g", "1", "--s", "601"],
        ["euler", "xi", "--g", "601", "--s", "1", "--route", "logw"],
        ["euler", "xi", "--g", "1", "--s", "601", "--route", "logw"],
        ["euler", "chi", "--variant", "real", "--g", "601", "--s", "1"],
        ["euler", "chi", "--variant", "complex", "--g", "1", "--s", "601"],
        ["euler", "chi", "--variant", "fixed", "--g", "601", "--s", "1", "--m", "0"],
        ["euler", "chi", "--variant", "real", "--g", "1", "--s", "1", "--m", "2"],
        ["euler", "chi", "--variant", "complex", "--g", "1", "--s", "1", "--separating"],
        ["euler", "chi", "--variant", "fixed", "--g", "1", "--s", "1"],
        ["--format", "csv", "jack", "--shape", "2"],
        ["--format", "csv", "euler", "xi", "--g", "1", "--s", "1"],
        ["--format", "csv", "euler", "chi", "--variant", "real", "--g", "1", "--s", "1"],
        ["--format", "csv", "oracle", "glue", "--sides", "4"],
        ["--format", "csv", "oracle", "rooted", "--edges", "2"],
        ["--format", "csv", "oracle", "lambda", "--g", "1", "--s", "1"],
        ["--format", "csv", "verify-all"],
        ["--format", "json", "verify-all"],
        ["--format", "xml", "jack", "--shape", "2"],
        ["euler", "xi", "--g", "x", "--s", "1"],
        ["euler", "xi", "--s", "1"],
        ["euler", "xi", "--g", "1", "--s"],
        ["euler", "xi", "--g", "1", "--s", "1", "--bogus"],
        ["euler", "xi", "--g", "1", "--s", "1", "extra"],
        ["euler", "chi", "--variant", "real", "--g", "1", "--s", "1", "--separating=yes"],
        ["euler", "xi", "--g", "1", "--s", "1", "--route", "series"],
        ["maps", "table", "--max", "2"],
        ["maps", "table", "--format", "json"],
        ["--bogus", "maps", "table"],
        ["--version=1"],
        ["--help=x"],
        ["-h=1"],
        ["--verbose=1"],
        ["-v=1"],
        ["euler", "--help=1"],
        ["maps", "table", "--help=1"],
        ["maps", "table", "-h=1"],
        ["foo"],
        ["euler"],
        ["euler", "psi"],
        ["euler", "xi", "--g", "-h", "--s", "1"],
        ["euler", "xi", "--g", "--help", "--s", "1"],
        ["maps", "table", "--b", "-h"],
        ["jack", "--shape", "-h"],
        ["jack", HUGE],
        [HUGE],
        ["maps", HUGE],
        ["jack", "--shape=2", "--x" + HUGE],
        ["--x" + HUGE],
        ["-" + VRUN + "=1"],
        ["--x\ny"],
        ["jack", "--sh\nape", "2"],
    ],
    ids=lambda argv: param_id(" ".join(argv)),
)
def test_bad_arguments_exit_2_with_one_error_line(capsys, monkeypatch, argv):
    """Malformed or oversized arguments are refused before any enumeration.

    The handlers look their workers up in the worker's module when they run,
    so patching the module attribute is enough to catch a call.
    """
    monkeypatch.setattr(maporacle, "_rooted_census", _enumeration_started)
    monkeypatch.setattr(maporacle, "_evaluate_gluing", _enumeration_started)
    monkeypatch.setattr(symfunc, "_solve_jack", _enumeration_started)
    monkeypatch.setattr(btutte, "cumulant", _enumeration_started)
    for worker in (
        "xi_closed",
        "xi_from_logW",
        "xi_from_maps",
        "chi_real",
        "chi_complex",
        "chi_fixed_curves",
    ):
        monkeypatch.setattr(eulerchar, worker, _enumeration_started)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert len(captured.err.encode()) <= 400
    assert captured.err.startswith("error: ") and captured.err.endswith("\n")
    assert "raise the bound" not in captured.err
    if "--b" in argv:
        assert "--b" in captured.err


#: Refusals whose text the parse fixes, word for word.
PARSE_REFUSALS = {
    "--version=1": "option '--version' takes no value",
    "maps table --help=1": "option '--help' takes no value",
    "euler xi --g -h --s 1": "option --g: not an integer: '-h'",
    "euler xi --g --help --s 1": "option --g needs a value",
    f"euler xi --g {HUGE} --s 1": "option --g: values are at most 100 characters, got 5001",
    "jack --shape 8,7": "option --shape: jack solves shapes of weight at most 10, got 15",
    "oracle glue --sides 8,6": (
        "option --sides: oracle glue enumerates at most 12 sides in total, got 14"
    ),
    f"jack {HUGE}": "unexpected argument <5001 characters>",
    HUGE: "unknown command <5001 characters> (choose from maps, euler, jack, oracle, verify-all)",
}


@pytest.mark.parametrize(
    ("argv", "message"), PARSE_REFUSALS.items(), ids=[param_id(a) for a in PARSE_REFUSALS]
)
def test_parse_refusals_read_exactly(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_jack_admits_only_the_weights_verify_all_checks(capsys):
    """`jack` refuses weight 11, and `verify-all` at its top truncation runs
    `jack-conditions` and `cauchy-kernel` through exactly `MAX_JACK_WEIGHT`."""
    from mapchi import MAX_EDGE_TRUNCATION, MAX_JACK_WEIGHT, verify

    code, out, err = run_cli(capsys, "jack", "--shape", "6,5")
    message = "option --shape: jack solves shapes of weight at most 10, got 11"
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert verify._jack_reach(MAX_EDGE_TRUNCATION) == MAX_JACK_WEIGHT


def test_value_with_a_long_repr_is_named_by_its_length(capsys):
    """A value of 100 characters passes the length check, but its repr is long.

    100 four-byte characters, or 100 control characters escaped as ``\\x01``,
    would make a line of over 400 bytes, so the refusal names the length.
    """
    for argv, message in [
        (
            ["jack", "--shape", "\U0001f600" * 100],
            "option --shape: bad shape <100 characters>: not an integer: <100 characters>",
        ),
        (
            ["euler", "xi", "--g", "1", "--s", "1", "--route", "\x01" * 100],
            "option --route: invalid choice <100 characters> (choose from closed, logw, maps)",
        ),
    ]:
        assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


def test_newline_in_an_unknown_option_is_escaped(capsys):
    """`PARSE_REFUSALS` splits its keys on whitespace, so this refusal reads exactly here."""
    code, out, err = run_cli(capsys, "--x\ny")
    message = (
        "unknown option '--x\\ny'; before the command mapchi takes only "
        "-h, --version, -v and --format"
    )
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    ("level", "names"),
    [
        (
            [],
            [
                "--help",
                "--version",
                "--verbose",
                "--format",
                "maps table",
                "euler xi",
                "euler chi",
                "jack",
                "oracle glue",
                "oracle rooted",
                "oracle lambda",
                "verify-all",
            ],
        ),
        (["euler"], ["--help", "xi", "chi"]),
        (["euler", "xi"], ["--help", "--g", "--s", "--route"]),
    ],
    ids=["mapchi", "mapchi euler", "mapchi euler xi"],
)
def test_help_names_every_option_of_its_level(capsys, level, names):
    code, out, err = run_cli(capsys, *level, "--help")
    assert code == 0 and err == ""
    assert out.startswith("usage: mapchi ")
    for name in names:
        assert name in out


@pytest.mark.parametrize(
    "argv",
    [
        "maps table --max-edges 2 -h",
        "maps table --max-edges 11 --help",
        "maps table --b=-h -h",
        "euler chi --separating -h",
    ],
)
def test_help_where_an_option_may_stand_prints_the_help(capsys, argv):
    """A help switch in an option's place wins over every other option; as a value it is not one."""
    words = argv.split()
    name = " ".join(words[:2]) if words[0] in cli.GROUPS else words[0]
    code, out, err = run_cli(capsys, *words)
    assert (code, out, err) == (0, cli._help(name) + "\n", "")


def test_version_flag(capsys):
    code, out, _ = run_cli(capsys, "--version")
    assert code == 0
    assert out.startswith("mapchi ")


@pytest.mark.parametrize(
    "argv, expected",
    [(["--version"], 0), (["euler", "xi", "--g", "1", "--s", "1"], 0), (["jack", "--shape", "8,7"], 2)],
    ids=lambda value: " ".join(value) if isinstance(value, list) else None,
)
def test_main_freezes_the_heap_on_every_exit(capsys, argv, expected):
    alive = [[] for _ in range(8)]  # tracked objects that are alive when main returns
    before = gc.get_freeze_count()
    assert run_cli(capsys, *argv)[0] == expected
    assert gc.get_freeze_count() >= before + len(alive)


def test_frozen_heap_leaves_repeated_commands_unchanged(capsys):
    """`map_count_table` empties the `btutte` memos after a build; a frozen
    heap from an earlier `main` must not change what the next build prints."""
    argv = ("--format", "csv", "maps", "table", "--max-edges", "4")
    outputs = []
    for _ in range(2):
        btutte.map_count_table.cache_clear()  # build the table again on each run
        outputs.append(run_cli(capsys, *argv))
        assert btutte.moment.cache_info().currsize == btutte.cumulant.cache_info().currsize == 0
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0


@pytest.mark.parametrize(
    "argv",
    [["verify-all", "--max-edges", "1"], ["maps", "table", "--max-edges", "6"]],
    ids=" ".join,
)
def test_closed_stdout_ends_without_traceback(argv):
    """A reader that goes away (``mapchi ... | head -1``) leaves no traceback.

    The pipe is closed before the command writes anything, so its first
    flush fails whatever the output size.
    """
    launch = "import sys; from mapchi.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.Popen(
        [sys.executable, "-c", launch, *argv],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == EXIT_FAILURE
    assert err == b""

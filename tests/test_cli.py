"""Command-line interface: output shapes, determinism, exit codes."""

from __future__ import annotations

import json

import pytest

from mapchi import arith, btutte, eulerchar, maporacle, symfunc
from mapchi.cli import main


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
    code, _, err = run_cli(capsys, "euler", "xi", "--g", "3", "--s", "2", "--route", "maps")
    assert code == 2
    assert "beyond the supported bound" in err


@pytest.mark.parametrize("route", ["closed", "logw", "maps"])
@pytest.mark.parametrize(("g", "s"), [("0", "1"), ("1", "0")])
def test_euler_xi_routes_refuse_small_indices_alike(capsys, route, g, s):
    code, out, err = run_cli(capsys, "euler", "xi", "--g", g, "--s", s, "--route", route)
    assert code == 2
    assert out == ""
    assert err == "error: xi is defined here for g >= 1 and s >= 1\n"


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
        (["--edges", "7"], "the permutation oracle enumerates at most 6 edges, asked for 7"),
        (
            ["--edges", "6", "--surface", "all"],
            "the matching oracle enumerates at most 5 edges, asked for 6",
        ),
    ],
)
def test_oracle_rooted_refusal_names_the_limit(capsys, monkeypatch, argv, message):
    monkeypatch.setattr(maporacle, "_orientable_counts", _enumeration_started)
    monkeypatch.setattr(maporacle, "_locally_orientable_counts", _enumeration_started)
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
    from fractions import Fraction

    arith.bernoulli(12)
    saved = list(arith._bernoulli_cache)
    try:
        arith._bernoulli_cache[6] = Fraction(1, 7)
        code, out, _ = run_cli(capsys, "verify-all", "--max-edges", "1")
    finally:
        arith._bernoulli_cache[:] = saved
    assert code == 2
    assert any(line.startswith("FAIL exact-arith") for line in out.splitlines())


def _enumeration_started(*args, **kwargs):
    raise AssertionError("a guard let an oversized request start enumerating")


@pytest.mark.parametrize(
    "argv",
    [
        ["maps", "table", "--b", "1/0"],
        ["maps", "table", "--b", "x"],
        ["maps", "table", "--max-edges", "0"],
        ["maps", "table", "--max-edges", "11"],
        ["verify-all", "--max-edges", "0"],
        ["verify-all", "--max-edges", "11"],
        ["oracle", "rooted", "--edges", "7"],
        ["oracle", "rooted", "--edges", "6", "--surface", "all"],
        ["oracle", "glue", "--sides", "3"],
        ["oracle", "glue", "--sides", "14"],
        ["jack", "--shape", "0"],
        ["jack", "--shape", "15"],
        ["euler", "xi", "--g", "0", "--s", "1"],
        ["euler", "xi", "--g", "0", "--s", "1", "--route", "maps"],
        ["euler", "xi", "--g", "1", "--s", "0", "--route", "maps"],
        ["euler", "xi", "--g", "601", "--s", "1"],
        ["euler", "xi", "--g", "1", "--s", "601"],
        ["euler", "xi", "--g", "1", "--s", "37", "--route", "logw"],
        ["euler", "xi", "--g", "37", "--s", "1", "--route", "logw"],
        ["euler", "chi", "--variant", "real", "--g", "601", "--s", "1"],
        ["euler", "chi", "--variant", "complex", "--g", "1", "--s", "601"],
        ["euler", "chi", "--variant", "fixed", "--g", "601", "--s", "1", "--m", "0"],
        ["euler", "chi", "--variant", "real", "--g", "1", "--s", "1", "--m", "2"],
        ["euler", "chi", "--variant", "complex", "--g", "1", "--s", "1", "--separating"],
        ["--format", "csv", "jack", "--shape", "2"],
        ["--format", "csv", "euler", "xi", "--g", "1", "--s", "1"],
        ["--format", "csv", "euler", "chi", "--variant", "real", "--g", "1", "--s", "1"],
        ["--format", "csv", "oracle", "glue", "--sides", "4"],
        ["--format", "csv", "oracle", "rooted", "--edges", "2"],
        ["--format", "csv", "oracle", "lambda", "--g", "1", "--s", "1"],
        ["--format", "csv", "verify-all"],
    ],
    ids=" ".join,
)
def test_bad_arguments_exit_2_with_one_error_line(capsys, monkeypatch, argv):
    """Malformed or oversized arguments are refused before any enumeration.

    The handlers look their workers up in the worker's module when they run,
    so patching the module attribute is enough to catch a call.
    """
    monkeypatch.setattr(maporacle, "_orientable_counts", _enumeration_started)
    monkeypatch.setattr(maporacle, "_locally_orientable_counts", _enumeration_started)
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
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refuses values its types reject
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err
    assert "Traceback" not in err
    assert "raise the bound" not in err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("mapchi ")

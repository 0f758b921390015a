"""Command-line interface.

Commands mirror the library surface: ``maps table`` prints refined map
counts, ``euler xi``/``euler chi`` print Euler characteristics, ``jack``
prints a Jack function with its statistics, ``oracle`` runs the brute-force
enumerators, and ``verify-all`` runs the self-verification suite.

Data formats are byte-deterministic: rows are emitted in a fixed sort
order, rationals as ``p/q`` strings, polynomials as JSON arrays of
coefficient strings indexed by degree.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from fractions import Fraction

from . import __version__
from .arith import poly_str
from .eulerchar import (
    chi_complex,
    chi_fixed_curves,
    chi_real,
    xi_closed,
    xi_from_logW,
    xi_from_maps,
)
from .maporacle import (
    glue_census,
    lambda_from_census,
    rooted_locally_orientable_counts,
    rooted_orientable_counts,
)
from .mapseries import MAX_EDGE_TRUNCATION, map_count_table
from .partitions import Partition
from .symfunc import jack
from .verify import EXIT_FAILURE, CheckResult, run_verify

FORMATS = ("pretty", "json", "csv")

#: Largest Jack weight `jack` solves: weight 14 takes about 5 s, and the
#: operator build grows like p(n)^2.
MAX_JACK_WEIGHT = 14

#: Largest total side count `oracle glue` enumerates: 12 sides are 665,280
#: configurations and take about 12 s; 14 sides would be 26 times as many.
MAX_GLUE_SIDES = 12

#: Largest g and s the `euler` commands accept: g = 599, s = 600 takes about
#: 2 s, almost all of it the Bernoulli recurrence to B_600, whose cost grows
#: about like the cube of the index (g = 1000 takes about 9 s).
MAX_EULER_INDEX = 600

#: Largest t-order g + s - 1 to which `euler xi --route logw` expands log W:
#: order 36 takes about 2 s, order 59 about 13 s.
MAX_LOGW_ORDER = 36


def _refuse(message: str) -> int:
    """Print one ``error:`` line to stderr and return the failure exit code."""
    print(f"error: {message}", file=sys.stderr)
    return EXIT_FAILURE


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2))


# ---------------------------------------------------------------------------
# maps table
# ---------------------------------------------------------------------------


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None


def cmd_maps_table(args) -> int:
    table = map_count_table(args.max_edges)
    rows = []
    for key in table.keys_sorted():
        poly = table.entries[key]
        row: dict[str, object] = {"i": list(key.i), "j": key.j, "n": key.n}
        if args.b is None:
            row["poly"] = poly.coeff_strings()
        else:
            row["count"] = str(Fraction(poly.eval(args.b)))
        rows.append(row)

    if args.format == "json":
        _print_json({"max_edges": table.max_n, "rows": rows})
    elif args.format == "csv":
        header = "n,j,i," + ("count" if args.b is not None else "poly")
        print(header)
        for key, row in zip(table.keys_sorted(), rows):
            i_str = " ".join(str(k) for k in key.i)
            tail = row["count"] if args.b is not None else poly_str(table.entries[key])
            print(f"{key.n},{key.j},{i_str},{tail}")
    else:
        for key, row in zip(table.keys_sorted(), rows):
            label = f"n={key.n} j={key.j} i={list(key.i)}"
            tail = row["count"] if args.b is not None else poly_str(table.entries[key])
            print(f"{label:<28} {tail}")
    return 0


# ---------------------------------------------------------------------------
# euler xi / euler chi
# ---------------------------------------------------------------------------


def cmd_euler_xi(args) -> int:
    if args.g < 1 or args.s < 1:
        return _refuse("xi is defined here for g >= 1 and s >= 1")
    if max(args.g, args.s) > MAX_EULER_INDEX:
        return _refuse(f"euler accepts g and s of at most {MAX_EULER_INDEX}")
    if args.route == "closed":
        poly = xi_closed(args.g, args.s)
    elif args.route == "logw":
        if args.g + args.s - 1 > MAX_LOGW_ORDER:
            return _refuse(
                f"the logw route expands log W to order g+s-1 of at most {MAX_LOGW_ORDER}"
            )
        poly = xi_from_logW(args.g, args.s)
    else:
        needed = 3 * args.g + 3 * args.s - 3
        if needed > MAX_EDGE_TRUNCATION:
            return _refuse(
                f"the maps route for xi({args.g},{args.s}) needs map counts "
                f"through n={needed}, beyond the supported bound {MAX_EDGE_TRUNCATION}"
            )
        poly = xi_from_maps(args.g, args.s, map_count_table(needed))
    if args.format == "json":
        _print_json(
            {
                "g": args.g,
                "s": args.s,
                "route": args.route,
                "variable": "1/gamma",
                "coeffs": poly.coeff_strings(),
            }
        )
    else:
        print(f"xi({args.g},{args.s}) = {poly_str(poly, '1/gamma')}")
    return 0


def cmd_euler_chi(args) -> int:
    if max(args.g, args.s) > MAX_EULER_INDEX:
        return _refuse(f"euler accepts g and s of at most {MAX_EULER_INDEX}")
    if args.variant == "real":
        value = chi_real(args.g, args.s)
    elif args.variant == "complex":
        value = chi_complex(args.g, args.s)
    else:
        if args.m is None:
            return _refuse("--variant fixed requires --m")
        value = chi_fixed_curves(args.g, args.s, args.m, separating=args.separating)
    if args.format == "json":
        payload: dict[str, object] = {
            "variant": value.variant,
            "g": value.g,
            "s": value.s,
            "value": str(value.value),
        }
        if value.m is not None:
            payload["m"] = value.m
            payload["separating"] = value.separating
        _print_json(payload)
    else:
        print(str(value.value))
    return 0


# ---------------------------------------------------------------------------
# jack
# ---------------------------------------------------------------------------


def _parse_shape(text: str) -> Partition:
    text = text.strip()
    if not text:
        return Partition(())
    try:
        return Partition(tuple(int(p) for p in text.split(",")))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad shape {text!r}: {exc}") from None


def cmd_jack(args) -> int:
    if args.shape.weight > MAX_JACK_WEIGHT:
        return _refuse(f"jack solves shapes of weight at most {MAX_JACK_WEIGHT}")
    rec = jack(args.shape)
    ordered = sorted(
        rec.expansion.terms.items(), key=lambda t: t[0].parts, reverse=True
    )
    if args.format == "json":
        _print_json(
            {
                "shape": list(rec.shape.parts),
                "expansion": {
                    "[" + ",".join(str(p) for p in mu.parts) + "]": poly_str(c, "alpha")
                    for mu, c in ordered
                },
                "norm": poly_str(rec.norm, "alpha"),
                "principal": [poly_str(c, "alpha") for c in rec.principal.coeffs],
                "p2coeff": poly_str(rec.p2coeff, "alpha"),
            }
        )
    else:
        def bracket(parts) -> str:
            return "[" + ",".join(str(p) for p in parts) + "]"

        terms = " + ".join(f"({poly_str(c, 'alpha')}) p_{bracket(mu.parts)}" for mu, c in ordered)
        principal = " + ".join(
            f"({poly_str(c, 'alpha')})" + ("" if k == 0 else " x" if k == 1 else f" x^{k}")
            for k, c in enumerate(rec.principal.coeffs)
            if c
        )
        print(f"J_{bracket(rec.shape.parts)} = {terms}")
        print(f"norm      = {poly_str(rec.norm, 'alpha')}")
        print(f"principal = {principal}")
        print(f"p2coeff   = {poly_str(rec.p2coeff, 'alpha')}")
    return 0


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def _parse_sides(text: str) -> tuple[int, ...]:
    try:
        sides = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad side list {text!r}") from None
    if not sides or any(s < 1 for s in sides):
        raise argparse.ArgumentTypeError("side counts must be positive")
    return sides


def cmd_oracle_glue(args) -> int:
    if sum(args.sides) > MAX_GLUE_SIDES:
        return _refuse(f"oracle glue enumerates at most {MAX_GLUE_SIDES} sides in total")
    census = glue_census(*args.sides, collect_patterns=args.patterns)
    classes = [
        {
            "chi": chi,
            "orientable": orientable,
            "connected_count": count,
            "filtered_count": census.by_chi_filtered.get((chi, orientable), 0),
        }
        for (chi, orientable), count in sorted(census.by_chi.items(), reverse=True)
    ]
    if args.format == "json":
        payload: dict[str, object] = {
            "sides": list(census.sides),
            "edges": census.edge_count,
            "raw_count": census.raw_count,
            "connected_count": census.connected_count,
            "classes": classes,
        }
        if args.patterns:
            payload["patterns"] = {
                f"chi={chi},{'orientable' if orientable else 'nonorientable'}": words
                for (chi, orientable), words in sorted(
                    census.patterns_filtered.items(), reverse=True
                )
            }
        _print_json(payload)
    else:
        print(
            f"polygons {list(census.sides)}: {census.raw_count} gluings, "
            f"{census.connected_count} connected"
        )
        for cls in classes:
            kind = "orientable" if cls["orientable"] else "nonorientable"
            print(
                f"  chi={cls['chi']:>3} {kind:<13} count={cls['connected_count']:<4} "
                f"valence>=3: {cls['filtered_count']}"
            )
        if args.patterns:
            for (chi, orientable), words in sorted(
                census.patterns_filtered.items(), reverse=True
            ):
                kind = "orientable" if orientable else "nonorientable"
                print(f"  words with chi={chi}, {kind}:")
                for word in sorted(words):
                    print(f"    {word}")
    return 0


def cmd_oracle_rooted(args) -> int:
    if args.surface == "orientable":
        counts = rooted_orientable_counts(args.edges)
    else:
        counts = rooted_locally_orientable_counts(args.edges)
    keys = sorted(counts, key=lambda k: (k.n, k.j, k.i))
    if args.format == "json":
        _print_json(
            {
                "edges": args.edges,
                "surface": args.surface,
                "rows": [
                    {"i": list(k.i), "j": k.j, "n": k.n, "count": counts[k]}
                    for k in keys
                ],
            }
        )
    else:
        total = 0
        for k in keys:
            print(f"n={k.n} j={k.j} i={list(k.i)!s:<20} {counts[k]}")
            total += counts[k]
        print(f"total: {total}")
    return 0


def cmd_oracle_lambda(args) -> int:
    triple = lambda_from_census(args.g, args.s)
    if args.format == "json":
        _print_json(
            {
                "g": args.g,
                "s": args.s,
                "total": str(triple.total),
                "orientable": str(triple.orientable),
                "nonorientable": str(triple.nonorientable),
            }
        )
    else:
        print(f"Lambda({args.g},{args.s})   = {triple.total}")
        print(f"Lambda^O({args.g},{args.s}) = {triple.orientable}")
        print(f"Lambda^N({args.g},{args.s}) = {triple.nonorientable}")
    return 0


# ---------------------------------------------------------------------------
# verify-all
# ---------------------------------------------------------------------------


def cmd_verify_all(args) -> int:
    def report_line(result: CheckResult) -> None:
        tag = {"pass": "PASS", "fail": "FAIL", "skip": "SKIP"}[result.status]
        if result.status == "pass" and args.verbosity == 0:
            print(f"{tag} {result.name}")
        else:
            print(f"{tag} {result.name}: {result.detail}")
        if args.verbosity:
            print(f"  [{result.seconds:.2f}s] {result.name}", file=sys.stderr)

    report = run_verify(max_edges=args.max_edges, on_result=report_line)
    failed = [r for r in report.results if r.status == "fail"]
    if failed:
        names = ", ".join(r.name for r in failed)
        print(f"{len(failed)} check(s) failed: {names}", file=sys.stderr)
    return report.exit_code


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mapchi",
        description="Exact Euler characteristics of moduli of real and complex "
        "curves via map enumeration.",
    )
    parser.add_argument("--version", action="version", version=f"mapchi {__version__}")
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        dest="verbosity",
        help="print timings and extra detail",
    )
    parser.add_argument(
        "--format",
        choices=FORMATS,
        default="pretty",
        help="output format (default: pretty)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    maps = sub.add_parser("maps", help="refined map-count polynomials")
    maps_sub = maps.add_subparsers(dest="subcommand", required=True)
    table = maps_sub.add_parser("table", help="print the table of counts in b")
    table.add_argument(
        "--max-edges",
        type=int,
        default=3,
        help=f"series truncation, at most {MAX_EDGE_TRUNCATION} (default: 3)",
    )
    table.add_argument(
        "--b",
        type=_parse_rational,
        default=None,
        help="specialize b to this rational (0 orientable, 1 all surfaces)",
    )
    table.set_defaults(run=cmd_maps_table)

    euler = sub.add_parser("euler", help="Euler characteristics")
    euler_sub = euler.add_subparsers(dest="subcommand", required=True)
    xi = euler_sub.add_parser("xi", help="the parametrized xi^s_g, in 1/gamma")
    xi.add_argument("--g", type=int, required=True, help=f"at most {MAX_EULER_INDEX}")
    xi.add_argument("--s", type=int, required=True, help=f"at most {MAX_EULER_INDEX}")
    xi.add_argument(
        "--route",
        choices=("closed", "logw", "maps"),
        default="closed",
        help="which of the three equal computations to run (default: closed); "
        f"logw needs g+s-1 <= {MAX_LOGW_ORDER}",
    )
    xi.set_defaults(run=cmd_euler_xi)
    chi = euler_sub.add_parser("chi", help="classical specializations")
    chi.add_argument("--variant", choices=("real", "complex", "fixed"), required=True)
    chi.add_argument("--g", type=int, required=True, help=f"at most {MAX_EULER_INDEX}")
    chi.add_argument("--s", type=int, required=True, help=f"at most {MAX_EULER_INDEX}")
    chi.add_argument("--m", type=int, default=None, help="fixed-curve count")
    chi.add_argument(
        "--separating",
        action="store_true",
        help="fixed curves separate the quotient (variant fixed only)",
    )
    chi.set_defaults(run=cmd_euler_chi)

    jackp = sub.add_parser("jack", help="a Jack function with its statistics")
    jackp.add_argument(
        "--shape",
        type=_parse_shape,
        required=True,
        help=f"comma-separated partition of weight at most {MAX_JACK_WEIGHT}, e.g. 2,1",
    )
    jackp.set_defaults(run=cmd_jack)

    oracle = sub.add_parser("oracle", help="brute-force enumerators")
    oracle_sub = oracle.add_subparsers(dest="subcommand", required=True)
    glue = oracle_sub.add_parser("glue", help="polygon-gluing census")
    glue.add_argument(
        "--sides",
        type=_parse_sides,
        required=True,
        help=f"comma-separated polygon side counts, at most {MAX_GLUE_SIDES} in "
        "total, e.g. 4 or 4,2",
    )
    glue.add_argument(
        "--patterns", action="store_true", help="list boundary words (valence >= 3)"
    )
    glue.set_defaults(run=cmd_oracle_glue)
    rooted = oracle_sub.add_parser("rooted", help="rooted-map counts by enumeration")
    rooted.add_argument("--edges", type=int, required=True)
    rooted.add_argument(
        "--surface", choices=("orientable", "all"), default="orientable"
    )
    rooted.set_defaults(run=cmd_oracle_rooted)
    lam = oracle_sub.add_parser("lambda", help="Lambda values from the censuses")
    lam.add_argument("--g", type=int, required=True)
    lam.add_argument("--s", type=int, required=True)
    lam.set_defaults(run=cmd_oracle_lambda)

    verify = sub.add_parser("verify-all", help="run the self-verification suite")
    verify.add_argument(
        "--max-edges",
        type=int,
        default=3,
        help="series truncation used by the map-count checks, at most "
        f"{MAX_EDGE_TRUNCATION} (default: 3)",
    )
    verify.set_defaults(run=cmd_verify_all)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbosity else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        return args.run(args)
    except (ValueError, RuntimeError) as exc:
        return _refuse(str(exc))


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Commands mirror the library surface: ``maps table`` prints refined map
counts, ``euler xi``/``euler chi`` print Euler characteristics, ``jack``
prints a Jack function with its statistics, ``oracle`` runs the brute-force
enumerators, and ``verify-all`` runs the self-verification suite.

Data formats are byte-deterministic: rows are emitted in a fixed sort
order, rationals as ``p/q`` strings, polynomials as JSON arrays of
coefficient strings indexed by degree.

Each command handler imports the layer it runs when it runs, so a command
pays for importing only the modules it uses: ``--version`` and the integer
oracles load neither `fractions` nor an algebra layer, and ``maps table``
(without ``--b`` or with an integer ``--b``) and ``jack`` compute over
integers and load no `fractions`.  JSON output comes from a small writer,
`_json`, that writes what ``json.dumps(payload, indent=2)`` writes, so no
command loads `json` for output it can write itself.  One table,
`COMMANDS`, states every command with its options; a small parser reads it
for parsing, ``-h``/``--help`` and every refusal, which is one ``error:``
line on stderr with exit code 2.  Options are matched exactly, never by prefix.
`main` freezes the garbage collector's heap before it returns, because the
interpreter's exit-time collections would otherwise walk and free every object
a short command leaves behind, which costs several milliseconds per process.
"""

from __future__ import annotations

import gc
import os
import sys
from types import SimpleNamespace

from . import (
    EXIT_FAILURE,
    EXIT_OK,
    MAX_EDGE_TRUNCATION,
    MAX_JACK_WEIGHT,
    __version__,
    check_indices,
)

FORMATS = ("pretty", "json", "csv")

#: Largest total side count `oracle glue` enumerates: 12 sides are 665,280
#: configurations and take 4.4-5.5 s in a fresh process (2 vCPUs, Python
#: 3.11.7); 14 sides would be 26 times as many.
MAX_GLUE_SIDES = 12

#: Largest g and s the `euler` commands accept: g = 599, s = 600 takes about
#: 2 s, almost all of it the Bernoulli recurrence to B_600, whose cost grows
#: about like the cube of the index (g = 1000 takes about 9 s).
MAX_EULER_INDEX = 600


def _json(value, indent: str = "") -> str:
    """`value` as ``json.dumps(value, indent=2)`` writes it, nested at `indent`.

    Writes str, int, bool, None, list and dict with str keys itself;
    anything else (a float, a tuple, a non-str key, a string that is not
    printable ASCII or holds a quote or a backslash) goes to `json`, which
    is then imported.  JSON text holds no raw newline, so re-indenting that output
    line by line is exact.
    """
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    kind = type(value)
    if kind is str:
        if value.isascii() and value.isprintable() and '"' not in value and "\\" not in value:
            return f'"{value}"'
    elif kind is int:
        return str(value)
    elif kind is list or (kind is dict and all(type(k) is str for k in value)):
        if not value:
            return "{}" if kind is dict else "[]"
        inner = indent + "  "
        if kind is dict:
            items = [f"{_json(k)}: {_json(v, inner)}" for k, v in value.items()]
        else:
            items = [_json(v, inner) for v in value]
        opening, closing = "{}" if kind is dict else "[]"
        return f"{opening}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{closing}"
    import json

    return json.dumps(value, indent=2).replace("\n", "\n" + indent)


def _print_json(payload) -> None:
    print(_json(payload))


# ---------------------------------------------------------------------------
# maps table
# ---------------------------------------------------------------------------


def _parse_rational(text: str):
    """`text` as an `int` if it is an ASCII integer literal, else a `fractions.Fraction`.

    Only ``[+-]?[0-9]+`` around optional whitespace takes the `int` route,
    which needs no `fractions`; it accepts exactly what `Fraction` accepts
    there, with the same value.
    """
    stripped = text.strip()
    digits = stripped[1:] if stripped[:1] in ("+", "-") else stripped
    if digits.isascii() and digits.isdigit():
        return int(stripped)

    from fractions import Fraction

    # Fraction builds the whole integer of an exponent like 1e30000000
    # before anything could check its size, so refuse those first.
    if "e" in text.lower():
        raise ValueError(f"exponent notation is not accepted: {_quote(text)}")
    if "_" in text:  # Fraction reads underscores only from Python 3.11 on
        raise ValueError(f"underscores are not accepted: {_quote(text)}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"not a rational number: {_quote(text)}") from None


def cmd_maps_table(args) -> int:
    from .arith import poly_str
    from .btutte import map_count_table, specialize_counts

    table = map_count_table(args.max_edges)
    counts = None if args.b is None else specialize_counts(table, args.b)
    keys = table.keys_sorted()
    if args.format == "json":
        rows = []
        for key in keys:
            row: dict[str, object] = {"i": list(key.i), "j": key.j, "n": key.n}
            if counts is None:
                row["poly"] = table[key].coeff_strings()
            else:
                row["count"] = str(counts[key])
            rows.append(row)
        _print_json({"max_edges": table.max_n, "rows": rows})
        return 0

    if args.format == "csv":
        print("n,j,i," + ("poly" if counts is None else "count"))
    for key in keys:
        tail = poly_str(table[key]) if counts is None else str(counts[key])
        if args.format == "csv":
            i_str = " ".join(str(k) for k in key.i)
            print(f"{key.n},{key.j},{i_str},{tail}")
        else:
            label = f"n={key.n} j={key.j} i={list(key.i)}"
            print(f"{label:<28} {tail}")
    return 0


# ---------------------------------------------------------------------------
# euler xi / euler chi
# ---------------------------------------------------------------------------


def cmd_euler_xi(args) -> int:
    # The xi routes make this check too; made here, a refused `euler xi` loads no layer.
    check_indices(args.g, args.s, f"xi({args.g},{args.s})")

    from .arith import poly_str
    from .eulerchar import xi_closed, xi_from_logW, xi_from_maps

    route = {"closed": xi_closed, "logw": xi_from_logW, "maps": xi_from_maps}[args.route]
    poly = route(args.g, args.s)
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
        print(f"xi({args.g},{args.s}) = {poly_str(poly)}")
    return 0


def cmd_euler_chi(args) -> int:
    if args.variant != "fixed" and (args.m is not None or args.separating):
        raise ValueError("--m and --separating apply only to --variant fixed")
    if args.variant == "fixed" and args.m is None:
        raise ValueError("--variant fixed requires --m")

    from .eulerchar import chi_complex, chi_fixed_curves, chi_real

    if args.variant == "real":
        value = chi_real(args.g, args.s)
    elif args.variant == "complex":
        value = chi_complex(args.g, args.s)
    else:
        value = chi_fixed_curves(args.g, args.s, args.m, separating=args.separating)
    if args.format == "json":
        payload: dict[str, object] = {
            "variant": "fixed-curves" if args.variant == "fixed" else args.variant,
            "g": args.g,
            "s": args.s,
            "value": str(value),
        }
        if args.variant == "fixed":
            payload["m"] = args.m
            payload["separating"] = args.separating
        _print_json(payload)
    else:
        print(str(value))
    return 0


# ---------------------------------------------------------------------------
# jack
# ---------------------------------------------------------------------------


def _parse_shape(text: str):
    """`text` as a `partitions.Partition`; its weight is checked before `partitions` loads."""
    text = text.strip()
    try:
        parts = tuple(map(_parse_int, text.split(","))) if text else ()
        if sum(parts) <= MAX_JACK_WEIGHT:
            from .partitions import Partition

            return Partition(parts)
    except ValueError as exc:
        raise ValueError(f"bad shape {_quote(text)}: {exc}") from None
    raise ValueError(f"jack solves shapes of weight at most {MAX_JACK_WEIGHT}, got {sum(parts)}")


def cmd_jack(args) -> int:
    from .arith import poly_str
    from .symfunc import jack

    def bracket(parts) -> str:
        return "[" + ",".join(str(p) for p in parts) + "]"

    rec = jack(args.shape)
    ordered = sorted(
        rec.expansion.terms.items(), key=lambda t: t[0].parts, reverse=True
    )
    if args.format == "json":
        _print_json(
            {
                "shape": list(args.shape.parts),
                "expansion": {bracket(mu.parts): poly_str(c) for mu, c in ordered},
                "norm": poly_str(rec.norm),
                "principal": [poly_str(c) for c in rec.principal.coeffs],
                "p2coeff": poly_str(rec.p2coeff),
            }
        )
    else:
        terms = " + ".join(f"({poly_str(c)}) p_{bracket(mu.parts)}" for mu, c in ordered)
        principal = " + ".join(
            f"({poly_str(c)})" + ("" if k == 0 else " x" if k == 1 else f" x^{k}")
            for k, c in enumerate(rec.principal.coeffs)
            if c
        )
        print(f"J_{bracket(args.shape.parts)} = {terms}")
        print(f"norm      = {poly_str(rec.norm)}")
        print(f"principal = {principal}")
        print(f"p2coeff   = {poly_str(rec.p2coeff)}")
    return 0


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def _parse_sides(text: str) -> tuple[int, ...]:
    """`text` as side counts, refused above `MAX_GLUE_SIDES` in total."""
    try:
        sides = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"bad side list {_quote(text)}") from None
    if sum(sides) > MAX_GLUE_SIDES:
        raise ValueError(
            f"oracle glue enumerates at most {MAX_GLUE_SIDES} sides in total, got {sum(sides)}"
        )
    return sides


def cmd_oracle_glue(args) -> int:
    from .maporacle import glue_census

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
            "sides": list(args.sides),
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
            f"polygons {list(args.sides)}: {census.raw_count} gluings, "
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
    from .maporacle import rooted_locally_orientable_counts, rooted_orientable_counts

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
    from .maporacle import lambda_from_census

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
    from .verify import CheckResult, run_verify

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
# Command table and parser
# ---------------------------------------------------------------------------


#: The longest value any option accepts; `_convert` refuses a longer one.
MAX_VALUE_CHARS = 100


def _quote(token: str) -> str:
    """A user's token as every refusal shows it: its repr, or its length if that is long.

    The repr escapes a newline, so the refusal stays one line; a repr of more
    than `MAX_VALUE_CHARS` bytes within its quotes gives way to the length.
    """
    shown = repr(token)
    if len(shown.encode()) > MAX_VALUE_CHARS + 2:
        return f"<{len(token)} characters>"
    return shown


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"not an integer: {_quote(text)}") from None


def _parse_euler_index(text: str) -> int:
    """An `euler` --g or --s, refused above `MAX_EULER_INDEX` while parsing."""
    index = _parse_int(text)
    if index > MAX_EULER_INDEX:
        raise ValueError(f"euler accepts at most {MAX_EULER_INDEX}, got {index}")
    return index


#: The default of an option that must be given.
REQUIRED = object()

PRETTY_JSON = ("pretty", "json")

#: The help switches, taken at every level.
HELP = ("-h", "--help")

#: Help text of each two-word command's first word.
GROUPS = {
    "maps": "refined map-count polynomials",
    "euler": "Euler characteristics",
    "oracle": "brute-force enumerators",
}

#: Every command: (handler, help, accepted formats, options).  An option is
#: (flag, converter, default, help): a tuple converter lists the accepted
#: words, converter None makes a switch (True when given), and the
#: default REQUIRED makes the option required.  The handler reads each
#: option as the attribute named after its flag (``--max-edges`` is
#: ``args.max_edges``), next to ``args.format`` and ``args.verbosity``.
COMMANDS = {
    "maps table": (
        cmd_maps_table,
        "print the table of counts in b",
        FORMATS,
        (
            ("--max-edges", _parse_int, 3,
             f"series truncation, at most {MAX_EDGE_TRUNCATION} (default: 3)"),
            ("--b", _parse_rational, None,
             "specialize b to this rational (0 orientable, 1 all surfaces)"),
        ),
    ),
    "euler xi": (
        cmd_euler_xi,
        "the parametrized xi^s_g, in 1/gamma",
        PRETTY_JSON,
        (
            ("--g", _parse_euler_index, REQUIRED, f"at most {MAX_EULER_INDEX}"),
            ("--s", _parse_euler_index, REQUIRED, f"at most {MAX_EULER_INDEX}"),
            ("--route", ("closed", "logw", "maps"), "closed",
             "which of the three equal computations to run (default: closed)"),
        ),
    ),
    "euler chi": (
        cmd_euler_chi,
        "classical specializations",
        PRETTY_JSON,
        (
            ("--variant", ("real", "complex", "fixed"), REQUIRED, "which moduli space"),
            ("--g", _parse_euler_index, REQUIRED, f"at most {MAX_EULER_INDEX}"),
            ("--s", _parse_euler_index, REQUIRED, f"at most {MAX_EULER_INDEX}"),
            ("--m", _parse_int, None, "fixed-curve count (variant fixed only)"),
            ("--separating", None, False,
             "fixed curves separate the quotient (variant fixed only)"),
        ),
    ),
    "jack": (
        cmd_jack,
        "a Jack function with its statistics",
        PRETTY_JSON,
        (
            ("--shape", _parse_shape, REQUIRED,
             f"comma-separated partition of weight at most {MAX_JACK_WEIGHT}, e.g. 2,1"),
        ),
    ),
    "oracle glue": (
        cmd_oracle_glue,
        "polygon-gluing census",
        PRETTY_JSON,
        (
            ("--sides", _parse_sides, REQUIRED,
             f"comma-separated polygon side counts, at most {MAX_GLUE_SIDES} in total, "
             "e.g. 4 or 4,2"),
            ("--patterns", None, False, "list boundary words (valence >= 3)"),
        ),
    ),
    "oracle rooted": (
        cmd_oracle_rooted,
        "rooted-map counts by enumeration",
        PRETTY_JSON,
        (
            ("--edges", _parse_int, REQUIRED, "number of edges"),
            ("--surface", ("orientable", "all"), "orientable",
             "orientable maps or maps on all surfaces (default: orientable)"),
        ),
    ),
    "oracle lambda": (
        cmd_oracle_lambda,
        "Lambda values from the censuses",
        PRETTY_JSON,
        (
            ("--g", _parse_int, REQUIRED, "genus"),
            ("--s", _parse_int, REQUIRED, "number of marked points"),
        ),
    ),
    "verify-all": (
        cmd_verify_all,
        "run the self-verification suite",
        ("pretty",),
        (
            ("--max-edges", _parse_int, 3,
             "series truncation used by the map-count checks, at most "
             f"{MAX_EDGE_TRUNCATION} (default: 3)"),
        ),
    ),
}

#: The options taken before the command, for the top-level help.
GLOBAL_OPTIONS = (
    ("-h, --help", "show this help and exit"),
    ("--version", "print the version and exit"),
    ("-v, --verbose", "verify-all only: print every check's detail, and its time to stderr"),
    (
        f"--format {{{','.join(FORMATS)}}}",
        "output format (default: pretty); csv only for maps table, pretty only for verify-all",
    ),
)


def _spec(option) -> str:
    """An option as the help shows it: ``--g G``, ``--route {a,b}``, ``--patterns``."""
    flag, convert, _, _ = option
    if convert is None:
        return flag
    if isinstance(convert, tuple):
        return f"{flag} {{{','.join(convert)}}}"
    return f"{flag} {flag[2:].upper().replace('-', '_')}"


def _rows(title: str, rows) -> list[str]:
    width = max(len(left) for left, _ in rows) + 2
    return ["", f"{title}:", *(f"  {left:<{width}}{text}".rstrip() for left, text in rows)]


def _help(name: str) -> str:
    """The ``-h`` text of the top level (name ''), a command group or a command."""
    if name in COMMANDS:
        _, text, formats, options = COMMANDS[name]
        usage = [_spec(o) if o[2] is REQUIRED else f"[{_spec(o)}]" for o in options]
        lines = [
            f"usage: mapchi [global options] {name} [-h] {' '.join(usage)}",
            "",
            f"{text}; formats: {', '.join(formats)}",
            *_rows("options", [GLOBAL_OPTIONS[0], *((_spec(o), o[3]) for o in options)]),
        ]
    else:
        prefix = f"{name} " if name else ""
        commands = [(c[len(prefix):], COMMANDS[c][1]) for c in COMMANDS if c.startswith(prefix)]
        if name:
            head = [f"usage: mapchi [global options] {name} COMMAND [options]", "", GROUPS[name]]
            options = [GLOBAL_OPTIONS[0]]
        else:
            head = [
                "usage: mapchi [global options] COMMAND [options]",
                "",
                "Exact Euler characteristics of moduli of real and complex curves via "
                "map enumeration.",
            ]
            options = list(GLOBAL_OPTIONS)
        lines = [*head, *_rows("commands", commands), *_rows("options", options)]
    return "\n".join(lines)


def _choices(prefix: str) -> str:
    """The words that may follow `prefix` ('' or a group and a space)."""
    words = dict.fromkeys(c[len(prefix):].split(" ")[0] for c in COMMANDS if c.startswith(prefix))
    return ", ".join(words)


def _split(token: str) -> tuple[str, str | None]:
    """``--opt=value`` as (``--opt``, ``value``); a token without ``=`` has value None."""
    flag, eq, inline = token.partition("=")
    return flag, (inline if eq else None)


def _no_value(flag: str, inline: str | None) -> None:
    """Refuse a switch given ``=value``."""
    if inline is not None:
        raise ValueError(f"option {_quote(flag)} takes no value")


def _value(flag: str, inline: str | None, tokens: list[str]) -> str:
    """An option's value: after ``=`` in its own token, else the next token."""
    if inline is not None:
        return inline
    if not tokens or tokens[0].startswith("--"):
        raise ValueError(f"option {flag} needs a value")
    return tokens.pop(0)


def _asks_help(tokens: list[str], by_flag: dict) -> bool:
    """Whether a bare help switch stands where an option may, not as an option's value."""
    rest = iter(tokens)
    for token in rest:
        if token in HELP:
            return True
        flag, inline = _split(token)
        if flag in by_flag and by_flag[flag][1] is not None and inline is None:
            next(rest, None)  # its value, whatever it reads
    return False


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _convert(flag: str, convert, text: str):
    """`text` read by `convert` (a function or a tuple of choices), after its length check.

    The length is checked first, so no converter sees an oversized value and
    no refusal echoes one.
    """
    if len(text) > MAX_VALUE_CHARS:
        raise ValueError(
            f"option {flag}: values are at most {MAX_VALUE_CHARS} characters, got {len(text)}"
        )
    if isinstance(convert, tuple):
        if text not in convert:
            raise ValueError(
                f"option {flag}: invalid choice {_quote(text)} (choose from {', '.join(convert)})"
            )
        return text
    try:
        return convert(text)
    except ValueError as exc:
        raise ValueError(f"option {flag}: {exc}") from None


def parse_args(argv: list[str]) -> SimpleNamespace | str:
    """Read a command line against `COMMANDS`.

    Returns the arguments, with the handler as ``run``, or the text that
    ``--version`` or ``-h``/``--help`` prints.  Raises ValueError, with the
    message `main` prints, for anything the table does not accept.
    """
    tokens = list(argv)
    values: dict[str, object] = {"format": "pretty", "verbosity": 0}
    while tokens and tokens[0].startswith("-"):
        flag, inline = _split(tokens.pop(0))
        if flag == "--format":
            values["format"] = _convert(flag, FORMATS, _value(flag, inline, tokens))
        elif flag in (*HELP, "--version", "--verbose") or set(flag[1:]) == {"v"}:
            _no_value(flag, inline)
            if flag in HELP:
                return _help("")
            if flag == "--version":
                return f"mapchi {__version__}"
            values["verbosity"] += 1 if flag == "--verbose" else len(flag) - 1
        else:
            raise ValueError(
                f"unknown option {_quote(flag)}; before the command mapchi takes only "
                "-h, --version, -v and --format"
            )

    if not tokens:
        raise ValueError(f"no command given (choose from {_choices('')})")
    name = group = tokens.pop(0)
    prefix = f"{group} " if group in GROUPS else ""
    if prefix:
        if not tokens:
            raise ValueError(f"{group} needs a command (choose from {_choices(prefix)})")
        flag, inline = _split(tokens[0])
        if flag in HELP:
            _no_value(flag, inline)
            return _help(group)
        name = prefix + tokens.pop(0)
    if name not in COMMANDS:
        raise ValueError(f"unknown command {_quote(name)} (choose from {_choices(prefix)})")
    run, _, formats, options = COMMANDS[name]
    by_flag = {option[0]: option for option in options}
    if _asks_help(tokens, by_flag):
        return _help(name)

    for flag, _, default, _ in options:
        values[_dest(flag)] = default
    while tokens:
        token = tokens.pop(0)
        if not token.startswith("-"):
            raise ValueError(f"unexpected argument {_quote(token)}")
        flag, inline = _split(token)
        if flag in HELP:  # a bare one returned the help above
            _no_value(flag, inline)
        if flag not in by_flag:
            raise ValueError(
                f"{name} has no option {_quote(flag)} (it takes {', '.join(by_flag)})"
            )
        convert = by_flag[flag][1]
        if convert is None:
            _no_value(flag, inline)
            values[_dest(flag)] = True
        else:
            values[_dest(flag)] = _convert(flag, convert, _value(flag, inline, tokens))
    missing = [flag for flag in by_flag if values[_dest(flag)] is REQUIRED]
    if missing:
        raise ValueError(f"{name} requires {', '.join(missing)}")
    if values["format"] not in formats:
        raise ValueError(
            f"{name} does not print --format {values['format']} "
            f"(it prints {', '.join(formats)})"
        )
    return SimpleNamespace(run=run, **values)


def main(argv: list[str] | None = None) -> int:
    """Run one ``mapchi`` command line and return its exit code.

    This is a process entry point: it returns with the heap frozen
    (`gc.freeze`), so the exit-time collections skip every object then alive.
    Calling it in process still works; later collections just no longer free
    what was alive at its return.
    """
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if isinstance(args, str):
            print(args)
            code = EXIT_OK
        else:
            code = args.run(args)
        sys.stdout.flush()  # a closed pipe raises here, not in the exit-time flush
        return code
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)  # every refusal: one line, exit 2
        return EXIT_FAILURE
    except BrokenPipeError:
        # The reader closed stdout early.  Point stdout at the null device so
        # the interpreter's final flush cannot fail again, and exit quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAILURE
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(main())

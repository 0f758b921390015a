"""A seeded fuzz of the command line: every draw ends in a result or one refusal line.

Argument lists are drawn over `cli.COMMANDS` and run in process through
`cli.main`.  Values come valid and invalid: signs, a 5000-digit integer,
``1/0``, decimals, Arabic-Indic digits, empty lists, ``--flag=value``,
switches given a value and help switches given as values.  Every
``error:`` line is at most 400 characters, so none echoes the 5000 digits.

Valid draws are capped so that none is heavy: ``maps table --max-edges``
at most 5, ``verify-all --max-edges`` at most 2, ``--sides`` at most 8 in
total, ``jack`` shapes of weight at most 8, ``oracle rooted --edges`` at
most 4 and the ``euler`` g and s at most 60.  Past a cap, a draw is past the
option's own bound too, so it is refused while parsing.
"""

from __future__ import annotations

import random

from mapchi import EXIT_CONJECTURE, EXIT_FAILURE, EXIT_OK, cli

SEED = 26
DRAWS = 300

HUGE = "1" + "0" * 4999
ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
MALFORMED = ["1/0", "2.5", "-0.5", "", "x", "1e3", "٣.٥", "-h", "--help", HUGE, "-" + HUGE]

#: Per integer option: the largest value drawn that runs, and a value its
#: bound refuses.  Options not named here draw up to 60 and are refused at 601.
INT_BOUNDS = {
    ("maps table", "--max-edges"): (5, 11),
    ("verify-all", "--max-edges"): (2, 11),
    ("oracle rooted", "--edges"): (4, 7),
}

SHAPES = ["1", "2", "2,1", "3,1", "2,2", "1,1,1,1", "4,2,1", "5,3", "2,2,2,1,1", "8"]
SIDES = ["2", "4", "1,1", "3,1", "2,2", "6", "4,2", "3,3,2", "4,4", "2,2,2,2"]
RATIONALS = ["0", "1", "-1", "2", "1/2", "-3/4", " 2 ", "0.25", "+1", "٣"]
REFUSED_SHAPES = ["0", "-1,2", "15", "8,7", ",", "a", "1,,1"]
REFUSED_SIDES = ["3", "0", "-2,4", "14", "8,6", ",", "x"]
REFUSED_RATIONALS = ["1e30000000", "1e-5000", "1" * 101, "+-1", "1e5", "x"]
NOISE = ["-h", "--help", "--help=1", "-h=1", "--bogus", "extra", "", "--format"]


def spell(rng: random.Random, n: int) -> str:
    return rng.choice([str(n), f"+{n}", f" {n} ", str(n).translate(ARABIC_INDIC)])


def draw_value(rng: random.Random, name: str, flag: str, convert) -> str:
    if isinstance(convert, tuple):
        return rng.choice([*convert, *convert, "bogus", "-h", ""])
    if rng.random() < 0.2:
        return rng.choice(MALFORMED)
    valid = rng.random() < 0.8
    if flag == "--shape":
        return rng.choice(SHAPES if valid else REFUSED_SHAPES)
    if flag == "--sides":
        return rng.choice(SIDES if valid else REFUSED_SIDES)
    if flag == "--b":
        return rng.choice(RATIONALS if valid else REFUSED_RATIONALS)
    cap, refused = INT_BOUNDS.get((name, flag), (60, 601))
    return spell(rng, rng.randint(-2, cap) if valid else refused)


def draw_argv(rng: random.Random) -> list[str]:
    argv = []
    if rng.random() < 0.3:
        argv += ["--format", rng.choice([*cli.FORMATS, "xml"])]
    if rng.random() < 0.1:
        argv.append(rng.choice(["-v", "-vv", "--verbose", "--version"]))
    name = rng.choice(list(cli.COMMANDS))
    argv += name.split(" ")
    options = list(cli.COMMANDS[name][3])
    rng.shuffle(options)
    for flag, convert, _, _ in options:
        if rng.random() < 0.15:
            continue
        if convert is None:
            if rng.random() < 0.5:
                argv.append(rng.choice([flag, flag, f"{flag}=yes"]))
            continue
        value = draw_value(rng, name, flag, convert)
        argv += [f"{flag}={value}"] if rng.random() < 0.15 else [flag, value]
    if rng.random() < 0.15:
        argv.insert(rng.randint(0, len(argv)), rng.choice(NOISE))
    if rng.random() < 0.03:
        argv = argv[: rng.randint(0, 2)]
    return argv


def test_seeded_argument_fuzz(capsys):
    rng = random.Random(SEED)
    codes = []
    for _ in range(DRAWS):
        argv = draw_argv(rng)
        try:
            code = cli.main(argv)
        except Exception as exc:
            raise AssertionError(f"{argv} raised {exc!r}") from exc
        out, err = capsys.readouterr()
        errors = [line for line in err.splitlines() if line.startswith("error: ")]
        assert all(len(line) <= 400 for line in errors), (argv, [len(e) for e in errors])
        assert code in (EXIT_OK, EXIT_FAILURE, EXIT_CONJECTURE), argv
        if code == EXIT_FAILURE and "verify-all" not in argv:
            assert out == "", argv
            assert len(err.splitlines()) == 1 and err.startswith("error: "), (argv, err)
        codes.append(code)
    # The draws reach both sides: some commands run, most are refused.
    assert codes.count(EXIT_OK) > 30 and codes.count(EXIT_FAILURE) > 30

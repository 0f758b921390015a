"""Exact Euler characteristics of moduli of real and complex curves.

Everything is computed in exact rational arithmetic.  The core pipeline
counts rooted maps on surfaces, graded by a parameter b, with the b-deformed
Tutte recursion (checked against a Jack-polynomial generating series), and
assembles from them the parametrized Euler characteristics xi^s_g(gamma)
together with their classical specializations.  Independent closed-form and
brute-force enumeration routes cross-check every number the package
produces.

The exit codes, the table's edge bound, the Jack weight bound, the two
errors that several layers raise, the one guard that refuses a request
past a layer's edge reach (`check_truncation`), the one guard that refuses
indices outside g, s >= 1 (`check_indices`) and the one guard that
compares two routes (`check_agreement`) live here, so any layer can use
them without loading another.  Every other public name lives only in its
layer module (``mapchi.btutte.map_count_table``, ``mapchi.partitions.MapKey``,
...), so ``import mapchi`` loads no submodule and each command of the
``mapchi`` script pays only for the layers it runs.
"""

from __future__ import annotations

__version__ = "0.1.0"

#: Exit codes of every ``mapchi`` command: success, a refused request or a
#: failed check, and a violated conjecture (see `mapchi.verify`).
EXIT_OK = 0
EXIT_FAILURE = 2
EXIT_CONJECTURE = 3

#: Largest truncation of `btutte.map_count_table`: the 10-edge table (6454
#: rows) took 0.28-0.53 s in process, median 0.41 s, over 20 fresh processes
#: (2 vCPUs, Python 3.11.7), and each further edge takes two to three times
#: as much.
MAX_EDGE_TRUNCATION = 10

#: Largest Jack weight, the top weight that `verify-all`'s `jack-conditions`
#: and `cauchy-kernel` reach, so that `jack` solves no shape those checks do
#: not cover.  At weight 10 the two checks take 0.5-0.7 s and 0.8-1.2 s in
#: process, and one `jack` of weight 10 takes 0.08-0.13 s in a fresh process,
#: against 0.16-0.29 s at weight 14 (2 vCPUs, Python 3.11.7).  The Jack
#: series of `mapseries` solves every shape of weight 2n, so it reaches half
#: as many edges.
MAX_JACK_WEIGHT = 10


class RouteMismatchError(RuntimeError):
    """Two provably equal computation routes disagreed: an implementation bug."""


class TruncationError(ValueError):
    """A request needs more edges than a table, series or census reaches."""


def check_truncation(n: int, reach: int, what: str) -> None:
    """Refuse a request for n edges from `what`, which reaches `reach` edges.

    Every layer that serves map counts refuses through this one guard, so
    every refusal reads the same: n < 1 raises ValueError, n > reach raises
    `TruncationError`.
    """
    if n < 1:
        raise ValueError(f"{what} needs at least 1 edge, got {n}")
    if n > reach:
        raise TruncationError(f"{what} needs {n} edges; it reaches {reach}")


def check_indices(g: int, s: int, what: str) -> None:
    """Refuse `what` at genus g with s marked points outside g, s >= 1.

    xi^s_g and the Lambda and chi values read from it are defined on that
    domain only (s labelled polygons, one per marked point), and every
    function that serves them refuses through this one guard with ValueError.
    """
    if g < 1 or s < 1:
        raise ValueError(f"{what} needs g >= 1 and s >= 1")


def check_agreement(what: str, first: str, got, second: str, want) -> int:
    """Require route `first`'s `got` to equal route `second`'s `want`.

    Every comparison of two routes goes through this one guard.  Two dicts
    are compared key by key over the union of their keys, in sorted order,
    a key that one side lacks reading as 0; any other values are compared
    whole.  A difference raises `RouteMismatchError` naming `what`, the
    first differing key and both values.  Returns the number of keys
    compared, or 1 for whole values.
    """
    if not (isinstance(got, dict) and isinstance(want, dict)):
        got, want = {None: got}, {None: want}
    keys = sorted(got.keys() | want.keys())
    for key in keys:
        mine, theirs = got.get(key, 0), want.get(key, 0)
        if mine != theirs:
            where = "" if key is None else f" at {key}"
            raise RouteMismatchError(f"{what}{where}: {first} {mine!r}, {second} {theirs!r}")
    return len(keys)


__all__ = [
    "RouteMismatchError",
    "TruncationError",
    "check_agreement",
    "check_indices",
    "check_truncation",
    "__version__",
]

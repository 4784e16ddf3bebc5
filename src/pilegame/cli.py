"""Command-line surface: solvers, simulator, steps, verification, convergence.

Report contract: stdout carries only the report (CSV with a header row, or
one JSON object with ``rows`` and ``meta``), stderr carries diagnostics.
Rationals are emitted as numerator/denominator integer column pairs so
downstream tools can reproduce the exact checks; float columns are printed
with 17 significant digits and are convenience only. Exit codes: 0 success,
1 verification failure, 2 usage error, 141 stdout closed before the whole
report was written (a shell's code for a process that SIGPIPE ends).

The parser uses only the standard library: each command is a function with
a table of its options, which ``_parse`` and ``_values`` read and
``_help.screen`` lays out. Arguments, ``Error:`` lines and help screens are
those of the click 8 interface it replaced.

Importing this module loads only the parser: the option tables take their
limits from ``_limits``, help loads ``_help``, and each command imports the
modules it runs when it runs, so ``--version``, ``--help`` and a usage error
load no computing module.
"""

import os
import sys
from importlib import import_module
from itertools import islice

from . import _EXPORTS, __version__
from ._limits import MASK64, MAX_PILE, MEMOIZED_MAX_N, METHODS, _whole_ints


class _UsageError(Exception):
    """Arguments the CLI rejects: exit 2, with the usage and an ``Error:`` line on stderr."""


def _lazy(name: str):
    """A forwarder to ``pilegame.<name>``, whose ``ValueError`` is raised as
    the CLI's usage error (exit 2).

    Its first call imports the name's module and keeps the function in the
    closure, so a command that calls none of a module's names never loads
    it, and later calls look up no module. The commands look these names up
    in this module's globals, which no forwarder rebinds: replacing
    ``pilegame.cli.<name>`` observes or replaces every call. The CLI checks
    option types and the ranges ``--help`` shows; the library owns every
    other rule, checked before a command writes to stdout.
    Trade-off: a ``ValueError`` that only a fault in the library raises also
    exits 2, as one from a table constructor in ``run_checks`` (``verify``'s
    tests guard that) or from an exact route given a value the parser has
    already checked.
    """
    target = None

    def forward(*args, **kwargs):
        nonlocal target
        if target is None:
            target = getattr(import_module(f"{__package__}.{_EXPORTS[name]}"), name)
        try:
            return target(*args, **kwargs)
        except ValueError as exc:
            raise _UsageError(str(exc)) from exc

    return forward


solve = _lazy("solve")
solve_recursive = _lazy("solve_recursive")
closed_form = _lazy("closed_form")
derangements = _lazy("derangements")
gap_to_limit = _lazy("gap_to_limit")
expected_steps = _lazy("expected_steps")
run_trials = _lazy("run_trials")
run_checks = _lazy("run_checks")


#: A CSV cell holding any of these must be quoted to read back as one cell.
_NEEDS_QUOTES = frozenset(',"\r\n')


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):  # bool before int: bool is an int subclass
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, str) and not _NEEDS_QUOTES.isdisjoint(value):
        raise ValueError(f"CSV cell {value!r} would need quoting")
    return str(value)


def _emit(rows: list[dict], fmt: str, method: str, seed: int | None = None) -> None:
    """Write non-empty ``rows`` to stdout.

    CSV: a header of the first row's keys, then one line per row, each
    written as soon as it is formatted. Every row has the first row's keys
    in the same order, and no cell needs quoting (``_csv_cell`` raises for
    one that would), so a line is its cells joined by commas. That is what
    ``csv.writer(lineterminator="\\n")`` writes for rows of two or more
    cells, as every report's are; it writes a lone empty cell as ``""``.
    In the CSV reports of ``solve`` and ``steps`` the big integer cells
    (``d_prob_num``, ``d_prob_den`` and ``d_n``; ``ez_num``, ``ez_den``,
    ``eq_num`` and ``eq_den``) hold ``Decimal`` twins of the ints wherever
    ``_cells`` checked them; twins enter a row only through ``_cells``. A
    twin's ``str`` is the int's, in linear time. JSON reports hold the ints.
    """
    write = sys.stdout.write
    if fmt == "csv":
        write(",".join(map(_csv_cell, rows[0])) + "\n")
        for row in rows:
            write(",".join(map(_csv_cell, row.values())) + "\n")
    else:
        import json

        meta = {"seed": seed, "method": method, "version": __version__}
        write(json.dumps({"rows": rows, "meta": meta}, indent=2) + "\n")


def _cells(value, scaled=None, fact=None) -> tuple:
    """The numerator and denominator cells of a report's exact ``value``
    (a ``Fraction`` or an int; two empty cells for ``None``).

    The route's ints num/den stay the source of truth. ``scaled`` and
    ``fact`` are (int, ``Decimal`` twin) pairs: if den*g = fact and num*g =
    scaled for an int g, the cells are the twins over g, num and den
    exactly. That test on ints decides, and it is linear, as g is small: up
    to n = 3000 it has at most 54 bits on ``solve``'s rows and 76 on
    ``steps``'. Without twins, or where the test fails, the cells are the
    route's ints, which print through ``str``.
    """
    if value is None:
        return None, None
    num, den = value.numerator, value.denominator
    if scaled:
        g, rest = divmod(fact[0], den)
        if not rest and num * g == scaled[0]:
            return scaled[1] // g, fact[1] // g
    return num, den


def solve_cmd(n_max: int, method: str, format: str) -> None:
    """Deterministic player's win probability for every n up to --n-max."""
    from decimal import localcontext

    from .exact import _EXACT, _derangement_counts, _factorials_to, _twins

    table = solve(n_max, method.replace("-", "_"))
    counts = derangements(n_max)
    rows = []
    with localcontext(_EXACT):  # D_n = d_n/n!, and d_n = d_n/1
        for n, fact, d_n in zip(range(n_max + 1), _twins(_factorials_to, n_max, format),
                                _twins(_derangement_counts, n_max, format)):
            report = gap_to_limit(n, table)
            num, den = _cells(report.d_exact, d_n, fact)
            rows.append({
                "n": n,
                "d_prob_num": num,
                "d_prob_den": den,
                "d_prob_float": report.d_n_float,
                "gap_to_e_inv": report.gap,
                "d_n": _cells(counts[n], d_n, (1, 1))[0],
                "method": table.method,
            })
    _emit(rows, format, table.method)


#: ``simulate`` decides ``within_ci`` from D_min(n, 21), so a huge pile
#: costs no n-step ``closed_form(n)``. For n >= 21, |D_n - 1/e| <= 1/22!
#: (about 8.9e-22), but no double lies that close to 1/e: the nearest,
#: ``E_INVERSE``, is 1.24e-17 away and its neighbours 4.3e-17 and 6.8e-17.
#: So D_n and D_21 lie on the same side of every double a CI can end at.
_SETTLED_PILE = 21

#: ``simulate`` prints D_n's numerator and denominator up to this pile (about
#: 0.1 s of ``closed_form``); above it the cells are empty.
_EXACT_CELLS_MAX_N = 10_000


def simulate(n: int, trials: int, seed: int, workers: int, ci_level: float, format: str) -> None:
    """Monte Carlo estimate of the deterministic player's win probability."""
    from fractions import Fraction

    result = run_trials(n, trials, seed=seed, workers=workers, ci_level=ci_level)
    d_settled = 1 - closed_form(min(n, _SETTLED_PILE))
    num, den = _cells(1 - closed_form(n) if n <= _EXACT_CELLS_MAX_N else None)
    rows = [{
        **vars(result),
        "d_exact_num": num,
        "d_exact_den": den,
        "within_ci": Fraction(result.ci_low) <= d_settled <= Fraction(result.ci_high),
    }]
    _emit(rows, format, "simulate", seed)


def steps(n_max: int, format: str) -> None:
    """Expected number of random-player moves E(Z_n) and differences E(Q_n)."""
    from decimal import localcontext

    from .exact import _EXACT, _factorials_to, _twins
    from .steps import _scaled_steps

    table = expected_steps(n_max)
    rows, last = [], (0, 0)  # t_0 = 0, so q_1 is t_1; no row prints it
    with localcontext(_EXACT):  # E(Z_n) = t_n/n! and E(Q_n) = (t_n - n*t_{n-1})/n!
        for n, fact, t_n in zip(range(1, n_max + 1),
                                islice(_twins(_factorials_to, n_max, format), 1, None),  # from 1!
                                _twins(_scaled_steps, n_max, format)):
            ez = table.ez_at(n)
            q_n = t_n and tuple(t - n * t_last for t, t_last in zip(t_n, last))
            ez_num, ez_den = _cells(ez, t_n, fact)
            eq_num, eq_den = _cells(table.eq_at(n) if n >= 2 else None, q_n, fact)
            rows.append({
                "n": n,
                "ez_num": ez_num,
                "ez_den": ez_den,
                "eq_num": eq_num,
                "eq_den": eq_den,
                "ez_float": float(ez),
            })
            last = t_n
    _emit(rows, format, "steps")


def verify(n_max: int, oracle_max: int) -> int:
    """Run every named cross-check; exit 0 only if all of them pass."""
    results = run_checks(n_max=n_max, oracle_max=oracle_max)
    for result in results:
        sys.stdout.write(f"{result}\n")
    failures = sum(1 for result in results if not result.passed)
    sys.stdout.write(f"{len(results) - failures}/{len(results)} checks passed\n")
    return 1 if failures else 0


def convergence(n_max: int, format: str) -> None:
    """Distance between D_n and 1/e with the factorial decay bound.

    gap_to_e_inv is a double-precision distance, so it may exceed bound by
    up to 2^-48, the float slack of verify's limit-gap check.
    """
    table = solve_recursive(n_max)
    rows = []
    for n in range(n_max + 1):
        report = gap_to_limit(n, table)
        rows.append({
            "n": n,
            "d_prob_float": report.d_n_float,
            "gap_to_e_inv": report.gap,
            "bound": float(report.bound),
        })
    _emit(rows, format, "convergence")


def _ints(low: int, high: int | None = None):
    """The kind of an integer option from ``low`` to ``high`` (None: no bound)."""
    span = f"x>={low}" if high is None else f"{low}<=x<={high}"

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise ValueError(f"{text!r} is not a valid integer range.") from None
        if value < low or high is not None and value > high:
            raise ValueError(f"{value} is not in the range {span}.")
        return value

    return "INTEGER RANGE", span, parse


def _choice(*choices: str):
    """The kind of an option that takes one of ``choices``."""

    def parse(text: str) -> str:
        if text not in choices:
            raise ValueError(f"{text!r} is not one of {', '.join(map(repr, choices))}.")
        return text

    return f"[{'|'.join(choices)}]", None, parse


def _float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"{text!r} is not a valid float.") from None


#: Options: flag -> (kind, default, help). A kind is (metavar, the range
#: help shows or None, parser), None for a flag that takes no value; a
#: default of None makes the option required. A command gets each value as
#: the keyword its flag names (``--n-max`` as ``n_max``).
_HELP = {"--help": (None, False, "Show this message and exit.")}
_GROUP = {"--version": (None, False, "Show the version and exit.")}
_FORMAT = {"--format": (_choice("csv", "json"), "csv", "Report format written to stdout.")}
_N_MAX = "Largest pile size to report."

#: Command name -> (function, options), in the order help lists them.
_COMMANDS = {
    "convergence": (convergence, {"--n-max": (_ints(0), None, _N_MAX), **_FORMAT}),
    "simulate": (simulate, {
        "--n": (_ints(1, MAX_PILE), None, "Initial pile size (1 to 2**64)."),
        "--trials": (_ints(1), 100_000, "Number of independent games."),
        "--seed": (_ints(0, MASK64), 0, "Unsigned 64-bit master seed."),
        "--workers": (_ints(1), 1, "Number of contiguous trial blocks, one generator stream"
                                   " each; at most --trials blocks are made."),
        "--ci-level": (("FLOAT", None, _float), 0.99,
                       "Wilson interval level (0.90, 0.95, 0.99 or 0.999)."),
        **_FORMAT,
    }),
    "solve": (solve_cmd, {
        "--n-max": (_ints(0), None, _N_MAX),
        "--method": (_choice(*sorted(m.replace("_", "-") for m in METHODS)), "recursive",
                     "Which solver path produces the probabilities."),
        **_FORMAT,
    }),
    "steps": (steps, {"--n-max": (_ints(1), None, _N_MAX), **_FORMAT}),
    "verify": (verify, {
        "--n-max": (_ints(2), 200, "Upper pile size for the analytic cross-checks."),
        "--oracle-max": (_ints(0, MEMOIZED_MAX_N), 12,
                         f"Upper pile size for game-tree comparisons (<= {MEMOIZED_MAX_N})."),
    }),
}

_ABOUT = """Exact solvers, a seedable simulator, and cross-verification for the
random-vs-deterministic pile game."""


def _parse(args: list[str], options: dict, interspersed: bool) -> tuple[dict, list[str]]:
    """``args`` split into {flag: value text, or None for a flag}, in the
    order first given, and the other arguments. Without ``interspersed``,
    the first other argument ends the options."""
    args, given, rest = list(args), {}, []
    while args:
        arg = args.pop(0)
        if arg == "--":
            return given, rest + args
        if arg[:1] != "-" or arg == "-":
            rest.append(arg)
            if not interspersed:
                return given, rest + args
            continue
        flag, eq, value = arg.partition("=")
        if flag not in options:
            raise _no_such_option(flag, options)
        if options[flag][0] is None:
            if eq:
                raise _UsageError(f"Option {flag!r} does not take a value.")
            value = None
        elif not eq:
            if not args:
                raise _UsageError(f"Option {flag!r} requires an argument.")
            value = args.pop(0)
        given[flag] = value
    return given, rest


def _no_such_option(flag: str, options: dict) -> _UsageError:
    if flag[1] != "-":  # a short option: named by its first letter
        return _UsageError(f"No such option {flag[:2]!r}.")
    from difflib import get_close_matches

    near = sorted(get_close_matches(flag, options))
    hint = f"Did you mean {near[0]!r}?" if len(near) == 1 else (
        f"(Did you mean one of: {', '.join(map(repr, near))}?)" if near else "")
    return _UsageError(f"No such option {flag!r}. {hint}".rstrip())


def _values(given: dict, options: dict) -> dict:
    """The keyword arguments of a command: each given option parsed, in the
    order given, then the default of each option not given."""
    values = {}
    for flag, text in given.items():
        try:
            values[flag] = options[flag][0][2](text)
        except ValueError as exc:
            raise _UsageError(f"Invalid value for {flag!r}: {exc}") from None
    for flag, (kind, default, _) in options.items():
        if kind and flag not in values:  # not --help
            if default is None:
                raise _UsageError(f"Missing option {flag!r}.")
            values[flag] = default
    return {flag[2:].replace("-", "_"): value for flag, value in values.items()}


def _program_name() -> str:
    """``python -m <package>`` when run as a module, else the script's name."""
    package = getattr(sys.modules["__main__"], "__package__", None)
    return f"python -m {package}" if package else os.path.basename(sys.argv[0])


def main(args=None, prog_name: str | None = None, terminal_width: int | None = None) -> None:
    """Run the command that ``args`` (by default ``sys.argv[1:]``) name, then
    exit with its code.

    ``prog_name`` names the program in help and errors. Help is
    ``terminal_width`` columns wide if given. ``main.main`` is ``main`` and
    ``main.name`` is ``"main"``, so ``click.testing.CliRunner().invoke(main,
    args)`` runs it as it ran the click group this replaced.
    """
    args = list(sys.argv[1:] if args is None else args)
    path = prog_name or _program_name()
    usage, doc, commands = f"{path} [OPTIONS] COMMAND [ARGS]...", _ABOUT, _COMMANDS
    options, code = {**_GROUP, **_HELP}, 0
    try:
        with _whole_ints():  # lifted through option parsing and the report; restored after
            given, rest = _parse(args, options, interspersed=False)
            if args and not given:  # no --help or --version: a command
                if not rest or rest[0] not in _COMMANDS:
                    raise _UsageError(f"No such command {rest[0]!r}." if rest
                                      else "Missing command.")
                command, options = _COMMANDS[rest[0]]
                options = {**options, **_HELP}
                path, doc, commands = f"{path} {rest[0]}", command.__doc__, None
                usage = f"{path} [OPTIONS]"
                given, rest = _parse(rest[1:], options, interspersed=True)
            if "--version" == next(iter(given), None):
                sys.stdout.write(f"{path}, version {__version__}\n")
            elif "--help" in given or not args:  # no arguments: help, as a usage error
                from ._help import screen

                (sys.stdout if args else sys.stderr).write(
                    screen(usage, doc, options, terminal_width, commands))
                code = 0 if args else 2
            else:
                values = _values(given, options)
                if rest:
                    raise _UsageError(f"Got unexpected extra argument{'s' * (len(rest) > 1)}"
                                      f" ({' '.join(rest)})")
                code = command(**values) or 0
        sys.stdout.flush()
    except _UsageError as exc:
        sys.stderr.write(f"Usage: {usage}\nTry '{path} --help' for help.\n\nError: {exc}\n")
        code = 2
    except BrokenPipeError:  # stdout closed early, as by `| head -1`
        if sys.stdout is sys.__stdout__:  # nothing is left to flush there at exit
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    except KeyboardInterrupt:
        sys.stderr.write("\nAborted!\n")
        code = 1
    sys.exit(code)


main.main, main.name = main, "main"

"""Random-vs-deterministic pile game: exact solvers, simulation, verification.

One player removes a uniformly random number of counters each turn, the
other always removes one; whoever empties the pile wins. This package
computes the deterministic player's win probability exactly along four
independent routes, ties it to derangement counts and to the 1/e limit,
computes the expected number of random-player moves, simulates games with
a reproducible generator, and cross-verifies all of it.

``import pilegame`` loads no submodule. Each public name is imported from
the module that defines it when it is first read (PEP 562), so a program
that uses only the exact solvers never loads the simulator or the checks.
"""

from importlib import import_module

__version__ = "0.1.0"

#: Submodule -> the public names it defines.
_MODULES = {
    "_limits": ("METHODS", "MEMOIZED_MAX_N"),
    "exact": (
        "E_INVERSE", "FLOAT_SLACK", "LimitGap", "WinTable", "closed_form", "closed_form_table",
        "derangements", "gap_to_limit", "gf_table", "solve", "solve_recursive",
        "solve_telescoping",
    ),
    "oracle": ("UNMEMOIZED_MAX_N", "oracle_expected_steps", "oracle_win_prob"),
    "rng": ("Xoshiro256StarStar", "expand_seed", "splitmix64"),
    "simulate": (
        "Z_BY_LEVEL", "GameOutcome", "SimResult", "TrialSums", "play_game", "run_trial_sums",
        "run_trials", "wilson_interval",
    ),
    "steps": ("StepsTable", "expected_steps", "q_sequence"),
    "verify": ("CheckResult", "run_checks"),
}

_EXPORTS = {name: module for module, names in _MODULES.items() for name in names}

__all__ = [*sorted(_EXPORTS), "__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

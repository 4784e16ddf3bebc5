"""Run the tier-1 suite on every installed CPython, or a stdlib smoke where pytest cannot load.

Usage: ``python tests/matrix.py [PYTHON ...]``

With no arguments it takes every interpreter under ``$PYENV_ROOT/versions``
(``~/.pyenv/versions`` by default). The test tools come from the
site-packages of the interpreter that runs this script, put on
``PYTHONPATH`` after ``src``: pytest and hypothesis are pure Python, so they
load on other 3.x versions, and nothing is installed. For each interpreter:

* below the package's ``requires-python`` (3.10): skipped;
* able to import pytest and hypothesis that way: tier-1 with the
  arguments of the workflow's tier-1 step (``-X dev``, ``ResourceWarning``
  and ``DeprecationWarning`` as errors, ``--durations=10``), which
  ``test_package.py`` holds equal;
* otherwise: a stdlib smoke with only ``src`` and ``tests`` on the path,
  namely ``run_checks(200, 12)``, ``_whole_ints`` printing an integer past
  the int-to-str digit limit, one ``_run_block`` against a ``play_game``
  replay of the same stream on the tests' scalar reference generator
  (``reference.py`` imports only the standard library and the package),
  ``dataclasses.replace`` on a ``WinTable`` and a ``StepsTable`` and
  ``asdict`` on a ``SimResult`` (frozen records that keep the dataclass
  protocol), then the CLI (it needs no other package): ``python -m pilegame
  solve --n-max 30`` run by ``runpy``, which must load neither
  ``dataclasses`` nor ``inspect``, then ``python -m pilegame --version``,
  ``solve --n-max 30`` and ``steps --n-max 30`` (whose CSV cells print from
  ``Decimal`` twins), ``verify --n-max 50 --oracle-max 6`` and a
  ``simulate`` of a 2**64 pile.

It prints one line per interpreter and exits 1 if any run failed. Pytest
does not collect this file.
"""

from __future__ import annotations

import os
import subprocess
import sys
import sysconfig
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REQUIRES = (3, 10)
TIER1 = [
    "-X", "dev", "-W", "error::ResourceWarning", "-W", "error::DeprecationWarning",
    "-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=10",
]
VERSION = "import sys; print('%d.%d.%d' % sys.version_info[:3])"
SMOKE = """
import dataclasses
import sys
from pilegame._limits import _whole_ints
from pilegame.exact import solve_recursive
from pilegame.rng import expand_seed
from pilegame.simulate import _run_block, play_game, run_trials
from pilegame.steps import expected_steps
from pilegame.verify import run_checks
from reference import ScalarXoshiro

results = run_checks(200, 12)
assert all(r.passed for r in results), [str(r) for r in results if not r.passed]
limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
with _whole_ints():
    assert len(str(10 ** 5000)) == 5001
assert not limit or sys.get_int_max_str_digits() == limit
state = expand_seed(7)
rng = ScalarXoshiro._from_state(state)
games = [play_game(10, rng) for _ in range(2000)]
replay = (
    sum(g.winner == "D" for g in games),
    sum(g.r_steps for g in games),
    sum(g.r_steps * g.r_steps for g in games),
)
assert _run_block(10, 2000, state) == replay, (_run_block(10, 2000, state), replay)
table, steps = solve_recursive(5), expected_steps(5)
assert dataclasses.replace(table, method="gf").r == table.r
ez = (*steps.ez[:-1], steps.ez[-1] + 1)
assert dataclasses.replace(steps, ez=ez).ez == ez != steps.ez
assert dataclasses.asdict(run_trials(10, 100, seed=1))["trials"] == 100
print(f"{len(results)}/{len(results)} checks passed, _whole_ints, _run_block and"
      " the dataclass protocol ok")
"""
CLI_LOADS = """
import runpy, sys
started = set(sys.modules)
sys.argv[1:] = ["solve", "--n-max", "30"]
try:
    runpy.run_module("pilegame", run_name="__main__", alter_sys=True)
except SystemExit as exit:
    assert not exit.code, exit.code
loaded = {"dataclasses", "inspect"} & (set(sys.modules) - started)
assert not loaded, f"solve --n-max 30 loaded {loaded}"
print("solve --n-max 30 loads neither dataclasses nor inspect", file=sys.stderr)
"""
CLI_SMOKE = [
    ["--version"],
    ["solve", "--n-max", "30"],
    ["steps", "--n-max", "30"],
    ["verify", "--n-max", "50", "--oracle-max", "6"],
    ["simulate", "--n", "18446744073709551616", "--trials", "1000", "--seed", "1"],
]


def interpreters() -> list[str]:
    if sys.argv[1:]:
        return sys.argv[1:]
    versions = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv")) / "versions"
    found = {path.parent.parent.name: str(path) for path in versions.glob("*/bin/python")}
    return [found[name] for name in sorted(found, key=_numeric)]


def _numeric(name: str) -> list[int]:
    """``"3.10.13"`` -> [3, 10, 13], for sorting version directories."""
    return [int(part) for part in name.split(".") if part.isdigit()]


def run(python: str, args: list[str], pythonpath: str) -> tuple[int, str]:
    """(exit code, last non-empty output line) of one run from the repository root."""
    env = {**os.environ, "PYTHONPATH": pythonpath}
    proc = subprocess.run(
        [python, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=1800
    )
    lines = [line for line in (proc.stdout + proc.stderr).splitlines() if line.strip()]
    return proc.returncode, lines[-1] if lines else ""


def main() -> int:
    src = str(ROOT / "src")
    tools = os.pathsep.join([src, sysconfig.get_paths()["purelib"]])
    smoke = os.pathsep.join([src, str(ROOT / "tests")])
    failed = False
    for python in interpreters():
        code, version = run(python, ["-c", VERSION], src)
        if code:
            line, failed = f"cannot start: {version}", True
        elif tuple(map(int, version.split(".")[:2])) < REQUIRES:
            line = "skipped: below requires-python >=%d.%d" % REQUIRES
        elif run(python, ["-c", "import pytest, hypothesis"], tools)[0] == 0:
            code, last = run(python, TIER1, tools)
            line, failed = f"tier-1: {last}", failed or code != 0
        else:
            runs = [run(python, args, smoke)
                    for args in (["-c", SMOKE], ["-c", CLI_LOADS],
                                 *(["-m", "pilegame", *cli] for cli in CLI_SMOKE))]
            line = "smoke (no pytest): " + "; ".join(last for _, last in runs)
            failed = failed or any(code for code, _ in runs)
        print(f"{version or python:<9} {line}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

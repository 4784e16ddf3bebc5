"""Tests of the package's public surface, each in a fresh interpreter."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def _fresh(code: str) -> str:
    """Run ``code`` in a new interpreter; its stdout, stripped."""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return out.stdout.strip()


#: Standard modules that only computing needs: ``fractions`` for exact
#: values, and ``decimal``, which ``fractions`` imports on every supported
#: Python.
COMPUTING_STDLIB = ["decimal", "fractions"]

#: Standard modules that no invocation loads: the result types are frozen
#: records (``pilegame._record``) that import ``dataclasses``, and with it
#: ``inspect``, only when a caller uses the dataclass API on them.
NEVER_LOADED = ["dataclasses", "inspect"]

#: The standard modules these tests watch.
WATCHED_STDLIB = COMPUTING_STDLIB + NEVER_LOADED


def _loaded(code: str) -> list[str]:
    """The pilegame modules and those of ``WATCHED_STDLIB`` that running
    ``code`` in a new interpreter loads. What the interpreter's start-up had
    loaded (a site hook may load ``inspect``) is not ``code``'s doing."""
    listing = ("; print(*sorted(m for m in set(sys.modules) - started"
               f" if m.startswith('pilegame') or m in {WATCHED_STDLIB!r}))")
    return _fresh("import sys; started = set(sys.modules); " + code + listing).split()


def test_import_pilegame_loads_no_submodule():
    assert _loaded("import pilegame") == ["pilegame"]


#: What ``import pilegame.cli`` loads, and so every invocation: the parser.
CLI_MODULES = ["pilegame", "pilegame._limits", "pilegame.cli"]


def test_import_cli_loads_only_what_every_command_needs():
    assert _loaded("import pilegame.cli") == CLI_MODULES


def test_no_module_loads_typing():
    """Annotations take their names from ``collections.abc``, so no module
    pays for importing ``typing``. ``-S`` keeps site hooks from loading it."""
    code = (f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import pilegame.cli, "
            "pilegame.exact, pilegame.steps, pilegame.rng, pilegame.simulate, pilegame.verify, "
            "pilegame.oracle; print('typing' in sys.modules)")
    run = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         check=True)
    assert run.stdout == "False\n"


#: What each invocation of ``python -m pilegame`` loads besides
#: ``CLI_MODULES``, of the package and of ``WATCHED_STDLIB``: help, a
#: usage error and the version load no computing module, and a command
#: loads the modules it runs, and none of ``NEVER_LOADED``. A change to what
#: an invocation imports shows.
LOADS = {
    "--version": [],
    "--help": ["pilegame._help"],
    "solve --n-mx 3": [],  # a usage error
    "solve --n-max 3": [*COMPUTING_STDLIB, "pilegame._record", "pilegame.exact"],
    "steps --n-max 3": [*COMPUTING_STDLIB, "pilegame._record", "pilegame.exact", "pilegame.steps"],
    "convergence --n-max 3": [*COMPUTING_STDLIB, "pilegame._record", "pilegame.exact"],
    "verify --n-max 3 --oracle-max 3": [
        *COMPUTING_STDLIB, "pilegame._record", "pilegame.exact", "pilegame.oracle",
        "pilegame.steps", "pilegame.verify",
    ],
    "simulate --n 3 --trials 10": [
        *COMPUTING_STDLIB, "pilegame._record", "pilegame.exact", "pilegame.rng",
        "pilegame.simulate",
    ],
}

#: ``python -m pilegame`` as ``-m`` runs it, then the name of every module
#: loaded after the interpreter's start-up on the last line of stderr.
_RUN_MAIN = """
import sys
started = set(sys.modules)
import atexit, runpy
atexit.register(lambda: print(*sorted(set(sys.modules) - started), file=sys.stderr))
runpy.run_module("pilegame", run_name="__main__", alter_sys=True)
"""


def _invoke(args: str) -> tuple[int, str, list[str]]:
    """(exit code, stdout, every module loaded after start-up) of ``python -m
    pilegame`` on ``args``."""
    run = subprocess.run([sys.executable, "-c", _RUN_MAIN, *args.split()],
                         capture_output=True, text=True)
    return run.returncode, run.stdout, run.stderr.splitlines()[-1].split()


@pytest.mark.parametrize("args", LOADS)
def test_each_invocation_loads_only_what_it_runs(args):
    code, _, modules = _invoke(args)
    assert code == (2 if "--n-mx" in args else 0)
    loaded = [m for m in modules if m.startswith("pilegame") or m in WATCHED_STDLIB]
    assert loaded == sorted(CLI_MODULES + LOADS[args])


#: What two invocations print; neither loads click, whose interface the
#: parser reproduces.
START_UP_STDOUT = {
    "--version": "python -m pilegame, version 0.1.0\n",
    "solve --n-max 3": (
        "n,d_prob_num,d_prob_den,d_prob_float,gap_to_e_inv,d_n,method\n"
        "0,1,1,1,0.63212055882855767,1,recursive\n"
        "1,0,1,0,0.36787944117144233,0,recursive\n"
        "2,1,2,0.5,0.13212055882855767,1,recursive\n"
        "3,1,3,0.33333333333333331,0.034546107838109019,2,recursive\n"
    ),
}


def test_cli_start_up_loads_no_click():
    assert _fresh("import sys, pilegame.cli; print(*(m for m in sys.modules if 'click' in m))") == ""
    for args, stdout in START_UP_STDOUT.items():
        code, out, modules = _invoke(args)
        assert (code, out) == (0, stdout), args
        assert "pilegame.cli" in modules
        assert [name for name in modules if "click" in name] == []


def test_every_public_name_is_its_submodules_object():
    code = """
import importlib, pilegame
for name in pilegame.__all__:
    if name == "__version__":
        continue
    module = importlib.import_module("pilegame." + pilegame._EXPORTS[name])
    assert getattr(pilegame, name) is getattr(module, name), name
assert set(pilegame.__all__) <= set(dir(pilegame))
print(len(pilegame.__all__))
"""
    assert _fresh(code) == "34"  # 33 names and ``__version__``


def test_star_import_binds_every_public_name():
    code = """
import pilegame
namespace = {}
exec("from pilegame import *", namespace)
missing = [name for name in pilegame.__all__ if name not in namespace]
assert not missing, missing
print(namespace["solve_recursive"](3).d(3), namespace["__version__"])
"""
    assert _fresh(code) == "1/3 0.1.0"


def test_unknown_name_raises_attribute_error():
    code = """
import pilegame
try:
    pilegame.no_such_name
except AttributeError as exc:
    print(exc)
"""
    assert _fresh(code) == "module 'pilegame' has no attribute 'no_such_name'"


def test_readme_library_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1, f"README has {len(blocks)} python blocks, expected 1"
    assert len(_fresh(blocks[0]).split()) == 3  # p_hat, ci_low, ci_high


def test_matrix_runs_tier1_as_the_workflow_does():
    """``tests/matrix.py`` passes the interpreter the workflow's tier-1 arguments."""
    from matrix import TIER1

    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    step = next(line for line in workflow.splitlines() if " -m pytest " in line)
    assert step.split(" python ", 1)[1].split() == TIER1

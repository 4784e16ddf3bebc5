"""Tests of the package's public surface, each in a fresh interpreter."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def _fresh(code: str) -> str:
    """Run ``code`` in a new interpreter; its stdout, stripped."""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return out.stdout.strip()


def _loaded(code: str) -> list[str]:
    """The pilegame modules loaded after running ``code`` in a new interpreter."""
    listing = "; import sys; print(*sorted(m for m in sys.modules if m.startswith('pilegame')))"
    return _fresh(code + listing).split()


def test_import_pilegame_loads_no_submodule():
    assert _loaded("import pilegame") == ["pilegame"]


def test_import_cli_loads_only_what_every_command_needs():
    assert _loaded("import pilegame.cli") == [
        "pilegame", "pilegame.cli", "pilegame.exact", "pilegame.oracle", "pilegame.rng",
    ]


#: The pilegame modules ``python -m pilegame`` imports for each command
#: below, and what the command prints. Neither loads the simulator, the
#: steps recursion or the checks; a change to what start-up imports shows.
START_UP_MODULES = ["pilegame", "pilegame.cli", "pilegame.exact", "pilegame.oracle", "pilegame.rng"]
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
        run = subprocess.run([sys.executable, "-X", "importtime", "-m", "pilegame", *args.split()],
                             capture_output=True, text=True, check=True)
        assert run.stdout == stdout, args
        loaded = [line.rpartition("|")[2].strip() for line in run.stderr.splitlines()]
        assert "pilegame.cli" in loaded
        assert [name for name in loaded if "click" in name] == []
        assert sorted(name for name in loaded if name.partition(".")[0] == "pilegame") == (
            START_UP_MODULES), args


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

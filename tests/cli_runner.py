"""Run the CLI in-process and report what it did, as ``click.testing.CliRunner`` did."""

import contextlib
import io
from types import SimpleNamespace

import pilegame.cli


def run_cli(args):
    """``pilegame.cli.main`` on ``args`` as program ``main``, with help 80 columns wide.

    The result has ``exit_code``, ``stdout``, ``stderr``, ``output`` (stdout
    then stderr) and ``exception`` (the ``SystemExit`` of a non-zero code).
    """
    out, err, stop = io.StringIO(), io.StringIO(), SystemExit(0)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            pilegame.cli.main(list(args), prog_name="main", terminal_width=80)
        except SystemExit as exc:
            stop = exc
    code = stop.code or 0
    return SimpleNamespace(
        exit_code=code, stdout=out.getvalue(), stderr=err.getvalue(),
        output=out.getvalue() + err.getvalue(), exception=stop if code else None,
    )

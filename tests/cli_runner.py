"""Runs the periplectic CLI in process: argv in; exit code, stdout and
stderr out."""

from __future__ import annotations

import contextlib
import io
from typing import NamedTuple

from periplectic.cli import main


class CliResult(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str
    exception: SystemExit


def run_cli(args: list[str]) -> CliResult:
    """Run `periplectic <args>` and catch the SystemExit that ends it."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            main(args)
        except SystemExit as exc:
            exception = exc
    code = 0 if exception.code is None else exception.code
    return CliResult(code, stdout.getvalue(), stderr.getvalue(), exception)

"""Collects acceptance-criterion verdicts so the run ends with a summary
section listing one line per criterion (see test_acceptance.py), and the
OpenBLAS core that the numbers were taken on. Also gives tests that start a
child interpreter the environment it needs to import the package."""

import os
from pathlib import Path

import pytest

import mdfgan
from blas_core import openblas_core

ACCEPTANCE_LINES = []


@pytest.fixture
def child_env():
    """This process's environment with the package's ``src`` first on
    ``PYTHONPATH``: a child interpreter does not get pytest's ``pythonpath``."""
    src = str(Path(mdfgan.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
        try:
            core = openblas_core()
        except RuntimeError as exc:
            core = f"unknown ({exc})"
        terminalreporter.write_line(f"OpenBLAS core: {core}")

"""Collects acceptance-criterion verdicts so the run ends with a summary
section listing one line per criterion (see test_acceptance.py), and the
OpenBLAS core that the numbers were taken on."""

from blas_core import openblas_core

ACCEPTANCE_LINES = []


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

"""Shared test plumbing: replay acceptance verdict lines after the run.

Default capture swallows per-test stdout for passing tests, so the
acceptance checks also register their verdict lines here and a terminal
summary section replays the full checklist.  child_env() is the
environment of every child interpreter a test starts.
"""

import os

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def child_env():
    """os.environ with the src directory borsuk is imported from first on
    PYTHONPATH, so `python -m borsuk` in a child runs the same code."""
    import borsuk

    src = os.path.dirname(os.path.dirname(borsuk.__file__))
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, path]))}

import sys

import pytest


def _site_clouds(name, clouds):
    """(query cloud, support cloud, level that sets the radius) of a site,
    read from its name alone."""
    kind, lvl = name[:-1], int(name[-1])
    if kind == "self":
        return clouds[lvl], clouds[lvl], lvl
    if kind == "down":
        return clouds[lvl + 1], clouds[lvl], lvl + 1
    if kind == "up":
        return clouds[lvl], clouds[lvl + 1], lvl + 1
    return clouds[0], clouds[lvl], lvl


@pytest.fixture(scope="session")
def site_clouds():
    """The clouds of a named site, for tests that search them on their own."""
    return _site_clouds


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance criteria pass/fail lines after the test run
    (fd-level capture swallows them when printed inside the tests)."""
    for name, mod in sys.modules.items():
        if name.endswith("test_acceptance"):
            lines = getattr(mod, "CRITERION_LINES", [])
            if lines:
                terminalreporter.write_line("")
                terminalreporter.write_line("acceptance criteria:")
                for line in lines:
                    terminalreporter.write_line(line)
            break

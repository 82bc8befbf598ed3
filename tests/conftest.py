import sys

import numpy as np
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


def _dense_conv_all(layer, nl, offsets, features, formula):
    """The paper's formula query by query: every (pair, channel) term formed
    and summed directly, as the benchmark's dense conv oracle does. The
    "sum" formula is the literal sum over N(x); "mean" divides it by |N(x)|."""
    rows = []
    for q in range(nl.num_queries):
        lo, hi = nl.offsets[q], nl.offsets[q + 1]
        out = np.zeros(layer.out_features)
        if hi > lo:
            g = layer.embedding.embed(offsets[lo:hi]) @ layer.projection   # (T, E_c)
            out = np.einsum("tc,coe,te->o", features[nl.indices[lo:hi]], layer.kernel, g)
            if formula == "mean":
                out = out / (hi - lo)
        rows.append(out + layer.bias)
    return np.array(rows)


@pytest.fixture(scope="session")
def dense_conv_all():
    """The dense per-pair conv formula, for tests that check a conv against it."""
    return _dense_conv_all


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

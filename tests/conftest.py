import sys
from pathlib import Path

import pytest

from cograph_hc import Graph, exhaustive_cographs

SRC = Path(__file__).resolve().parent.parent / "src" / "cograph_hc"


def pytest_terminal_summary(terminalreporter):
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "LINES", None)
    terminalreporter.section("acceptance criteria")
    for line in sorted(lines or ()):
        terminalreporter.write_line(line)
    # the size that "less code" is measured by, as `wc -l` counts it
    size = sum(p.read_bytes().count(b"\n") for p in SRC.glob("*.py"))
    terminalreporter.write_line(f"src/ lines: {size}")


def reference_postorder(t):
    """Reference: t's node ids below the root, children before parents,
    left to right, by a walk over an explicit stack. `Cotree.postorder`
    takes it from a cache that some builders set without a walk."""
    out, stack = [], [t.root]
    while stack:
        u = stack.pop()
        out.append(u)
        stack.extend(t.children[u])
    return tuple(reversed(out))


@pytest.fixture(scope="session")
def small_cographs():
    """All labeled cographs on 1..5 vertices (1+2+8+52+472 graphs)."""
    out = []
    for n in range(1, 6):
        out.extend(exhaustive_cographs(n))
    return out


@pytest.fixture(scope="session")
def k2_k1_k1():
    """One edge a-b plus two isolated vertices c, d; chi = 2."""
    return Graph(4, [(0, 1)], names=("a", "b", "c", "d"))


@pytest.fixture
def coloring_a():
    """Greedy coloring of k2_k1_k1 from the order a,b,c,d."""
    return {0: 1, 1: 2, 2: 1, 3: 1}


@pytest.fixture
def coloring_b():
    """hc but not greedy: the two singleton components differ in color."""
    return {0: 1, 1: 2, 2: 1, 3: 2}

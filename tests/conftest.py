import math
import sys
from pathlib import Path

import pytest

from cograph_hc import Cotree, Graph, exhaustive_cographs
from cograph_hc.cotree import LEAF, node_chromatic_numbers

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
    left to right, by a walk over an explicit stack. Every `Cotree` is
    numbered so, and `Cotree.postorder` is its ids; this walk does not
    assume it."""
    out, stack = [], [t.root]
    while stack:
        u = stack.pop()
        out.append(u)
        stack.extend(t.children[u])
    return tuple(reversed(out))


def assert_numbered_in_postorder(t):
    """The invariant of every `Cotree`: the ids are a postorder, the root
    the last node."""
    assert t.root == t.n_nodes() - 1
    assert reference_postorder(t) == tuple(range(t.n_nodes()))


def tree_of(spec, names=None):
    """A `Cotree` from nested tuples, an int a leaf's vertex and (label,
    kid, kid, ...) an inner node. It is built with `add_leaf` and
    `add_inner` in postorder over an explicit stack, so at any depth."""
    t = Cotree(names=names)
    out, work = [], [(spec, False)]
    while work:
        s, done = work.pop()
        if isinstance(s, int):
            out.append(t.add_leaf(s))
        elif done:
            k = len(s) - 1
            out[-k:] = [t.add_inner(s[0], out[-k:])]
        else:
            work.append((s, True))
            work.extend((c, False) for c in reversed(s[1:]))
    t.root = out[0]
    return t


def caterpillar_spec(n):
    """The depth-n caterpillar (0,(1,...(n-2,n-1)..)1)0: one leaf per
    level, the spine each node's right child, labels alternating."""
    spec = n - 1
    for v in range(n - 2, -1, -1):
        spec = (v % 2, v, spec)
    return spec


def chromatic_number(t):
    """Chromatic number of the graph of cotree t."""
    return node_chromatic_numbers(t)[t.root]


def is_discriminating(t):
    """True iff adjacent inner nodes carry distinct labels."""
    label = t.label
    return all(label[c] != lab for lab, kids in zip(label, t.children)
               if lab != LEAF for c in kids)


def g_injections(s1, s2):
    """Number of injective maps from an s1-set into an s2-set."""
    if s1 > s2:
        raise ValueError("injection-size-order")
    return math.perm(s2, s1)


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

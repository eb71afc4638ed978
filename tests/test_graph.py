import random
import subprocess
import sys

import pytest

from cograph_hc import (GenParams, Graph, GraphFormatError, complement,
                        random_cograph, read_edge_list, write_coloring,
                        write_edge_list)
from cograph_hc import graph
from cograph_hc.graph import VertexIds

P4 = Graph(4, [(0, 1), (1, 2), (2, 3)], names=("a", "b", "c", "d"))


def test_construction_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(2, [(0, 2)])
    with pytest.raises(ValueError):
        Graph(2, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(2, names=("x",))
    with pytest.raises(ValueError):
        Graph(2, names=("x", "x"))


def test_edges_sorted_and_deduplicated():
    g = Graph(3, [(2, 0), (0, 1), (1, 0)])
    assert list(g.edges()) == [(0, 1), (0, 2)]
    assert g.edge_count() == 2
    assert g.adj[0].bit_count() == 2 and g.adj[2].bit_count() == 1


def test_complement_small_cases():
    k1 = Graph(1)
    assert complement(k1) == k1
    k2 = Graph(2, [(0, 1)])
    assert complement(k2).edge_count() == 0
    co_p4 = complement(P4)
    assert co_p4.edge_count() == 3
    # complement of the 4-path is again a 4-path on reordered vertices
    degs = sorted(a.bit_count() for a in co_p4.adj)
    assert degs == [1, 1, 2, 2]


def test_complement_involution(small_cographs):
    for g in small_cographs[:100]:
        assert complement(complement(g)) == g


def test_edge_list_roundtrip(k2_k1_k1):
    for g in (k2_k1_k1, P4, Graph(3)):
        assert read_edge_list(write_edge_list(g)) == g


def test_edge_list_accepts_names_and_comments():
    text = "# demo\nn 3\nnames x y z\nx y\n1 2\n"
    g = read_edge_list(text)
    assert list(g.edges()) == [(0, 1), (1, 2)]
    assert g.names == ("x", "y", "z")


@pytest.mark.parametrize("text", [
    "",                       # missing header
    "n x\n",                  # bad count
    "n 2\n0 1 2\n",           # not a pair
    "n 2\n0 5\n",             # out of range
    "n 2\n0 0\n",             # self-loop
    "n 2\nnames a\n",         # wrong name count
])
def test_edge_list_rejects_malformed(text):
    with pytest.raises(GraphFormatError):
        read_edge_list(text)


def test_edge_list_names_win_over_decimals_and_zeros_lead():
    g = read_edge_list("n 3\nnames 1 0 x\n1 x\n002 0\n")
    assert list(g.edges()) == [(0, 2), (1, 2)]


def test_edge_list_writes_by_name_only_when_an_id_would_misread():
    # the reader resolves a name before a decimal id
    g = Graph(3, [(0, 1)], names=("2", "0", "1"))
    assert write_edge_list(g) == "n 3\nnames 2 0 1\n2 0\n"
    for names in (("v0", "v1", "v2"), ("0", "1", "x"), None):
        g = Graph(3, [(0, 1)], names=names)
        assert write_edge_list(g).endswith("\n0 1\n")


@pytest.mark.parametrize("name", ["", "a b", "a#b", "a\u00a0b", "a\u2028b"])
def test_writers_refuse_names_the_readers_cannot_hold(name):
    g = Graph(2, [(0, 1)], names=(name, "x"))
    with pytest.raises(ValueError, match="cannot be written to an edge list"):
        write_edge_list(g)
    with pytest.raises(ValueError, match="cannot be written to a coloring"):
        write_coloring(g, {0: 1, 1: 2})


def reference_read_edge_list(text):
    """The edge-list reader as it was before reading by pieces: one Python
    step per line, each edge through `Graph.__init__`."""
    n = None
    names = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if n is None:
            if (parts[0] != "n" or len(parts) != 2 or not parts[1].isascii()
                    or not parts[1].isdigit()):
                raise GraphFormatError(f"line {lineno}: expected 'n <count>'")
            n = int(parts[1])
            ids = VertexIds([f"v{i}" for i in range(n)])
            continue
        if parts[0] == "names" and not edges and names is None:
            if len(parts) != n + 1:
                raise GraphFormatError(f"line {lineno}: expected {n} names")
            names = tuple(parts[1:])
            if len(set(names)) != n:
                raise GraphFormatError(f"line {lineno}: duplicate names")
            ids = VertexIds(names)
            continue
        if len(parts) != 2:
            raise GraphFormatError(f"line {lineno}: expected 'u v'")
        try:
            u, v = ids[parts[0]], ids[parts[1]]
            if u == v:
                raise KeyError
        except KeyError:
            raise GraphFormatError(f"line {lineno}: bad edge {line!r}") from None
        edges.append((u, v))
    if n is None:
        raise GraphFormatError("missing 'n <count>' header")
    return Graph(n, edges, names)


def reference_write_edge_list(g):
    """The edge-list writer as it was before the per-vertex join: one
    f-string per edge."""
    names, lines, by_name = g.names, [f"n {g.n}"], False
    if names is not None:
        lines.append("names " + " ".join(names))
        ids = VertexIds(names)
        by_name = any(ids[str(v)] != v for v in range(g.n))
    if by_name:
        lines.extend(f"{names[u]} {names[v]}" for u, v in g.edges())
    else:
        lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def read_outcome(read, text):
    try:
        g = read(text)
    except GraphFormatError as exc:
        return str(exc)
    return g.n, g.names, g.adj


@pytest.mark.parametrize("text, message", [
    ("n 2\r#x\n0 0\n", "line 3: bad edge '0 0'"),
    ("#a\r\nn 2\n\r#b\n0 1 #c\r\n1\t1#d\n", "line 6: bad edge '1\\t1'"),
    ("n 2\n0\x1c1\n", "line 2: expected 'u v'"),
    ("n 2\n0\x1f1\n0 1 1\n", "line 3: expected 'u v'"),
    ("n 2\nnames a b\nnames a\n", "line 3: bad edge 'names a'"),
    ("n 2\n0 1\nnames a b\n", "line 3: expected 'u v'"),
    ("\n\n n 2\u2028names a a\n", "line 4: duplicate names"),
    ("n 02 1\n", "line 1: expected 'n <count>'"),
    ("# n 2\n", "missing 'n <count>' header"),
])
def test_edge_list_errors_name_the_line(text, message):
    assert read_outcome(reference_read_edge_list, text) == message
    with pytest.raises(GraphFormatError) as exc:
        read_edge_list(text)
    assert str(exc.value) == message


def test_edge_list_line_boundaries_are_those_of_splitlines():
    g = read_edge_list("n 4\r\n0 1\x1e1\t2\x852\xa03\u2029 0\x1f3")
    assert list(g.edges()) == [(0, 1), (0, 3), (1, 2), (2, 3)]


# Pieces of edge-list text that the mutations below insert or substitute:
# every line boundary of str.splitlines, other whitespace, comments, the
# names keyword, and tokens that are and are not vertex ids.
PIECES = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
          "\u2028", "\u2029", " ", "\t", "\x1f", "\xa0", "#", "# c\n",
          "names", "names a b c", "n", "n 3", "0", "1", "2", "3", "01", "002",
          "+1", "-0", "1_0", "a", "b", "c", "x"]

BASES = ["n 3\n0 1\n1 2\n", "# gen\nn 3\nnames a b c\na b\nb c\na c\n",
         "n 4\r\n\r\n0 1 # e\r\n2 3\r\n", "\n n 3\n\nnames 2 0 1\n2 0\n1 0\n",
         "n 3\nnames 1 0 x\n1 x\n002 0\n", "n 2\n", "n 3\nnames x y z\n",
         "n 3\n0\t1\x1c1\x1f2\u2028\x0c2 0\x85"]


def mutate(rng, text):
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        op = rng.randrange(4)
        if op == 0:
            text = text[:i] + rng.choice(PIECES) + text[i:]
        elif op == 1:
            text = text[:i] + rng.choice(PIECES) + text[i + 1:]
        elif op == 2:
            text = text[:i] + text[i + 1:]
        else:
            text = text + rng.choice(BASES[:2])[rng.randrange(4):]
    return text


@pytest.mark.parametrize("piece", [None, 3])
def test_reader_matches_reference_on_mutated_input(monkeypatch, piece):
    # piece 3 cuts after nearly every "\n": right after the header lines,
    # inside runs of blank lines and after "\r\n"
    if piece is not None:
        monkeypatch.setattr(graph, "_PIECE", piece)
    rng = random.Random(14)
    outcomes = set()
    for _ in range(20_000):
        text = mutate(rng, rng.choice(BASES))
        want = read_outcome(reference_read_edge_list, text)
        assert read_outcome(read_edge_list, text) == want, text
        outcomes.add(want if isinstance(want, str) else "graph")
    assert len(outcomes) > 100  # messages at many lines, and graphs


def test_reader_matches_reference_on_a_large_graph_in_small_pieces(
        monkeypatch):
    g, _ = random_cograph(GenParams(n=300, seed=5))
    text = "# big\n" + write_edge_list(g).replace("\n", "\r\n", 50)
    monkeypatch.setattr(graph, "_PIECE", 1000)
    assert read_edge_list(text) == g
    bad = text[:-40] + "\n0 0\n" + text[-40:]
    assert read_outcome(read_edge_list, bad) == \
        read_outcome(reference_read_edge_list, bad)


def test_writer_matches_reference_on_random_cographs():
    rng = random.Random(14)
    for seed in range(60):
        g, _ = random_cograph(GenParams(n=rng.randint(1, 60), seed=seed))
        decimals = [str(i) for i in range(g.n)]
        rng.shuffle(decimals)
        for names in (None, tuple(f"x{i}" for i in range(g.n)),
                      tuple(decimals)):
            h = Graph(g.n, g.edges(), names=names)
            text = write_edge_list(h)
            assert text == reference_write_edge_list(h)
            assert read_edge_list(text) == h


def test_writer_matches_reference_on_a_wide_sparse_matching():
    n = 2000
    g = Graph(n, [(u, u + n // 2) for u in range(n // 2)])
    assert write_edge_list(g) == reference_write_edge_list(g)


# The child's peak resident set in KiB, from its own memory map; the
# rusage figure would count the memory of the forking test process too.
_PEAK = ("import re, sys; import cograph_hc; {} print(re.search("
         "r'VmHWM:\\s*(\\d+)', open('/proc/self/status').read())[1])")


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads VmHWM from /proc/self/status")
def test_reading_a_large_edge_list_peaks_in_bounded_memory(tmp_path):
    # about 0.8M edges in 6.9 MB of text, read as bytes and as str: the
    # per-line reader with an edge tuple per line peaked 118 MB above an
    # import, this one 13 MB
    g, _ = random_cograph(GenParams(n=1500, seed=3))
    path = tmp_path / "g.txt"
    path.write_text(write_edge_list(g), encoding="utf-8")
    peaks = []
    for body in ("", "cograph_hc.read_edge_list(open(sys.argv[1]).read());"):
        out = subprocess.run([sys.executable, "-c", _PEAK.format(body),
                              str(path)], capture_output=True, text=True,
                             check=True).stdout
        peaks.append(int(out) / 1024)
    assert peaks[1] - peaks[0] < 50, peaks

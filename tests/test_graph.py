import pytest

from cograph_hc import (Graph, GraphFormatError, complement, read_edge_list,
                        write_coloring, write_edge_list)

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

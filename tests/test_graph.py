import pytest

from cograph_hc import (Graph, GraphFormatError, complement,
                        connected_components, disjoint_union,
                        induced_subgraph, join, read_edge_list,
                        write_edge_list)

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
    assert g.degree(0) == 2 and g.degree(2) == 1


def test_complement_small_cases():
    k1 = Graph(1)
    assert complement(k1) == k1
    k2 = Graph(2, [(0, 1)])
    assert complement(k2).edge_count() == 0
    co_p4 = complement(P4)
    assert co_p4.edge_count() == 3
    # complement of the 4-path is again a 4-path on reordered vertices
    degs = sorted(co_p4.degree(v) for v in range(4))
    assert degs == [1, 1, 2, 2]


def test_complement_involution(small_cographs):
    for g in small_cographs[:100]:
        assert complement(complement(g)) == g


def test_induced_subgraph(k2_k1_k1):
    sub = induced_subgraph(k2_k1_k1, [0, 1])
    assert sub.n == 2 and sub.edge_count() == 1
    assert sub.names == ("a", "b")
    assert induced_subgraph(k2_k1_k1, [2, 3]).edge_count() == 0
    sub = induced_subgraph(P4, [0, 2, 3])
    assert list(sub.edges()) == [(1, 2)]
    assert sub.names == ("a", "c", "d")


def test_induced_subgraph_errors(k2_k1_k1):
    with pytest.raises(ValueError, match="empty-induced-set"):
        induced_subgraph(k2_k1_k1, [])
    with pytest.raises(ValueError, match="bad-vertex-id"):
        induced_subgraph(k2_k1_k1, [0, 9])


def test_connected_components(k2_k1_k1):
    assert connected_components(k2_k1_k1) == [(0, 1), (2,), (3,)]
    assert connected_components(Graph(1)) == [(0,)]
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert connected_components(c4) == [(0, 1, 2, 3)]


def test_disjoint_union(k2_k1_k1):
    two = disjoint_union([Graph(1), Graph(1)])
    assert two.n == 2 and two.edge_count() == 0
    g = disjoint_union([Graph(2, [(0, 1)], names=("a", "b")),
                        Graph(1, names=("c",)), Graph(1, names=("d",))])
    assert g == k2_k1_k1
    assert disjoint_union([P4]) == P4


def test_disjoint_union_renames_collisions():
    g = disjoint_union([Graph(1, names=("x",)), Graph(1, names=("x",))])
    assert g.names == ("x", "x.2")


def test_join():
    assert join([Graph(1), Graph(1)]).edge_count() == 1
    c4 = join([Graph(2), Graph(2)])
    assert c4.edge_count() == 4
    assert all(c4.degree(v) == 2 for v in range(4))
    k4 = join([Graph(2, [(0, 1)]), Graph(2, [(0, 1)])])
    assert k4.edge_count() == 6
    assert join([Graph(1), Graph(3)]).degree(0) == 3  # connected


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

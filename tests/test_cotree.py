import itertools
import random
import time
import tracemalloc

import pytest

from cograph_hc import (Cotree, GenParams, Graph, P4Witness, align_to_graph,
                        build_cotree, chromatic_number, complement,
                        is_binary, is_discriminating,
                        make_discriminating, newick_read, newick_write,
                        random_cograph, realized_graph, realizes, to_binary)
from cograph_hc.cotree import LEAF, _find_p4_in
from cograph_hc.graph import bits
from cograph_hc.oracle import find_induced_p4

P4 = Graph(4, [(0, 1), (1, 2), (2, 3)], names=("a", "b", "c", "d"))


def induces_p4(g, w):
    a, b, c, d = w.as_tuple()
    return (g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(c, d)
            and not (g.has_edge(a, c) or g.has_edge(a, d)
                     or g.has_edge(b, d)))


def test_build_cotree_p4_witness():
    w = build_cotree(P4)
    assert isinstance(w, P4Witness)
    assert induces_p4(P4, w)


def test_every_p4_witness_on_5_vertices_induces_a_p4():
    pairs = list(itertools.combinations(range(5), 2))
    witnesses = 0
    for mask in range(1 << len(pairs)):
        g = Graph(5, [p for i, p in enumerate(pairs) if mask >> i & 1])
        w = build_cotree(g)
        if isinstance(w, P4Witness):
            witnesses += 1
            assert induces_p4(g, w), (mask, w)
    assert witnesses == (1 << 10) - 472  # 472 labeled cographs on 5


# -- bottom-up twin merging against the top-down decomposition ---------------

def components_bits(adj, sub):
    """Connected components of the subgraph induced by bitset `sub`, as
    bitsets ordered by smallest member."""
    out, remaining = [], sub
    while remaining:
        comp, frontier = 0, remaining & -remaining
        while frontier:
            comp |= frontier
            nxt = 0
            for v in bits(frontier):
                nxt |= adj[v]
            frontier = nxt & remaining & ~comp
        out.append(comp)
        remaining &= ~comp
    return out


def _co_components(adj, sub):
    """Components of the complement of the subgraph induced by `sub`."""
    out, remaining = [], sub
    while remaining:
        comp, frontier = 0, remaining & -remaining
        while frontier:
            comp |= frontier
            nxt = 0
            for v in bits(frontier):
                nxt |= ~adj[v] & sub & ~(1 << v)
            frontier = nxt & remaining & ~comp
        out.append(comp)
        remaining &= ~comp
    return out


def top_down_cotree(g):
    """Reference: split the vertex set into components, else into
    co-components, level by level; a set that splits neither way holds a
    P4. Children in order of smallest vertex, nodes in postorder."""
    t = Cotree(names=g.names)
    out, work = [], [("enter", (1 << g.n) - 1)]
    while work:
        tag, arg = work.pop()
        if tag == "exit":
            label, k = arg
            out[-k:] = [t.add_inner(label, out[-k:])]
        elif arg & (arg - 1) == 0:
            out.append(t.add_leaf(arg.bit_length() - 1))
        else:
            label, parts = 0, components_bits(g.adj, arg)
            if len(parts) == 1:
                label, parts = 1, _co_components(g.adj, arg)
                if len(parts) == 1:
                    return _find_p4_in(g.adj, arg)
            work.append(("exit", (label, len(parts))))
            work.extend(("enter", p) for p in reversed(parts))
    t.root = out[0]
    return t


def arrays(t):
    return t.label, t.children, t.vertex, t.root


def assert_same_tree(g):
    t, ref = build_cotree(g), top_down_cotree(g)
    assert arrays(t) == arrays(ref)
    assert t.postorder() == tuple(range(t.n_nodes()))


def test_twin_merging_matches_top_down_on_all_graphs_up_to_5():
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = Graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
            if isinstance(top_down_cotree(g), P4Witness):
                assert isinstance(build_cotree(g), P4Witness)
            else:
                assert_same_tree(g)


@pytest.mark.parametrize("n", [50, 300, 1000])
def test_twin_merging_matches_top_down_on_random_cographs(n):
    for seed in range(3):
        for arity in (2, 3, 6):
            g, _ = random_cograph(GenParams(n=n, seed=seed, max_arity=arity))
            assert_same_tree(g)


def test_every_p4_witness_on_6_vertices_induces_a_p4():
    pairs = list(itertools.combinations(range(6), 2))
    witnesses = 0
    for mask in range(1 << len(pairs)):
        g = Graph(6, [p for i, p in enumerate(pairs) if mask >> i & 1])
        w = build_cotree(g)
        if isinstance(w, P4Witness):
            witnesses += 1
            assert induces_p4(g, w), (mask, w)
    assert witnesses == (1 << 15) - 5504  # 5504 labeled cographs on 6


def caterpillar(n, seed):
    """A depth-n cotree: one new leaf per level, labels alternating, the
    vertices in a seeded random order; returns the tree and the leaves
    from the bottom up."""
    order = list(range(n))
    random.Random(seed).shuffle(order)
    t = Cotree()
    acc = t.add_leaf(order[0])
    for i in range(1, n):
        acc = t.add_inner(i % 2, [acc, t.add_leaf(order[i])])
    t.root = acc
    return t, order


def test_deep_caterpillar_is_recognized_fast():
    tree, _ = caterpillar(10**4, seed=1)
    g = realized_graph(tree)
    start = time.perf_counter()
    t = build_cotree(g)
    elapsed = time.perf_counter() - start
    assert t == make_discriminating(tree)
    assert t.postorder() == tuple(range(t.n_nodes()))
    assert elapsed < 5


def test_deep_caterpillar_with_a_p4_near_the_bottom_is_rejected_fast():
    # level 12 is union(x, join(y, union(z, rest))): y sees z and every
    # leaf w of rest, x sees none of them, so the edge x-w makes x-w-y-z
    tree, order = caterpillar(10**4, seed=2)
    x, w = order[12], order[0]
    adj = list(realized_graph(tree).adj)
    adj[x] |= 1 << w
    adj[w] |= 1 << x
    g = Graph._from_adj(len(adj), adj, None)  # an edge list would be slow
    start = time.perf_counter()
    witness = build_cotree(g)
    elapsed = time.perf_counter() - start
    assert isinstance(witness, P4Witness) and induces_p4(g, witness)
    assert elapsed < 2


@pytest.mark.parametrize("make, label", [
    (lambda: Graph(3 * 10**4), 0),
    (lambda: complement(Graph(5000)), 1),  # K_n: an edge list is slow
], ids=["edgeless", "complete"])
def test_one_inner_node_over_many_leaves_is_fast(make, label):
    # every merge absorbs a same-label child: the shorter child list is
    # appended to the longer, so this stays O(n log n) list work
    g = make()
    start = time.perf_counter()
    t = build_cotree(g)
    elapsed = time.perf_counter() - start
    assert t.label[t.root] == label and t.root == g.n
    assert t.children[t.root] == tuple(range(g.n))
    assert t.label[:g.n] == [LEAF] * g.n
    assert t.vertex[:g.n] == list(range(g.n))
    assert elapsed < 2


def test_build_cotree_singleton():
    t = build_cotree(Graph(1))
    assert t.n_leaves() == 1 and t.is_leaf(t.root)


def test_build_cotree_empty_graph():
    with pytest.raises(ValueError, match="empty-graph"):
        build_cotree(Graph(0))


def test_build_cotree_shape(k2_k1_k1):
    t = build_cotree(k2_k1_k1)
    assert newick_write(t) == "((a,b)1,c,d)0;"
    assert t.label[t.root] == 0
    assert is_discriminating(t)
    assert realized_graph(t) == k2_k1_k1


def test_recognition_matches_p4_search_n4():
    import itertools
    pairs = list(itertools.combinations(range(4), 2))
    for mask in range(1 << 6):
        g = Graph(4, [pairs[i] for i in range(6) if mask >> i & 1])
        got_tree = not isinstance(build_cotree(g), P4Witness)
        assert got_tree == (find_induced_p4(g) is None)
        if got_tree:
            assert realized_graph(build_cotree(g)).adj == g.adj


def test_p4_witness_in_a_large_stalled_set_is_fast():
    # the added edge joins two union children spanning about 500 vertices,
    # so recognition stalls on a large set before it finds the P4
    g, _ = random_cograph(GenParams(n=1000, seed=1))
    g = Graph(g.n, [*g.edges(), (519, 586)])
    start = time.perf_counter()
    w = build_cotree(g)
    elapsed = time.perf_counter() - start
    assert isinstance(w, P4Witness) and induces_p4(g, w)
    assert elapsed < 0.5


def test_postorder_is_a_cached_tuple_that_follows_the_tree():
    t = Cotree()
    a, b = t.add_leaf(0), t.add_leaf(1)
    t.root = t.add_inner(1, [a, b])
    post = t.postorder()
    assert post == (0, 1, 2) and t.postorder() is post
    assert t.leaf_masks() == [0b1, 0b10, 0b11]
    c = t.add_leaf(2)
    assert t.postorder() == post and t.leaf_masks() == [1, 2, 3, 0]
    t.root = t.add_inner(0, [t.root, c])
    assert t.postorder() == (0, 1, 2, 3, 4)
    assert t.leaf_masks() == [0b1, 0b10, 0b11, 0b100, 0b111]
    t.root = a  # a new root over the same arena
    assert t.postorder() == (0,) and t.leaf_masks() == [1, 0, 0, 0, 0]


def test_chromatic_number(k2_k1_k1):
    assert chromatic_number(build_cotree(Graph(1))) == 1
    k4 = realized_graph(newick_read("(a,(b,(c,d)1)1)1;"))
    assert chromatic_number(build_cotree(k4)) == 4
    assert chromatic_number(build_cotree(k2_k1_k1)) == 2


def test_is_discriminating():
    t = newick_read("((a,b)0,c)0;")
    assert not is_discriminating(t)
    assert is_discriminating(newick_read("((a,b)1,c)0;"))
    single = build_cotree(Graph(1))
    assert is_discriminating(single)


def test_make_discriminating_contracts_caterpillar():
    t = newick_read("(((a,b)0,c)0,d)0;")
    d = make_discriminating(t)
    assert is_discriminating(d)
    assert len(d.children[d.root]) == 4
    assert realized_graph(d).adj == realized_graph(t).adj


def test_make_discriminating_contracts_a_long_comb():
    # a binary join comb of 2*10^4 leaves contracts into one star; copying
    # each node's contracted child list up the comb took 15 s and 1.8 GB
    star = Cotree()
    star.root = star.add_inner(1, [star.add_leaf(v) for v in range(20000)])
    comb = to_binary(star)
    start = time.perf_counter()
    assert make_discriminating(comb) == star
    assert time.perf_counter() - start < 2
    tracemalloc.start()
    try:
        make_discriminating(comb)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 50 << 20


def test_make_discriminating_fixed_point(k2_k1_k1):
    t = build_cotree(k2_k1_k1)
    assert make_discriminating(t) == t


def test_to_binary_left_comb(k2_k1_k1):
    t = build_cotree(k2_k1_k1)
    b = to_binary(t, "left-comb")
    assert is_binary(b)
    assert realized_graph(b).adj == k2_k1_k1.adj
    assert newick_write(b) == "(((a,b)1,c)0,d)0;"
    assert to_binary(b) == b  # binary input unchanged


def test_to_binary_chi_ascending(k2_k1_k1):
    b = to_binary(build_cotree(k2_k1_k1), "chi-ascending")
    # the two chi=1 singletons merge first, the chi=2 component last
    assert newick_write(b) == "((c,d)0,(a,b)1)0;"
    assert realized_graph(b).adj == k2_k1_k1.adj


def test_to_binary_unknown_strategy(k2_k1_k1):
    with pytest.raises(ValueError, match="unknown strategy"):
        to_binary(build_cotree(k2_k1_k1), "bogus")


def test_to_binary_preserves_discriminating_class(small_cographs):
    for g in small_cographs[:80]:
        t = build_cotree(g)
        for strategy in ("left-comb", "chi-ascending"):
            assert make_discriminating(to_binary(t, strategy)) == t


def test_discriminating_cotree_unique_across_binary_refinements():
    from cograph_hc.oracle import all_binary_cotrees
    from cograph_hc import exhaustive_cographs
    for g in exhaustive_cographs(4):
        t = build_cotree(g)
        for bt in all_binary_cotrees(g):
            assert make_discriminating(bt) == t


def test_align_to_graph(k2_k1_k1):
    t = newick_read("(c,d,(a,b)1)0;")
    at = align_to_graph(t, k2_k1_k1)
    assert realizes(at, k2_k1_k1)
    with pytest.raises(ValueError, match="cotree-graph-mismatch"):
        align_to_graph(newick_read("(x,y)1;"), k2_k1_k1)


def test_realizes(k2_k1_k1):
    assert realizes(build_cotree(k2_k1_k1), k2_k1_k1)
    assert not realizes(newick_read("((a,b)0,c,d)0;"), k2_k1_k1)

import itertools
import random
import time

import pytest

from cograph_hc import (Cotree, GenParams, Graph, NotACographError,
                        alg1_color, build_cotree, greedy_coloring, is_binary,
                        is_greedy, is_hc_coloring, is_proper, newick_read,
                        random_cograph, read_coloring, realized_graph,
                        to_binary, verify_hc, write_coloring)
from cograph_hc import coloring, cotree
from cograph_hc.cotree import align_to_graph
from cograph_hc.graph import bits


def caterpillar(g):
    return to_binary(build_cotree(g), "left-comb")


def test_is_proper():
    k2 = Graph(2, [(0, 1)])
    assert is_proper(k2, {0: 1, 1: 2})
    assert not is_proper(k2, {0: 1, 1: 1})
    with pytest.raises(ValueError, match="coloring-domain-mismatch"):
        is_proper(k2, {0: 1})


def test_is_proper_coloring_b(k2_k1_k1, coloring_b):
    assert is_proper(k2_k1_k1, coloring_b)


def test_greedy_coloring(k2_k1_k1, coloring_a):
    assert greedy_coloring(k2_k1_k1, [0, 1, 2, 3]) == coloring_a
    assert greedy_coloring(Graph(1), [0]) == {0: 1}
    with pytest.raises(ValueError, match="permutation"):
        greedy_coloring(k2_k1_k1, [0, 1, 2])


def test_greedy_uses_chi_colors_exhaustively(small_cographs):
    from cograph_hc.oracle import brute_chromatic
    for g in small_cographs:
        if g.n > 4:
            break
        chi = brute_chromatic(g)
        for order in itertools.permutations(range(g.n)):
            c = greedy_coloring(g, order)
            assert set(c.values()) == set(range(1, chi + 1))


# -- first fit by class against the edge walk it replaced ----------------------

def edge_walk_greedy(g, order):
    """Reference: give each vertex in `order` the smallest color that no
    already colored neighbor has, found by walking all its neighbors."""
    c = {}
    for v in order:
        used = 0
        for u in bits(g.adj[v]):
            if u in c:
                used |= 1 << c[u]
        col = 1
        while used >> col & 1:
            col += 1
        c[v] = col
    return c


def assert_same_greedy(g, order):
    assert (list(greedy_coloring(g, order).items())
            == list(edge_walk_greedy(g, order).items())), (g.adj, order)


def test_greedy_matches_edge_walk_on_all_graphs_up_to_5():
    calls = 0
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = Graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
            for order in itertools.permutations(range(n)):
                assert_same_greedy(g, order)
                calls += 1
    assert calls == 124469


@pytest.mark.parametrize("n", [30, 200])
@pytest.mark.parametrize("density", [0.1, 0.5, 0.9])
def test_greedy_matches_edge_walk_on_random_graphs(n, density):
    rng = random.Random(n * 10 + int(density * 10))
    for _ in range(5):
        g = Graph(n, [p for p in itertools.combinations(range(n), 2)
                      if rng.random() < density])
        order = list(range(n))
        rng.shuffle(order)
        assert_same_greedy(g, order)
        assert_same_greedy(g, range(n))


def test_greedy_on_a_deep_caterpillar_is_fast():
    # depth 4000, labels alternating: about n^2/4 = 4M edges; walking
    # every edge took several seconds
    n = 4000
    t = Cotree()
    acc = t.add_leaf(0)
    for v in range(1, n):
        acc = t.add_inner(v % 2, [acc, t.add_leaf(v)])
    t.root = acc
    g = realized_graph(t)
    order = list(range(n))
    random.Random(4).shuffle(order)
    start = time.perf_counter()
    c = greedy_coloring(g, order)
    elapsed = time.perf_counter() - start
    assert is_proper(g, c) and is_greedy(g, c)
    assert elapsed < 2


def test_is_greedy(k2_k1_k1, coloring_a, coloring_b):
    assert is_greedy(k2_k1_k1, coloring_a)
    assert not is_greedy(k2_k1_k1, coloring_b)
    with pytest.raises(ValueError, match="not-proper"):
        is_greedy(Graph(2, [(0, 1)]), {0: 1, 1: 1})


def test_is_greedy_matches_order_enumeration(small_cographs):
    from cograph_hc.oracle import all_min_colorings
    for g in small_cographs:
        if g.n > 4:
            break
        produced = {tuple(greedy_coloring(g, order)[v] for v in range(g.n))
                    for order in itertools.permutations(range(g.n))}
        for c in all_min_colorings(g):
            flat = tuple(c[v] for v in range(g.n))
            assert is_greedy(g, c) == (flat in produced)


def test_verify_hc_accepts_both_reference_colorings(k2_k1_k1, coloring_a,
                                                    coloring_b):
    t = caterpillar(k2_k1_k1)
    assert verify_hc(k2_k1_k1, t, coloring_a).accepted
    assert verify_hc(k2_k1_k1, t, coloring_b).accepted


def test_verify_hc_tree_dependence(k2_k1_k1):
    # same coloring: accepted by the caterpillar, K3-rejected by the
    # tree that pairs the two singletons under their own 0-node
    c = {0: 1, 1: 2, 2: 2, 3: 1}
    assert verify_hc(k2_k1_k1, caterpillar(k2_k1_k1), c).accepted
    other = align_to_graph(newick_read("((a,b)1,(c,d)0)0;"), k2_k1_k1)
    verdict = verify_hc(k2_k1_k1, other, c)
    assert not verdict.accepted
    assert verdict.axiom == "K3"
    assert verdict.sets in ((frozenset({2}), frozenset({1})),
                            (frozenset({1}), frozenset({2})))
    # the failing node is the (c,d) 0-node
    assert other.label[verdict.node] == 0
    leaves = {other.vertex[x]
              for x in _leaves_below(other, verdict.node)}
    assert leaves == {2, 3}


def _leaves_below(t, u):
    out, stack = [], [u]
    while stack:
        x = stack.pop()
        if t.is_leaf(x):
            out.append(x)
        else:
            stack.extend(t.children[x])
    return out


def test_verify_hc_k2_fails_exactly_on_improper(k2_k1_k1):
    t = caterpillar(k2_k1_k1)
    verdict = verify_hc(k2_k1_k1, t, {0: 1, 1: 1, 2: 1, 3: 1})
    assert not verdict.accepted and verdict.axiom == "K2"


def test_verify_hc_reports_a_shallow_failure_left_of_a_deeper_one():
    g = Graph(5, [(0, 1), (2, 3), (2, 4)])
    t = align_to_graph(newick_read("((v0,v1)1,(v2,(v3,v4)0)1)0;"), g)
    # the join (v0,v1) fails K2 at depth 1 and the union (v3,v4) K3 at
    # depth 3; the join comes first in postorder
    verdict = verify_hc(g, t, {0: 1, 1: 1, 2: 1, 3: 2, 4: 3})
    assert verdict.axiom == "K2"
    assert verdict.sets == (frozenset({1}), frozenset({1}))
    assert {t.vertex[x] for x in _leaves_below(t, verdict.node)} == {0, 1}


def test_verify_hc_reports_the_left_of_two_failing_siblings():
    g = Graph(4)
    t = align_to_graph(newick_read("((v0,v1)0,(v2,v3)0)0;"), g)
    # both inner 0-nodes fail K3; the left one comes first in postorder
    verdict = verify_hc(g, t, {0: 1, 1: 2, 2: 3, 3: 4})
    assert not verdict.accepted
    assert {t.vertex[x] for x in _leaves_below(t, verdict.node)} == {0, 1}


def test_verify_hc_input_validation(k2_k1_k1, coloring_a):
    with pytest.raises(ValueError, match="cotree-not-binary"):
        verify_hc(k2_k1_k1, build_cotree(k2_k1_k1), coloring_a)
    wrong = align_to_graph(newick_read("((a,b)0,(c,d)0)0;"), k2_k1_k1)
    with pytest.raises(ValueError, match="cotree-graph-mismatch"):
        verify_hc(k2_k1_k1, wrong, coloring_a)
    # three leaves for four vertices; four leaves, one with vertex id 5
    three = newick_read("((0,1)1,2)0;")
    gap = Cotree()
    acc = gap.add_leaf(0)
    for v in (1, 2, 5):
        acc = gap.add_inner(0, [acc, gap.add_leaf(v)])
    gap.root = acc
    for t in (three, gap):
        assert is_binary(t)
        with pytest.raises(ValueError, match="cotree-graph-mismatch"):
            verify_hc(k2_k1_k1, t, coloring_a)


def test_is_hc_coloring(k2_k1_k1, coloring_a, coloring_b):
    assert is_hc_coloring(k2_k1_k1, coloring_a).accepted
    assert is_hc_coloring(k2_k1_k1, coloring_b).accepted
    two = Graph(2)
    verdict = is_hc_coloring(two, {0: 1, 1: 2})
    assert not verdict.accepted and verdict.axiom == "K3"
    assert is_hc_coloring(two, {0: 1, 1: 1}).accepted


def test_is_recursively_minimal(k2_k1_k1, coloring_b):
    # a coloring of a cograph is recursively minimal iff it is an
    # hc-coloring (theorem T3), so is_hc_coloring decides both
    assert is_hc_coloring(k2_k1_k1, coloring_b).accepted
    assert not is_hc_coloring(k2_k1_k1, {0: 1, 1: 2, 2: 3, 3: 3}).accepted
    k2_k1 = Graph(3, [(0, 1)])
    assert not is_hc_coloring(k2_k1, {0: 1, 1: 2, 2: 3}).accepted


def test_is_hc_coloring_rejects_non_cograph():
    p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(NotACographError):
        is_hc_coloring(p4, {0: 1, 1: 2, 2: 1, 3: 2})


def test_is_hc_coloring_adds_no_node_to_any_tree(monkeypatch):
    # the verdict is one pass over the discriminating cotree: given that
    # tree, is_hc_coloring makes no Cotree and adds no node to one; the
    # tree builders of cotree.py append to the arrays directly, so only a
    # new Cotree shows them
    g, _ = random_cograph(GenParams(n=60, seed=2))
    t = build_cotree(g)
    c, _ = alg1_color(g)
    bad = {**c, 0: max(c.values()) + 1}  # chi + 1 colors: not hc
    monkeypatch.setattr(cotree, "build_cotree", lambda h: t)
    monkeypatch.setattr(coloring, "build_cotree", lambda h: t, raising=False)
    added = []
    monkeypatch.setattr(Cotree, "add_leaf",
                        lambda self, v: added.append(v))
    monkeypatch.setattr(Cotree, "add_inner",
                        lambda self, label, kids: added.append(kids))
    init = Cotree.__init__

    def counted_init(self, names=None):
        added.append("new")
        init(self, names)

    monkeypatch.setattr(Cotree, "__init__", counted_init)
    assert is_hc_coloring(g, c).accepted
    assert not is_hc_coloring(g, bad).accepted
    assert added == []


def test_coloring_file_roundtrip(k2_k1_k1, coloring_a):
    text = write_coloring(k2_k1_k1, coloring_a)
    assert text == "a\t1\nb\t2\nc\t1\nd\t1\n"
    assert read_coloring(text, k2_k1_k1) == coloring_a
    # ids accepted too
    assert read_coloring("0\t1\n1\t2\n2\t1\n3\t1\n", k2_k1_k1) == coloring_a


@pytest.mark.parametrize("text", [
    "a\t1\n",                      # incomplete
    "a\t1\nb\t2\nc\t1\nz\t1\n",    # unknown vertex
    "a\t0\nb\t2\nc\t1\nd\t1\n",    # color < 1
    "a\t1\na\t2\nc\t1\nd\t1\n",    # duplicate vertex
])
def test_coloring_file_rejects_malformed(k2_k1_k1, text):
    with pytest.raises(ValueError):
        read_coloring(text, k2_k1_k1)


@pytest.mark.parametrize("text, message", [
    ("a\t1\r#x\nb\t0\n", "line 3: bad color '0'"),
    ("a\t1 # c\r\n\r#x\r\nb 2#\nb\t2\n", "line 5: vertex 'b' colored twice"),
    ("#\x85a\t1\u2028b\t1\x1c\x1dq\t1\n", "line 5: unknown vertex 'q'"),
    ("a\t1\x1fb\n", "line 1: expected 'vertex<TAB>color'"),
])
def test_coloring_file_errors_name_the_line(k2_k1_k1, text, message):
    # a comment runs to the end of its line and leaves the line in place
    with pytest.raises(ValueError) as exc:
        read_coloring(text, k2_k1_k1)
    assert str(exc.value) == message

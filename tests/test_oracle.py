import itertools
import math
from collections import Counter

import pytest

from cograph_hc import (Graph, build_cotree, chromatic_number,
                        exhaustive_cographs, newick_write)
from cograph_hc import oracle

P4 = Graph(4, [(0, 1), (1, 2), (2, 3)])


def test_find_induced_p4():
    w = oracle.find_induced_p4(P4)
    assert w is not None and w.as_tuple() in ((0, 1, 2, 3), (3, 2, 1, 0))
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert oracle.find_induced_p4(c4) is None


def test_brute_chromatic():
    assert oracle.brute_chromatic(Graph(1)) == 1
    k4 = Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    assert oracle.brute_chromatic(k4) == 4
    assert oracle.brute_chromatic(Graph(4, [(0, 1)])) == 2
    with pytest.raises(ValueError, match="size-guard"):
        oracle.brute_chromatic(Graph(11))


def test_components():
    # the oracle's own components, as bitsets ordered by smallest member
    k2_k1_k1 = Graph(4, [(0, 1)])
    assert oracle._components(k2_k1_k1.adj, 0b1111) == [0b11, 0b100, 0b1000]
    assert oracle._components(Graph(1).adj, 1) == [1]
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert oracle._components(c4.adj, 0b1111) == [0b1111]
    assert oracle._components(c4.adj, 0b0101) == [0b1, 0b100]


def test_chromatic_over_a_vertex_mask():
    # the chromatic number of an induced subgraph, given by its bitset
    c5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert oracle._chromatic(c5.adj, 0b11111) == 3
    assert oracle._chromatic(c5.adj, 0b01111) == 2  # a path
    assert oracle._chromatic(c5.adj, 0b10100) == 1  # 2 and 4 apart
    assert oracle._chromatic(P4.adj, 0b0110) == 2


def test_brute_grundy():
    assert oracle.brute_grundy(Graph(1)) == 1
    # the 4-path is not well-colored: some order needs 3 colors
    assert oracle.brute_grundy(P4) == 3
    assert oracle.brute_chromatic(P4) == 2
    with pytest.raises(ValueError, match="size-guard"):
        oracle.brute_grundy(Graph(9))


def test_lowest_zero_table_is_the_lowest_clear_bit():
    assert oracle._LOWEST_ZERO == tuple(
        next(i for i in range(12) if not m >> i & 1) for m in range(1 << 11))


def test_grundy_equals_chi_on_small_cographs(small_cographs):
    for g in small_cographs:
        if g.n > 4:
            break
        t = build_cotree(g)
        assert (oracle.brute_grundy(g) == oracle.brute_chromatic(g)
                == chromatic_number(t))


def test_all_min_colorings():
    assert len(oracle.all_min_colorings(Graph(1))) == 1
    assert len(oracle.all_min_colorings(Graph(2, [(0, 1)]))) == 2
    assert len(oracle.all_min_colorings(Graph(4, [(0, 1)]))) == 8


def test_all_set_partitions_bell_numbers():
    # on an edgeless graph every set partition is proper
    for n, bell in [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52), (6, 203)]:
        assert len(oracle.proper_partitions(Graph(n))) == bell


def _reference_set_partitions(n):
    """Every partition of {0..n-1} as sorted blocks, each vertex joining
    the open blocks in order and then a new one."""
    out = []

    def rec(v, blocks):
        if v == n:
            out.append(tuple(tuple(b) for b in blocks))
            return
        for b in blocks:
            b.append(v)
            rec(v + 1, blocks)
            b.pop()
        blocks.append([v])
        rec(v + 1, blocks)
        blocks.pop()

    rec(0, [])
    return out


def test_colorings_are_generated_in_the_filtered_order():
    # proper_partitions and all_min_colorings prune their search; they
    # must give the same colorings, in the same order and with the same
    # dict order, as filtering every set partition or every assignment
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        partitions = _reference_set_partitions(n)
        for mask in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            g = Graph(n, edges)
            expect = []
            for blocks in partitions:
                c = {v: i for i, b in enumerate(blocks, start=1) for v in b}
                if all(c[u] != c[v] for u, v in edges):
                    expect.append(list(c.items()))
            assert [list(c.items())
                    for c in oracle.proper_partitions(g)] == expect
            k = oracle.brute_chromatic(g)
            expect = [list(enumerate(a))
                      for a in itertools.product(range(1, k + 1), repeat=n)
                      if len(set(a)) == k
                      and all(a[u] != a[v] for u, v in edges)]
            assert [list(c.items())
                    for c in oracle.all_min_colorings(g)] == expect


def test_all_binary_cotrees(k2_k1_k1):
    assert len(oracle.all_binary_cotrees(Graph(1))) == 1
    k2 = Graph(2, [(0, 1)])
    trees = oracle.all_binary_cotrees(k2)
    assert len(trees) == 1 and trees[0].label[trees[0].root] == 1

    plain = Graph(4, [(0, 1)])
    newicks = {newick_write(t) for t in oracle.all_binary_cotrees(plain)}
    assert "(((v0,v1)1,v2)0,v3)0;" in newicks
    assert "((v0,v1)1,(v2,v3)0)0;" in newicks
    for t in oracle.all_binary_cotrees(plain):
        from cograph_hc import realizes
        assert realizes(t, plain)


def test_binary_cotree_enumeration_is_exhaustive():
    # (2n-3)!! topologies x 2^(n-1) labelings, each realizing one graph
    from cograph_hc import realizes
    pairs = list(itertools.combinations(range(4), 2))
    total = 0
    for mask in range(1 << 6):
        g = Graph(4, [pairs[i] for i in range(6) if mask >> i & 1])
        trees = oracle.all_binary_cotrees(g)
        assert all(realizes(t, g) for t in trees)
        assert len({newick_write(t) for t in trees}) == len(trees)
        total += len(trees)
    assert total == 15 * 8


def _reference_cotree_index(n):
    """Every labeled binary cotree on leaves 0..n-1 as Newick text, grouped
    by the adjacency of the graph it realizes: all (2n-3)!! topologies,
    each with all 2^(n-1) labelings. The oracle kept this index for the
    whole process before it enumerated the trees of each graph on its
    own."""
    memo = {}

    def topologies(leaves):
        if leaves not in memo:
            if len(leaves) == 1:
                memo[leaves] = [leaves[0]]
            else:
                out = []
                first, rest = leaves[0], leaves[1:]
                for r in range(len(rest)):
                    for extra in itertools.combinations(rest, r):
                        left = (first, *extra)
                        right = tuple(v for v in rest if v not in extra)
                        out.extend((tl, tr) for tl in topologies(left)
                                   for tr in topologies(right))
                memo[leaves] = out
        return memo[leaves]

    index = {}
    for struct in topologies(tuple(range(n))):
        for labelbits in range(1 << (n - 1)):
            labels = iter(range(n - 1))
            adj = [0] * n

            def build(s):
                if isinstance(s, int):
                    return f"v{s}", 1 << s
                label = labelbits >> next(labels) & 1
                (t1, m1), (t2, m2) = build(s[0]), build(s[1])
                if label:
                    for u in range(n):
                        if m1 >> u & 1:
                            adj[u] |= m2
                        elif m2 >> u & 1:
                            adj[u] |= m1
                return f"({t1},{t2}){label}", m1 | m2

            text, _ = build(struct)
            index.setdefault(tuple(adj), []).append(text + ";")
    return index


def test_per_graph_enumeration_matches_the_global_index():
    # the same trees, in the same order, on every graph with n <= 5
    # (non-cographs have none) and on every 50th cograph with n = 6
    for n in range(1, 6):
        index = _reference_cotree_index(n)
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = Graph(n, [pairs[i] for i in range(len(pairs))
                          if mask >> i & 1])
            assert [newick_write(t) for t in oracle.all_binary_cotrees(g)] \
                == index.get(g.adj, [])
    index = _reference_cotree_index(6)
    for g in list(exhaustive_cographs(6))[::50]:
        assert [newick_write(t) for t in oracle.all_binary_cotrees(g)] \
            == index[g.adj]


def test_check_theorems_skips_non_cographs():
    reports = oracle.check_theorems([P4])
    for rep in reports:
        assert rep.passed and rep.checked == 0 and rep.skipped == 1
        assert any("not-a-cograph" in note for note in rep.notes)


def test_check_theorems_size_guards():
    # L3 and T-greedy-iff stop at n = 5, every other check at n = 6
    k6, k7 = (Graph(n, itertools.combinations(range(n), 2)) for n in (6, 7))
    for rep in oracle.check_theorems([k6, k7]):
        guarded = [0, 1] if rep.theorem_id in ("L3", "T-greedy-iff") else [1]
        assert (rep.checked, rep.skipped) == (2 - len(guarded), len(guarded))
        assert [note for note in rep.notes if "size-guard" in note] \
            == [f"instance {i}: size-guard" for i in guarded]


def test_check_theorems_rejects_unknown_id():
    with pytest.raises(ValueError, match="unknown theorem id"):
        oracle.check_theorems([Graph(1)], ["T99"])


def test_check_theorems_rejects_a_repeated_id():
    with pytest.raises(ValueError, match="duplicate theorem id 'T1'"):
        oracle.check_theorems([Graph(1)], ["T1", "L2", "T1"])


def test_check_theorems_small_corpus():
    corpus = []
    from cograph_hc import exhaustive_cographs
    for n in range(1, 5):
        corpus.extend(exhaustive_cographs(n))
    reports = oracle.check_theorems(corpus)
    by_id = {r.theorem_id: r for r in reports}
    for tid in ("T1", "L2", "L3", "T-greedy-iff", "T3", "T4", "COUNT"):
        assert by_id[tid].passed, by_id[tid].counterexamples[:3]
    assert "PASS" in by_id["T1"].render()


def test_greedy_iff_detects_known_failure_at_n5():
    # the equivalence between greedy colorings and colorings that are hc
    # w.r.t. every binary cotree genuinely fails at n = 5; the check must
    # surface it rather than hide it
    g = Graph(5, [(0, 1), (0, 2), (0, 3), (1, 2)])  # paw + isolated vertex
    rep = oracle.check_theorems([g], ["T-greedy-iff"])[0]
    assert not rep.passed
    kinds = {ce[1] for ce in rep.counterexamples}
    assert kinds == {"hc-everywhere-not-greedy"}
    parts = {tuple(map(tuple, ce[2])) for ce in rep.counterexamples}
    assert ((0,), (1, 4), (2, 3)) in parts


def test_report_render_contract():
    rep = oracle.TheoremReport("T1", checked=3)
    assert rep.render() == "THEOREM T1 PASS checked=3 counterexamples=0"
    rep.counterexamples.append(("x",))
    assert rep.render() == "THEOREM T1 FAIL checked=3 counterexamples=1"


def test_sweep_runs_greedy_and_verify_hc_once_per_distinct_call(monkeypatch):
    # each instance's greedy runs are enumerated once and shared by every
    # check that needs them, and so is its one discriminating cotree; the
    # tree verdicts come from the oracle's own kernel, so verify_hc, which
    # they are meant to check, is never called
    import cograph_hc
    from cograph_hc import coloring, cotree, hc_algorithms
    corpus = [g for n in range(1, 5) for g in exhaustive_cographs(n)]
    greedy_calls: Counter = Counter()
    tree_calls: Counter = Counter()
    verify_calls = []
    greedy, verify = oracle.greedy_coloring, coloring.verify_hc
    build = cotree.build_cotree

    def counting_build(g):
        tree_calls[g] += 1
        return build(g)

    def counting_greedy(g, order):
        greedy_calls[g] += 1
        return greedy(g, order)

    def counting_verify(*args, **kwargs):
        verify_calls.append(args)
        return verify(*args, **kwargs)

    monkeypatch.setattr(oracle, "greedy_coloring", counting_greedy)
    # the package first: it reads its exports from their home modules, so
    # patched second it would be restored to counting_verify
    monkeypatch.setattr(cograph_hc, "verify_hc", counting_verify)
    monkeypatch.setattr(coloring, "verify_hc", counting_verify)
    for space in (cotree, coloring, hc_algorithms, oracle):
        monkeypatch.setattr(space, "build_cotree", counting_build,
                            raising=False)
    reports = oracle.check_theorems(corpus)
    assert all(r.passed and r.checked == len(corpus) for r in reports)
    assert set(greedy_calls) == set(corpus)
    assert all(k <= math.factorial(g.n) for g, k in greedy_calls.items())
    assert set(tree_calls) == set(corpus)
    assert max(tree_calls.values()) == 1
    assert verify_calls == [] and not hasattr(oracle, "verify_hc")


def test_verify_hc_agrees_with_the_oracle_kernel(small_cographs):
    # verify_hc against the kernel's verdicts on every (proper partition,
    # tree) and (minimum coloring, tree) pair with n <= 5; a rejection must
    # name an inner node, the color sets of its two children, and a real
    # K2 (join, sets meet) or K3 (union, neither set holds the other)
    from cograph_hc import verify_hc
    from cograph_hc.graph import bits
    pairs = 0
    for g in small_cographs:
        ctx = oracle._GraphCtx(g)
        trees = ctx.trees
        masks = [t.leaf_masks() for t in trees]
        for c in ctx.partitions + oracle.all_min_colorings(g):
            for t, m, kernel in zip(trees, masks, ctx.verdicts(c)):
                pairs += 1
                verdict = verify_hc(g, t, c, check_tree=False)
                assert verdict.accepted == kernel, (g, t, c)
                if kernel:
                    continue
                u = verdict.node
                assert not t.is_leaf(u), (g, t, c)
                a, b = ({c[v] for v in bits(m[k])} for k in t.children[u])
                assert verdict.sets == (frozenset(a), frozenset(b))
                if verdict.axiom == "K2":
                    assert t.label[u] == 1 and a & b, (g, t, c)
                else:
                    assert verdict.axiom == "K3" and t.label[u] == 0
                    assert not (a <= b or b <= a), (g, t, c)
    assert pairs > 10_000


def test_sweep_keeps_no_trees_once_it_returns():
    # nothing the sweep enumerates outlives it: after the two checks that
    # read every tree, on 100 cographs with n = 6, and with the reports
    # dropped, under 2 MB is held
    import gc
    import tracemalloc
    corpus = list(exhaustive_cographs(6))[::55][:100]
    assert len(corpus) == 100
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        reports = oracle.check_theorems(corpus, ["T1", "COUNT"])
        assert all(r.checked == 100 for r in reports)
        del reports
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 2 * 2**20, held


def test_l2_draws_the_same_sampled_orders_at_n6(monkeypatch):
    # at n = 6 L2 samples 200 orders per instance from the per-instance
    # stream; a planted greedy fault (a fresh color for the last vertex of
    # every order starting 0, 1) exposes the orders drawn, which are pinned
    corpus = list(exhaustive_cographs(6))[::1500]
    greedy = oracle.greedy_coloring

    def faulty(g, order):
        c = greedy(g, order)
        if tuple(order[:2]) == (0, 1):
            c[order[-1]] = max(c.values()) + 1
        return c

    monkeypatch.setattr(oracle, "greedy_coloring", faulty)
    rep, = oracle.check_theorems(corpus, ["L2"], seed=3)
    assert (rep.checked, rep.skipped) == (4, 0)
    assert rep.notes == [f"instance {i}: sampled 200 orders"
                         for i in range(4)]
    # (instance, order, "gamma>chi" or the component whose colors broke)
    expected = [(0, "014523", "gamma>chi"), (0, "012543", "gamma>chi"),
                (0, "014325", "gamma>chi"), (0, "013542", "gamma>chi"),
                (0, "015432", "gamma>chi"), (0, "012354", "gamma>chi"),
                (0, "013524", "gamma>chi"), (0, "015342", "gamma>chi"),
                (1, "013524", "12345"), (1, "012453", "12345"),
                (2, "015234", "gamma>chi"), (2, "014532", "01245"),
                (3, "014253", "gamma>chi"), (3, "012435", "012345"),
                (3, "012345", "012345"), (3, "012354", "gamma>chi"),
                (3, "013245", "012345"), (3, "013452", "012345"),
                (3, "014532", "012345")]
    def digits(s):
        return tuple(map(int, s))

    assert rep.counterexamples == [
        (i, digits(order), kind if kind == "gamma>chi" else digits(kind))
        for i, order, kind in expected]

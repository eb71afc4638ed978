import itertools
import math
from collections import Counter
from functools import cached_property

import pytest

from cograph_hc import (Cotree, Graph, build_cotree, exhaustive_cographs,
                        newick_write, verify_hc)
from cograph_hc import oracle
from conftest import chromatic_number

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


def test_check_theorems_notes_the_empty_graph():
    # the empty graph is skipped as empty, not as a non-cograph
    for rep in oracle.check_theorems([Graph(0), P4, Graph(1)]):
        assert (rep.checked, rep.skipped) == (1, 2)
        assert rep.notes == ["instance 0: empty-graph",
                             "instance 1: not-a-cograph"]


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
    # check that needs them, and so are its one discriminating cotree and
    # its chromatic numbers; the tree verdicts come from the oracle's own
    # kernel, so verify_hc, which they are meant to check, is never called
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

    min_colorings = {g: len(oracle.all_min_colorings(g)) for g in corpus}
    witness_calls: Counter = Counter()
    chromatic_calls: Counter = Counter()
    witness, chromatic = oracle.is_greedy, oracle._chromatic

    def counting_witness(g, c):
        witness_calls[g] += 1
        return witness(g, c)

    def counting_chromatic(adj, mask):
        chromatic_calls[adj, mask] += 1
        return chromatic(adj, mask)

    monkeypatch.setattr(oracle, "is_greedy", counting_witness)
    monkeypatch.setattr(oracle, "_chromatic", counting_chromatic)
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
    assert all(k == math.factorial(g.n) for g, k in greedy_calls.items())
    # is_greedy once per labeled minimum coloring, each chromatic number
    # once per vertex set of an instance
    assert witness_calls == min_colorings
    assert max(chromatic_calls.values()) == 1
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


def test_l2_pins_its_counterexamples_over_every_order_at_n5(small_cographs,
                                                            monkeypatch):
    # the n <= 5 twin of the test above: L2 runs every order, decides each
    # distinct coloring once and still reports every failing order, in
    # permutation order; the same planted fault pins the list
    corpus = small_cographs[3::110]
    greedy = oracle.greedy_coloring

    def faulty(g, order):
        c = greedy(g, order)
        if tuple(order[:2]) == (0, 1):
            c[order[-1]] = max(c.values()) + 1
        return c

    monkeypatch.setattr(oracle, "greedy_coloring", faulty)
    rep, = oracle.check_theorems(corpus, ["L2"], seed=3)
    assert [g.n for g in corpus] == [3, 5, 5, 5, 5]
    assert (rep.checked, rep.skipped, rep.notes) == (5, 0, [])
    expected = [(0, "012", "gamma>chi"), (1, "01234", "014"),
                (1, "01243", "gamma>chi"), (1, "01324", "014"),
                (1, "01342", "gamma>chi"), (1, "01423", "gamma>chi"),
                (1, "01432", "gamma>chi"), (2, "01234", "gamma>chi"),
                (2, "01243", "gamma>chi"), (2, "01324", "gamma>chi"),
                (2, "01342", "gamma>chi"), (2, "01423", "gamma>chi"),
                (2, "01432", "gamma>chi"), (3, "01234", "134"),
                (3, "01243", "134"), (3, "01324", "134"),
                (3, "01342", "gamma>chi"), (3, "01423", "134"),
                (3, "01432", "gamma>chi"), (4, "01234", "01234"),
                (4, "01243", "01234"), (4, "01324", "01234"),
                (4, "01342", "gamma>chi"), (4, "01423", "01234"),
                (4, "01432", "gamma>chi")]

    def digits(s):
        return tuple(map(int, s))

    assert rep.counterexamples == [
        (i, digits(order), kind if kind == "gamma>chi" else digits(kind))
        for i, order, kind in expected]


def test_l3_reports_each_tree_a_planted_coloring_fails(monkeypatch):
    # L3 lists trees only when some enumerated triple fails; a planted
    # non-greedy coloring must still be reported once per tree it fails,
    # in the enumeration's order, and a greedy one not at all
    g = Graph(4, [(0, 1)])  # an edge and two isolated vertices
    # the isolated vertices colored 1 and 2 fail K3 where they are siblings
    good, bad = (1, 2, 1, 1), (1, 2, 1, 2)
    monkeypatch.setattr(oracle._GraphCtx, "greedy_runs",
                        property(lambda self: {(0,): good, (1,): bad}))
    rep, = oracle.check_theorems([g], ["L3"])
    trees = oracle.all_binary_cotrees(g)
    failed = [t for t in trees
              if not verify_hc(g, t, dict(enumerate(bad))).accepted]
    assert all(verify_hc(g, t, dict(enumerate(good))).accepted
               for t in trees)
    assert 0 < len(failed) < len(trees)
    assert rep.checked == 1
    assert [(i, flat, newick_write(t)) for i, flat, t in rep.counterexamples] \
        == [(0, bad, newick_write(t)) for t in failed]


# -- the sweep's earlier checks, kept as a differential reference -------------
# L2 decided every order's coloring afresh, T-greedy-iff ran the verdict
# kernel on every labeled minimum coloring, and every chromatic number was a
# fresh search. Each check of the sweep must report exactly what these did.

def reference_greedy_run(g, order):
    c = oracle.greedy_coloring(g, order)
    return tuple(c[v] for v in range(g.n))


class ReferenceCtx(oracle._GraphCtx):
    @cached_property
    def chi(self):
        return oracle.brute_chromatic(self.g)

    @cached_property
    def greedy_runs(self):
        return {order: reference_greedy_run(self.g, order)
                for order in itertools.permutations(range(self.g.n))}

    @cached_property
    def node_chis(self):
        return [(mask, bit, oracle._chromatic(self.g.adj, mask))
                for mask, bit in self.index.node_masks.items()]


def reference_check_l2(rep, idx, ctx, rng):
    g = ctx.g
    if g.n <= 5:
        runs = ctx.greedy_runs.items()
    else:
        pool = list(range(g.n))
        orders = [tuple(rng.sample(pool, g.n)) for _ in range(200)]
        runs = [(order, reference_greedy_run(g, order)) for order in orders]
        rep.notes.append(f"instance {idx}: sampled 200 orders")
    masks = oracle._components(g.adj, (1 << g.n) - 1)
    comps = [tuple(oracle.bits(m)) for m in masks]
    comp_chi = [oracle._chromatic(g.adj, m) for m in masks]
    for order, flat in runs:
        if len(set(flat)) != ctx.chi:
            rep.counterexamples.append((idx, order, "gamma>chi"))
            continue
        for comp, k in zip(comps, comp_chi):
            if {flat[v] for v in comp} != set(range(1, k + 1)):
                rep.counterexamples.append((idx, order, comp))
    rep.checked += 1


def reference_check_l3(rep, idx, ctx, rng):
    for flat in set(ctx.greedy_runs.values()):
        verdicts = ctx.verdicts(dict(enumerate(flat)))
        for i, accepted in enumerate(verdicts):
            if not accepted:
                rep.counterexamples.append((idx, flat, ctx.trees[i]))
    rep.checked += 1


def reference_check_greedy_iff(rep, idx, ctx, rng):
    g = ctx.g
    greedy_set = set(ctx.greedy_runs.values())
    hc_parts = set()
    for c in oracle.all_min_colorings(g):
        flat = tuple(c[v] for v in range(g.n))
        if all(ctx.verdicts(c)):
            hc_parts.add(oracle._partition_key(c, g.n))
        by_orders = flat in greedy_set
        by_witness = oracle.is_greedy(g, c)
        if by_orders != by_witness:
            rep.counterexamples.append(
                (idx, flat, "orders", by_orders, "witness", by_witness))
    greedy_parts = {oracle._partition_key(dict(enumerate(flat)), g.n)
                    for flat in greedy_set}
    for part in sorted(hc_parts - greedy_parts,
                       key=lambda p: sorted(map(sorted, p))):
        rep.counterexamples.append(
            (idx, "hc-everywhere-not-greedy", sorted(map(sorted, part))))
    for part in sorted(greedy_parts - hc_parts,
                       key=lambda p: sorted(map(sorted, p))):
        rep.counterexamples.append(
            (idx, "greedy-not-hc-everywhere", sorted(map(sorted, part))))
    rep.checked += 1


def sweep_outcome(corpus, seed, theorems=None):
    """Each report's line, counterexamples (trees as Newick), notes and
    skip count."""
    def plain(ce):
        return tuple(newick_write(x) if isinstance(x, Cotree) else x
                     for x in ce)

    return [(r.render(), [plain(ce) for ce in r.counterexamples], r.notes,
             r.skipped)
            for r in oracle.check_theorems(corpus, theorems, seed=seed)]


def reference_outcome(monkeypatch, corpus, seed, theorems=None):
    with monkeypatch.context() as m:
        m.setattr(oracle, "_GraphCtx", ReferenceCtx)
        m.setitem(oracle._CHECKS, "L2", reference_check_l2)
        m.setitem(oracle._CHECKS, "L3", reference_check_l3)
        m.setitem(oracle._CHECKS, "T-greedy-iff", reference_check_greedy_iff)
        return sweep_outcome(corpus, seed, theorems)


PAW_K1 = Graph(5, [(0, 1), (0, 2), (0, 3), (1, 2)])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sweep_matches_the_reference_at_n5(small_cographs, monkeypatch, seed):
    got = sweep_outcome(small_cographs, seed)
    assert got == reference_outcome(monkeypatch, small_cographs, seed)
    assert [r[0] for r in got if "PASS" not in r[0]] \
        == ["THEOREM T-greedy-iff FAIL checked=535 counterexamples=120"]


def test_sweep_matches_the_reference_at_n6_and_on_the_paw(monkeypatch):
    corpus = list(exhaustive_cographs(6))[::25] + [PAW_K1]
    want = reference_outcome(monkeypatch, corpus, 0)
    assert sweep_outcome(corpus, 0) == want
    assert len(corpus) == 222
    assert want[1][2][:1] == ["instance 0: sampled 200 orders"]  # L2


def plant_greedy_fault(monkeypatch):
    greedy = oracle.greedy_coloring

    def faulty(g, order):  # a fresh color for the last vertex of some orders
        c = greedy(g, order)
        if order[0] > order[-1]:
            c[order[-1]] = max(c.values()) + 1
        return c

    monkeypatch.setattr(oracle, "greedy_coloring", faulty)


def plant_witness_fault(monkeypatch):
    witness = oracle.is_greedy
    monkeypatch.setattr(oracle, "is_greedy",
                        lambda g, c: witness(g, c) != (c[0] == 2))


@pytest.mark.parametrize("plant", [plant_greedy_fault, plant_witness_fault])
def test_sweep_matches_the_reference_under_a_planted_fault(small_cographs,
                                                           monkeypatch,
                                                           plant):
    # the faults make each check report, so the counterexample lists are
    # compared too, not only empty ones
    corpus = small_cographs[::3] + list(exhaustive_cographs(6))[::250]
    theorems = ["L2", "L3", "T-greedy-iff"]
    plant(monkeypatch)
    got = sweep_outcome(corpus, 5, theorems)
    assert got == reference_outcome(monkeypatch, corpus, 5, theorems)
    fails = {r[0].split()[1] for r in got if r[1]}
    assert fails >= ({"L2", "L3", "T-greedy-iff"}
                     if plant is plant_greedy_fault else {"T-greedy-iff"})

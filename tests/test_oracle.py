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


def test_brute_grundy():
    assert oracle.brute_grundy(Graph(1)) == 1
    # the 4-path is not well-colored: some order needs 3 colors
    assert oracle.brute_grundy(P4) == 3
    assert oracle.brute_chromatic(P4) == 2
    with pytest.raises(ValueError, match="size-guard"):
        oracle.brute_grundy(Graph(9))


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
    for n, bell in [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52), (6, 203)]:
        assert len(oracle.all_set_partitions(n)) == bell


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
    # (2n-3)!! topologies x 2^(n-1) labelings, grouped by realized graph
    index = oracle._binary_cotree_index(4)
    assert sum(len(v) for v in index.values()) == 15 * 8


def test_check_theorems_skips_non_cographs():
    reports = oracle.check_theorems([P4])
    for rep in reports:
        assert rep.passed and rep.checked == 0 and rep.skipped == 1
        assert any("not-a-cograph" in note for note in rep.notes)


def test_check_theorems_rejects_unknown_id():
    with pytest.raises(ValueError, match="unknown theorem id"):
        oracle.check_theorems([Graph(1)], ["T99"])


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


def test_check_theorems_chunking_matches_serial():
    from cograph_hc import exhaustive_cographs
    corpus = list(exhaustive_cographs(3)) + list(exhaustive_cographs(4))
    serial = oracle.check_theorems(corpus, ["L2", "T4"], seed=5)
    half = len(corpus) // 2
    parts = [oracle.check_theorems(corpus[:half], ["L2", "T4"], seed=5),
             oracle.check_theorems(corpus[half:], ["L2", "T4"], seed=5,
                                   start_index=half)]
    merged = oracle.merge_reports(parts)
    for a, b in zip(serial, merged):
        assert a.theorem_id == b.theorem_id
        assert a.checked == b.checked and a.skipped == b.skipped
        assert a.counterexamples == b.counterexamples


def test_report_render_contract():
    rep = oracle.TheoremReport("T1", checked=3)
    assert rep.render() == "THEOREM T1 PASS checked=3 counterexamples=0"
    rep.counterexamples.append(("x",))
    assert rep.render() == "THEOREM T1 FAIL checked=3 counterexamples=1"


def test_sweep_runs_greedy_and_verify_hc_once_per_distinct_call(monkeypatch):
    # each instance's greedy runs and cotree verdicts are enumerated once
    # and shared by every check that needs them
    corpus = [g for n in range(1, 5) for g in exhaustive_cographs(n)]
    greedy_calls: Counter = Counter()
    verify_calls: Counter = Counter()
    greedy, verify = oracle.greedy_coloring, oracle.verify_hc

    def counting_greedy(g, order):
        greedy_calls[g] += 1
        return greedy(g, order)

    def counting_verify(g, t, c, check_tree=True):
        verify_calls[g, tuple(c[v] for v in range(g.n)), id(t)] += 1
        return verify(g, t, c, check_tree)

    monkeypatch.setattr(oracle, "greedy_coloring", counting_greedy)
    monkeypatch.setattr(oracle, "verify_hc", counting_verify)
    reports = oracle.check_theorems(corpus)
    assert all(r.passed and r.checked == len(corpus) for r in reports)
    assert set(greedy_calls) == set(corpus)
    assert all(k <= math.factorial(g.n) for g, k in greedy_calls.items())
    assert verify_calls and max(verify_calls.values()) == 1


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

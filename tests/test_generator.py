import tracemalloc
from itertools import combinations

import pytest

from cograph_hc import (GenParams, Graph, P4Witness, build_cotree,
                        exhaustive_cographs, random_cograph, realizes)
from cograph_hc.oracle import _has_p4_through, find_induced_p4
from conftest import is_discriminating

# labeled cograph counts, frozen after exhaustive P4-free filtering
# (OEIS A006351)
COGRAPH_COUNTS = {1: 1, 2: 2, 3: 8, 4: 52, 5: 472, 6: 5504, 7: 78416}


def scan_cographs(n):
    """The reference order: every edge mask over the lexicographic vertex
    pairs in increasing order, kept iff no vertex quadruple is a P4."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for mask in range(1 << len(pairs)):
        g = Graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
        if find_induced_p4(g) is None:
            yield g


def test_genparams_validation():
    with pytest.raises(ValueError):
        GenParams(n=0)
    with pytest.raises(ValueError):
        GenParams(n=3, max_arity=1)
    with pytest.raises(ValueError):
        GenParams(n=3, balance=1.5)


def test_exhaustive_counts():
    for n in range(1, 7):
        assert sum(1 for _ in exhaustive_cographs(n)) == COGRAPH_COUNTS[n]


def test_exhaustive_streams_unique_graphs():
    seen = set(exhaustive_cographs(4))
    assert len(seen) == COGRAPH_COUNTS[4]


def test_exhaustive_matches_the_scan_in_order():
    # tests slice this sequence and the oracle seeds by instance index,
    # so the one-vertex extension must keep the scan's order exactly
    for n in range(1, 7):
        assert ([g.adj for g in exhaustive_cographs(n)]
                == [g.adj for g in scan_cographs(n)]), n


def test_exhaustive_n7_streams_in_constant_memory():
    tracemalloc.start()
    try:
        count = sum(1 for _ in exhaustive_cographs(7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == COGRAPH_COUNTS[7]
    assert peak < 1 << 20


def test_p4_through_matches_the_quadruple_search():
    # every graph on 5 vertices and every v: a P4 through v is found
    # exactly when some quadruple holding v induces a P4, and rows other
    # than v's give the same answer without v's bit
    n = 5
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for mask in range(1 << len(pairs)):
        adj = Graph(n, [p for i, p in enumerate(pairs)
                        if mask >> i & 1]).adj
        for v in range(n):
            through = any(
                sorted((adj[x] & sum(1 << y for y in q)).bit_count()
                       for x in q) == [1, 1, 2, 2]
                for q in combinations(range(n), 4) if v in q)
            bare = [row if u == v else row & ~(1 << v)
                    for u, row in enumerate(adj)]
            assert _has_p4_through(list(adj), v) is through
            assert _has_p4_through(bare, v) is through


def test_exhaustive_size_guard():
    with pytest.raises(ValueError, match="size-guard"):
        list(exhaustive_cographs(8))


def test_random_cograph_singleton():
    g, t = random_cograph(GenParams(n=1))
    assert g.n == 1 and t.is_leaf(t.root)


def test_random_cograph_deterministic():
    a = random_cograph(GenParams(n=10, seed=42))
    b = random_cograph(GenParams(n=10, seed=42))
    assert a[0] == b[0] and a[1] == b[1]
    c = random_cograph(GenParams(n=10, seed=43))
    assert a[0] != c[0] or a[1] != c[1]


def test_random_cograph_ground_truth_cotree():
    for seed in range(30):
        g, t = random_cograph(GenParams(n=12, seed=seed, max_arity=4))
        assert realizes(t, g)
        assert not isinstance(build_cotree(g), P4Witness)


def test_random_cograph_respects_arity():
    for seed in range(10):
        _, t = random_cograph(GenParams(n=15, seed=seed, max_arity=2))
        assert all(len(kids) <= 2 for kids in t.children)


def test_balance_one_gives_discriminating_cotree():
    for seed in range(10):
        _, t = random_cograph(GenParams(n=12, seed=seed, balance=1.0))
        assert is_discriminating(t)

"""The cotree-pass verifiers at large n, against definitions written here.

`is_hc_coloring`, `reconstruct_cotree`, `realized_graph`, `is_proper` and
`is_greedy` are bottom-up or top-down passes over one cotree with bitmasks.
These tests run them far beyond the oracle's reach (n <= 6): on a random
cograph with 2000 vertices and on deep caterpillars, and compare the
bitmask verifiers, and the witnesses behind `is_proper` and `is_greedy`,
with per-edge definitions.
"""

import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from cograph_hc import (GenParams, Graph, InjectionChooser,
                        NotHcColoringError, Verdict, alg1_color, build_cotree,
                        exhaustive_cographs, greedy_coloring, is_binary,
                        is_greedy, is_hc_coloring,
                        is_proper, newick_write, random_cograph,
                        realized_graph, realizes, reconstruct_cotree,
                        to_binary, verify_hc)
from cograph_hc.coloring import (_color_bits, _colors, _greedy_witness,
                                 _improper_edge)
from cograph_hc.oracle import proper_partitions
from conftest import chromatic_number, tree_of


def caterpillar(levels, leaves_per_level=1):
    """Cotree whose inner nodes alternate union/join down one spine; each
    level hangs `leaves_per_level` leaves off it. Vertices are numbered
    from the top."""
    spec = levels * leaves_per_level
    for level in range(levels - 1, -1, -1):
        first = level * leaves_per_level
        spec = (level % 2, *range(first, first + leaves_per_level), spec)
    return tree_of(spec)


@pytest.fixture(scope="module", params=["random-2000", "caterpillar-500"])
def instance(request):
    if request.param == "random-2000":
        g, _ = random_cograph(GenParams(n=2000, seed=7))
    else:
        g = realized_graph(caterpillar(500))
    c, _ = alg1_color(g, InjectionChooser("seeded-random", seed=3))
    return g, c


def test_is_hc_coloring_accepts_alg1_output(instance):
    g, c = instance
    assert is_hc_coloring(g, c).accepted


def test_chi_plus_one_colors_rejected_with_certificate(instance):
    g, c = instance
    chi = max(c.values())
    assert chi == chromatic_number(build_cotree(g))
    bad = dict(c)
    bad[g.n // 2] = chi + 1
    verdict = is_hc_coloring(g, bad)
    assert not verdict.accepted
    a, b = verdict.sets
    if verdict.axiom == "K2":
        assert a & b
    else:
        assert verdict.axiom == "K3"
        assert not (a <= b or b <= a)
    with pytest.raises(NotHcColoringError) as exc:
        reconstruct_cotree(g, bad)
    first, rest = exc.value.certificate
    assert first & rest or not first <= rest


def test_reconstruct_cotree_is_a_witness(instance):
    g, c = instance
    t = reconstruct_cotree(g, c)
    assert is_binary(t)
    assert realizes(t, g)
    assert verify_hc(g, t, c).accepted


def test_realized_graph_on_a_deep_caterpillar():
    t = caterpillar(1000, leaves_per_level=2)
    g = realized_graph(t)
    assert realized_graph(to_binary(t)) == g
    # the same graph by hand: vertices 2L and 2L+1 hang off level L, a join
    # iff L is odd, and vertex 2000 ends the spine, so vertices u < v are
    # adjacent iff u's level is odd
    n, full = 2001, (1 << 2001) - 1
    odd = sum(1 << u for u in range(n - 1) if u // 2 % 2)
    ref = tuple(odd & ((1 << v) - 1)
                | (full >> (v + 1) << (v + 1) if v // 2 % 2 else 0)
                for v in range(n))
    assert g.adj == ref


# -- bitmask is_proper / is_greedy against per-edge definitions ----------------

def proper_by_edges(g, c):
    return all(c[u] != c[v] for u, v in g.edges())


def greedy_by_edges(g, c):
    k = max(c.values())
    if set(c.values()) != set(range(1, k + 1)):
        return False
    seen = {v: set() for v in range(g.n)}
    for u, v in g.edges():
        seen[u].add(c[v])
        seen[v].add(c[u])
    return all(seen[v] >= set(range(1, c[v])) for v in range(g.n))


gen_params = st.builds(
    GenParams,
    n=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    max_arity=st.integers(min_value=2, max_value=5),
    balance=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)


@given(gen_params, st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=0, max_value=3))
@settings(max_examples=150, deadline=None)
def test_is_proper_and_is_greedy_match_edge_definitions(p, seed, changes):
    g, _ = random_cograph(p)
    rng = random.Random(seed)
    order = list(range(g.n))
    rng.shuffle(order)
    c = greedy_coloring(g, order)
    k = max(c.values())
    for _ in range(changes):
        c[rng.randrange(g.n)] = rng.randint(1, k + 1)
    proper = proper_by_edges(g, c)
    assert is_proper(g, c) == proper
    if proper:
        greedy = greedy_by_edges(g, c)
        assert is_greedy(g, c) == greedy
        if not greedy:  # the witness `verify` prints for greedy=no
            v, i = _greedy_witness(g, c)
            assert i < c[v]
            assert all(c[u] != i for u in range(g.n) if g.has_edge(u, v))
    else:
        u, v = _improper_edge(g, c)  # the witness for proper=no
        assert u < v and g.has_edge(u, v) and c[u] == c[v]
        with pytest.raises(ValueError, match="not-proper"):
            is_greedy(g, c)


def test_colors_need_not_be_small_integers():
    g = Graph(3, [(0, 1)])
    huge = 10**12
    assert is_proper(g, {0: huge, 1: 1, 2: 1})
    verdict = is_hc_coloring(g, {0: huge, 1: 1, 2: 7})
    assert not verdict.accepted and verdict.axiom == "K3"
    assert set(verdict.sets) == {frozenset({7}), frozenset({1, huge})}
    with pytest.raises(NotHcColoringError) as exc:
        reconstruct_cotree(g, {0: huge, 1: 1, 2: 7})
    assert exc.value.certificate == ({7}, {1, huge})


def test_verify_hc_memory_does_not_grow_with_color_values():
    g = Graph(3, [(0, 1)])
    t = to_binary(build_cotree(g))
    tracemalloc.start()
    try:
        verdict = verify_hc(g, t, {0: 10**9, 1: 1, 2: 1})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict.accepted
    assert peak < 1 << 20


def test_verify_hc_certificate_holds_the_original_colors():
    g = Graph(4, [(0, 1), (2, 3)])
    t = to_binary(build_cotree(g))
    big = 10**9
    verdict = verify_hc(g, t, {0: big, 1: 7, 2: 7, 3: 3 * big})
    assert not verdict.accepted and verdict.axiom == "K3"
    assert verdict.node == t.root
    assert verdict.sets == (frozenset({7, big}), frozenset({7, 3 * big}))
    verdict = verify_hc(g, t, {0: big, 1: big, 2: 1, 3: 2})
    assert not verdict.accepted and verdict.axiom == "K2"
    assert verdict.sets == (frozenset({big}), frozenset({big}))


# -- reconstruct_cotree gives the trees it gave before the bitmask pass --------

@pytest.mark.parametrize("edges,n,c,newick", [
    ([(0, 1)], 4, {0: 1, 1: 2, 2: 1, 3: 1}, "(v2,(v3,(v0,v1)1)0)0;"),
    ([(0, 1)], 4, {0: 1, 1: 2, 2: 1, 3: 2}, "(v2,(v3,(v0,v1)1)0)0;"),
    ([(0, 1), (3, 4), (3, 5), (4, 5)], 6, {0: 1, 1: 2, 2: 2, 3: 3, 4: 1, 5: 2},
     "(v2,((v0,v1)1,(v3,(v4,v5)1)1)0)0;"),
    ([(0, 1), (0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4)], 5,
     {0: 1, 1: 2, 2: 2, 3: 3, 4: 3}, "(v0,((v1,v2)0,(v3,v4)0)1)1;"),
    ([(0, 1), (0, 2), (0, 3), (1, 2)], 5, {0: 1, 1: 2, 2: 3, 3: 2, 4: 3},
     "(v4,(v0,(v3,(v1,v2)1)0)1)0;"),
    ([(u, v) for u in range(7) for v in range(7, 12)]
     + [(4, 6), (5, 6), (9, 10), (9, 11), (10, 11)], 12,
     {0: 1, 1: 1, 2: 2, 3: 1, 4: 1, 5: 1, 6: 2, 7: 3, 8: 3, 9: 4, 10: 5,
      11: 3},
     "((v0,(v1,(v2,(v3,((v4,v5)0,v6)1)0)0)0)0,(v7,(v8,(v9,(v10,v11)1)1)0)0)1;"),
])
def test_reconstruct_cotree_pinned_trees(edges, n, c, newick):
    assert newick_write(reconstruct_cotree(Graph(n, edges), c)) == newick


@pytest.mark.parametrize("edges,n,c,certificate", [
    ([], 4, {0: 2, 1: 1, 2: 2, 3: 1}, ({2}, {1})),
    ([], 4, {0: 1, 1: 2, 2: 2, 3: 3}, ({1}, {2, 3})),
    # the join (v0,v1) and the union's second comb node both fail; the join
    # comes first in preorder
    ([(0, 1), (3, 4), (3, 5), (4, 5)], 6, {0: 1, 1: 1, 2: 4, 3: 3, 4: 1, 5: 2},
     ({1}, {1})),
    ([(0, 1), (3, 4), (3, 5), (4, 5)], 6, {0: 1, 1: 2, 2: 3, 3: 3, 4: 1, 5: 1},
     ({1, 2}, {1, 3})),
])
def test_reconstruct_cotree_pinned_certificates(edges, n, c, certificate):
    with pytest.raises(NotHcColoringError) as exc:
        reconstruct_cotree(Graph(n, edges), c)
    assert exc.value.certificate == tuple(frozenset(s) for s in certificate)


def test_reconstruct_cotree_validates_colors_like_is_hc_coloring():
    g = Graph(3, [(0, 1)])
    c = {0: 0, 1: 1, 2: 1}
    for check in (is_hc_coloring, reconstruct_cotree):
        with pytest.raises(ValueError, match="colors must be positive"):
            check(g, c)


# -- the shared existential pass against the per-node pass it replaced --------

def per_node_is_hc(g, c):
    """Reference: a join's children need pairwise disjoint color masks, a
    union's one child mask equal to the OR of all; the first failing node
    in postorder decides."""
    t = build_cotree(g)
    bit, _ = _color_bits(c)
    masks = [0] * t.n_nodes()
    for u in range(t.n_nodes()):
        if t.is_leaf(u):
            masks[u] = bit[t.vertex[u]]
            continue
        kids = [masks[k] for k in t.children[u]]
        union = 0
        for m in kids:
            if t.label[u] == 1 and union & m:
                return False
            union |= m
        if t.label[u] == 0 and max(kids, key=int.bit_count) != union:
            return False
        masks[u] = union
    return True


def test_is_hc_coloring_decides_as_the_per_node_pass():
    rejections = 0
    for n in range(1, 6):
        for g in exhaustive_cographs(n):
            for c in proper_partitions(g):
                verdict = is_hc_coloring(g, c)
                assert verdict.accepted == per_node_is_hc(g, c)
                if verdict.accepted:
                    continue
                rejections += 1
                first, rest = verdict.sets
                if verdict.axiom == "K2":
                    assert first & rest
                else:
                    assert verdict.axiom == "K3"
                    assert not (first <= rest or rest <= first)
                with pytest.raises(NotHcColoringError) as exc:
                    reconstruct_cotree(g, c)
                assert exc.value.certificate == verdict.sets
    assert rejections == 4404


# -- verify_hc's depth-only tie-break against the preorder tie-break ----------

def preorder_verify_hc(g, t, c):
    """Reference: collect every failing node, then report the deepest,
    ties broken by smallest preorder index."""
    bit, palette = _color_bits(c)
    masks = [0] * t.n_nodes()
    failures = []
    for u in t.postorder():
        if t.is_leaf(u):
            masks[u] = bit[t.vertex[u]]
            continue
        m1, m2 = (masks[k] for k in t.children[u])
        masks[u] = m1 | m2
        if t.label[u] == 1 and m1 & m2:
            failures.append((u, "K2", m1, m2))
        elif t.label[u] == 0 and m1 & ~m2 and m2 & ~m1:
            failures.append((u, "K3", m1, m2))
    if not failures:
        return Verdict(True)
    depth, preorder, stack = {t.root: 0}, {}, [t.root]
    while stack:
        u = stack.pop()
        preorder[u] = len(preorder)
        for k in reversed(t.children[u]):
            depth[k] = depth[u] + 1
            stack.append(k)
    node, axiom, m1, m2 = min(
        failures, key=lambda f: (-depth[f[0]], preorder[f[0]]))
    return Verdict(False, node=node, axiom=axiom,
                   sets=(_colors(m1, palette), _colors(m2, palette)))


def test_verify_hc_tie_break_matches_preorder():
    rng = random.Random(11)
    rejections = 0
    for seed in range(600):
        g, t = random_cograph(GenParams(n=rng.randint(1, 30), seed=seed,
                                        max_arity=rng.randint(2, 5)))
        t = to_binary(t, rng.choice(["left-comb", "chi-ascending"]))
        k = rng.randint(1, g.n)
        c = {v: rng.randint(1, k) for v in range(g.n)}
        verdict = verify_hc(g, t, c, check_tree=False)
        assert verdict == preorder_verify_hc(g, t, c)
        rejections += not verdict.accepted
    assert rejections > 400

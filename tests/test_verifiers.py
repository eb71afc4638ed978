"""The cotree-pass verifiers at large n, against definitions written here.

`is_hc_coloring`, `reconstruct_cotree`, `realized_graph`, `is_proper` and
`is_greedy` are bottom-up or top-down passes over one cotree with bitmasks.
These tests run them far beyond the oracle's reach (n <= 6): on a random
cograph with 2000 vertices and on deep caterpillars, and compare the
bitmask verifiers, and the witnesses behind `is_proper` and `is_greedy`,
with per-edge definitions.
"""

import collections
import itertools
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from cograph_hc import (GenParams, Graph, InjectionChooser,
                        NotHcColoringError, Verdict, alg1_color,
                        align_to_graph, build_cotree, exhaustive_cographs,
                        greedy_coloring, is_binary, is_greedy,
                        is_hc_coloring, is_proper, newick_read, newick_write,
                        random_cograph, realized_graph, realizes,
                        reconstruct_cotree, to_binary, verify_hc,
                        write_edge_list)
from cograph_hc import cotree as cotree_module
from cograph_hc.cli import main
from cograph_hc.coloring import (_check_domain, _color_bits, _colors,
                                 _hc_fold, _witnesses)
from cograph_hc.oracle import proper_partitions
from conftest import (caterpillar_spec, chromatic_number,
                      reference_postorder, tree_of)


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
            v, i = _witnesses(g, c)[1]
            assert i < c[v]
            assert all(c[u] != i for u in range(g.n) if g.has_edge(u, v))
    else:
        u, v = _witnesses(g, c)[0]  # the witness for proper=no
        assert u < v and g.has_edge(u, v) and c[u] == c[v]
        with pytest.raises(ValueError, match="not-proper"):
            is_greedy(g, c)


# -- the witness pass against the two passes it replaced -----------------------

def _classes(g, c):
    """Per color, the vertex bitset of its class and of the class's
    neighbors."""
    _check_domain(g, c)
    cls = {}
    nbr = {}
    for v, col in c.items():
        cls[col] = cls.get(col, 0) | 1 << v
        nbr[col] = nbr.get(col, 0) | g.adj[v]
    return cls, nbr


def _low(mask):
    return (mask & -mask).bit_length() - 1


def parent_improper_edge(g, c):
    """Reference: `_improper_edge` before the witness pass. An edge (u, v),
    u < v, with both ends in one color class and the smallest such u, or
    None when c is proper."""
    cls, nbr = _classes(g, c)
    bad = 0
    for k in cls:
        bad |= cls[k] & nbr[k]
    if not bad:
        return None
    u = _low(bad)
    return u, _low(g.adj[u] & cls[c[u]])


def parent_greedy_witness(g, c):
    """Reference: `_greedy_witness` before the witness pass. A vertex v and
    a color i below v's color that no neighbor of v has, for the largest
    such i and then the lowest v, or None when some order produces c."""
    cls, nbr = _classes(g, c)
    if any(cls[k] & nbr[k] for k in cls):
        raise ValueError("not-proper")
    k = len(cls)
    above = 0
    for col, members in cls.items():
        if col > k:
            above |= members
    for j in range(k, 0, -1):
        bad = above & ~nbr.get(j, 0)
        if bad:
            return _low(bad), j
        above |= cls.get(j, 0)
    return None


def assert_witnesses_as_parent(g, c):
    """`_witnesses`, `is_proper` and `is_greedy` on one coloring against
    the references; True iff c is proper."""
    edge = parent_improper_edge(g, c)
    if edge is not None:
        assert _witnesses(g, c) == (edge, None)
        assert not is_proper(g, c)
        with pytest.raises(ValueError, match="not-proper"):
            is_greedy(g, c)
        return False
    missing = parent_greedy_witness(g, c)
    assert _witnesses(g, c) == (None, missing)
    assert is_proper(g, c)
    assert is_greedy(g, c) == (missing is None)
    return True


def test_witnesses_match_the_parent_passes_on_every_small_coloring():
    # every coloring with colors <= 3 of the 535 labeled cographs, n <= 5
    graphs = colorings = proper = 0
    for n in range(1, 6):
        for g in exhaustive_cographs(n):
            graphs += 1
            for colors in itertools.product(range(1, 4), repeat=n):
                colorings += 1
                proper += assert_witnesses_as_parent(g, dict(enumerate(colors)))
    assert graphs == 535
    assert 0 < proper < colorings


def test_witnesses_match_the_parent_passes_on_non_cographs():
    rng = random.Random(29)
    proper = 0
    for _ in range(400):
        n = rng.randint(1, 25)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                      if rng.random() < 0.3])
        order = list(range(n))
        rng.shuffle(order)
        c = greedy_coloring(g, order)
        k = max(c.values())
        for _ in range(rng.randint(0, 3)):
            c[rng.randrange(n)] = rng.randint(1, k + 1)
        proper += assert_witnesses_as_parent(g, c)
        c = {v: rng.randint(1, rng.randint(1, n)) for v in range(n)}
        proper += assert_witnesses_as_parent(g, c)
    assert 0 < proper < 800


@pytest.mark.parametrize("n", [300, 3000])
def test_witnesses_match_the_parent_passes_at_large_n(n):
    g, _ = random_cograph(GenParams(n=n, seed=n))
    rng = random.Random(n)
    order = list(range(n))
    rng.shuffle(order)
    bases = [greedy_coloring(g, order)]
    bases.append(alg1_color(g, InjectionChooser("seeded-random", seed=1))[0])
    outcomes = set()
    for base in bases:
        k = max(base.values())
        for changes in range(4):
            c = dict(base)
            for _ in range(changes):
                c[rng.randrange(n)] = rng.randint(1, k + 1)
            outcomes.add(assert_witnesses_as_parent(g, c))
    assert outcomes == {False, True}


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
    # the union's bottom comb node (v2,v3) fails first
    ([], 4, {0: 1, 1: 2, 2: 2, 3: 3}, ({2}, {3})),
    # the join (v0,v1) and the union's second comb node both fail; the join
    # comes first in id order
    ([(0, 1), (3, 4), (3, 5), (4, 5)], 6, {0: 1, 1: 1, 2: 4, 3: 3, 4: 1, 5: 2},
     ({1}, {1})),
    # the join (v4,v5) fails K2 below the root union, which fails K3
    ([(0, 1), (3, 4), (3, 5), (4, 5)], 6, {0: 1, 1: 2, 2: 3, 3: 3, 4: 1, 5: 1},
     ({1}, {1})),
    # the fresh color 99 of v3 fails at the union (v3,v5) and at the root
    # union; the union below is met first
    ([(0, 3), (0, 5), (1, 2), (1, 4), (2, 4)], 6,
     {0: 2, 1: 3, 2: 2, 3: 99, 4: 1, 5: 1}, ({99}, {1})),
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
                # the node is the discriminating cotree's failing node
                t = build_cotree(g)
                mask = t.leaf_masks()[verdict.node]
                assert t.label[verdict.node] == (verdict.axiom == "K2")
                assert first | rest <= {c[v] for v in range(n) if mask >> v & 1}
                if verdict.axiom == "K2":
                    assert first & rest
                else:
                    assert verdict.axiom == "K3"
                    assert not (first <= rest or rest <= first)
                with pytest.raises(NotHcColoringError) as exc:
                    reconstruct_cotree(g, c)
                assert exc.value.certificate == verdict.sets
    assert rejections == 4404


# -- verify_hc reports the first failing node in postorder ---------------------

def postorder_failures(g, t, c):
    """Reference: the verdict for every node failing K2 or K3, in the order
    of a walk from the root that finishes each node after its children,
    left to right."""
    bit, palette = _color_bits(c)
    masks, failures = {}, []
    for u in reference_postorder(t):
        if t.is_leaf(u):
            masks[u] = bit[t.vertex[u]]
            continue
        m1, m2 = (masks[k] for k in t.children[u])
        masks[u] = m1 | m2
        if t.label[u] == 1 and m1 & m2:
            axiom = "K2"
        elif t.label[u] == 0 and m1 & ~m2 and m2 & ~m1:
            axiom = "K3"
        else:
            continue
        failures.append(Verdict(False, node=u, axiom=axiom, sets=(
            _colors(m1, palette), _colors(m2, palette))))
    return failures


def test_verify_hc_reports_the_first_failure_in_postorder():
    rng = random.Random(11)
    rejections = 0
    for seed in range(600):
        g, t = random_cograph(GenParams(n=rng.randint(1, 30), seed=seed,
                                        max_arity=rng.randint(2, 5)))
        t = to_binary(t, rng.choice(["left-comb", "chi-ascending"]))
        k = rng.randint(1, g.n)
        c = {v: rng.randint(1, k) for v in range(g.n)}
        verdict = verify_hc(g, t, c, check_tree=False)
        failures = postorder_failures(g, t, c)
        if not failures:
            assert verdict == Verdict(True)
            continue
        rejections += 1
        assert verdict == failures[0]
        # no node below the reported one fails
        below, stack = set(), list(t.children[verdict.node])
        while stack:
            u = stack.pop()
            below.add(u)
            stack.extend(t.children[u])
        assert not below & {f.node for f in failures}
    assert rejections > 400


# -- the verdict fold against the two passes it replaced ------------------------

def parent_verify_hc(g, t, c, check_tree=True):
    """Reference: `verify_hc` before the fold, a loop over the two
    children of each node of a binary tree."""
    _check_domain(g, c)
    if check_tree:
        if not is_binary(t):
            raise ValueError("cotree-not-binary")
        if not realizes(t, g):
            raise ValueError("cotree-graph-mismatch")
    label = t.label
    children = t.children
    vertex = t.vertex
    bit, palette = _color_bits(c)
    masks = [0] * t.n_nodes()
    for u in t.postorder():
        if label[u] == -1:
            masks[u] = bit[vertex[u]]
            continue
        a, b = children[u]
        m1, m2 = masks[a], masks[b]
        masks[u] = m1 | m2
        if label[u] == 1:
            if m1 & m2:
                axiom = "K2"
                break
        else:
            inter = m1 & m2
            if inter != m1 and inter != m2:
                axiom = "K3"
                break
    else:
        return Verdict(True)
    return Verdict(False, node=u, axiom=axiom,
                   sets=(_colors(m1, palette), _colors(m2, palette)))


def parent_hc_refinement(t, c):
    """Reference: `_hc_refinement` before the fold, which combed each
    node of the discriminating cotree into a right comb in its head."""
    bit, palette = _color_bits(c)
    label, vertex = t.label, t.vertex
    order = list(t.children)
    masks = [0] * len(order)
    for u, kids in enumerate(order):
        if not kids:
            masks[u] = bit[vertex[u]]
            continue
        lab = label[u]
        if lab == 0:
            kids = order[u] = sorted(kids, key=lambda k: masks[k].bit_count())
        rest = masks[kids[-1]]
        for k in reversed(kids[:-1]):  # comb nodes from the bottom up
            m = masks[k]
            if (m & rest) if lab == 1 else (m & ~rest):
                return Verdict(False, axiom="K2" if lab == 1 else "K3",
                               sets=(_colors(m, palette),
                                     _colors(rest, palette))), order
            rest |= m
        masks[u] = rest
    return Verdict(True), order


def assert_fold_as_parent(g, t, combs, c):
    """The fold against both references on one coloring: `verify_hc` on
    each binary tree in combs, whole verdicts; the right fold on the
    discriminating cotree t, all but the node, which the old pass did not
    report, and the comb order on acceptance; and, when t is not binary,
    the left fold of t against `verify_hc` of its left comb, combs[0]."""
    wants = [parent_verify_hc(g, b, c, check_tree=False) for b in combs]
    assert [verify_hc(g, b, c, check_tree=False) for b in combs] == wants
    got, order = _hc_fold(t, c, "right")
    want, want_order = parent_hc_refinement(t, c)
    assert got._replace(node=None) == want
    if got.accepted:
        assert order == want_order
    else:
        assert t.label[got.node] == (1 if got.axiom == "K2" else 0)
    if not is_binary(t):
        assert _hc_fold(t, c, "left")[0].accepted == wants[0].accepted
    return got.accepted


def binary_trees(t):
    """t's left comb, then its chi-ascending refinement when that is
    another tree."""
    b1, b2 = to_binary(t, "left-comb"), to_binary(t, "chi-ascending")
    return (b1,) if b2 == b1 else (b1, b2)


def test_fold_matches_the_parent_passes_on_every_small_coloring():
    # every coloring with colors <= min(n, 4), proper or not, of the 535
    # labeled cographs with n <= 5
    graphs = colorings = accepted = 0
    for n in range(1, 6):
        for g in exhaustive_cographs(n):
            graphs += 1
            t = build_cotree(g)
            combs = binary_trees(t)
            for colors in itertools.product(range(1, min(n, 4) + 1),
                                            repeat=n):
                colorings += 1
                accepted += assert_fold_as_parent(
                    g, t, combs, dict(enumerate(colors)))
    assert (graphs, colorings) == (535, 496865)
    assert accepted > 0


def caterpillar_with_spine(n, left):
    """The depth-n caterpillar with its spine the right child of each node
    (`caterpillar_spec`) or the left one."""
    if not left:
        return tree_of(caterpillar_spec(n))
    spec = n - 1
    for v in range(n - 2, -1, -1):
        spec = (v % 2, spec, v)
    return tree_of(spec)


@pytest.mark.parametrize("source", ["random-300", "random-3000",
                                    "caterpillar-right", "caterpillar-left"])
def test_fold_matches_the_parent_passes_at_large_n(source):
    kind, _, arg = source.partition("-")
    if kind == "random":
        g, _ = random_cograph(GenParams(n=int(arg), seed=5))
    else:
        g = realized_graph(caterpillar_with_spine(2000, arg == "left"))
    t = build_cotree(g)
    combs = binary_trees(t)
    if kind == "caterpillar":  # the user's own binary tree too
        combs += (align_to_graph(caterpillar_with_spine(2000, arg == "left"),
                                 g),)
    rng = random.Random(arg)
    verdicts = []
    for seed in range(3):
        c, _ = alg1_color(g, InjectionChooser("seeded-random", seed=seed))
        # a fresh color on a vertex that shares its class: chi + 1 colors
        size = collections.Counter(c.values())
        shared = [v for v in range(g.n) if size[c[v]] > 1]
        planted = dict(c)
        planted[rng.choice(shared)] = max(c.values()) + 1
        verdicts += [assert_fold_as_parent(g, t, combs, c),
                     assert_fold_as_parent(g, t, combs, planted)]
    assert verdicts[0::2] == [True] * 3 and not any(verdicts[1::2])


# -- verify --cotree of a non-binary tree: the fold's reporting rule ------------

def parent_cotree_line(g, t, c):
    """Reference: `verify --cotree`'s last line before the fold, from
    `parent_verify_hc` on the left comb that `to_binary` builds."""
    b = to_binary(t, "left-comb")
    verdict = parent_verify_hc(g, b, c, check_tree=False)
    if verdict.accepted:
        return "ACCEPT"
    first = verdict.node
    while b.children[first]:
        first = b.children[first][0]
    names = g.vertex_names()
    leaves = sorted(names[b.vertex[u]] for u in range(first, verdict.node)
                    if b.is_leaf(u))
    s1, s2 = (sorted(s) for s in verdict.sets)
    return (f"{verdict.axiom} violation at node over {{{','.join(leaves)}}}: "
            f"color sets {s1} vs {s2}")


def cotree_line(tmp_path, g, t, c, capsys):
    """`verify --cotree`'s output lines for g, t and c, run in process."""
    names = g.vertex_names()
    (tmp_path / "g.txt").write_text(write_edge_list(g))
    (tmp_path / "c.txt").write_text(
        "".join(f"{names[v]}\t{c[v]}\n" for v in range(g.n)))
    (tmp_path / "t.nwk").write_text(newick_write(t))
    code = main(["verify", str(tmp_path / "g.txt"), str(tmp_path / "c.txt"),
                 "--cotree", str(tmp_path / "t.nwk")])
    out = capsys.readouterr().out.splitlines()
    assert code == (0 if out[-1] == "ACCEPT" else 1)
    assert out[:-1] == ([] if is_binary(t) else [NOTE])
    return out[-1]


NOTE = "note: refined non-binary cotree to binary (left-comb)"
LINE = re.compile(r"K([23]) violation at node over \{([^}]*)\}: "
                  r"color sets \[(.*)\] vs \[(.*)\]")


def test_verify_cotree_names_a_failing_comb_node_with_none_below(tmp_path,
                                                                  capsys):
    # one failing node of the left comb: the line the comb gave. More:
    # a failing comb node, perhaps another, with no failing node below it
    rng = random.Random(28)
    same = moved = 0
    for seed in range(500):
        g, t = random_cograph(GenParams(n=rng.randint(2, 30), seed=seed,
                                        max_arity=rng.randint(3, 5)))
        k = rng.randint(1, g.n)
        c = {v: rng.randint(1, k) for v in range(g.n)}
        b = to_binary(t, "left-comb")
        failures = postorder_failures(g, b, c)
        line = cotree_line(tmp_path, g, t, c, capsys)
        old = parent_cotree_line(g, t, c)
        if len(failures) <= 1 or is_binary(t):
            assert line == old
            continue
        same += line == old
        moved += line != old
        axiom, leaves, s1, s2 = LINE.fullmatch(line).groups()
        ids = {name: v for v, name in enumerate(g.vertex_names())}
        mask = sum(1 << ids[name] for name in leaves.split(","))
        masks = b.leaf_masks()
        node, = (u for u in range(b.n_nodes())
                 if masks[u] == mask and not b.is_leaf(u))
        failure, = (f for f in failures if f.node == node)
        assert failure.axiom == "K" + axiom
        assert [str(sorted(s))[1:-1] for s in failure.sets] == [s1, s2]
        assert not any(masks[f.node] & ~mask == 0 and f.node != node
                       for f in failures)
    assert same > 20 and moved > 5


def test_verify_cotree_two_failing_comb_nodes_pinned(tmp_path, capsys):
    # The comb node (a,b) fails K3 and the join (c,d) K2. The left comb
    # ((a,b)0,(c,d)1)0 meets (a,b) first; the fold meets the whole root
    # after its children, so (c,d) first.
    g = Graph(4, [(2, 3)], names=("a", "b", "c", "d"))
    t = align_to_graph(newick_read("(a,b,(c,d)1)0;"), g)
    c = {0: 1, 1: 2, 2: 3, 3: 3}
    assert parent_cotree_line(g, t, c) == (
        "K3 violation at node over {a,b}: color sets [1] vs [2]")
    assert cotree_line(tmp_path, g, t, c, capsys) == (
        "K2 violation at node over {c,d}: color sets [3] vs [3]")


def test_verify_cotree_builds_no_comb(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("to_binary called")

    monkeypatch.setattr(cotree_module, "to_binary", refuse)
    n = 5000
    (tmp_path / "g.txt").write_text(f"n {n}\n")
    (tmp_path / "t.nwk").write_text(
        "(" + ",".join(f"v{v}" for v in range(n)) + ")0;\n")
    argv = ["verify", str(tmp_path / "g.txt"), str(tmp_path / "c.txt"),
            "--cotree", str(tmp_path / "t.nwk")]
    for second, code, line in [
            (1, 0, "ACCEPT"),
            (2, 1, "K3 violation at node over {v0,v1}: color sets [1] vs "
                   "[2]")]:
        (tmp_path / "c.txt").write_text(
            "v0\t1\n" + f"v1\t{second}\n"
            + "".join(f"v{v}\t1\n" for v in range(2, n)))
        assert main(argv) == code
        assert capsys.readouterr() == (f"{NOTE}\n{line}\n", "")

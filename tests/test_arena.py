"""The cotree passes that write and read the arena lists directly, against
the method-per-node bodies they replaced.

`build_cotree` merges twins with each live module's ext and closed key kept
side by side, and emits its tree by appending to the lists; `to_binary` and
`reconstruct_cotree` comb through `cotree._combed`. The references below
are the replaced bodies: they build every node with `add_leaf` and
`add_inner`. Outputs must be identical, list for list, and every output
must satisfy the arena invariants that the passes rely on.
"""

import itertools
import random

import pytest

from cograph_hc import (Cotree, GenParams, Graph, NotHcColoringError,
                        P4Witness, alg1_color, build_cotree, greedy_coloring,
                        realized_graph, reconstruct_cotree, to_binary)
from cograph_hc.coloring import _check_domain, _hc_refinement
from cograph_hc.cotree import (LEAF, _cotree_of, _find_p4_in, _peel,
                               node_chromatic_numbers)
from cograph_hc.generator import exhaustive_cographs, random_cograph


# -- the replaced bodies ---------------------------------------------------------

def reference_build_cotree(g):
    """Twin merging with modules kept as (ext, mask) in one dict, both keys
    recomputed on deletion, and one add_leaf/add_inner call per node."""
    n = g.n
    adj = g.adj
    label = [LEAF] * n
    kids = [None] * n
    low = list(range(n))
    live = {}  # module -> (ext, mask)
    by_ext = {}
    by_closed = {}
    for u in range(n):
        e, m = adj[u], 1 << u
        while True:
            x, lab = by_ext.get(e), 0
            if x is None:
                x, lab = by_closed.get(e | m), 1
                if x is None:
                    break
            ex, mx = live.pop(x)
            del by_ext[ex], by_closed[ex | mx]
            e, m = e & ~mx, m | mx
            if label[x] == lab and (label[u] != lab
                                    or len(kids[x]) > len(kids[u])):
                u, x = x, u
            if label[u] != lab:
                label.append(lab)
                kids.append([u])
                low.append(low[u])
                u = len(label) - 1
            kids[u] += kids[x] if label[x] == lab else [x]
            low[u] = min(low[u], low[x])
        live[u] = (e, m)
        by_ext[e] = by_closed[e | m] = u
    if len(live) > 1:
        return _find_p4_in(adj, _peel(adj, [low[x] for x in live]))
    t = Cotree(names=g.names)
    out = []
    work = [u]
    while work:
        u = work.pop()
        if u < 0:
            k = len(kids[~u])
            out[-k:] = [t.add_inner(label[~u], out[-k:])]
        elif u < n:
            out.append(t.add_leaf(u))
        else:
            kids[u].sort(key=low.__getitem__)
            work.append(~u)
            work.extend(reversed(kids[u]))
    t.root = out[0]
    return t


def reference_to_binary(t, strategy="left-comb"):
    chi = node_chromatic_numbers(t)
    out = Cotree(names=t.names)
    built = {}
    for u in t.postorder():
        if t.is_leaf(u):
            built[u] = out.add_leaf(t.vertex[u])
            continue
        kids = list(t.children[u])
        if strategy == "chi-ascending" and t.label[u] == 0:
            kids.sort(key=lambda c: chi[c])
        acc = built[kids[0]]
        for c in kids[1:]:
            acc = out.add_inner(t.label[u], [acc, built[c]])
        built[u] = acc
    out.root = built[t.root]
    return out


def reference_reconstruct_cotree(g, c):
    _check_domain(g, c)
    t = _cotree_of(g)
    verdict, order = _hc_refinement(t, c)
    if not verdict:
        raise NotHcColoringError(verdict.sets)
    out = Cotree(names=t.names)
    built = [0] * len(order)
    for u, kids in enumerate(order):
        acc = built[kids[-1]] if kids else out.add_leaf(t.vertex[u])
        for k in reversed(kids[:-1]):
            acc = out.add_inner(t.label[u], [built[k], acc])
        built[u] = acc
    out.root = built[t.root]
    return out


# -- comparisons ---------------------------------------------------------------

def arena(t):
    return t.label, t.children, t.vertex, t.root, t.names


def assert_arena_invariants(t, n):
    """Children are numbered below their parent, labels are 0, 1 or LEAF,
    inner nodes have two or more children, a leaf none, and the leaves map
    one to one onto the vertices 0..n-1."""
    assert len(t.label) == len(t.children) == len(t.vertex)
    leaves = []
    for u, (lab, kids, v) in enumerate(zip(t.label, t.children, t.vertex)):
        assert lab in (0, 1, LEAF)
        assert all(c < u for c in kids)
        if lab == LEAF:
            assert kids == () and v >= 0
            leaves.append(v)
        else:
            assert len(kids) >= 2 and v == -1
    assert sorted(leaves) == list(range(n))
    assert 0 <= t.root < len(t.label)


def assert_builds_as_reference(g):
    t, ref = build_cotree(g), reference_build_cotree(g)
    if isinstance(ref, P4Witness):
        assert isinstance(t, P4Witness) and t == ref
        return None
    assert arena(t) == arena(ref)
    assert_arena_invariants(t, g.n)
    assert t.postorder() == tuple(range(t.n_nodes()))
    return t


def assert_binary_as_reference(t, n):
    for strategy in ("left-comb", "chi-ascending"):
        b = to_binary(t, strategy)
        assert arena(b) == arena(reference_to_binary(t, strategy))
        assert_arena_invariants(b, n)


def assert_reconstructs_as_reference(g, c):
    try:
        ref = reference_reconstruct_cotree(g, c)
    except NotHcColoringError as exc:
        with pytest.raises(NotHcColoringError) as info:
            reconstruct_cotree(g, c)
        assert info.value.certificate == exc.certificate
        return
    t = reconstruct_cotree(g, c)
    assert arena(t) == arena(ref)
    assert_arena_invariants(t, g.n)


# -- inputs ---------------------------------------------------------------------

def test_all_labeled_cographs_up_to_6():
    graphs = 0
    for n in range(1, 7):
        for g in exhaustive_cographs(n):
            t = assert_builds_as_reference(g)
            assert t is not None
            assert_binary_as_reference(t, n)
            c, _ = alg1_color(g)
            assert_reconstructs_as_reference(g, c)
            # a greedy coloring too: hc, with other color-set sizes
            order = random.Random(graphs).sample(range(n), n)
            assert_reconstructs_as_reference(g, greedy_coloring(g, order))
            graphs += 1
    assert graphs == 1 + 2 + 8 + 52 + 472 + 5504


def test_every_4th_labeled_non_cograph_on_6_vertices():
    pairs = list(itertools.combinations(range(6), 2))
    cographs, checked = set(), 0
    for g in exhaustive_cographs(6):
        cographs.add(g.adj)
    non_cographs = 0
    for mask in range(1 << len(pairs)):
        adj = [0] * 6
        for i, (u, v) in enumerate(pairs):
            if mask >> i & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        if tuple(adj) in cographs:
            continue
        non_cographs += 1
        if non_cographs % 4:
            continue
        assert assert_builds_as_reference(
            Graph._from_adj(6, adj, None)) is None
        checked += 1
    assert non_cographs == (1 << 15) - 5504
    assert checked == non_cographs // 4


@pytest.mark.parametrize("arity", [3, 12])
def test_random_cotrees_at_n_3000(arity):
    g, raw = random_cograph(GenParams(n=3000, seed=arity, max_arity=arity))
    t = assert_builds_as_reference(g)
    assert_binary_as_reference(t, g.n)
    assert_binary_as_reference(raw, g.n)  # not discriminating
    c, _ = alg1_color(g)
    assert_reconstructs_as_reference(g, c)
    bad = {**c, 0: max(c.values()) + 1}  # chi + 1 colors: not hc
    assert_reconstructs_as_reference(g, bad)


def test_depth_10000_caterpillar():
    n = 10**4
    order = list(range(n))
    random.Random(5).shuffle(order)
    cat = Cotree(names=tuple(f"x{v}" for v in range(n)))
    acc = cat.add_leaf(order[0])
    for i in range(1, n):
        acc = cat.add_inner(i % 2, [acc, cat.add_leaf(order[i])])
    cat.root = acc
    g = realized_graph(cat)
    t = assert_builds_as_reference(g)
    assert t.names == cat.names
    assert_binary_as_reference(t, n)
    assert_binary_as_reference(cat, n)
    c, _ = alg1_color(g)
    assert_reconstructs_as_reference(g, c)


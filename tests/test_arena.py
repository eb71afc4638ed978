"""The cotree passes that write and read the arena lists directly, against
the bodies they replaced.

`build_cotree` merges twins with each live module's ext and closed key kept
side by side, and emits its tree by appending to the lists; its reference
builds every node with `add_leaf` and `add_inner`, and finds a P4 with the
`bits` generators that `_find_p4_in` replaced by peeling bits in place.
`to_binary` and `reconstruct_cotree` emit their combs in postorder through
`cotree._emitted`; their references are the replaced `_combed`, which
numbered each node's comb nodes after all its children's subtrees, and a
walk that renumbers its output in postorder. Outputs must be identical,
list for list, count and verdict alike, and every output must satisfy the
arena invariants that the passes rely on.
"""

import itertools
import random

import pytest

from cograph_hc import (Cotree, GenParams, Graph, NotHcColoringError,
                        P4Witness, alg1_color, build_cotree, count_hc_wrt,
                        greedy_coloring, realized_graph, reconstruct_cotree,
                        to_binary, verify_hc)
from cograph_hc.coloring import _check_domain, _hc_fold
from cograph_hc.cotree import (LEAF, _cotree_of, _find_p4_in, _peel,
                               node_chromatic_numbers)
from cograph_hc.generator import exhaustive_cographs, random_cograph
from cograph_hc.graph import bits
from conftest import assert_numbered_in_postorder, reference_postorder


# -- the replaced bodies ---------------------------------------------------------

def reference_find_p4_in(adj, sub):
    """An induced P4 a-b-c-d inside the stalled set `sub`, by edges b-c."""
    for b in bits(sub):
        nb = adj[b] & sub
        for c in bits(nb):
            nc = adj[c] & sub
            ends_a = nb & ~nc & ~(1 << c)
            ends_d = nc & ~nb & ~(1 << b)
            if not ends_d:
                continue
            for a in bits(ends_a):
                miss = ends_d & ~adj[a]
                if miss:
                    return P4Witness(a, b, c, (miss & -miss).bit_length() - 1)
    raise AssertionError("stalled subgraph must contain an induced P4")


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
        return reference_find_p4_in(adj, _peel(adj, [low[x] for x in live]))
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


def replaced_combed(t, order, nodes, left):
    """The binary refinement of t that turns each inner node u into a comb
    over order[u], visiting `nodes`, children before parents. Nodes are
    numbered in the order they are made: a node's comb nodes after all
    its children's subtrees, which for a left comb is no postorder."""
    out = Cotree(names=t.names)
    label, vertex = t.label, t.vertex
    out_label, out_children, out_vertex = out.label, out.children, out.vertex
    built = [0] * len(label)  # per node of t, its top node in out
    for u in nodes:
        kids = order[u]
        top = len(out_label)
        if not kids:
            out_label.append(LEAF)
            out_children.append(())
            out_vertex.append(vertex[u])
        elif len(kids) == 2:
            out_label.append(label[u])
            out_children.append((built[kids[0]], built[kids[1]]))
            out_vertex.append(-1)
        else:
            k = len(kids) - 1  # comb nodes
            tops = [built[c] for c in kids]
            if left:
                out_children += zip([tops[0], *range(top, top + k - 1)],
                                    tops[1:])
            else:
                out_children += zip(tops[-2::-1],
                                    [tops[-1], *range(top, top + k - 1)])
            out_label += [label[u]] * k
            out_vertex += [-1] * k
            top += k - 1
        built[u] = top
    out.root = built[t.root]
    return out


def walked(t):
    """t renumbered in postorder: its nodes rebuilt with `add_leaf` and
    `add_inner` in the order of the walk `reference_postorder`."""
    out = Cotree(names=t.names)
    new = {}
    for u in reference_postorder(t):
        kids = t.children[u]
        new[u] = (out.add_inner(t.label[u], [new[c] for c in kids]) if kids
                  else out.add_leaf(t.vertex[u]))
    out.root = new[t.root]
    return out


def reference_to_binary(t, strategy="left-comb"):
    order = t.children
    if strategy == "chi-ascending":
        chi = node_chromatic_numbers(t)
        order = [sorted(kids, key=chi.__getitem__) if lab == 0 else kids
                 for lab, kids in zip(t.label, order)]
    return walked(replaced_combed(t, order, reference_postorder(t),
                                  left=True))


def reference_reconstruct_cotree(g, c):
    _check_domain(g, c)
    t = _cotree_of(g)
    verdict, order = _hc_fold(t, c, "right")
    if not verdict:
        raise NotHcColoringError(verdict.sets)
    return walked(replaced_combed(t, order, range(len(order)), left=False))


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


def rendered(report):
    """What `render` writes, by spans: each node's [start, end) in the one
    Newick text, its two counts, and the total. A depth-10^4 caterpillar
    renders 521 MB; these are linear in the tree."""
    nodes = report.per_node
    _, start, end = nodes._spans()
    return (nodes[-1].path, report.labeled_total,
            list(zip(start, end, nodes._count, nodes._size)))


def assert_same_outcomes(g, t, ref, colorings):
    """t and its reference are one tree, with the same rendered count, and
    `verify_hc` gives the same verdict on each coloring: the axiom, the
    sets and the leaves below the failing node."""
    assert t == ref and arena(t) == arena(ref)
    assert_arena_invariants(t, g.n)
    assert_numbered_in_postorder(t)
    assert rendered(count_hc_wrt(t)) == rendered(count_hc_wrt(ref))
    for c in colorings:
        got, want = verify_hc(g, t, c), verify_hc(g, ref, c)
        assert (got.accepted, got.axiom, got.sets) \
            == (want.accepted, want.axiom, want.sets)
        if not got:
            assert t.leaf_masks()[got.node] == ref.leaf_masks()[want.node]


def assert_builds_as_reference(g):
    t, ref = build_cotree(g), reference_build_cotree(g)
    if isinstance(ref, P4Witness):
        assert isinstance(t, P4Witness) and t == ref
        return None
    assert arena(t) == arena(ref)
    assert_arena_invariants(t, g.n)
    assert_numbered_in_postorder(t)
    return t


def assert_binary_as_reference(g, t, seed):
    rng = random.Random(seed)
    colorings = [alg1_color(g)[0],
                 {v: rng.randint(1, 3) for v in range(g.n)}]
    for strategy in ("left-comb", "chi-ascending"):
        assert_same_outcomes(g, to_binary(t, strategy),
                             reference_to_binary(t, strategy), colorings)


def assert_reconstructs_as_reference(g, c):
    try:
        ref = reference_reconstruct_cotree(g, c)
    except NotHcColoringError as exc:
        with pytest.raises(NotHcColoringError) as info:
            reconstruct_cotree(g, c)
        assert info.value.certificate == exc.certificate
        return
    assert_same_outcomes(g, reconstruct_cotree(g, c), ref, [c])


# -- inputs ---------------------------------------------------------------------

def test_all_labeled_cographs_up_to_6():
    graphs = 0
    for n in range(1, 7):
        for g in exhaustive_cographs(n):
            t = assert_builds_as_reference(g)
            assert t is not None
            assert_binary_as_reference(g, t, graphs)
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


def test_p4_search_on_random_graphs_up_to_60_vertices():
    rng = random.Random(1)
    found = 0
    for _ in range(300):
        n = rng.randint(8, 60)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                      if rng.random() < 0.3])
        whole = (1 << n) - 1
        try:
            want = reference_find_p4_in(g.adj, whole)
        except AssertionError:  # a cograph: no P4 to find
            with pytest.raises(AssertionError):
                _find_p4_in(g.adj, whole)
            continue
        assert _find_p4_in(g.adj, whole) == want
        found += 1
    assert found > 250


@pytest.mark.parametrize("arity", [3, 12])
def test_random_cotrees_at_n_3000(arity):
    g, raw = random_cograph(GenParams(n=3000, seed=arity, max_arity=arity))
    t = assert_builds_as_reference(g)
    assert_binary_as_reference(g, t, arity)
    assert_binary_as_reference(g, raw, arity)  # not discriminating
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
    assert_binary_as_reference(g, t, 5)
    assert_binary_as_reference(g, cat, 5)
    c, _ = alg1_color(g)
    assert_reconstructs_as_reference(g, c)


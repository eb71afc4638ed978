import dataclasses
import itertools
import math
import random
import time
import tracemalloc

import pytest

from cograph_hc import (Cotree, GenParams, Graph, InjectionChooser,
                        NotACographError, NotHcColoringError, alg1_color,
                        build_cotree, count_hc_total, count_hc_wrt,
                        is_hc_coloring, newick_read, newick_write,
                        random_cograph, realized_graph, realizes,
                        reconstruct_cotree, to_binary, verify_hc)
from cograph_hc import hc_algorithms
from cograph_hc.cotree import _newick_names, _newick_spans, align_to_graph
from cograph_hc.generator import exhaustive_cographs
from cograph_hc.hc_algorithms import _count, _decimal, _recolor_top_down
from cograph_hc.oracle import (all_binary_cotrees, brute_chromatic,
                               enumerate_alg1_outputs, proper_partitions)
from conftest import g_injections, is_discriminating, tree_of


def test_chooser_validation():
    for strategy in ("bogus", "exhaustive-callback"):
        with pytest.raises(ValueError, match="unknown chooser strategy"):
            InjectionChooser(strategy)


def test_alg1_singleton():
    c, t = alg1_color(Graph(1))
    assert c == {0: 1} and t.is_leaf(t.root)


def test_alg1_reference_trace(k2_k1_k1, coloring_a):
    c, t = alg1_color(k2_k1_k1, InjectionChooser("identity-prefix"))
    assert c == coloring_a
    assert realizes(t, k2_k1_k1)


def test_alg1_rejects_non_cograph():
    p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(NotACographError):
        alg1_color(p4)


def test_alg1_seeded_random_deterministic(k2_k1_k1):
    runs = [alg1_color(k2_k1_k1, InjectionChooser("seeded-random", seed=11))[0]
            for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]
    assert is_hc_coloring(k2_k1_k1, runs[0]).accepted


def test_only_the_seeded_random_chooser_builds_a_random(k2_k1_k1,
                                                       monkeypatch):
    built = []

    class CountingRandom(random.Random):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(random, "Random", CountingRandom)
    alg1_color(k2_k1_k1, InjectionChooser("identity-prefix"))
    list(enumerate_alg1_outputs(build_cotree(k2_k1_k1)))
    assert built == []
    alg1_color(k2_k1_k1, InjectionChooser("seeded-random", seed=11))
    assert built == [(11,)]


def test_alg1_sound_on_small_corpus(small_cographs):
    for g in small_cographs:
        for chooser in (InjectionChooser("identity-prefix"),
                        InjectionChooser("seeded-random", seed=3)):
            c, _ = alg1_color(g, chooser)
            assert is_hc_coloring(g, c).accepted
            assert len(set(c.values())) == brute_chromatic(g)


def test_recolor_on_the_discriminating_tree_is_alg1(k2_k1_k1):
    c, t = alg1_color(k2_k1_k1)
    assert t == build_cotree(k2_k1_k1)
    assert _recolor_top_down(t, InjectionChooser()._images()) == c


def test_recolor_respects_a_given_binary_cotree(k2_k1_k1):
    # the left comb is not discriminating: its unions nest in unions
    cat = to_binary(build_cotree(k2_k1_k1), "left-comb")
    assert not is_discriminating(cat)
    for chooser in (InjectionChooser(), InjectionChooser("seeded-random", 5)):
        c = _recolor_top_down(cat, chooser._images())
        assert verify_hc(k2_k1_k1, cat, c).accepted


def test_recolor_join_rooted_skips_recoloring():
    k3 = Graph(3, [(0, 1), (0, 2), (1, 2)])
    c = _recolor_top_down(build_cotree(k3), InjectionChooser()._images())
    assert c == {0: 1, 1: 2, 2: 3}


# -- the palette pass against leaf lists and the pass it replaced --------------

def first_appearance(sigma):
    """Colors renamed to 1..k in order of first appearance by vertex id."""
    rename = {}
    for col in sigma:
        rename.setdefault(col, len(rename) + 1)
    return {v: rename[col] for v, col in enumerate(sigma)}


def leaf_list_recolor(g, t, run):
    """Reference: per node, its list of vertices and its palette as a list.
    The root's palette is 1..chi; a join deals consecutive slices of its
    own out to its children in order, and a union gives its first child
    of maximum chromatic number the whole palette and each other child the
    entries at the union's images of (that child's chi, its own). The walk
    pops nodes from a stack that children are pushed onto left to right.
    Every vertex takes its leaf's one color, and the vertices below each
    node must show exactly its palette."""
    images = run._images() if isinstance(run, InjectionChooser) else run
    chi = [0] * t.n_nodes()
    leaves = [[] for _ in range(t.n_nodes())]
    for u in t.postorder():
        kids = t.children[u]
        if not kids:
            chi[u], leaves[u] = 1, [t.vertex[u]]
        else:
            chi[u] = (sum if t.label[u] == 1 else max)(chi[k] for k in kids)
            leaves[u] = [x for k in kids for x in leaves[k]]
    palette = {t.root: list(range(1, chi[t.root] + 1))}
    sigma = [0] * g.n
    stack = [t.root]
    while stack:
        u = stack.pop()
        kids, own = t.children[u], palette[u]
        if not kids:
            sigma[t.vertex[u]] = own[0]
        elif t.label[u] == 1:
            start = 0
            for k in kids:
                palette[k] = own[start:start + chi[k]]
                start += chi[k]
        else:
            best = max(kids, key=lambda k: chi[k])
            for k in kids:
                palette[k] = own if k == best else \
                    [own[j] for j in images(chi[k], chi[u])]
        stack.extend(kids)
    for u in t.postorder():
        assert sorted({sigma[x] for x in leaves[u]}) == sorted(palette[u])
    return first_appearance(sigma)


def fast_recolor(g, t, run):
    """The palette pass, with a chooser's images function or a plain one."""
    if isinstance(run, InjectionChooser):
        run = run._images()
    return _recolor_top_down(t, run)


def runs(seed):
    """One run per chooser strategy, and a plain images function that
    draws from its own rng."""
    rng = random.Random(seed)
    return [InjectionChooser("identity-prefix"),
            InjectionChooser("seeded-random", seed=seed),
            lambda k, s: rng.sample(range(s), k)]


def traced(recolor, g, t, seed):
    """Per run, the coloring and the (k, s) calls of its images function."""
    out = []
    for run in runs(seed):
        calls = []

        def spy(images):
            def spied(k, s):
                calls.append((k, s))
                return images(k, s)
            return spied

        make = InjectionChooser._images
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(InjectionChooser, "_images",
                       lambda self: spy(make(self)))
            if not isinstance(run, InjectionChooser):
                run = spy(run)
            out.append((recolor(g, t, run), calls))
    return out


def assert_recolors_as_leaf_lists(g, seed):
    t = build_cotree(g)
    for tree in (t, to_binary(t, "left-comb"), to_binary(t, "chi-ascending")):
        assert traced(fast_recolor, g, tree, seed) == \
            traced(leaf_list_recolor, g, tree, seed)


def test_recolor_matches_leaf_lists_on_all_small_cographs(small_cographs):
    for i, g in enumerate(small_cographs):
        assert_recolors_as_leaf_lists(g, i)


@pytest.mark.parametrize("n", [50, 300, 1000])
def test_recolor_matches_leaf_lists_on_random_cographs(n):
    for seed in range(3):
        for arity in (2, 3, 6):
            g, _ = random_cograph(GenParams(n=n, seed=seed, max_arity=arity))
            assert_recolors_as_leaf_lists(g, seed)


def bottom_up_recolor(t, images):
    """Reference: the bottom-up pass the palette pass replaced. Vertex v
    starts with color v + 1; each pending subtree keeps the sorted tuple of
    its colors, merged at a join, and at a union every child but the first
    longest is mapped into that one's tuple by images(source, target), the
    images in order of the source's colors. Each map is resolved once at
    the end."""
    recolored = {}
    pending = []
    for u in t.postorder():
        k = len(t.children[u])
        if k == 0:
            pending.append((t.vertex[u] + 1,))
            continue
        sets = pending[-k:]
        del pending[-k:]
        if t.label[u] == 1:
            pending.append(tuple(sorted([x for s in sets for x in s])))
            continue
        best = max(range(k), key=lambda i: len(sets[i]))
        for i, source in enumerate(sets):
            if i != best:
                recolored.update(zip(source, images(source, sets[best])))
        pending.append(sets[best])
    for x in reversed(recolored):
        y = recolored[x]
        recolored[x] = recolored.get(y, y)
    return first_appearance([recolored.get(v + 1, v + 1)
                             for v in range(t.n_leaves())])


def bottom_up_alg1_outputs(t):
    """Reference: every output of the bottom-up pass, each union's
    injections exhausted."""
    options = []

    def record(source, target):
        options.append(list(itertools.permutations(target, len(source))))
        return target[:len(source)]

    bottom_up_recolor(t, record)
    for combo in itertools.product(*options):
        picks = iter(combo)
        yield bottom_up_recolor(t, lambda source, target: next(picks))


def partition(c):
    blocks = {}
    for v, col in c.items():
        blocks.setdefault(col, set()).add(v)
    return frozenset(frozenset(b) for b in blocks.values())


def test_palette_and_bottom_up_passes_reach_the_same_partitions(
        small_cographs):
    for g in small_cographs:
        t = build_cotree(g)
        for tree in (t, to_binary(t, "left-comb")):
            assert {partition(c) for c in enumerate_alg1_outputs(tree)} == \
                {partition(c) for c in bottom_up_alg1_outputs(tree)}


def test_choice_space_matches_the_count(small_cographs):
    # one run per combination of union choices, and no two alike: the
    # runs are exactly the count's hc-colorings up to renaming
    trees = 0
    for g in small_cographs:
        t = build_cotree(g)
        for tree in (t, to_binary(t, "left-comb")):
            keys = [partition(c) for c in enumerate_alg1_outputs(tree)]
            assert len(keys) == len(set(keys)) == _count(tree).root_partitions
            trees += 1
    assert trees == 1070


def caterpillar(n, left=False, names=None):
    """Leaves 0..n-1, one per level, labels alternating: the spine is each
    node's right child, `(0,(1,...)1)0`, or with `left` its left child,
    the left comb `((...,1)1,0)0`."""
    spec = n - 1
    for v in range(n - 2, -1, -1):
        spec = (v % 2, spec, v) if left else (v % 2, v, spec)
    return tree_of(spec, names)


def join_comb(n):
    """K_n as a left comb of joins."""
    t = Cotree()
    acc = t.add_leaf(0)
    for v in range(1, n):
        acc = t.add_inner(1, [acc, t.add_leaf(v)])
    t.root = acc
    return t


@pytest.mark.parametrize("strategy", ["identity-prefix", "seeded-random"])
@pytest.mark.parametrize("shape, chi", [(caterpillar, 50_000),
                                        (join_comb, 100_000)])
def test_recolor_depth_100000_in_linear_time_and_memory(shape, chi,
                                                        strategy):
    # the bottom-up pass merged every join's colors again, quadratic: it
    # took 6.4 s at caterpillar depth 4*10^4 on a 2-vCPU host
    images = InjectionChooser(strategy, seed=1)._images
    t = shape(100_000)
    start = time.perf_counter()
    c = _recolor_top_down(t, images())
    assert time.perf_counter() - start < 1
    assert len(c) == 100_000 and max(c.values()) == chi
    t = shape(100_000)
    tracemalloc.start()
    try:
        assert _recolor_top_down(t, images()) == c
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 200 << 20


def test_alg1_memory_on_a_deep_caterpillar():
    # depth 10^4, labels alternating: per-node vertex lists took 430 MB
    g = realized_graph(caterpillar(10_000))
    tracemalloc.start()
    try:
        c, _ = alg1_color(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert max(c.values()) == 5000
    assert peak < 50 << 20


def test_reconstruct_cotree(k2_k1_k1, coloring_a):
    t = reconstruct_cotree(k2_k1_k1, coloring_a)
    assert realizes(t, k2_k1_k1)
    assert verify_hc(k2_k1_k1, t, coloring_a).accepted
    leaf = reconstruct_cotree(Graph(1), {0: 1})
    assert leaf.is_leaf(leaf.root)


def test_reconstruct_cotree_rejects_non_hc():
    with pytest.raises(NotHcColoringError) as exc:
        reconstruct_cotree(Graph(2), {0: 1, 1: 2})
    assert exc.value.certificate == (frozenset({1}), frozenset({2}))


def test_reconstruct_agrees_with_is_hc(small_cographs):
    for g in small_cographs:
        if g.n > 4:
            break
        for c in proper_partitions(g):
            expect = is_hc_coloring(g, c).accepted
            try:
                t = reconstruct_cotree(g, c)
            except NotHcColoringError:
                assert not expect
            else:
                assert expect
                assert verify_hc(g, t, c).accepted


def test_g_injections():
    assert g_injections(1, 1) == 1
    assert g_injections(1, 2) == 2
    assert g_injections(2, 3) == 6
    assert g_injections(0, 5) == 1
    with pytest.raises(ValueError, match="injection-size-order"):
        g_injections(3, 2)
    # the union of K_s1 and K_s2 counts the injections of the smaller
    # clique's colors into the larger's, up to renaming
    def clique(first, size):
        return (1, *range(first, first + size)) if size > 1 else first

    for s1, s2 in ((1, 1), (1, 4), (2, 3), (3, 5)):
        t = tree_of((0, clique(0, s1), clique(s1, s2)))
        assert _count(t).root_partitions == g_injections(s1, s2)


def test_count_hc_wrt_reference_values(k2_k1_k1):
    k2 = Graph(2, [(0, 1)], names=("a", "b"))
    rep = count_hc_wrt(build_cotree(k2))
    assert rep.root_partitions == 1 and rep.labeled_total == 2

    cat = to_binary(build_cotree(k2_k1_k1), "left-comb")
    rep = count_hc_wrt(cat)
    assert rep.root_partitions == 4
    assert rep.labeled_total == 8
    # inner union node over {a,b,c} counts 2 partitions
    by_path = {nc.path: nc for nc in rep.per_node}
    assert by_path["((a,b)1,c)0"].partitions == 2
    assert by_path["((a,b)1,c)0"].colors == 2

    other = align_to_graph(newick_read("((c,d)0,(a,b)1)0;"), k2_k1_k1)
    assert count_hc_wrt(other).root_partitions == 2


def test_count_hc_wrt_requires_binary(k2_k1_k1):
    with pytest.raises(ValueError, match="cotree-not-binary"):
        count_hc_wrt(build_cotree(k2_k1_k1))


def test_count_report_render(k2_k1_k1):
    cat = to_binary(build_cotree(k2_k1_k1), "left-comb")
    text = count_hc_wrt(cat).render()
    assert text.endswith("labeled_total 8\n")
    assert "node (((a,b)1,c)0,d)0 N 4 s 2" in text


def test_count_report_renders_past_the_int_digit_limit():
    # a balanced binary join over 1800 leaves: K_1800, labeled total 1800!
    # (5080 digits), beyond the interpreter's default 4300-digit limit
    level = list(range(1800))
    while len(level) > 1:
        pairs = [(1, *level[i:i + 2]) for i in range(0, len(level) - 1, 2)]
        level = pairs + level[len(level) - len(level) % 2:]
    t = tree_of(level[0])
    text = count_hc_wrt(t).render()
    digits = text.rsplit("labeled_total ", 1)[1].rstrip("\n")
    value = 0
    for i in range(0, len(digits), 1000):
        chunk = digits[i:i + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    assert value == math.factorial(1800)
    assert len(digits) == 5080 and digits[0] != "0"


def test_count_hc_total(k2_k1_k1):
    assert count_hc_total(Graph(1)).labeled_total == 1
    assert count_hc_total(Graph(2, [(0, 1)])).labeled_total == 2
    assert count_hc_total(Graph(2)).labeled_total == 1
    assert count_hc_total(k2_k1_k1).labeled_total == 8
    p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(NotACographError):
        count_hc_total(p4)


def test_count_matches_brute_force_per_tree(small_cographs):
    import math
    for g in small_cographs:
        if g.n > 4:
            break
        parts = proper_partitions(g)
        chi_fact = math.factorial(brute_chromatic(g))
        for t in all_binary_cotrees(g):
            brute = sum(1 for c in parts
                        if verify_hc(g, t, c, check_tree=False).accepted)
            assert count_hc_wrt(t).labeled_total == brute * chi_fact


# -- the counting pass against the two passes it replaced -----------------------

def _subtree_newicks(t):
    """Reference: each node's Newick text, built bottom-up from its
    children's (quadratic on deep trees), without the name check."""
    names = t.vertex_names()
    text = [""] * t.n_nodes()
    for u in t.postorder():
        if t.is_leaf(u):
            text[u] = names[t.vertex[u]]
        else:
            text[u] = "(" + ",".join(text[c] for c in t.children[u]) + ")" \
                + str(t.label[u])
    return text


def reference_count_wrt(t):
    """Reference: the binary-only pass. Joins multiply, unions multiply by
    the injections of the smaller child's colors into the larger's; the
    root gets a factorial."""
    paths = _subtree_newicks(t)
    count, size, per_node = {}, {}, []
    for u in t.postorder():
        if t.is_leaf(u):
            count[u], size[u] = 1, 1
        else:
            c1, c2 = t.children[u]
            if t.label[u] == 1:
                count[u] = count[c1] * count[c2]
                size[u] = size[c1] + size[c2]
            else:
                s1, s2 = sorted((size[c1], size[c2]))
                count[u] = count[c1] * count[c2] * math.perm(s2, s1)
                size[u] = s2
        per_node.append((paths[u], count[u], size[u]))
    return per_node, count[t.root] * math.factorial(size[t.root])


def reference_count_total(g):
    """Reference: the labeled pass on the discriminating cotree. A join
    deals its color blocks out by a multinomial, a union lets each child
    pick any subset of the largest child's color set; per node the
    labeled count divided by s! is the count up to renaming."""
    t = build_cotree(g)
    paths = _subtree_newicks(t)
    labeled, size, per_node = {}, {}, []
    for u in t.postorder():
        kids = t.children[u]
        if not kids:
            labeled[u], size[u] = 1, 1
        elif t.label[u] == 1:
            s = sum(size[c] for c in kids)
            total = math.factorial(s)
            for c in kids:
                total //= math.factorial(size[c])
            for c in kids:
                total *= labeled[c]
            labeled[u], size[u] = total, s
        else:
            s = max(size[c] for c in kids)
            total = 1
            for c in kids:
                total *= math.comb(s, size[c]) * labeled[c]
            labeled[u], size[u] = total, s
        per_node.append((paths[u], labeled[u] // math.factorial(size[u]),
                         size[u]))
    return per_node, labeled[t.root]


def triples(report):
    return ([(nc.path, nc.partitions, nc.colors) for nc in report.per_node],
            report.labeled_total)


def assert_counts_as_references(g):
    assert triples(count_hc_total(g)) == reference_count_total(g)
    t = build_cotree(g)
    for strategy in ("left-comb", "chi-ascending"):
        tree = to_binary(t, strategy)
        assert triples(count_hc_wrt(tree)) == reference_count_wrt(tree)


def test_count_matches_references_on_all_small_cographs(small_cographs):
    trees = 0
    for g in small_cographs:
        assert triples(count_hc_total(g)) == reference_count_total(g)
        for t in all_binary_cotrees(g):
            assert triples(count_hc_wrt(t)) == reference_count_wrt(t)
            trees += 1
    assert trees == 1815


@pytest.mark.parametrize("n", [50, 300, 1000])
def test_count_matches_references_on_random_cographs(n):
    for seed in range(2):
        for arity in (2, 3, 5):
            for balance in (0.3, 1.0):
                g, _ = random_cograph(GenParams(
                    n=n, seed=seed, max_arity=arity, balance=balance))
                assert_counts_as_references(g)


def test_count_matches_references_on_a_deep_caterpillar():
    t = caterpillar(1000)
    assert triples(count_hc_wrt(t)) == reference_count_wrt(t)
    assert_counts_as_references(realized_graph(t))


# -- the count report against the pass it replaced -----------------------------

def parent_count(t):
    """Reference: the counting pass that built one record per node in its
    loop after writing the whole Newick text, and its rendering. Returns
    each node's (path, partitions, colors), the rendered report, the root
    count and the labeled total."""
    text, start, end = _newick_spans(t.label, t.children, t.vertex, t.root,
                                     _newick_names(t))
    count = [0] * t.n_nodes()
    size = [0] * t.n_nodes()
    per_node = []
    for u in t.postorder():
        kids = t.children[u]
        if not kids:
            count[u], size[u] = 1, 1
        elif t.label[u] == 1:
            n, s = 1, 0
            for c in kids:
                n *= count[c]
                s += size[c]
            count[u], size[u] = n, s
        else:
            best = max(kids, key=size.__getitem__)  # the first maximum
            s = size[best]
            n = count[best]
            for c in kids:
                if c != best:
                    n *= count[c] * math.perm(s, size[c])
            count[u], size[u] = n, s
        per_node.append((text[start[u]:end[u]], count[u], size[u]))
    total = count[t.root] * math.factorial(size[t.root])
    dec = str if total.bit_length() <= 8192 else _decimal
    rendered = "".join(f"node {path} N {dec(n)} s {s}\n"
                       for path, n, s in per_node)
    rendered += f"labeled_total {dec(total)}\n"
    return per_node, rendered, per_node[-1][1], total


def assert_reports_as_parent(report, t):
    per_node, rendered, root, total = parent_count(t)
    nodes = report.per_node
    assert len(nodes) == len(per_node)
    for u, (path, n, s) in enumerate(per_node):
        nc = nodes[u]
        assert (nc.path, nc.partitions, nc.colors) == (path, n, s)
        assert repr(nc) == \
            f"NodeCount(path={path!r}, partitions={n!r}, colors={s!r})"
    assert report.render() == rendered
    assert "".join(report._lines()) == rendered
    assert (report.root_partitions, report.labeled_total) == (root, total)


def test_count_reports_as_the_parent_pass_on_all_cotrees_up_to_6():
    graphs = 0
    for n in range(1, 7):
        for g in exhaustive_cographs(n):
            t = build_cotree(g)
            assert_reports_as_parent(count_hc_total(g), t)
            comb = to_binary(t, "left-comb")
            assert_reports_as_parent(count_hc_wrt(comb), comb)
            graphs += 1
    assert graphs == 6039


@pytest.mark.parametrize("n", [300, 3000])
def test_count_reports_as_the_parent_pass_on_random_cographs(n):
    for seed in range(2):
        g, _ = random_cograph(GenParams(n=n, seed=seed, max_arity=4))
        t = build_cotree(g)
        assert_reports_as_parent(count_hc_total(g), t)
        comb = to_binary(t, "chi-ascending")
        assert_reports_as_parent(count_hc_wrt(comb), comb)


def test_count_reports_as_the_parent_pass_on_a_depth_2000_caterpillar():
    for t in (caterpillar(2000), caterpillar(2000, left=True)):
        assert_reports_as_parent(count_hc_wrt(t), t)
    g = realized_graph(caterpillar(2000))
    assert_reports_as_parent(count_hc_total(g), build_cotree(g))


def test_count_writes_newick_only_when_a_path_is_read(monkeypatch):
    writes = []

    def counted(*tree):
        writes.append(len(tree[0]))
        return _newick_spans(*tree)

    monkeypatch.setattr(hc_algorithms, "_newick_spans", counted)
    g, _ = random_cograph(GenParams(n=3000, seed=7))
    report = count_hc_total(g)
    nodes = report.per_node
    assert len(nodes) > 3000 and nodes[-1] is not nodes[-1]
    assert report.root_partitions == nodes[-1].partitions
    assert sum(nc.colors for nc in nodes) > 0 and report.labeled_total > 0
    assert writes == []
    root_path = nodes[-1].path
    assert writes == [len(nodes)]
    assert report.render().endswith(
        f"node {root_path} N {report.root_partitions} s {nodes[-1].colors}"
        f"\nlabeled_total {report.labeled_total}\n")
    list(report._lines())
    assert nodes[0].path and writes == [len(nodes)]


def test_count_checks_vertex_names_before_any_text():
    t = caterpillar(5, names=("a", "b", "c(", "d", "e"))
    with pytest.raises(ValueError, match="'c\\(' cannot be written"):
        count_hc_wrt(t)


def test_count_report_is_a_snapshot_of_the_tree():
    names = tuple(f"x{v}" for v in range(40))
    t = caterpillar(40, names=names)
    want = count_hc_wrt(caterpillar(40, names=names)).render()
    report = count_hc_wrt(t)
    t.names = tuple(reversed(names))
    t.label[:] = [1 - lab if lab >= 0 else lab for lab in t.label]
    t.root = t.add_inner(1, [t.root, t.add_leaf(40)])
    assert report.render() == want
    assert report.per_node[-1].path == want.splitlines()[-2].split()[1]


def test_count_report_replaces_its_total():
    g, _ = random_cograph(GenParams(n=50, seed=2))
    report = count_hc_total(g)
    other = dataclasses.replace(report, labeled_total=report.labeled_total + 1)
    assert other.per_node is report.per_node and other != report
    assert other.render() == report.render().replace(
        f"labeled_total {report.labeled_total}\n",
        f"labeled_total {report.labeled_total + 1}\n")


def test_per_node_is_a_read_only_sequence(k2_k1_k1):
    report = count_hc_total(k2_k1_k1)
    nodes = report.per_node
    assert len(nodes) == 6
    assert [nc.path for nc in nodes] == \
        ["a", "b", "(a,b)1", "c", "d", "((a,b)1,c,d)0"]
    assert nodes[-1] == nodes[5] and nodes[-6] == nodes[0]
    assert (nodes[-1].partitions, nodes[-1].colors) == (4, 2)
    with pytest.raises(IndexError):
        nodes[6]
    with pytest.raises(IndexError):
        nodes[-7]
    with pytest.raises(TypeError):
        nodes[1:3]
    items = tuple(nodes)
    assert len(items) == 6 and items[2] == nodes[2]
    assert nodes == count_hc_total(k2_k1_k1).per_node
    assert report == count_hc_total(k2_k1_k1)
    assert hash(report) == hash(count_hc_total(k2_k1_k1))
    assert nodes != count_hc_wrt(to_binary(build_cotree(k2_k1_k1))).per_node
    assert list(reversed(nodes)) == list(items[::-1])
    assert nodes.index(nodes[2]) == 2 and nodes[3] in nodes
    with pytest.raises(TypeError):
        nodes[0] = nodes[1]


def test_exhaustive_outputs_cover_hc_set(k2_k1_k1):
    produced = {partition(c)
                for c in enumerate_alg1_outputs(build_cotree(k2_k1_k1))}
    hc = {partition(c) for c in proper_partitions(k2_k1_k1)
          if is_hc_coloring(k2_k1_k1, c).accepted}
    assert produced == hc
    assert len(produced) == 4


def replayed_alg1_outputs(t):
    """Reference: a recording run counts each union child's index choices;
    every combination of indices is replayed, each call building its
    choices again and taking the chosen one."""
    events = []

    def recorder(k, s):
        events.append((k, s))
        return range(k)

    _recolor_top_down(t, recorder)
    option_counts = [math.perm(s, k) for k, s in events]
    for combo in itertools.product(*(range(k) for k in option_counts)):
        picks = iter(combo)

        def replay(k, s):
            return list(itertools.permutations(range(s), k))[next(picks)]

        yield _recolor_top_down(t, replay)


def test_exhaustive_outputs_match_replay_by_index(small_cographs):
    assert len(small_cographs) == 535
    for g in small_cographs:
        t = build_cotree(g)
        assert list(enumerate_alg1_outputs(t)) == \
            list(replayed_alg1_outputs(t))


def reference_render(report):
    """`CountReport.render` as it was: every count through `_decimal`."""
    from cograph_hc.hc_algorithms import _decimal
    lines = [f"node {nc.path} N {_decimal(nc.partitions)} s {nc.colors}"
             for nc in report.per_node]
    lines.append(f"labeled_total {_decimal(report.labeled_total)}")
    return "\n".join(lines) + "\n"


def test_render_matches_the_decimal_reference(small_cographs):
    # short counts render through str(), long ones through _decimal; a
    # chain of 400 unions, each adding a K10 below a K20, has counts on both
    # sides of the 8192-bit split and past str()'s 4300-digit limit
    for g in small_cographs[::7]:
        report = count_hc_total(g)
        assert report.render() == reference_render(report)
    t = Cotree()
    top = t.add_inner(1, [t.add_leaf(v) for v in range(20)])
    for i in range(400):
        k10 = t.add_inner(1, [t.add_leaf(v) for v in range(20 + 10 * i,
                                                          30 + 10 * i)])
        top = t.add_inner(0, [top, k10])
    t.root = top
    report = _count(t)
    sizes = {nc.partitions.bit_length() > 8192 for nc in report.per_node}
    assert sizes == {False, True}
    assert len(reference_render(report).rsplit(" ", 1)[1]) > 4301
    assert report.render() == reference_render(report)


# -- each node's path is a span of the report's one Newick text -----------------

@pytest.mark.parametrize("left", [False, True], ids=["caterpillar",
                                                     "left-comb"])
def test_counts_and_render_match_references_at_depth_2000(left):
    t = caterpillar(2000, left, names=tuple(f"x{v}" for v in range(2000)))
    g = realized_graph(t)
    for report, reference in ((count_hc_wrt(t), reference_count_wrt(t)),
                              (count_hc_total(g), reference_count_total(g))):
        assert triples(report) == reference
        assert report.render() == reference_render(report)


def test_two_counts_of_one_tree_compare_equal(k2_k1_k1):
    cat = to_binary(build_cotree(k2_k1_k1), "left-comb")
    a, b = count_hc_wrt(cat), count_hc_wrt(cat)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a.per_node[2] == b.per_node[2]
    assert a.per_node[2] is not b.per_node[2]
    assert a != count_hc_wrt(to_binary(build_cotree(k2_k1_k1),
                                       "chi-ascending"))
    # equal by path and counts, not by span: the node (a,b)1 spans other
    # characters of another tree's text
    other = count_hc_wrt(align_to_graph(newick_read("((c,d)0,(a,b)1)0;"),
                                        k2_k1_k1))
    [ab] = [nc for nc in other.per_node if nc.path == "(a,b)1"]
    assert ab == a.per_node[2] and hash(ab) == hash(a.per_node[2])
    assert repr(ab) == "NodeCount(path='(a,b)1', partitions=1, colors=2)"
    assert not isinstance(ab, tuple)


def test_a_count_holds_one_newick_text_not_a_copy_per_node():
    # depth 4000: a copy of every node's subtree text kept 74.1 MB
    t = caterpillar(4000)
    t.postorder()  # walked before the count is traced
    tracemalloc.start()
    try:
        report = count_hc_wrt(t)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 12 << 20
    assert len(report.per_node) == 7999
    assert report.per_node[-1].path + ";" == newick_write(t)

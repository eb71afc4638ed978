"""Property-based checks over randomly generated cographs."""

import itertools

from hypothesis import given, settings, strategies as st

from cograph_hc import (GenParams, Graph, InjectionChooser, alg1_color,
                        build_cotree, complement, greedy_coloring,
                        is_hc_coloring, make_discriminating, newick_read,
                        newick_write, random_cograph, read_coloring,
                        read_edge_list, realized_graph, to_binary, verify_hc,
                        write_coloring, write_edge_list)
from cograph_hc.oracle import brute_chromatic

gen_params = st.builds(
    GenParams,
    n=st.integers(min_value=1, max_value=24),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    max_arity=st.integers(min_value=2, max_value=5),
    balance=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)

edge_sets = st.builds(
    lambda n, picks: Graph(n, [p for p in itertools.combinations(range(n), 2)
                               if p in picks]),
    st.integers(min_value=1, max_value=7),
    st.sets(st.tuples(st.integers(0, 6), st.integers(0, 6))),
)


@given(edge_sets)
def test_complement_is_an_involution(g):
    assert complement(complement(g)) == g


@given(gen_params)
@settings(max_examples=60, deadline=None)
def test_newick_roundtrips_generated_cotrees(p):
    _, t = random_cograph(p)
    text = newick_write(t)
    assert newick_write(newick_read(text)) == text


@given(gen_params, st.sampled_from(["left-comb", "chi-ascending"]))
@settings(max_examples=60, deadline=None)
def test_to_binary_preserves_realized_graph(p, strategy):
    g, t = random_cograph(p)
    assert realized_graph(to_binary(t, strategy)).adj == g.adj


@given(gen_params)
@settings(max_examples=60, deadline=None)
def test_generated_cotree_contracts_to_recognition_output(p):
    g, t = random_cograph(p)
    assert make_discriminating(t) == build_cotree(g)


@given(gen_params, st.integers(min_value=0, max_value=2**16))
@settings(max_examples=60, deadline=None)
def test_alg1_output_is_recursively_minimal(p, chooser_seed):
    g, _ = random_cograph(p)
    c, _ = alg1_color(g, InjectionChooser("seeded-random", seed=chooser_seed))
    assert is_hc_coloring(g, c).accepted


@given(gen_params, st.integers(min_value=0, max_value=2**16))
@settings(max_examples=60, deadline=None)
def test_greedy_uses_chi_colors_and_is_hc(p, order_seed):
    import random
    g, t = random_cograph(p)
    order = list(range(g.n))
    random.Random(order_seed).shuffle(order)
    c = greedy_coloring(g, order)
    if g.n <= 8:
        assert len(set(c.values())) == brute_chromatic(g)
    assert is_hc_coloring(g, c).accepted
    assert verify_hc(g, to_binary(t), c).accepted


@given(gen_params, st.permutations(list(range(1, 9))))
@settings(max_examples=60, deadline=None)
def test_hc_verdict_invariant_under_color_renaming(p, perm):
    g, t = random_cograph(GenParams(n=min(p.n, 8), seed=p.seed,
                                    max_arity=p.max_arity, balance=p.balance))
    c, _ = alg1_color(g)
    relabeled = {v: perm[col - 1] for v, col in c.items()}
    bt = to_binary(t)
    assert verify_hc(g, bt, c).accepted == verify_hc(g, bt, relabeled).accepted
    assert is_hc_coloring(g, relabeled).accepted


# -- every writer reads back as what it wrote, whatever the names -------------

@st.composite
def adversarial_names(draw, n):
    """n distinct names that are easy to misread as ids: permuted decimals,
    decimals with leading zeros, other vertices' ids, non-ASCII digits."""
    pool = ([str(i) for i in range(2 * n)] + [f"0{i}" for i in range(n)]
            + ["00", "²", "١", "٣٢", "𝟘", "v0", "x"])
    return tuple(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n,
                               unique=True)))


@st.composite
def named_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(n, edges, names=draw(adversarial_names(n)))


@given(named_graphs())
@settings(max_examples=200, deadline=None)
def test_edge_list_reads_back_as_written(g):
    assert read_edge_list(write_edge_list(g)) == g


@given(named_graphs(), st.data())
@settings(max_examples=200, deadline=None)
def test_coloring_reads_back_as_written(g, data):
    c = {v: data.draw(st.integers(min_value=1, max_value=g.n + 2))
         for v in range(g.n)}
    assert read_coloring(write_coloring(g, c), g) == c


@given(gen_params.filter(lambda p: p.n <= 12), st.data())
@settings(max_examples=100, deadline=None)
def test_newick_reads_back_as_written(p, data):
    _, t = random_cograph(p)
    t.names = data.draw(adversarial_names(p.n))

    def named(tree):  # the tree with its leaves by name, in postorder
        return [(tree.label[u], tree.names[tree.vertex[u]]
                 if tree.is_leaf(u) else None, len(tree.children[u]))
                for u in tree.postorder()]

    assert named(newick_read(newick_write(t))) == named(t)

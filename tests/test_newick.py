import time
import tracemalloc

import pytest

from cograph_hc import (Cotree, Graph, NewickError, build_cotree, newick_read,
                        newick_write)


@pytest.mark.parametrize("text", [
    "v0;",
    "(a,b)1;",
    "((a,b)1,c,d)0;",
    "(((x,y)1,z)0,w)0;",
    "(a,b,c,d,e)1;",
])
def test_roundtrip(text):
    t = newick_read(text)
    assert newick_write(t) == text
    again = newick_read(newick_write(t))
    assert again == t and again.names == t.names


def test_leaf_ids_follow_appearance_order():
    t = newick_read("(c,(a,b)1)0;")
    assert t.names == ("c", "a", "b")
    leaves = [u for u in range(t.n_nodes()) if t.is_leaf(u)]
    assert sorted(t.vertex[u] for u in leaves) == [0, 1, 2]


def test_whitespace_tolerated():
    t = newick_read(" ( a , b )1 ; ")
    assert newick_write(t) == "(a,b)1;"


@pytest.mark.parametrize("text,fragment", [
    ("", "parse-error"),
    ("(a,b)1", "parse-error"),          # missing ';'
    ("(a,b);", "bad-label"),            # no inner label
    ("(a,b)2;", "bad-label"),
    ("(a)1;", "at least 2 children"),
    ("(a,a)1;", "duplicate leaf name"),
    ("(a,b)1;x", "trailing input"),
    ("(a,b1;", "parse-error"),
])
def test_parse_errors_carry_offsets(text, fragment):
    with pytest.raises(NewickError) as exc:
        newick_read(text)
    assert fragment in str(exc.value)
    assert "at byte" in str(exc.value)
    assert 0 <= exc.value.offset <= len(text)


@pytest.mark.parametrize("name", ["a,b", "a(b", "a)", "a;", "a b", "a\tb", ""])
def test_write_rejects_names_that_cannot_read_back(name):
    t = build_cotree(Graph(3, [(0, 1)], names=(name, "c", "d")))
    with pytest.raises(ValueError, match="cannot be written to Newick") as exc:
        newick_write(t)
    assert repr(name) in str(exc.value)
    assert repr(t) == "Cotree(<5 nodes>)"


def caterpillar(depth):
    """Leaves v0..v{depth}, one per level, labels alternating."""
    t = Cotree()
    acc = t.add_leaf(depth)
    for v in range(depth - 1, -1, -1):
        acc = t.add_inner(v % 2, [t.add_leaf(v), acc])
    t.root = acc
    return t


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_roundtrip_depth_2000():
    t = caterpillar(2000)
    text = newick_write(t)
    again = newick_read(text)
    assert again == t
    assert newick_write(again) == text


def test_write_depth_100000_in_linear_time_and_memory():
    # keeping every subtree's text took 4.5 s and 1.8 GB at depth 2*10^4;
    # depth 2000 (17 MB for such a writer) fails it before depth 10^5 would
    # ask for tens of GB
    small = caterpillar(2000)
    assert traced_peak(lambda: newick_write(small)) < 4 << 20
    t = caterpillar(100_000)
    start = time.perf_counter()
    text = newick_write(t)
    assert time.perf_counter() - start < 1
    assert traced_peak(lambda: newick_write(t)) < 200 << 20
    assert newick_read(text) == t

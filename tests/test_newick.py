import random
import re
import time
import tracemalloc

import pytest

from cograph_hc import (Cotree, GenParams, Graph, NewickError, build_cotree,
                        exhaustive_cographs, make_discriminating, newick_read,
                        newick_write, random_cograph)
from cograph_hc.oracle import all_binary_cotrees
from conftest import assert_numbered_in_postorder, caterpillar_spec, tree_of

_NAME = re.compile(r"[^(),;\s]+")
_SPACE = re.compile(r"\s*")


def reference_newick_read(s):
    """The character-level reader that newick_read replaced: one regex match
    per token and one add_leaf/add_inner call per node."""
    t = Cotree()
    pos = 0
    n = len(s)
    leaf_names = []
    seen = set()
    open_kids = []  # children so far of each open "("

    def error(msg):
        return NewickError(msg, pos, s)

    while True:
        pos = _SPACE.match(s, pos).end()
        if pos >= n:
            raise error("parse-error: unexpected end of input")
        if s[pos] == "(":
            pos += 1
            open_kids.append([])
            continue
        m = _NAME.match(s, pos)
        if m is None:
            raise error("parse-error: expected leaf name")
        pos = m.end()
        name = m.group()
        if name in seen:
            raise error(f"parse-error: duplicate leaf name {name!r}")
        seen.add(name)
        leaf_names.append(name)
        node = t.add_leaf(len(leaf_names) - 1)
        # close every inner node that ends after this subtree
        while open_kids:
            open_kids[-1].append(node)
            pos = _SPACE.match(s, pos).end()
            if pos < n and s[pos] == ",":
                pos += 1
                break
            if pos >= n or s[pos] != ")":
                raise error("parse-error: expected ',' or ')'")
            pos += 1
            kids = open_kids.pop()
            if len(kids) < 2:
                raise error("parse-error: inner node needs at least 2 children")
            m = _NAME.match(s, pos)
            if m is None:
                raise error("bad-label")
            pos = m.end()
            if m.group() not in ("0", "1"):
                raise error("bad-label")
            node = t.add_inner(int(m.group()), kids)
        if not open_kids:
            break
    pos = _SPACE.match(s, pos).end()
    if pos >= n or s[pos] != ";":
        raise error("parse-error: expected ';'")
    pos = _SPACE.match(s, pos + 1).end()
    if pos != n:
        raise error("parse-error: trailing input")
    t.root = node
    t.names = tuple(leaf_names)
    return t


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


# text, a fragment of the message, and the offset: one character index per
# malformed input, as the character-level reader gave them
PARSE_ERRORS = [
    ("", "parse-error", 0),
    ("(a,b)1", "parse-error", 6),             # missing ';'
    ("(a,b);", "bad-label", 5),               # no inner label
    ("(a,b)2;", "bad-label", 6),
    ("(a)1;", "at least 2 children", 3),
    ("(a,a)1;", "duplicate leaf name", 4),
    ("(a,b)1;x", "trailing input", 7),
    ("(a,b1;", "parse-error", 5),
    ("(a,b) 1;", "bad-label", 5),             # the label is glued to ")"
    ("(a,b)10;", "bad-label", 7),
    ("(a,b)1x;", "bad-label", 7),
    ("(a,,b)1;", "expected leaf name", 3),
    ("(a,b)1;;", "trailing input", 7),
    ("(a,", "unexpected end of input", 3),
    ("a b;", "expected ';'", 2),
    ("((a,b)1", "expected ',' or ')'", 7),
]


@pytest.mark.parametrize("text,fragment,offset", [
    pytest.param(*case, id=f"{case[0]}-{case[1]}") for case in PARSE_ERRORS])
def test_parse_errors_carry_offsets(text, fragment, offset):
    with pytest.raises(NewickError) as exc:
        newick_read(text)
    assert fragment in str(exc.value)
    assert str(exc.value).endswith(f" at byte {offset}")
    assert exc.value.offset == offset


@pytest.mark.parametrize("text,offset,byte", [
    ("(é,é)1;", 4, 6),
    ("(ß\u2028,\u00a0x)2;", 8, 12),
    ("(日本,語)1 ;;", 9, 15),
    ("(\ud800,\ud800)1;", 4, 8),  # a lone surrogate, from a library caller
])
def test_error_message_gives_utf8_byte_offset(text, offset, byte):
    # the file is UTF-8, so the message counts bytes; .offset stays the
    # character index into the text
    with pytest.raises(NewickError) as exc:
        newick_read(text)
    assert exc.value.offset == offset
    assert str(exc.value).endswith(f" at byte {byte}")


@pytest.mark.parametrize("name", ["a,b", "a(b", "a)", "a;", "a b", "a\tb", ""])
def test_write_rejects_names_that_cannot_read_back(name):
    t = build_cotree(Graph(3, [(0, 1)], names=(name, "c", "d")))
    with pytest.raises(ValueError, match="cannot be written to Newick") as exc:
        newick_write(t)
    assert repr(name) in str(exc.value)
    assert repr(t) == "Cotree(<5 nodes>)"


def caterpillar(depth):
    """Leaves v0..v{depth}, one per level, labels alternating."""
    return tree_of(caterpillar_spec(depth + 1))


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


def same_tree(a, b):
    return ((a.label, a.children, a.vertex, a.root, a.names)
            == (b.label, b.children, b.vertex, b.root, b.names))


def outcome(read, text):
    try:
        return read(text)
    except NewickError as exc:
        return exc


def assert_same_outcome(text):
    got, want = outcome(newick_read, text), outcome(reference_newick_read, text)
    if isinstance(want, NewickError):
        assert isinstance(got, NewickError), text
        assert got.offset == want.offset, text
        assert str(got).partition(" at byte")[0] == \
            str(want).partition(" at byte")[0], text
    else:
        assert isinstance(got, Cotree), (text, got)
        assert same_tree(got, want), text
        assert_numbered_in_postorder(got)


def test_reader_matches_reference_on_every_cotree_up_to_5():
    for n in range(1, 6):
        for g in exhaustive_cographs(n):
            trees = [make_discriminating(build_cotree(g))]
            trees += all_binary_cotrees(g)
            for t in trees:
                text = newick_write(t)
                assert_same_outcome(text)
                assert newick_write(newick_read(text)) == text


@pytest.mark.parametrize("seed", [1, 2])
def test_reader_matches_reference_on_random_trees(seed):
    _, t = random_cograph(GenParams(n=3500, seed=seed))
    assert_same_outcome(newick_write(t))


def test_reader_matches_reference_on_a_deep_caterpillar():
    assert_same_outcome(newick_write(caterpillar(2000)))


PIECES = ["(", ")", ",", ";", "0", "1", ")1", ")0", "a", "b", "é", "v3",
          " ", "\t", "\x1c", "\u2028"]


def mutate(rng, text):
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        op = rng.randrange(4)
        if op == 0:
            text = text[:i]
        elif op == 1:
            text = text[:i] + rng.choice(PIECES) + text[i:]
        elif op == 2:
            text = text[:i] + rng.choice(PIECES) + text[i + 1:]
        else:
            text = text[:i] + text[i + 1:]
    return text


def test_reader_matches_reference_on_malformed_input():
    rng = random.Random(13)
    bases = ["(a,b)1;", "((a,b)1,c,d)0;", " ( a , b )1 ; ", "(é,(ß,x)0)1;",
             "((v0,v1)1,(v2,(v3,v4)0)1)0;", "(((x,y)1,z)0,w)0;", "v0;"]
    corpus = [mutate(rng, rng.choice(bases)) for _ in range(20_000)]
    errors = 0
    for text in corpus:
        assert_same_outcome(text)
        errors += isinstance(outcome(newick_read, text), NewickError)
    assert errors > 15_000  # most mutations make malformed input

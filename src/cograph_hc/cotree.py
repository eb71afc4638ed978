"""Cotrees: recognition of cographs, normal forms, and Newick serialization.

A cotree is a rooted tree whose leaves are graph vertices and whose inner
nodes are labeled 0 (disjoint union) or 1 (join). Recognition merges twins
bottom-up (`build_cotree`): every induced subgraph of a cograph on two or
more vertices has a pair of twins (Corneil, Lerchs & Stewart Burlingham,
1981), so merging them builds the cotree in O(n^2/w) word operations
whatever its shape, and a graph left without twins holds a P4.

All traversals are iterative so deep caterpillar trees do not hit the
interpreter recursion limit.
"""

from __future__ import annotations

import re
from itertools import compress, filterfalse, islice
from typing import NamedTuple, Sequence

from .graph import Graph, VertexIds, default_names

LEAF = -1


class P4Witness(NamedTuple):
    """Four vertices inducing the path a-b-c-d."""

    a: int
    b: int
    c: int
    d: int

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)


class NotACographError(ValueError):
    def __init__(self, witness: P4Witness, names: tuple[str, ...]):
        super().__init__("not-a-cograph")
        self.witness = witness
        self.names = names


class NewickError(ValueError):
    """A Newick parse error. `offset` is the character index into the text;
    the message gives the UTF-8 byte offset, as in the file it came from."""

    def __init__(self, message: str, offset: int, text: str):
        at = len(text[:offset].encode("utf-8", "surrogatepass"))
        super().__init__(f"{message} at byte {at}")
        self.offset = offset


class Cotree:
    """Arena-based rooted cotree.

    Node ids index the parallel arrays; `label[i]` is 0, 1 or LEAF,
    `children[i]` is a tuple of node ids (`()` for a leaf), `vertex[i]` is
    the graph vertex id of a leaf (-1 for inner nodes). `names`, when
    present, maps vertex ids to display names.

    The one invariant: node ids are a postorder, children left to right,
    and the root is the last node. Every pass is a loop over the ids, up
    for bottom-up and down for top-down, and two trees of the same shape
    have the same arrays. Every builder emits this order: `build_cotree`,
    `newick_read` and `_emitted` append to the arrays as they finish
    each node, and a tree from outside is built with `add_leaf` and
    `add_inner`, which refuse children other than the subtrees finished
    last, in order. `leaf_masks` is not kept with the tree: its masks take
    up to n bits per node, more than the tree itself.
    """

    __slots__ = ("label", "children", "vertex", "root", "names")

    def __init__(self, names: tuple[str, ...] | None = None):
        self.label: list[int] = []
        self.children: list[tuple[int, ...]] = []
        self.vertex: list[int] = []
        self.root = -1
        self.names = names

    def add_leaf(self, v: int) -> int:
        self.label.append(LEAF)
        self.children.append(())
        self.vertex.append(v)
        return len(self.label) - 1

    def add_inner(self, label: int, kids: list[int]) -> int:
        """A new node over `kids`, which must be the subtrees finished
        last, in order: the last kid is the last node, and each other kid
        the node just before the first node of the next kid's subtree."""
        if label not in (0, 1):
            raise ValueError("inner label must be 0 or 1")
        if len(kids) < 2:
            raise ValueError("inner node needs at least 2 children")
        children = self.children
        at = len(children) - 1  # the root of the subtree finished last
        for c in kids[:0:-1]:  # every kid but the first, last first
            if c != at or at < 0:
                break
            while children[at]:  # down to the first node of c's subtree
                at = children[at][0]
            at -= 1  # the root of the subtree finished before c's
        else:
            if kids[0] == at >= 0:
                self.label.append(label)
                children.append(tuple(kids))
                self.vertex.append(-1)
                return len(children) - 1
        raise ValueError("children must be the subtrees finished last, "
                         "in order")

    def is_leaf(self, u: int) -> bool:
        return self.label[u] == LEAF

    def n_nodes(self) -> int:
        return len(self.label)

    def n_leaves(self) -> int:
        return self.label.count(LEAF)

    def postorder(self) -> range:
        """Node ids, children before parents, left to right: the ids."""
        return range(len(self.label))

    def leaf_masks(self) -> list[int]:
        """Per node, bitset of graph vertices below it."""
        children, vertex = self.children, self.vertex
        masks = [0] * len(children)
        for u in self.postorder():
            kids = children[u]
            if kids:
                m = 0
                for c in kids:
                    m |= masks[c]
            else:
                m = 1 << vertex[u]
            masks[u] = m
        return masks

    def vertex_names(self, n: int | None = None) -> tuple[str, ...]:
        if self.names is not None:
            return self.names
        return default_names(self.n_leaves() if n is None else n)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cotree):
            return NotImplemented
        return (self.root == other.root and self.label == other.label
                and self.vertex == other.vertex
                and self.children == other.children)

    def __hash__(self) -> int:
        return hash((self.root, tuple(self.label), tuple(self.vertex),
                     tuple(self.children)))

    def __repr__(self) -> str:
        try:
            return f"Cotree({newick_write(self)!r})"
        except ValueError:  # a vertex name that Newick cannot hold
            return f"Cotree(<{self.n_nodes()} nodes>)"


def is_binary(t: Cotree) -> bool:
    """True iff every inner node has two children: a leaf has none and an
    inner node at least one, so every node has none or two."""
    return set(map(len, t.children)) <= {0, 2}


# -- recognition -----------------------------------------------------------

def _find_p4_in(adj: tuple[int, ...], sub: int) -> P4Witness:
    """An induced P4 inside a stalled (non-cograph) subset, by edges.

    For an edge b-c, A = N(b) minus N[c] and D = N(c) minus N[b] inside the
    subset; any a in A with a non-neighbor d in D gives the path a-b-c-d.
    Vertices are taken as their bits, lowest first, peeled off in place:
    this runs for every rejected graph, and on small ones a `bits`
    generator per set took half its time.
    """
    rest_b = sub
    while rest_b:
        bit_b = rest_b & -rest_b
        rest_b ^= bit_b
        b = bit_b.bit_length() - 1
        nb = adj[b] & sub
        rest_c = nb
        while rest_c:
            bit_c = rest_c & -rest_c
            rest_c ^= bit_c
            c = bit_c.bit_length() - 1
            nc = adj[c] & sub
            ends_a = nb & ~nc & ~bit_c
            ends_d = nc & ~nb & ~bit_b
            while ends_a and ends_d:
                bit_a = ends_a & -ends_a
                ends_a ^= bit_a
                a = bit_a.bit_length() - 1
                miss = ends_d & ~adj[a]
                if miss:
                    return P4Witness(a, b, c, (miss & -miss).bit_length() - 1)
    raise AssertionError("stalled subgraph must contain an induced P4")


def build_cotree(g: Graph) -> Cotree | P4Witness:
    """Discriminating cotree of g, or a verified P4 witness.

    Vertices are inserted in id order as modules. A module M is kept as
    ext(M), its neighbors outside it, and its closed key ext(M) | M, in
    lists by module and as keys of two dicts: modules M and X are false
    twins iff their exts are equal and true twins iff their closed keys
    are. A false twin X misses ext(M), so the union keeps ext(M) and its
    closed key is the two closed keys' OR; a true twin X lies inside
    ext(M), so the join's ext is the two exts' AND (ext(M) minus X) and
    its closed key is unchanged. X was the one module with the key that
    the merge keeps, so the merged module is looked up again in the other
    dict only. A merge changes no other module's keys, so the dicts see
    every twin pair. A same-label child is absorbed into its parent, the
    shorter child list appended to the longer.

    One module left: the tree, children ordered by smallest vertex id and
    nodes numbered in postorder. More: their lowest vertices induce a
    twin-free graph; the P4 is searched for in it after peeling the
    vertices that are universal or isolated there, which lie in no P4.
    """
    n = g.n
    if n == 0:
        raise ValueError("empty-graph")
    adj = g.adj
    label = [LEAF] * n  # work nodes: leaves 0..n-1, then inner nodes
    kids: list = [None] * n
    low = list(range(n))
    ext = [0] * (2 * n)     # a live module's ext
    closed = [0] * (2 * n)  # and its closed key ext | mask
    by_ext: dict[int, int] = {}     # ext -> module: false twins
    by_closed: dict[int, int] = {}  # ext | mask -> module: true twins
    for u, e in enumerate(adj):
        c = e | 1 << u
        x, lab = by_ext.pop(e, None), 0
        if x is None:
            x, lab = by_closed.pop(c, None), 1
        while x is not None:
            if lab:
                del by_ext[ext[x]]
                e &= ext[x]
            else:
                del by_closed[closed[x]]
                c |= closed[x]
            if label[x] == lab and (label[u] != lab
                                    or len(kids[x]) > len(kids[u])):
                u, x = x, u
            if label[u] != lab:
                label.append(lab)
                kids.append([u])
                low.append(low[u])
                u = len(label) - 1
            kids[u] += kids[x] if label[x] == lab else [x]
            if low[x] < low[u]:
                low[u] = low[x]
            lab ^= 1  # the next twin, if any, is of the other kind
            x = by_closed.pop(c, None) if lab else by_ext.pop(e, None)
        ext[u], closed[u] = e, c
        by_ext[e] = by_closed[c] = u
    if len(by_ext) > 1:
        return _find_p4_in(adj, _peel(adj, [low[x] for x in by_ext.values()]))
    return _emitted(label, kids, range(n), u, g.names, low=low)


def _cotree_of(g: Graph) -> Cotree:
    """The discriminating cotree of g, for every pass and command that takes
    one; a P4 raises NotACographError carrying it and the graph's names."""
    t = build_cotree(g)
    if isinstance(t, P4Witness):
        names = g.vertex_names()
        raise NotACographError(t, tuple(names[v] for v in t))
    return t


def _peel(adj: tuple[int, ...], reps: list[int]) -> int:
    """Bitset of `reps` less its universal and isolated vertices, peeled
    until none is left. Degrees are counted once: each peeled universal
    vertex lowers every survivor's degree by one. `reps` induce a twin-free
    graph, and peeling keeps it so; two survivors both isolated or both
    universal would be twins, so one vertex per degree is enough."""
    sub = 0
    for v in reps:
        sub |= 1 << v
    at = {(adj[v] & sub).bit_count(): v for v in reps}
    lo, hi = 0, len(reps) - 1  # degree of an isolated / a universal vertex
    while lo < hi:
        if lo in at:
            sub ^= 1 << at.pop(lo)
            hi -= 1
        elif hi in at:
            sub ^= 1 << at.pop(hi)
            lo += 1
        else:
            break
    return sub


def realized_graph(t: Cotree) -> Graph:
    """Recover the cograph in one top-down pass over the leaf masks.

    A vertex's neighbor set is the OR, over its join ancestors u, of the
    leaves below u outside the child of u on the path to the vertex.
    """
    label, children, vertex = t.label, t.children, t.vertex
    seen = sorted(compress(vertex, map(LEAF.__eq__, label)))
    n = len(seen)
    if seen != list(range(n)):
        raise ValueError("leaf vertex ids must be a bijection onto 0..n-1")
    adj = [0] * n
    masks = t.leaf_masks()
    stack = [(t.root, 0)]
    while stack:
        u, nbrs = stack.pop()
        lab = label[u]
        if lab == LEAF:
            adj[vertex[u]] = nbrs
        elif lab == 1:
            m = masks[u]
            for c in children[u]:
                stack.append((c, nbrs | (m ^ masks[c])))
        else:
            for c in children[u]:
                stack.append((c, nbrs))
    names = t.names
    if names is not None and len(names) != n:
        names = None
    return Graph._from_adj(n, adj, names)


def node_chromatic_numbers(t: Cotree) -> list[int]:
    """Chromatic number below each node: leaf 1, union max, join sum."""
    chi = [1] * t.n_nodes()
    for u in t.postorder():
        if t.children[u]:
            chi[u] = (sum if t.label[u] == 1 else max)(
                map(chi.__getitem__, t.children[u]))
    return chi


# -- normal forms -----------------------------------------------------------

def make_discriminating(t: Cotree) -> Cotree:
    """Contract every inner edge with equal labels; canonical child order.

    A top-down pass hands each kept node to the kept node its parent is
    contracted into; the kept nodes are emitted, children by smallest
    vertex."""
    label, children, vertex = t.label, t.children, t.vertex
    low = vertex.copy()  # smallest vertex below each node
    for u, kids in enumerate(children):
        if kids:
            low[u] = min(low[c] for c in kids)
    into = list(range(len(label)))  # node -> the kept node it joins
    order: list[list[int]] = [[] for _ in label]  # kept node -> kept children
    for u in reversed(range(len(label))):
        for c in children[u]:
            if label[c] == label[u]:
                into[c] = into[u]
            else:
                order[into[u]].append(c)
    return _emitted(label, order, vertex, t.root, t.names, low=low)


def to_binary(t: Cotree, strategy: str = "left-comb") -> Cotree:
    """Refine every inner node with more than 2 children into a caterpillar.

    `left-comb` keeps child order; `chi-ascending` first sorts children of
    0-nodes by ascending chromatic number (stable, so canonical order breaks
    ties), which groups equal-chromatic children contiguously. A binary
    tree's left comb is a copy of its arrays, as its ids are a postorder.
    """
    if strategy not in ("left-comb", "chi-ascending"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy == "left-comb" and is_binary(t):
        out = Cotree(t.names)
        out.label, out.children = t.label.copy(), t.children.copy()
        out.vertex, out.root = t.vertex.copy(), t.root
        return out
    order = t.children
    if strategy == "chi-ascending":
        chi = node_chromatic_numbers(t)
        order = [sorted(kids, key=chi.__getitem__) if lab == 0 else kids
                 for lab, kids in zip(t.label, order)]
    return _emitted(t.label, order, t.vertex, t.root, t.names, comb="left")


def _emitted(label: Sequence[int], order: Sequence, vertex: Sequence[int],
             root: int, names: tuple[str, ...] | None,
             comb: str | None = None,
             low: Sequence[int] | None = None) -> Cotree:
    """The tree below `root` in which a node u with children order[u]
    (sorted in place by `low` when it is given) is an inner node labeled
    label[u], and a node without is the leaf of vertex[u]. One walk over
    an explicit stack numbers the nodes as it finishes them, so in
    postorder. An inner node with more than two children stays one node,
    or with `comb` becomes a caterpillar of binary nodes: a left comb
    pairs the first two children and hangs each next one on the right, a
    right comb pairs the last two and hangs each earlier one on the left.
    """
    t = Cotree(names)
    t_label, t_children, t_vertex = t.label, t.children, t.vertex
    left, right = comb == "left", comb == "right"
    arity = 2 if comb else 0  # children of a finished node, 0: all of them
    out: list[int] = []  # ids of the finished subtrees awaiting a parent
    work = [root]  # u: emit u's subtree; ~u: finish a node of u
    while work:
        u = work.pop()
        if u < 0:
            k = arity or len(order[~u])
            if k == 2:
                b = out.pop()
                t_children.append((out[-1], b))
                out[-1] = len(t_label)
            else:
                t_children.append(tuple(out[-k:]))
                out[-k:] = [len(t_label)]
            t_label.append(label[~u])
            t_vertex.append(-1)
            continue
        kids = order[u]
        if not kids:
            out.append(len(t_label))
            t_label.append(LEAF)
            t_children.append(())
            t_vertex.append(vertex[u])
            continue
        if low is not None:
            kids.sort(key=low.__getitem__)
        if len(kids) == 2:  # the cheap path: no comb
            work += (~u, kids[1], kids[0])
            continue
        if left:  # each comb node above the first follows its child
            for c in kids[:1:-1]:
                work += (~u, c)
            kids = kids[:2]
        elif right:  # the comb nodes follow the last child
            work += [~u] * (len(kids) - 2)
        work.append(~u)
        work += reversed(kids)
    t.root = out[0]
    return t


def align_to_graph(t: Cotree, g: Graph) -> Cotree:
    """The same tree with its leaves renamed to g's ids, matching by name."""
    tnames = t.vertex_names(g.n)
    if sorted(tnames) != sorted(g.vertex_names()):
        raise ValueError("cotree-graph-mismatch")
    gid = VertexIds(g.vertex_names())
    out = Cotree(names=g.names)
    out.label, out.children = t.label.copy(), t.children.copy()
    out.vertex = [v if v < 0 else gid[tnames[v]] for v in t.vertex]
    out.root = t.root
    return out


def realizes(t: Cotree, g: Graph) -> bool:
    if t.n_leaves() != g.n:
        return False
    try:
        return realized_graph(t).adj == g.adj
    except ValueError:
        return False


# -- Newick serialization ----------------------------------------------------

# a leaf name or node label: no whitespace and none of the reserved "(),;"
_NAME = re.compile(r"[^(),;\s]+")
# the tokens newick_read splits the text into, in the same order
_TOKEN = re.compile(r"[(,;]|\)[^(),;\s]*|[^(),;\s]+")


def _newick_names(t: Cotree) -> tuple[str, ...]:
    """t's vertex names, each checked once: one that Newick cannot hold
    raises ValueError. The default names v0, v1, ... read back."""
    for name in filterfalse(_NAME.fullmatch, t.names or ()):
        raise ValueError(f"vertex name {name!r} cannot be written to Newick")
    return t.vertex_names()


def _newick_spans(label: Sequence[int], children: Sequence[tuple[int, ...]],
                  vertex: Sequence[int], root: int, names: Sequence[str]
                  ) -> tuple[str, list[int], list[int]]:
    """Newick text without the ";" of the tree held by the arrays and
    names (checked by `_newick_names`), and each node's [start, end) span
    in it. One preorder walk over an explicit stack (~u closes u) appends
    tokens to one list that is joined once, so memory stays linear at any
    depth."""
    start = [0] * len(label)
    end = [0] * len(label)
    out: list[str] = []
    pos = 0
    stack = [root]
    while stack:
        u = stack.pop()
        if u >= 0:
            start[u] = pos
            if children[u]:
                out.append("(")
                pos += 1
                stack.append(~u)
                stack.extend(reversed(children[u]))
                continue
            tok = names[vertex[u]]
        else:
            u = ~u
            tok = ")1" if label[u] else ")0"
        out.append(tok)
        pos += len(tok)
        end[u] = pos
        if stack and stack[-1] >= 0:  # a sibling follows, not a close
            out.append(",")
            pos += 1
    return "".join(out), start, end


def newick_write(t: Cotree) -> str:
    """Newick text of t; a vertex name that would not read back (empty, or
    holding whitespace or one of "(),;") raises ValueError."""
    return _newick_spans(t.label, t.children, t.vertex, t.root,
                         _newick_names(t))[0] + ";"


def newick_read(s: str) -> Cotree:
    """Parse a cotree; leaf ids are assigned in order of appearance.

    One split of the whole text into tokens, then one walk over them with an
    explicit stack, so the nesting depth is not bounded by the recursion
    limit. A ")" keeps its label glued to it, so ") 1" is a missing label.
    """
    toks = (s.replace("(", " ( ").replace(",", " , ").replace(";", " ; ")
            .replace(")", " )").split())
    end = len(toks)
    t = Cotree()
    label, children, vertex = t.label, t.children, t.vertex
    ids: dict[str, int] = {}  # leaf name -> vertex id, in order of appearance
    open_kids: list[list[int]] = []  # children so far of each open "("
    i = 0
    while True:
        if i == end:
            raise _newick_error(s, "parse-error: unexpected end of input", i)
        tok = toks[i]
        i += 1
        if tok == "(":
            open_kids.append([])
            continue
        if tok[0] in "),;":
            raise _newick_error(s, "parse-error: expected leaf name", i - 1)
        if tok in ids:
            raise _newick_error(
                s, f"parse-error: duplicate leaf name {tok!r}", i - 1, len(tok))
        node = len(label)
        label.append(LEAF)
        children.append(())
        vertex.append(len(ids))
        ids[tok] = len(ids)
        # close every inner node that ends after this subtree
        while open_kids:
            open_kids[-1].append(node)
            if i == end or toks[i][0] not in ",)":
                raise _newick_error(s, "parse-error: expected ',' or ')'", i)
            tok = toks[i]
            i += 1
            if tok == ",":
                break
            kids = open_kids.pop()
            if len(kids) < 2:
                raise _newick_error(
                    s, "parse-error: inner node needs at least 2 children",
                    i - 1, 1)
            if tok == ")1":
                lab = 1
            elif tok == ")0":
                lab = 0
            else:  # no label (k = 1, just after ")") or another one
                raise _newick_error(s, "bad-label", i - 1, len(tok))
            node = len(label)
            label.append(lab)
            children.append(tuple(kids))
            vertex.append(-1)
        if not open_kids:
            break
    if i == end or toks[i] != ";":
        raise _newick_error(s, "parse-error: expected ';'", i)
    if i + 1 != end:
        raise _newick_error(s, "parse-error: trailing input", i + 1)
    t.root = node
    t.names = tuple(ids)
    return t


def _newick_error(s: str, msg: str, i: int, k: int = 0) -> NewickError:
    """The error at k characters into the i-th token of s, or at the end of s
    when it has no i-th token. Only this error path finds token offsets."""
    m = next(islice(_TOKEN.finditer(s), i, None), None)
    return NewickError(msg, len(s) if m is None else m.start() + k, s)

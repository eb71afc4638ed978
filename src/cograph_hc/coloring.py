"""Colorings of cographs: greedy coloring and hc-axiom verification.

A coloring is a dict mapping every vertex id of its graph to a positive
integer color. Verification treats colors as opaque labels; only the set
relations between child color sets matter (disjoint at joins, nested at
unions).
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .graph import Graph, VertexIds, bits, _COMMENT, _check_tokens
from .cotree import Cotree, _cotree_of, is_binary, realizes

Coloring = dict[int, int]


class Verdict(NamedTuple):
    """Outcome of an hc verification; rejections carry a certificate."""

    accepted: bool
    node: int | None = None
    axiom: str | None = None  # "K2", "K3" or "proper"
    sets: tuple[frozenset[int], frozenset[int]] | None = None

    def __bool__(self) -> bool:
        return self.accepted


def _check_domain(g: Graph, c: Coloring) -> None:
    if set(c) != set(range(g.n)):
        raise ValueError("coloring-domain-mismatch")
    if any(col < 1 for col in c.values()):
        raise ValueError("colors must be positive integers")


def _color_bits(c: Coloring) -> tuple[list[int], list[int]]:
    """Per vertex, its color as a one-bit mask over the sorted distinct
    colors, and that palette for reading masks back as colors. Masks stay
    at most n bits wide whatever the color values."""
    palette = sorted(set(c.values()))
    bit = {col: 1 << i for i, col in enumerate(palette)}
    return [bit[c[v]] for v in range(len(c))], palette


def _colors(mask: int, palette: list[int]) -> frozenset[int]:
    return frozenset(palette[i] for i in bits(mask))


def _classes(g: Graph, c: Coloring) -> tuple[dict[int, int], dict[int, int]]:
    """Per color, the vertex bitset of its class and of the class's
    neighbors."""
    _check_domain(g, c)
    cls: dict[int, int] = {}
    nbr: dict[int, int] = {}
    for v, col in c.items():
        cls[col] = cls.get(col, 0) | 1 << v
        nbr[col] = nbr.get(col, 0) | g.adj[v]
    return cls, nbr


def _low(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _improper_edge(g: Graph, c: Coloring) -> tuple[int, int] | None:
    """An edge (u, v), u < v, with both ends in one color class and the
    smallest such u, or None when c is proper."""
    cls, nbr = _classes(g, c)
    bad = 0
    for k in cls:
        bad |= cls[k] & nbr[k]
    if not bad:
        return None
    u = _low(bad)
    return u, _low(g.adj[u] & cls[c[u]])


def is_proper(g: Graph, c: Coloring) -> bool:
    """True iff no color class meets its own neighbor set."""
    return _improper_edge(g, c) is None


def greedy_coloring(g: Graph, order: Sequence[int]) -> Coloring:
    """Color vertices in `order` with the first available color.

    First fit by class: `classes[k - 1]` is the vertex bitset of color k so
    far, and v takes the first k whose class misses adj[v], else a new
    color. A vertex that gets color k has an earlier neighbor in each of
    classes 1..k-1, so a run makes at most m + n class tests, one AND each.
    """
    if sorted(order) != list(range(g.n)):
        raise ValueError("order is not a permutation of the vertices")
    adj = g.adj
    classes: list[int] = []
    c: Coloring = {}
    for v in order:
        nbrs = adj[v]
        for k, members in enumerate(classes, 1):
            if not nbrs & members:
                classes[k - 1] |= 1 << v
                break
        else:
            classes.append(1 << v)
            k = len(classes)
        c[v] = k
    return c


def _greedy_witness(g: Graph, c: Coloring) -> tuple[int, int] | None:
    """Why no vertex order produces c: a vertex v and a color i below v's
    color that no neighbor of v has, or None when some order produces c.

    Witness condition: c is greedy iff every vertex with color j has a
    neighbor of every color 1..j-1; that is, for each color j, every vertex
    colored above j lies in the neighbor set of class j. With k classes, a
    color above k means some color i <= k is missing, and then no vertex
    has a neighbor of color i. The lowest such v is reported, for the
    largest such i.
    """
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


def is_greedy(g: Graph, c: Coloring) -> bool:
    """Decide whether some vertex order produces c: every vertex with color
    j has a neighbor of every color 1..j-1 (see `_greedy_witness`)."""
    return _greedy_witness(g, c) is None


# -- verification against a fixed binary cotree ------------------------------

def verify_hc(g: Graph, t: Cotree, c: Coloring,
              check_tree: bool = True) -> Verdict:
    """Check axioms K1-K3 bottom-up against a binary cotree of g.

    Joins require disjoint child color sets (K2); unions require one child
    color set to contain the other (K3). On rejection the first failing
    node in id order, a postorder, is reported, so no node below it fails.
    Colors are renumbered densely before they become bits; the certificate
    holds the original colors.
    """
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


# -- existential decision (over all binary cotrees) ---------------------------

def _hc_refinement(t: Cotree, c: Coloring) -> tuple[Verdict, list]:
    """Whether c is hc w.r.t. some binary refinement of the discriminating
    cotree t, and per node its children in comb order.

    One bottom-up pass with color bitmasks: a join becomes a right comb in
    child order, a union one in stable ascending order of color-set size.
    At each comb node the first child's set must be disjoint from (join,
    K2) or contained in (union, K3) the rest's. A rejection carries both
    sets of the first failing comb node, with nodes in id order and each
    node's comb from the bottom up, and returns there: its order is partial.
    """
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


def is_hc_coloring(g: Graph, c: Coloring) -> Verdict:
    """Decide whether c is an hc-coloring w.r.t. some binary cotree.

    A join needs pairwise disjoint child color sets, a union one child set
    equal to the union of all. Both are decided on the refinement
    `reconstruct_cotree` returns (`_hc_refinement`). The certificate is the
    (first, rest) pair of the first failing comb node that pass meets:
    sets that meet (K2), or neither containing the other (K3; rest is the
    larger). `verify` prints this pair for hc=no.
    """
    _check_domain(g, c)
    return _hc_refinement(_cotree_of(g), c)[0]


# -- coloring file format ------------------------------------------------------

def write_coloring(g: Graph, c: Coloring) -> str:
    _check_domain(g, c)
    _check_tokens(g.names, "a coloring")
    names = g.vertex_names()
    return "".join(f"{names[v]}\t{c[v]}\n" for v in range(g.n))


def read_coloring(text: str, g: Graph) -> Coloring:
    ids = VertexIds(g.vertex_names())
    c: Coloring = {}
    for lineno, line in enumerate(_COMMENT.sub(" ", text).splitlines(),
                                  start=1):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'vertex<TAB>color'")
        vtok, ctok = parts
        try:
            v = ids[vtok]
        except KeyError:
            raise ValueError(f"line {lineno}: unknown vertex {vtok!r}") from None
        if not (ctok.isascii() and ctok.isdigit()) or int(ctok) < 1:
            raise ValueError(f"line {lineno}: bad color {ctok!r}")
        if v in c:
            raise ValueError(f"line {lineno}: vertex {vtok!r} colored twice")
        c[v] = int(ctok)
    _check_domain(g, c)
    return c

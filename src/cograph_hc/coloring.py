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
    axiom: str | None = None  # "K2" or "K3"
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


def _low(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _witnesses(g: Graph, c: Coloring) -> tuple[tuple[int, int] | None,
                                               tuple[int, int] | None]:
    """Why c is not proper, else why no vertex order produces it, from one
    table of color classes and their neighbor sets: (edge, None), (None,
    missing) or (None, None).

    edge is (u, v), u < v, both ends in one class, with the smallest such
    u, then v. missing is (v, i), a vertex v and a color i below v's color
    that no neighbor of v has. Witness condition: a proper c is greedy iff
    every vertex with color j has a neighbor of every color 1..j-1; that
    is, for each color j, every vertex colored above j lies in the
    neighbor set of class j. With k classes, a color above k means some
    color i <= k is missing, and then no vertex has a neighbor of color i.
    The lowest such v is reported, for the largest such i.
    """
    _check_domain(g, c)
    cls: dict[int, int] = {}
    nbr: dict[int, int] = {}
    for v, col in c.items():
        cls[col] = cls.get(col, 0) | 1 << v
        nbr[col] = nbr.get(col, 0) | g.adj[v]
    k = len(cls)
    bad = above = 0
    for col, members in cls.items():
        bad |= members & nbr[col]
        if col > k:
            above |= members
    if bad:
        u = _low(bad)
        return (u, _low(g.adj[u] & cls[c[u]])), None
    for j in range(k, 0, -1):
        bad = above & ~nbr.get(j, 0)
        if bad:
            return None, (_low(bad), j)
        above |= cls.get(j, 0)
    return None, None


def is_proper(g: Graph, c: Coloring) -> bool:
    """True iff no color class meets its own neighbor set."""
    return _witnesses(g, c)[0] is None


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


def is_greedy(g: Graph, c: Coloring) -> bool:
    """Decide whether some vertex order produces c: every vertex with color
    j has a neighbor of every color 1..j-1 (see `_witnesses`)."""
    edge, missing = _witnesses(g, c)
    if edge is not None:
        raise ValueError("not-proper")
    return missing is None


# -- the verdict fold: K2 and K3 on a comb of every inner node ----------------

def _hc_fold(t: Cotree, c: Coloring, comb: str) -> tuple[Verdict, list | int]:
    """Check K2 and K3 on a binary refinement of t in one bottom-up pass.

    Each inner node is a comb over its children, folded one at a time
    with `seen`, the OR of the color masks so far: the next child's mask
    must be disjoint from it at a join (K2) and nested with it at a union
    (K3). `left` folds in child order, the left comb of `to_binary`, and
    reports (seen, next). `right`, the right comb of `reconstruct_cotree`,
    folds a join from its last child and a union, stably sorted by
    ascending set size, from its largest, and reports (next, seen). Nodes
    go in id order, a postorder, each comb from the bottom up, and the
    pass returns at the first failure, so no node below it fails.

    Returns the verdict and, on acceptance, per node its children in comb
    order, or on rejection the failing next child.
    """
    bit, palette = _color_bits(c)
    label, vertex = t.label, t.vertex
    right = comb == "right"
    order = list(t.children) if right else t.children
    masks = [0] * len(order)
    for u, kids in enumerate(order):
        if not kids:
            masks[u] = bit[vertex[u]]
            continue
        join = label[u] == 1
        if right and not join:
            kids = order[u] = sorted(kids, key=lambda k: masks[k].bit_count())
        kids = reversed(kids) if right else iter(kids)
        seen = masks[next(kids)]
        for k in kids:
            m = masks[k]
            inter = seen & m
            if inter if join else inter != seen and inter != m:
                sets = (m, seen) if right else (seen, m)
                return Verdict(False, u, "K2" if join else "K3", tuple(
                    _colors(s, palette) for s in sets)), k
            seen |= m
        masks[u] = seen
    return Verdict(True), order


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
    return _hc_fold(t, c, "left")[0]


def is_hc_coloring(g: Graph, c: Coloring) -> Verdict:
    """Decide whether c is an hc-coloring w.r.t. some binary cotree.

    A join needs pairwise disjoint child color sets, a union one child set
    equal to the union of all. Both are decided on the right-comb
    refinement of the discriminating cotree that `reconstruct_cotree`
    returns (`_hc_fold`). The certificate is the failing node of the
    discriminating cotree and the (first, rest) pair of the first failing
    comb node the fold meets: sets that meet (K2), or neither containing
    the other (K3; rest is the larger). `verify` prints this pair for hc=no.
    """
    _check_domain(g, c)
    return _hc_fold(_cotree_of(g), c, "right")[0]


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

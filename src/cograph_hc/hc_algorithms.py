"""Constructive recursively-minimal coloring and hc-coloring counting.

The coloring algorithms hand out palettes top-down: the root gets the
colors 1..chi, a join deals its palette out in consecutive slices, and a
union keeps its whole palette for its first child of maximum chromatic
number and injects every other child's into it, by a function of (k, s)
that picks k distinct indices into the union's palette of size s.
`InjectionChooser` names the two the tool uses, and the oracle exhausts
every choice on tiny instances.

Counts are arbitrary-precision. Per-node counts follow the
up-to-color-renaming convention (colorings identified when they induce the
same partition into color classes); labeled totals fix a chromatic-size
color set and count surjective colorings onto it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from .graph import Graph
from .cotree import Cotree, _combed, _cotree_of, _newick_spans, \
    is_binary, node_chromatic_numbers

if TYPE_CHECKING:
    from .coloring import Coloring


class NotHcColoringError(ValueError):
    def __init__(self, certificate: tuple[frozenset[int], frozenset[int]]):
        super().__init__("not-hc")
        self.certificate = certificate


# k distinct indices into a union's palette of size s, for a child of chi k
Images = Callable[[int, int], Sequence[int]]


@dataclass(frozen=True)
class InjectionChooser:
    """Picks the injective recoloring maps used at union nodes.

    identity-prefix gives a child of chromatic number k the first k colors
    of the union's palette; seeded-random draws its k indices with
    `sample` from one `random.Random(seed)` per run, so a fixed seed
    repeats its output.
    """

    strategy: str = "identity-prefix"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.strategy not in ("identity-prefix", "seeded-random"):
            raise ValueError(f"unknown chooser strategy {self.strategy!r}")

    def _images(self) -> Images:
        """The images function of one run."""
        if self.strategy == "identity-prefix":
            return lambda k, s: range(k)
        sample = random.Random(self.seed).sample
        return lambda k, s: sample(range(s), k)


def _canonical_rename(sigma: list[int]) -> Coloring:
    """Rename colors to {1..k} in order of first appearance by vertex id."""
    rename: dict[int, int] = {}
    out: Coloring = {}
    for v, col in enumerate(sigma):
        if col not in rename:
            rename[col] = len(rename) + 1
        out[v] = rename[col]
    return out


def _recolor_top_down(t: Cotree, images: Images) -> Coloring:
    """Shared core: hand each node its palette, parents before children.

    A palette of chi(u) colors is a view (base, offset): its color j is
    offset + j + 1 if base is None (a range of 1..chi), else base[offset + j].
    A join's children take consecutive slices, a union's first child of
    maximum chi its whole palette, and each other child c the colors at
    images(chi(c), s), built as a list unless they are range(chi(c)). Those
    children's chi add up to less than n, since read bottom-up each of the
    n starting colors is retired at most once: the pass is linear for either
    chooser. Unions call `images` in reverse postorder, children left to
    right, so the (k, s) pairs depend on the tree alone.
    """
    chi = node_chromatic_numbers(t)
    children, label, vertex = t.children, t.label, t.vertex
    base: list[list[int] | None] = [None] * len(chi)
    offset = [0] * len(chi)
    sigma = [0] * t.n_leaves()
    for u in reversed(t.postorder()):
        kids, b, o = children[u], base[u], offset[u]
        if not kids:
            sigma[vertex[u]] = o + 1 if b is None else b[o]
        elif label[u] == 1:
            for c in kids:
                base[c], offset[c] = b, o
                o += chi[c]
        else:
            best = max(kids, key=chi.__getitem__)  # the first maximum
            for c in kids:
                if c != best:
                    picks = images(chi[c], chi[u])
                    if picks != range(chi[c]):
                        base[c] = [o + j + 1 if b is None else b[o + j]
                                   for j in picks]
                        continue
                base[c], offset[c] = b, o
    return _canonical_rename(sigma)


def alg1_color(g: Graph,
               chooser: InjectionChooser = InjectionChooser()
               ) -> tuple[Coloring, Cotree]:
    """Recursively minimal coloring along the discriminating cotree."""
    t = _cotree_of(g)
    return _recolor_top_down(t, chooser._images()), t


# -- binary cotree reconstruction from an hc-colored cograph -------------------

def reconstruct_cotree(g: Graph, c: Coloring) -> Cotree:
    """Recover a binary cotree witnessing that c is an hc-coloring: the
    refinement `is_hc_coloring` decides on, each node's children combed in
    the order `_hc_refinement` gives. Else NotHcColoringError carries the
    sets of `is_hc_coloring`'s verdict."""
    # imported here, the one use, so that counting never loads coloring
    from .coloring import _check_domain, _hc_refinement

    _check_domain(g, c)
    t = _cotree_of(g)
    verdict, order = _hc_refinement(t, c)
    if not verdict:
        raise NotHcColoringError(verdict.sets)
    return _combed(t, order, range(len(order)), left=False)


# -- counting -------------------------------------------------------------------

def g_injections(s1: int, s2: int) -> int:
    """Number of injective maps from an s1-set into an s2-set."""
    if s1 > s2:
        raise ValueError("injection-size-order")
    return math.perm(s2, s1)


class NodeCount(NamedTuple):
    path: str  # Newick serialization of the subtree
    partitions: int  # hc-colorings up to color renaming
    colors: int  # size of the color set used below this node


@dataclass(frozen=True)
class CountReport:
    per_node: tuple[NodeCount, ...]
    labeled_total: int

    def render(self) -> str:
        # no count exceeds labeled_total, so str() serves unless it is long
        dec = str if self.labeled_total.bit_length() <= 8192 else _decimal
        lines = [f"node {nc.path} N {dec(nc.partitions)} s {nc.colors}"
                 for nc in self.per_node]
        lines.append(f"labeled_total {dec(self.labeled_total)}")
        return "\n".join(lines) + "\n"

    @property
    def root_partitions(self) -> int:
        return self.per_node[-1].partitions


def _decimal(x: int, width: int = 0) -> str:
    """Decimal text of x >= 0, zero-padded to `width`, by splitting at a
    power of ten: str() alone refuses ints past the interpreter's digit
    limit (4300 by default), and that limit is process-wide."""
    if x.bit_length() <= 8192:  # at most 2467 digits
        return str(x).zfill(width)
    k = x.bit_length() * 3 // 20  # about half the digits
    high, low = divmod(x, 10 ** k)
    return _decimal(high, max(width - k, 0)) + _decimal(low, k)


def _count(t: Cotree) -> CountReport:
    """The one counting pass. Per node: its hc-colorings up to color
    renaming and the size of its color set. A leaf counts (1, 1). A join
    multiplies its children's counts (their color sets are disjoint) and
    sums their sizes. At a union the first child of maximum size, `best`,
    holds the color set, of size s = size[best], and every other child c
    injects into it: count[best] times count[c] * g_injections(size[c], s)
    per other child. The labeled total names the root's colors:
    count[root] * s!. Each node's path is its span of the tree's Newick
    text, so a vertex name Newick cannot hold raises ValueError.
    """
    text, start, end = _newick_spans(t)
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
                    n *= count[c] * g_injections(size[c], s)
            count[u], size[u] = n, s
        per_node.append(NodeCount(text[start[u]:end[u]], count[u], size[u]))
    root = t.root
    return CountReport(tuple(per_node),
                       count[root] * math.factorial(size[root]))


def count_hc_wrt(t: Cotree) -> CountReport:
    """Count hc-colorings w.r.t. a fixed binary cotree (see `_count`)."""
    if not is_binary(t):
        raise ValueError("cotree-not-binary")
    return _count(t)


def count_hc_total(g: Graph) -> CountReport:
    """Total number of hc-colorings of g (over all binary cotrees).

    The same rule as `count_hc_wrt`, on the discriminating cotree: a
    coloring is hc w.r.t. some binary refinement iff at every union each
    child's color set lies in that of a largest child, which is exactly
    the union step of `_count`.
    """
    return _count(_cotree_of(g))

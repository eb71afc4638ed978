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
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from .graph import Graph
from .cotree import Cotree, _cotree_of, _emitted, _newick_names, \
    _newick_spans, is_binary, node_chromatic_numbers

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
    the order `_hc_fold` gives. Else NotHcColoringError carries the sets
    of `is_hc_coloring`'s verdict."""
    # imported here, the one use, so that counting never loads coloring
    from .coloring import _check_domain, _hc_fold

    _check_domain(g, c)
    t = _cotree_of(g)
    verdict, order = _hc_fold(t, c, "right")
    if not verdict:
        raise NotHcColoringError(verdict.sets)
    return _emitted(t.label, order, t.vertex, t.root, t.names, comb="right")


# -- counting -------------------------------------------------------------------

class NodeCount:
    """One node of a count, made when its report's `per_node` is indexed:
    `partitions`, its hc-colorings up to color renaming, `colors`, the
    size of the color set used below it, and `path`, its subtree as
    Newick, sliced from the report's one Newick text on each access. Two
    are equal when the three values are."""

    __slots__ = ("_nodes", "_u")

    def __init__(self, nodes: _PerNode, u: int):
        self._nodes, self._u = nodes, u

    @property
    def path(self) -> str:
        text, start, end = self._nodes._spans()
        return text[start[self._u]:end[self._u]]

    @property
    def partitions(self) -> int:
        return self._nodes._count[self._u]

    @property
    def colors(self) -> int:
        return self._nodes._size[self._u]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NodeCount):
            return NotImplemented
        return (self.partitions == other.partitions
                and self.colors == other.colors and self.path == other.path)

    def __hash__(self) -> int:
        return hash((self.path, self.partitions, self.colors))

    def __repr__(self) -> str:
        return (f"NodeCount(path={self.path!r}, "
                f"partitions={self.partitions!r}, colors={self.colors!r})")


class _PerNode(Sequence[NodeCount]):
    """A count's nodes in postorder, the root last, read-only: the
    counting pass's two lists, and a snapshot of the tree (its three
    arrays, root and checked names) from which the Newick text and spans
    are written once, on first use."""

    __slots__ = ("_count", "_size", "_tree", "_text")

    def __init__(self, count: list[int], size: list[int], tree: tuple):
        self._count, self._size, self._tree = count, size, tree
        self._text: tuple[str, list[int], list[int]] | None = None

    def _spans(self) -> tuple[str, list[int], list[int]]:
        if self._text is None:
            self._text = _newick_spans(*self._tree)
            self._tree = None
        return self._text

    def __len__(self) -> int:
        return len(self._count)

    def __getitem__(self, i: int) -> NodeCount:
        n = len(self._count)
        if not -n <= i < n:  # a slice raises TypeError here
            raise IndexError("per_node index out of range")
        return NodeCount(self, i % n)

    def __iter__(self) -> Iterator[NodeCount]:
        return (NodeCount(self, u) for u in range(len(self._count)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _PerNode):
            return NotImplemented
        return len(self) == len(other) and all(
            a == b for a, b in zip(self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))


@dataclass(frozen=True)
class CountReport:
    per_node: _PerNode
    labeled_total: int

    def render(self) -> str:
        return "".join(self._lines())

    def _lines(self) -> Iterator[str]:
        """The rendered report a line at a time, each path read from its
        span: the report is never held whole to be written out."""
        nodes = self.per_node
        text, start, end = nodes._spans()
        for a, b, n, s in zip(start, end, nodes._count, nodes._size):
            if n.bit_length() > 8192:  # str() serves unless n is long
                n = _decimal(n)
            yield f"node {text[a:b]} N {n} s {s}\n"
        yield f"labeled_total {_decimal(self.labeled_total)}\n"

    @property
    def root_partitions(self) -> int:
        return self.per_node._count[-1]


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
    injects into it: count[best] times count[c] * math.perm(s, size[c])
    per other child. The labeled total names the root's colors:
    count[root] * s!. The vertex names are checked here, so a name Newick
    cannot hold raises ValueError before any text is written.
    """
    names = _newick_names(t)
    label, children = t.label, t.children
    count = [1] * len(label)
    size = [1] * len(label)
    size_of, perm = size.__getitem__, math.perm
    for u, kids in enumerate(children):
        if not kids:
            continue
        if label[u] == 1:
            n, s = 1, 0
            for c in kids:
                n *= count[c]
                s += size[c]
        else:
            best = max(kids, key=size_of)  # the first maximum
            s = size[best]
            n = count[best]
            for c in kids:
                if c != best:
                    n *= count[c] * perm(s, size[c])
        count[u], size[u] = n, s
    tree = (label.copy(), children.copy(), t.vertex.copy(), t.root, names)
    root = t.root
    return CountReport(_PerNode(count, size, tree),
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

"""Instance sources: exhaustive small cographs and seeded random cographs.

The exhaustive stream extends each labeled cograph on n - 1 vertices by
one vertex (see `exhaustive_cographs`). Its P4 search is the oracle's
brute-force one, imported when first needed, so that loading this module
does not load the oracle.

Random instances are sampled as random cotrees, which guarantees cograph
membership by construction and hands back the ground-truth cotree. The
random stream is `random.Random(seed)` (Mersenne Twister) consumed in a
fixed preorder traversal, so identical parameters always reproduce the
identical (graph, cotree) pair.
"""

from __future__ import annotations

import random
from typing import Iterator, NamedTuple

from .graph import Graph
from .cotree import Cotree, _emitted, realized_graph


class _Params(NamedTuple):
    n: int
    seed: int = 0
    max_arity: int = 3
    balance: float = 0.5


class GenParams(_Params):
    """Parameters of the random cotree model, checked when made.

    `balance` is the probability that an inner child flips its parent's
    label (1.0 yields a discriminating cotree); the root is a join with
    probability `balance` as well.
    """

    __slots__ = ()

    def __new__(cls, n: int, seed: int = 0, max_arity: int = 3,
                balance: float = 0.5) -> GenParams:
        if n < 1:
            raise ValueError("n must be >= 1")
        if max_arity < 2:
            raise ValueError("max_arity must be >= 2")
        if not 0.0 <= balance <= 1.0:
            raise ValueError("balance must be in [0, 1]")
        return super().__new__(cls, n, seed, max_arity, balance)


def random_cograph(p: GenParams) -> tuple[Graph, Cotree]:
    """Sample a random cotree with n leaves and return its realized graph."""
    rng = random.Random(p.seed)
    # the work tree, root 0: per node its label, children and leaf count,
    # and a leaf's vertex; `_emitted` numbers it in postorder
    label = [1 if rng.random() < p.balance else 0]
    order: list[list[int]] = [[]]
    size = [p.n]
    vertex = [-1]
    leaves = 0
    work = [0]  # preorder on an explicit stack; deep caterpillars stay safe
    while work:
        u = work.pop()
        count = size[u]
        if count == 1:
            vertex[u] = leaves
            leaves += 1
            continue
        k = rng.randint(2, min(p.max_arity, count))
        cuts = sorted(rng.sample(range(1, count), k - 1))
        for a, b in zip([0] + cuts, cuts + [count]):
            order[u].append(len(size))
            flip = b - a > 1 and rng.random() < p.balance
            label.append(1 - label[u] if flip else label[u])
            order.append([])
            size.append(b - a)
            vertex.append(-1)
        work += reversed(order[u])
    t = _emitted(label, order, vertex, 0, None)
    return realized_graph(t), t


def exhaustive_cographs(n: int) -> Iterator[Graph]:
    """Stream all labeled P4-free graphs on n vertices, in increasing order
    of edge mask, where bit i of the mask is the i-th vertex pair (u, v),
    u < v, in lexicographic order.

    A P4 of G either lies in G - 0 or passes through vertex 0. Vertex 0's
    pairs are the mask's low n - 1 bits, so each P4-free graph on 1..n-1
    (the (n-1)-stream with ids shifted up by one), in order, is extended by
    every neighbourhood of vertex 0 in increasing order, and an extension
    is kept iff no induced P4 passes through vertex 0.
    """
    from .oracle import _has_p4_through

    if n < 1 or n > 7:
        raise ValueError("size-guard: exhaustive_cographs needs 1 <= n <= 7")
    if n == 1:
        yield Graph._from_adj(1, (0,), None)
        return
    rest = range(1, n)
    for h in exhaustive_cographs(n - 1):
        adj = [0, *(row << 1 for row in h.adj)]
        for s in range(0, 1 << n, 2):
            adj[0] = s
            if not _has_p4_through(adj, 0):
                yield Graph._from_adj(
                    n, (s, *(adj[u] | s >> u & 1 for u in rest)), None)

"""Undirected simple graphs over dense integer vertex ids.

Adjacency is kept as one Python int bitset per vertex, which makes
complementation cheap even for a few thousand vertices. Vertices
optionally carry distinct string names for CLI traceability; the edge-list
and coloring files refer to a vertex by its name or by its decimal id.
"""

from __future__ import annotations

import re
from itertools import filterfalse
from typing import Iterable, Iterator, Sequence


class GraphFormatError(ValueError):
    """Raised on malformed edge-list input."""


class VertexIds(dict):
    """`ids[tok]`: the vertex that token names, a vertex name or else an
    ASCII decimal id below n; anything else ("+3", "1_0", "-0") raises
    KeyError. Names and plain decimals are keys, so a token costs one
    lookup; only a miss, such as a leading zero, tests the string."""

    __slots__ = ("n",)

    def __init__(self, names: Sequence[str]):
        self.n = len(names)
        super().__init__((str(i), i) for i in range(self.n))
        self.update(zip(names, range(self.n)))

    def __missing__(self, tok: str) -> int:
        if tok.isascii() and tok.isdigit() and int(tok) < self.n:
            return int(tok)
        raise KeyError(tok)


class Graph:
    """Immutable undirected simple graph on vertices 0..n-1."""

    __slots__ = ("n", "names", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = (),
                 names: tuple[str, ...] | None = None):
        if n < 0:
            raise ValueError("negative vertex count")
        if names is not None:
            names = tuple(names)
            if len(names) != n:
                raise ValueError("name count does not match vertex count")
            if len(set(names)) != n:
                raise ValueError("vertex names must be distinct")
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError("bad-vertex-id")
            if u == v:
                raise ValueError("self-loop")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self.names = names
        self.adj = tuple(adj)

    @classmethod
    def _from_adj(cls, n: int, adj: Iterable[int],
                  names: tuple[str, ...] | None) -> "Graph":
        g = object.__new__(cls)
        g.n = n
        g.names = names
        g.adj = tuple(adj)
        return g

    # -- basic queries ----------------------------------------------------

    def vertex_names(self) -> tuple[str, ...]:
        if self.names is not None:
            return self.names
        return tuple(f"v{i}" for i in range(self.n))

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edge_count(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) with u < v, lexicographically sorted."""
        for u in range(self.n):
            rest = self.adj[u] >> (u + 1) << (u + 1)
            while rest:
                low = rest & -rest
                yield u, low.bit_length() - 1
                rest ^= low

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.n == other.n and self.names == other.names
                and self.adj == other.adj)

    def __hash__(self) -> int:
        return hash((self.n, self.names, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count()})"


# -- bitset helpers (shared by the cotree decomposition) ------------------

def bits(mask: int) -> Iterator[int]:
    """Indices of set bits, ascending. Each step rebuilds the mask,
    Theta(width) per bit, so this suits narrow masks only."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# -- elementary operations -------------------------------------------------

def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    adj = [full & ~g.adj[v] & ~(1 << v) for v in range(g.n)]
    return Graph._from_adj(g.n, adj, g.names)


# -- edge-list text format -------------------------------------------------

# a vertex token of the edge-list and coloring files
_TOKEN = re.compile(r"[^\s#]+")


def _check_tokens(names: Sequence[str] | None, where: str) -> None:
    """Refuse, with ValueError, a vertex name that the file readers cannot
    hold: empty, or holding whitespace or "#"."""
    for name in filterfalse(_TOKEN.fullmatch, names or ()):
        raise ValueError(f"vertex name {name!r} cannot be written to {where}")


def write_edge_list(g: Graph) -> str:
    """Edge-list text that `read_edge_list` reads back as g. The reader
    resolves a name before a decimal id, so the edges are written by name
    when some id would read back as another vertex, and as ids otherwise."""
    names, lines, by_name = g.names, [f"n {g.n}"], False
    if names is not None:
        _check_tokens(names, "an edge list")
        lines.append("names " + " ".join(names))
        ids = VertexIds(names)
        by_name = any(ids[str(v)] != v for v in range(g.n))
    if by_name:
        lines.extend(f"{names[u]} {names[v]}" for u, v in g.edges())
    else:
        lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def read_edge_list(text: str) -> Graph:
    n = None
    names: tuple[str, ...] | None = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if n is None:
            if (parts[0] != "n" or len(parts) != 2 or not parts[1].isascii()
                    or not parts[1].isdigit()):
                raise GraphFormatError(f"line {lineno}: expected 'n <count>'")
            n = int(parts[1])
            ids = VertexIds([f"v{i}" for i in range(n)])
            continue
        if parts[0] == "names" and not edges and names is None:
            if len(parts) != n + 1:
                raise GraphFormatError(f"line {lineno}: expected {n} names")
            names = tuple(parts[1:])
            if len(set(names)) != n:
                raise GraphFormatError(f"line {lineno}: duplicate names")
            ids = VertexIds(names)
            continue
        if len(parts) != 2:
            raise GraphFormatError(f"line {lineno}: expected 'u v'")
        try:
            u, v = ids[parts[0]], ids[parts[1]]
            if u == v:
                raise KeyError
        except KeyError:
            raise GraphFormatError(f"line {lineno}: bad edge {line!r}") from None
        edges.append((u, v))
    if n is None:
        raise GraphFormatError("missing 'n <count>' header")
    return Graph(n, edges, names)

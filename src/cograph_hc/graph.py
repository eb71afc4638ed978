"""Undirected simple graphs over dense integer vertex ids.

Adjacency is kept as one Python int bitset per vertex, which makes
complementation cheap even for a few thousand vertices. Vertices
optionally carry distinct string names for CLI traceability; the edge-list
and coloring files refer to a vertex by its name or by its decimal id.
"""

from __future__ import annotations

import re
from itertools import chain, compress, count, filterfalse, repeat
from operator import eq
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


def default_names(n: int) -> tuple[str, ...]:
    """The names of vertices 0..n-1 when none are given: v0, v1, ..."""
    return tuple([f"v{i}" for i in range(n)])


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
        return default_names(self.n)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edge_count(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) with u < v, lexicographically sorted."""
        for u, row in enumerate(self.adj):
            above = row >> (u + 1)
            if above:
                yield from zip(repeat(u), _bits_from(above, u + 1))

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


# bytes.translate table from the digits of bin() to 0/1 selectors
_DIGIT_BITS = bytes.maketrans(b"01", b"\0\1")


def _bits_from(mask: int, lo: int) -> Iterable[int]:
    """lo + i for each set bit i of mask, ascending. A mask with at least
    one set bit in 16 is decoded in C from its binary digits, Theta(width)
    in all; a sparser one bit by bit, by `bits`."""
    if mask.bit_count() * 16 < mask.bit_length():
        return map(lo.__add__, bits(mask))
    digits = bin(mask)[:1:-1].encode()  # lowest bit first
    return compress(count(lo), digits.translate(_DIGIT_BITS))


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
    """Edge-list text that `read_edge_list` reads back as g."""
    return "".join(_edge_list_pieces(g))


def _edge_list_pieces(g: Graph) -> Iterator[str]:
    """The text of `write_edge_list` in line-ending pieces: the header, then
    each vertex's edges to higher vertices as one join. The reader resolves
    a name before a decimal id, so the edges are written by name when some
    id would read back as another vertex, and as ids otherwise. The names
    are checked before any piece is asked for."""
    names, header = g.names, [f"n {g.n}\n"]
    labels = list(map(str, range(g.n)))
    if names is not None:
        _check_tokens(names, "an edge list")
        header.append("names " + " ".join(names) + "\n")
        ids = VertexIds(names)
        if any(ids[v] != i for i, v in enumerate(labels)):
            labels = names

    def rows() -> Iterator[str]:
        for u, row in enumerate(g.adj):
            above = row >> (u + 1)
            if above:
                head = labels[u] + " "
                yield head + ("\n" + head).join(
                    map(labels.__getitem__, _bits_from(above, u + 1))) + "\n"

    return chain(header, rows())


# A comment runs from "#" to the end of its line; the character class holds
# exactly the line boundaries of str.splitlines. A comment becomes a space,
# so that "\r#x\n" keeps both of its line boundaries.
_COMMENT = re.compile("#[^\n\r\v\f\x1c-\x1e\x85\u2028\u2029]*")

# characters per piece of read_edge_list, which bounds its working memory
_PIECE = 1 << 16


def _pieces(text: str) -> Iterator[list[str]]:
    """The lines of text without comments, a list per piece of about
    _PIECE characters; every piece but the last ends just after a "\n",
    so no line and no "\r\n" is cut."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + _PIECE) + 1 or len(text)
        yield _COMMENT.sub(" ", text[start:end]).splitlines()
        start = end


def _first_bad_edge(lines: list[str], lineno: int, ids: VertexIds) -> None:
    """Raise the error of the first bad edge line; line lineno is
    lines[0]."""
    for lineno, line in enumerate(lines, lineno):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 2:
            raise GraphFormatError(f"line {lineno}: expected 'u v'")
        try:
            if ids[parts[0]] == ids[parts[1]]:
                raise KeyError
        except KeyError:
            raise GraphFormatError(
                f"line {lineno}: bad edge {line.strip()!r}") from None


def _add_edges(lines: list[str], lineno: int, ids: VertexIds,
               adj: list[int]) -> None:
    """Add the edges of lines, line lineno first, to adj. Once comments
    are gone no token is "#", so the L non-blank lines, joined with " # ",
    split into u, v, "#", u, v, ... when each holds two tokens. With 3L - 1
    tokens but a line of one or three, some "#" falls on a u or v place,
    and its lookup fails. Only a bad piece is walked line by line, for the
    message of its first bad line."""
    body = list(filter(str.strip, lines))
    if not body:
        return
    toks = " # ".join(body).split()
    try:
        if len(toks) != 3 * len(body) - 1:
            raise KeyError
        us = list(map(ids.__getitem__, toks[0::3]))
        vs = list(map(ids.__getitem__, toks[1::3]))
        if any(map(eq, us, vs)):
            raise KeyError
    except KeyError:
        _first_bad_edge(lines, lineno, ids)
    for u, v in zip(us, vs):
        adj[u] |= 1 << v
        adj[v] |= 1 << u


def read_edge_list(text: str) -> Graph:
    """The graph of an edge list. The header lines (`n <count>`, then an
    optional `names` line before the first edge) are read one by one; the
    edge lines a piece at a time, by `_add_edges`."""
    n = names = ids = adj = None
    lineno = 1  # the number of the line lines[0]
    for lines in _pieces(text):
        i = 0
        while ids is None and i < len(lines):
            parts = lines[i].split()
            if not parts:
                pass
            elif n is None:
                if (parts[0] != "n" or len(parts) != 2
                        or not parts[1].isascii() or not parts[1].isdigit()):
                    raise GraphFormatError(
                        f"line {lineno + i}: expected 'n <count>'")
                n = int(parts[1])
                adj = [0] * n
            elif parts[0] == "names":
                if len(parts) != n + 1:
                    raise GraphFormatError(
                        f"line {lineno + i}: expected {n} names")
                names = tuple(parts[1:])
                if len(set(names)) != n:
                    raise GraphFormatError(f"line {lineno + i}: duplicate names")
                ids = VertexIds(names)
            else:  # the first edge line
                ids = VertexIds(default_names(n))
                break
            i += 1
        if ids is not None:
            _add_edges(lines[i:], lineno + i, ids, adj)
        lineno += len(lines)
    if n is None:
        raise GraphFormatError("missing 'n <count>' header")
    return Graph._from_adj(n, adj, names)

"""Reference routines that check the program's outputs without its code.

Nothing here imports `cograph_hc`. The checks read only the plain data of
the program's objects (`Graph.n` and `Graph.adj`, the `label`, `children`,
`vertex` and `root` fields of a cotree, colorings as dicts) or the text the
command line prints, and recompute what they need with their own loops.
Every check raises `CheckError` on a wrong answer.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

LEAF = -1


class CheckError(Exception):
    """An output of the program failed an independent check."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


# -- trees --------------------------------------------------------------------

@dataclass
class Tree:
    """A rooted cotree as parallel arrays; leaves carry a vertex id."""

    label: list[int]
    children: list[list[int]]
    vertex: list[int]
    root: int

    @classmethod
    def of(cls, t) -> "Tree":
        """Copy the fields of a program cotree."""
        return cls(list(t.label), [list(k) for k in t.children],
                   list(t.vertex), t.root)

    def add(self, label: int, kids: list[int], vertex: int = -1) -> int:
        self.label.append(label)
        self.children.append(kids)
        self.vertex.append(vertex)
        return len(self.label) - 1

    def postorder(self) -> list[int]:
        out, stack = [], [(self.root, False)]
        while stack:
            u, done = stack.pop()
            if done:
                out.append(u)
                continue
            stack.append((u, True))
            stack.extend((c, False) for c in reversed(self.children[u]))
        return out

    def leaves(self) -> list[int]:
        return [self.vertex[u] for u in self.postorder()
                if self.label[u] == LEAF]

    def depth(self) -> int:
        return max(self.leaf_depths().values())

    def leaf_depths(self) -> dict[int, int]:
        """Vertex -> number of edges from the root to its leaf."""
        deep = {self.root: 0}
        for u in reversed(self.postorder()):
            for c in self.children[u]:
                deep[c] = deep[u] + 1
        return {self.vertex[u]: d for u, d in deep.items()
                if self.label[u] == LEAF}


def build_tree(spec) -> Tree:
    """Tree from nested tuples: an int is a leaf, (label, kid, kid, ...)."""
    t = Tree([], [], [], -1)
    out: list[int] = []
    work = [(spec, False)]
    while work:
        node, done = work.pop()
        if isinstance(node, int):
            out.append(t.add(LEAF, [], node))
        elif done:
            k = len(node) - 1
            kids = out[-k:]
            del out[-k:]
            out.append(t.add(node[0], kids))
        else:
            work.append((node, True))
            work.extend((c, False) for c in reversed(node[1:]))
    t.root = out[0]
    return t


def caterpillar_spec(order: list[int], root_label: int):
    """Depth-n spec: one leaf per level, labels alternating from the root."""
    spec = order[-1]
    for i in range(len(order) - 2, -1, -1):
        label = root_label if i % 2 == 0 else 1 - root_label
        spec = (label, order[i], spec)
    return spec


def check_shape(t: Tree, n: int, *, discriminating: bool = False,
                binary: bool = False) -> None:
    """Leaves are exactly 0..n-1; inner nodes are 0/1 with >= 2 children."""
    seen = t.postorder()
    leaves = sorted(t.vertex[u] for u in seen if t.label[u] == LEAF)
    require(leaves == list(range(n)), "cotree leaves are not exactly 0..n-1")
    for u in seen:
        if t.label[u] == LEAF:
            require(not t.children[u], "leaf with children")
            continue
        require(t.label[u] in (0, 1), f"inner node {u} has label "
                f"{t.label[u]!r}")
        kids = t.children[u]
        require(len(kids) == 2 if binary else len(kids) >= 2,
                f"inner node {u} has {len(kids)} children")
        if discriminating:
            require(all(t.label[c] != t.label[u] for c in kids),
                    f"node {u} has a child with its own label")


def _parents(t: Tree) -> tuple[list[int], list[int], dict[int, int]]:
    size = len(t.label)
    parent, depth = [-1] * size, [0] * size
    for u in reversed(t.postorder()):
        for c in t.children[u]:
            parent[c], depth[c] = u, depth[u] + 1
    leaf_of = {t.vertex[u]: u for u in range(size) if t.label[u] == LEAF}
    return parent, depth, leaf_of


def check_realizes(t: Tree, has_edge, pairs) -> None:
    """On each pair, the lowest common ancestor is a join iff an edge."""
    parent, depth, leaf_of = _parents(t)
    for u, v in pairs:
        a, b = leaf_of[u], leaf_of[v]
        while depth[a] > depth[b]:
            a = parent[a]
        while depth[b] > depth[a]:
            b = parent[b]
        while a != b:
            a, b = parent[a], parent[b]
        require((t.label[a] == 1) == bool(has_edge(u, v)),
                f"cotree says {'join' if t.label[a] == 1 else 'union'} at "
                f"({u},{v}) but the graph says "
                f"{'edge' if has_edge(u, v) else 'non-edge'}")


def sample_pairs(n: int, count: int, rng: random.Random) -> list:
    if n < 2:
        return []
    out = []
    for _ in range(count):
        u, v = rng.sample(range(n), 2)
        out.append((u, v))
    return out


def chi(t: Tree) -> int:
    """Chromatic number from a cotree: leaf 1, union max, join sum."""
    val = {}
    for u in t.postorder():
        kids = [val[c] for c in t.children[u]]
        val[u] = 1 if t.label[u] == LEAF else (
            sum(kids) if t.label[u] == 1 else max(kids))
    return val[t.root]


def canonical_coloring(t: Tree) -> dict[int, int]:
    """Every union child starts at color 1, join children are offset.

    At every union the child color sets are prefixes {1..k}, so they nest,
    and join children get disjoint ranges: the result is accepted by every
    binary refinement of t and uses chi(t) colors.
    """
    chis, col = {}, {}
    for u in t.postorder():
        kids = [chis[c] for c in t.children[u]]
        chis[u] = 1 if t.label[u] == LEAF else (
            sum(kids) if t.label[u] == 1 else max(kids))
    offset = {t.root: 0}
    for u in reversed(t.postorder()):
        if t.label[u] == LEAF:
            col[t.vertex[u]] = offset[u] + 1
            continue
        acc = offset[u]
        for c in t.children[u]:
            offset[c] = acc
            if t.label[u] == 1:
                acc += chis[c]
    return col


def plant_fresh_color(c: dict[int, int], rng: random.Random,
                      t: Tree | None = None) -> dict[int, int]:
    """Recolor one vertex of a repeated class with an unused color.

    The result is still proper but uses chi + 1 colors, so no binary cotree
    accepts it (accepted colorings use exactly chi colors). Given the tree,
    the deepest such vertex is taken, so that a top-down check meets the
    violation only at the bottom; otherwise a random one.
    """
    count: dict[int, int] = {}
    for col in c.values():
        count[col] = count.get(col, 0) + 1
    shared = sorted(v for v, col in c.items() if count[col] > 1)
    require(bool(shared), "every color class is a single vertex")
    if t is None:
        v = rng.choice(shared)
    else:
        depth = t.leaf_depths()
        v = max(shared, key=lambda u: (depth[u], -u))
    out = dict(c)
    out[v] = max(c.values()) + 1
    return out


def color_masks(t: Tree, c: dict[int, int]) -> dict[int, int]:
    """Per node, the bitmask of colors used below it."""
    masks = {}
    for u in t.postorder():
        if t.label[u] == LEAF:
            masks[u] = 1 << c[t.vertex[u]]
        else:
            m = 0
            for k in t.children[u]:
                m |= masks[k]
            masks[u] = m
    return masks


def check_coloring(t: Tree, n: int, c: dict[int, int], k: int) -> None:
    """c is proper on the graph of t (disjoint colors under every join)
    and uses exactly k colors."""
    require(sorted(c) == list(range(n)), "coloring domain is not 0..n-1")
    require(all(isinstance(x, int) and x >= 1 for x in c.values()),
            "colors must be positive integers")
    masks = color_masks(t, c)
    for u in t.postorder():
        if t.label[u] == 1:
            seen = 0
            for kid in t.children[u]:
                require(not seen & masks[kid],
                        f"improper: a color repeats across join node {u}")
                seen |= masks[kid]
    require(len(set(c.values())) == k,
            f"coloring uses {len(set(c.values()))} colors, chi is {k}")


def hc_failure(bt: Tree, c: dict[int, int]):
    """First (node, axiom) where c breaks K2/K3 on binary tree bt, or None."""
    masks = color_masks(bt, c)
    for u in bt.postorder():
        if bt.label[u] == LEAF:
            continue
        m1, m2 = (masks[k] for k in bt.children[u])
        if bt.label[u] == 1 and m1 & m2:
            return u, "K2"
        if bt.label[u] == 0 and m1 & m2 not in (m1, m2):
            return u, "K3"
    return None


def check_certificate(axiom: str, s1, s2) -> None:
    """Two color sets that really violate the named axiom."""
    s1, s2 = set(s1), set(s2)
    if axiom == "K2":
        require(bool(s1 & s2), f"K2 certificate {s1} vs {s2} is disjoint")
    elif axiom == "K3":
        require(not (s1 <= s2 or s2 <= s1),
                f"K3 certificate {s1} vs {s2} is nested")
    else:
        raise CheckError(f"unknown axiom {axiom!r} in certificate")


def check_p4(has_edge, quad) -> None:
    """a-b-c-d is an induced path on four distinct vertices."""
    a, b, c, d = quad
    require(len({a, b, c, d}) == 4, f"P4 witness {quad} repeats a vertex")
    require(bool(has_edge(a, b) and has_edge(b, c) and has_edge(c, d)),
            f"P4 witness {quad} misses a path edge")
    require(not (has_edge(a, c) or has_edge(a, d) or has_edge(b, d)),
            f"P4 witness {quad} has a chord")


def check_counts(total: int, wrt_total: int, k: int,
                 relabeled_total: int | None) -> None:
    """Labeled totals are multiples of k!; one tree counts at most the
    total; the total does not depend on vertex names."""
    fact = math.factorial(k)
    require(total > 0 and total % fact == 0,
            "labeled total is not a positive multiple of chi!")
    require(wrt_total > 0 and wrt_total % fact == 0,
            "count w.r.t. a binary cotree is not a positive multiple of chi!")
    require(wrt_total <= total,
            "count w.r.t. one binary cotree exceeds the total")
    if relabeled_total is not None:
        require(relabeled_total == total,
                "labeled total changed under a relabeling of the vertices")


def flip_2k2(t: Tree, rng: random.Random, max_span: int):
    """A random choice among `choices_2k2`, or None if there is none."""
    choices = choices_2k2(t, max_span)
    return rng.choice(choices) if choices else None


def choices_2k2(t: Tree, max_span: int) -> list[tuple[int, int, int, int]]:
    """Non-edges (b, c) whose addition creates the induced P4 a-b-c-d.

    Looks for union nodes with two children that each hold an edge (a-b
    and c-d, which form a 2K2) and span at most `max_span` leaves together,
    so the rejection stalls on a small set. Returns (a, b, c, d) tuples in
    postorder of the union nodes.
    """
    post = t.postorder()
    below: dict[int, list[int]] = {}
    edge_of: dict[int, tuple[int, int] | None] = {}
    for u in post:
        if t.label[u] == LEAF:
            below[u], edge_of[u] = [t.vertex[u]], None
            continue
        kids = t.children[u]
        below[u] = [v for k in kids for v in below[k]]
        if t.label[u] == 1:
            edge_of[u] = (below[kids[0]][0], below[kids[1]][0])
        else:
            edge_of[u] = next((edge_of[k] for k in kids if edge_of[k]), None)
    choices = []
    for u in post:
        if t.label[u] != 0:
            continue
        kids = [k for k in t.children[u] if edge_of[k]]
        for i in range(len(kids)):
            for j in range(i + 1, len(kids)):
                if len(below[kids[i]]) + len(below[kids[j]]) <= max_span:
                    choices.append((*edge_of[kids[i]], *edge_of[kids[j]]))
    return choices


# -- text formats -------------------------------------------------------------

def parse_edge_list(text: str, names: dict[str, int] | None = None
                    ) -> tuple[int, set[int]]:
    """(n, edges) from the edge-list format; an edge u<v is u*n+v.

    A `names` line renames vertex i to names[i-th name], so that graphs
    written in another vertex order compare equal."""
    n = None
    ids: list[int] = []
    edges: set[int] = set()
    for line in text.splitlines():
        line = line.split("#", 1)[0].split()
        if not line:
            continue
        if n is None:
            require(line[0] == "n" and len(line) == 2, "missing 'n' header")
            n = int(line[1])
            ids = list(range(n))
            continue
        if line[0] == "names":
            require(names is not None and len(line) == n + 1,
                    "unexpected names line")
            ids = [names[x] for x in line[1:]]
            continue
        u, v = sorted(ids[int(x)] for x in line)
        require(0 <= u < v < n, f"bad edge {line}")
        edges.add(u * n + v)
    require(n is not None, "empty edge list")
    return n, edges


def edge_test(n: int, edges: set[int]):
    return lambda u, v: (min(u, v) * n + max(u, v)) in edges


def parse_newick(text: str, names: dict[str, int]) -> Tree:
    """Iterative Newick reader; `names` maps leaf names to vertex ids."""
    t = Tree([], [], [], -1)
    stack: list[list[int]] = []
    s = text.strip()
    require(s.endswith(";"), "Newick text does not end with ';'")
    i, end = 0, len(s) - 1
    node = None
    while i < end:
        ch = s[i]
        if ch in "(,":
            if ch == "(":
                stack.append([])
            i += 1
            continue
        if ch == ")":
            require(bool(stack), "unbalanced ')'")
            label = s[i + 1]
            require(label in "01", f"bad label {label!r}")
            node = t.add(int(label), stack.pop())
            i += 2
        else:
            j = i
            while j < end and s[j] not in "(),;":
                j += 1
            require(s[i:j] in names, f"unknown leaf name {s[i:j]!r}")
            node = t.add(LEAF, [], names[s[i:j]])
            i = j
        if stack:
            stack[-1].append(node)
    require(not stack and node is not None, "unbalanced Newick text")
    t.root = node
    return t


def write_newick(t: Tree, names) -> str:
    """The same text format the program writes: `(a,b)L` with leaf names."""
    text = {}
    for u in t.postorder():
        if t.label[u] == LEAF:
            text[u] = names[t.vertex[u]]
        else:
            text[u] = ("(" + ",".join(text[c] for c in t.children[u]) + ")"
                       + str(t.label[u]))
    return text[t.root] + ";"


def parse_coloring(text: str, names: dict[str, int]) -> dict[int, int]:
    c = {}
    for line in text.splitlines():
        parts = line.split()
        if not parts:
            continue
        require(len(parts) == 2 and parts[0] in names,
                f"bad coloring line {line!r}")
        require(names[parts[0]] not in c, f"vertex {parts[0]} colored twice")
        c[names[parts[0]]] = int(parts[1])
    return c


def check_count_text(text: str, nodes: int) -> int:
    """One `node ... N .. s ..` line per cotree node, then the total."""
    lines = text.splitlines()
    require(len(lines) == nodes + 1,
            f"count printed {len(lines) - 1} node lines for {nodes} nodes")
    for line in lines[:-1]:
        parts = line.rsplit(" ", 4)
        require(parts[0].startswith("node ") and parts[1] == "N"
                and parts[3] == "s" and int(parts[2]) > 0
                and int(parts[4]) > 0, f"bad count line {line[:60]!r}")
    last = lines[-1].split()
    require(len(last) == 2 and last[0] == "labeled_total",
            "count output lacks its labeled_total line")
    return int(last[1])

"""Brute-force reference implementations and mechanical theorem checks.

Nothing here shares algorithmic code with the fast paths: cograph-ness
comes from trying every vertex quadruple for an induced P4
(`find_induced_p4`), or, as `exhaustive_cographs` adds one vertex at a
time, every induced P4 through that vertex (`_has_p4_through`); chromatic and
Grundy numbers and components come from exhaustive search over vertex
bitsets, the binary cotrees of a graph from splitting its
vertex set in every way, hc-ness and recursive minimality from checking a
subset table of color bitmasks against every such tree, and greedy-ness
from enumerating every vertex order. Each check still calls the fast path
it tests: `greedy_coloring`, `is_greedy`, `count_hc_wrt`, and the tree
passes behind `is_hc_coloring`, `alg1_color` and `count_hc_total`
(`_hc_fold`, `_recolor_top_down`, `_count`), all run on the one
discriminating cotree `build_cotree` gives for the instance. Size guards
raise instead of silently taking forever.

`check_theorems` enumerates each instance once for all checks: the
discriminating cotree, the binary cotrees, the proper partitions, greedy's
output for every vertex order, each vertex set's chromatic number and each
coloring's verdicts against every tree are shared through `_GraphCtx`. L2
decides each distinct greedy coloring once, however many orders give it,
and T-greedy-iff takes its hc-everywhere set from the partitions with chi
classes, since K2 and K3 do not see color names. Nothing outlives the
instance: no tree or table is kept at module level.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from functools import cached_property

from .graph import Graph, bits
from .cotree import Cotree, P4Witness, _cotree_of
from .coloring import Coloring, _hc_fold, greedy_coloring, is_greedy
from .hc_algorithms import InjectionChooser, _count, _recolor_top_down, \
    count_hc_wrt

THEOREM_IDS = ("T1", "L2", "L3", "T-greedy-iff", "T3", "T4", "COUNT")


# -- elementary oracles -------------------------------------------------------

def find_induced_p4(g: Graph) -> P4Witness | None:
    """Exhaustive search over vertex quadruples for an induced P4."""
    adj = g.adj
    for quad in itertools.combinations(range(g.n), 4):
        qmask = 0
        for v in quad:
            qmask |= 1 << v
        degs = [(adj[v] & qmask).bit_count() for v in quad]
        if sum(degs) != 6 or sorted(degs) != [1, 1, 2, 2]:
            continue
        a, d = (v for v, dg in zip(quad, degs) if dg == 1)
        b = (adj[a] & qmask).bit_length() - 1
        c = (adj[d] & qmask).bit_length() - 1
        if adj[b] >> c & 1:
            return P4Witness(a, b, c, d)
    return None


def _has_p4_through(adj: list[int], v: int) -> bool:
    """Whether an induced P4 passes through v, by bitset search over v's
    neighbours a.

    v is an endpoint of v-a-b-c when b lies outside N[v] and c outside
    N[v] and N[a]; v is inside b-v-a-c when b is in N(v) outside N[a] and
    c in N(a) outside N[v] and N(b). No mask reads bit v of a row other
    than v's, so those rows may leave v out. `exhaustive_cographs` calls
    this once per candidate neighbourhood, so the bit loops are inlined
    and the masks stay nonnegative (small ints are cached, negative ones
    mostly not).
    """
    nv = adj[v]
    out = ((1 << len(adj)) - 1) ^ nv ^ (1 << v)
    todo = nv
    while todo:
        a = todo.bit_length() - 1
        todo ^= 1 << a
        ext = adj[a] & out
        if not ext:
            continue
        far = out ^ ext
        m = ext
        while m:
            b = m.bit_length() - 1
            m ^= 1 << b
            if adj[b] & far:
                return True
        m = nv ^ (nv & adj[a]) ^ (1 << a)
        while m:
            b = m.bit_length() - 1
            m ^= 1 << b
            if ext & adj[b] != ext:
                return True
    return False


def brute_chromatic(g: Graph) -> int:
    """Smallest k admitting a proper coloring, by backtracking search."""
    if g.n > 10:
        raise ValueError("size-guard: brute_chromatic needs n <= 10")
    if g.n == 0:
        raise ValueError("empty-graph")
    return _chromatic(g.adj, (1 << g.n) - 1)


def _chromatic(adj: tuple[int, ...], mask: int) -> int:
    """Chromatic number of the subgraph induced by the vertex bitset
    `mask`: the smallest k for which backtracking, placing the vertices in
    id order, finds a proper coloring."""
    vs = list(bits(mask))
    assign: dict[int, int] = {}

    def place(i: int, k: int) -> bool:
        if i == len(vs):
            return True
        v = vs[i]
        forbidden = {assign[u] for u in bits(adj[v] & mask) if u < v}
        for col in range(1, k + 1):
            if col not in forbidden:
                assign[v] = col
                if place(i + 1, k):
                    return True
        return False

    k = 1
    while not place(0, k):
        k += 1
    return k


def _components(adj: tuple[int, ...], mask: int) -> list[int]:
    """Connected components of the subgraph induced by `mask`, as
    bitsets ordered by smallest member, by breadth-first search."""
    out = []
    while mask:
        comp, frontier = 0, mask & -mask
        while frontier:
            comp |= frontier
            nxt = 0
            for v in bits(frontier):
                nxt |= adj[v]
            frontier = nxt & mask & ~comp
        out.append(comp)
        mask &= ~comp
    return out


# the lowest clear bit of each 11-bit mask: ~m & (m + 1) isolates it
_LOWEST_ZERO = tuple(((~m) & (m + 1)).bit_length() - 1 for m in range(1 << 11))


def brute_grundy(g: Graph) -> int:
    """Max colors over every greedy order (own greedy, 1-based colors)."""
    if g.n > 8:
        raise ValueError("size-guard: brute_grundy needs n <= 8")
    n = g.n
    nbrs = [tuple(bits(a)) for a in g.adj]
    best = 0
    lz = _LOWEST_ZERO
    for order in itertools.permutations(range(n)):
        forb = [1] * n  # bit 0 blocked: colors start at 1
        mx = 0
        for v in order:
            c = lz[forb[v]]
            if c > mx:
                mx = c
            bit = 1 << c
            for u in nbrs[v]:
                forb[u] |= bit
        if mx > best:
            best = mx
    return best


# -- exhaustive coloring / cotree enumeration ---------------------------------

def all_min_colorings(g: Graph) -> list[Coloring]:
    """All proper surjective colorings onto {1..chi(g)}, in lexicographic
    order of their colors in vertex order."""
    if g.n > 7:
        raise ValueError("size-guard: all_min_colorings needs n <= 7")
    return _all_min_colorings(g, brute_chromatic(g))


def _all_min_colorings(g: Graph, k: int) -> list[Coloring]:
    """All proper surjective colorings onto {1..k}, k = chi(g)."""
    n = g.n
    earlier = [[u for u in bits(g.adj[v]) if u < v] for v in range(n)]
    assign = [0] * n
    out = []

    def place(v: int, used: int) -> None:
        if v == n:
            if used.bit_count() == k:
                out.append(dict(enumerate(assign)))
            return
        forbidden = {assign[u] for u in earlier[v]}
        for col in range(1, k + 1):
            if col not in forbidden:
                assign[v] = col
                place(v + 1, used | 1 << col)

    place(0, 0)
    return out


def proper_partitions(g: Graph) -> list[Coloring]:
    """Every proper coloring up to color renaming, as colorings {1..k}.

    Vertices are placed in id order, each into every open class that holds
    none of its neighbors and then into a new class; class i gets color i.
    """
    n, adj = g.n, g.adj
    classes: list[int] = []  # vertex bitset per class, in opening order
    out = []

    def place(v: int) -> None:
        if v == n:
            out.append({u: i for i, m in enumerate(classes, start=1)
                        for u in bits(m)})
            return
        for i, m in enumerate(classes):
            if not adj[v] & m:
                classes[i] = m | 1 << v
                place(v + 1)
                classes[i] = m
        classes.append(1 << v)
        place(v + 1)
        classes.pop()

    place(0)
    return out


class _TreeIndex:
    """Every binary cotree realizing one graph, by recursive bipartition.

    A vertex set splits into {A, B}, the lowest vertex in A, as a join (1)
    when every A-B pair is an edge and as a union (0) when none is; any
    other split realizes nothing. The trees below each vertex set are
    memoized. Each tree is kept as its shape (nested (label, left, right)
    tuples over vertex ids) and two bitsets: the ids of its (label, left
    leaf mask, right leaf mask) triples and of its inner node masks.
    """

    def __init__(self, g: Graph):
        if g.n == 0:
            raise ValueError("empty-graph")
        if g.n > 7:
            raise ValueError(
                "size-guard: binary cotree enumeration needs n <= 7")
        self.adj = g.adj
        self.triples: dict[tuple[int, int, int], int] = {}  # -> bit
        self.node_masks: dict[int, int] = {}  # inner node mask -> bit
        self._memo: dict[int, list[tuple[int, int, object]]] = {}
        forms = self._below((1 << g.n) - 1)
        self.triple_bits = [f[0] for f in forms]
        self.node_bits = [f[1] for f in forms]
        self.shapes = [f[2] for f in forms]

    def _below(self, mask: int) -> list[tuple[int, int, object]]:
        """(triple bits, node bits, shape) of each tree over `mask`, by
        size of A, then A in lexicographic order, then the trees over A,
        then those over B."""
        if mask in self._memo:
            return self._memo[mask]
        low = mask & -mask
        if mask == low:
            out = [(0, 0, low.bit_length() - 1)]
        else:
            out = []
            rest = list(bits(mask ^ low))
            for r in range(len(rest)):
                for extra in itertools.combinations(rest, r):
                    a = low
                    for v in extra:
                        a |= 1 << v
                    b = mask ^ a
                    cross = [self.adj[v] & b for v in bits(a)]
                    if all(x == b for x in cross):
                        label = 1
                    elif not any(cross):
                        label = 0
                    else:
                        continue
                    tbit = self.triples.setdefault((label, a, b),
                                                   1 << len(self.triples))
                    nbit = self.node_masks.setdefault(
                        mask, 1 << len(self.node_masks))
                    for lt, ln, ls in self._below(a):
                        for rt, rn, rs in self._below(b):
                            out.append((lt | rt | tbit, ln | rn | nbit,
                                        (label, ls, rs)))
        self._memo[mask] = out
        return out


def _to_cotree(shape, names: tuple[str, ...] | None) -> Cotree:
    """A `Cotree` of a shape, its nodes numbered in postorder."""
    t = Cotree(names=names)

    def build(s) -> int:
        if isinstance(s, int):
            return t.add_leaf(s)
        label, left, right = s
        kids = [build(left), build(right)]
        return t.add_inner(label, kids)

    t.root = build(shape)
    return t


def all_binary_cotrees(g: Graph) -> list[Cotree]:
    """Every binary cotree (topology + labeling) realizing g."""
    return [_to_cotree(s, g.names) for s in _TreeIndex(g).shapes]


def enumerate_alg1_outputs(t: Cotree):
    """Yield every output the recursive coloring algorithm can produce on
    cotree t, exhausting the injection choices (tiny instances only): one
    recording run lists each union child's index choices in lexicographic
    order, and since no run's (k, s) pairs depend on its choices, each
    combination of them replays as one run."""
    options: list[list[tuple[int, ...]]] = []

    def record(k, s):
        options.append(list(itertools.permutations(range(s), k)))
        return range(k)

    _recolor_top_down(t, record)
    for combo in itertools.product(*options):
        picks = iter(combo)
        yield _recolor_top_down(t, lambda k, s: next(picks))


# -- theorem reports ------------------------------------------------------------

@dataclass
class TheoremReport:
    theorem_id: str
    checked: int = 0
    counterexamples: list = field(default_factory=list)
    skipped: int = 0
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.counterexamples

    def render(self) -> str:
        return (f"THEOREM {self.theorem_id} "
                f"{'PASS' if self.passed else 'FAIL'} "
                f"checked={self.checked} "
                f"counterexamples={len(self.counterexamples)}")


def _greedy_run(g: Graph, order: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(greedy_coloring(g, order).__getitem__, range(g.n)))


class _GraphCtx:
    """Lazily shared per-instance data for the theorem checks.

    Each enumeration (binary cotrees, proper partitions, greedy runs) runs
    at most once per instance, and so does the brute-force chromatic number
    of each vertex set (`chromatic`), which serves chi, L2's components and
    the inner node masks. The verdicts are a bitmask kernel of their
    own: a labeled coloring c gets a subset table cs, where cs[S] is the
    color bitmask of vertex set S, built with one OR per entry. A (label,
    A, B) triple of the enumerated trees fails K2 at a join when cs[A] and
    cs[B] meet, and K3 at a union when neither contains the other; tree t
    accepts c iff its triple bits miss every failing triple. Direct
    recursive minimality reads the same table: an inner node mask fails
    when cs[mask] holds another number of colors than its brute-force
    chromatic number.
    Tables and answers are memoized on c's colors in vertex order, never
    on its partition, so only identical questions are shared; T-greedy-iff
    asks them once per partition with chi classes, not per renaming.
    """

    def __init__(self, g: Graph):
        self.g = g
        self.is_cograph = find_induced_p4(g) is None
        self._color_set_memo: dict[tuple[int, ...], list[int]] = {}
        self._failing_memo: dict[tuple[int, ...], int] = {}
        self._verdict_memo: dict[tuple[int, ...], tuple[bool, ...]] = {}
        self._minimal_memo: dict[tuple[int, ...], bool] = {}
        self._chromatic_memo: dict[int, int] = {}

    @cached_property
    def cotree(self) -> Cotree:
        """The discriminating cotree, which the fast-path passes run on."""
        return _cotree_of(self.g)

    def chromatic(self, mask: int) -> int:
        """The brute-force chromatic number of the subgraph on `mask`."""
        memo = self._chromatic_memo
        if mask not in memo:
            memo[mask] = _chromatic(self.g.adj, mask)
        return memo[mask]

    @cached_property
    def chi(self) -> int:
        return self.chromatic((1 << self.g.n) - 1)

    @cached_property
    def index(self) -> _TreeIndex:
        return _TreeIndex(self.g)

    @cached_property
    def trees(self) -> list[Cotree]:
        """The enumerated trees as `Cotree`s, in the index's order."""
        return [_to_cotree(s, self.g.names) for s in self.index.shapes]

    @cached_property
    def partitions(self) -> list[Coloring]:
        return proper_partitions(self.g)

    @cached_property
    def greedy_runs(self) -> dict[tuple[int, ...], tuple[int, ...]]:
        """Per vertex order, in permutation order, greedy's colors in vertex
        order (every order, so for n <= 5 only)."""
        orders = list(itertools.permutations(range(self.g.n)))
        return dict(zip(orders, map(_greedy_run, itertools.repeat(self.g),
                                    orders)))

    def _color_sets(self, key: tuple[int, ...]) -> list[int]:
        """cs[S], the color bitmask of vertex set S, for every S."""
        memo = self._color_set_memo
        if key not in memo:
            cs = [0]
            for col in key:  # the sets holding vertex v follow those below v
                bit = 1 << col
                cs += [x | bit for x in cs]
            memo[key] = cs
        return memo[key]

    def failing(self, key: tuple[int, ...]) -> int:
        """The bits of the enumerated (label, A, B) triples that the
        coloring with colors `key`, in vertex order, fails: K2 at a join,
        K3 at a union."""
        memo = self._failing_memo
        if key not in memo:
            cs = self._color_sets(key)
            failing = 0
            for (label, a, b), bit in self.index.triples.items():
                x, y = cs[a], cs[b]
                if label == 1:
                    if x & y:  # K2: a join's child color sets are disjoint
                        failing |= bit
                elif x | y not in (x, y):  # K3: a union's are nested
                    failing |= bit
            memo[key] = failing
        return memo[key]

    def verdicts(self, c: Coloring) -> tuple[bool, ...]:
        """Per enumerated tree, whether c satisfies K2 at its joins and K3
        at its unions: whether its triple bits miss every failing one."""
        memo = self._verdict_memo
        key = tuple(c[v] for v in range(self.g.n))
        if key not in memo:
            failing = self.failing(key)
            memo[key] = tuple(not tb & failing
                              for tb in self.index.triple_bits)
        return memo[key]

    @cached_property
    def node_chis(self) -> list[tuple[int, int, int]]:
        """(mask, bit, brute-force chromatic number) per inner node mask."""
        return [(mask, bit, self.chromatic(mask))
                for mask, bit in self.index.node_masks.items()]

    def recursively_minimal(self, c: Coloring) -> bool:
        """Direct recursive minimality: some enumerated tree along which
        every constituent uses exactly its chromatic number of colors."""
        memo = self._minimal_memo
        key = tuple(c[v] for v in range(self.g.n))
        if key not in memo:
            cs = self._color_sets(key)
            failing = 0
            for mask, bit, chi in self.node_chis:
                if cs[mask].bit_count() != chi:
                    failing |= bit
            memo[key] = any(not nb & failing for nb in self.index.node_bits)
        return memo[key]

    @cached_property
    def accepted_mask(self) -> list[bool]:
        """Per partition: accepted by at least one enumerated cotree."""
        return [any(self.verdicts(c)) for c in self.partitions]


def check_theorems(corpus: list[Graph], theorems: list[str] | None = None,
                   seed: int = 0) -> list[TheoremReport]:
    """Run every cross-check on the corpus, all theorems if None; failures
    are data, not errors, and an unknown or a repeated id is a ValueError.

    The per-instance RNG is derived from (seed, instance index), so an
    instance's checks do not depend on the instances before it.
    """
    if theorems is None:
        theorems = list(THEOREM_IDS)
    for i, tid in enumerate(theorems):
        if tid not in THEOREM_IDS:
            raise ValueError(f"unknown theorem id {tid!r}")
        if tid in theorems[:i]:
            raise ValueError(f"duplicate theorem id {tid!r}")
    reports = {tid: TheoremReport(tid) for tid in theorems}
    for idx, g in enumerate(corpus):
        rng = random.Random((seed << 32) + idx)  # per-instance stream
        ctx = _GraphCtx(g)
        why = ("empty-graph" if not g.n
               else None if ctx.is_cograph else "not-a-cograph")
        if why:
            for tid in theorems:
                reports[tid].skipped += 1
                reports[tid].notes.append(f"instance {idx}: {why}")
            continue
        for tid in theorems:
            if g.n > _MAX_N[tid]:
                reports[tid].skipped += 1
                reports[tid].notes.append(f"instance {idx}: size-guard")
            else:
                _CHECKS[tid](reports[tid], idx, ctx, rng)
    return [reports[tid] for tid in theorems]


def _check_t1(rep: TheoremReport, idx: int, ctx: _GraphCtx,
              rng: random.Random) -> None:
    """Accepted colorings use exactly chi colors, over all proper
    partitions and all binary cotrees."""
    for c, accepted in zip(ctx.partitions, ctx.accepted_mask):
        if accepted and len(set(c.values())) != ctx.chi:
            rep.counterexamples.append((idx, c))
    rep.checked += 1


def _check_l2(rep: TheoremReport, idx: int, ctx: _GraphCtx,
              rng: random.Random) -> None:
    """Greedy runs color each component with {1..chi(component)}; also
    gamma = chi (no order ever needs more than chi colors)."""
    g = ctx.g
    if g.n <= 5:
        runs = ctx.greedy_runs.items()
    else:
        pool = list(range(g.n))
        orders = [tuple(rng.sample(pool, g.n)) for _ in range(200)]
        runs = [(order, _greedy_run(g, order)) for order in orders]
        rep.notes.append(f"instance {idx}: sampled 200 orders")
    masks = _components(g.adj, (1 << g.n) - 1)
    comps = [(tuple(bits(m)), set(range(1, ctx.chromatic(m) + 1)))
             for m in masks]
    faults: dict[tuple[int, ...], list] = {}  # per distinct coloring
    for order, flat in runs:
        bad = faults.get(flat)
        if bad is None:
            if len(set(flat)) != ctx.chi:
                bad = ["gamma>chi"]
            else:
                bad = [comp for comp, want in comps
                       if {flat[v] for v in comp} != want]
            faults[flat] = bad
        for f in bad:
            rep.counterexamples.append((idx, order, f))
    rep.checked += 1


def _check_l3(rep: TheoremReport, idx: int, ctx: _GraphCtx,
              rng: random.Random) -> None:
    """Every greedy coloring is hc w.r.t. every binary cotree: it fails no
    enumerated triple. The failing trees are listed only when some triple
    fails."""
    for flat in set(ctx.greedy_runs.values()):
        failing = ctx.failing(flat)
        if failing:
            for tb, tree in zip(ctx.index.triple_bits, ctx.trees):
                if tb & failing:
                    rep.counterexamples.append((idx, flat, tree))
    rep.checked += 1


def _check_greedy_iff(rep: TheoremReport, idx: int, ctx: _GraphCtx,
                      rng: random.Random) -> None:
    """{hc w.r.t. every binary cotree} == {greedy colorings} as sets of
    color-class partitions, and the witness-condition decision agrees with
    order enumeration on labeled colorings.

    The axioms are invariant under color renaming while greedy fixes the
    label order, so the equivalence is a statement about partitions: e.g.
    (1,2,2) on K2+K1 is hc w.r.t. the unique binary cotree but only its
    relabeling (2,1,1) is producible greedily.

    Even at partition level only the greedy-to-hc inclusion holds. The
    converse fails from n = 5 on: on a paw plus an isolated vertex the
    partition {{0}, {1,4}, {2,3}} (triangle 0,1,2; pendant 3 on 0; isolated
    4) is accepted by the unique binary cotree, yet every greedy run colors
    the pendant's class 1 and the isolated vertex 1, forcing them into one
    class. This check reports those genuine counterexamples as found.
    """
    g = ctx.g
    greedy_set = set(ctx.greedy_runs.values())
    # K2 and K3 do not see color names: decide each partition once
    hc_parts = {_partition_key(c, g.n) for c in ctx.partitions
                if max(c.values()) == ctx.chi and all(ctx.verdicts(c))}
    for c in _all_min_colorings(g, ctx.chi):
        flat = tuple(c.values())  # vertex order
        by_orders = flat in greedy_set
        by_witness = is_greedy(g, c)
        if by_orders != by_witness:
            rep.counterexamples.append(
                (idx, flat, "orders", by_orders, "witness", by_witness))
    greedy_parts = {_partition_key(dict(enumerate(flat)), g.n)
                    for flat in greedy_set}
    for part in sorted(hc_parts - greedy_parts,
                       key=lambda p: sorted(map(sorted, p))):
        rep.counterexamples.append(
            (idx, "hc-everywhere-not-greedy", sorted(map(sorted, part))))
    for part in sorted(greedy_parts - hc_parts,
                       key=lambda p: sorted(map(sorted, p))):
        rep.counterexamples.append(
            (idx, "greedy-not-hc-everywhere", sorted(map(sorted, part))))
    rep.checked += 1


def _check_t3(rep: TheoremReport, idx: int, ctx: _GraphCtx,
              rng: random.Random) -> None:
    """is_hc_coloring == exists-cotree brute force == direct recursive
    minimality, over all proper partitions."""
    for c, brute in zip(ctx.partitions, ctx.accepted_mask):
        fast = _hc_fold(ctx.cotree, c, "right")[0].accepted
        direct = ctx.recursively_minimal(c)
        if not (fast == brute == direct):
            rep.counterexamples.append((idx, c, fast, brute, direct))
    rep.checked += 1


def _check_t4(rep: TheoremReport, idx: int, ctx: _GraphCtx,
              rng: random.Random) -> None:
    """Alg. 1 outputs are recursively minimal; with exhausted injections
    the output set equals the hc set up to renaming (n <= 5)."""
    g, t = ctx.g, ctx.cotree
    choosers = [InjectionChooser("identity-prefix"),
                InjectionChooser("seeded-random", seed=rng.getrandbits(32))]
    for chooser in choosers:
        c = _recolor_top_down(t, chooser._images())
        if not _hc_fold(t, c, "right")[0].accepted:
            rep.counterexamples.append((idx, chooser.strategy, c))
        elif not ctx.recursively_minimal(c):
            rep.counterexamples.append((idx, chooser.strategy, c, "direct"))
    if g.n <= 5:
        produced = {_partition_key(c, g.n) for c in enumerate_alg1_outputs(t)}
        hc_set = {_partition_key(c, g.n)
                  for c, acc in zip(ctx.partitions, ctx.accepted_mask) if acc}
        if produced != hc_set:
            rep.counterexamples.append((idx, "completeness",
                                        produced ^ hc_set))
    rep.checked += 1


def _partition_key(c: Coloring, n: int) -> frozenset[frozenset[int]]:
    blocks: dict[int, set[int]] = {}
    for v in range(n):
        blocks.setdefault(c[v], set()).add(v)
    return frozenset(frozenset(b) for b in blocks.values())


def _check_count(rep: TheoremReport, idx: int, ctx: _GraphCtx,
                 rng: random.Random) -> None:
    """Counting formulas against brute-force enumeration."""
    chi_fact = math.factorial(ctx.chi)
    root_counts = set()
    columns = zip(*(ctx.verdicts(c) for c in ctx.partitions))
    for t, column in zip(ctx.trees, columns):
        brute = sum(column)
        report = count_hc_wrt(t)
        root_counts.add(report.root_partitions)
        if report.labeled_total != brute * chi_fact:
            rep.counterexamples.append(
                (idx, t, report.labeled_total, brute * chi_fact))
    if len(root_counts) > 1:
        rep.notes.append(
            f"instance {idx}: per-cotree count differs across binary "
            f"cotrees: {sorted(root_counts)}")
    brute_total = sum(ctx.accepted_mask) * chi_fact
    total = _count(ctx.cotree).labeled_total
    if total != brute_total:
        rep.counterexamples.append((idx, "total", total, brute_total))
    rep.checked += 1


# The largest n each check runs on; larger instances are skipped with a
# note. L3 and T-greedy-iff enumerate every vertex order.
_MAX_N = {"T1": 6, "L2": 6, "L3": 5, "T-greedy-iff": 5, "T3": 6, "T4": 6,
          "COUNT": 6}

_CHECKS = {
    "T1": _check_t1,
    "L2": _check_l2,
    "L3": _check_l3,
    "T-greedy-iff": _check_greedy_iff,
    "T3": _check_t3,
    "T4": _check_t4,
    "COUNT": _check_count,
}

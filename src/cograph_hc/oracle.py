"""Brute-force reference implementations and mechanical theorem checks.

Nothing here shares algorithmic code with the fast paths: chromatic and
Grundy numbers come from exhaustive search, hc-ness from enumerating every
binary cotree, greedy-ness from enumerating every vertex order. Size guards
raise instead of silently taking forever.

`check_theorems` enumerates each instance once for all checks: the binary
cotrees and their leaf masks, the proper partitions, greedy's output for
every vertex order and each coloring's verdicts against every tree are
shared through `_GraphCtx`.
Only identical calls are shared: verdicts are memoized on the labeled
coloring, never on its partition, so no invariance of `verify_hc` is
assumed that the checks are meant to test.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field

from .graph import Graph, bits
from .cotree import Cotree, P4Witness, build_cotree, chromatic_number
from .coloring import Coloring, greedy_coloring, is_greedy, is_hc_coloring, \
    verify_hc
from .hc_algorithms import InjectionChooser, alg1_color, count_hc_total, \
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


def brute_chromatic(g: Graph) -> int:
    """Smallest k admitting a proper coloring, by backtracking search."""
    if g.n > 10:
        raise ValueError("size-guard: brute_chromatic needs n <= 10")
    if g.n == 0:
        raise ValueError("empty-graph")
    adj = g.adj

    def colorable(k: int) -> bool:
        assign = [0] * g.n

        def place(v: int) -> bool:
            if v == g.n:
                return True
            forbidden = {assign[u] for u in bits(adj[v]) if u < v}
            for col in range(1, k + 1):
                if col not in forbidden:
                    assign[v] = col
                    if place(v + 1):
                        return True
            return False

        return place(0)

    k = 1
    while not colorable(k):
        k += 1
    return k


_LOWEST_ZERO = tuple(next(i for i in range(12) if not m >> i & 1)
                     for m in range(1 << 11))


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
    """All proper surjective colorings onto {1..chi(g)}."""
    if g.n > 7:
        raise ValueError("size-guard: all_min_colorings needs n <= 7")
    k = brute_chromatic(g)
    edges = list(g.edges())
    out = []
    for assign in itertools.product(range(1, k + 1), repeat=g.n):
        if len(set(assign)) != k:
            continue
        if any(assign[u] == assign[v] for u, v in edges):
            continue
        out.append({v: assign[v] for v in range(g.n)})
    return out


def all_set_partitions(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """All partitions of {0..n-1}, each as a tuple of sorted blocks."""
    out: list[tuple[tuple[int, ...], ...]] = []

    def rec(v: int, blocks: list[list[int]]) -> None:
        if v == n:
            out.append(tuple(tuple(b) for b in blocks))
            return
        for b in blocks:
            b.append(v)
            rec(v + 1, blocks)
            b.pop()
        blocks.append([v])
        rec(v + 1, blocks)
        blocks.pop()

    rec(0, [])
    return out


def proper_partitions(g: Graph) -> list[Coloring]:
    """Every proper coloring up to color renaming, as colorings {1..k}."""
    out = []
    for blocks in all_set_partitions(g.n):
        c: Coloring = {}
        for i, block in enumerate(blocks, start=1):
            for v in block:
                c[v] = i
        if all(c[u] != c[v] for u, v in g.edges()):
            out.append(c)
    return out


def _edge_mask(adj: tuple[int, ...], n: int) -> int:
    mask = 0
    idx = 0
    for u in range(n):
        for v in range(u + 1, n):
            if adj[u] >> v & 1:
                mask |= 1 << idx
            idx += 1
    return mask


def _pair_index(n: int) -> dict[tuple[int, int], int]:
    idx = {}
    k = 0
    for u in range(n):
        for v in range(u + 1, n):
            idx[u, v] = k
            k += 1
    return idx


def _topologies(leaves: tuple[int, ...],
                memo: dict[tuple[int, ...], list]) -> list:
    """Unordered binary topologies over a labeled leaf set (nested tuples)."""
    if leaves in memo:
        return memo[leaves]
    if len(leaves) == 1:
        memo[leaves] = [leaves[0]]
        return memo[leaves]
    out = []
    first, rest = leaves[0], leaves[1:]
    for r in range(len(rest) + 1):
        for extra in itertools.combinations(rest, r):
            left = (first, *extra)
            right = tuple(v for v in rest if v not in extra)
            if not right:
                continue
            for tl in _topologies(left, memo):
                for tr in _topologies(right, memo):
                    out.append((tl, tr))
    memo[leaves] = out
    return out


def _count_inner(struct) -> int:
    if isinstance(struct, int):
        return 0
    return 1 + _count_inner(struct[0]) + _count_inner(struct[1])


_index_cache: dict[int, dict[int, list[Cotree]]] = {}


def _binary_cotree_index(n: int) -> dict[int, list[Cotree]]:
    """All labeled binary cotrees on leaves 0..n-1, keyed by realized
    edge mask (pair order (0,1),(0,2),..)."""
    if n in _index_cache:
        return _index_cache[n]
    if n > 7:
        raise ValueError("size-guard: binary cotree enumeration needs n <= 7")
    pair = _pair_index(n)
    index: dict[int, list[Cotree]] = {}
    topologies = _topologies(tuple(range(n)), {})
    n_inner = n - 1
    for struct in topologies:
        for labelbits in range(1 << n_inner):
            t = Cotree()
            counter = itertools.count()
            edge_mask = 0

            def build(s) -> tuple[int, int]:
                nonlocal edge_mask
                if isinstance(s, int):
                    return t.add_leaf(s), 1 << s
                label = labelbits >> next(counter) & 1
                n1, m1 = build(s[0])
                n2, m2 = build(s[1])
                if label == 1:
                    for u in bits(m1):
                        for v in bits(m2):
                            edge_mask |= 1 << pair[min(u, v), max(u, v)]
                return t.add_inner(label, [n1, n2]), m1 | m2

            t.root, _ = build(struct)
            index.setdefault(edge_mask, []).append(t)
    _index_cache[n] = index
    return index


def all_binary_cotrees(g: Graph) -> list[Cotree]:
    """Every binary cotree (topology + labeling) realizing g."""
    if g.n == 0:
        raise ValueError("empty-graph")
    if g.n == 1:
        t = Cotree(names=g.names)
        t.root = t.add_leaf(0)
        return [t]
    return list(_binary_cotree_index(g.n).get(_edge_mask(g.adj, g.n), []))


# -- direct recursive-minimality (independent of the hc machinery) -------------

def _direct_recursively_minimal(g: Graph, c: Coloring,
                                trees: list[Cotree],
                                tree_masks: list[list[int]],
                                chi_cache: dict[int, int]) -> bool:
    """Exists an enumerated binary cotree along which every constituent
    uses exactly its brute-force chromatic number of colors."""

    def chi_of(mask: int) -> int:
        if mask not in chi_cache:
            vs = list(bits(mask))
            sub = Graph(len(vs), [(vs.index(u), vs.index(v))
                                  for u, v in g.edges()
                                  if mask >> u & 1 and mask >> v & 1])
            chi_cache[mask] = brute_chromatic(sub)
        return chi_cache[mask]

    for t, masks in zip(trees, tree_masks):
        ok = True
        for u in t.postorder():
            used = len({c[v] for v in bits(masks[u])})
            if used != chi_of(masks[u]):
                ok = False
                break
        if ok:
            return True
    return False


def enumerate_alg1_outputs(g: Graph):
    """Yield every output the recursive coloring algorithm can produce,
    exhausting the injection choices (tiny instances only)."""
    events: list[tuple[int, int]] = []

    def recorder(src: tuple[int, ...], tgt: tuple[int, ...]) -> dict[int, int]:
        events.append((len(src), len(tgt)))
        return dict(zip(src, tgt[: len(src)]))

    alg1_color(g, InjectionChooser("exhaustive-callback", callback=recorder))
    option_counts = [math.perm(t, s) for s, t in events]
    for combo in itertools.product(*(range(k) for k in option_counts)):
        picks = iter(combo)

        def chooser_cb(src: tuple[int, ...],
                       tgt: tuple[int, ...]) -> dict[int, int]:
            idx = next(picks)
            images = list(itertools.permutations(tgt, len(src)))[idx]
            return dict(zip(src, images))

        coloring, _ = alg1_color(
            g, InjectionChooser("exhaustive-callback", callback=chooser_cb))
        yield coloring


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
    c = greedy_coloring(g, order)
    return tuple(c[v] for v in range(g.n))


class _GraphCtx:
    """Lazily shared per-instance data for the theorem checks.

    Each enumeration (binary cotrees and their leaf masks, proper
    partitions, greedy runs) runs at most once per instance, and `verdicts`
    runs `verify_hc` at most once per (labeled coloring, tree) pair.
    """

    def __init__(self, g: Graph, seed: int):
        self.g = g
        self.seed = seed
        self._tree = build_cotree(g) if g.n else None
        self.is_cograph = isinstance(self._tree, Cotree)
        self._cache: dict[str, object] = {}

    def _get(self, key: str, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    @property
    def chi(self) -> int:
        return self._get("chi", lambda: brute_chromatic(self.g))

    @property
    def trees(self) -> list[Cotree]:
        return self._get("trees", lambda: all_binary_cotrees(self.g))

    @property
    def partitions(self) -> list[Coloring]:
        return self._get("partitions", lambda: proper_partitions(self.g))

    @property
    def greedy_runs(self) -> dict[tuple[int, ...], tuple[int, ...]]:
        """Per vertex order, in permutation order, greedy's colors in vertex
        order (every order, so for n <= 5 only)."""
        return self._get("greedy_runs", lambda: {
            order: _greedy_run(self.g, order)
            for order in itertools.permutations(range(self.g.n))})

    def verdicts(self, c: Coloring) -> tuple[bool, ...]:
        """Per enumerated tree, whether verify_hc accepts c; memoized on
        c's colors in vertex order, so only identical calls are shared."""
        memo = self._get("verdicts", dict)
        key = tuple(c[v] for v in range(self.g.n))
        if key not in memo:
            memo[key] = tuple(verify_hc(self.g, t, c, check_tree=False)
                              .accepted for t in self.trees)
        return memo[key]

    @property
    def accepted_mask(self) -> list[bool]:
        """Per partition: accepted by at least one enumerated cotree."""
        return self._get("accepted_mask", lambda: [
            any(self.verdicts(c)) for c in self.partitions])

    @property
    def tree_masks(self) -> list[list[int]]:
        """Per enumerated tree, its leaf masks."""
        return self._get("tree_masks",
                         lambda: [t.leaf_masks() for t in self.trees])

    @property
    def chi_cache(self) -> dict[int, int]:
        return self._get("chi_cache", dict)


def _components_of(g: Graph) -> list[tuple[int, ...]]:
    from .graph import connected_components
    return connected_components(g)


def check_theorems(corpus: list[Graph], theorems: list[str] | None = None,
                   seed: int = 0, start_index: int = 0) -> list[TheoremReport]:
    """Run every cross-check on the corpus; failures are data, not errors.

    The per-instance RNG is derived from (seed, instance index), so chunked
    parallel runs merge to exactly the serial result.
    """
    if theorems is None:
        theorems = list(THEOREM_IDS)
    for tid in theorems:
        if tid not in THEOREM_IDS:
            raise ValueError(f"unknown theorem id {tid!r}")
    reports = {tid: TheoremReport(tid) for tid in theorems}
    for offset, g in enumerate(corpus):
        idx = start_index + offset
        rng = random.Random((seed << 32) + idx)  # per-instance stream
        ctx = _GraphCtx(g, seed)
        if not ctx.is_cograph:
            for tid in theorems:
                reports[tid].skipped += 1
                reports[tid].notes.append(f"instance {idx}: not-a-cograph")
            continue
        for tid in theorems:
            _CHECKS[tid](reports[tid], idx, ctx, rng)
    return [reports[tid] for tid in theorems]


def _check_t1(rep: TheoremReport, idx: int, ctx: _GraphCtx,
              rng: random.Random) -> None:
    """Accepted colorings use exactly chi colors, over all proper
    partitions and all binary cotrees."""
    if ctx.g.n > 6:
        rep.skipped += 1
        rep.notes.append(f"instance {idx}: size-guard")
        return
    for c, accepted in zip(ctx.partitions, ctx.accepted_mask):
        if accepted and len(set(c.values())) != ctx.chi:
            rep.counterexamples.append((idx, c))
    rep.checked += 1


def _check_l2(rep: TheoremReport, idx: int, ctx: _GraphCtx,
              rng: random.Random) -> None:
    """Greedy runs color each component with {1..chi(component)}; also
    gamma = chi (no order ever needs more than chi colors)."""
    g = ctx.g
    if g.n > 6:
        rep.skipped += 1
        rep.notes.append(f"instance {idx}: size-guard")
        return
    if g.n <= 5:
        runs = ctx.greedy_runs.items()
    else:
        pool = list(range(g.n))
        orders = [tuple(rng.sample(pool, g.n)) for _ in range(200)]
        runs = [(order, _greedy_run(g, order)) for order in orders]
        rep.notes.append(f"instance {idx}: sampled 200 orders")
    comps = _components_of(g)
    comp_chi = []
    for comp in comps:
        vs = list(comp)
        sub = Graph(len(vs), [(vs.index(u), vs.index(v))
                              for u, v in g.edges()
                              if u in comp and v in comp])
        comp_chi.append(brute_chromatic(sub))
    for order, flat in runs:
        if len(set(flat)) != ctx.chi:
            rep.counterexamples.append((idx, order, "gamma>chi"))
            continue
        for comp, k in zip(comps, comp_chi):
            if {flat[v] for v in comp} != set(range(1, k + 1)):
                rep.counterexamples.append((idx, order, comp))
    rep.checked += 1


def _check_l3(rep: TheoremReport, idx: int, ctx: _GraphCtx,
              rng: random.Random) -> None:
    """Every greedy coloring is hc w.r.t. every binary cotree."""
    g = ctx.g
    if g.n > 5:
        rep.skipped += 1
        rep.notes.append(f"instance {idx}: size-guard")
        return
    for flat in set(ctx.greedy_runs.values()):
        verdicts = ctx.verdicts(dict(enumerate(flat)))
        for t, accepted in zip(ctx.trees, verdicts):
            if not accepted:
                rep.counterexamples.append((idx, flat, t))
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
    if g.n > 5:
        rep.skipped += 1
        rep.notes.append(f"instance {idx}: size-guard")
        return
    greedy_set = set(ctx.greedy_runs.values())
    hc_parts = set()
    for c in all_min_colorings(g):
        flat = tuple(c[v] for v in range(g.n))
        if all(ctx.verdicts(c)):
            hc_parts.add(_partition_key(c, g.n))
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
    g = ctx.g
    if g.n > 6:
        rep.skipped += 1
        rep.notes.append(f"instance {idx}: size-guard")
        return
    for c, brute in zip(ctx.partitions, ctx.accepted_mask):
        fast = is_hc_coloring(g, c).accepted
        direct = _direct_recursively_minimal(g, c, ctx.trees,
                                             ctx.tree_masks, ctx.chi_cache)
        if not (fast == brute == direct):
            rep.counterexamples.append((idx, c, fast, brute, direct))
    rep.checked += 1


def _check_t4(rep: TheoremReport, idx: int, ctx: _GraphCtx,
              rng: random.Random) -> None:
    """Alg. 1 outputs are recursively minimal; with exhausted injections
    the output set equals the hc set up to renaming (n <= 5)."""
    g = ctx.g
    if g.n > 6:
        rep.skipped += 1
        rep.notes.append(f"instance {idx}: size-guard")
        return
    choosers = [InjectionChooser("identity-prefix"),
                InjectionChooser("seeded-random", seed=rng.getrandbits(32))]
    for chooser in choosers:
        c, _ = alg1_color(g, chooser)
        if not is_hc_coloring(g, c).accepted:
            rep.counterexamples.append((idx, chooser.strategy, c))
        elif g.n <= 6 and not _direct_recursively_minimal(
                g, c, ctx.trees, ctx.tree_masks, ctx.chi_cache):
            rep.counterexamples.append((idx, chooser.strategy, c, "direct"))
    if g.n <= 5:
        produced = {_partition_key(c, g.n) for c in enumerate_alg1_outputs(g)}
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
    g = ctx.g
    if g.n > 6:
        rep.skipped += 1
        rep.notes.append(f"instance {idx}: size-guard")
        return
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
    total = count_hc_total(g).labeled_total
    if total != brute_total:
        rep.counterexamples.append((idx, "total", total, brute_total))
    rep.checked += 1


def merge_reports(parts: list[list[TheoremReport]]) -> list[TheoremReport]:
    """Merge chunked reports (same theorem order) in chunk order."""
    merged = [TheoremReport(r.theorem_id) for r in parts[0]]
    for chunk in parts:
        for acc, r in zip(merged, chunk):
            if acc.theorem_id != r.theorem_id:
                raise ValueError("mismatched report chunks")
            acc.checked += r.checked
            acc.skipped += r.skipped
            acc.counterexamples.extend(r.counterexamples)
            acc.notes.extend(r.notes)
    return merged


_CHECKS = {
    "T1": _check_t1,
    "L2": _check_l2,
    "L3": _check_l3,
    "T-greedy-iff": _check_greedy_iff,
    "T3": _check_t3,
    "T4": _check_t4,
    "COUNT": _check_count,
}

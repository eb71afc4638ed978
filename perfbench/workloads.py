"""The benchmark's workloads: inputs made from a seed, the timed
operations on them, and the independent checks of every output.

A workload is prepared once (untimed choices of sub-seeds), set up (timed:
the inputs are generated), and then runs rounds of `Op`s. Each op's time
goes into one end-to-end metric, or into none when its metric is None or
when it raises. An op that raises fails the run's checks unless it raises
its `known_fault`.
Program functions are always looked up through their module at call time,
so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import resource
import subprocess
import sys
from dataclasses import dataclass, field
from functools import partial
from itertools import combinations
from pathlib import Path
from time import perf_counter
from typing import Callable

import reference as ref
from reference import Tree, require

import cograph_hc as pkg
from cograph_hc import cli, generator as gen, graph as gr, oracle
from cograph_hc import coloring as col, cotree as ct, hc_algorithms as hca

END_TO_END = ("recognize_s", "reject_s", "color_s", "verify_s", "count_s",
              "newick_s", "sweep_s")


@dataclass
class Op:
    name: str
    metric: str | None          # end-to-end metric its time goes into
    run: Callable[[], object]
    check: Callable[[object], None]
    repeat: int = 1             # calls per round, all timed together
    known_fault: type[Exception] | None = None  # counted failed, not wrong


@dataclass
class Instance:
    """A cograph input with the tree it was generated from, if any."""

    g: object
    ref: Tree | None
    order: list[int]


def has_edge(g):
    adj = g.adj
    return lambda u, v: adj[u] >> v & 1


def density(t: Tree) -> float:
    """Edge density of the graph of t, counted on the tree."""
    size, m = {}, 0
    for u in t.postorder():
        kids = [size[c] for c in t.children[u]]
        size[u] = sum(kids) or 1
        if t.label[u] == 1:
            m += (sum(kids) ** 2 - sum(k * k for k in kids)) // 2
    n = size[t.root]
    return m / max(1, n * (n - 1) // 2)


def program_tree(t: Tree):
    """The program's Cotree with the same shape as t."""
    out = ct.Cotree()
    built = {}
    for u in t.postorder():
        if t.label[u] == ref.LEAF:
            built[u] = out.add_leaf(t.vertex[u])
        else:
            built[u] = out.add_inner(t.label[u],
                                     [built[c] for c in t.children[u]])
    out.root = built[t.root]
    return out


def relabeled(t: Tree, rng: random.Random) -> Tree:
    perm = list(range(len(t.leaves())))
    rng.shuffle(perm)
    return Tree(list(t.label), [list(k) for k in t.children],
                [perm[v] if v >= 0 else v for v in t.vertex], t.root)


def check_sweep(reports, checked: int) -> None:
    """Every theorem checked every instance; all pass except the known
    converse of the greedy inclusion, whose counterexamples must all be
    hc-everywhere colorings that no greedy run produces."""
    require([r.theorem_id for r in reports] == list(oracle.THEOREM_IDS),
            "the sweep did not report every theorem")
    for r in reports:
        require(r.checked == checked and r.skipped == 0,
                f"{r.theorem_id} checked {r.checked} of {checked}")
        if r.theorem_id == "T-greedy-iff":
            require(all(cx[1] == "hc-everywhere-not-greedy"
                        for cx in r.counterexamples),
                    "T-greedy-iff reports a counterexample of another kind")
        else:
            require(r.passed, f"{r.theorem_id} failed")


def fingerprint(obj) -> object:
    """A hashable summary of an output, compared across rounds."""
    if isinstance(obj, (list, tuple)):
        return tuple(fingerprint(x) for x in obj)
    if isinstance(obj, dict):
        return tuple(sorted(obj.items()))
    if hasattr(obj, "children") and hasattr(obj, "label"):
        return (tuple(obj.label), tuple(map(tuple, obj.children)),
                tuple(obj.vertex), obj.root)
    if hasattr(obj, "as_tuple"):
        return obj.as_tuple()
    if hasattr(obj, "labeled_total"):
        return (obj.labeled_total, len(obj.per_node))
    if hasattr(obj, "accepted"):
        return (obj.accepted, obj.node, obj.axiom, obj.sets)
    if hasattr(obj, "theorem_id"):
        return obj.render()
    return obj


# -- in-process workloads -----------------------------------------------------

@dataclass
class Slice:
    """One share of a workload's inputs; a round runs every op on every
    slice in turn, so each metric's work is spread over the round."""

    main: Instance | None = None
    canon: dict | None = None       # accepted by every binary cotree
    planted: dict | None = None     # proper, chi + 1 colors: never hc
    batch: list[Instance] = field(default_factory=list)
    flipped: list = field(default_factory=list)
    sweep: list = field(default_factory=list)
    state: dict = field(default_factory=dict)


class Library:
    """Calls the library in-process on a list of slices.

    Per slice: recognition, rejection of the flipped graphs, coloring,
    verification, counting, Newick round trips and an oracle sweep. A
    subclass makes the slices in `prepare` and `setup`.
    """

    name = "library"
    render_main = True          # the main count fits the int-to-str limit
    greedy_main = False         # greedy on the main instance is affordable
    main_newick_metric: str | None = "newick_s"
    main_newick_fault: type[Exception] | None = None
    repeat: dict[str, int] = {}

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.slices: list[Slice] = []

    def rng(self, purpose: str) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{purpose}")

    def prepare(self) -> None:
        pass

    def setup(self) -> None:
        raise NotImplementedError

    def check_setup(self) -> None:
        rng = self.rng("setup-check")
        for sl in self.slices:
            for inst in ([sl.main] if sl.main else []) + sl.batch:
                if inst.ref is not None:
                    ref.check_shape(inst.ref, inst.g.n)
                    ref.check_realizes(inst.ref, has_edge(inst.g),
                                       ref.sample_pairs(inst.g.n, 400, rng))

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # -- helpers -------------------------------------------------------------

    def _tree_for(self, inst: Instance, recognized) -> Tree:
        """The reference tree of an instance: its generator tree, or the
        recognized cotree once it has been checked on every pair."""
        if inst.ref is not None:
            return inst.ref
        t = Tree.of(recognized)
        n = inst.g.n
        ref.check_realizes(t, has_edge(inst.g), combinations(range(n), 2))
        return t

    def _check_recognized(self, inst: Instance, t, rng) -> None:
        require(not isinstance(t, ct.P4Witness), "a cograph was rejected")
        tree = Tree.of(t)
        n = inst.g.n
        ref.check_shape(tree, n, discriminating=True)
        pairs = (ref.sample_pairs(n, 1000, rng) if n > 64
                 else list(combinations(range(n), 2)))
        ref.check_realizes(tree, has_edge(inst.g), pairs)

    # -- operations -----------------------------------------------------------

    def ops(self) -> list[Op]:
        out = []
        for i, sl in enumerate(self.slices):
            steps = [("recognize", "recognize_s", self._recognize,
                      self._check_recognize),
                     ("reject", "reject_s", self._reject, self._check_reject),
                     ("color", "color_s", self._color, self._check_color),
                     ("verify", "verify_s", self._verify, self._check_verify),
                     ("count", "count_s", self._count, self._check_count),
                     ("newick", "newick_s", self._newick_batch,
                      self._check_newick_batch)]
            if sl.main is not None:
                steps.append(("newick-main", self.main_newick_metric,
                              self._newick_main, self._check_newick_main))
            steps.append(("sweep", "sweep_s", self._sweep, self._check_sweep))
            out += [Op(f"{i}.{name}", metric, partial(run, sl),
                       partial(check, sl), self.repeat.get(name, 1),
                       self.main_newick_fault if name == "newick-main"
                       else None)
                    for name, metric, run, check in steps]
        return out

    def _recognize(self, sl: Slice):
        s = sl.state
        s["t"] = ct.build_cotree(sl.main.g) if sl.main else None
        s["ts"] = [ct.build_cotree(i.g) for i in sl.batch]
        return s["t"], s["ts"]

    def _check_recognize(self, sl: Slice, out) -> None:
        rng = self.rng("check-recognize")
        t, ts = out
        if sl.main:
            self._check_recognized(sl.main, t, rng)
        for inst, tb in zip(sl.batch, ts):
            self._check_recognized(inst, tb, rng)

    def _reject(self, sl: Slice):
        return [ct.build_cotree(g) for g in sl.flipped]

    def _check_reject(self, sl: Slice, out) -> None:
        require(len(out) == len(sl.flipped), "missing rejections")
        for g, w in zip(sl.flipped, out):
            require(isinstance(w, ct.P4Witness),
                    "a graph with an induced P4 was accepted")
            ref.check_p4(has_edge(g), w.as_tuple())

    def _color(self, sl: Slice):
        s = sl.state
        if sl.main:
            g = sl.main.g
            s["c_id"], _ = hca.alg1_color(
                g, hca.InjectionChooser("identity-prefix"))
            s["c_rnd"], _ = hca.alg1_color(
                g, hca.InjectionChooser("seeded-random", seed=self.seed))
            s["c_greedy"] = (col.greedy_coloring(g, sl.main.order)
                             if self.greedy_main else None)
        s["cs_greedy"] = [col.greedy_coloring(i.g, i.order) for i in sl.batch]
        s["cs_alg1"] = [hca.alg1_color(i.g)[0] for i in sl.batch]
        return (s.get("c_id"), s.get("c_rnd"), s.get("c_greedy"),
                s["cs_greedy"], s["cs_alg1"])

    def _check_color(self, sl: Slice, out) -> None:
        c_id, c_rnd, c_greedy, cs_greedy, cs_alg1 = out
        if sl.main:
            tree = sl.main.ref
            k = ref.chi(tree)
            for c in (c_id, c_rnd) + ((c_greedy,) if self.greedy_main else ()):
                ref.check_coloring(tree, sl.main.g.n, c, k)
        for inst, t, cg, ca in zip(sl.batch, sl.state["ts"], cs_greedy,
                                   cs_alg1):
            tree = self._tree_for(inst, t)
            k = ref.chi(tree)
            ref.check_coloring(tree, inst.g.n, cg, k)
            ref.check_coloring(tree, inst.g.n, ca, k)

    def _verify(self, sl: Slice):
        s = sl.state
        main = None
        if sl.main:
            g = sl.main.g
            b1 = ct.to_binary(s["t"], "left-comb")
            b2 = ct.to_binary(s["t"], "chi-ascending")
            s["b1"] = b1
            v_acc = col.verify_hc(g, b1, sl.canon)
            v_rej = col.verify_hc(g, b2, sl.planted)
            h_acc = col.is_hc_coloring(g, s["c_rnd"])
            h_rej = col.is_hc_coloring(g, sl.planted)
            rec = hca.reconstruct_cotree(g, s["c_id"])
            # the benchmark checks this tree itself, so a wrong one shows
            # as a failed check rather than as an exception here
            v_rec = col.verify_hc(g, rec, s["c_id"], check_tree=False)
            greedy = ()
            if self.greedy_main:
                greedy = (col.is_proper(g, s["c_greedy"]),
                          col.is_greedy(g, s["c_greedy"]))
            main = (b1, b2, v_acc, v_rej, h_acc, h_rej, rec, v_rec, greedy)
        batch = []
        s["bs"] = []
        for inst, t, cg, ca in zip(sl.batch, s["ts"], s["cs_greedy"],
                                   s["cs_alg1"]):
            b1 = ct.to_binary(t, "left-comb")
            b2 = ct.to_binary(t, "chi-ascending")
            s["bs"].append(b1)
            rec = hca.reconstruct_cotree(inst.g, ca)
            batch.append((b1, b2, col.is_proper(inst.g, cg),
                          col.is_greedy(inst.g, cg),
                          col.verify_hc(inst.g, b1, cg),
                          col.verify_hc(inst.g, b2, cg),
                          col.is_hc_coloring(inst.g, ca), rec,
                          col.verify_hc(inst.g, rec, ca, check_tree=False)))
        return main, batch

    @staticmethod
    def _check_rejection(verdict, tree: Tree | None, c) -> None:
        require(not verdict.accepted, "a coloring with chi + 1 colors was "
                "accepted")
        ref.check_certificate(verdict.axiom, *verdict.sets)
        if tree is not None:
            masks = ref.color_masks(tree, c)
            kids = tree.children[verdict.node]
            got = [frozenset(i for i in range(m.bit_length()) if m >> i & 1)
                   for m in (masks[k] for k in kids)]
            require(got == list(verdict.sets),
                    "the certificate is not the color sets at its node")

    def _check_verify(self, sl: Slice, out) -> None:
        main, batch = out
        s = sl.state
        rng = self.rng("check-verify")
        if main:
            b1, b2, v_acc, v_rej, h_acc, h_rej, rec, v_rec, greedy = main
            n = sl.main.g.n
            for b in (b1, b2, rec):
                tree = Tree.of(b)
                ref.check_shape(tree, n, binary=True)
                ref.check_realizes(tree, has_edge(sl.main.g),
                                   ref.sample_pairs(n, 300, rng))
            require(v_acc.accepted, "verify_hc rejects an hc-coloring")
            require(ref.hc_failure(Tree.of(b1), sl.canon) is None,
                    "the reference check rejects the canonical coloring")
            self._check_rejection(v_rej, Tree.of(b2), sl.planted)
            require(ref.hc_failure(Tree.of(b2), sl.planted) is not None,
                    "the reference check accepts a coloring with chi + 1 "
                    "colors")
            require(h_acc.accepted, "is_hc_coloring rejects an alg1 output")
            self._check_rejection(h_rej, None, sl.planted)
            require(ref.hc_failure(Tree.of(rec), s["c_id"]) is None,
                    "the reconstructed tree breaks K2/K3")
            require(v_rec.accepted, "verify_hc rejects the coloring on its "
                    "reconstructed tree")
            require(greedy in ((), (True, True)),
                    "a greedy output is not proper and greedy")
        for inst, cg, ca, (b1, b2, *rest) in zip(
                sl.batch, s["cs_greedy"], s["cs_alg1"], batch):
            proper, greedy, v1, v2, h_alg1, rec, v_rec = rest
            n = inst.g.n
            pairs = (ref.sample_pairs(n, 300, rng) if n > 24
                     else list(combinations(range(n), 2)))
            for b in (b1, b2, rec):
                ref.check_shape(Tree.of(b), n, binary=True)
                ref.check_realizes(Tree.of(b), has_edge(inst.g), pairs)
            require(proper is True and greedy is True,
                    "a greedy output is not proper and greedy")
            for b, v in ((b1, v1), (b2, v2)):
                require(v.accepted, "a binary cotree rejects a greedy "
                        "coloring")
                require(ref.hc_failure(Tree.of(b), cg) is None,
                        "the reference K2/K3 check rejects a greedy coloring")
            require(h_alg1.accepted, "is_hc_coloring rejects an alg1 output")
            require(ref.hc_failure(Tree.of(rec), ca) is None
                    and v_rec.accepted,
                    "the reconstructed tree does not accept its coloring")

    def _count(self, sl: Slice):
        s = sl.state
        main = None
        if sl.main:
            total = hca.count_hc_total(sl.main.g)
            wrt = hca.count_hc_wrt(s["b1"])
            text = (total.render() + wrt.render()) if self.render_main else ""
            main = (total, wrt, text)
        batch = []
        for inst, b in zip(sl.batch, s["bs"]):
            total = hca.count_hc_total(inst.g)
            wrt = hca.count_hc_wrt(b)
            batch.append((total, wrt, total.render(), wrt.render()))
        return main, batch

    def _check_count(self, sl: Slice, out) -> None:
        main, batch = out
        s = sl.state
        rng = self.rng("check-count")
        if main:
            total, wrt, text = main
            tree = sl.main.ref
            g2 = ct.realized_graph(program_tree(relabeled(tree, rng)))
            again = hca.count_hc_total(g2).labeled_total
            ref.check_counts(total.labeled_total, wrt.labeled_total,
                             ref.chi(tree), again)
            require(len(total.per_node) == len(s["t"].label)
                    and len(wrt.per_node) == len(s["b1"].label),
                    "a count lacks per-node entries")
            if self.render_main:
                head = len(s["t"].label)
                lines = text.splitlines(keepends=True)
                require(ref.check_count_text("".join(lines[:head + 1]), head)
                        == total.labeled_total, "rendered total differs")
        for inst, t, b, (total, wrt, t_text, w_text) in zip(
                sl.batch, s["ts"], s["bs"], batch):
            tree = self._tree_for(inst, t)
            g2 = ct.realized_graph(program_tree(relabeled(tree, rng)))
            ref.check_counts(total.labeled_total, wrt.labeled_total,
                             ref.chi(tree),
                             hca.count_hc_total(g2).labeled_total)
            require(ref.check_count_text(t_text, len(t.label))
                    == total.labeled_total, "rendered total differs")
            require(ref.check_count_text(w_text, len(b.label))
                    == wrt.labeled_total, "rendered count differs")

    def _newick_batch(self, sl: Slice):
        out = []
        for t in sl.state["ts"]:
            text = ct.newick_write(t)
            out.append((text, ct.newick_read(text)))
        return out

    @staticmethod
    def _check_newick(t, text, back) -> None:
        n = len(Tree.of(t).leaves())
        names = [f"v{i}" for i in range(n)]
        require(text == ref.write_newick(Tree.of(t), names),
                "newick_write differs from the reference writer")
        require(ref.write_newick(Tree.of(back), back.names) == text,
                "newick_read does not give back the tree it read")

    def _check_newick_batch(self, sl: Slice, out) -> None:
        for t, (text, back) in zip(sl.state["ts"], out):
            self._check_newick(t, text, back)

    def _newick_main(self, sl: Slice):
        text = ct.newick_write(sl.state["t"])
        return text, ct.newick_read(text)

    def _check_newick_main(self, sl: Slice, out) -> None:
        self._check_newick(sl.state["t"], *out)

    def _sweep(self, sl: Slice):
        return oracle.check_theorems(sl.sweep, seed=self.seed)

    def _check_sweep(self, sl: Slice, out) -> None:
        check_sweep(out, len(sl.sweep))

    def _relabeled_graphs(self, shapes: list[Tree], rng) -> list:
        return [ct.realized_graph(program_tree(relabeled(t, rng)))
                for t in shapes]


def small_shapes(n: int, count: int) -> list[Tree]:
    """Fixed random cotree shapes on n leaves; the seed only relabels them,
    which keeps the oracle's cost per seed steady."""
    return [Tree.of(gen.random_cograph(gen.GenParams(n=n, seed=s))[1])
            for s in range(count)]


class RandomShallow(Library):
    """Random cotrees of arity <= 3 with balance 0.5, and a batch of small
    random cographs, each also with one added edge that makes a P4.

    The cotree shapes are the same for every seed, drawn once from a fixed
    stream (the large ones within an edge-density window): the seed
    relabels their vertices and picks the added edges, the greedy orders,
    the chooser and the planted coloring. So the inputs change with the
    seed while the work, which depends on the shapes, stays steady."""

    name = "random-shallow"
    render_main = False     # its count exceeds the int-to-str digit limit
    repeat = {"reject": 8}
    WINDOW = (0.30, 0.70)   # edge density of the large shapes

    def __init__(self, seed: int, workdir: Path, n: int = 3500,
                 n_small: int = 200, k_small: int = 12, k_sweep: int = 4,
                 slices: int = 3) -> None:
        super().__init__(seed, workdir)
        self.n, self.n_small, self.k_small = n, n_small, k_small
        self.k_sweep, self.n_slices = k_sweep, slices

    def prepare(self) -> None:
        shapes = random.Random(f"{self.name}:shapes")
        self.main_seeds = []
        while len(self.main_seeds) < self.n_slices:
            s = shapes.randrange(2 ** 31)
            _, t = gen.random_cograph(gen.GenParams(n=self.n, seed=s))
            if self.WINDOW[0] <= density(Tree.of(t)) <= self.WINDOW[1]:
                self.main_seeds.append(s)
        self.small = []
        while len(self.small) < self.k_small * self.n_slices:
            s = shapes.randrange(2 ** 31)
            _, t = gen.random_cograph(gen.GenParams(n=self.n_small, seed=s))
            choices = ref.choices_2k2(Tree.of(t), max_span=16)
            if choices:
                # the last union node in the generator's vertex order: the
                # rejection descends through almost all of the graph first
                _, b, c, _ = max(choices, key=min)
                self.small.append((s, (b, c)))
        self.shapes = small_shapes(5, self.k_sweep * self.n_slices)

    @staticmethod
    def _instance(g, t, rng: random.Random) -> Instance:
        """The generator's cograph with its vertices relabeled."""
        tree = relabeled(Tree.of(t), rng)
        order = list(range(g.n))
        rng.shuffle(order)
        return Instance(ct.realized_graph(program_tree(tree)), tree, order)

    def setup(self) -> None:
        rng = self.rng("setup")
        self.slices = []
        k = self.k_small
        for i, seed in enumerate(self.main_seeds):
            main = self._instance(
                *gen.random_cograph(gen.GenParams(n=self.n, seed=seed)), rng)
            canon = ref.canonical_coloring(main.ref)
            sl = Slice(main, canon,
                       ref.plant_fresh_color(canon, rng, main.ref))
            for s, edge in self.small[i * k:(i + 1) * k]:
                g, t = gen.random_cograph(
                    gen.GenParams(n=self.n_small, seed=s))
                sl.batch.append(self._instance(g, t, rng))
                # not relabeled: the same descent before the P4 every seed
                sl.flipped.append(gr.Graph(g.n, [*g.edges(), edge]))
            k_sw = self.k_sweep
            sl.sweep = self._relabeled_graphs(
                self.shapes[i * k_sw:(i + 1) * k_sw], rng)
            self.slices.append(sl)


class Caterpillar(Library):
    """Depth-n cotrees with one leaf per level and alternating labels,
    their graphs with one edge flipped near the bottom, caterpillar
    segments for the Newick round trips, and small caterpillars for the
    sweep.

    The full-depth Newick round trip stays in every round and is timed
    into no metric: `newick_read` recurses once per level."""

    name = "caterpillar"
    greedy_main = True
    main_newick_metric = None
    main_newick_fault = RecursionError
    repeat = {"newick": 30}

    def __init__(self, seed: int, workdir: Path, n: int = 1000,
                 seg: int = 300, k_seg: int = 4, k_sweep: int = 120) -> None:
        super().__init__(seed, workdir)
        self.n, self.seg, self.k_seg = n, seg, k_seg
        self.k_sweep = k_sweep

    @staticmethod
    def _caterpillar(n: int, root_label: int, rng: random.Random) -> Tree:
        order = list(range(n))
        rng.shuffle(order)
        return ref.build_tree(ref.caterpillar_spec(order, root_label))

    def setup(self) -> None:
        # The seed relabels the vertices; the shapes, root labels included,
        # are fixed, so the work does not change with the seed.
        rng = self.rng("setup")
        tree = self._caterpillar(self.n, 1, rng)
        g = ct.realized_graph(program_tree(tree))
        order = list(range(self.n))
        rng.shuffle(order)
        canon = ref.canonical_coloring(tree)
        sl = Slice(Instance(g, tree, order), canon,
                   ref.plant_fresh_color(canon, rng, tree))
        sl.flipped = [gr.Graph(self.n, [*g.edges(), self._flip(tree)])]
        for i in range(self.k_seg):
            seg = self._caterpillar(self.seg, i % 2, rng)
            o = list(range(self.seg))
            rng.shuffle(o)
            sl.batch.append(Instance(
                ct.realized_graph(program_tree(seg)), seg, o))
        sl.sweep = self._relabeled_graphs(
            [self._caterpillar(3 + i % 3, i // 3 % 2, rng)
             for i in range(self.k_sweep)], rng)
        self.slices = [sl]

    @staticmethod
    def _flip(t: Tree) -> tuple[int, int]:
        """A non-edge near the bottom whose addition makes a P4.

        Ten levels above the bottom, u = union(x, join(y, union(z, r)))
        holds the path z-y-w for any leaf w under r, and x sees none of
        them: adding x-w makes the P4 x-w-y-z. The rejection then stalls
        on the few vertices below u, after descending every level."""
        u = t.root
        for _ in range(len(t.label) // 2 - 10):
            u = t.children[u][1]
        if t.label[u] == 1:
            u = t.children[u][1]
        x, join = t.children[u]
        y, union = t.children[join]
        z, rest = t.children[union]
        while t.label[rest] != ref.LEAF:
            rest = t.children[rest][0]
        return t.vertex[x], t.vertex[rest]


class OracleSweep(Library):
    """`check_theorems` over all 535 labeled cographs with n <= 5, plus the
    library operations over a share of the 5504 labeled cographs and of
    the non-cographs on 6 vertices: many calls on trees of 1 to 11 nodes."""

    name = "oracle-sweep"
    COUNTS = (1, 2, 8, 52, 472, 5504)
    repeat = {"recognize": 4, "reject": 3, "color": 3, "count": 2,
              "newick": 3}

    def __init__(self, seed: int, workdir: Path, every: int = 3,
                 every_non: int = 4, max_sweep_n: int = 5,
                 slices: int = 4) -> None:
        super().__init__(seed, workdir)
        self.every, self.every_non = every, every_non
        self.max_sweep_n, self.n_slices = max_sweep_n, slices

    def setup(self) -> None:
        rng = self.rng("setup")
        by_n = [list(gen.exhaustive_cographs(n)) for n in range(1, 7)]
        self.by_n_sizes = [len(x) for x in by_n]
        corpus = [g for gs in by_n[:self.max_sweep_n] for g in gs]
        batch = []
        for g in by_n[5][::self.every]:
            order = list(range(6))
            rng.shuffle(order)
            batch.append(Instance(g, None, order))
        pairs = list(combinations(range(6), 2))
        cographs = {sum(1 << i for i, (u, v) in enumerate(pairs)
                        if g.adj[u] >> v & 1) for g in by_n[5]}
        others = [m for m in range(1 << len(pairs)) if m not in cographs]
        flipped = [gr.Graph(6, [p for i, p in enumerate(pairs) if m >> i & 1])
                   for m in others[::self.every_non]]
        k = self.n_slices
        self.slices = [Slice(batch=batch[i::k], flipped=flipped[i::k],
                             sweep=corpus[i::k]) for i in range(k)]

    def check_setup(self) -> None:
        require(tuple(self.by_n_sizes) == self.COUNTS,
                f"labeled cograph counts {self.by_n_sizes}, expected "
                f"{self.COUNTS}")
        require(sum(len(sl.sweep) for sl in self.slices)
                == sum(self.COUNTS[:self.max_sweep_n]),
                "the sweep does not cover every labeled cograph")


# -- the command line, as a user runs it --------------------------------------

class CliEdgelist:
    """`python -m cograph_hc.cli` on a random edge list, one subprocess per
    command (or `cli.main` in-process for the traced run)."""

    name = "cli-edgelist"
    WINDOW = (0.45, 0.55)   # edge density of the generated graph

    def __init__(self, seed: int, workdir: Path, n: int = 600,
                 inproc: bool = False) -> None:
        self.seed, self.workdir, self.n = seed, workdir, n
        self.inproc = inproc
        self.wall: dict[str, float] = {}
        self.src = Path(pkg.__file__).resolve().parent.parent
        self.names = {f"v{i}": i for i in range(n)}
        workdir.mkdir(parents=True, exist_ok=True)

    def rng(self, purpose: str) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{purpose}")

    def path(self, name: str) -> str:
        return str(self.workdir / name)

    def cli(self, *argv: str) -> tuple[int, str]:
        """Run one command; returns (exit code, standard output)."""
        argv = [str(a) for a in argv]
        if self.inproc:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = cli.main(argv)
            return code, out.getvalue()
        env = dict(os.environ, PYTHONPATH=str(self.src))
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-m", "cograph_hc.cli", *argv],
                              env=env, cwd=self.workdir, capture_output=True,
                              text=True, check=False)
        self.wall[argv[0]] = (self.wall.get(argv[0], 0.0)
                              + perf_counter() - start)
        return proc.returncode, proc.stdout

    def prepare(self) -> None:
        rng = self.rng("pick")
        while True:
            s = rng.randrange(2 ** 31)
            _, t = gen.random_cograph(gen.GenParams(n=self.n, seed=s))
            tree = Tree.of(t)
            if self.WINDOW[0] <= density(tree) <= self.WINDOW[1]:
                quad = ref.flip_2k2(tree, rng, max_span=16)
                if quad is not None:
                    break
        self.gen_seed, self.tree, self.flip = s, tree, quad[1:3]
        self.chi = ref.chi(tree)
        canon = ref.canonical_coloring(tree)
        self.planted = ref.plant_fresh_color(canon, rng)
        # the reference total, on a relabeled copy of the same cograph
        g2 = ct.realized_graph(program_tree(relabeled(tree, rng)))
        self.relabeled_total = hca.count_hc_total(g2).labeled_total

    def setup(self) -> None:
        code, _ = self.cli("gen", "--n", self.n, "--seed", self.gen_seed,
                           "--graph-out", self.path("g.txt"),
                           "--cotree-out", self.path("t.nwk"))
        require(code == 0, f"gen exited {code}")
        text = Path(self.path("g.txt")).read_text(encoding="utf-8")
        b, c = self.flip
        Path(self.path("flip.txt")).write_text(f"{text}{b} {c}\n",
                                               encoding="utf-8")
        Path(self.path("planted.txt")).write_text(
            "".join(f"v{v}\t{k}\n" for v, k in sorted(self.planted.items())),
            encoding="utf-8")

    def check_setup(self) -> None:
        n, self.edges = ref.parse_edge_list(
            Path(self.path("g.txt")).read_text(encoding="utf-8"))
        require(n == self.n, "gen wrote another vertex count")
        self.has_edge = ref.edge_test(n, self.edges)
        rng = self.rng("setup-check")
        gen_tree = ref.parse_newick(
            Path(self.path("t.nwk")).read_text(encoding="utf-8"), self.names)
        ref.check_shape(gen_tree, n)
        ref.check_realizes(gen_tree, self.has_edge,
                           ref.sample_pairs(n, 3000, rng))
        require(ref.chi(gen_tree) == self.chi, "gen wrote another cograph")

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    # -- operations ----------------------------------------------------------

    def ops(self) -> list[Op]:
        g, p = self.path("g.txt"), self.path
        seed = self.seed
        # Commands of one metric are spread over the round, so that a slow
        # spell of the host does not fall on one metric only.
        cmds = [
            ("recognize", "recognize_s", ("recognize", g)),
            ("color-greedy", "color_s", ("color", g, "--method", "greedy",
                                         "--seed", seed, "-o", p("c2.txt"))),
            ("cotree-binary", "recognize_s",
             ("cotree", g, "--binary", "left-comb", "-o", p("b1.nwk"))),
            ("verify-greedy", "verify_s", ("verify", g, p("c2.txt"))),
            ("count", "count_s", ("count", g)),
            ("recognize-flipped", "reject_s", ("recognize", p("flip.txt"))),
            ("color-alg1", "color_s", ("color", g, "--method", "alg1",
                                       "--seed", seed, "-o", p("c1.txt"))),
            ("verify-greedy-cotree", "verify_s",
             ("verify", g, p("c2.txt"), "--cotree", p("b1.nwk"))),
            ("realize", "newick_s",
             ("cotree", p("t.nwk"), "--realize", "-o", p("r.txt"))),
            ("count-cotree", "count_s", ("count", g, "--cotree", p("b1.nwk"))),
            ("verify-alg1", "verify_s", ("verify", g, p("c1.txt"))),
            ("check", "sweep_s", ("check", "--max-n", "4", "--seed", seed)),
            ("verify-planted-cotree", "verify_s",
             ("verify", g, p("planted.txt"), "--cotree", p("b1.nwk"))),
        ]
        return [Op(name, metric, (lambda argv=argv: self.cli(*argv)),
                   getattr(self, "_check_" + name.replace("-", "_")))
                for name, metric, argv in cmds]

    def _read(self, name: str) -> str:
        return Path(self.path(name)).read_text(encoding="utf-8")

    def _tree_file(self, text: str, binary: bool) -> Tree:
        t = ref.parse_newick(text, self.names)
        ref.check_shape(t, self.n, discriminating=not binary, binary=binary)
        ref.check_realizes(t, self.has_edge,
                           ref.sample_pairs(self.n, 2000, self.rng("trees")))
        return t

    def _check_recognize(self, out) -> None:
        code, text = out
        require(code == 0 and text.startswith("COGRAPH "),
                f"recognize exited {code}")
        self.recognized = self._tree_file(text.split(" ", 1)[1], False)

    def _check_cotree_binary(self, out) -> None:
        require(out[0] == 0, f"cotree --binary exited {out[0]}")
        self.binary = self._tree_file(self._read("b1.nwk"), True)

    def _check_recognize_flipped(self, out) -> None:
        code, text = out
        words = text.split()
        require(code == 1 and words[:1] == ["NOT-COGRAPH"] and len(words) == 5,
                f"recognize on a non-cograph exited {code}")
        b, c = self.flip
        flipped = lambda u, v: self.has_edge(u, v) or {u, v} == {b, c}
        ref.check_p4(flipped, [self.names[w] for w in words[1:]])

    def _check_coloring(self, out, file: str) -> dict:
        code, text = out
        require(code == 0 and text == f"colors {self.chi}\n",
                f"color exited {code} with {text!r}")
        c = ref.parse_coloring(self._read(file), self.names)
        ref.check_coloring(self.tree, self.n, c, self.chi)
        return c

    def _check_color_alg1(self, out) -> None:
        self._check_coloring(out, "c1.txt")

    def _check_color_greedy(self, out) -> None:
        self.greedy = self._check_coloring(out, "c2.txt")

    def _check_verify_greedy(self, out) -> None:
        require(out == (0, "proper=yes hc=yes greedy=yes\n"),
                f"verify on a greedy output gave {out}")

    def _check_verify_alg1(self, out) -> None:
        require(out[0] == 0 and out[1].startswith("proper=yes hc=yes "),
                f"verify on an alg1 output gave {out}")

    def _check_verify_greedy_cotree(self, out) -> None:
        require(out == (0, "ACCEPT\n"), f"verify --cotree gave {out}")
        require(ref.hc_failure(self.binary, self.greedy) is None,
                "the reference check rejects the greedy coloring")

    def _check_verify_planted_cotree(self, out) -> None:
        code, text = out
        require(code == 1 and " violation at node over " in text,
                f"verify --cotree on chi + 1 colors gave {out}")
        axiom = text.split(" ", 1)[0]
        sets = text.rsplit(": color sets ", 1)[1].strip().split(" vs ")
        s1, s2 = ({int(x) for x in s.strip("[]").split(",") if x.strip()}
                  for s in sets)
        ref.check_certificate(axiom, s1, s2)
        require(ref.hc_failure(self.binary, self.planted) is not None,
                "the reference check accepts chi + 1 colors")

    def _check_count(self, out) -> None:
        require(out[0] == 0, f"count exited {out[0]}")
        self.total = ref.check_count_text(out[1],
                                          len(self.recognized.label))

    def _check_count_cotree(self, out) -> None:
        require(out[0] == 0, f"count --cotree exited {out[0]}")
        wrt = ref.check_count_text(out[1], len(self.binary.label))
        ref.check_counts(self.total, wrt, self.chi, self.relabeled_total)

    def _check_realize(self, out) -> None:
        require(out == (0, ""), f"cotree --realize gave {out}")
        n, edges = ref.parse_edge_list(self._read("r.txt"), self.names)
        require(n == self.n and edges == self.edges,
                "the realized graph differs from the generated one")

    def _check_check(self, out) -> None:
        code, text = out
        lines = text.splitlines()
        want = [f"THEOREM {tid} PASS checked=63 counterexamples=0"
                for tid in oracle.THEOREM_IDS]
        require(code == 0 and lines == want, f"check gave {code}: {lines}")


WORKLOADS = {w.name: w for w in (RandomShallow, Caterpillar, CliEdgelist,
                                 OracleSweep)}

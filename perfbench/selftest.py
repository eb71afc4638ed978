#!/usr/bin/env python3
"""Self-test: every check of the benchmark fails on a planted wrong answer.

    python3 perfbench/selftest.py

First each workload runs at a tiny size and must pass all its checks.
Then, one at a time, a program function is replaced by a version that
corrupts its answer, and some workload's check must report it. Last, the
reference checks are fed hand-made wrong answers directly. Exits 1 if a
planted fault goes unnoticed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import cograph_hc  # noqa: E402
from cograph_hc import coloring as col, cotree as ct  # noqa: E402
from cograph_hc import generator as gen, graph as gr  # noqa: E402
from cograph_hc import hc_algorithms as hca, oracle  # noqa: E402

import reference as ref  # noqa: E402
from reference import CheckError  # noqa: E402
from workloads import (Caterpillar, CliEdgelist, OracleSweep,  # noqa: E402
                       RandomShallow, check_sweep)


def tiny(workdir: Path) -> list:
    return [RandomShallow(1, workdir / "rs", n=120, n_small=30, k_small=3,
                          k_sweep=2, slices=1),
            Caterpillar(1, workdir / "cat", n=40, seg=14, k_seg=2,
                        k_sweep=3),
            OracleSweep(1, workdir / "os", every=250, every_non=2500,
                        max_sweep_n=3, slices=2),
            CliEdgelist(1, workdir / "cli", n=40, inproc=True)]


def problems_of(workload) -> list[str]:
    """Run one round with checks; returns what the checks reported."""
    found = []
    try:
        workload.prepare()
        workload.setup()
        workload.check_setup()
        ops = workload.ops()
    except CheckError as exc:
        return [f"setup: {exc}"]
    for op in ops:
        try:
            out = op.run()
        except Exception:  # a crash is not a check catching the fault
            continue
        try:
            op.check(out)
        except Exception as exc:  # as in the benchmark: a failed check
            found.append(f"{op.name}: {type(exc).__name__}: {exc}")
    return found


@contextlib.contextmanager
def replaced(owner, name: str, make):
    """Swap owner.name for make(original) in the owner (a module or a
    class) and in every program namespace that refers to it."""
    original = getattr(owner, name)
    new = make(original)
    spaces = [cograph_hc, *(getattr(cograph_hc, m) for m in
                            ("graph", "cotree", "coloring", "hc_algorithms",
                             "generator", "oracle", "cli"))]
    undo = [(owner, name)]
    setattr(owner, name, new)
    for space in spaces:
        for key, value in vars(space).copy().items():
            if value is original:
                undo.append((space, key))
                setattr(space, key, new)
    try:
        yield
    finally:
        for space, key in undo:
            setattr(space, key, original)


def _flip_root(t):
    if isinstance(t, ct.Cotree) and t.label[t.root] != ct.LEAF:
        t.label[t.root] = 1 - t.label[t.root]
    return t


def _extra_color(c):
    c = dict(c)
    c[0] = max(c.values()) + 1
    return c


def _after(fn, change):
    return lambda *a, **k: change(fn(*a, **k))


def _bad_witness(w):
    if isinstance(w, ct.P4Witness):
        return ct.P4Witness(w.a, w.c, w.b, w.d)
    return w


def _count_plus_one(r):
    return dataclasses.replace(r, labeled_total=r.labeled_total + 1)


def _drop_check(reports):
    reports[0].checked -= 1
    return reports


def _swap_two_leaves(text):
    a, b = "v0,", "v1,"
    return text.replace(a, "#").replace(b, a).replace("#", b) \
        if a in text and b in text else text.replace("v0", "v00")


def _relabel_leaves(t):
    t.names = tuple(reversed(t.names))
    return t


MUTATIONS = [
    ("build_cotree flips the root label", ct, "build_cotree",
     lambda f: _after(f, _flip_root)),
    ("build_cotree returns a bad P4 witness", ct, "build_cotree",
     lambda f: _after(f, _bad_witness)),
    ("to_binary returns a non-binary tree", ct, "to_binary",
     lambda f: lambda t, strategy="left-comb": t),
    ("alg1_color uses chi + 1 colors", hca, "alg1_color",
     lambda f: lambda *a, **k: (_extra_color(f(*a, **k)[0]), f(*a, **k)[1])),
    ("greedy_coloring uses chi + 1 colors", col, "greedy_coloring",
     lambda f: _after(f, _extra_color)),
    ("verify_hc accepts everything", col, "verify_hc",
     lambda f: lambda *a, **k: col.Verdict(True)),
    ("verify_hc rejects everything", col, "verify_hc",
     lambda f: lambda *a, **k: col.Verdict(False, node=0, axiom="K2",
                                          sets=(frozenset({1}),
                                                frozenset({1})))),
    ("is_hc_coloring accepts everything", col, "is_hc_coloring",
     lambda f: lambda *a, **k: col.Verdict(True)),
    ("is_proper says no", col, "is_proper", lambda f: lambda *a: False),
    ("is_greedy says no", col, "is_greedy", lambda f: lambda *a: False),
    ("reconstruct_cotree flips the root label", hca, "reconstruct_cotree",
     lambda f: _after(f, _flip_root)),
    ("count_hc_total is off by one", hca, "count_hc_total",
     lambda f: _after(f, _count_plus_one)),
    ("count_hc_wrt is off by one", hca, "count_hc_wrt",
     lambda f: _after(f, _count_plus_one)),
    ("render drops the total line", hca.CountReport, "render",
     lambda f: lambda self: f(self).rsplit("labeled_total", 1)[0]),
    ("newick_write swaps two leaves", ct, "newick_write",
     lambda f: _after(f, _swap_two_leaves)),
    ("newick_read renames the leaves", ct, "newick_read",
     lambda f: _after(f, _relabel_leaves)),
    ("check_theorems skips an instance", oracle, "check_theorems",
     lambda f: _after(f, _drop_check)),
    ("realized_graph drops the last edge", ct, "realized_graph",
     lambda f: lambda t: gr.Graph(*(lambda g: (g.n, list(g.edges())[:-1]))(
         f(t)))),
    ("random_cograph writes another graph", gen, "random_cograph",
     lambda f: lambda p: (lambda g, t: (gr.complement(g), t))(*f(p))),
    ("write_coloring shifts a color", col, "write_coloring",
     lambda f: lambda g, c: f(g, _extra_color(c))),
    ("write_edge_list drops the last edge", gr, "write_edge_list",
     lambda f: lambda g: f(g).rstrip("\n").rsplit("\n", 1)[0] + "\n"),
]


def direct_cases() -> list[tuple[str, object]]:
    """Reference checks fed hand-made wrong answers."""
    path = ref.build_tree((0, 0, (1, 1, 2)))        # edge 1-2, vertex 0 apart
    has = lambda u, v: {u, v} == {1, 2}
    return [
        ("leaves not 0..n-1", lambda: ref.check_shape(
            ref.build_tree((0, 0, 0)), 2)),
        ("inner node with one child", lambda: ref.check_shape(
            ref.build_tree((1, (0, 0), 1)), 2)),
        ("not discriminating", lambda: ref.check_shape(
            ref.build_tree((0, 0, (0, 1, 2))), 3, discriminating=True)),
        ("not binary", lambda: ref.check_shape(
            ref.build_tree((0, 0, 1, 2)), 3, binary=True)),
        ("tree misses an edge", lambda: ref.check_realizes(
            path, lambda u, v: True, [(0, 1)])),
        ("improper coloring", lambda: ref.check_coloring(
            path, 3, {0: 1, 1: 1, 2: 1}, 2)),
        ("too many colors", lambda: ref.check_coloring(
            path, 3, {0: 3, 1: 1, 2: 2}, 2)),
        ("disjoint K2 certificate", lambda: ref.check_certificate(
            "K2", {1}, {2})),
        ("nested K3 certificate", lambda: ref.check_certificate(
            "K3", {1}, {1, 2})),
        ("not a P4", lambda: ref.check_p4(has, (0, 1, 2, 0))),
        ("total not a multiple of chi!", lambda: ref.check_counts(
            7, 2, 2, None)),
        ("count w.r.t. a tree above the total", lambda: ref.check_counts(
            2, 4, 2, None)),
        ("total changes under relabeling", lambda: ref.check_counts(
            4, 2, 2, 6)),
        ("count text lacks a node line", lambda: ref.check_count_text(
            "node v0 N 1 s 1\nlabeled_total 1\n", 3)),
        ("sweep with a failed theorem", lambda: check_sweep(
            [oracle.TheoremReport(tid, checked=1,
                                  counterexamples=[(0, "x")])
             for tid in oracle.THEOREM_IDS], 1)),
        ("greedy-not-hc counterexample", lambda: check_sweep(
            [oracle.TheoremReport(
                tid, checked=1,
                counterexamples=[(0, "greedy-not-hc-everywhere", [])]
                if tid == "T-greedy-iff" else [])
             for tid in oracle.THEOREM_IDS], 1)),
        ("K3 broken at a union", lambda: ref.require(
            ref.hc_failure(ref.build_tree((0, (1, 0, 1), 2)),
                           {0: 1, 1: 2, 2: 3}) is None,
            "the reference K2/K3 check rejects {1,2} vs {3}")),
        ("K2 broken at a join", lambda: ref.require(
            ref.hc_failure(ref.build_tree((1, 0, 1)), {0: 1, 1: 1}) is None,
            "the reference K2/K3 check rejects {1} vs {1}")),
    ]


def main() -> int:
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-",
                                    dir=ROOT / ".perfbench"))
    missed = []
    try:
        for w in tiny(workdir):
            found = problems_of(w)
            print(f"control {w.name}: {'ok' if not found else found}")
            if found:
                missed.append(f"control {w.name}")
        for label, owner, name, make in MUTATIONS:
            with replaced(owner, name, make):
                found = [f"{w.name}: {p}" for w in tiny(workdir)
                         for p in problems_of(w)]
            print(f"{'caught' if found else 'MISSED'}: {label}"
                  + (f" ({found[0][:90]})" if found else ""))
            if not found:
                missed.append(label)
        for label, case in direct_cases():
            try:
                case()
            except CheckError:
                print(f"caught: {label}")
            else:
                print(f"MISSED: {label}")
                missed.append(label)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(missed)} planted faults missed" if missed
          else "every planted fault was caught")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Print the make-up of each workload's inputs for a seed.

    python3 perfbench/describe.py --seed 1 [--workload caterpillar]

Per input graph: n, m, the number of nodes, the depth and the largest
arity of its discriminating cotree, chi, and the bytes of its edge list.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from cograph_hc import cotree as ct, graph as gr  # noqa: E402

import reference as ref  # noqa: E402
from workloads import WORKLOADS, CliEdgelist  # noqa: E402


def edge_list_bytes(g) -> int:
    head = len(f"n {g.n}\n")
    width = [len(str(v)) for v in range(g.n)]
    return head + sum(width[u] + width[v] + 2 for u, v in g.edges())


def describe(label: str, g) -> str:
    t = ref.Tree.of(ct.build_cotree(g))
    inner = [u for u in range(len(t.label)) if t.label[u] != ref.LEAF]
    arity = max((len(t.children[u]) for u in inner), default=0)
    return (f"  {label:14s} n={g.n:<5d} m={g.edge_count():<9d} "
            f"nodes={len(t.label):<5d} depth={t.depth():<4d} "
            f"arity={arity:<3d} chi={ref.chi(t):<4d} "
            f"edge_list_bytes={edge_list_bytes(g)}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", choices=list(WORKLOADS))
    args = parser.parse_args()
    names = [args.workload] if args.workload else list(WORKLOADS)
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmp:
        for name in names:
            w = WORKLOADS[name](args.seed, Path(tmp) / name)
            w.prepare()
            w.setup()
            print(f"{name} (seed {args.seed})")
            if isinstance(w, CliEdgelist):
                g = gr.read_edge_list(Path(w.path("g.txt")).read_text())
                print(describe("edge list", g))
                continue
            for i, sl in enumerate(w.slices):
                if sl.main:
                    print(describe(f"slice {i} main", sl.main.g))
                sizes = [inst.g.n for inst in sl.batch]
                print(f"  slice {i}: batch {len(sizes)} graphs "
                      f"(n {min(sizes, default=0)}..{max(sizes, default=0)}),"
                      f" {len(sl.flipped)} non-cographs, sweep "
                      f"{len(sl.sweep)} graphs")
                for inst in sl.batch[:1]:
                    print(describe(f"slice {i} batch", inst.g))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Exit codes: 0 = success / accept, 1 = reject / negative result,
2 = usage or I/O error, a closed standard output (broken pipe) included.

Only `graph` and `cotree` load with this module; each subcommand imports
the rest of what it runs, so that a process pays at start-up only for the
code its command calls.
"""

from __future__ import annotations

import argparse
import functools
import io
import itertools
import os
import sys
import time
from pathlib import Path
from typing import Iterable

from . import graph as gr
from . import cotree as ct


class _CliError(Exception):
    """A usage or I/O error, reported on one line with exit code 2."""


def _read_text(path: str) -> str:
    """The file as text: UTF-8 after an optional byte-order mark, with
    newlines translated as text-mode reading does."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc}") from exc
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # exc counts from after the byte-order mark, if there is one
        at = exc.start + len(data) - len(exc.object)
        raise _CliError(f"cannot read {path}: not UTF-8 (byte "
                        f"0x{data[at]:02x} at offset {at})") from None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _load_graph(path: str) -> gr.Graph:
    try:
        g = gr.read_edge_list(_read_text(path))
    except gr.GraphFormatError as exc:
        raise _CliError(f"{path}: {exc}") from exc
    if not g.n:
        raise _CliError("empty-graph")
    return g


def _load_cotree(path: str, g: gr.Graph) -> ct.Cotree:
    try:
        t = ct.align_to_graph(ct.newick_read(_read_text(path)), g)
    except ValueError as exc:
        raise _CliError(f"{path}: {exc}") from exc
    if not ct.realizes(t, g):
        raise _CliError(f"{path}: cotree-graph-mismatch")
    return t


# characters per write: a text is encoded a slice at a time, never whole
_SLICE = 1 << 20


def _write_output(path: str | None, texts: Iterable[str]) -> None:
    """Write the texts one after another to the file at path, else to
    standard output."""
    def put(out) -> None:
        for text in texts:
            for i in range(0, len(text), _SLICE):
                out.write(text[i:i + _SLICE])

    if path is None:
        put(sys.stdout)
        return
    try:
        with open(path, "w", encoding="utf-8") as out:
            put(out)
    except OSError as exc:
        raise _CliError(f"cannot write {path}: {exc}") from exc


# -- subcommands -----------------------------------------------------------------

def _cmd_recognize(args: argparse.Namespace) -> int:
    t = ct._cotree_of(_load_graph(args.graph))
    print(f"COGRAPH {ct.newick_write(t)}")
    return 0


def _cmd_cotree(args: argparse.Namespace) -> int:
    if args.realize and args.binary:
        raise _CliError("--binary cannot be used with --realize")
    if args.realize:
        try:
            t = ct.newick_read(_read_text(args.graph))
            g = ct.realized_graph(t)
        except ValueError as exc:
            raise _CliError(f"{args.graph}: {exc}") from exc
        _write_output(args.output, gr._edge_list_pieces(g))
        return 0
    t = ct._cotree_of(_load_graph(args.graph))
    if args.binary:
        t = ct.to_binary(t, args.binary)
    _write_output(args.output, [ct.newick_write(t) + "\n"])
    return 0


def _cmd_color(args: argparse.Namespace) -> int:
    if args.order is not None and args.method != "greedy":
        raise _CliError("--order needs --method greedy")
    from . import coloring as col

    g = _load_graph(args.graph)
    if args.method == "greedy":
        if args.order is not None:
            ids = gr.VertexIds(g.vertex_names())
            try:
                order = [ids[tok.strip()] for tok in args.order.split(",")]
            except KeyError as exc:
                tok = exc.args[0]
                raise _CliError(f"unknown vertex {tok!r} in --order") from None
        else:
            import random
            order = list(range(g.n))
            random.Random(args.seed).shuffle(order)
        c = col.greedy_coloring(g, order)
    else:  # alg1
        from . import hc_algorithms as hca

        chooser = hca.InjectionChooser("seeded-random", seed=args.seed)
        c, _ = hca.alg1_color(g, chooser)
    _write_output(args.output, [col.write_coloring(g, c)])
    print(f"colors {len(set(c.values()))}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from . import coloring as col

    g = _load_graph(args.graph)
    try:
        c = col.read_coloring(_read_text(args.coloring), g)
    except ValueError as exc:
        raise _CliError(f"{args.coloring}: {exc}") from exc
    names = g.vertex_names()
    if args.cotree:
        t = _load_cotree(args.cotree, g)
        if not ct.is_binary(t):
            print("note: refined non-binary cotree to binary (left-comb)")
        verdict, kid = col._hc_fold(t, c, "left")
        if verdict.accepted:
            print("ACCEPT")
            return 0
        # ids are a postorder: the failing comb node, over the node's
        # children up to kid, spans its leftmost leaf's id up to kid
        first = verdict.node
        while t.children[first]:
            first = t.children[first][0]
        leaves = sorted(names[t.vertex[u]] for u in range(first, kid + 1)
                        if t.label[u] == ct.LEAF)
        s1, s2 = (sorted(s) for s in verdict.sets)
        print(f"{verdict.axiom} violation at node over "
              f"{{{','.join(leaves)}}}: color sets {s1} vs {s2}")
        return 1
    edge, missing = col._witnesses(g, c)
    if edge is not None:
        u, v = edge
        print("proper=no hc=no greedy=no")
        print(f"proper=no: edge {names[u]}-{names[v]} has color {c[u]} "
              "at both ends")
        print("hc=no: the coloring is not proper")
        print("greedy=no: the coloring is not proper")
        return 1
    hc = col.is_hc_coloring(g, c)
    yn = {True: "yes", False: "no"}
    print(f"proper=yes hc={yn[hc.accepted]} greedy={yn[missing is None]}")
    if not hc:
        s1, s2 = (sorted(s) for s in hc.sets)
        node = "join" if hc.axiom == "K2" else "union"
        print(f"hc=no: {hc.axiom} violation at a {node}: color sets {s1} "
              f"vs {s2}")
    if missing is not None:
        v, i = missing
        print(f"greedy=no: vertex {names[v]} has color {c[v]} and no "
              f"neighbor of color {i}")
    return 0 if hc else 1


def _cmd_count(args: argparse.Namespace) -> int:
    from . import hc_algorithms as hca

    g = _load_graph(args.graph)
    if args.cotree:
        t = _load_cotree(args.cotree, g)
        if not ct.is_binary(t):
            t = ct.to_binary(t, "left-comb")
        report = hca.count_hc_wrt(t)
    else:
        report = hca.count_hc_total(g)
    _write_output(None, report._lines())
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from . import oracle
    from .generator import exhaustive_cographs

    if args.max_n > 6:
        raise _CliError(f"size-guard: --max-n {args.max_n} exceeds 6")
    if args.max_n < 1:
        raise _CliError("--max-n must be >= 1")
    theorems = ([t.strip() for t in args.theorems.split(",")]
                if args.theorems is not None else None)
    corpus = []
    for n in range(1, args.max_n + 1):
        corpus.extend(exhaustive_cographs(n))
    start = time.perf_counter()
    reports = oracle.check_theorems(corpus, theorems, seed=args.seed)
    failed = False
    for rep in reports:
        print(rep.render())
        if args.verbose:
            for note in rep.notes[:5]:
                print(f"  note: {note}")
            if len(rep.notes) > 5:
                print(f"  ... {len(rep.notes) - 5} more notes")
            for ce in rep.counterexamples[:3]:
                print(f"  counterexample: {ce}")
        failed = failed or not rep.passed
    if args.verbose:
        print(f"elapsed: {time.perf_counter() - start:.1f}s", file=sys.stderr)
    return 1 if failed else 0


def _cmd_gen(args: argparse.Namespace) -> int:
    from .generator import GenParams, random_cograph

    params = GenParams(n=args.n, seed=args.seed, max_arity=args.max_arity,
                       balance=args.balance)
    g, t = random_cograph(params)
    header = (f"# gen seed {params.seed} n {params.n} "
              f"max_arity {params.max_arity} balance {params.balance}\n")
    _write_output(args.graph_out,
                  itertools.chain([header], gr._edge_list_pieces(g)))
    if args.cotree_out:
        _write_output(args.cotree_out, [ct.newick_write(t) + "\n"])
    return 0


@functools.cache  # one parser serves every call of main
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cograph-hc",
        description="Hierarchical colorings of cographs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("recognize", help="cograph recognition + cotree")
    p.add_argument("graph")
    p.set_defaults(fn=_cmd_recognize)

    p = sub.add_parser("cotree", help="emit a cotree (or realize a Newick)")
    p.add_argument("graph", help="edge-list file (or Newick with --realize)")
    p.add_argument("--binary", choices=["left-comb", "chi-ascending"])
    p.add_argument("--realize", action="store_true",
                   help="treat input as Newick and print its graph")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_cotree)

    p = sub.add_parser("color", help="greedy or recursively minimal coloring")
    p.add_argument("graph")
    p.add_argument("--method", choices=["greedy", "alg1"], default="alg1")
    p.add_argument("--order", help="comma-separated vertex order (greedy)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_color)

    p = sub.add_parser("verify", help="verify a coloring")
    p.add_argument("graph")
    p.add_argument("coloring")
    p.add_argument("--cotree", help="verify w.r.t. this Newick cotree")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("count", help="count hc-colorings")
    p.add_argument("graph")
    p.add_argument("--cotree", help="count w.r.t. this Newick cotree")
    p.set_defaults(fn=_cmd_count)

    p = sub.add_parser("check", help="run brute-force theorem checks")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--theorems", help="comma-separated theorem ids")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--verbose", action="store_true",
                   help="print each theorem's first notes and "
                        "counterexamples, and the time taken on stderr")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("gen", help="seeded random cograph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-arity", type=int, default=3)
    p.add_argument("--balance", type=float, default=0.5)
    p.add_argument("--graph-out")
    p.add_argument("--cotree-out")
    p.set_defaults(fn=_cmd_gen)

    return parser


def _buffer_stdout() -> None:
    """Put a buffered writer under standard output when its binary layer
    is raw, as with `python -u` or PYTHONUNBUFFERED. The text layer ignores
    a raw layer's short writes, so a reader that left in the middle of a
    write went unreported; a buffered writer writes the rest or raises.
    It gets its own file object over the same descriptor, which it does
    not close."""
    out = sys.stdout
    if isinstance(getattr(out, "buffer", None), io.RawIOBase):
        out.flush()
        sys.stdout = open(out.fileno(), "w", 1 if out.isatty() else -1,
                          out.encoding, out.errors, closefd=False)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    _buffer_stdout()
    try:
        try:
            code = args.fn(args)
        except ct.NotACographError as exc:  # every command's answer to a P4
            print(f"NOT-COGRAPH {' '.join(exc.names)}")
            code = 1
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except (_CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader of stdout has gone. Point its descriptor at os.devnull,
        # so that the interpreter's final flush cannot raise again; no new
        # file object is left open for the exit to warn about.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: standard output closed (broken pipe)", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

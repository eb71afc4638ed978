#!/usr/bin/env python3
"""Benchmark of cograph-hc: one workload per run, every output checked.

    python3 perfbench/run.py --workload random-shallow --seed 1 \
        --seconds 24 --trace 0

Run from anywhere inside a checkout: the program is imported from the
checkout's `src/`. The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
metrics are the end-to-end ones, measured untraced; with `--trace 1` they
are the per-layer ones, from spans recorded around the program's public
functions (the spans are written to `.perfbench/traces/`).
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
MIN_ROUNDS = 2
SAMPLE_EVERY_S = 0.05
# Time of `reference_loop` on the 2-vCPU Xeon (KVM) host the benchmark was
# tuned on, in its fast spells. It only scales the reported figures.
REFERENCE_S = 0.001


def reference_loop() -> None:
    """A fixed pure-Python loop, about a millisecond, that shares no code
    with the program; its time tracks the host's speed at that moment."""
    s, d = 0, {}
    for i in range(4000):
        s = (s + i * i) & 0xFFFFFFFF
        d[i & 255] = s >> 3
    x = (1 << 4000) - 1
    for i in range(640):
        x ^= (x >> 7) | i


class Clock:
    """Wall time of an operation, scaled to the reference host speed.

    On a shared host the speed drifts by a third within seconds to
    minutes. A timer signal runs `reference_loop` every SAMPLE_EVERY_S,
    also in the middle of an operation. An operation's time is its wall
    time minus those samples, divided by the host speed factor: the mean
    sample time during the operation (and a quarter second around it)
    over REFERENCE_S. Raw time is the scaled time times the factor."""

    MARGIN_S = 0.25

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.spans: list[float] = []
        self.factors: list[float] = []
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        reference_loop()
        self.starts.append(start)
        self.spans.append(time.perf_counter() - start)

    def close(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, start: float, end: float) -> float:
        lo = bisect.bisect_left(self.starts, start - self.MARGIN_S)
        hi = bisect.bisect_right(self.starts, end + self.MARGIN_S)
        near = self.spans[lo:hi]
        if not near:
            self._sample(signal.SIGALRM, None)
            near = self.spans[-1:]
        inside = sum(d for t, d in zip(self.starts[lo:hi], near)
                     if start <= t < end)
        factor = statistics.fmean(near) / REFERENCE_S
        self.factors.append(factor)
        return (end - start - inside) / factor


class Counter:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []


def run_round(ops, tally: Counter, seen: dict, problems: list[str],
              clock: Clock | None = None) -> dict:
    """Run every op once; returns seconds per end-to-end metric, scaled
    by `clock` when one is given, else raw wall time.

    Outputs of the first round are checked; later rounds must give the
    same outputs. Only the program's calls are inside the timed region. An
    op that raises is counted failed and timed into no metric; unless it
    raised its known fault, that is also a problem.
    """
    from reference import CheckError
    from workloads import fingerprint

    gc.collect()
    spent: dict[str, float] = {}
    for op in ops:
        tally.attempted += 1
        start = time.perf_counter()
        try:
            for _ in range(op.repeat):
                out = op.run()
        except Exception as exc:  # a failed operation is data, not a crash
            tally.failed += 1
            tally.errors.append(f"{op.name}: {type(exc).__name__}")
            if not (op.known_fault and isinstance(exc, op.known_fault)):
                problems.append(f"{op.name} raised {type(exc).__name__}: "
                                f"{exc}")
            continue
        end = time.perf_counter()
        if op.metric:
            wall = clock.scale(start, end) if clock else end - start
            spent[op.metric] = spent.get(op.metric, 0.0) + wall
        try:
            digest = hash(fingerprint(out))
            if op.name not in seen:
                op.check(out)
                seen[op.name] = digest
            elif seen[op.name] != digest:
                raise CheckError("output differs from the first round's")
        except Exception as exc:  # a check that cannot run has failed
            problems.append(f"{op.name}: {type(exc).__name__}: {exc}")
    return spent


def timed_setup(workload, clock: Clock | None = None) -> float:
    gc.collect()
    start = time.perf_counter()
    workload.setup()
    end = time.perf_counter()
    return clock.scale(start, end) if clock else end - start


def measure(workload, seconds: float, tally: Counter,
            problems: list[str]) -> dict:
    """The untraced run: end-to-end metrics."""
    from workloads import END_TO_END

    workload.prepare()
    clock = Clock()
    try:
        setups = [timed_setup(workload, clock) for _ in range(SETUP_REPEATS)]
        workload.check_setup()
        ops = workload.ops()
        seen: dict = {}
        rounds: list[dict] = []
        longest = 0.0
        begin = time.perf_counter()
        while True:
            start = time.perf_counter()
            rounds.append(run_round(ops, tally, seen, problems, clock))
            longest = max(longest, time.perf_counter() - start)
            print("# round " + " ".join(f"{k}={v:.3f}" for k, v in
                                        rounds[-1].items()), file=sys.stderr)
            if (len(rounds) >= MIN_ROUNDS
                    and time.perf_counter() - begin + longest > seconds):
                break
    finally:
        clock.close()
    metrics = {"setup_s": (statistics.median(setups), "s")}
    for name in END_TO_END:
        metrics[name] = (statistics.median(r.get(name, 0.0) for r in rounds),
                         "s")
    metrics["peak_rss_mb"] = (workload.peak_rss_mb(), "MB")
    print(f"# {len(rounds)} rounds; setup {['%.3f' % s for s in setups]}; "
          f"host speed factor median "
          f"{statistics.median(clock.factors):.3f}", file=sys.stderr)
    return metrics


def cli_startup(src: Path) -> float:
    env = dict(os.environ, PYTHONPATH=str(src))
    times = []
    for _ in range(3):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import cograph_hc.cli"],
                       env=env, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def traced(workload, cli_leg, tally: Counter, problems: list[str],
           trace_path: Path) -> dict:
    """The traced run: per-layer metrics.

    The workload's setup and one round run once untraced and once traced;
    the difference is the tracing overhead. Only the workload's own calls
    are traced, so a layer it does not call reads 0. On cli-edgelist the
    traced round calls `cli.main` in-process, and `cli_leg` then runs the
    same commands as subprocesses for their wall times; elsewhere
    `cli_leg` is None and the `cli.*` metrics read 0.
    """
    import cograph_hc
    from tracer import Tracer

    workload.prepare()
    seen: dict = {}
    untraced = timed_setup(workload)
    workload.check_setup()
    untraced += sum(run_round(workload.ops(), tally, seen, problems).values())
    tracer = Tracer(cograph_hc)
    tracer.install()
    try:
        traced_s = timed_setup(workload)
        traced_s += sum(run_round(workload.ops(), tally, seen,
                                  problems).values())
    finally:
        tracer.uninstall()
    tracer.write(trace_path)

    metrics = {}
    for name in PER_LAYER_SPANS:
        metrics[name + "_s"] = (tracer.seconds(name), "s")
    metrics["hc_algorithms.count_render_mb"] = (tracer.render_bytes / 1e6,
                                                "MB")
    metrics["cotree.postorder_calls"] = (
        tracer.calls.get("cotree.postorder", 0), "count")
    metrics["coloring.verify_hc_calls"] = (
        tracer.calls.get("coloring.verify_hc", 0), "count")
    startup, wall = 0.0, {}
    if cli_leg is not None:
        cli_leg.prepare()
        cli_leg.setup()
        cli_leg.check_setup()
        run_round(cli_leg.ops(), Counter(), {}, problems)
        startup, wall = cli_startup(cli_leg.src), cli_leg.wall
    metrics["cli.startup_s"] = (startup, "s")
    for cmd in CLI_COMMANDS:
        metrics[f"cli.{cmd}_s"] = (wall.get(cmd, 0.0), "s")
    metrics["trace.overhead_s"] = (traced_s - untraced, "s")
    return metrics


PER_LAYER_SPANS = (
    "graph.read_edge_list", "graph.write_edge_list",
    "graph.components_bits", "graph.co_components_bits",
    "cotree.build_cotree", "cotree.build_cotree_reject", "cotree.to_binary",
    "cotree.realized_graph", "cotree.newick_write", "cotree.newick_read",
    "coloring.verify_hc", "coloring.is_hc_coloring", "coloring.is_proper",
    "coloring.is_greedy", "coloring.greedy_coloring",
    "coloring.read_coloring", "coloring.write_coloring",
    "hc_algorithms.alg1_color", "hc_algorithms.reconstruct_cotree",
    "hc_algorithms.count_hc_total", "hc_algorithms.count_hc_wrt",
    "hc_algorithms.render",
    "generator.random_cograph", "generator.exhaustive_cographs",
    "oracle.find_induced_p4", "oracle.T1", "oracle.L2", "oracle.L3", "oracle.T-greedy-iff",
    "oracle.T3", "oracle.T4", "oracle.COUNT",
)
CLI_COMMANDS = ("gen", "recognize", "cotree", "color", "verify", "count",
                "check")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "cograph_hc" / "__init__.py").is_file():
        print(f"perfbench: no program source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS, CliEdgelist

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    # One CPU for the benchmark and its subprocesses, so that the reference
    # loop measures the speed of the CPU the operations run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    tally, problems = Counter(), []
    try:
        if not args.trace:
            workload = WORKLOADS[args.workload](args.seed, work / "main")
            metrics = measure(workload, args.seconds, tally, problems)
        else:
            trace_path = (ROOT / ".perfbench" / "traces"
                          / f"{args.workload}-{args.seed}.tsv.gz")
            if args.workload == CliEdgelist.name:
                workload = CliEdgelist(args.seed, work / "main", inproc=True)
                cli_leg = CliEdgelist(args.seed, work / "main")
            else:
                workload = WORKLOADS[args.workload](args.seed, work / "main")
                cli_leg = None
            metrics = traced(workload, cli_leg, tally, problems, trace_path)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in tally.errors[:10] + problems[:20]:
        print(f"# {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

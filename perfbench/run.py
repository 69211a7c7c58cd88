#!/usr/bin/env python3
"""Seeded in-process solve benchmark for cubic-tsp.

Run from the repository root:

    python3 perfbench/run.py --workload branchy-n34 --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py                 # every workload, one table
    python3 perfbench/run.py --pin           # recompute pinned.json (minutes)

Each instance goes format_instance -> parse_instance -> search.solve in this
process, one at a time (no worker processes), and every answer is checked by
``check.tour_problems`` and against ``pinned.json``.  The last line printed
is one JSON object: {"correct", "attempted", "failed", "metrics"}.

``--trace 0`` times the solves with only the three node-counting wrappers
installed and reports the end-to-end metrics.  ``--trace 1`` solves each
instance of the first half of the corpus once untraced and once under
``layertrace.Tracer`` and reports the per-layer metrics,
``trace.overhead_frac`` included.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import signal
import statistics
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

from check import tour_problems  # noqa: E402
from corpus import DEFAULT_SEED, PINNED_PATH, WORKLOADS, build_corpus, format_cost, load_pins  # noqa: E402
from layertrace import NodeCounter, Tracer, tracer_metric_names  # noqa: E402

INSTANCE_LIMIT_S = 20.0  # one solve; the slowest pinned instance takes ~5 s
RUN_LIMIT_S = 140.0  # all solves of one run; later solves count as timeouts
SETUP_REPEATS = 9


class SolveTimeout(Exception):
    pass


def _raise_timeout(signum, frame):
    raise SolveTimeout


@contextmanager
def time_limit(seconds: float):
    """Raise SolveTimeout in the main thread after ``seconds``."""
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _cubictsp_modules() -> list[str]:
    return [m for m in sys.modules if m == "cubictsp" or m.startswith("cubictsp.")]


def setup(wl, seed):
    """Import the package afresh, generate and parse the corpus:
    (seconds, cubictsp, cases, parsed instances)."""
    t0 = perf_counter()
    for name in _cubictsp_modules():
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cubictsp = importlib.import_module("cubictsp")
    cases = build_corpus(cubictsp, wl, seed)
    parsed = [cubictsp.graph.parse_instance(c.text) for c in cases]
    return perf_counter() - t0, cubictsp, cases, parsed


def timed_resetup(wl, seed) -> float:
    """Time one more set-up, then put the modules in use back, because the
    solver imports some names at call time."""
    saved = {name: sys.modules[name] for name in _cubictsp_modules()}
    try:
        return setup(wl, seed)[0]
    finally:
        for name in _cubictsp_modules():
            del sys.modules[name]
        sys.modules.update(saved)


@dataclass
class Solve:
    seconds: float
    answer: str = ""  # format_cost of the result
    nodes: int = 0
    leaves: int = 0
    problems: list = field(default_factory=list)


class Bench:
    """Solves and checks the cases of one workload under one seed."""

    def __init__(self, cubictsp, wl, seed, pins, counter: NodeCounter) -> None:
        self.cubictsp = cubictsp
        self.wl = wl
        self.seed = seed
        self.pins = pins
        self.counter = counter
        self.deadline = perf_counter() + RUN_LIMIT_S
        self.first: dict = {}  # case index -> first Solve
        self.attempted = 0
        self.failed = 0
        self.reported = 0

    def solve(self, case, inst) -> Solve:
        out = self._solve(case, inst)
        first = self.first.setdefault(case.index, out)
        if first is not out and (out.answer, out.nodes, out.leaves) != (
            first.answer,
            first.nodes,
            first.leaves,
        ):
            out.problems.append("a repeated solve gave another answer or tree")
        self.attempted += 1
        if out.problems:
            self.failed += 1
            if self.reported < 5:
                self.reported += 1
                print(f"FAIL {self.wl.name} case {case.index}: {out.problems}", file=sys.stderr)
        return out

    def _solve(self, case, inst) -> Solve:
        cubictsp, wl = self.cubictsp, self.wl
        limit = min(INSTANCE_LIMIT_S, self.deadline - perf_counter())
        if limit <= 0:
            return Solve(0.0, problems=["timeout: run time limit reached"])
        audit = cubictsp.analysis.MeasureAudit() if wl.audit else None
        self.counter.reset()
        t0 = perf_counter()
        try:
            with time_limit(limit):
                result = cubictsp.search.solve(inst, audit=audit)
        except SolveTimeout:
            return Solve(perf_counter() - t0, problems=[f"timeout after {limit:.1f} s"])
        except Exception as exc:  # one failing instance must not end the run
            return Solve(perf_counter() - t0, problems=[f"{type(exc).__name__}: {exc}"])
        out = Solve(perf_counter() - t0, nodes=self.counter.nodes, leaves=self.counter.leaves)
        if result.optimal:
            out.answer = format_cost(result.cost)
            out.problems += tour_problems(
                case.n, case.edges, result.edges, result.cost, unit_cost=wl.weights == "unit"
            )
        elif result.status == "infeasible":
            out.answer = format_cost(None)
        else:
            out.problems.append(f"unknown status {result.status!r}")
        out.problems += self._pin_problems(case, out)
        if audit is not None:
            report = audit.report()
            if (audit.nodes, audit.leaves) != (out.nodes, out.leaves):
                out.problems.append(
                    f"outside count {out.nodes}/{out.leaves} != audit {audit.nodes}/{audit.leaves}"
                )
            if report["violations"] or not report["leaf_bound_ok"]:
                out.problems.append(f"audit: {report}")
        return out

    def _pin_problems(self, case, out: Solve) -> list[str]:
        pin = self.pins[self.wl.name][case.index]
        if pin["digest"] != case.digest:
            return ["base graph differs from the pinned one; rerun --pin"]
        problems = []
        if out.answer != pin["answer"]:
            problems.append(f"answer {out.answer}, pinned {pin['answer']}")
        if self.seed == DEFAULT_SEED and (out.nodes, out.leaves) != (pin["nodes"], pin["leaves"]):
            problems.append(f"nodes/leaves {out.nodes}/{out.leaves}, pinned {pin['nodes']}/{pin['leaves']}")
        return problems


def per_layer_names(wl) -> list[str]:
    """Names of the --trace 1 metrics of a workload, in output order.  The
    analysis layer is called only under MeasureAudit, so it is reported on
    audit workloads only."""
    names = tracer_metric_names()
    if not wl.audit:
        names = [name for name in names if not name.startswith("analysis.")]
    return names + ["trace.overhead_frac", "search.leaf_ratio_max"]


def leaf_ratio_max(cubictsp, cases, bench) -> float:
    """Largest leaves / ceil(2^(0.3 mu0)) over the first solve of each case.
    It jumps with the labelling of one graph, so it gates nothing."""
    a = cubictsp.analysis
    return max(
        bench.first[c.index].leaves
        / a.leaf_bound(a.measure(a.DEFAULT_CONFIG, cubictsp.graph.parse_instance(c.text)))
        for c in cases
    )


def run_untraced(wl, seed, seconds):
    first_setup_s, cubictsp, cases, parsed = setup(wl, seed)
    setup_times = [first_setup_s]
    # further set-ups are spread over the first pass, so that their median
    # sees the machine at several moments
    every = max(1, len(cases) // (SETUP_REPEATS - 1))
    times = [[] for _ in cases]
    with NodeCounter(cubictsp) as counter:
        bench = Bench(cubictsp, wl, seed, load_pins(), counter)
        start = perf_counter()
        k = 0
        # every case once, then round-robin repeats until the time is up
        while k < len(cases) or (
            perf_counter() - start < seconds and perf_counter() < bench.deadline
        ):
            i = k % len(cases)
            times[i].append(bench.solve(cases[i], parsed[i]).seconds)
            k += 1
            if k % every == 0 and len(setup_times) < SETUP_REPEATS:
                setup_times.append(timed_resetup(wl, seed))
    first = [bench.first[c.index] for c in cases]
    per_case = [statistics.median(t) for t in times]
    q = statistics.quantiles(per_case, n=4)
    metrics = {
        "solve_s_p50": (q[1], "s"),
        "solve_s_p75": (q[2], "s"),
        "instances_per_s": (len(cases) / sum(per_case), "1/s"),
        "nodes": (sum(s.nodes for s in first), "count"),
        "leaves": (sum(s.leaves for s in first), "count"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    shown = {"leaf_ratio_max": (leaf_ratio_max(cubictsp, cases, bench), "ratio")}
    notes = f"{len(cases)} instances, {k} solves, {len(times[-1])}-{len(times[0])} per instance"
    return bench, metrics, shown, notes


def run_traced(wl, seed):
    _, cubictsp, cases, _ = setup(wl, seed)
    # each case is solved twice, so half the corpus takes as long as a
    # --trace 0 run
    cases = cases[: (len(cases) + 1) // 2]

    def parse_and_solve(case) -> float:
        t0 = perf_counter()
        inst = cubictsp.graph.parse_instance(case.text)
        return perf_counter() - t0 + bench.solve(case, inst).seconds

    tracer = Tracer(cubictsp)
    untraced_s = traced_s = 0.0
    with NodeCounter(cubictsp) as counter:
        bench = Bench(cubictsp, wl, seed, load_pins(), counter)
        # untraced and traced solves alternate, so drift hits both alike
        for case in cases:
            untraced_s += parse_and_solve(case)
            with tracer:
                tracer.instance = case.index
                traced_s += parse_and_solve(case)
            tracer.close_instance()
    names = per_layer_names(wl)
    metrics = {k: v for k, v in tracer.metrics().items() if k in names}
    metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1, "ratio")
    metrics["search.leaf_ratio_max"] = (leaf_ratio_max(cubictsp, cases, bench), "ratio")
    notes = f"{len(cases)} instances, traced {traced_s:.1f} s vs untraced {untraced_s:.1f} s"
    return bench, metrics, {}, notes


def run_workload(args) -> int:
    wl = WORKLOADS[args.workload]
    if args.trace:
        bench, metrics, shown, notes = run_traced(wl, args.seed)
    else:
        bench, metrics, shown, notes = run_untraced(wl, args.seed, args.seconds)
    print(f"workload {wl.name}  seed {args.seed}  {notes}")
    for name, (value, unit) in {**metrics, **shown}.items():
        print(f"  {name:<52} {value:>14.6g} {unit}")
    error_rate = bench.failed / bench.attempted
    print(f"  {'error_rate':<52} {error_rate:>14.6g} ({bench.failed}/{bench.attempted})")
    print(
        json.dumps(
            {
                "correct": bench.failed == 0,
                "attempted": bench.attempted,
                "failed": bench.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


def run_all(args) -> int:
    """Every workload in its own child process, one after the other, so that
    peak RSS and set-up time are per workload.  Prints each child's report,
    then one row per workload."""
    rows = {}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        print("\n".join(lines[:-1]))
        rows[name] = json.loads(lines[-1])
    if not rows:
        return status or 1
    first = next(iter(rows.values()))["metrics"]
    print(f"\n{'workload':<12}" + "".join(f"{m:>17}" for m in first) + f"{'error_rate':>17}")
    print(f"{'unit':<12}" + "".join(f"{v['unit']:>17}" for v in first.values()) + f"{'failed/att.':>17}")
    for name, row in rows.items():
        cells = "".join(f"{v['value']:>17.6g}" for v in row["metrics"].values())
        print(f"{name:<12}{cells}{row['failed'] / row['attempted']:>17.6g}")
        status = status or int(row["failed"] > 0)
    return status


def pin(args) -> int:
    """Solve the default-seed corpus with both strategies and write the
    answers, nodes and leaves to pinned.json when they agree."""
    names = [args.workload] if args.workload != "all" else list(WORKLOADS)
    pins = json.loads(PINNED_PATH.read_text()) if PINNED_PATH.exists() else {}
    bad = 0
    for name in names:
        wl = WORKLOADS[name]
        _, cubictsp, cases, parsed = setup(wl, DEFAULT_SEED)
        entries = []
        with NodeCounter(cubictsp) as counter:
            for case, inst in zip(cases, parsed):
                counter.reset()
                full = cubictsp.search.solve(inst)
                nodes, leaves = counter.nodes, counter.leaves
                simple = cubictsp.search.solve(inst, strategy="simple")
                answers = []
                for result in (full, simple):
                    cost = result.cost if result.optimal else None
                    answers.append(format_cost(cost))
                    if result.optimal:
                        problems = tour_problems(case.n, case.edges, result.edges, cost,
                                                 unit_cost=wl.weights == "unit")
                        if problems:
                            bad += 1
                            print(f"{name} case {case.index}: {problems}", file=sys.stderr)
                if answers[0] != answers[1]:
                    bad += 1
                    print(f"{name} case {case.index}: full {answers[0]} != simple {answers[1]}",
                          file=sys.stderr)
                entries.append({"digest": case.digest, "answer": answers[0],
                                "nodes": nodes, "leaves": leaves})
        pins[name] = entries
        print(f"pinned {name}: {len(entries)} instances, "
              f"{sum(e['answer'] == 'infeasible' for e in entries)} infeasible")
    if bad:
        print(f"{bad} disagreements; pinned.json left unchanged", file=sys.stderr)
        return 1
    PINNED_PATH.write_text(json.dumps(pins, indent=1) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true", help="recompute pinned.json")
    args = parser.parse_args(argv)
    if not (SRC / "cubictsp").is_dir():
        print(f"cubictsp sources not found under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.pin:
        return pin(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

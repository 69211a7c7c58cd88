"""Command-line interface.

Subcommands: solve, oracle, gen, bench, audit.  ``solve`` prints either
``OPTIMAL <cost>`` followed by the tour's edges (one ``u v`` pair per line,
1-indexed, sorted) or ``INFEASIBLE``; exit code 0 / 1, or 2 on input errors.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import analysis, connectivity, generators, oracles, reductions, search
from .graph import GraphError, format_instance, format_weight, parse_instance


def _read_instance(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise GraphError(f"cannot read {path}: {exc}")
    return parse_instance(text)


def _tour_lines(inst, edges) -> list[str]:
    pairs = []
    for e in sorted(edges):
        u, v = inst.endpoints(e)
        u, v = min(u, v) + 1, max(u, v) + 1
        pairs.append((u, v))
    pairs.sort()
    return [f"{u} {v}" for u, v in pairs]


def cmd_solve(args) -> int:
    inst = _read_instance(args.file)
    audit = analysis.MeasureAudit() if (args.audit or args.stats) else None
    if args.trace_reductions:
        audit = _TracingAudit()
    result = search.solve(inst, strategy=args.strategy, audit=audit)
    if args.stats:
        sys.stdout.write(connectivity.dump_structure(inst))
    if result.optimal:
        print(f"OPTIMAL {format_weight(result.cost)}")
        for line in _tour_lines(inst, result.edges):
            print(line)
    else:
        print("INFEASIBLE")
    if audit is not None and (args.audit or args.trace_reductions):
        sys.stdout.write(audit.format_report())
    return 0 if result.optimal else 1


class _TracingAudit(analysis.MeasureAudit):
    def step(self, kind, mu_before, inst_after, outcome, detail=None):
        mu_after = self.measure_of(inst_after, outcome)
        delta = mu_before - mu_after
        size = "-" if detail is None else detail
        print(f"reduction {kind} |X|={size} n={inst_after.n_alive()} delta_mu={delta}")
        super().step(kind, mu_before, inst_after, outcome, detail)


def cmd_audit(args) -> int:
    args.audit = True
    args.stats = False
    args.trace_reductions = False
    return cmd_solve(args)


def cmd_oracle(args) -> int:
    inst = _read_instance(args.file)
    if args.method == "dp":
        result = oracles.held_karp(inst)
    else:
        result = oracles.exhaustive_forced(inst)
    if result.optimal:
        print(f"OPTIMAL {format_weight(result.cost)}")
        for line in _tour_lines(inst, result.edges):
            print(line)
        return 0
    print("INFEASIBLE")
    return 1


def cmd_gen(args) -> int:
    seed = args.seed
    if seed is None:
        seed = int(os.environ.get("CUBIC_TSP_SEED", "0"))
    spec = generators.GeneratorSpec(
        kind=args.kind,
        n=args.n,
        seed=seed,
        weights="random" if args.random_weights else "unit",
        name=args.name,
        allow_parallel=args.allow_parallel,
    )
    inst = generators.generate(spec)
    if args.force_edges:
        inst = generators.inject_forced(inst, args.force_edges, seed=seed + 1)
    text = format_instance(inst, comment=f"gen kind={args.kind} n={args.n} seed={seed}")
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _bench_one(path: str):
    name = os.path.basename(path)
    t0 = time.perf_counter()
    audit = analysis.MeasureAudit()
    try:
        inst = parse_instance(Path(path).read_text())
        result = search.solve(inst, audit=audit)
    except (GraphError, OSError, analysis.AuditViolation) as exc:
        return (name, None, f"error: {exc}", time.perf_counter() - t0)
    elapsed = time.perf_counter() - t0
    rep = audit.report()
    row = {
        "n": inst.n_alive(),
        "status": result.status,
        "cost": format_weight(result.cost) if result.optimal else "-",
        "nodes": rep["nodes"],
        "leaves": rep["leaves"],
        "mu0": rep["mu0"],
        "bound": rep["leaf_bound"],
    }
    return (name, row, None, elapsed)


def cmd_bench(args) -> int:
    try:
        files = sorted(str(p) for p in Path(args.dir).iterdir() if p.is_file())
    except OSError as exc:
        raise GraphError(f"cannot read {args.dir}: {exc}")
    rows = []
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_bench_one, files))
    else:
        rows = [_bench_one(f) for f in files]
    rows.sort(key=lambda r: r[0])
    print("instance\tn\tstatus\tcost\tnodes\tleaves\tmu0\tleaf_bound\tseconds")
    worst = 0.0
    for name, row, err, elapsed in rows:
        if err is not None:
            print(f"{name}\t-\t{err}\t-\t-\t-\t-\t-\t{elapsed:.3f}")
            continue
        ratio = row["leaves"] / (2.0 ** (0.3 * float(row["mu0"])))
        worst = max(worst, ratio)
        print(
            f"{name}\t{row['n']}\t{row['status']}\t{row['cost']}\t{row['nodes']}\t"
            f"{row['leaves']}\t{row['mu0']}\t{row['bound']}\t{elapsed:.3f}"
        )
    print(f"aggregate max leaves / 2^(0.3 mu0): {worst:.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="cubic-tsp",
        description="Exact forced-TSP solver for degree-3 multigraphs",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one instance file")
    p.add_argument("file")
    p.add_argument("--strategy", choices=("full", "simple"), default="full")
    p.add_argument("--stats", action="store_true", help="dump circuit/block structure")
    p.add_argument("--audit", action="store_true", help="print the measure report")
    p.add_argument("--trace-reductions", action="store_true")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("audit", help="solve with the full measure report")
    p.add_argument("file")
    p.add_argument("--strategy", choices=("full", "simple"), default="full")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("oracle", help="reference solvers")
    p.add_argument("file")
    p.add_argument("--method", choices=("dp", "exhaustive"), default="exhaustive")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("gen", help="generate an instance")
    p.add_argument("--kind", choices=("random_cubic", "cycle", "named"), default="random_cubic")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--name", choices=generators.NAMED, default="petersen")
    p.add_argument("--random-weights", action="store_true")
    p.add_argument("--allow-parallel", action="store_true")
    p.add_argument("--force-edges", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bench", help="run a directory of instances")
    p.add_argument("dir")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_bench)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

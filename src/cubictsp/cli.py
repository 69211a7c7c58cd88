"""Command-line interface.

Subcommands: solve, oracle, gen, bench, audit.  ``solve`` prints either
``OPTIMAL <cost>`` followed by the tour's edges (one ``u v`` pair per line,
1-indexed, sorted) or ``INFEASIBLE``; exit code 0 / 1, or 2 with one
``error:`` line on input errors, failed measure audits and an output
pipe that its reader closed early.
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
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise GraphError(f"cannot read {path}: {exc}")
    return parse_instance(text)


def _print_result(inst, result) -> int:
    """Print ``OPTIMAL <cost>`` and the tour's edges, one sorted, 1-indexed
    ``u v`` line each, or ``INFEASIBLE``; return the exit code, 0 or 1."""
    if not result.optimal:
        print("INFEASIBLE")
        return 1
    print(f"OPTIMAL {format_weight(result.cost)}")
    for u, v in sorted(sorted((inst.eu[e] + 1, inst.ev[e] + 1)) for e in result.edges):
        print(u, v)
    return 0


def cmd_solve(args) -> int:
    inst = _read_instance(args.file)
    audit = None
    if args.trace_reductions:
        audit = _TracingAudit()
    elif args.audit:
        audit = analysis.MeasureAudit()
    result = search.solve(inst, strategy=args.strategy, audit=audit)
    if args.stats:
        sys.stdout.write(connectivity.dump_structure(inst))
    code = _print_result(inst, result)
    if args.audit or args.trace_reductions:
        sys.stdout.write(audit.format_report())
    return code


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
    return _print_result(inst, result)


def cmd_gen(args) -> int:
    seed = args.seed
    if seed is None:
        raw = os.environ.get("CUBIC_TSP_SEED", "0")
        try:
            seed = int(raw)
        except ValueError:
            raise GraphError(f"CUBIC_TSP_SEED is not an integer: {raw!r}")
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
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            raise GraphError(f"cannot write {args.out}: {exc}")
    else:
        sys.stdout.write(text)
    return 0


def _bench_one(path: str):
    name = os.path.basename(path)
    t0 = time.perf_counter()
    audit = analysis.MeasureAudit()
    try:
        inst = _read_instance(path)
        result = search.solve(inst, audit=audit)
    except (GraphError, analysis.AuditViolation) as exc:
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
    if args.jobs < 1:
        raise GraphError(f"--jobs must be at least 1, got {args.jobs}")
    try:
        files = sorted(str(p) for p in Path(args.dir).iterdir() if p.is_file())
    except OSError as exc:
        raise GraphError(f"cannot read {args.dir}: {exc}")
    # the pool starts all its workers at once, so never more than can run
    workers = min(args.jobs, len(files), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
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
        code = args.func(args)
        sys.stdout.flush()  # inside the try, so a closed pipe is caught here
        return code
    except (GraphError, analysis.AuditViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader left early; send what is still buffered to devnull, so
        # that the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout closed before all output was written", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

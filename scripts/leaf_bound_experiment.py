#!/usr/bin/env python3
"""Empirically certify the search-tree leaf bound.

Solves seeded random cubic instances across a size sweep with the measure
audit on, and reports per size: max leaves, the bound ceil(2^(0.3 mu0)), the
worst observed ratio, and wall time.  The ratio staying at or below 1 is the
testable stand-in for the exponential worst-case claim.
"""

import argparse
import sys
import time

from cubictsp.analysis import MeasureAudit
from cubictsp.generators import GeneratorSpec, generate
from cubictsp.graph import GraphError
from cubictsp.search import solve


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=int, nargs="+", default=[10, 16, 22, 28, 34, 40])
    ap.add_argument("--per-size", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    try:
        sweep(args)
    except GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def sweep(args) -> None:
    print("n\truns\tmax_leaves\tbound\tworst_ratio\ttotal_seconds")
    for n in args.sizes:
        worst_leaves = 0
        worst_ratio = 0.0
        bound = None
        t0 = time.perf_counter()
        for k in range(args.per_size):
            inst = generate(
                GeneratorSpec(kind="random_cubic", n=n, seed=args.seed + k, weights="random")
            )
            audit = MeasureAudit()
            solve(inst, audit=audit)
            rep = audit.report()
            bound = rep["leaf_bound"]
            worst_leaves = max(worst_leaves, rep["leaves"])
            worst_ratio = max(
                worst_ratio, rep["leaves"] / (2.0 ** (0.3 * float(rep["mu0"])))
            )
            assert rep["leaf_bound_ok"], (n, args.seed + k)
        elapsed = time.perf_counter() - t0
        print(f"{n}\t{args.per_size}\t{worst_leaves}\t{bound}\t{worst_ratio:.4f}\t{elapsed:.1f}")


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Write a directory of instance files for benchmarking.

Example:
    python scripts/make_corpus.py corpus/ --sizes 10 20 30 --per-size 5 --forced 3
"""

import argparse
import sys
from pathlib import Path

from cubictsp.generators import GeneratorSpec, generate, inject_forced
from cubictsp.graph import GraphError, format_instance


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("out_dir")
    ap.add_argument("--sizes", type=int, nargs="+", default=[10, 16, 24, 32, 40])
    ap.add_argument("--per-size", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--forced", type=int, default=0, help="pinned edges per instance")
    ap.add_argument("--unit-weights", action="store_true")
    args = ap.parse_args()
    try:
        write_corpus(args)
    except GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def write_corpus(args) -> None:
    # every instance is made before the first is written, so a bad size or
    # count writes nothing
    files = {}
    for n in args.sizes:
        for k in range(args.per_size):
            seed = args.seed + 1000 * n + k
            inst = generate(
                GeneratorSpec(
                    kind="random_cubic",
                    n=n,
                    seed=seed,
                    weights="unit" if args.unit_weights else "random",
                )
            )
            if args.forced:
                inst = inject_forced(inst, count=args.forced, seed=seed + 7)
            name = f"cubic_n{n:03d}_s{seed}.ftsp"
            files[name] = format_instance(inst, comment=f"random cubic n={n} seed={seed}")
    out = Path(args.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            (out / name).write_text(text)
    except OSError as exc:
        raise GraphError(f"cannot write {out}: {exc}")
    print(f"wrote {len(files)} instances to {out}")


if __name__ == "__main__":
    sys.exit(main())

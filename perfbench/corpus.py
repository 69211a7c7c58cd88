"""Workloads and their seeded corpora.

Each workload owns a fixed list of base graphs drawn from
``cubictsp.generators`` (graph ``i`` uses generator seed ``i``).  The run's
``--seed`` picks a random relabelling of every base graph: vertex numbers and
edge order are permuted before the instance is written out and parsed back.
Optimal costs and verdicts do not depend on labels, so the pinned answers of
``pinned.json`` are checked on every seed; node and leaf counts do depend on
labels (branching picks by id) and are pinned for ``DEFAULT_SEED`` only.
Fresh graphs per seed made the benchmark unsteady; README.md gives the
numbers.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

DEFAULT_SEED = 0
PINNED_PATH = Path(__file__).with_name("pinned.json")


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    weights: str  # generator weight mode: "unit" | "random"
    forced: int  # edges marked forced with inject_forced
    audit: bool  # solve under MeasureAudit and require the leaf bound
    count: int  # base graphs in the corpus


WORKLOADS = {
    w.name: w
    for w in (
        Workload("branchy-n34", n=34, weights="random", forced=0, audit=False, count=48),
        Workload("forced-n80", n=80, weights="random", forced=20, audit=False, count=110),
        Workload("audit-n30", n=30, weights="unit", forced=0, audit=True, count=52),
    )
}

# The workloads BENCHMARK.json lists.  audit-n30 is left out while the solver
# fails on it: on some labellings a bridge-normalisation step of
# reduce_to_fixpoint splits a component into two critical ones, the measure
# rises by 19/300 and MeasureAudit raises AuditViolation (graph 42 at seeds
# 11, 32 and 1668032007, graph 5 at seed 103).  It stays runnable, so that
# ``run.py --workload audit-n30 --seed 103`` shows the failure.
BENCHMARKED = ("branchy-n34", "forced-n80")


@dataclass(frozen=True)
class Case:
    """One corpus entry: the instance text handed to the parser, and the
    edge table (u, v, weight, forced) the answer checker reads instead."""

    index: int
    text: str
    n: int
    edges: tuple
    digest: str  # of the base graph before relabelling


def base_graph(cubictsp, wl: Workload, index: int):
    gen = cubictsp.generators
    spec = gen.GeneratorSpec("random_cubic", n=wl.n, seed=index, weights=wl.weights)
    inst = gen.generate(spec)
    if wl.forced:
        inst = gen.inject_forced(inst, wl.forced, seed=index)
    return inst


def relabel(cubictsp, inst, rng: random.Random):
    """Copy of ``inst`` with shuffled vertex numbers and edge order."""
    n = len(inst.valive)
    perm = list(range(n))
    rng.shuffle(perm)
    order = list(range(len(inst.eu)))
    rng.shuffle(order)
    out = cubictsp.Instance()
    for _ in range(n):
        out.add_vertex()
    for e in order:
        u, v = perm[inst.eu[e]], perm[inst.ev[e]]
        if rng.random() < 0.5:
            u, v = v, u
        out.add_edge(u, v, inst.ew[e], inst.eforced[e])
    return out


def edge_table(inst) -> tuple:
    """(u, v, weight, forced) per edge id, read from the raw edge lists."""
    return tuple(zip(inst.eu, inst.ev, inst.ew, inst.eforced))


def digest(text: str) -> str:
    return hashlib.sha1(text.encode()).hexdigest()[:16]


def build_corpus(cubictsp, wl: Workload, seed: int) -> list[Case]:
    """The workload's corpus under the labelling chosen by ``seed``."""
    fmt = cubictsp.graph.format_instance
    cases = []
    for i in range(wl.count):
        base = base_graph(cubictsp, wl, i)
        inst = relabel(cubictsp, base, random.Random(f"{wl.name}/{seed}/{i}"))
        cases.append(Case(i, fmt(inst), wl.n, edge_table(inst), digest(fmt(base))))
    return cases


def format_cost(cost) -> str:
    """Pinned form of an answer: the exact cost, or "infeasible"."""
    return "infeasible" if cost is None else str(Fraction(cost))


def load_pins() -> dict:
    """{workload: [{"digest", "answer", "nodes", "leaves"}, ...]}"""
    return json.loads(PINNED_PATH.read_text())

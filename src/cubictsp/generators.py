"""Instance generators: named small graphs, cycles and random cubic graphs
via the pairing model, with unit or small-rational weights."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from .graph import GraphError, Instance

NAMED = ("petersen", "k4", "k33", "prism", "moebius_kantor")


@dataclass(frozen=True)
class GeneratorSpec:
    kind: str  # "random_cubic" | "cycle" | "named"
    n: int = 0
    seed: int = 0
    weights: str = "unit"  # "unit" | "random"
    name: str = ""
    allow_parallel: bool = False


def _build(n: int, edge_list, weights) -> Instance:
    inst = Instance()
    for _ in range(n):
        inst.add_vertex()
    for (u, v), w in zip(edge_list, weights):
        inst.add_edge(u, v, w)
    inst.validate_initial()
    return inst


def _weights(spec: GeneratorSpec, m: int, rng: random.Random):
    if spec.weights == "unit":
        return [Fraction(1)] * m
    if spec.weights == "random":
        # small denominators keep half-sums small through cut rewrites
        return [Fraction(rng.randint(1, 16), rng.randint(1, 8)) for _ in range(m)]
    raise GraphError(f"unknown weight mode {spec.weights!r}")


def named_edges(name: str):
    if name == "k4":
        return 4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    if name == "k33":
        return 6, [(i, 3 + j) for i in range(3) for j in range(3)]
    if name == "prism":
        return 6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]
    if name == "petersen":
        outer = [(i, (i + 1) % 5) for i in range(5)]
        inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        spokes = [(i, 5 + i) for i in range(5)]
        return 10, outer + inner + spokes
    if name == "moebius_kantor":
        n = 16
        rim = [(i, (i + 1) % 8) for i in range(8)]
        inner = [(8 + i, 8 + (i + 3) % 8) for i in range(8)]
        spokes = [(i, 8 + i) for i in range(8)]
        return n, rim + inner + spokes
    raise GraphError(f"unknown named graph {name!r}")


def random_cubic_edges(n: int, rng: random.Random, allow_parallel: bool = False):
    """Pairing model: three stubs per vertex, matched uniformly, resampled
    until the graph is simple (unless parallel edges are allowed) and
    connected."""
    if n < 4 or n % 2 == 1:
        raise GraphError("a 3-regular graph needs even n >= 4")
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        edges = []
        ok = True
        seen = set()
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v:
                ok = False
                break
            key = (min(u, v), max(u, v))
            if key in seen and not allow_parallel:
                ok = False
                break
            seen.add(key)
            edges.append((u, v))
        if not ok:
            continue
        adj = {v: [] for v in range(n)}
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        stack, comp = [0], {0}
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in comp:
                    comp.add(y)
                    stack.append(y)
        if len(comp) == n:
            return edges


def generate(spec: GeneratorSpec) -> Instance:
    rng = random.Random(spec.seed)
    if spec.kind == "named":
        n, edges = named_edges(spec.name)
        return _build(n, edges, _weights(spec, len(edges), rng))
    if spec.kind == "cycle":
        if spec.n < 3:
            raise GraphError("cycle needs n >= 3")
        edges = [(i, (i + 1) % spec.n) for i in range(spec.n)]
        return _build(spec.n, edges, _weights(spec, len(edges), rng))
    if spec.kind == "random_cubic":
        edges = random_cubic_edges(spec.n, rng, spec.allow_parallel)
        return _build(spec.n, edges, _weights(spec, len(edges), rng))
    raise GraphError(f"unknown generator kind {spec.kind!r}")


def inject_forced(inst: Instance, count: int, seed: int = 0) -> Instance:
    """Mark up to ``count`` random edges forced, keeping at most two forced
    edges per vertex.  Feasibility is not guaranteed (that is the point)."""
    if count < 0:
        raise GraphError(f"cannot force a negative number of edges: {count}")
    rng = random.Random(seed)
    out = inst.copy()
    order = out.alive_edges()
    rng.shuffle(order)
    made = 0
    for e in order:
        if made == count:
            break
        u, v = out.endpoints(e)
        if out.degrees(u)[1] >= 2 or out.degrees(v)[1] >= 2 or out.eforced[e]:
            continue
        out.include_edge(e)
        made += 1
    return out

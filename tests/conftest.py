import os
import random
from fractions import Fraction
from pathlib import Path

import pytest

from cubictsp.graph import Instance

SRC = str(Path(__file__).resolve().parents[1] / "src")


def src_env():
    """The environment for a child Python process, with the checkout's
    ``src`` first on its path, so that it imports ``cubictsp`` uninstalled."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def build(n, edges, forced=()):
    """Instance from (u, v, w) or (u, v) tuples; ``forced`` lists edge ids."""
    inst = Instance()
    for _ in range(n):
        inst.add_vertex()
    for spec in edges:
        if len(spec) == 2:
            u, v = spec
            w = 1
        else:
            u, v, w = spec
        inst.add_edge(u, v, Fraction(w))
    for e in forced:
        inst.include_edge(e)
    return inst


def cycle_instance(n, weights=None):
    inst = Instance()
    for _ in range(n):
        inst.add_vertex()
    for i in range(n):
        w = 1 if weights is None else weights[i]
        inst.add_edge(i, (i + 1) % n, Fraction(w))
    return inst


def six_cycle_with_pendants():
    """Chordless 6-cycle whose vertices each hold one forced edge leading to
    a second 6-cycle: two settled-critical components."""
    inst = Instance()
    for _ in range(12):
        inst.add_vertex()
    for i in range(6):
        inst.add_edge(i, (i + 1) % 6, 1)
    for i in range(6):
        inst.add_edge(6 + i, 6 + (i + 1) % 6, 1)
    for i in range(6):
        inst.add_edge(i, 6 + i, 1, forced=True)
    return inst


def random_degree3_multigraph(rng: random.Random, n: int):
    inst = Instance()
    for _ in range(n):
        inst.add_vertex()
    for _ in range(rng.randint(n, 2 * n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v:
            continue
        if len(inst.adj[u]) >= 3 or len(inst.adj[v]) >= 3:
            continue
        inst.add_edge(u, v, Fraction(rng.randint(1, 9), rng.randint(1, 4)))
    return inst


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


@pytest.fixture
def vertex_budget(monkeypatch):
    """Fail on the 1001st vertex made, so code that makes a vertex count read
    from its input up front fails fast instead of exhausting memory.
    Returns a one-item list holding the count so far."""
    real = Instance.add_vertex
    made = [0]

    def add_vertex(self):
        made[0] += 1
        assert made[0] <= 1000, "more than 1000 vertices made"
        return real(self)

    monkeypatch.setattr(Instance, "add_vertex", add_vertex)
    return made

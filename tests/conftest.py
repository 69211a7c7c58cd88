import os
import random
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import cubictsp.reductions as red
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


@pytest.fixture
def decisions_logged(monkeypatch):
    """Record the decisions that each ``reductions.reduce_to_fixpoint`` call
    makes, which its log does not hold.  A decision is
    ``("IncludeEdge", eid)`` for an include that took effect or
    ``("DeleteEdge", eid)`` for any delete.  After each call, ``.last`` holds
    that call's log entries with its decisions merged in where they were
    made.  Decisions made outside a fixpoint, such as a branch's, are not
    recorded."""
    rec = SimpleNamespace(last=None)
    open_calls = []  # per open fixpoint: its log and [(log length, decision)]
    fixpoint, include, delete = red.reduce_to_fixpoint, red._include, red._delete

    def note(kind, eid):
        if open_calls:
            log, made = open_calls[-1]
            made.append((len(log), (kind, eid)))

    def _include(inst, eid):
        feas = include(inst, eid)
        if not feas.infeasible:
            note("IncludeEdge", eid)
        return feas

    def _delete(inst, eid):
        note("DeleteEdge", eid)
        return delete(inst, eid)

    def reduce_to_fixpoint(inst, log, audit=None):
        start, made = len(log), []
        open_calls.append((log, made))
        try:
            outcome = fixpoint(inst, log, audit)
        finally:
            open_calls.pop()
        # a decision made at log length k comes before entry k
        keyed = [((k, 0), d) for k, d in made]
        keyed += [((k, 1), e) for k, e in enumerate(log[start:], start)]
        rec.last = [x for _, x in sorted(keyed, key=lambda t: t[0])]
        return outcome

    monkeypatch.setattr(red, "_include", _include)
    monkeypatch.setattr(red, "_delete", _delete)
    monkeypatch.setattr(red, "reduce_to_fixpoint", reduce_to_fixpoint)
    return rec

from fractions import Fraction

import pytest

from cubictsp.generators import GeneratorSpec, generate, inject_forced
from cubictsp.graph import GraphError
from cubictsp.oracles import EXHAUSTIVE_LIMIT, HELD_KARP_LIMIT, exhaustive_forced, held_karp

from conftest import build, cycle_instance


def test_held_karp_c5():
    got = held_karp(cycle_instance(5))
    assert got.optimal and got.cost == 5


def test_held_karp_k4():
    inst = generate(GeneratorSpec(kind="named", name="k4"))
    got = held_karp(inst)
    assert got.optimal and got.cost == 4
    assert inst.is_tour(got.edges)


def test_held_karp_k33():
    inst = generate(GeneratorSpec(kind="named", name="k33"))
    got = held_karp(inst)
    assert got.optimal and got.cost == 6


def test_held_karp_petersen_infeasible():
    inst = generate(GeneratorSpec(kind="named", name="petersen"))
    assert held_karp(inst).status == "infeasible"


def test_held_karp_rejects_forced_edges():
    inst = cycle_instance(5)
    inst.include_edge(0)
    with pytest.raises(GraphError):
        held_karp(inst)


def test_held_karp_guard():
    inst = generate(GeneratorSpec(kind="random_cubic", n=HELD_KARP_LIMIT + 2, seed=1))
    with pytest.raises(GraphError):
        held_karp(inst)


def test_held_karp_two_vertices():
    inst = build(2, [(0, 1, 2), (0, 1, 3), (0, 1, 9)])
    got = held_karp(inst)
    assert got.optimal and got.cost == 5


def test_held_karp_exact_rational_weights():
    inst = cycle_instance(6, weights=[Fraction(1, 3)] * 6)
    got = held_karp(inst)
    assert got.cost == 2


def test_held_karp_python_fallback_agrees():
    from cubictsp import oracles

    inst = generate(GeneratorSpec(kind="random_cubic", n=10, seed=3, weights="random"))
    denom, scaled = oracles._scale(inst, inst.alive_edges())
    verts = inst.alive_vertices()
    remap = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    wmat = [[None] * n for _ in range(n)]
    for e in inst.alive_edges():
        a, b = remap[inst.eu[e]], remap[inst.ev[e]]
        w = scaled[e]
        for i, j in ((a, b), (b, a)):
            if wmat[i][j] is None or w < wmat[i][j]:
                wmat[i][j] = w
    cost_np, _ = oracles._held_karp_numpy(wmat, n)
    cost_py, _ = oracles._held_karp_python(wmat, n)
    assert cost_np == cost_py


def test_exhaustive_c6_with_forced_edge():
    inst = cycle_instance(6)
    inst.include_edge(2)
    got = exhaustive_forced(inst)
    assert got.optimal and got.cost == 6


def test_exhaustive_three_forced_at_vertex_infeasible():
    inst = generate(GeneratorSpec(kind="named", name="k4"))
    for e in list(inst.adj[0]):
        inst.include_edge(e)
    assert exhaustive_forced(inst).status == "infeasible"


def test_exhaustive_petersen_infeasible():
    inst = generate(GeneratorSpec(kind="named", name="petersen"))
    assert exhaustive_forced(inst).status == "infeasible"


def test_exhaustive_guard():
    inst = generate(GeneratorSpec(kind="random_cubic", n=EXHAUSTIVE_LIMIT + 2, seed=1))
    with pytest.raises(GraphError):
        exhaustive_forced(inst)


def test_exhaustive_two_vertices_needs_distinct_edges():
    inst = build(2, [(0, 1, 2), (0, 1, 3)])
    got = exhaustive_forced(inst)
    assert got.optimal and got.cost == 5
    assert len(got.edges) == 2


def test_oracles_agree_on_unforced_instances(rng):
    for trial in range(25):
        inst = generate(
            GeneratorSpec(
                kind="random_cubic",
                n=rng.choice([6, 8, 10, 12]),
                seed=trial,
                weights="random",
            )
        )
        a = held_karp(inst)
        b = exhaustive_forced(inst)
        assert a.status == b.status
        if a.optimal:
            assert a.cost == b.cost


def test_exhaustive_respects_forced_edges(rng):
    for trial in range(15):
        base = generate(GeneratorSpec(kind="random_cubic", n=8, seed=60 + trial, weights="random"))
        inst = inject_forced(base, count=2, seed=trial)
        got = exhaustive_forced(inst)
        if got.optimal:
            for e in inst.forced_edges():
                assert e in got.edges

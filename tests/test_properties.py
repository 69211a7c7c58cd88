"""Randomized invariants driven by hypothesis."""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

import cubictsp.connectivity as conn
import cubictsp.reductions as red
from cubictsp.analysis import DEFAULT_CONFIG, MeasureAudit, measure
from cubictsp.generators import GeneratorSpec, generate, inject_forced
from cubictsp.oracles import exhaustive_forced, held_karp
from cubictsp.search import solve

seeds = st.integers(min_value=0, max_value=10**9)


@settings(max_examples=25, deadline=None)
@given(seed=seeds, n=st.sampled_from([6, 8, 10, 12]))
def test_solver_matches_dynamic_program(seed, n):
    inst = generate(GeneratorSpec(kind="random_cubic", n=n, seed=seed, weights="random"))
    want = held_karp(inst)
    got = solve(inst)
    assert got.status == want.status
    if want.optimal:
        assert got.cost == want.cost
        assert inst.is_tour(got.edges)


@settings(max_examples=25, deadline=None)
@given(seed=seeds, n=st.sampled_from([6, 8, 10]), pins=st.integers(0, 5))
def test_solver_matches_exhaustive_with_pins(seed, n, pins):
    base = generate(GeneratorSpec(kind="random_cubic", n=n, seed=seed, weights="random"))
    inst = inject_forced(base, count=pins, seed=seed ^ 0xABCD)
    want = exhaustive_forced(inst)
    got = solve(inst)
    assert got.status == want.status
    if want.optimal:
        assert got.cost == want.cost


@settings(max_examples=20, deadline=None)
@given(seed=seeds)
def test_audit_clean_and_leaf_bounded(seed):
    base = generate(GeneratorSpec(kind="random_cubic", n=12, seed=seed, weights="random"))
    inst = inject_forced(base, count=seed % 4, seed=seed)
    audit = MeasureAudit()
    solve(inst, audit=audit)
    rep = audit.report()
    assert rep["violations"] == 0
    assert rep["leaf_bound_ok"]
    assert rep["leaves"] <= rep["nodes"]


@settings(max_examples=20, deadline=None)
@given(seed=seeds)
def test_reduction_is_idempotent_and_monotone(seed):
    base = generate(GeneratorSpec(kind="random_cubic", n=10, seed=seed, weights="random"))
    inst = inject_forced(base, count=seed % 5, seed=seed)
    mu_before = measure(DEFAULT_CONFIG, inst)
    _, _, outcome = red.reduce_to_fixpoint(inst, red.ReductionLog())
    mu_after = measure(DEFAULT_CONFIG, inst, infeasible=outcome.infeasible)
    assert mu_after <= mu_before
    if not outcome.infeasible and not outcome.solved:
        probe = inst.copy()
        _, log2, _ = red.reduce_to_fixpoint(probe, red.ReductionLog())
        assert len(log2) == 0


@settings(max_examples=20, deadline=None)
@given(seed=seeds)
def test_circuits_partition_component_edges(seed):
    rng = random.Random(seed)
    inst = generate(GeneratorSpec(kind="random_cubic", n=10, seed=seed))
    for e in list(inst.alive_edges()):
        if rng.random() < 0.25:
            u, v = inst.endpoints(e)
            if inst.degrees(u)[1] < 2 and inst.degrees(v)[1] < 2:
                inst.include_edge(e)
    for comp in inst.u_components():
        if comp.trivial or not conn.is_2_edge_connected(inst, comp):
            continue
        circuits = conn.circuit_partition(inst, comp)
        edges = [e for c in circuits for e in c.edges]
        assert sorted(edges) == sorted(comp.edges)
        assert len(edges) == len(set(edges))


@settings(max_examples=20, deadline=None)
@given(seed=seeds, k=st.integers(1, 6))
def test_four_cycle_assembly_equals_bruteforce(seed, k):
    from cubictsp.graph import Instance
    from cubictsp.oracles import brute_force_4cycles
    from cubictsp.search import solve_all_4cycles

    rng = random.Random(seed)
    inst = Instance()
    for _ in range(4 * k):
        inst.add_vertex()
    for c in range(k):
        for i in range(4):
            inst.add_edge(4 * c + i, 4 * c + (i + 1) % 4, Fraction(rng.randint(1, 9)))
    slots = list(range(4 * k))
    rng.shuffle(slots)
    for u, v in zip(slots[::2], slots[1::2]):
        inst.add_edge(u, v, Fraction(rng.randint(1, 9)), forced=True)
    fast = solve_all_4cycles(inst)
    slow = brute_force_4cycles(inst)
    assert fast.status == slow.status
    if slow.optimal:
        assert fast.cost == slow.cost

"""Randomized invariants driven by hypothesis."""

import random
from fractions import Fraction

import pytest
from hypothesis import event, given, note, settings, strategies as st

import cubictsp.connectivity as conn
import cubictsp.reductions as red
import cubictsp.search as search
from cubictsp.analysis import DEFAULT_CONFIG, MeasureAudit, measure
from cubictsp.generators import GeneratorSpec, generate, inject_forced
from cubictsp.graph import format_instance
from cubictsp.oracles import exhaustive_forced, held_karp
from cubictsp.search import solve

from conftest import build, random_degree3_multigraph
from test_connectivity import _has_normal_subblock_by_partition, normal_candidates

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
    outcome = red.reduce_to_fixpoint(inst, [])
    infeasible = outcome is not None and outcome.infeasible
    mu_after = measure(DEFAULT_CONFIG, inst, infeasible=infeasible)
    assert mu_after <= mu_before
    if outcome is None:
        probe = inst.copy()
        log2: list = []
        red.reduce_to_fixpoint(probe, log2)
        assert len(log2) == 0
        # and makes no decision
        assert probe.ealive == inst.ealive and probe.eforced == inst.eforced


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


def _forced_boundary(inst, verts) -> int:
    """Forced edges leaving ``verts``, as ``Instance.cut`` counts them; none
    leave the whole alive graph."""
    if len(verts) == inst.n_alive():
        return 0
    return len(inst.cut(verts)[0])


@settings(max_examples=50, deadline=None)
@given(seed=seeds, n=st.sampled_from([8, 10, 12, 14]), pins=st.integers(1, 6))
def test_odd_blocks_match_component_parity(seed, n, pins):
    # a circuit's blocks partition its component, so the odd blocks on every
    # circuit are as many as the component's forced boundary, mod 2
    rng = random.Random(seed)
    if seed % 2:
        base = random_degree3_multigraph(rng, n)
    else:
        base = generate(GeneratorSpec(kind="random_cubic", n=n, seed=seed))
    inst = inject_forced(base, count=pins, seed=seed)
    for comp in inst.u_components():
        if comp.trivial or not conn.is_2_edge_connected(inst, comp):
            continue
        for circuit in conn.circuit_partition(inst, comp):
            if not circuit.trivial:
                odd = sum(b.odd for b in conn.blocks_along(inst, comp, circuit))
                assert odd % 2 == _forced_boundary(inst, comp.vertices) % 2


@settings(max_examples=60, deadline=None)
@given(seed=seeds, n=st.sampled_from([6, 8, 10, 12, 14]), pins=st.integers(1, 10))
def test_forced_degree_parity_matches_the_cut(seed, n, pins):
    # the forced degrees summed over a vertex set count each forced edge
    # inside twice, so components and blocks read their forced boundary's
    # parity off them, forced edges inside included
    inst = inject_forced(random_degree3_multigraph(random.Random(seed), n), count=pins, seed=seed)
    for comp in inst.u_components():
        assert comp.odd == (_forced_boundary(inst, comp.vertices) % 2 == 1)
        if comp.trivial or not conn.is_2_edge_connected(inst, comp):
            continue
        for circuit in conn.circuit_partition(inst, comp):
            if circuit.trivial:
                continue
            for block in conn.blocks_along(inst, comp, circuit):
                assert block.odd == (_forced_boundary(inst, block.vertices) % 2 == 1)


@st.composite
def unusual_shapes(draw):
    """The shapes of ``test_oracles._unusual_shape``, drawn so that a failure
    shrinks: n = 2 to 10, degrees 2 or 3 matched by a loop-free pairing of
    stubs with parallel edges kept, weights num/den with num in [-6, 9] and
    den in [1, 4], and 0 to 3 forced edges keeping forced degree at most 2."""
    n = draw(st.integers(2, 10))
    left = draw(st.lists(st.sampled_from((3, 2)), min_size=n, max_size=n))
    if sum(left) % 2:
        left[0] = 5 - left[0]
    pairs = []
    while any(left):
        # a stub of the vertex with the most left goes to one whose loss
        # keeps every vertex at most half of what is left, so the rest of
        # the stubs still pair without a loop
        u = max(range(n), key=left.__getitem__)
        left[u] -= 1
        options = []
        for v in range(n):
            if v != u and left[v]:
                left[v] -= 1
                if 2 * max(left) <= sum(left):
                    options.append(v)
                left[v] += 1
        v = draw(st.sampled_from(options))
        left[v] -= 1
        pairs.append((u, v))
    weights = st.builds(Fraction, st.integers(-6, 9), st.integers(1, 4))
    inst = build(n, [(u, v, draw(weights)) for u, v in pairs])
    for e in draw(st.lists(st.integers(0, len(pairs) - 1), max_size=3, unique=True)):
        u, v = inst.endpoints(e)
        if inst.fdeg[u] < 2 and inst.fdeg[v] < 2:
            inst.include_edge(e)
    return inst


@settings(max_examples=1000, deadline=None)
@given(inst=unusual_shapes())
def test_solver_matches_exhaustive_on_drawn_unusual_shapes(inst):
    note(format_instance(inst))
    got = solve(inst)
    want = exhaustive_forced(inst)
    assert got.status == want.status
    if want.optimal:
        assert got.cost == want.cost
        assert inst.is_tour(got.edges) and inst.tour_cost(got.edges) == got.cost
    solve(inst, audit=MeasureAudit())  # raises on a measure violation


def _check_cycle_rule(inst, where):
    """Each normal block of every 2-edge-connected component nests another
    iff its inner unforced edges are not one cycle through it."""
    for comp in inst.u_components():
        if comp.trivial or not conn.is_2_edge_connected(inst, comp):
            continue
        for _, _, block in normal_candidates(inst, comp):
            want = _has_normal_subblock_by_partition(inst, block.vertices)
            assert (conn._cycle_order(inst, block.vertices) is None) == want
            event(f"{where}: normal block nests one: {want}")


@settings(max_examples=1000, deadline=None)
@given(inst=unusual_shapes())
def test_cycle_rule_matches_the_partition_on_drawn_unusual_shapes(inst):
    # on the drawn instance, and at every branch pick of its solve
    note(format_instance(inst))
    _check_cycle_rule(inst, "drawn")
    pick = search.select_branch_circuit

    def checked(state):
        _check_cycle_rule(state, "pick")
        return pick(state)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "select_branch_circuit", checked)
        solve(inst)

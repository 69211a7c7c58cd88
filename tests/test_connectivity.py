import itertools
import random

import pytest

import cubictsp.connectivity as conn
from cubictsp.connectivity import (
    NORMAL,
    REDUCIBLE,
    TRIVIAL,
    TWO_PENDENT_CRITICAL,
    blocks_along,
    circuit_partition,
    classify_block,
    find_minimal_normal_block,
    is_2_edge_connected,
    is_critical_component,
    is_standard_four_cycle,
    two_cut_pairs,
)
from cubictsp.generators import GeneratorSpec, generate
from cubictsp.graph import GraphError
from cubictsp.oracles import _disconnects

from conftest import (
    build,
    cycle_instance,
    random_degree3_multigraph,
    six_cycle_with_pendants,
)


def the_component(inst, v=0):
    return inst.component_of(v)


def test_cycle_component_is_2ec_and_single_circuit():
    inst = cycle_instance(7)
    comp = the_component(inst)
    assert is_2_edge_connected(inst, comp)
    circuits = circuit_partition(inst, comp)
    assert len(circuits) == 1
    assert sorted(circuits[0].edges) == sorted(comp.edges)
    assert not circuits[0].trivial


def test_path_component_is_not_2ec():
    inst = build(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    inst.include_edge(3)  # breaks the cycle in the unforced graph
    comp = the_component(inst)
    assert not is_2_edge_connected(inst, comp)


def test_k4_has_only_trivial_circuits():
    # 3-edge-connected: no pair of edges disconnects, checked exhaustively
    inst = generate(GeneratorSpec(kind="named", name="k4"))
    comp = the_component(inst)
    eset = set(comp.edges)
    verts = sorted(comp.vertices)
    for i, a in enumerate(comp.edges):
        for b in comp.edges[i + 1 :]:
            assert not _disconnects(inst, verts, eset, a, b)
    circuits = circuit_partition(inst, comp)
    assert len(circuits) == 6
    assert all(c.trivial for c in circuits)


def test_circuit_partition_matches_naive_closure(rng):
    # naive: group edges by the transitive closure of disconnecting pairs
    for trial in range(40):
        inst = generate(
            GeneratorSpec(kind="random_cubic", n=rng.choice([6, 8, 10]), seed=trial)
        )
        # force a few edges to break symmetry
        for e in list(inst.alive_edges()):
            if rng.random() < 0.2:
                u, v = inst.endpoints(e)
                if inst.degrees(u)[1] < 2 and inst.degrees(v)[1] < 2:
                    inst.include_edge(e)
        for comp in inst.u_components():
            if comp.trivial or not is_2_edge_connected(inst, comp):
                continue
            if len(comp.edges) > 14:
                continue
            parent = {e: e for e in comp.edges}

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for a, b in two_cut_pairs(inst, comp):
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[ra] = rb
            naive = {}
            for e in comp.edges:
                naive.setdefault(find(e), set()).add(e)
            got = {frozenset(c.edges) for c in circuit_partition(inst, comp)}
            assert got == {frozenset(s) for s in naive.values()}


def test_blocks_cut_is_consecutive_edge_pair(rng):
    # removing a block's two neighbouring circuit edges detaches exactly it
    for trial in range(20):
        inst = generate(GeneratorSpec(kind="random_cubic", n=10, seed=100 + trial))
        for e in list(inst.alive_edges()):
            if rng.random() < 0.25:
                u, v = inst.endpoints(e)
                if inst.degrees(u)[1] < 2 and inst.degrees(v)[1] < 2:
                    inst.include_edge(e)
        for comp in inst.u_components():
            if comp.trivial or not is_2_edge_connected(inst, comp):
                continue
            for circuit in circuit_partition(inst, comp):
                if circuit.trivial:
                    continue
                blocks = blocks_along(inst, comp, circuit)
                assert {v for b in blocks for v in b.vertices} == set(comp.vertices)
                p = len(circuit.edges)
                for i, block in enumerate(blocks):
                    cf, cu = inst.cut(block.vertices)
                    expect = {circuit.edges[i], circuit.edges[(i + 1) % p]}
                    assert set(cu) == expect
                    assert len(cf) == block.cut_forced


def brute_small_three_cuts(inst, comp, cap):
    """Every vertex subset of at most ``cap`` vertices that is connected in
    the component and has exactly three component edges leaving it."""
    verts = sorted(comp.vertices)
    idx = {v: i for i, v in enumerate(verts)}
    ends = [(e, idx[inst.eu[e]], idx[inst.ev[e]]) for e in comp.edges]
    out = set()
    for size in range(1, min(cap, len(verts)) + 1):
        for chosen in itertools.combinations(range(len(verts)), size):
            mask = sum(1 << i for i in chosen)
            cut = [e for e, a, b in ends if (mask >> a ^ mask >> b) & 1]
            if len(cut) != 3:
                continue
            reach = 1 << chosen[0]
            while True:
                grown = reach
                for _, a, b in ends:
                    if mask >> a & mask >> b & 1 and (reach >> a | reach >> b) & 1:
                        grown |= 1 << a | 1 << b
                if grown == reach:
                    break
                reach = grown
            if reach == mask:
                out.add(tuple(cut) + (frozenset(verts[i] for i in chosen),))
    return out


def test_small_three_cuts_match_brute_force(monkeypatch):
    rng = random.Random(3)
    shapes = {"degree2": 0, "parallel": 0}
    checked = 0
    for trial in range(160):
        n = rng.choice([6, 8, 10, 12, 14, 16])
        if trial % 2:
            inst = random_degree3_multigraph(rng, n)
        else:
            inst = generate(
                GeneratorSpec(kind="random_cubic", n=n, seed=trial, allow_parallel=True)
            )
            for e in list(inst.alive_edges()):
                if rng.random() < 0.15:
                    u, v = inst.endpoints(e)
                    if inst.degrees(u)[1] < 2 and inst.degrees(v)[1] < 2:
                        inst.include_edge(e)
        for comp in inst.u_components():
            if comp.trivial or not is_2_edge_connected(inst, comp):
                continue
            if any(inst.degrees(v)[2] == 2 for v in comp.vertices):
                shapes["degree2"] += 1
            if len({tuple(sorted(inst.endpoints(e))) for e in comp.edges}) < len(
                comp.edges
            ):
                shapes["parallel"] += 1
            for cap in (4, 10) if len(comp.vertices) <= 12 else (10,):
                monkeypatch.setattr(conn, "SMALL_SIDE", cap)
                conn.clear_caches()
                got = conn.component_cut_structure(inst, comp)[1]
                assert len(got) == len(set(got))
                assert set(got) == brute_small_three_cuts(inst, comp, cap)
                # sorted by triple; the side holding eu of the first edge first
                order = [(e, f, h, inst.eu[e] not in xs) for e, f, h, xs in got]
                assert order == sorted(order)
                checked += 1
    assert checked >= 60
    assert shapes["degree2"] >= 30 and shapes["parallel"] >= 20


def test_cache_shares_no_forced_edge_facts():
    # one labelled unforced 6-cycle; its forced edges sit at 0, 1 in a and
    # at 2, 3 in b, so the two disagree on every forced block boundary
    ring = [(i, (i + 1) % 6) for i in range(6)]
    a = build(8, ring + [(0, 6), (1, 7)], forced=(6, 7))
    b = build(8, ring + [(2, 6), (3, 7)], forced=(6, 7))
    conn.clear_caches()
    comp_a, comp_b = a.component_of(0), b.component_of(0)
    (circuit,) = circuit_partition(a, comp_a)
    blocks_a = blocks_along(a, comp_a, circuit)
    assert circuit_partition(b, comp_b) is circuit_partition(a, comp_a)
    blocks_b = blocks_along(b, comp_b, circuit)
    for block in blocks_b:
        assert block.cut_forced == len(b.cut(block.vertices)[0])
    kinds_a = [classify_block(a, x) for x in blocks_a]
    assert kinds_a != [classify_block(b, x) for x in blocks_b]


def test_six_cycle_blocks_all_trivial():
    inst = six_cycle_with_pendants()
    comp = the_component(inst)
    (circuit,) = circuit_partition(inst, comp)
    blocks = blocks_along(inst, comp, circuit)
    assert len(blocks) == 6
    assert all(classify_block(inst, b) == TRIVIAL for b in blocks)
    assert all(b.odd for b in blocks)


def chain2_instance():
    """A length-2 circuit: trivial block v1 against a five-vertex block."""
    inst = build(
        10,
        [
            (0, 1),   # e0: u1 - v1
            (1, 2),   # e1: v1 - v2
            (0, 3),   # u1 - a
            (0, 4),   # u1 - b
            (2, 3),   # v2 - a
            (2, 4),   # v2 - b
            (3, 5),   # a - x
            (4, 5),   # b - x
            (6, 7), (7, 8), (8, 9), (9, 6),  # host 4-cycle
        ],
    )
    inst.add_edge(1, 6, 1, forced=True)  # v1 pendant
    inst.add_edge(5, 8, 1, forced=True)  # x pendant
    inst.add_edge(7, 9, 1, forced=True)  # host chord, keeps degrees cubic
    return inst


def test_chain_of_length_two_blocks():
    inst = chain2_instance()
    comp = inst.component_of(0)
    circuits = circuit_partition(inst, comp)
    chain = next(c for c in circuits if set(c.edges) == {0, 1})
    blocks = blocks_along(inst, comp, chain)
    kinds = sorted(
        (len(b.vertices), classify_block(inst, b)) for b in blocks
    )
    assert kinds == [(1, TRIVIAL), (5, NORMAL)]
    odd = [b for b in blocks if len(b.vertices) == 5]
    assert odd[0].odd  # one forced boundary edge inside the big block


def test_classify_reducible_block():
    # degree-2 vertex between two circuit edges
    inst = build(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
    comp = the_component(inst)
    circuits = circuit_partition(inst, comp)
    for circuit in circuits:
        if circuit.trivial:
            continue
        for block in blocks_along(inst, comp, circuit):
            if block.vertices == frozenset({3}):
                assert classify_block(inst, block) == REDUCIBLE


def critical_block_instance():
    """2-pendent chordless 6-cycle: four forced boundary edges plus the two
    circuit edges of the host."""
    inst = build(
        14,
        [
            (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0),  # 6-cycle
            (6, 0), (3, 7),  # the two unforced boundary edges
            (6, 8), (6, 9), (7, 10), (7, 11), (8, 9), (10, 11),
            (8, 12), (9, 12), (10, 13), (11, 13),
        ],
    )
    inst.add_edge(1, 12, 1, forced=True)
    inst.add_edge(2, 13, 1, forced=True)
    inst.add_edge(4, 13, 1, forced=True)
    inst.add_edge(5, 12, 1, forced=True)
    return inst


def test_two_pendent_critical_six_cycle():
    inst = critical_block_instance()
    assert conn._is_two_pendent_critical(inst, frozenset(range(6)))


def test_two_pendent_four_cycle_is_normal():
    inst = build(
        8,
        [
            (0, 1), (1, 2), (2, 3), (3, 0),  # 4-cycle
            (0, 4), (2, 5),  # boundary circuit edges
            (4, 6), (4, 7), (5, 6), (5, 7), (6, 7),
        ],
    )
    inst.add_edge(1, 6, 1, forced=True)
    inst.add_edge(3, 7, 1, forced=True)
    comp = the_component(inst)
    for circuit in circuit_partition(inst, comp):
        if circuit.trivial:
            continue
        for block in blocks_along(inst, comp, circuit):
            if block.vertices == frozenset({0, 1, 2, 3}):
                assert classify_block(inst, block) == NORMAL
                return
    pytest.fail("4-cycle block not found")


def test_is_critical_component_six_cycle():
    inst = six_cycle_with_pendants()
    assert is_critical_component(inst, inst.component_of(0))


def extension_instance(i, j):
    """0-pendent extension of a 6-cycle: cycle 0..5, pair {6, 7} attached at
    positions i and j, six forced edges out to a second copy."""
    edges = [(k, (k + 1) % 6) for k in range(6)]
    edges += [(6, 7), (6, i), (7, j)]
    base = build(16, edges)
    # mirror copy on 8..15
    for k in range(6):
        base.add_edge(8 + k, 8 + (k + 1) % 6, 1)
    base.add_edge(14, 15, 1)
    base.add_edge(14, 8 + i, 1)
    base.add_edge(15, 8 + j, 1)
    free = [k for k in range(6) if k not in (i, j)]
    for k in free:
        base.add_edge(k, 8 + k, 1, forced=True)
    base.add_edge(6, 14, 1, forced=True)
    base.add_edge(7, 15, 1, forced=True)
    return base


@pytest.mark.parametrize("i,j", [(0, 1), (0, 2), (0, 3)])
def test_is_critical_component_extensions(i, j):
    inst = extension_instance(i, j)
    inst.validate_initial()
    assert is_critical_component(inst, inst.component_of(0))


def test_four_cycle_not_critical():
    inst = build(8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4)])
    for k in range(4):
        inst.add_edge(k, 4 + k, 1, forced=True)
    comp = inst.component_of(0)
    assert not is_critical_component(inst, comp)
    assert is_standard_four_cycle(inst, comp)


def test_standard_four_cycle_requires_settled_vertices():
    inst = build(6, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5)])
    inst.add_edge(1, 4, 1, forced=True)
    inst.add_edge(3, 5, 1, forced=True)
    comp = inst.component_of(0)
    # vertices 0 and 2 still have degree 2: not settled
    assert not is_standard_four_cycle(inst, comp)


def test_minimal_normal_block_on_nested_structure():
    # the five-vertex block of the chain-2 instance nests further normal
    # pieces, so the fallback pool applies; the pick is still deterministic
    inst = chain2_instance()
    comp = inst.component_of(0)
    circuit, block = find_minimal_normal_block(inst, comp)
    assert classify_block(inst, block) == NORMAL
    again = find_minimal_normal_block(inst, comp)
    assert again[1].vertices == block.vertices


def four_cycle_block_instance():
    """Circuit u1-v1-v2 whose big block is a plain 4-cycle; every normal
    block here is minimal, so the tie breaks on vertex order."""
    inst = build(
        8,
        [
            (0, 4),  # e0: u1 - v1
            (4, 2),  # e1: v1 - v2
            (0, 1), (1, 2), (2, 3), (3, 0),  # 4-cycle u1-a-v2-b
            (5, 6), (6, 7), (7, 5),
        ],
    )
    inst.add_edge(4, 5, 1, forced=True)  # v1 pendant
    inst.add_edge(1, 6, 1, forced=True)  # a pendant
    inst.add_edge(3, 7, 1, forced=True)  # b pendant
    return inst


def test_minimal_normal_block_prefers_lowest_vertices():
    inst = four_cycle_block_instance()
    comp = inst.component_of(0)
    circuit, block = find_minimal_normal_block(inst, comp)
    assert classify_block(inst, block) == NORMAL
    assert not conn._has_normal_subblock(inst, block.vertices)
    assert block.vertices == frozenset({0, 1, 2, 3})
    assert set(circuit.edges) == {0, 1}


def test_find_minimal_normal_block_errors_when_all_trivial():
    inst = six_cycle_with_pendants()
    with pytest.raises(GraphError):
        find_minimal_normal_block(inst, inst.component_of(0))


def test_dump_structure_mentions_circuits():
    inst = six_cycle_with_pendants()
    text = conn.dump_structure(inst)
    assert "circuit" in text and "block" in text and "parity" in text

import itertools
import random

import pytest

import cubictsp.connectivity as conn
import cubictsp.reductions as red
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
from cubictsp.generators import GeneratorSpec, generate, inject_forced
from cubictsp.graph import GraphError, Instance, UComponent, alive_tree, tree_labels
from cubictsp.oracles import _circuit_cycle, _disconnects, _subgraph_pieces
from cubictsp.search import solve

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
                    assert block.odd == (len(cf) % 2 == 1)


def _exact_side(inst, start, cut):
    """The vertices reached from ``start`` without crossing ``cut``, if every
    edge of ``cut`` leaves them; else None."""
    xs, stack = {start}, [start]
    while stack:
        v = stack.pop()
        for g in inst.adj[v]:
            if g in cut:
                continue
            w = inst.other_end(g, v)
            if w not in xs:
                xs.add(w)
                stack.append(w)
    if all((inst.eu[g] in xs) != (inst.ev[g] in xs) for g in cut):
        return xs
    return None


def cut_search_family(seed=3, trials=160):
    """Random cubic graphs with parallel edges and some forced edges, and
    random degree-3 multigraphs, n = 6 to 16."""
    rng = random.Random(seed)
    for trial in range(trials):
        n = rng.choice([6, 8, 10, 12, 14, 16])
        if trial % 2:
            yield random_degree3_multigraph(rng, n)
            continue
        inst = generate(
            GeneratorSpec(kind="random_cubic", n=n, seed=trial, allow_parallel=True)
        )
        for e in list(inst.alive_edges()):
            if rng.random() < 0.15:
                u, v = inst.endpoints(e)
                if inst.degrees(u)[1] < 2 and inst.degrees(v)[1] < 2:
                    inst.include_edge(e)
        yield inst


def test_label_users_match_brute_force():
    # cut pairs and circuits of every component, bridged or not, against
    # flood fills
    checked = bridged = 0
    for inst in cut_search_family():
        for comp in inst.u_components():
            if comp.trivial:
                continue
            verts, eset = sorted(comp.vertices), set(comp.edges)
            alone = {e for e in comp.edges if _disconnects(inst, verts, eset, e, e)}
            expect = [
                (a, b)
                for a, b in itertools.combinations(comp.edges, 2)
                if a not in alone and b not in alone
                and _disconnects(inst, verts, eset, a, b)
            ]
            assert two_cut_pairs(inst, comp) == expect
            if alone:
                with pytest.raises(GraphError):
                    conn.component_cut_structure(inst, comp)
                bridged += 1
                continue
            classes = {e: {e} for e in comp.edges}
            for a, b in expect:
                classes[a].add(b)
                classes[b].add(a)
            circuits = {frozenset(c.edges) for c in circuit_partition(inst, comp)}
            assert circuits == {frozenset(c) for c in classes.values()}
            checked += 1
    assert checked >= 45 and bridged >= 100


def test_bridges_from_labels_match_flood_fill():
    # the bridges of every component, bridged or not, and of the whole
    # graph when it is connected: the edges labelled 0
    bridged = 0
    for inst in cut_search_family():
        for comp in inst.u_components():
            if comp.trivial:
                continue
            verts, eset = sorted(comp.vertices), set(comp.edges)
            want = [e for e in comp.edges if _disconnects(inst, verts, eset, e, e)]
            assert conn.is_2_edge_connected(inst, comp) == (not want)
            bridged += bool(want)
        if inst.is_connected():
            verts, eset = inst.alive_vertices(), set(inst.alive_edges())
            want = [e for e in sorted(eset) if _disconnects(inst, verts, eset, e, e)]
            assert inst.bridges() == want
    assert bridged >= 100


def _brute_cut_classes(inst, comp):
    """Nontrivial circuits by flood fill: each edge that is no bridge alone
    with every such edge that disconnects the set together with it."""
    verts, eset = sorted(comp.vertices), set(comp.edges)
    alone = {e for e in comp.edges if _disconnects(inst, verts, eset, e, e)}
    rest = [e for e in comp.edges if e not in alone]
    classes = {
        tuple(f for f in rest if f == e or _disconnects(inst, verts, eset, e, f))
        for e in rest
    }
    return sorted(c for c in classes if len(c) > 1)


def _connected_edge_sets(inst):
    """Every nontrivial unforced component, and the whole alive graph when
    it is connected."""
    sets = [comp for comp in inst.u_components() if not comp.trivial]
    if inst.is_connected():
        verts = frozenset(inst.alive_vertices())
        sets.append(UComponent(verts, tuple(sorted(inst.alive_edges())), 0))
    return sets


def test_cut_classes_match_flood_fill(monkeypatch):
    # the groups of equal nonzero labels are exactly the classes, and no
    # bridge sweep is used to find them
    def no_sweep(self):
        raise AssertionError("cut_classes ran a bridge sweep")

    monkeypatch.setattr(Instance, "bridges", no_sweep)
    checked = 0
    for inst in cut_search_family():
        for comp in _connected_edge_sets(inst):
            assert conn.cut_classes(inst, comp) == _brute_cut_classes(inst, comp)
            checked += 1
    assert checked >= 250


def test_tree_labels_match_naive_cover_sets():
    # bit j is set on an edge iff it is back edge j or lies on its tree
    # path, and a label is 0 iff its edge is a bridge
    seen = {"edge sets": 0, "bridges": 0}
    for inst in cut_search_family():
        for comp in _connected_edge_sets(inst):
            tree = conn._dfs_tree(inst, comp)
            _, parent, tree_edge, _, back = tree
            want = {e: 0 for e in comp.edges}
            for j, (e, a, d) in enumerate(back):
                want[e] |= 1 << j
                x = d
                while x != a:
                    want[tree_edge[x]] |= 1 << j
                    x = parent[x]
            label = tree_labels(tree)
            assert label == want
            verts, eset = sorted(comp.vertices), set(comp.edges)
            for e in comp.edges:
                bridge = _disconnects(inst, verts, eset, e, e)
                assert (label[e] == 0) == bridge
                seen["bridges"] += bridge
            seen["edge sets"] += 1
    assert seen["edge sets"] >= 250 and seen["bridges"] >= 100


def test_whole_graph_facts_match_the_component_form():
    # the instance's memo answers for the whole graph what the memoized
    # component functions answer for the whole graph passed as a component
    checked = 0
    for inst in cut_search_family():
        if not inst.is_connected():
            continue
        whole = UComponent(frozenset(inst.alive_vertices()), tuple(inst.alive_edges()), 0)
        labels = inst.memo(conn.whole_labels)
        assert inst.memo(alive_tree) == conn._dfs_tree(inst, whole)
        assert labels == conn._cover_labels(inst, whole)
        # memoized: the same object until the next mutation
        assert inst.memo(conn.whole_labels) is labels
        checked += 1
    assert checked >= 80


def _assert_tree_side(tree, index, cut, start, xs):
    """The tree's size of ``start``'s side is |xs|, and it puts exactly xs
    on ``start``'s side; returns whether two of the cut's subtree intervals
    nest."""
    assert conn.side_size(tree, index, cut, start) == len(xs)
    assert conn.tree_side(tree, index, cut, start) == xs
    ivs, _ = conn._odd_side(tree[3], index[1], cut)
    return any(lo < end for i, (lo, _) in enumerate(ivs) for _, end in ivs[:i])


def test_cut_sides_from_the_tree_match_the_fills(monkeypatch):
    # every side that the whole graph's 3-cut search weighs while solving
    # (each pair with every forced edge, each triple from both ends of its
    # lowest edge) is a cut iff its labels XOR to 0, and then the tree gives
    # its size and the vertices of its flood fill
    seen = {"whole": 0, "nested": 0}
    found = red.find_small_cut_candidate

    def checked(inst, rejected=frozenset()):
        tree, index = inst.memo(alive_tree), inst.memo(conn.whole_tree_index)
        label = inst.memo(conn.whole_labels)
        for comp in inst.u_components():
            if comp.trivial or len(comp.edges) < 2:
                continue
            pairs2, triples3 = conn.component_cut_structure(inst, comp)
            sides = [
                (start, (e, f, g))
                for e, f, v, _ in pairs2
                for start in (min(comp.vertices), v)
                for g in inst.forced_edges()
            ]
            sides += [(start, cut) for cut in triples3 for start in inst.endpoints(cut[0])]
            for start, cut in sides:
                xs = _exact_side(inst, start, cut)
                assert (xs is not None) == (label[cut[0]] ^ label[cut[1]] ^ label[cut[2]] == 0)
                if xs is not None:
                    seen["nested"] += _assert_tree_side(tree, index, cut, start, xs)
                    seen["whole"] += 1
        return found(inst, rejected)

    monkeypatch.setattr(red, "find_small_cut_candidate", checked)
    for seed in range(60):
        n = 8 + 2 * (seed % 4)
        inst = generate(GeneratorSpec(kind="random_cubic", n=n, seed=seed, weights="random"))
        solve(inject_forced(inst, seed % 5, seed=seed))
    assert seen["whole"] >= 800 and seen["nested"] >= 1000


def test_cut_structure_rejects_a_bridge():
    # two triangles joined by an unforced bridge
    inst = build(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)])
    with pytest.raises(GraphError):
        conn.component_cut_structure(inst, inst.component_of(0))


def test_cache_shares_no_forced_edge_facts():
    # one labelled unforced 6-cycle; its forced edges sit at 0, 1 in a and
    # at 2, 3 in b, so the two disagree on every forced block boundary, but
    # their circuit partitions, which read no forced mark, are equal
    ring = [(i, (i + 1) % 6) for i in range(6)]
    a = build(8, ring + [(0, 6), (1, 7)], forced=(6, 7))
    b = build(8, ring + [(2, 6), (3, 7)], forced=(6, 7))
    comp_a, comp_b = a.component_of(0), b.component_of(0)
    (circuit,) = circuit_partition(a, comp_a)
    blocks_a = blocks_along(a, comp_a, circuit)
    assert circuit_partition(b, comp_b) == circuit_partition(a, comp_a)
    blocks_b = blocks_along(b, comp_b, circuit)
    for block in blocks_b:
        assert block.odd == (len(b.cut(block.vertices)[0]) % 2 == 1)
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
    comp = inst.component_of(0)
    assert comp.forced_ends == 6 == len(inst.cut(comp.vertices)[0])
    assert is_critical_component(inst, comp)


def test_six_cycle_with_forced_chord_is_not_critical():
    # six forced ends, but two of them on the chord: the forced boundary is
    # 4, even like the six ends, and the component is not critical
    inst = build(10, [(k, (k + 1) % 6) for k in range(6)] + [(6, 7), (7, 8), (8, 9), (9, 6)])
    inst.add_edge(0, 3, 1, forced=True)
    for u, v in ((1, 6), (2, 7), (4, 8), (5, 9)):
        inst.add_edge(u, v, 1, forced=True)
    comp = inst.component_of(0)
    assert comp.forced_ends == 6 and len(inst.cut(comp.vertices)[0]) == 4
    assert not comp.odd
    assert not is_critical_component(inst, comp)


def test_block_with_forced_chord_is_even():
    # block Z = {4..7} of the nested instance holds the forced chord 5-7 and
    # no forced edge leaves it: two forced ends, an even block
    inst = nested_block_instance()
    comp = inst.component_of(0)
    (circuit,) = [c for c in circuit_partition(inst, comp) if set(c.edges) == {5, 6}]
    (z,) = [b for b in blocks_along(inst, comp, circuit) if b.vertices == frozenset({4, 5, 6, 7})]
    assert sum(inst.fdeg[v] for v in z.vertices) == 2 and inst.cut(z.vertices)[0] == []
    assert not z.odd


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


def test_cycle_order_one_cycle():
    # vertex 0's lowest edge is 0 (to 4), so the walk runs 0, 4, 3, 2, 1
    inst = build(5, [(4, 0), (0, 1), (1, 2), (2, 3), (3, 4)])
    assert conn._cycle_order(inst, frozenset(range(5))) == [0, 4, 3, 2, 1]
    assert conn._is_cycle_shape(inst, frozenset(range(5)), 5)
    assert not conn._is_cycle_shape(inst, frozenset(range(5)), 4)


def test_cycle_order_rejects_two_cycles_and_chords():
    two = build(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert conn._cycle_order(two, frozenset(range(6))) is None
    assert conn._cycle_order(two, frozenset(range(3))) == [0, 1, 2]
    chord = build(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    assert conn._cycle_order(chord, frozenset(range(4))) is None
    # a forced chord is not an unforced edge inside the set
    chord.include_edge(4)
    assert conn._cycle_order(chord, frozenset(range(4))) == [0, 1, 2, 3]
    # a path through every vertex is no cycle
    assert conn._cycle_order(build(3, [(0, 1), (1, 2)]), frozenset(range(3))) is None


def test_cycle_order_two_cycle():
    inst = build(2, [(0, 1), (1, 0)])
    assert conn._cycle_order(inst, frozenset((0, 1))) == [0, 1]
    inst.add_edge(0, 1, 1)
    assert conn._cycle_order(inst, frozenset((0, 1))) is None


def _six_cycle_extension_by_chains(inst, verts):
    """The earlier chain walk: connected, two hubs of degree 3, and the three
    chains of degree-2 vertices leaving one hub all end at the other, with
    lengths summing to 9 and one of them 3."""
    if len(verts) != 8:
        return False
    inner = conn._edges_inside(inst, verts, False)
    if len(inner) != 9:
        return False
    deg = {v: 0 for v in verts}
    for e in inner:
        deg[inst.eu[e]] += 1
        deg[inst.ev[e]] += 1
    if sorted(deg.values()) != [2, 2, 2, 2, 2, 2, 3, 3]:
        return False
    if len(_subgraph_pieces(inst, verts, inner, set())) != 1:
        return False
    hubs = [v for v in verts if deg[v] == 3]
    adjmap = {v: [] for v in verts}
    for e in inner:
        u, v = inst.eu[e], inst.ev[e]
        adjmap[u].append((v, e))
        adjmap[v].append((u, e))
    lengths = []
    used = set()
    for w, e0 in adjmap[hubs[0]]:
        if e0 in used:
            continue
        used.add(e0)
        length = 1
        cur = w
        while deg[cur] == 2:
            step = [(x, e) for x, e in adjmap[cur] if e not in used]
            if not step:
                return False
            x, e = step[0]
            used.add(e)
            cur = x
            length += 1
        if cur != hubs[1]:
            return False
        lengths.append(length)
    return len(lengths) == 3 and 3 in lengths and sum(lengths) == 9


def test_six_cycle_extension_matches_chain_walk():
    # pairing-model multigraphs with degrees 2,2,2,2,2,2,3,3 (self-loops
    # redrawn); the counting test must answer as the chain walk does
    rng = random.Random(8)
    stubs = [v for v in range(8) for _ in range(3 if v >= 6 else 2)]
    verts = frozenset(range(8))
    seen = {True: 0, False: 0}
    while sum(seen.values()) < 3000:
        rng.shuffle(stubs)
        pairs = list(zip(stubs[::2], stubs[1::2]))
        if any(u == v for u, v in pairs):
            continue
        inst = build(8, pairs)
        got = conn._is_six_cycle_extension(inst, verts)
        assert got == _six_cycle_extension_by_chains(inst, verts), pairs
        seen[got] += 1
    assert seen[True] > 100 and seen[False] > 100


def normal_candidates(inst, comp):
    """The normal blocks of a component as ``(circuit, i, block)``, in
    circuit-partition order and then block order."""
    return [
        (circuit, i, block)
        for circuit in circuit_partition(inst, comp)
        if not circuit.trivial
        for i, block in enumerate(blocks_along(inst, comp, circuit))
        if classify_block(inst, block) == NORMAL
    ]


def test_minimal_normal_block_on_nested_structure():
    # the five-vertex block of the chain-2 instance nests further normal
    # pieces, so the fallback pool applies; the pick is still deterministic
    inst = chain2_instance()
    comp = inst.component_of(0)
    circuit, i, block = find_minimal_normal_block(inst, normal_candidates(inst, comp))
    assert classify_block(inst, block) == NORMAL
    assert blocks_along(inst, comp, circuit)[i] == block
    again = find_minimal_normal_block(inst, normal_candidates(inst, comp))
    assert again[2].vertices == block.vertices


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
    circuit, _, block = find_minimal_normal_block(inst, normal_candidates(inst, comp))
    assert classify_block(inst, block) == NORMAL
    assert not conn._has_normal_subblock(inst, block.vertices)
    assert block.vertices == frozenset({0, 1, 2, 3})
    assert set(circuit.edges) == {0, 1}


def test_find_minimal_normal_block_errors_when_all_trivial():
    inst = six_cycle_with_pendants()
    candidates = normal_candidates(inst, inst.component_of(0))
    assert candidates == []
    with pytest.raises(GraphError):
        find_minimal_normal_block(inst, candidates)


def test_dump_structure_mentions_circuits():
    inst = six_cycle_with_pendants()
    text = conn.dump_structure(inst)
    assert "circuit" in text and "block" in text and "parity" in text


def _pairs2_by_flood_fill(inst, comp):
    out = []
    for e, f in two_cut_pairs(inst, comp):
        pieces = _subgraph_pieces(inst, comp.vertices, comp.edges, {e, f})
        if len(pieces) == 2:
            out.append((e, f, pieces[0], pieces[1]))
    return out


def test_tree_slices_match_flood_fill_reference():
    rng = random.Random(11)
    seen = {"two_edge": 0, "longer": 0, "degree2": 0, "parallel": 0, "pairs2": 0}
    for trial in range(300):
        n = rng.choice([6, 8, 10, 14, 18, 24])
        if trial % 2:
            inst = random_degree3_multigraph(rng, n)
        else:
            inst = generate(GeneratorSpec(kind="random_cubic", n=n, seed=trial))
            for e in list(inst.alive_edges()):
                if rng.random() < 0.15:
                    u, v = inst.endpoints(e)
                    if inst.degrees(u)[1] < 2 and inst.degrees(v)[1] < 2:
                        inst.include_edge(e)
        for comp in inst.u_components():
            if comp.trivial:
                continue
            if any(inst.degrees(v)[2] == 2 for v in comp.vertices):
                seen["degree2"] += 1
            if len({frozenset(inst.endpoints(e)) for e in comp.edges}) < len(comp.edges):
                seen["parallel"] += 1
            # (e, f, v, k): v lies in the piece without the lowest vertex,
            # and k is that piece's size
            pairs2 = conn.component_pairs2(inst, comp)
            want = _pairs2_by_flood_fill(inst, comp)
            assert [p[:2] for p in pairs2] == [w[:2] for w in want]
            for (_, _, v, k), (_, _, low_side, far_side) in zip(pairs2, want):
                assert min(comp.vertices) in low_side
                assert v in far_side and k == len(far_side)
            seen["pairs2"] += len(pairs2)
            if not is_2_edge_connected(inst, comp):
                continue
            for circuit in circuit_partition(inst, comp):
                if circuit.trivial:
                    continue
                order, pieces = _circuit_cycle(inst, comp, circuit.edges)
                assert circuit.edges == order
                blocks = blocks_along(inst, comp, circuit)
                assert [b.vertices for b in blocks] == pieces
                for block in blocks:
                    assert block.odd == (len(inst.cut(block.vertices)[0]) % 2 == 1)
                seen["two_edge" if len(order) == 2 else "longer"] += 1
    assert seen["two_edge"] >= 100 and seen["longer"] >= 40
    assert seen["degree2"] >= 30 and seen["parallel"] >= 10 and seen["pairs2"] >= 300


def nested_block_instance():
    """Two 4-vertex normal blocks on one 2-edge circuit: X = {0..3} is K4
    minus an edge, which nests the normal block {0, 1, 3}; Z = {4..7} is a
    4-cycle with a forced chord, which nests none.  X sorts first."""
    return build(
        8,
        [
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3),  # X
            (2, 4), (3, 6),  # the circuit
            (4, 5), (5, 6), (6, 7), (7, 4), (5, 7),  # Z and its chord
        ],
        forced=(11,),
    )


def _eager_minimal_normal_block(inst, comp):
    """Filter every normal candidate, then sort; None without candidates."""
    candidates = normal_candidates(inst, comp)
    minimal = [c for c in candidates if not conn._has_normal_subblock(inst, c[2].vertices)]
    pool = minimal if minimal else candidates
    pool.sort(key=lambda c: (len(c[2].vertices), tuple(sorted(c[2].vertices))))
    return pool[0] if pool else None


def _has_normal_subblock_by_partition(inst, verts):
    """``_has_normal_subblock`` from the standalone piece's whole circuit
    partition and blocks, kept as its reference."""
    sub = conn._standalone_component(inst, verts)
    if sub.trivial or len(sub.vertices) < 2:
        return False
    for circuit in circuit_partition(inst, sub):
        if circuit.trivial:
            continue
        for block in blocks_along(inst, sub, circuit):
            if block.vertices == verts:
                continue
            if len(block.vertices) == 1:
                continue
            if conn._is_two_pendent_critical(inst, block.vertices):
                continue
            return True
    return False


def critical_inner_block_instance():
    """Two normal blocks on the circuit {23, 24}: {0..8} and {9..19}.  In
    the standalone piece of each, the circuit of lowest edge ids is a path
    of single-vertex blocks closed by one two-pendent critical block: the
    6-cycle {0..5} in the first, the 6-cycle extension {9..16} (hubs 9 and
    11, pair 15-16) in the second."""
    inst = build(
        20,
        [
            (0, 6), (6, 7), (7, 8), (8, 3),  # path around the 6-cycle
            (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0),
            (15, 17), (17, 18), (18, 19), (19, 16),  # path around the extension
            (9, 10), (10, 11), (11, 12), (12, 13), (13, 14), (14, 9),
            (15, 16), (15, 9), (16, 11),
            (6, 17), (8, 19),  # the circuit
        ],
    )
    for u, v in ((1, 10), (2, 12), (4, 13), (5, 14), (7, 18)):
        inst.add_edge(u, v, 1, forced=True)
    return inst


def test_nested_block_test_matches_circuit_partition(monkeypatch):
    # on every normal block of the test families, and on every candidate the
    # search meets in forced n = 80 solves, the slice-size test must answer
    # as the whole partition does, also where it skips critical blocks
    seen = {True: 0, False: 0, 6: 0, 8: 0}
    tested = []  # (size, result) of each two-pendent critical test
    real_test, real_critical = conn._has_normal_subblock, conn._is_two_pendent_critical

    def critical(inst, verts):
        out = real_critical(inst, verts)
        tested.append((len(verts), out))
        return out

    def check(inst, verts):
        tested.clear()
        got = real_test(inst, verts)
        for size, out in tested:
            seen[size] += out
        assert got == _has_normal_subblock_by_partition(inst, verts)
        seen[got] += 1
        return got

    monkeypatch.setattr(conn, "_is_two_pendent_critical", critical)
    for inst in [critical_inner_block_instance(), *cut_search_family()]:
        for comp in inst.u_components():
            if comp.trivial or not is_2_edge_connected(inst, comp):
                continue
            for circuit in circuit_partition(inst, comp):
                if circuit.trivial:
                    continue
                for block in blocks_along(inst, comp, circuit):
                    if classify_block(inst, block) == NORMAL:
                        check(inst, block.vertices)
    in_family = seen[True] + seen[False]
    monkeypatch.setattr(conn, "_has_normal_subblock", check)
    for seed in range(8):
        base = generate(GeneratorSpec(kind="random_cubic", n=80, seed=seed, weights="random"))
        solve(inject_forced(base, 20, seed=seed))
    assert in_family >= 100 and seen[True] + seen[False] - in_family >= 200
    assert seen[False] >= 20
    assert seen[6] >= 1 and seen[8] >= 1


def test_minimal_normal_block_matches_eager_rule():
    inst = nested_block_instance()
    comp = inst.component_of(0)
    circuit, i, block = find_minimal_normal_block(inst, normal_candidates(inst, comp))
    assert block.vertices == frozenset({4, 5, 6, 7}) and set(circuit.edges) == {5, 6}
    assert conn._has_normal_subblock(inst, frozenset({0, 1, 2, 3}))
    assert (circuit, i, block) == _eager_minimal_normal_block(inst, comp)

    rng = random.Random(7)
    seen = {"minimal": 0, "all_nested": 0}
    for trial in range(200):
        n = rng.choice([12, 16, 20, 24])
        inst = generate(GeneratorSpec(kind="random_cubic", n=n, seed=500 + trial))
        for e in list(inst.alive_edges()):
            if rng.random() < 0.15:
                u, v = inst.endpoints(e)
                if inst.degrees(u)[1] < 2 and inst.degrees(v)[1] < 2:
                    inst.include_edge(e)
        for comp in inst.u_components():
            if comp.trivial or not is_2_edge_connected(inst, comp):
                continue
            want = _eager_minimal_normal_block(inst, comp)
            candidates = normal_candidates(inst, comp)
            if want is None:
                with pytest.raises(GraphError):
                    find_minimal_normal_block(inst, candidates)
                continue
            assert find_minimal_normal_block(inst, candidates) == want
            nested = conn._has_normal_subblock(inst, want[2].vertices)
            seen["all_nested" if nested else "minimal"] += 1
    assert seen["minimal"] >= 20 and seen["all_nested"] >= 20

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import cubictsp.connectivity as conn
import cubictsp.reductions as red
from cubictsp.graph import (
    GraphError,
    Instance,
    dfs_tree,
    edge_lists,
    format_instance,
    parse_instance,
)
from cubictsp.generators import GeneratorSpec, generate
from cubictsp.oracles import _disconnects, _subgraph_pieces

from conftest import build, cycle_instance, random_degree3_multigraph


def test_cut_single_vertex_of_cycle():
    inst = cycle_instance(6)
    cf, cu = inst.cut({0})
    assert cf == [] and len(cu) == 2


def test_cut_two_adjacent_vertices_of_k4():
    inst = generate(GeneratorSpec(kind="named", name="k4"))
    cf, cu = inst.cut({0, 1})
    assert len(cf) + len(cu) == 4


def test_cut_rejects_empty_and_full():
    inst = cycle_instance(4)
    with pytest.raises(GraphError):
        inst.cut(set())
    with pytest.raises(GraphError):
        inst.cut({0, 1, 2, 3})


def test_cut_properness_ignores_dead_vertices():
    # 6-cycle whose vertex 5 is cut out: 0..4 become a path, 5 is dead
    inst = cycle_instance(6)
    inst.delete_edge(4)
    inst.delete_edge(5)
    inst.remove_vertex(5)
    for xs in ({0, 1, 2, 3, 4}, {0, 1, 2, 3, 4, 5}):
        with pytest.raises(GraphError, match="proper"):
            inst.cut(xs)
    assert inst.cut({0, 1, 2, 3}) == ([], [3])
    assert inst.cut({0, 1, 2, 3, 5}) == ([], [3])
    inst.include_edge(0)
    assert inst.cut({1, 2, 3, 4}) == ([0], [])


def test_degrees_fresh_cubic_and_forced():
    inst = generate(GeneratorSpec(kind="named", name="k4"))
    assert inst.degrees(0) == (3, 0, 3)
    inst.include_edge(0)
    assert inst.degrees(0) == (3, 1, 2)


def test_degrees_count_parallel_edges():
    inst = build(2, [(0, 1), (0, 1), (0, 1)])
    assert inst.degrees(0) == (3, 0, 3)


def test_u_components_whole_graph_when_nothing_forced():
    inst = generate(GeneratorSpec(kind="named", name="petersen"))
    comps = inst.u_components()
    assert len(comps) == 1
    assert len(comps[0].vertices) == 10
    assert not comps[0].odd


def test_u_components_all_forced_gives_trivial_components():
    inst = cycle_instance(5)
    for e in list(inst.alive_edges()):
        inst.include_edge(e)
    comps = inst.u_components()
    assert len(comps) == 5
    assert all(c.trivial for c in comps)


def test_u_components_partition_property(rng):
    for _ in range(30):
        inst = random_degree3_multigraph(rng, rng.randint(4, 12))
        for e in inst.alive_edges():
            if rng.random() < 0.3:
                u, v = inst.endpoints(e)
                if inst.degrees(u)[1] < 2 and inst.degrees(v)[1] < 2:
                    inst.include_edge(e)
        comps = inst.u_components()
        seen = set()
        for comp in comps:
            assert not (comp.vertices & seen)
            seen |= comp.vertices
        assert seen == set(inst.alive_vertices())


def test_u_components_are_the_unforced_pieces_and_hold_their_trees():
    # each component is a flood-fill piece of the unforced edges, with its
    # edges and forced edge ends; a nontrivial one holds the tree walked
    # from its lowest vertex over its edges by ascending id
    rng = random.Random(21)
    seen = {"nontrivial": 0, "trivial": 0, "parallel": 0, "tombstoned": 0}
    for trial in range(200):
        if trial % 2:
            inst = random_degree3_multigraph(rng, rng.randint(2, 14))
        else:
            n = rng.choice([4, 6, 8, 10, 12, 14])
            spec = GeneratorSpec(kind="random_cubic", n=n, seed=trial, allow_parallel=True)
            inst = generate(spec)
        for e in inst.alive_edges():
            if rng.random() < 0.1:
                inst.delete_edge(e)
            elif rng.random() < 0.25:
                u, v = inst.endpoints(e)
                if inst.degrees(u)[1] < 2 and inst.degrees(v)[1] < 2:
                    inst.include_edge(e)
        bare = [v for v in inst.alive_vertices() if not inst.adj[v]]
        if bare and inst.n_alive() > 2:
            inst.remove_vertex(bare[0])
            seen["tombstoned"] += 1
        unforced = [e for e in inst.alive_edges() if not inst.eforced[e]]
        forced_ends = [x for e in inst.forced_edges() for x in inst.endpoints(e)]
        comps = inst.u_components()
        assert [c.vertices for c in comps] == _subgraph_pieces(
            inst, inst.alive_vertices(), unforced, ()
        )
        for comp in comps:
            assert comp.edges == tuple(e for e in unforced if inst.eu[e] in comp.vertices)
            assert comp.forced_ends == sum(x in comp.vertices for x in forced_ends)
            if comp.trivial:
                seen["trivial"] += 1
                continue
            nbr = edge_lists(inst, comp.vertices, comp.edges)
            assert comp.facts["tree"] == dfs_tree(inst, min(comp.vertices), nbr)
            assert conn._dfs_tree(inst, comp) is comp.facts["tree"]
            seen["nontrivial"] += 1
            pairs = [frozenset(inst.endpoints(e)) for e in comp.edges]
            seen["parallel"] += len(set(pairs)) < len(pairs)
    assert min(seen.values()) >= 30, seen


def test_cut_complement_symmetry(rng):
    for _ in range(30):
        inst = random_degree3_multigraph(rng, rng.randint(4, 10))
        verts = inst.alive_vertices()
        if len(verts) < 3:
            continue
        k = rng.randint(1, len(verts) - 1)
        xs = set(rng.sample(verts, k))
        cf1, cu1 = inst.cut(xs)
        cf2, cu2 = inst.cut(set(verts) - xs)
        assert cf1 == cf2 and cu1 == cu2


def test_no_self_loops():
    inst = Instance()
    inst.add_vertex()
    with pytest.raises(GraphError):
        inst.add_edge(0, 0, 1)


def test_copy_is_independent():
    inst = cycle_instance(4)
    other = inst.copy()
    other.include_edge(0)
    assert not inst.eforced[0]
    other.delete_edge(1)
    assert inst.ealive[1]


# -- text format -------------------------------------------------------------


SAMPLE = """c tiny square
p ftsp 4 4
e 1 2 1
e 2 3 3/2
e 3 4 1 F
e 4 1 2
"""


def test_parse_sample():
    inst = parse_instance(SAMPLE)
    assert inst.n_alive() == 4
    assert inst.ew[1] == Fraction(3, 2)
    assert inst.eforced[2]


def test_roundtrip_sample():
    inst = parse_instance(SAMPLE)
    again = parse_instance(format_instance(inst))
    def key(i):
        out = []
        for e in i.alive_edges():
            u, v = sorted(i.endpoints(e))
            out.append((u, v, i.ew[e], i.eforced[e]))
        return sorted(out)
    assert key(inst) == key(again)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_roundtrip_random_instances(seed):
    inst = generate(
        GeneratorSpec(kind="random_cubic", n=8, seed=seed, weights="random")
    )
    again = parse_instance(format_instance(inst))
    def key(i):
        out = []
        for e in i.alive_edges():
            u, v = sorted(i.endpoints(e))
            out.append((u, v, i.ew[e], i.eforced[e]))
        return sorted(out)
    assert key(inst) == key(again)


@pytest.mark.parametrize(
    "text, message",
    [
        ("p ftsp 2 1\np ftsp 2 1\ne 1 2 1\n", "duplicate"),
        ("p ftsp 2 1\ne 1 1 1\n", "self-loop"),
        ("p ftsp 2 2\ne 1 2 1\n", "declares"),
        ("e 1 2 1\n", "before p"),
        ("p ftsp 4 5\ne 1 2 1\ne 1 2 1\ne 1 2 1\ne 1 3 1\ne 3 4 1\n", "degree"),
        ("p ftsp 2 1\ne 1 2 1 X\n", "must be F"),
    ],
)
def test_parser_rejects(text, message):
    with pytest.raises(GraphError, match=message):
        parse_instance(text)


def test_bridges_on_known_graphs():
    # two triangles joined by one edge: exactly that edge is a bridge
    inst = build(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)])
    assert inst.bridges() == [6]
    assert not generate(GeneratorSpec(kind="named", name="petersen")).bridges()


def test_is_tour_detects_hamiltonian_cycles():
    inst = cycle_instance(5)
    assert inst.is_tour(inst.alive_edges())
    assert not inst.is_tour(inst.alive_edges()[:-1])


def test_parser_makes_no_vertex_its_edges_cannot_cover(vertex_budget):
    # every vertex needs two edge ends, so a p line with more vertices than
    # edges is rejected before any vertex is made
    with pytest.raises(GraphError, match="declares 2000000 vertices but only 0 edges"):
        parse_instance("p ftsp 2000000 0\n")
    # the edge count is still checked first
    with pytest.raises(GraphError, match="declares 2000000 edges, found 0"):
        parse_instance("p ftsp 2000000 2000000\n")
    with pytest.raises(GraphError, match="declares 3 vertices but only 2 edges"):
        parse_instance("p ftsp 3 2\ne 1 2 1\ne 2 3 1\n")
    assert vertex_budget == [0]
    assert parse_instance("p ftsp 2 2\ne 1 2 1\ne 1 2 1\n").n_alive() == 2


def _whole_graph_bridges_by_flood_fill(inst):
    verts, eset = inst.alive_vertices(), set(inst.alive_edges())
    return [e for e in sorted(eset) if _disconnects(inst, verts, eset, e, e)]


def test_whole_graph_connectivity_and_bridges_match_flood_fill():
    rng = random.Random(12)
    kinds = {"disconnected": 0, "bridged": 0, "bridgeless": 0, "parallel": 0}
    for trial in range(400):
        if trial % 3:
            inst = random_degree3_multigraph(rng, rng.randint(2, 14))
        else:
            n = rng.choice([4, 6, 8, 10, 12, 14])
            spec = GeneratorSpec(kind="random_cubic", n=n, seed=trial, allow_parallel=True)
            inst = generate(spec)
        # tombstoned slots: drop a few edges, and a vertex left bare
        for e in inst.alive_edges():
            if rng.random() < 0.1:
                inst.delete_edge(e)
        bare = [v for v in inst.alive_vertices() if not inst.adj[v]]
        if bare and inst.n_alive() > 2 and rng.random() < 0.5:
            inst.remove_vertex(bare[0])
        verts = inst.alive_vertices()
        pieces = _subgraph_pieces(inst, verts, inst.alive_edges(), ())
        assert inst.is_connected() == (len(pieces) == 1)
        ends = [tuple(sorted(inst.endpoints(e))) for e in inst.alive_edges()]
        kinds["parallel"] += len(set(ends)) < len(ends)
        if len(pieces) > 1:
            kinds["disconnected"] += 1
            with pytest.raises(GraphError):
                inst.bridges()
            assert not inst.is_2_edge_connected_graph()
            continue
        want = _whole_graph_bridges_by_flood_fill(inst)
        assert inst.bridges() == want
        assert inst.is_2_edge_connected_graph() == (not want)
        kinds["bridged" if want else "bridgeless"] += 1
    assert min(kinds.values()) >= 30, kinds


def _fill_memo(inst):
    """Ask every memoized question once."""
    inst.u_components()
    inst.is_connected()
    inst.memo(conn.whole_labels)
    inst.memo(conn.whole_tree_index)
    inst.memo(red._forced_cycle_scan)


def _assert_memo_is_fresh(inst):
    _fill_memo(inst)
    fresh = inst.copy()
    assert not fresh._memo
    _fill_memo(fresh)
    assert list(inst._memo) == list(fresh._memo)
    for fact in inst._memo:
        assert inst.memo(fact) == fresh.memo(fact), fact.__name__


def test_every_mutation_forgets_the_memo():
    rng = random.Random(5)
    for trial in range(30):
        inst = generate(
            GeneratorSpec(kind="random_cubic", n=rng.choice([8, 10, 12]), seed=trial)
        )
        for e in rng.sample(inst.alive_edges(), 3):
            u, v = inst.endpoints(e)
            if inst.degrees(u)[1] < 2 and inst.degrees(v)[1] < 2:
                inst.include_edge(e)
        _assert_memo_is_fresh(inst)
        unforced = [e for e in inst.alive_edges() if not inst.eforced[e]]
        inst.include_edge(rng.choice(unforced))
        _assert_memo_is_fresh(inst)
        inst.delete_edge(rng.choice(inst.alive_edges()))
        _assert_memo_is_fresh(inst)
        u, v = rng.sample(inst.alive_vertices(), 2)
        inst.add_edge(u, v, 1, forced=rng.random() < 0.5)
        _assert_memo_is_fresh(inst)
        x = inst.add_vertex()
        _assert_memo_is_fresh(inst)
        inst.remove_vertex(x)
        _assert_memo_is_fresh(inst)


def test_forced_degrees_match_a_recount_after_every_mutation():
    # ``degrees`` reads counters that every mutation must keep current, on
    # an instance and on its copies, each mutated on its own afterwards
    rng = random.Random(11)
    done = {"forced add": 0, "include": 0, "forced delete": 0, "remove": 0, "copy": 0}
    for trial in range(40):
        insts = [cycle_instance(6)]
        for step in range(80):
            inst = rng.choice(insts)
            verts, live = inst.alive_vertices(), inst.alive_edges()
            op = rng.randrange(6)
            if op == 0:
                inst.add_vertex()
            elif op == 1 and len(verts) >= 2:
                u, v = rng.sample(verts, 2)
                forced = rng.random() < 0.5
                inst.add_edge(u, v, 1, forced=forced)
                done["forced add"] += forced
            elif op == 2 and any(not inst.eforced[e] for e in live):
                inst.include_edge(rng.choice([e for e in live if not inst.eforced[e]]))
                done["include"] += 1
            elif op == 3 and live:
                e = rng.choice(live)
                done["forced delete"] += inst.eforced[e]
                inst.delete_edge(e)
            elif op == 4 and any(not inst.adj[v] for v in verts):
                inst.remove_vertex(rng.choice([v for v in verts if not inst.adj[v]]))
                done["remove"] += 1
            elif op == 5 and len(insts) < 4:
                insts.append(inst.copy())
                done["copy"] += 1
            for other in insts:
                for v in other.alive_vertices():
                    d = len(other.adj[v])
                    df = sum(1 for e in other.adj[v] if other.eforced[e])
                    assert other.degrees(v) == (d, df, d - df)
    assert min(done.values()) >= 100


def test_mutations_record_the_vertices_they_touch():
    # until the first rest every alive vertex is pending, and a parsed
    # instance stores no record at all
    inst = cycle_instance(6)
    assert inst.pending() == inst.alive_vertices()
    parsed = parse_instance(format_instance(inst))
    assert parsed._pending is None and parsed.pending() == list(range(6))
    # after a rest, each mutation records exactly the vertices it touches
    inst.rest()
    assert inst.pending() == []
    x = inst.add_vertex()
    assert inst._pending == {x}
    inst.rest()
    e = inst.add_edge(x, 4, 1)
    assert inst._pending == {x, 4}
    inst.rest()
    inst.include_edge(e)
    assert inst._pending == {x, 4}
    inst.rest()
    inst.delete_edge(2)  # between 2 and 3
    assert inst._pending == {2, 3}
    inst.rest()
    inst.delete_edge(e)
    inst.rest()
    inst.remove_vertex(x)
    assert inst._pending == {x} and inst.pending() == []
    # a copy's record is its own, and so is a copy of no record
    inst.rest()
    other = inst.copy()
    other.include_edge(0)
    inst.delete_edge(4)
    assert other.pending() == [0, 1] and inst.pending() == [4, 5]
    assert parsed.copy()._pending is None


def _is_tour_by_degrees(inst, edge_ids):
    """Reference: every alive vertex has degree 2 in the edge set, which
    holds every forced edge, and one flood fill reaches every vertex."""
    eids = set(edge_ids)
    verts = inst.alive_vertices()
    deg = {v: 0 for v in verts}
    for e in eids:
        if not inst.ealive[e]:
            return False
        deg[inst.eu[e]] += 1
        deg[inst.ev[e]] += 1
    if any(d != 2 for d in deg.values()) or not set(inst.forced_edges()) <= eids:
        return False
    return len(_subgraph_pieces(inst, verts, eids, ())) == 1


def test_is_tour_matches_degree_reference():
    rng = random.Random(7)
    tours = others = 0
    for trial in range(120):
        if trial % 2:
            inst = random_degree3_multigraph(rng, rng.randint(2, 8))
        else:
            n = rng.choice([4, 6, 8])
            spec = GeneratorSpec(kind="random_cubic", n=n, seed=trial, allow_parallel=True)
            inst = generate(spec)
        for e in inst.alive_edges():
            u, v = inst.endpoints(e)
            if rng.random() < 0.15 and inst.degrees(u)[1] < 2 and inst.degrees(v)[1] < 2:
                inst.include_edge(e)
        dead = inst.alive_edges()[-1]
        inst.delete_edge(dead)
        n = inst.n_alive()
        for k in (n - 1, n, n + 1):
            for eids in itertools.combinations(inst.alive_edges(), k):
                want = _is_tour_by_degrees(inst, eids)
                assert inst.is_tour(eids) == want, (inst.eu, inst.ev, eids)
                tours += want
                others += not want
        assert not inst.is_tour(inst.alive_edges() + [dead])
    assert tours >= 50 and others >= 1000

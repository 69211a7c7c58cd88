import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cubictsp.graph import GraphError, Instance, format_instance, parse_instance
from cubictsp.generators import GeneratorSpec, generate

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

import random
from collections import Counter
from fractions import Fraction

import pytest

from cubictsp.analysis import MeasureAudit
from cubictsp.generators import GeneratorSpec, generate, inject_forced
from cubictsp.graph import GraphError, parse_instance
from cubictsp.oracles import EXHAUSTIVE_LIMIT, HELD_KARP_LIMIT, exhaustive_forced, held_karp
from cubictsp.search import solve

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


# -- zero and negative weights ---------------------------------------------------

# each pruned a partial solution on its cost alone, which only bounds its
# completions when no weight is negative, or overflowed int64
SIGNED_REGRESSIONS = [
    # a 3-cut rewrite's internal paths, -16/3 with the cost prune
    (
        "p ftsp 8 12\ne 4 6 -1\ne 2 5 -5\ne 1 2 -5/2\ne 1 6 6\ne 3 5 4/3\n"
        "e 4 7 -2/3\ne 3 8 -2\ne 5 7 4/3 F\ne 3 6 -1/2\ne 4 8 -2\ne 2 7 6\n"
        "e 1 8 4\n",
        Fraction(-19, 3),
    ),
    # the exhaustive oracle's walk, -1 with the cost prune
    ("p ftsp 2 3\ne 1 2 0\ne 1 2 -1 F\ne 1 2 -1\n", Fraction(-2)),
    # K4 whose 4-cycle weighs -4e18 an edge: the int64 table wrapped
    (
        "p ftsp 4 6\ne 1 2 -4000000000000000000\ne 2 3 -4000000000000000000\n"
        "e 3 4 -4000000000000000000\ne 4 1 -4000000000000000000\ne 1 3 1\n"
        "e 2 4 1\n",
        Fraction(-16 * 10**18),
    ),
]


@pytest.mark.parametrize(
    "text, want", SIGNED_REGRESSIONS, ids=["three-cut-paths", "exhaustive-walk", "held-karp-int64"]
)
def test_signed_weight_regressions(text, want):
    inst = parse_instance(text)
    answers = [solve(inst), exhaustive_forced(inst)]
    if not inst.forced_edges():
        answers.append(held_karp(inst))
    for got in answers:
        assert got.optimal and got.cost == want
        assert inst.is_tour(got.edges) and inst.tour_cost(got.edges) == want


def test_held_karp_never_uses_a_missing_edge_under_negative_weights():
    # no Hamiltonian cycle: a bridge, and the Petersen graph
    triangles = [(0, 1, -1), (1, 2, -1), (2, 0, -1), (3, 4, -1), (4, 5, -1), (5, 3, -1)]
    bridged = build(6, triangles + [(0, 3, -1)])
    petersen = generate(GeneratorSpec(kind="named", name="petersen"))
    negated = build(10, [(*petersen.endpoints(e), -1) for e in petersen.alive_edges()])
    for inst in (bridged, negated):
        assert held_karp(inst).status == "infeasible"


def _signed_cubic(seed):
    """A random cubic graph, n = 8 to 12, with weights in [-6, 6] over
    denominators 1 to 3, zero included, and 0 to 4 forced edges."""
    rng = random.Random(seed)
    base = generate(GeneratorSpec(kind="random_cubic", n=rng.choice([8, 10, 12]), seed=seed))
    edges = [
        (*base.endpoints(e), Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
        for e in base.alive_edges()
    ]
    return inject_forced(build(base.n_alive(), edges), rng.randint(0, 4), seed=seed)


def test_solver_matches_oracles_with_zero_and_negative_weights():
    seen = {"forced": 0, "unforced": 0, "infeasible": 0}
    for seed in range(160):
        inst = _signed_cubic(seed)
        got = solve(inst)
        want = exhaustive_forced(inst)
        assert got.status == want.status, seed
        if inst.forced_edges():
            seen["forced"] += 1
        else:
            dp = held_karp(inst)
            assert (dp.status, dp.cost) == (want.status, want.cost), seed
            seen["unforced"] += 1
        if not want.optimal:
            seen["infeasible"] += 1
            continue
        assert got.cost == want.cost, seed
        assert inst.is_tour(got.edges) and inst.tour_cost(got.edges) == got.cost
    assert seen["forced"] >= 100 and seen["unforced"] >= 20 and seen["infeasible"] >= 5, seen


def _unusual_shape(seed):
    """A multigraph of a kind the generators never emit: n = 2 to 10,
    degrees 3 and, for about one vertex in four, 2, matched by a random
    pairing of stubs drawn again until it makes no loop, with parallel
    edges kept; weights in [-6, 9] over denominators 1 to 4, zero included;
    and 0 to 3 forced edges, so a parallel bundle may mix forced and
    unforced copies.  About one in thirty is not connected."""
    rng = random.Random(seed)
    n = rng.randint(2, 10)
    degrees = [rng.choice((2, 3, 3, 3)) for _ in range(n)]
    if sum(degrees) % 2:
        degrees[0] = 5 - degrees[0]
    stubs = [v for v, d in enumerate(degrees) for _ in range(d)]
    pairs = [(0, 0)]
    while any(u == v for u, v in pairs):
        rng.shuffle(stubs)
        pairs = list(zip(stubs[::2], stubs[1::2]))
    inst = build(n, [(u, v, Fraction(rng.randint(-6, 9), rng.randint(1, 4))) for u, v in pairs])
    for e in rng.sample(range(len(pairs)), min(len(pairs), rng.randint(0, 3))):
        u, v = inst.endpoints(e)
        if inst.fdeg[u] < 2 and inst.fdeg[v] < 2:
            inst.include_edge(e)
    return inst


def _mixed_bundle(inst):
    ends = {}
    for e in inst.alive_edges():
        ends.setdefault(frozenset(inst.endpoints(e)), set()).add(inst.eforced[e])
    return any(len(marks) == 2 for marks in ends.values())


def test_solver_matches_exhaustive_on_unusual_shapes():
    seen = Counter()
    for seed in range(3000):
        inst = _unusual_shape(seed)
        got = solve(inst)
        want = exhaustive_forced(inst)
        assert got.status == want.status, seed
        if want.optimal:
            assert got.cost == want.cost, seed
            assert inst.is_tour(got.edges) and inst.tour_cost(got.edges) == got.cost
        solve(inst, audit=MeasureAudit())  # raises on a measure violation
        seen["optimal" if want.optimal else "infeasible"] += 1
        seen["degree 2"] += any(len(inst.adj[v]) == 2 for v in inst.alive_vertices())
        seen["mixed bundle"] += _mixed_bundle(inst)
        seen["negative"] += any(w < 0 for w in inst.ew)
        seen["forced"] += bool(inst.forced_edges())
        seen["disconnected"] += not inst.is_connected()
        seen["n <= 3"] += inst.n_alive() <= 3
    assert min(seen.values()) >= 50 and len(seen) == 8, seen

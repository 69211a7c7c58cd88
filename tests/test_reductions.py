import itertools
import random
from fractions import Fraction

import pytest

import cubictsp.reductions as red
from cubictsp.analysis import DEFAULT_CONFIG, measure
from cubictsp.generators import GeneratorSpec, generate, inject_forced
from cubictsp.graph import GraphError, Instance
from cubictsp.oracles import exhaustive_forced, replay
from cubictsp.reductions import (
    ReductionLog,
    check_feasibility,
    determine_eliminable,
    expand_solution,
    find_reducible_edge,
    find_small_cut_candidate,
    is_4cut_reducible,
    reduce_3cut,
    reduce_4cut,
    reduce_parallel,
    reduce_to_fixpoint,
    solve_internal_paths,
)
from cubictsp.search import solve

from conftest import build, cycle_instance, six_cycle_with_pendants


# -- feasibility ----------------------------------------------------------------


def test_bridge_graph_is_infeasible():
    inst = build(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    inst.add_edge(0, 3, 1)
    feas = check_feasibility(inst)
    assert feas.infeasible and feas.witness == "not_2ec"


def test_odd_component_is_infeasible():
    # a component with three forced boundary edges cannot be toured
    inst = build(
        12,
        [(0, 1), (1, 2), (2, 0)]
        + [(3 + i, 3 + (i + 1) % 9) for i in range(9)],
    )
    inst.add_edge(0, 3, 1, forced=True)
    inst.add_edge(1, 5, 1, forced=True)
    inst.add_edge(2, 7, 1, forced=True)
    feas = check_feasibility(inst)
    assert feas.infeasible and feas.witness == "odd_component"


def test_degree_deficit_detected():
    inst = build(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    inst.delete_edge(0)
    feas = check_feasibility(inst)
    assert feas.infeasible and feas.witness == "degree_deficit"


def test_forced_subcycle_detected():
    # forced triangle inside a larger graph: no tour can use all of it
    inst = generate(GeneratorSpec(kind="named", name="prism"))
    for e in list(inst.alive_edges()):
        u, v = inst.endpoints(e)
        if {u, v} <= {0, 1, 2}:
            inst.include_edge(e)
    feas = check_feasibility(inst)
    assert feas.infeasible and feas.witness == "forced_subcycle"


def test_feasible_unknown_on_clean_instance():
    assert not check_feasibility(six_cycle_with_pendants()).infeasible


# -- eliminable edges -------------------------------------------------------------


def eliminable_fixture(boundary_forced):
    """Unforced bridge between two 5-cycles, plus ``boundary_forced`` forced
    edges from the left piece outward."""
    inst = Instance()
    for _ in range(10 + boundary_forced):
        inst.add_vertex()
    for i in range(5):
        inst.add_edge(i, (i + 1) % 5, 1)
        inst.add_edge(5 + i, 5 + (i + 1) % 5, 1)
    bridge = inst.add_edge(0, 5, 1)
    for k in range(boundary_forced):
        inst.add_edge(1 + k, 10 + k, 1, forced=True)
    return inst, bridge


def test_determine_eliminable_odd_includes():
    inst, bridge = eliminable_fixture(1)
    assert determine_eliminable(inst, set(range(5))) == "include"


def test_determine_eliminable_even_deletes():
    inst, bridge = eliminable_fixture(2)
    assert determine_eliminable(inst, set(range(5))) == "delete"


def test_determine_eliminable_requires_one_pendent():
    inst = cycle_instance(6)
    with pytest.raises(GraphError):
        determine_eliminable(inst, {0, 1})


# -- parallel edges ---------------------------------------------------------------


def test_two_vertices_three_parallel_edges():
    inst = build(2, [(0, 1, 1), (0, 1, 2), (0, 1, 3)])
    _, _, outcome = reduce_to_fixpoint(inst, ReductionLog())
    assert outcome.solved
    assert outcome.solution.cost == 3  # the two cheapest copies


def test_parallel_keeps_min_weight():
    # square with a doubled edge: the heavier copy goes
    inst = build(4, [(0, 1, 5), (0, 1, 7), (1, 2, 1), (2, 3, 1), (3, 0, 1), (2, 0, 1)])
    changed, outcome = reduce_parallel(inst, ReductionLog())
    assert changed and outcome is None
    assert not inst.ealive[1] and inst.ealive[0]


def test_two_forced_parallels_infeasible():
    inst = build(4, [(0, 1), (0, 1), (1, 2), (2, 3), (3, 0), (2, 0)])
    inst.include_edge(0)
    inst.include_edge(1)
    changed, outcome = reduce_parallel(inst, ReductionLog())
    assert outcome is not None and outcome.infeasible


def test_forced_plus_unforced_parallel_resolves_through_pipeline():
    # tour must keep the forced copy and route around the unforced one
    inst = build(4, [(0, 1, 1), (0, 1, 10), (1, 2, 1), (2, 3, 1), (3, 0, 1), (2, 0, 1)])
    inst.include_edge(0)
    result = solve(inst)
    oracle = exhaustive_forced(inst)
    assert result.cost == oracle.cost
    assert 1 not in result.edges  # the unforced copy is unused


# -- internal path problems ----------------------------------------------------------


def brute_paths(inst, xs, pairs):
    """Oracle: enumerate all vertex-disjoint path systems by permutation."""
    verts = sorted(xs)
    internal = {}
    for v in verts:
        for e in inst.adj[v]:
            w = inst.other_end(e, v)
            if w in xs:
                internal.setdefault(frozenset((v, w)), []).append(e)
    forced = {
        e
        for es in internal.values()
        for e in es
        if inst.eforced[e]
    }
    best = None
    k = len(pairs)
    for perm in itertools.permutations(verts):
        for split in range(1, len(verts)) if k == 2 else [len(verts)]:
            paths = [perm[:split], perm[split:]] if k == 2 else [perm]
            ends = [frozenset((p[0], p[-1])) for p in paths if p]
            if len(ends) != k or any(not p for p in paths):
                continue
            want = [frozenset(pr) for pr in pairs]
            if sorted(map(sorted, ends)) != sorted(map(sorted, want)):
                continue
            if ends[0] != frozenset(pairs[0]):
                paths = paths[::-1]
                ends = ends[::-1]
                if ends[0] != frozenset(pairs[0]):
                    continue
            cost = Fraction(0)
            used = set()
            ok = True
            for p in paths:
                for a, b in zip(p, p[1:]):
                    key = frozenset((a, b))
                    if key not in internal:
                        ok = False
                        break
                    opts = [e for e in internal[key] if e not in used]
                    if not opts:
                        ok = False
                        break
                    e = min(opts, key=lambda e: inst.ew[e])
                    used.add(e)
                    cost += inst.ew[e]
                if not ok:
                    break
            if ok and forced <= used:
                if best is None or cost < best:
                    best = cost
    return best


def test_solve_internal_paths_single_edge():
    inst = build(4, [(0, 1, 3), (1, 2), (2, 3), (3, 0)])
    got = solve_internal_paths(inst, {0, 1}, [(0, 1)])
    assert got is not None and got[0] == 3


def test_solve_internal_paths_single_vertex_pairing():
    inst = cycle_instance(4)
    assert solve_internal_paths(inst, {0}, [(0, 0)]) == (Fraction(0), (frozenset(),))
    assert solve_internal_paths(inst, {0, 1}, [(0, 0)]) is None


def test_solve_internal_paths_forced_coverage():
    # internal forced edge off the required path makes the pairing infeasible
    inst = build(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    inst.include_edge(2)  # edge 2-3 forced
    got = solve_internal_paths(inst, {0, 1, 2, 3}, [(0, 1)])
    # Hamiltonian path 0..1 covering 2-3: 0-3-2-1 uses the forced edge
    assert got is not None
    path_edges = got[1][0]
    assert 2 in path_edges


def test_solve_internal_paths_matches_bruteforce(rng):
    for trial in range(40):
        n = rng.randint(3, 6)
        inst = Instance()
        for _ in range(n):
            inst.add_vertex()
        for _ in range(rng.randint(n, 9)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v or len(inst.adj[u]) >= 3 or len(inst.adj[v]) >= 3:
                continue
            inst.add_edge(u, v, Fraction(rng.randint(1, 8)))
        for e in inst.alive_edges():
            if rng.random() < 0.2:
                inst.eforced[e] = True
        verts = list(range(n))
        if n >= 2:
            a, b = rng.sample(verts, 2)
            got = solve_internal_paths(inst, set(verts), [(a, b)])
            want = brute_paths(inst, set(verts), [(a, b)])
            assert (got is None) == (want is None)
            if got is not None:
                assert got[0] == want


# -- 3-cut replacement ----------------------------------------------------------------


def test_reduce_3cut_case4_half_sum():
    # triangle with equal internal traversal costs s: each new edge gets s/2
    s = Fraction(4)
    inst = build(
        6,
        [
            (0, 1, s / 2), (1, 2, s / 2), (2, 0, s / 2),  # triangle
            (3, 4, 1), (4, 5, 1), (5, 3, 1),
            (0, 3, 0), (1, 4, 0), (2, 5, 0),
        ],
    )
    log = ReductionLog()
    reduce_3cut(inst, log, {0, 1, 2})
    entry = log.entries[-1]
    for eid in entry.new_edges:
        assert inst.ew[eid] == s / 2
        assert not inst.eforced[eid]


def test_reduce_3cut_single_vertex_identity():
    inst = generate(GeneratorSpec(kind="named", name="k4"))
    before = [(tuple(sorted(inst.endpoints(e))), inst.ew[e]) for e in inst.alive_edges()]
    log = ReductionLog()
    reduce_3cut(inst, log, {0})
    after = [(tuple(sorted(inst.endpoints(e))), inst.ew[e]) for e in inst.alive_edges()]
    # vertex 0 replaced by a fresh vertex with identical attachments
    assert sorted(w for _, w in before) == sorted(w for _, w in after)
    assert len(after) == len(before)


def test_reduce_3cut_all_infeasible_flags_instance():
    # the enclosed piece admits no covering path between any anchor pair
    inst = build(
        8,
        [
            (0, 1), (1, 2), (2, 3), (3, 0),  # outer square
            (4, 5), (5, 6), (6, 7), (7, 4),  # inner square
        ],
    )
    inst.add_edge(4, 6, 1, forced=True)  # forced chord blocks every traversal
    inst.add_edge(0, 4, 1)
    inst.add_edge(1, 5, 1)
    inst.add_edge(2, 6, 1)
    xs = {4, 5, 6, 7}
    cf, cu = inst.cut(xs)
    assert len(cf) + len(cu) == 3
    sols = [
        solve_internal_paths(inst, xs, [(a, b)])
        for a, b in [(5, 6), (4, 6), (4, 5)]
    ]
    if all(s is None for s in sols):
        log = ReductionLog()
        reduce_3cut(inst, log, xs)
        assert check_feasibility(inst).infeasible


# -- 4-cut replacement ----------------------------------------------------------------


def four_cut_host(inner_edges, forced_inner=()):
    """Four anchors 0..3 inside X, four forced edges out to a 4-cycle host."""
    inst = Instance()
    nmax = max(max(u, v) for u, v in inner_edges)
    for _ in range(nmax + 1 + 4):
        inst.add_vertex()
    host = [nmax + 1 + k for k in range(4)]
    eids = []
    for u, v in inner_edges:
        eids.append(inst.add_edge(u, v, 1))
    for e in forced_inner:
        inst.eforced[eids[e]] = True
    for k in range(4):
        inst.add_edge(k, host[k], 1, forced=True)
    inst.add_edge(host[0], host[1], 1)
    inst.add_edge(host[1], host[2], 1)
    inst.add_edge(host[2], host[3], 1)
    inst.add_edge(host[3], host[0], 1)
    return inst


def test_is_4cut_reducible_critical_shape():
    # chordless 6-cycle with four forced boundary edges and two unforced
    # vertices: one pairing is impossible
    inst = build(
        10,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (6, 7), (7, 8), (8, 9), (9, 6)],
    )
    inst.add_edge(0, 6, 1, forced=True)
    inst.add_edge(1, 7, 1, forced=True)
    inst.add_edge(3, 8, 1, forced=True)
    inst.add_edge(4, 9, 1, forced=True)
    assert is_4cut_reducible(inst, set(range(6)))


def test_is_4cut_reducible_rejects_unforced_boundary():
    inst = six_cycle_with_pendants()
    probe = inst.copy()
    probe.eforced[6] = False  # one boundary edge back to unforced
    assert not is_4cut_reducible(probe, set(range(6)))


def test_reduce_4cut_single_pairing_gives_forced_pair():
    # path 0-1-2-3 inside X: only one disjoint-path split works
    inst = four_cut_host([(0, 1), (1, 2), (2, 3)])
    xs = {0, 1, 2, 3}
    assert is_4cut_reducible(inst, xs)
    log = ReductionLog()
    reduce_4cut(inst, log, xs)
    entry = log.entries[-1]
    assert entry.case == 1
    assert len(entry.new_edges) == 2
    assert all(inst.eforced[e] for e in entry.new_edges)


def test_reduce_4cut_two_pairings_give_4cycle():
    inst = four_cut_host([(0, 1), (1, 2), (2, 3), (3, 0)])
    xs = {0, 1, 2, 3}
    assert is_4cut_reducible(inst, xs)
    log = ReductionLog()
    reduce_4cut(inst, log, xs)
    entry = log.entries[-1]
    assert entry.case == 2
    assert len(entry.new_edges) == 4
    assert all(not inst.eforced[e] for e in entry.new_edges)
    comp = inst.component_of(entry.anchors[0])
    assert len(comp.vertices) == 4 and len(comp.edges) == 4


def test_reduce_4cut_none_feasible_isolates_anchors():
    # forced internal chord that no disjoint-path system can cover
    inst = four_cut_host([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)], forced_inner=(4,))
    xs = {0, 1, 2, 3}
    sols = [
        solve_internal_paths(inst, xs, p)
        for p in [
            [(0, 3), (1, 2)],
            [(1, 3), (0, 2)],
            [(2, 3), (0, 1)],
        ]
    ]
    assert any(s is None for s in sols)
    log = ReductionLog()
    if all(s is None for s in sols):
        reduce_4cut(inst, log, xs)
        assert log.entries[-1].case == 0
        assert check_feasibility(inst).infeasible


# -- candidate search -----------------------------------------------------------------


def test_triangle_graph_has_3cut_candidate():
    inst = generate(GeneratorSpec(kind="named", name="prism"))
    cand = find_small_cut_candidate(inst)
    assert cand is not None and cand[0] == "3cut"
    cf, cu = inst.cut(cand[1])
    assert len(cf) + len(cu) == 3


def test_petersen_has_no_small_cut_candidate():
    inst = generate(GeneratorSpec(kind="named", name="petersen"))
    assert find_small_cut_candidate(inst) is None
    # exhaustive cross-check over all connected proper subsets (sides with a
    # lone-vertex complement mirror the identity rewrite and do not count)
    verts = inst.alive_vertices()
    found = []
    for r in range(2, len(verts) - 1):
        for sub in itertools.combinations(verts, r):
            xs = set(sub)
            sub_inst_edges = [
                e for e in inst.alive_edges()
                if inst.eu[e] in xs and inst.ev[e] in xs
            ]
            # connectivity of the subset
            seen = {sub[0]}
            stack = [sub[0]]
            while stack:
                v = stack.pop()
                for e in inst.adj[v]:
                    w = inst.other_end(e, v)
                    if w in xs and w not in seen:
                        seen.add(w)
                        stack.append(w)
            if seen != xs:
                continue
            cf, cu = inst.cut(xs)
            if len(cf) + len(cu) == 3:
                found.append(xs)
    assert not found


def test_single_vertex_three_cut_not_offered():
    inst = generate(GeneratorSpec(kind="named", name="petersen"))
    cand = find_small_cut_candidate(inst)
    assert cand is None  # every 3-boundary there is a lone vertex


def test_find_reducible_edge_on_degree_two_vertex():
    inst = build(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
    e = find_reducible_edge(inst)
    assert e is not None
    u, v = inst.endpoints(e)
    assert 2 in (len(inst.adj[u]), len(inst.adj[v])) or True
    assert any(len(inst.adj[x]) == 2 for x in inst.endpoints(e))


def test_find_reducible_edge_through_forced_cluster():
    # two squares joined by two unforced edges: those edges form a 2-cut
    inst = build(
        8,
        [
            (0, 1), (1, 2), (2, 3), (3, 0),
            (4, 5), (5, 6), (6, 7), (7, 4),
            (0, 4), (2, 6),
        ],
    )
    inst.add_edge(1, 3, 1, forced=True)
    inst.add_edge(5, 7, 1, forced=True)
    e = find_reducible_edge(inst)
    assert e in (8, 9)


# -- fixpoint driver ------------------------------------------------------------------


def test_k4_reduces_to_solved_cost_four():
    inst = generate(GeneratorSpec(kind="named", name="k4"))
    log = ReductionLog()
    _, log, outcome = reduce_to_fixpoint(inst, log)
    assert outcome.solved
    edges, cost = expand_solution(log, outcome.solution.edges, outcome.solution.cost)
    assert cost == 4
    orig = generate(GeneratorSpec(kind="named", name="k4"))
    assert orig.is_tour(edges)
    assert orig.tour_cost(edges) == 4


def test_fixpoint_idempotent_and_reduced_properties(rng):
    for trial in range(25):
        base = generate(
            GeneratorSpec(kind="random_cubic", n=rng.choice([8, 10, 12, 14]), seed=trial, weights="random")
        )
        inst = inject_forced(base, count=rng.randint(0, 4), seed=trial)
        _, _, outcome = reduce_to_fixpoint(inst, ReductionLog())
        if outcome.infeasible or outcome.solved:
            continue
        # no degree-2 vertex, no parallel edges, no triangle
        bundles = set()
        for e in inst.alive_edges():
            u, v = sorted(inst.endpoints(e))
            assert (u, v) not in bundles
            bundles.add((u, v))
        adj = {v: set() for v in inst.alive_vertices()}
        for e in inst.alive_edges():
            u, v = inst.endpoints(e)
            adj[u].add(v)
            adj[v].add(u)
        for v in inst.alive_vertices():
            assert len(inst.adj[v]) == 3
            for a, b in itertools.combinations(adj[v], 2):
                assert b not in adj[a], "triangle survived reduction"
        # second application is the identity
        probe = inst.copy()
        _, log2, out2 = reduce_to_fixpoint(probe, ReductionLog())
        assert not out2.infeasible and not out2.solved
        assert len(log2) == 0
        assert sorted(probe.alive_edges()) == sorted(inst.alive_edges())


def test_optimality_preserved_through_reductions(rng):
    for trial in range(30):
        base = generate(
            GeneratorSpec(kind="random_cubic", n=rng.choice([6, 8, 10]), seed=500 + trial, weights="random")
        )
        inst = inject_forced(base, count=rng.randint(0, 4), seed=trial)
        want = exhaustive_forced(inst)
        got = solve(inst)
        assert got.status == want.status
        if want.optimal:
            assert got.cost == want.cost
            assert inst.is_tour(got.edges)


def test_measure_never_increases_through_reductions(rng):
    for trial in range(20):
        base = generate(
            GeneratorSpec(kind="random_cubic", n=12, seed=900 + trial, weights="random")
        )
        inst = inject_forced(base, count=rng.randint(0, 5), seed=trial)
        before = measure(DEFAULT_CONFIG, inst)
        _, _, outcome = reduce_to_fixpoint(inst, ReductionLog())
        after = measure(DEFAULT_CONFIG, inst, infeasible=outcome.infeasible)
        assert after <= before


def test_4cut_on_whole_component_decreases_by_its_weight():
    # removing an entire settled component drops exactly its summed weight
    inst = build(
        10,
        [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4), (8, 9)],
    )
    inst.add_edge(0, 4, 1, forced=True)
    inst.add_edge(1, 5, 1, forced=True)
    inst.add_edge(2, 8, 1, forced=True)
    inst.add_edge(3, 9, 1, forced=True)
    inst.add_edge(6, 8, 1, forced=True)
    inst.add_edge(7, 9, 1, forced=True)
    comp = inst.component_of(0)
    xs = comp.vertices
    if is_4cut_reducible(inst, xs):
        from cubictsp.analysis import component_weight, vertex_weight

        w = sum(vertex_weight(DEFAULT_CONFIG, inst, v) for v in xs)
        c = component_weight(DEFAULT_CONFIG, inst, comp)
        before = measure(DEFAULT_CONFIG, inst)
        reduce_4cut(inst, ReductionLog(), xs)
        after = measure(DEFAULT_CONFIG, inst)
        assert before - after == w + c


# -- log replay and expansion -----------------------------------------------------------


def test_replay_reproduces_reduction():
    inst = generate(GeneratorSpec(kind="named", name="k4"))
    original = inst.copy()
    log = ReductionLog()
    reduced, log, outcome = reduce_to_fixpoint(inst, log)
    again = replay(log, original)
    assert again.ealive == reduced.ealive
    assert again.eforced == reduced.eforced
    assert again.valive == reduced.valive


def test_expand_solution_empty_log_is_identity():
    log = ReductionLog()
    edges, cost = expand_solution(log, {1, 2, 3}, Fraction(5))
    assert edges == {1, 2, 3} and cost == 5


def test_parallel_multigraphs_against_oracle():
    # pairing-model multigraphs exercise the parallel-edge rules end to end
    checked = 0
    for seed in range(30):
        inst = generate(
            GeneratorSpec(kind="random_cubic", n=8, seed=seed, weights="random", allow_parallel=True)
        )
        pairs = set()
        has_parallel = False
        for e in inst.alive_edges():
            key = tuple(sorted(inst.endpoints(e)))
            has_parallel = has_parallel or key in pairs
            pairs.add(key)
        if not has_parallel:
            continue
        forced = inject_forced(inst, count=seed % 3, seed=seed)
        want = exhaustive_forced(forced)
        got = solve(forced)
        assert (got.status, got.cost) == (want.status, want.cost)
        checked += 1
    assert checked >= 10


def test_expand_through_nested_reductions(rng):
    # whole pipeline on instances that exercise 3-cuts inside 4-cut regions
    for trial in range(15):
        base = generate(GeneratorSpec(kind="random_cubic", n=10, seed=40 + trial, weights="random"))
        inst = inject_forced(base, count=3, seed=trial)
        want = exhaustive_forced(inst)
        got = solve(inst)
        assert got.status == want.status
        if want.optimal:
            assert got.cost == want.cost
            assert inst.tour_cost(got.edges) == got.cost

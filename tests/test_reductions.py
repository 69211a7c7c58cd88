import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

import cubictsp.connectivity as conn
import cubictsp.reductions as red
from cubictsp.analysis import DEFAULT_CONFIG, component_weight, measure, vertex_weight
from cubictsp.generators import GeneratorSpec, generate, inject_forced
from cubictsp.graph import GraphError, Instance, format_instance
from cubictsp.oracles import _disconnects, exhaustive_forced, exhaustive_internal_paths
from cubictsp.reductions import (
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

from conftest import build, cycle_instance, random_degree3_multigraph, six_cycle_with_pendants


# -- feasibility ----------------------------------------------------------------


def _forced_cycle_scan_by_walks(inst):
    """The earlier walk: follow each forced chain both ways from an unseen
    forced edge; the first chain that closes decides."""
    seen = set()
    for e in inst.forced_edges():
        if e in seen:
            continue
        chain = {e}
        closed = False
        for start in inst.endpoints(e):
            prev_edge, v = e, start
            while True:
                nxt = [g for g in inst.adj[v] if inst.eforced[g] and g != prev_edge]
                if not nxt:
                    break
                g = nxt[0]
                if g in chain:
                    closed = True
                    break
                chain.add(g)
                prev_edge, v = g, inst.other_end(g, v)
            if closed:
                break
        seen |= chain
        if closed:
            verts = {inst.eu[g] for g in chain} | {inst.ev[g] for g in chain}
            return "spanning" if len(verts) == inst.n_alive() else "partial"
    return None


def _forced_chain_through(inst, v):
    """The earlier path walk: the maximal forced path through v, a vertex
    with two edges, both forced, passing through vertices of the same kind.
    Returns (edges end to end, interior vertices, ends)."""
    e_left, e_right = [e for e in inst.adj[v] if inst.eforced[e]]
    halves = []
    ends = []
    for first in (e_left, e_right):
        acc = [first]
        prev_edge = first
        cur = inst.other_end(first, v)
        while True:
            d, df, _ = inst.degrees(cur)
            if not (d == 2 and df == 2):
                ends.append(cur)
                break
            g = next(g for g in inst.adj[cur] if inst.eforced[g] and g != prev_edge)
            acc.append(g)
            prev_edge = g
            cur = inst.other_end(g, cur)
        halves.append(acc)
    edges = list(reversed(halves[0])) + halves[1]
    inner = []
    cur = ends[0]
    for g in edges[:-1]:
        cur = inst.other_end(g, cur)
        inner.append(cur)
    return edges, inner, ends


def test_forced_cycle_scan_matches_chain_walk():
    # random forced subgraphs of forced degree <= 2: random edges, some of
    # them doubled, on top of a forced cycle in every third trial
    rng = random.Random(6)
    seen = {None: 0, "spanning": 0, "partial": 0}
    compared = 0
    for trial in range(600):
        n = rng.randint(2, 9)
        inst = Instance()
        for _ in range(n):
            inst.add_vertex()
        order = list(range(n))
        rng.shuffle(order)
        if trial % 3 == 0:  # a forced cycle through some of the vertices
            ring = order[: rng.randint(2, n)]
            for a, b in zip(ring, ring[1:] + ring[:1]):
                inst.add_edge(a, b, 1)
        for _ in range(rng.randint(0, 2 * n)):
            u, v = rng.sample(range(n), 2)
            if len(inst.adj[u]) < 2 and len(inst.adj[v]) < 2:
                inst.add_edge(u, v, 1)
                if rng.random() < 0.2 and len(inst.adj[u]) < 2 and len(inst.adj[v]) < 2:
                    inst.add_edge(u, v, 1)  # a parallel forced pair
        for e in inst.alive_edges():
            inst.include_edge(e)
        got, paths = red._forced_paths(inst)
        assert got == _forced_cycle_scan_by_walks(inst), (n, inst.eu, inst.ev)
        seen[got] += 1
        # every vertex is pending here, so each walk starts at its path's
        # lowest interior vertex
        for edges, inner, ends in paths:
            want = _forced_chain_through(inst, min(inner))
            assert (edges, inner, list(ends)) == want, (n, inst.eu, inst.ev)
            compared += 1
    assert min(seen.values()) > 50, seen
    assert compared > 100, compared


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
    outcome = reduce_to_fixpoint(inst, [])
    assert outcome.optimal
    assert outcome.cost == 3  # the two cheapest copies


def test_parallel_keeps_min_weight():
    # square with a doubled edge: the heavier copy goes
    inst = build(4, [(0, 1, 5), (0, 1, 7), (1, 2, 1), (2, 3, 1), (3, 0, 1), (2, 0, 1)])
    changed, outcome = reduce_parallel(inst)
    assert changed and outcome is None
    assert not inst.ealive[1] and inst.ealive[0]


def test_two_forced_parallels_infeasible():
    inst = build(4, [(0, 1), (0, 1), (1, 2), (2, 3), (3, 0), (2, 0)])
    inst.include_edge(0)
    inst.include_edge(1)
    changed, outcome = reduce_parallel(inst)
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
                inst.include_edge(e)
        verts = list(range(n))
        if n >= 2:
            a, b = rng.sample(verts, 2)
            got = solve_internal_paths(inst, set(verts), [(a, b)])
            want = brute_paths(inst, set(verts), [(a, b)])
            assert (got is None) == (want is None)
            if got is not None:
                assert got[0] == want


def _path_problem(seed):
    """A side of 1 to 9 vertices from ``random_degree3_multigraph``, parallel
    edges included, with weights in [-6, 9] over denominators 1 to 7, zero
    included, 0 to 3 forced edges, and the ends of one path or of two."""
    rng = random.Random(seed)
    n = rng.randint(1, 9)
    shape = random_degree3_multigraph(rng, n)
    edges = [
        (*shape.endpoints(e), Fraction(rng.randint(-6, 9), rng.randint(1, 7)))
        for e in shape.alive_edges()
    ]
    inst = build(n, edges)
    for e in rng.sample(range(len(edges)), min(len(edges), rng.randint(0, 3))):
        u, v = inst.endpoints(e)
        if inst.fdeg[u] < 2 and inst.fdeg[v] < 2:
            inst.include_edge(e)
    if n == 1:
        return inst, [(0, 0)]
    if n >= 4 and rng.random() < 0.5:
        a, b, c, d = rng.sample(range(n), 4)
        return inst, [(a, b), (c, d)]
    return inst, [tuple(rng.sample(range(n), 2))]


def test_solve_internal_paths_matches_the_rational_reference():
    # the same tuple, per-path edge sets included, so equally cheap
    # solutions must be settled the same way too
    seen = Counter()
    for seed in range(1200):
        inst, pairs = _path_problem(seed)
        xs = set(inst.alive_vertices())
        got = solve_internal_paths(inst, xs, pairs)
        assert got == exhaustive_internal_paths(inst, xs, pairs), seed
        seen[len(pairs), got is not None] += 1
    assert min(seen[k] for k in itertools.product((1, 2), (False, True))) >= 10, seen


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
    log: list = []
    reduce_3cut(inst, log, {0, 1, 2})
    entry = log[-1]
    for eid in entry.new_edges:
        assert inst.ew[eid] == s / 2
        assert not inst.eforced[eid]


def test_reduce_3cut_single_vertex_identity():
    inst = generate(GeneratorSpec(kind="named", name="k4"))
    before = [(tuple(sorted(inst.endpoints(e))), inst.ew[e]) for e in inst.alive_edges()]
    log: list = []
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
        log: list = []
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
        inst.include_edge(eids[e])
    for k in range(4):
        inst.add_edge(k, host[k], 1, forced=True)
    inst.add_edge(host[0], host[1], 1)
    inst.add_edge(host[1], host[2], 1)
    inst.add_edge(host[2], host[3], 1)
    inst.add_edge(host[3], host[0], 1)
    return inst


def critical_six_cycle_host(last_forced=True):
    """Chordless 6-cycle 0..5 joined to a 4-cycle by edges at 0, 1, 3 and 4,
    forced except that the last is built unforced unless ``last_forced``."""
    inst = build(
        10,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (6, 7), (7, 8), (8, 9), (9, 6)],
    )
    inst.add_edge(0, 6, 1, forced=True)
    inst.add_edge(1, 7, 1, forced=True)
    inst.add_edge(3, 8, 1, forced=True)
    inst.add_edge(4, 9, 1, forced=last_forced)
    return inst


def test_is_4cut_reducible_critical_shape():
    # chordless 6-cycle with four forced boundary edges and two unforced
    # vertices: one pairing is impossible
    assert is_4cut_reducible(critical_six_cycle_host(), set(range(6)))


def test_is_4cut_reducible_rejects_unforced_boundary():
    # the same set with one of its four boundary edges unforced
    assert not is_4cut_reducible(critical_six_cycle_host(last_forced=False), set(range(6)))


def test_reduce_4cut_single_pairing_gives_forced_pair():
    # path 0-1-2-3 inside X: only one disjoint-path split works
    inst = four_cut_host([(0, 1), (1, 2), (2, 3)])
    xs = {0, 1, 2, 3}
    assert is_4cut_reducible(inst, xs)
    log: list = []
    reduce_4cut(inst, log, xs)
    entry = log[-1]
    assert len(entry.lifts) == 1
    assert len(entry.new_edges) == 2
    assert all(inst.eforced[e] for e in entry.new_edges)


def test_reduce_4cut_two_pairings_give_4cycle():
    inst = four_cut_host([(0, 1), (1, 2), (2, 3), (3, 0)])
    xs = {0, 1, 2, 3}
    assert is_4cut_reducible(inst, xs)
    log: list = []
    reduce_4cut(inst, log, xs)
    entry = log[-1]
    assert len(entry.lifts) == 2
    assert len(entry.new_edges) == 4
    assert all(not inst.eforced[e] for e in entry.new_edges)
    comp = inst.component_of(inst.eu[entry.new_edges[0]])
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
    assert sols == [None, None, None]
    log: list = []
    reduce_4cut(inst, log, xs)
    assert log[-1].lifts == ()
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


def _reference_reducible_edge(inst):
    """Brute force: the lowest unforced edge at a degree-2 vertex, else the
    lowest unforced edge that some other edge joins in a 2-cut of the graph."""
    at_two = [
        e
        for v in inst.alive_vertices()
        if len(inst.adj[v]) == 2
        for e in inst.adj[v]
        if not inst.eforced[e]
    ]
    if at_two:
        return min(at_two)
    verts, edges = inst.alive_vertices(), inst.alive_edges()
    eset = set(edges)
    return next(
        (
            e
            for e in edges
            if not inst.eforced[e]
            and any(_disconnects(inst, verts, eset, e, f) for f in edges if f != e)
        ),
        None,
    )


def test_find_reducible_edge_matches_brute_force(monkeypatch):
    # every call the fixpoint makes while solving small random cubic graphs
    calls = []
    found = red.find_reducible_edge

    def checked(inst):
        got = found(inst)
        assert got == _reference_reducible_edge(inst)
        at_two = any(len(inst.adj[v]) == 2 for v in inst.alive_vertices())
        calls.append((got is not None, at_two))
        return got

    monkeypatch.setattr(red, "find_reducible_edge", checked)
    for seed in range(60):
        n = 8 + 2 * (seed % 5)
        inst = generate(GeneratorSpec(kind="random_cubic", n=n, seed=seed, weights="random"))
        solve(inject_forced(inst, seed % 5, seed=seed))
    assert sum(hit and not at_two for hit, at_two in calls) >= 15
    assert sum(at_two for _, at_two in calls) >= 100
    assert sum(not hit for hit, _ in calls) >= 100


def _reference_three_cut_sides(inst):
    """Brute force: every vertex set X with 2 <= |X| <= SMALL_SIDE, not a
    lone-vertex complement unless |X| <= 3, and exactly three edges leaving."""
    verts = inst.alive_vertices()
    ends = [(verts.index(inst.eu[e]), verts.index(inst.ev[e])) for e in inst.alive_edges()]
    top = len(verts) - 2
    out = set()
    for size in range(2, min(conn.SMALL_SIDE, len(verts)) + 1):
        if size > top and size > 3:
            break
        for chosen in itertools.combinations(range(len(verts)), size):
            mask = sum(1 << i for i in chosen)
            if sum((mask >> a ^ mask >> b) & 1 for a, b in ends) == 3:
                out.add(frozenset(verts[i] for i in chosen))
    return out


def test_three_cut_candidates_match_brute_force(monkeypatch):
    # at every call the fixpoint makes while solving small random cubic
    # graphs, under a small and the default side cap, the 3-cut sides
    # offered one after another (each rejected in turn) are exactly the
    # 3-edge boundaries, and every side the tree gives holds its start and
    # has exactly its cut as boundary; the unforced edges' whole-graph
    # labels are nonzero and distinct there, as component_cut_structure
    # requires
    found = red.find_small_cut_candidate
    tree_side = conn.tree_side
    current = []  # the instance being searched

    def exact_side(tree, index, cut, start):
        xs = tree_side(tree, index, cut, start)
        inst = current[0]
        leaving = [g for g in inst.alive_edges() if (inst.eu[g] in xs) != (inst.ev[g] in xs)]
        assert start in xs and leaving == sorted(cut)
        return xs

    def checked(inst, rejected=frozenset()):
        current[:] = [inst]
        label = inst.memo(conn.whole_labels)
        unforced = [label[e] for e in inst.alive_edges() if not inst.eforced[e]]
        assert 0 not in unforced and len(set(unforced)) == len(unforced)
        offered = set()
        while (cand := found(inst, offered)) is not None and cand[0] == "3cut":
            offered.add(cand[1])
        assert offered == _reference_three_cut_sides(inst)
        for xs in offered:
            sides[conn.SMALL_SIDE]["forced" if inst.cut(xs)[0] else "unforced"] += 1
        return found(inst, rejected)

    monkeypatch.setattr(red, "find_small_cut_candidate", checked)
    monkeypatch.setattr(conn, "tree_side", exact_side)
    sides = {}
    for cap in (4, 10):
        monkeypatch.setattr(conn, "SMALL_SIDE", cap)
        sides[cap] = {"forced": 0, "unforced": 0}
        for seed in range(60):
            n = 6 + 2 * (seed % 4)
            inst = generate(GeneratorSpec(kind="random_cubic", n=n, seed=seed, weights="random"))
            solve(inject_forced(inst, seed % 5, seed=seed))
    assert all(n >= 100 for by_kind in sides.values() for n in by_kind.values())


# -- fixpoint driver ------------------------------------------------------------------


def test_k4_reduces_to_solved_cost_four():
    inst = generate(GeneratorSpec(kind="named", name="k4"))
    log: list = []
    outcome = reduce_to_fixpoint(inst, log)
    assert outcome.optimal and outcome.cost == 4
    edges = expand_solution(log, outcome.edges)
    orig = generate(GeneratorSpec(kind="named", name="k4"))
    assert orig.is_tour(edges)
    assert orig.tour_cost(edges) == 4


def test_fixpoint_idempotent_and_reduced_properties(rng):
    for trial in range(25):
        base = generate(
            GeneratorSpec(kind="random_cubic", n=rng.choice([8, 10, 12, 14]), seed=trial, weights="random")
        )
        inst = inject_forced(base, count=rng.randint(0, 4), seed=trial)
        outcome = reduce_to_fixpoint(inst, [])
        if outcome is not None:
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
        log2: list = []
        out2 = reduce_to_fixpoint(probe, log2)
        assert out2 is None
        assert len(log2) == 0
        # and makes no decision
        assert probe.ealive == inst.ealive and probe.eforced == inst.eforced


def _fixpoint_result(inst, decisions):
    """Reduce a copy of ``inst`` (pending record included) and return what
    the fixpoint left: the instance's arrays, its rewrites and decisions in
    order (``decisions`` is the ``decisions_logged`` recorder) and the
    outcome."""
    probe = inst.copy()
    outcome = red.reduce_to_fixpoint(probe, [])
    return (probe.ealive, probe.eforced, probe.valive, probe.ew), decisions.last, outcome


def test_pending_vertex_rules_match_whole_graph_sweeps(monkeypatch, decisions_logged):
    # every rule that visits only pending vertices must leave the same
    # instance, rewrites, decisions and outcome (witness included) as one
    # that sweeps every alive vertex in every pass
    rng = random.Random(19)
    starts = []
    for trial in range(60):
        base = generate(
            GeneratorSpec(kind="random_cubic", n=rng.choice(range(10, 26, 2)), seed=trial, weights="random")
        )
        starts.append(inject_forced(base, rng.randint(0, 6), seed=trial))
    for _ in range(60):  # degree-2 vertices and parallel bundles
        inst = random_degree3_multigraph(rng, rng.randint(4, 12))
        for e in inst.alive_edges():
            u, v = inst.endpoints(e)
            if rng.random() < 0.2 and inst.degrees(u)[1] < 2 and inst.degrees(v)[1] < 2:
                inst.include_edge(e)
        starts.append(inst)

    # every node of seeded solves, each with the record its parent left
    fixpoint = red.reduce_to_fixpoint

    def capturing(inst, log, audit=None):
        starts.append(inst.copy())
        return fixpoint(inst, log, audit)

    with monkeypatch.context() as patch:
        patch.setattr(red, "reduce_to_fixpoint", capturing)
        for seed in range(8):
            base = generate(
                GeneratorSpec(kind="random_cubic", n=24 + 2 * (seed % 4), seed=seed, weights="random")
            )
            solve(inject_forced(base, seed % 4, seed=seed))
    assert sum(inst._pending is not None for inst in starts) > 150

    pending = [_fixpoint_result(inst, decisions_logged) for inst in starts]
    with monkeypatch.context() as patch:
        patch.setattr(Instance, "pending", Instance.alive_vertices)
        swept = [_fixpoint_result(inst, decisions_logged) for inst in starts]
    witnesses = Counter()
    for inst, got, want in zip(starts, pending, swept):
        assert got == want, format_instance(inst)
        verdict = want[2]
        if verdict is None:
            witnesses["open"] += 1
        else:
            witnesses[verdict.witness if verdict.infeasible else "solved"] += 1
    assert len(witnesses) >= 4, witnesses


WITNESSES = {"degree_deficit", "not_2ec", "forced_subcycle", "odd_component", "odd_block_count"}


def test_fixpoint_verdict_is_none_an_infeasible_feasibility_or_an_optimal_tour(monkeypatch):
    # every node of seeded solves, with and without forced edges, ends its
    # fixpoint open, stopped by a named witness, or with a tour of what is left
    fixpoint = red.reduce_to_fixpoint
    kinds = Counter()

    def checked(inst, log, audit=None):
        outcome = fixpoint(inst, log, audit)
        if outcome is None:
            kinds["open"] += 1
        elif isinstance(outcome, red.Feasibility):
            assert outcome.infeasible and outcome.witness in WITNESSES, outcome
            kinds["infeasible"] += 1
        else:
            assert isinstance(outcome, red.TourResult) and outcome.optimal, outcome
            assert inst.is_tour(outcome.edges)
            assert inst.tour_cost(outcome.edges) == outcome.cost
            kinds["tour"] += 1
        return outcome

    monkeypatch.setattr(red, "reduce_to_fixpoint", checked)
    for seed in range(16):
        base = generate(
            GeneratorSpec(kind="random_cubic", n=12 + 2 * (seed % 4), seed=seed, weights="random")
        )
        solve(inject_forced(base, seed % 3, seed=seed))
    assert kinds["open"] and kinds["infeasible"] and kinds["tour"], kinds


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
        outcome = reduce_to_fixpoint(inst, [])
        infeasible = outcome is not None and outcome.infeasible
        after = measure(DEFAULT_CONFIG, inst, infeasible=infeasible)
        assert after <= before


def _state(inst):
    """Everything a rewrite may change, copied."""
    lists = (inst.eu, inst.ev, inst.ew, inst.eforced, inst.ealive, inst.valive, inst.fdeg)
    return [list(a) for a in lists] + [[list(a) for a in inst.adj], inst.pending()]


# (n, seed) of unit-weight cubic graphs with three forced edges whose solve
# meets a 3-cut that would raise the measure
REJECTING = [(16, 35), (18, 31), (20, 7)]


def test_each_probed_3cut_is_rewritten_once(monkeypatch):
    calls = Counter()
    rewrite, probe = red.reduce_3cut, red._measure_safe_3cut

    def counted_rewrite(inst, log, xs):
        calls["rewrite"] += 1
        return rewrite(inst, log, xs)

    def checked_probe(inst, log, xs):
        calls["probe"] += 1
        before, entries = _state(inst), list(log)
        accepted = probe(inst, log, xs)
        if accepted:
            assert log[:-1] == entries and log[-1].kind == "3cut"
        else:
            calls["rejected"] += 1
            assert _state(inst) == before and log == entries
        return accepted

    monkeypatch.setattr(red, "reduce_3cut", counted_rewrite)
    monkeypatch.setattr(red, "_measure_safe_3cut", checked_probe)
    for n, seed in REJECTING + [(14, 3), (16, 4)]:
        base = generate(GeneratorSpec(kind="random_cubic", n=n, seed=seed))
        inst = inject_forced(base, 3, seed=seed)
        got = solve(inst)
        assert got.optimal and inst.is_tour(got.edges)
    assert calls["rewrite"] == calls["probe"] > 0
    assert calls["rejected"] >= len(REJECTING), calls


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
    assert is_4cut_reducible(inst, xs)
    w = sum(vertex_weight(DEFAULT_CONFIG, inst, v) for v in xs)
    c = component_weight(DEFAULT_CONFIG, inst, comp)
    before = measure(DEFAULT_CONFIG, inst)
    reduce_4cut(inst, [], xs)
    after = measure(DEFAULT_CONFIG, inst)
    assert before - after == w + c


# -- log replay and expansion -----------------------------------------------------------


def replay(entries, inst: Instance) -> Instance:
    """Re-apply a fixpoint's rewrites and decisions, as ``decisions_logged``
    merges them, forward on a copy of the instance it started from: each
    decision again, and each rewrite by the production rewrite of its kind
    on the vertices it logged.  The edges each rewrite makes must get the
    ids it logged.

    A contraction logs its path's interior sorted, and the new edge's id
    depends only on the order of the contractions, so it is re-run as the
    forced path through the lowest interior vertex."""
    out = inst.copy()
    scratch: list = []
    rewrites = {
        "contract": lambda i, log, vs: red._contract(i, log, red._forced_walk(i, vs[0])),
        "3cut": reduce_3cut,
        "4cut": reduce_4cut,
    }
    for entry in entries:
        if isinstance(entry, red.Rewrite):
            rewrites[entry.kind](out, scratch, entry.vertices)
            assert scratch[-1].new_edges == entry.new_edges, "replay id drift"
        else:
            kind, eid = entry
            {"IncludeEdge": out.include_edge, "DeleteEdge": out.delete_edge}[kind](eid)
    return out


def test_replay_reproduces_reduction(decisions_logged):
    inst = generate(GeneratorSpec(kind="named", name="k4"))
    original = inst.copy()
    red.reduce_to_fixpoint(inst, [])
    again = replay(decisions_logged.last, original)
    assert again.ealive == inst.ealive
    assert again.eforced == inst.eforced
    assert again.valive == inst.valive


def test_replay_reproduces_every_rewrite_kind_inside_solves(monkeypatch, decisions_logged):
    # every node of seeded solves: its log holds only rewrites, and its
    # rewrites and decisions, replayed on a copy of its input, must leave
    # the same instance as the fixpoint did
    fixpoint = red.reduce_to_fixpoint
    replayed = Counter()

    def checked(inst, log, audit=None):
        start, first = inst.copy(), len(log)
        outcome = fixpoint(inst, log, audit)
        assert all(isinstance(e, red.Rewrite) for e in log[first:])
        again = replay(decisions_logged.last, start)
        assert (again.ealive, again.eforced, again.valive, again.ew) == (
            inst.ealive,
            inst.eforced,
            inst.valive,
            inst.ew,
        )
        replayed.update(
            e.kind if isinstance(e, red.Rewrite) else e[0] for e in decisions_logged.last
        )
        return outcome

    monkeypatch.setattr(red, "reduce_to_fixpoint", checked)
    for seed in range(20):
        base = generate(
            GeneratorSpec(kind="random_cubic", n=16 + 2 * (seed % 4), seed=seed, weights="random")
        )
        solve(inject_forced(base, seed % 4, seed=seed))
    assert replayed["contract"] and replayed["3cut"] and replayed["4cut"] >= 5
    # the recorder saw both kinds of decision
    assert replayed["IncludeEdge"] and replayed["DeleteEdge"]


def test_fixpoint_appends_to_the_callers_log():
    # an empty log is falsy; it must still be the log that gets the entries
    inst = inject_forced(
        generate(GeneratorSpec(kind="random_cubic", n=12, seed=5, weights="random")), 2, seed=1
    )
    log: list = []
    reduce_to_fixpoint(inst, log)
    assert len(log) > 0
    first = list(log)
    reduce_to_fixpoint(inst.copy(), log)
    assert log[: len(first)] == first


def test_expand_solution_empty_log_is_identity():
    assert expand_solution([], {1, 2, 3}) == {1, 2, 3}


def _made_since(inst, first):
    """Ids of the alive edges made at or after edge id ``first``."""
    return [e for e in inst.alive_edges() if e >= first]


def _lift(log, tour):
    return expand_solution(log, tour)


def test_expand_rejects_a_tour_without_the_contracted_edge():
    inst = cycle_instance(6)
    inst.include_edge(0)
    inst.include_edge(1)
    log: list = []
    red.saturation_and_contraction(inst, log)
    (new,) = _made_since(inst, 6)
    rest = [e for e in inst.alive_edges() if e != new]
    assert _lift(log, rest + [new]) == set(range(6))
    with pytest.raises(GraphError):
        _lift(log, rest)


def test_expand_rejects_3cut_crossings_with_no_lift():
    # prism with one forced triangle edge: X = {0, 1, 2} has no path from
    # 0 to 1 through 2 that uses the forced edge 0-1
    inst = build(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)], forced=(0,))
    log: list = []
    first = len(inst.ealive)
    reduce_3cut(inst, log, {0, 1, 2})
    x = len(inst.valive) - 1
    n3, n4, n5 = sorted(_made_since(inst, first), key=lambda e: inst.other_end(e, x))
    assert _lift(log, [n3, n5, 3, 4, 5]) == {6, 8, 0, 1, 3, 4, 5}
    # one crossing, three, and the pairing that spares 2-5
    for used in ([n3], [n3, n4, n5], [n3, n4]):
        with pytest.raises(GraphError):
            _lift(log, used + [3, 4, 5])


def test_expand_rejects_a_4cut_crossing_one_edge_of_each_pairing():
    inst = four_cut_host([(0, 1), (1, 2), (2, 3), (3, 0)])
    log: list = []
    first = len(inst.ealive)
    reduce_4cut(inst, log, {0, 1, 2, 3})
    a, *rest = _made_since(inst, first)
    (b,) = [e for e in rest if not set(inst.endpoints(e)) & set(inst.endpoints(a))]
    c = next(e for e in rest if e != b)
    # a and b are opposite edges of the new 4-cycle, a and c adjacent ones
    assert _lift(log, [a, b]) in ({0, 2}, {1, 3})
    with pytest.raises(GraphError):
        _lift(log, [a, c])


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


def test_connected_subsets_match_brute_force():
    # every node subset that is connected and within the weight cap, on
    # small random graphs with weights, isolated nodes and a few caps
    rng = random.Random(5)
    seen = {"subsets": 0, "over_cap": 0}
    for trial in range(60):
        n = rng.randint(1, 8)
        adjacency = {v: set() for v in range(n)}
        for u, v in itertools.combinations(range(n), 2):
            if rng.random() < 0.35:
                adjacency[u].add(v)
                adjacency[v].add(u)
        weights = [rng.randint(1, 4) for _ in range(n)]
        cap = rng.randint(1, 12)
        want = set()
        for k in range(1, n + 1):
            for subset in itertools.combinations(range(n), k):
                if sum(weights[v] for v in subset) > cap:
                    seen["over_cap"] += 1
                    continue
                reached, stack = {subset[0]}, [subset[0]]
                while stack:
                    for w in adjacency[stack.pop()]:
                        if w in subset and w not in reached:
                            reached.add(w)
                            stack.append(w)
                if len(reached) == k:
                    want.add(frozenset(subset))
        assert red._connected_subsets(adjacency, weights, cap) == want
        seen["subsets"] += len(want)
    assert seen["subsets"] >= 300 and seen["over_cap"] >= 300

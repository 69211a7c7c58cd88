"""Polynomial-time instance rewrites and the replayable log that lifts a
tour of the rewritten instance back to the original graph.

The fixpoint driver applies, in a fixed priority:

  feasibility screen -> saturation cleanup + forced-path contraction ->
  parallel edges -> unforced-bridge determination -> reducible circuits ->
  3-cut replacement -> 4-cut replacement

until nothing applies.  Every rewrite appends a log entry; ``expand_solution``
replays the log backwards to translate edge ids and re-insert replaced
subgraphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import connectivity as conn
from .graph import GraphError, Instance

FEASIBLE_UNKNOWN = "feasible_unknown"
INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class Feasibility:
    status: str
    witness: Optional[str] = None

    @property
    def infeasible(self) -> bool:
        return self.status == INFEASIBLE


OK = Feasibility(FEASIBLE_UNKNOWN)


# -- log entries ---------------------------------------------------------------


@dataclass(frozen=True)
class IncludeEdge:
    eid: int


@dataclass(frozen=True)
class DeleteEdge:
    eid: int


@dataclass(frozen=True)
class ContractPath:
    path_edges: tuple  # ordered along the path
    inner_vertices: tuple
    new_edge: int
    u: int
    v: int


@dataclass(frozen=True)
class ThreeCut:
    x_vertices: tuple
    removed_edges: tuple  # edge ids internal to X
    boundary: tuple  # three (old_eid, x_i, y_i)
    new_vertex: int
    new_edges: tuple  # three ids, aligned with boundary order
    solutions: tuple  # per index i: None or (cost, path edge ids)


@dataclass(frozen=True)
class FourCut:
    anchors: tuple  # (x1, x2, x3, x4), boundary attachment vertices
    removed_vertices: tuple  # X minus anchors
    removed_edges: tuple  # edge ids internal to X
    case: int  # number of feasible pairings: 0, 1 or 2
    new_edges: tuple
    # case 1: ((new_pair_edges, union of both stored paths),)
    # case 2: two such entries, one per opposite pair of the new 4-cycle
    solutions: tuple


class ReductionLog:
    """Ordered record of rewrites, enough to replay forward or lift back."""

    def __init__(self) -> None:
        self.entries: list = []

    def append(self, entry) -> None:
        self.entries.append(entry)

    def __len__(self) -> int:
        return len(self.entries)


@dataclass
class DirectSolution:
    """A tour found during reduction (edge ids of the rewritten instance)."""

    cost: Fraction
    edges: frozenset


@dataclass
class ReduceOutcome:
    feasibility: Feasibility
    solution: Optional[DirectSolution] = None

    @property
    def infeasible(self) -> bool:
        return self.feasibility.infeasible

    @property
    def solved(self) -> bool:
        return self.solution is not None


# -- feasibility ----------------------------------------------------------------


def check_feasibility(inst: Instance, full: bool = True) -> Feasibility:
    """Screen for states that cannot contain a tour.

    Checks vertex degrees, 2-edge-connectivity of the whole graph, forced
    subcycles, boundary parity of every unforced component, and (full mode)
    the count of odd blocks around every circuit.
    """
    for v in inst.alive_vertices():
        d, df, _ = inst.degrees(v)
        if d < 2 or df > 2:
            return Feasibility(INFEASIBLE, "degree_deficit")
    if not inst.is_2_edge_connected_graph():
        return Feasibility(INFEASIBLE, "not_2ec")
    if _forced_cycle_scan(inst) == "partial":
        return Feasibility(INFEASIBLE, "forced_subcycle")
    comps = inst.u_components()
    for comp in comps:
        if comp.odd:
            return Feasibility(INFEASIBLE, "odd_component")
    if full:
        for comp in comps:
            if comp.trivial or not conn.is_2_edge_connected(inst, comp):
                continue
            for circuit in conn.circuit_partition(inst, comp):
                if circuit.trivial:
                    continue
                odd = sum(1 for b in conn.blocks_along(inst, comp, circuit) if b.odd)
                if odd % 2 == 1:
                    return Feasibility(INFEASIBLE, "odd_block_count")
    return OK


def _forced_cycle_scan(inst: Instance):
    """Classify the forced subgraph: None, 'spanning' (a forced cycle through
    every vertex) or 'partial' (a forced cycle missing some vertex)."""
    forced = inst.forced_edges()
    if not forced:
        return None
    deg: dict[int, int] = {}
    for e in forced:
        deg[inst.eu[e]] = deg.get(inst.eu[e], 0) + 1
        deg[inst.ev[e]] = deg.get(inst.ev[e], 0) + 1
    if any(d > 2 for d in deg.values()):
        return "partial"
    seen: set[int] = set()
    for e in forced:
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
            verts = set()
            for g in chain:
                verts.add(inst.eu[g])
                verts.add(inst.ev[g])
            return "spanning" if len(verts) == inst.n_alive() else "partial"
    return None


# -- basic rewrites --------------------------------------------------------------


def _include(inst: Instance, log: ReductionLog, eid: int) -> Feasibility:
    for v in inst.endpoints(eid):
        if inst.degrees(v)[1] >= 2:
            return Feasibility(INFEASIBLE, "degree_deficit")
    inst.include_edge(eid)
    log.append(IncludeEdge(eid))
    return OK


def _delete(inst: Instance, log: ReductionLog, eid: int) -> Feasibility:
    u, v = inst.endpoints(eid)
    inst.delete_edge(eid)
    log.append(DeleteEdge(eid))
    if len(inst.adj[u]) < 2 or len(inst.adj[v]) < 2:
        return Feasibility(INFEASIBLE, "degree_deficit")
    return OK


def apply_decision(inst: Instance, log: ReductionLog, eid: int, action: str) -> Feasibility:
    if action == "include":
        return _include(inst, log, eid)
    if action == "delete":
        return _delete(inst, log, eid)
    raise GraphError(f"unknown action {action!r}")


def saturation_and_contraction(inst: Instance, log: ReductionLog):
    """Drop the remaining unforced edge at vertices with two forced edges,
    then contract every maximal forced path to one forced edge.

    Returns (changed, outcome-or-None).  A forced cycle through every vertex
    becomes a direct solution; through a proper subset, infeasibility.
    """
    changed = False
    again = True
    while again:
        again = False
        for v in inst.alive_vertices():
            _, df, du = inst.degrees(v)
            if df > 2:
                return True, ReduceOutcome(Feasibility(INFEASIBLE, "degree_deficit"))
            if df == 2 and du > 0:
                for e in [e for e in inst.adj[v] if not inst.eforced[e]]:
                    st = _delete(inst, log, e)
                    changed = True
                    if st.infeasible:
                        return True, ReduceOutcome(st)
                again = True
    scan = _forced_cycle_scan(inst)
    if scan == "spanning":
        edges = frozenset(inst.forced_edges())
        return True, ReduceOutcome(OK, DirectSolution(inst.tour_cost(edges), edges))
    if scan == "partial":
        return True, ReduceOutcome(Feasibility(INFEASIBLE, "forced_subcycle"))
    for v in inst.alive_vertices():
        if not inst.valive[v]:
            continue  # removed as some earlier chain's interior
        d, df, _ = inst.degrees(v)
        if d == 2 and df == 2:
            edges, inner, ends = _forced_chain_through(inst, v)
            weight = sum((inst.ew[e] for e in edges), Fraction(0))
            for e in edges:
                inst.delete_edge(e)
            for w in inner:
                inst.remove_vertex(w)
            new_e = inst.add_edge(ends[0], ends[1], weight, forced=True)
            log.append(ContractPath(tuple(edges), tuple(inner), new_e, ends[0], ends[1]))
            changed = True
    return changed, None


def _forced_chain_through(inst: Instance, v: int):
    """Maximal forced path through interior vertex v.  Forced cycles were
    screened out before.  Returns (ordered edges, interior vertices, ends)."""
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
    ends = [ends[0], ends[1]]
    inner = []
    cur = ends[0]
    for g in edges[:-1]:
        cur = inst.other_end(g, cur)
        inner.append(cur)
    return edges, inner, ends


def solve_two_vertices(inst: Instance) -> ReduceOutcome:
    """Terminal case of two alive vertices: a tour is a cheapest pair of
    distinct parallel edges containing every forced edge."""
    edges = inst.alive_edges()
    forced = [e for e in edges if inst.eforced[e]]
    if len(forced) > 2 or len(edges) < 2:
        return ReduceOutcome(Feasibility(INFEASIBLE, "degree_deficit"))
    rest = sorted(
        (e for e in edges if not inst.eforced[e]), key=lambda e: (inst.ew[e], e)
    )
    pick = forced + rest[: 2 - len(forced)]
    if len(pick) < 2:
        return ReduceOutcome(Feasibility(INFEASIBLE, "degree_deficit"))
    chosen = frozenset(pick)
    return ReduceOutcome(OK, DirectSolution(inst.tour_cost(chosen), chosen))


def reduce_parallel(inst: Instance, log: ReductionLog):
    """Resolve parallel bundles: two forced copies are fatal (beyond two
    vertices); all-unforced bundles keep only the cheapest copy.  A mixed
    forced+unforced bundle is settled by the saturation and reducible-edge
    rules, which force its neighbourhood first."""
    changed = False
    bundles: dict[tuple[int, int], list[int]] = {}
    for e in inst.alive_edges():
        u, v = inst.endpoints(e)
        bundles.setdefault((min(u, v), max(u, v)), []).append(e)
    for key in sorted(bundles):
        group = bundles[key]
        if len(group) < 2:
            continue
        forced = [e for e in group if inst.eforced[e]]
        if len(forced) >= 2:
            return True, ReduceOutcome(Feasibility(INFEASIBLE, "degree_deficit"))
        if forced:
            continue
        group.sort(key=lambda e: (inst.ew[e], e))
        for e in group[1:]:
            st = _delete(inst, log, e)
            changed = True
            if st.infeasible:
                return True, ReduceOutcome(st)
    return changed, None


def determine_eliminable(inst: Instance, piece_vertices) -> str:
    """Decision for the unique unforced edge leaving a 1-pendent piece:
    include iff the piece's forced boundary is odd."""
    cf, cu = inst.cut(piece_vertices)
    if len(cu) != 1:
        raise GraphError("piece is not 1-pendent")
    return "include" if len(cf) % 2 == 1 else "delete"


def eliminate_bridges(inst: Instance, log: ReductionLog):
    """Determine unforced bridges until every component is 2-edge-connected,
    cascading through saturation cleanup.  One audit step."""
    changed = False
    while True:
        ch, outcome = saturation_and_contraction(inst, log)
        changed = changed or ch
        if outcome is not None:
            return True, outcome
        if inst.n_alive() == 2:
            return True, solve_two_vertices(inst)
        bridge = None
        for comp in inst.u_components():
            if comp.trivial:
                continue
            cand = conn._unforced_bridges(inst, comp)
            if cand:
                b = min(cand)
                if bridge is None or b < bridge:
                    bridge = b
        if bridge is None:
            return changed, None
        u = inst.eu[bridge]
        comp = inst.component_of(u)
        pieces = conn._subgraph_pieces(inst, comp.vertices, comp.edges, {bridge})
        side = pieces[0] if u in pieces[0] else pieces[1]
        action = determine_eliminable(inst, side)
        st = apply_decision(inst, log, bridge, action)
        changed = True
        if st.infeasible:
            return True, ReduceOutcome(st)


# -- reducible circuits ------------------------------------------------------------


def find_reducible_edge(inst: Instance) -> Optional[int]:
    """Lowest unforced edge lying in a 2-element edge cut of the whole graph.

    Degree-2 vertices witness such edges immediately.  Otherwise, when every
    component is 2-edge-connected, a 2-cut of the graph is a disconnecting
    pair inside one component whose side, together with the forced-edge
    clusters hanging off it, has no forced boundary left.  With a
    non-2-edge-connected component the naive per-edge bridge sweep decides.
    """
    best = None
    for v in inst.alive_vertices():
        if len(inst.adj[v]) == 2:
            for e in inst.adj[v]:
                if not inst.eforced[e] and (best is None or e < best):
                    best = e
    if best is not None:
        return best
    comps = inst.u_components()
    if not all(comp.trivial or conn.is_2_edge_connected(inst, comp) for comp in comps):
        ok = inst.ealive[:]
        for e in inst.alive_edges():
            ok[e] = False
            for f in inst.bridges(edge_ok=ok):
                for g in (e, f):
                    if not inst.eforced[g] and (best is None or g < best):
                        best = g
            ok[e] = True
        return best
    node_of = {}
    for idx, comp in enumerate(comps):
        for v in comp.vertices:
            node_of[v] = idx
    forced = inst.forced_edges()
    for hidx, comp in enumerate(comps):
        if comp.trivial:
            continue
        pairs2 = conn.component_pairs2(inst, comp)
        if not pairs2:
            continue
        # forced-connected clusters of everything outside this component,
        # plus which of this component's vertices each cluster touches
        parent = list(range(len(comps)))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        h_links = []  # forced edges inside the component
        touch_edges = []  # (cluster node, component vertex)
        for e in forced:
            a, b = node_of[inst.eu[e]], node_of[inst.ev[e]]
            if a == hidx and b == hidx:
                h_links.append((inst.eu[e], inst.ev[e]))
            elif a == hidx:
                touch_edges.append((b, inst.eu[e]))
            elif b == hidx:
                touch_edges.append((a, inst.ev[e]))
            else:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[ra] = rb
        touched: dict[int, set] = {}
        by_vertex: dict[int, list[int]] = {}
        for cnode, hv in touch_edges:
            root = find(cnode)
            touched.setdefault(root, set()).add(hv)
            by_vertex.setdefault(hv, []).append(root)
        for e, f, p1, p2 in pairs2:
            if best is not None and e >= best:
                continue
            for side in (p1, p2):
                ok_side = True
                for u, v in h_links:
                    if (u in side) != (v in side):
                        ok_side = False
                        break
                if ok_side:
                    for hv in side:
                        for root in by_vertex.get(hv, ()):
                            if not touched[root] <= side:
                                ok_side = False
                                break
                        if not ok_side:
                            break
                if ok_side:
                    if best is None or e < best:
                        best = e
                    break
    return best


def process_reducible_circuit(inst: Instance, log: ReductionLog, eid: int):
    """Include a cut-forced edge and propagate along its circuit."""
    from .search import circuit_procedure  # search builds on this module

    comp = inst.component_of(inst.eu[eid])
    circuit = next(c for c in conn.circuit_partition(inst, comp) if eid in c.edges)
    return circuit_procedure(inst, log, comp, circuit, eid, "include")


# -- exhaustive path problems inside a small replaced subgraph ----------------------


def solve_internal_paths(inst: Instance, x_vertices, pairs):
    """Minimum-cost vertex-disjoint paths inside a vertex set: path k runs
    between pairs[k], every vertex lies on exactly one path, and every
    internal forced edge is used.  Exhaustive; meant for <= 10 vertices.

    Returns (total cost, tuple of per-path edge-id frozensets) or None.
    """
    verts = frozenset(x_vertices)
    adjm: dict[int, list[tuple[int, int]]] = {v: [] for v in verts}
    forced_needed = set()
    for v in verts:
        for e in inst.adj[v]:
            w = inst.other_end(e, v)
            if w in verts:
                adjm[v].append((e, w))
                if inst.eforced[e]:
                    forced_needed.add(e)
    best: list = [None]

    endpoints_ok = all(a in verts and b in verts for a, b in pairs)
    if not endpoints_ok:
        raise GraphError("path endpoints must lie inside the set")

    a0, b0 = pairs[0]
    if a0 == b0:
        if len(pairs) == 1 and len(verts) == 1 and not forced_needed:
            return (Fraction(0), (frozenset(),))
        return None
    if any(a == b for a, b in pairs):
        return None

    def finish(k, remaining, paths, used, cost):
        if k + 1 == len(pairs):
            if not remaining and forced_needed <= used:
                if best[0] is None or cost < best[0][0]:
                    best[0] = (cost, tuple(paths))
            return
        a, b = pairs[k + 1]
        if a in remaining and b in remaining:
            extend(k + 1, a, remaining - {a}, paths + [frozenset()], used, cost)

    def extend(k, cur, remaining, paths, used, cost):
        if best[0] is not None and cost >= best[0][0]:
            return
        target = pairs[k][1]
        for e, w in adjm[cur]:
            if e in used:
                continue
            if w == target and target in remaining:
                ncost = cost + inst.ew[e]
                npaths = paths[:-1] + [paths[-1] | {e}]
                finish(k, remaining - {w}, npaths, used | {e}, ncost)
            elif w in remaining and w != target:
                extend(
                    k,
                    w,
                    remaining - {w},
                    paths[:-1] + [paths[-1] | {e}],
                    used | {e},
                    cost + inst.ew[e],
                )

    extend(0, a0, verts - {a0}, [frozenset()], frozenset(), Fraction(0))
    return best[0]


# -- 3-cut replacement ----------------------------------------------------------------


def reduce_3cut(inst: Instance, log: ReductionLog, x_vertices):
    """Replace a subgraph behind a 3-edge boundary by a single vertex whose
    three edges encode the optimal internal traversals."""
    xs = frozenset(x_vertices)
    cf, cu = inst.cut(xs)
    boundary = sorted(cf + cu)
    if len(boundary) != 3:
        raise GraphError("not a 3-cut")
    b_info = []
    for e in boundary:
        u, v = inst.endpoints(e)
        xi, yi = (u, v) if u in xs else (v, u)
        b_info.append((e, xi, yi))
    # internal path problem i: connect the other two anchors, covering X
    sols = []
    for i in range(3):
        j, k = [t for t in range(3) if t != i]
        pair = (b_info[j][1], b_info[k][1])
        sols.append(solve_internal_paths(inst, xs, [pair]))
    feas = [i for i in range(3) if sols[i] is not None]

    internal_edges = []
    seen = set()
    for v in xs:
        for e in inst.adj[v]:
            if e not in seen and inst.other_end(e, v) in xs:
                seen.add(e)
                internal_edges.append(e)
    old_w = [inst.ew[e] for e, _, _ in b_info]
    old_sign = [inst.eforced[e] for e, _, _ in b_info]

    for e, _, _ in b_info:
        inst.delete_edge(e)
    for e in sorted(internal_edges):
        inst.delete_edge(e)
    for v in sorted(xs):
        inst.remove_vertex(v)
    x = inst.add_vertex()

    if len(feas) == 0:
        sign = [True, True, True]
        cost = old_w
    elif len(feas) == 1:
        (j1,) = feas
        j2, j3 = [t for t in range(3) if t != j1]
        sign = [False, False, False]
        sign[j1] = old_sign[j1]
        sign[j2] = True
        sign[j3] = True
        cost = list(old_w)
        cost[j2] = old_w[j2] + sols[j1][0]
    elif len(feas) == 2:
        j1, j2 = feas
        (j3,) = [t for t in range(3) if t not in feas]
        sign = list(old_sign)
        sign[j3] = True
        cost = list(old_w)
        cost[j1] = old_w[j1] + sols[j2][0]
        cost[j2] = old_w[j2] + sols[j1][0]
    else:
        total = sum((s[0] for s in sols), Fraction(0))
        sign = list(old_sign)
        cost = [old_w[i] + total / 2 - sols[i][0] for i in range(3)]

    new_edges = tuple(
        inst.add_edge(x, b_info[i][2], cost[i], sign[i]) for i in range(3)
    )
    log.append(
        ThreeCut(
            tuple(sorted(xs)),
            tuple(sorted(internal_edges)),
            tuple(b_info),
            x,
            new_edges,
            tuple(
                None if s is None else (s[0], tuple(sorted(s[1][0]))) for s in sols
            ),
        )
    )


# -- 4-cut replacement ----------------------------------------------------------------


def _four_cut_problems(inst: Instance, xs, anchors):
    """The three disjoint-path pairings for a 4-forced-edge boundary."""
    x1, x2, x3, x4 = anchors
    probs = []
    for i, (j1, j2) in ((0, (1, 2)), (1, (0, 2)), (2, (0, 1))):
        probs.append([(anchors[i], x4), (anchors[j1], anchors[j2])])
    return probs


def is_4cut_reducible(inst: Instance, x_vertices) -> bool:
    """True iff the vertex set sits behind four forced edges with distinct
    attachments and at least one of the three pairings has no solution."""
    xs = frozenset(x_vertices)
    if len(xs) > conn.SMALL_SIDE:
        return False
    cf, cu = inst.cut(xs)
    if len(cf) != 4 or cu:
        return False
    anchors = []
    for e in sorted(cf):
        u, v = inst.endpoints(e)
        anchors.append(u if u in xs else v)
    if len(set(anchors)) != 4:
        return False
    for pairs in _four_cut_problems(inst, xs, anchors):
        if solve_internal_paths(inst, xs, pairs) is None:
            return True
    return False


def reduce_4cut(inst: Instance, log: ReductionLog, x_vertices):
    """Replace a 4-forced-boundary subgraph by nothing, a pair of forced
    edges, or a 4-cycle, depending on which internal pairings survive."""
    xs = frozenset(x_vertices)
    cf, cu = inst.cut(xs)
    if len(cf) != 4 or cu:
        raise GraphError("not a pure forced 4-cut")
    anchors = []
    for e in sorted(cf):
        u, v = inst.endpoints(e)
        anchors.append(u if u in xs else v)
    if len(set(anchors)) != 4:
        raise GraphError("attachments not distinct")
    probs = _four_cut_problems(inst, xs, anchors)
    sols = [solve_internal_paths(inst, xs, p) for p in probs]
    feas = [i for i in range(3) if sols[i] is not None]
    if len(feas) >= 3:
        raise GraphError("subgraph is not 4-cut reducible")

    internal_edges = []
    seen = set()
    for v in xs:
        for e in inst.adj[v]:
            if e not in seen and inst.other_end(e, v) in xs:
                seen.add(e)
                internal_edges.append(e)
    inner_vertices = sorted(xs - set(anchors))
    for e in sorted(internal_edges):
        inst.delete_edge(e)
    for v in inner_vertices:
        inst.remove_vertex(v)

    x1, x2, x3, x4 = anchors
    new_edges: tuple = ()
    solutions: tuple = ()
    if len(feas) == 1:
        (i0,) = feas
        pairs = probs[i0]
        cost0 = inst.tour_cost(sols[i0][1][0])
        cost1 = inst.tour_cost(sols[i0][1][1])
        e_a = inst.add_edge(pairs[0][0], pairs[0][1], cost0, forced=True)
        e_b = inst.add_edge(pairs[1][0], pairs[1][1], cost1, forced=True)
        new_edges = (e_a, e_b)
        union = frozenset(sols[i0][1][0]) | frozenset(sols[i0][1][1])
        solutions = ((frozenset(new_edges), tuple(sorted(union))),)
    elif len(feas) == 2:
        i1, i2 = feas
        (j,) = [t for t in range(3) if t not in feas]
        # cycle anchors[i1] - x4 - anchors[i2] - anchors[j] - back
        a_i1, a_i2, a_j = anchors[i1], anchors[i2], anchors[j]
        s1 = sols[i1]
        s2 = sols[i2]

        def path_cost(sol, a, b, pairs):
            for idx, pr in enumerate(pairs):
                if {pr[0], pr[1]} == {a, b}:
                    return inst.tour_cost(sol[1][idx]), sol[1][idx]
            raise GraphError("pairing mismatch")

        c_e1, _ = path_cost(s1, a_i1, x4, probs[i1])
        c_e3, _ = path_cost(s1, a_i2, a_j, probs[i1])
        c_e2, _ = path_cost(s2, a_i2, x4, probs[i2])
        c_e4, _ = path_cost(s2, a_j, a_i1, probs[i2])
        e1 = inst.add_edge(a_i1, x4, c_e1, forced=False)
        e2 = inst.add_edge(x4, a_i2, c_e2, forced=False)
        e3 = inst.add_edge(a_i2, a_j, c_e3, forced=False)
        e4 = inst.add_edge(a_j, a_i1, c_e4, forced=False)
        new_edges = (e1, e2, e3, e4)
        union1 = frozenset(s1[1][0]) | frozenset(s1[1][1])
        union2 = frozenset(s2[1][0]) | frozenset(s2[1][1])
        solutions = (
            (frozenset((e1, e3)), tuple(sorted(union1))),
            (frozenset((e2, e4)), tuple(sorted(union2))),
        )
    log.append(
        FourCut(
            tuple(anchors),
            tuple(inner_vertices),
            tuple(sorted(internal_edges)),
            len(feas),
            new_edges,
            solutions,
        )
    )


# -- small-cut candidate search --------------------------------------------------------
#
# At this stage the instance is cubic, every component is 2-edge-connected, the
# boundary parity of every component is even and no cut-forced edge remains.
# Any 3-edge boundary then has 2 or 3 unforced edges, all in one component:
# with 2 they disconnect that component (so lie on one circuit) and the set
# is a side of that pair closed across one forced edge; with 3 the set meets
# the component in a connected piece whose component boundary is exactly
# those 3 edges, closed across no forced edge.  The component's cut structure
# lists both kinds of piece.


def _forced_neighbors_graph(inst: Instance):
    """Component graph: nodes are unforced components, arcs are forced edges."""
    comps = inst.u_components()
    node_of = {}
    for idx, comp in enumerate(comps):
        for v in comp.vertices:
            node_of[v] = idx
    arcs = []
    for e in inst.forced_edges():
        a, b = node_of[inst.eu[e]], node_of[inst.ev[e]]
        if a != b:
            arcs.append((e, a, b))
    return comps, node_of, arcs


def _closure_to_zero(inst: Instance, comps, node_of, start_verts, banned_verts):
    """Grow a vertex set by absorbing whole components across forced edges
    until no forced edge leaves it.  Fails when it exceeds ``SMALL_SIDE`` or
    touches a banned vertex."""
    xs = set(start_verts)
    while True:
        if len(xs) > conn.SMALL_SIDE:
            return None
        grow = None
        for v in xs:
            for e in inst.adj[v]:
                if not inst.eforced[e]:
                    continue
                w = inst.other_end(e, v)
                if w in xs:
                    continue
                grow = w
                break
            if grow is not None:
                break
        if grow is None:
            return frozenset(xs)
        comp = comps[node_of[grow]]
        if comp.vertices & banned_verts or comp.vertices & xs:
            return None
        xs |= comp.vertices
    # unreachable


def _closure_to_one(inst: Instance, comps, node_of, piece, other_piece):
    """Vertex sets containing the piece whose forced boundary is exactly one
    edge: sides of bridges in the component graph with the piece contracted in
    and the other piece kept out."""
    # nodes: 'P' = piece, 'Q' = other piece, component indices for the rest
    piece = frozenset(piece)
    other = frozenset(other_piece)
    node_name = {}
    for v in piece:
        node_name[v] = "P"
    for v in other:
        node_name[v] = "Q"
    host = node_of[next(iter(piece))]
    for idx, comp in enumerate(comps):
        if idx == host:
            continue
        for v in comp.vertices:
            node_name[v] = idx
    adj: dict = {}
    arcs = []
    for e in inst.forced_edges():
        a, b = node_name[inst.eu[e]], node_name[inst.ev[e]]
        if a == b:
            continue
        arcs.append((e, a, b))
        adj.setdefault(a, []).append((e, b))
        adj.setdefault(b, []).append((e, a))
    if "P" not in adj:
        return []
    # try removing each forced arc: the P-side must be cut off exactly there
    cap = conn.SMALL_SIDE
    out = []
    for e0, a0, b0 in sorted(arcs):
        seen = {"P"}
        stack = ["P"]
        okflag = True
        while stack and okflag:
            node = stack.pop()
            for e, other_node in adj.get(node, ()):
                if e == e0:
                    continue
                if other_node == "Q":
                    okflag = False
                    break
                if other_node not in seen:
                    seen.add(other_node)
                    stack.append(other_node)
        if not okflag:
            continue
        if not (a0 in seen) ^ (b0 in seen):
            continue  # removing e0 did not separate its own ends
        verts = set(piece)
        size_ok = True
        for node in seen:
            if node == "P":
                continue
            verts |= comps[node].vertices
            if len(verts) > cap:
                size_ok = False
                break
        if size_ok and len(verts) <= cap:
            out.append(frozenset(verts))
    return out


def find_small_cut_candidate(inst: Instance, rejected=frozenset()):
    """First applicable small-cut rewrite: ('3cut', X) with |boundary| = 3,
    else ('4cut', X) for a 4-cut-reducible X, else None.  X has at most
    ``SMALL_SIDE`` vertices and at least 2; sets in ``rejected`` are skipped."""
    cap = conn.SMALL_SIDE
    comps, node_of, arcs = _forced_neighbors_graph(inst)
    # a rewrite needs 2 <= |X|, and a lone-vertex complement is allowed
    # only for a tiny X (the terminal triangle-against-vertex case);
    # otherwise the cut is just some vertex's boundary seen from afar
    top = inst.n_alive() - 2
    # --- 3-cuts ---
    for comp in comps:
        if comp.trivial or len(comp.edges) < 2:
            continue
        pairs2, triples3 = conn.component_cut_structure(inst, comp)
        # two unforced boundary edges plus one forced
        for e, f, p1, p2 in pairs2:
            for piece, other in ((p1, p2), (p2, p1)):
                if len(piece) > cap:
                    continue
                for xs in _closure_to_one(inst, comps, node_of, piece, other):
                    if xs in rejected:
                        continue
                    cf, cu = inst.cut(xs)
                    if len(cf) + len(cu) == 3 and 2 <= len(xs) and (
                        len(xs) <= top or len(xs) <= 3
                    ):
                        return ("3cut", xs)
        # three unforced boundary edges
        for e, f, h, piece in triples3:
            xs = _closure_to_zero(
                inst, comps, node_of, piece, comp.vertices - piece
            )
            if xs is None or xs in rejected:
                continue
            cf, cu = inst.cut(xs)
            if len(cf) + len(cu) == 3 and 2 <= len(xs) and (
                len(xs) <= top or len(xs) <= 3
            ):
                return ("3cut", xs)
    # --- 4-cuts: unions of whole components behind four forced edges ---
    cg_adj: dict[int, set[int]] = {i: set() for i in range(len(comps))}
    for _, a, b in arcs:
        cg_adj[a].add(b)
        cg_adj[b].add(a)
    for subset in sorted(
        _connected_subsets(cg_adj, [len(c.vertices) for c in comps], cap),
        key=sorted,
    ):
        if len(subset) == 1:
            only = comps[next(iter(subset))]
            if conn.is_four_cycle_shape(inst, only):
                # rewriting a lone 4-cycle just re-creates a 4-cycle; the
                # polynomial base case owns these
                continue
        xs = frozenset().union(*(comps[i].vertices for i in subset))
        if len(xs) < 2 or len(xs) > cap or xs in rejected:
            continue
        if len(xs) == inst.n_alive():
            continue
        cf, cu = inst.cut(xs)
        if len(cf) == 4 and not cu and is_4cut_reducible(inst, xs):
            return ("4cut", xs)
    return None


def _connected_subsets(adjacency: dict, weights: list, cap: int):
    """Connected node subsets with bounded total weight, each exactly once
    (grown from its smallest node, never touching smaller ones)."""
    nodes = sorted(adjacency)
    out = []
    for root in nodes:
        if weights[root] > cap:
            continue
        frontier = sorted(n for n in adjacency[root] if n > root)
        stack = [({root}, frozenset(), frontier, weights[root])]
        out.append(frozenset((root,)))
        while stack:
            cur, banned, frontier, wsum = stack.pop()
            for idx, cand in enumerate(frontier):
                if cand in cur or cand in banned:
                    continue
                w2 = wsum + weights[cand]
                if w2 > cap:
                    continue
                nxt = set(cur)
                nxt.add(cand)
                out.append(frozenset(nxt))
                tail = [n for n in frontier[idx + 1 :] if n not in nxt]
                extra = sorted(
                    n
                    for n in adjacency[cand]
                    if n > root and n not in nxt and n not in banned and n not in tail
                )
                stack.append((nxt, banned | set(frontier[:idx]), tail + extra, w2))
    return list(dict.fromkeys(out))


# -- fixpoint driver --------------------------------------------------------------------


def reduce_to_fixpoint(inst: Instance, log: Optional[ReductionLog] = None, audit=None):
    """Apply every reduction until none fires.  Returns (instance, log,
    outcome); the instance is mutated in place."""
    if log is None:
        log = ReductionLog()
    inst, log, outcome = _reduce_loop(inst, log, audit)
    if audit is not None:
        audit.settle_cascade(inst, outcome)
    return inst, log, outcome


def _lemma8_hypothesis(inst: Instance, red_edge: int) -> bool:
    """Exactly one pinned-free single-vertex block along the cut-forced
    edge's circuit, inside a triangle-free component."""
    comp = inst.component_of(inst.eu[red_edge])
    if comp.trivial or not conn.is_2_edge_connected(inst, comp):
        return False
    adj: dict[int, set] = {v: set() for v in comp.vertices}
    for e in comp.edges:
        u, v = inst.endpoints(e)
        adj[u].add(v)
        adj[v].add(u)
    for v in comp.vertices:
        for a in adj[v]:
            if adj[v] & adj[a]:
                return False
    circuit = next(
        (c for c in conn.circuit_partition(inst, comp) if red_edge in c.edges), None
    )
    if circuit is None or circuit.trivial:
        return False
    blocks = conn.blocks_along(inst, comp, circuit)
    reducible = sum(
        1 for b in blocks if conn.classify_block(inst, b) == conn.REDUCIBLE
    )
    return reducible == 1


def _reduce_loop(inst: Instance, log: ReductionLog, audit):

    def snapshot():
        return audit.measure_of(inst) if audit is not None else None

    while True:
        feas = check_feasibility(inst, full=False)
        if feas.infeasible:
            return inst, log, ReduceOutcome(feas)
        if inst.n_alive() == 2:
            outcome = solve_two_vertices(inst)
            return inst, log, outcome

        before = snapshot()
        changed, outcome = saturation_and_contraction(inst, log)
        if outcome is not None:
            if audit is not None:
                audit.step("contract", before, inst, outcome)
            return inst, log, outcome
        if changed:
            if audit is not None:
                audit.step("contract", before, inst, None)
            continue

        before = snapshot()
        changed, outcome = reduce_parallel(inst, log)
        if outcome is not None:
            if audit is not None:
                audit.step("parallel", before, inst, outcome)
            return inst, log, outcome
        if changed:
            if audit is not None:
                audit.step("parallel", before, inst, None)
            continue

        before = snapshot()
        changed, outcome = eliminate_bridges(inst, log)
        if outcome is not None:
            if audit is not None:
                audit.step("normalize", before, inst, outcome)
            return inst, log, outcome
        if changed:
            if audit is not None:
                audit.step("normalize", before, inst, None)
            continue

        red = find_reducible_edge(inst)
        if red is not None:
            before = snapshot()
            if audit is not None and _lemma8_hypothesis(inst, red):
                audit.mark_cascade(before)
            feas = process_reducible_circuit(inst, log, red)
            if feas.infeasible:
                if audit is not None:
                    audit.step("reducible_circuit", before, inst, ReduceOutcome(feas))
                return inst, log, ReduceOutcome(feas)
            if audit is not None:
                audit.step("reducible_circuit", before, inst, None)
            continue

        feas = check_feasibility(inst, full=True)
        if feas.infeasible:
            return inst, log, ReduceOutcome(feas)

        applied = False
        rejected: set = set()
        while True:
            cand = find_small_cut_candidate(inst, rejected)
            if cand is None:
                break
            kind, xs = cand
            before = snapshot()
            if kind == "3cut":
                if not _measure_safe_3cut(inst, xs):
                    rejected.add(xs)
                    continue
                reduce_3cut(inst, log, xs)
            else:
                reduce_4cut(inst, log, xs)
            if audit is not None:
                audit.step(kind, before, inst, None, detail=len(xs))
            applied = True
            break
        if applied:
            continue
        break

    return inst, log, ReduceOutcome(OK)


def _measure_safe_3cut(inst: Instance, xs) -> bool:
    """Only rewrite a 3-cut if it does not raise the search measure.

    Slicing into a settled 4-cycle component can turn its negative component
    weight positive; such rewrites are skipped (branching handles the region
    instead), keeping every reduction step monotone.
    """
    from .analysis import DEFAULT_CONFIG, measure

    probe = inst.copy()
    reduce_3cut(probe, ReductionLog(), xs)
    return measure(DEFAULT_CONFIG, probe) <= measure(DEFAULT_CONFIG, inst)


# -- solution lifting --------------------------------------------------------------------


def expand_solution(log: ReductionLog, tour_edges, cost: Fraction):
    """Replay the log backwards, mapping a tour of the rewritten instance to
    a tour of the instance the log started from."""
    edges = set(tour_edges)
    for entry in reversed(log.entries):
        if isinstance(entry, (IncludeEdge, DeleteEdge)):
            continue
        if isinstance(entry, ContractPath):
            if entry.new_edge not in edges:
                raise GraphError("contracted forced edge missing from tour")
            edges.remove(entry.new_edge)
            edges.update(entry.path_edges)
        elif isinstance(entry, ThreeCut):
            used = [i for i in range(3) if entry.new_edges[i] in edges]
            if len(used) != 2:
                raise GraphError("tour must cross a replaced 3-cut exactly twice")
            (spared,) = [i for i in range(3) if i not in used]
            sol = entry.solutions[spared]
            if sol is None:
                raise GraphError("tour crossed an unsolvable pairing")
            for i in used:
                edges.remove(entry.new_edges[i])
                edges.add(entry.boundary[i][0])
            edges.update(sol[1])
        elif isinstance(entry, FourCut):
            present = frozenset(e for e in entry.new_edges if e in edges)
            match = None
            for pair, path_edges in entry.solutions:
                if pair == present:
                    match = path_edges
                    break
            if match is None:
                raise GraphError("tour inconsistent with replaced 4-cut")
            edges -= present
            edges.update(match)
        else:
            raise GraphError(f"unknown log entry {entry!r}")
    return frozenset(edges), cost

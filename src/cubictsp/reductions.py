"""Polynomial-time instance rewrites and the replayable log that lifts a
tour of the rewritten instance back to the original graph.

The fixpoint driver applies, in a fixed priority:

  saturation cleanup + forced-path contraction -> feasibility screen ->
  parallel edges -> unforced-bridge determination -> reducible circuits ->
  3-cut replacement -> 4-cut replacement

until nothing applies, and returns the node's verdict: None while it is
still open, the infeasible ``Feasibility`` (with its witness) that stopped
it, or an optimal ``TourResult`` of the reduced instance when the forced
edges close a tour or two vertices are left.

Saturation and contraction go before the screen because they never turn a
state it rejects into one it accepts: deleting edges repairs no bridge or
degree deficit, contraction keeps every cut and every component's boundary
parity, and a spanning forced cycle is a tour.

The vertex-local rules (saturation, contraction, the parallel rule) and the
screen's degree sweep and forced-path walk visit only the vertices that
``Instance.pending`` reports: those whose edges changed since the fixpoint
last found all of them with nothing to do and called ``Instance.rest``.  A
vertex nothing touched since then still has nothing to do, so each rule
acts on the same vertices, bundles and cycles, in the same order, as a
sweep of the whole graph would.  The rest is called only in a pass where
saturation and the parallel rule changed nothing and the screen passed.

Forced cycles and forced paths come from one walk of the forced components
through pending vertices (``_forced_paths``): the screen reads its cycle,
and contraction replaces its paths, so no path is walked twice.  An
unforced bridge is an edge its component's labels
(``connectivity._cover_labels``) mark 0, and its side is read off the
component's DFS tree (``connectivity._dfs_tree``).  A reducible edge is an
unforced edge whose whole-graph label (``graph.whole_labels``) another edge
shares, and the third edge of a small 3-cut is read off the same labels: a
forced partner of a component's cut pair, or the unforced edge that closes
a triple (``connectivity.component_cut_structure``).  Each small side is
read off the whole graph's tree (``connectivity.side_size``,
``connectivity.tree_side``) from a start vertex that a component's cut
structure gives.  The forced-path walk and the whole graph's tree, its
index and labels are asked through ``Instance.memo``, so a pass that
rewrites nothing between two questions walks the graph once.

A log is a plain list that the caller owns and every rule appends to.
Every decision appends an ``IncludeEdge`` or a ``DeleteEdge``, and every
forced-path contraction, 3-cut and 4-cut a ``Rewrite``: the vertices it
replaced, the edges it made, and for each set of those edges a tour may use,
the old edges that take their place.  ``expand_solution`` walks the log
backwards and lifts a tour's edges through each rewrite by that one rule.

A 3-cut side is rewritten once, on a copy that ``_measure_safe_3cut``
measures: if the measure does not rise, the instance takes over the copy's
state and the log its one ``Rewrite``; otherwise both stay as they were.
The new edges' costs come from ``solve_internal_paths``, an exhaustive
search over bitmasks whose costs are integers over one common denominator.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional

from . import analysis, connectivity as conn
from .graph import GraphError, Instance, alive_tree

FEASIBLE_UNKNOWN = "feasible_unknown"
INFEASIBLE = "infeasible"
OPTIMAL = "optimal"


@dataclass(frozen=True)
class Feasibility:
    status: str
    witness: Optional[str] = None

    @property
    def infeasible(self) -> bool:
        return self.status == INFEASIBLE


OK = Feasibility(FEASIBLE_UNKNOWN)


@dataclass(frozen=True)
class TourResult:
    """An optimal tour and its cost, or ``INFEASIBLE`` with neither."""

    status: str
    cost: Optional[Fraction] = None
    edges: frozenset = frozenset()

    @property
    def optimal(self) -> bool:
        return self.status == OPTIMAL

    @property
    def infeasible(self) -> bool:
        return self.status == INFEASIBLE


# -- log entries ---------------------------------------------------------------


@dataclass(frozen=True)
class IncludeEdge:
    eid: int


@dataclass(frozen=True)
class DeleteEdge:
    eid: int


@dataclass(frozen=True)
class Rewrite:
    """A structural rewrite.  A tour of the rewritten instance uses some set
    of ``new_edges``; ``lifts`` pairs each set a tour may use with the old
    edges that take its place.  A set with no entry is one no tour may use."""

    kind: str  # "contract", "3cut" or "4cut"
    vertices: tuple  # the vertices it replaced, sorted
    new_edges: tuple  # in the order they were made
    lifts: tuple  # ((frozenset of new edge ids, tuple of old edge ids), ...)


# -- feasibility ----------------------------------------------------------------


def check_feasibility(inst: Instance) -> Feasibility:
    """Screen for states that cannot contain a tour.

    Checks the degrees of the pending vertices (the rest passed when the
    fixpoint last rested and have not changed since), 2-edge-connectivity
    of the whole graph, forced subcycles and the boundary parity of every
    unforced component.  The
    blocks of a circuit partition its component, so their forced boundary
    counts sum to the component's plus twice the forced edges between
    blocks: an even component boundary leaves an even number of odd blocks
    on every circuit, and needs no screen of its own.
    """
    for v in inst.pending():
        d, df, _ = inst.degrees(v)
        if d < 2 or df > 2:
            return Feasibility(INFEASIBLE, "degree_deficit")
    if not inst.is_2_edge_connected_graph():
        return Feasibility(INFEASIBLE, "not_2ec")
    if inst.memo(_forced_paths)[0] == "partial":
        return Feasibility(INFEASIBLE, "forced_subcycle")
    for comp in inst.u_components():
        if comp.odd:
            return Feasibility(INFEASIBLE, "odd_component")
    return OK


def _forced_paths(inst: Instance):
    """Walk the forced components through pending vertices: ``_forced_walk``
    from each pending vertex with two forced edges that no earlier walk
    passed through, in ascending order.  Returns ``(cycle, paths)``:
    ``cycle`` is None, 'spanning' (a forced cycle through every vertex) or
    'partial' (a forced cycle missing some vertex), and ``paths`` holds the
    walks in that order when ``cycle`` is None and is empty otherwise.  No
    vertex may carry more than two forced edges; both callers reject that
    first.

    With forced degree at most 2, every forced component is a path or a
    cycle, and a spanning cycle is the only one, so the first cycle found
    decides.  A cycle runs through vertices of forced degree 2 only, and one
    the last ``Instance.rest`` did not see (it saw none) through a pending
    vertex, so these walks meet every cycle there is to find.
    """
    fdeg = inst.fdeg
    seen: set[int] = set()
    paths = []
    for v in inst.pending():
        if fdeg[v] != 2 or v in seen:
            continue
        path = _forced_walk(inst, v)
        _, inner, ends = path
        if ends is None:
            return ("spanning" if len(inner) == inst.n_alive() else "partial"), ()
        seen.update(inner)
        paths.append(path)
    return None, tuple(paths)


def _forced_walk(inst: Instance, v: int):
    """The forced path or cycle through ``v``, a vertex with two forced
    edges, walked both ways from ``v``, starting with its forced edges in
    ``adj`` order, through vertices of forced degree 2.

    Returns (edges end to end, interior vertices in that order, ends).  A
    path runs from the end its first half reaches to the end its second
    half reaches.  A cycle has ``ends`` None; it runs from ``v`` along the
    first edge back to ``v``, and every vertex on it is interior.
    """
    fdeg, adj, eforced, other_end = inst.fdeg, inst.adj, inst.eforced, inst.other_end
    halves = []
    for e in [e for e in adj[v] if eforced[e]]:
        edges, inner, cur = [e], [], other_end(e, v)
        while fdeg[cur] == 2:
            if cur == v:
                return edges, [v] + inner, None
            inner.append(cur)
            e = next(g for g in adj[cur] if eforced[g] and g != e)
            edges.append(e)
            cur = other_end(e, cur)
        halves.append((edges, inner, cur))
    (left, left_inner, a), (right, right_inner, b) = halves
    return left[::-1] + right, left_inner[::-1] + [v] + right_inner, (a, b)


# -- basic rewrites --------------------------------------------------------------


def _include(inst: Instance, log: list, eid: int) -> Feasibility:
    for v in inst.endpoints(eid):
        if inst.degrees(v)[1] >= 2:
            return Feasibility(INFEASIBLE, "degree_deficit")
    inst.include_edge(eid)
    log.append(IncludeEdge(eid))
    return OK


def _delete(inst: Instance, log: list, eid: int) -> Feasibility:
    u, v = inst.endpoints(eid)
    inst.delete_edge(eid)
    log.append(DeleteEdge(eid))
    if len(inst.adj[u]) < 2 or len(inst.adj[v]) < 2:
        return Feasibility(INFEASIBLE, "degree_deficit")
    return OK


def apply_decision(inst: Instance, log: list, eid: int, action: str) -> Feasibility:
    if action == "include":
        return _include(inst, log, eid)
    if action == "delete":
        return _delete(inst, log, eid)
    raise GraphError(f"unknown action {action!r}")


def saturation_and_contraction(inst: Instance, log: list):
    """Drop the remaining unforced edge at vertices with two forced edges,
    then contract every maximal forced path to one forced edge.  The first
    loop visits the pending vertices in ascending order; the second
    contracts the paths ``_forced_paths`` walked after its deletions, in its
    order.

    Those walks pass only through vertices with two forced edges, and each
    such vertex has no other edge: saturation has just deleted the unforced
    ones at every pending vertex, and a vertex that is not pending had none
    at the last ``Instance.rest``.  The paths are disjoint, and contracting
    one leaves the other paths' edges and interiors as they were, so every
    walk stays valid for the whole loop.

    Returns (changed, verdict-or-None).  A forced cycle through every vertex
    is an optimal ``TourResult``; through a proper subset, an infeasible
    ``Feasibility``.
    """
    changed = False
    # deleting unforced edges lowers no forced degree, so one pass does it all
    for v in inst.pending():
        _, df, du = inst.degrees(v)
        if df > 2:
            return True, Feasibility(INFEASIBLE, "degree_deficit")
        if df == 2 and du > 0:
            for e in [e for e in inst.adj[v] if not inst.eforced[e]]:
                st = _delete(inst, log, e)
                changed = True
                if st.infeasible:
                    return True, st
    cycle, paths = inst.memo(_forced_paths)
    if cycle == "spanning":
        edges = frozenset(inst.forced_edges())
        return True, TourResult(OPTIMAL, inst.tour_cost(edges), edges)
    if cycle == "partial":
        return True, Feasibility(INFEASIBLE, "forced_subcycle")
    for path in paths:
        _contract(inst, log, path)
    return changed or bool(paths), None


def contract_path(inst: Instance, log: list, vertices) -> None:
    """Contract the maximal forced path through ``vertices[0]``, a vertex
    with two edges, both forced, to one forced edge between its ends: the
    rewrite a contraction's log entry names, re-run by ``oracles.replay``.

    The path's interior is logged sorted, and the new edge's id depends only
    on the order of the contractions, so a replay from the lowest interior
    vertex makes the edge the log names."""
    _contract(inst, log, _forced_walk(inst, vertices[0]))


def _contract(inst: Instance, log: list, path) -> None:
    """Replace a forced path, as ``_forced_walk`` returns it, by one forced
    edge from its first end to its second."""
    edges, inner, ends = path
    weight = sum((inst.ew[e] for e in edges), Fraction(0))
    for e in edges:
        inst.delete_edge(e)
    for w in inner:
        inst.remove_vertex(w)
    new_e = inst.add_edge(ends[0], ends[1], weight, forced=True)
    lifts = ((frozenset((new_e,)), tuple(edges)),)
    log.append(Rewrite("contract", tuple(sorted(inner)), (new_e,), lifts))



def solve_two_vertices(inst: Instance) -> Feasibility | TourResult:
    """Terminal case of two alive vertices: a tour is a cheapest pair of
    distinct parallel edges containing every forced edge."""
    edges = inst.alive_edges()
    forced = [e for e in edges if inst.eforced[e]]
    if len(forced) > 2 or len(edges) < 2:
        return Feasibility(INFEASIBLE, "degree_deficit")
    rest = sorted(
        (e for e in edges if not inst.eforced[e]), key=lambda e: (inst.ew[e], e)
    )
    pick = forced + rest[: 2 - len(forced)]
    if len(pick) < 2:
        return Feasibility(INFEASIBLE, "degree_deficit")
    chosen = frozenset(pick)
    return TourResult(OPTIMAL, inst.tour_cost(chosen), chosen)


def reduce_parallel(inst: Instance, log: list):
    """Resolve parallel bundles: two forced copies are fatal (beyond two
    vertices); all-unforced bundles keep only the cheapest copy.  A mixed
    forced+unforced bundle is settled by the saturation and reducible-edge
    rules, which force its neighbourhood first.  Only bundles at a pending
    vertex are gathered; they are settled in order of their ends."""
    changed = False
    bundles: dict[tuple[int, int], list[int]] = {}
    for e in {e for v in inst.pending() for e in inst.adj[v]}:
        u, v = inst.endpoints(e)
        bundles.setdefault((min(u, v), max(u, v)), []).append(e)
    for key in sorted(bundles):
        group = bundles[key]
        if len(group) < 2:
            continue
        forced = [e for e in group if inst.eforced[e]]
        if len(forced) >= 2:
            return True, Feasibility(INFEASIBLE, "degree_deficit")
        if forced:
            continue
        group.sort(key=lambda e: (inst.ew[e], e))
        for e in group[1:]:
            st = _delete(inst, log, e)
            changed = True
            if st.infeasible:
                return True, st
    return changed, None


def determine_eliminable(inst: Instance, piece_vertices) -> str:
    """Decision for the unique unforced edge leaving a 1-pendent piece:
    include iff the piece's forced boundary is odd."""
    cf, cu = inst.cut(piece_vertices)
    if len(cu) != 1:
        raise GraphError("piece is not 1-pendent")
    return "include" if len(cf) % 2 == 1 else "delete"


def eliminate_bridges(inst: Instance, log: list):
    """Determine unforced bridges until every component is 2-edge-connected,
    cascading through saturation cleanup.  One audit step.

    The fixpoint calls this only when saturation, contraction and the
    parallel rule have nothing left to do and more than two vertices are
    alive, so each round starts at the lowest bridge, the lowest edge that
    its component's labels mark 0, and saturates after deciding it.  The
    bridge's side is the half of its component that holds its first end: the
    subtree below it in the component's DFS tree, or everything else.
    """
    changed = False
    while True:
        bridges = [
            (e, comp)
            for comp in inst.u_components()
            if not comp.trivial
            for e, a in conn._cover_labels(inst, comp).items()
            if not a
        ]
        if not bridges:
            return changed, None
        bridge, host = min(bridges, key=lambda b: b[0])
        pre, _, tree_edge, size, _ = conn._dfs_tree(inst, host)
        i = tree_edge.index(bridge)
        below = frozenset(pre[i : i + size[i]])
        side = below if inst.eu[bridge] in below else host.vertices - below
        st = apply_decision(inst, log, bridge, determine_eliminable(inst, side))
        changed = True
        if st.infeasible:
            return True, st
        _, outcome = saturation_and_contraction(inst, log)
        if outcome is not None:
            return True, outcome
        if inst.n_alive() == 2:
            return True, solve_two_vertices(inst)


# -- reducible circuits ------------------------------------------------------------


def find_reducible_edge(inst: Instance) -> Optional[int]:
    """An unforced edge lying in a 2-element edge cut of the whole graph, or
    None when there is none.

    Degree-2 vertices witness such edges immediately: the lowest unforced
    edge at one is taken first.  Otherwise the edge is the lowest unforced
    one whose nonzero whole-graph label another edge shares: the two form a
    cut.  The whole graph must be connected and bridgeless, as
    ``check_feasibility`` makes it before the fixpoint asks.
    """
    best = None
    for v in inst.alive_vertices():
        if len(inst.adj[v]) == 2:
            for e in inst.adj[v]:
                if not inst.eforced[e] and (best is None or e < best):
                    best = e
    if best is not None:
        return best
    label = inst.memo(conn.whole_labels)
    shared = Counter(label.values())
    return min(
        (e for e, a in label.items() if a and shared[a] > 1 and not inst.eforced[e]),
        default=None,
    )


def process_reducible_circuit(inst: Instance, log: list, eid: int):
    """Include a cut-forced edge and propagate along its circuit."""
    from .search import circuit_procedure  # search builds on this module

    comp = inst.component_of(inst.eu[eid])
    circuit = conn.circuit_through(inst, comp, eid)
    return circuit_procedure(inst, log, comp, circuit, eid, "include")


# -- exhaustive path problems inside a small replaced subgraph ----------------------


def solve_internal_paths(inst: Instance, x_vertices, pairs):
    """Minimum-cost vertex-disjoint paths inside a vertex set: path k runs
    between pairs[k], every vertex lies on exactly one path, and every
    internal forced edge is used.  Exhaustive; meant for <= 10 vertices.

    Returns (total cost, tuple of per-path edge-id frozensets) or None.

    The search runs on integers: vertex and edge sets are bitmasks over
    local indices, and weights are scaled by the lcm ``D`` of the inner
    edges' denominators, so a cost ``c`` stands for ``Fraction(c, D)``.  It
    walks each vertex's edges in ``inst.adj`` order and keeps the first of
    equally cheap solutions, as ``oracles.exhaustive_internal_paths``, the
    rational reference, does.
    """
    verts = frozenset(x_vertices)
    if not all(a in verts and b in verts for a, b in pairs):
        raise GraphError("path endpoints must lie inside the set")
    eu, ev = inst.eu, inst.ev
    local = {v: i for i, v in enumerate(verts)}
    # the inner edges, numbered as first met; each vertex's inner edges and
    # their other ends, in its ``inst.adj`` order
    number: dict[int, int] = {}
    inner = []
    for v in verts:
        at = []
        for e in inst.adj[v]:
            w = eu[e]
            if w == v:
                w = ev[e]
            j = local.get(w)
            if j is not None:
                at.append((number.setdefault(e, len(number)), j))
        inner.append(at)
    eids = list(number)
    forced = sum(1 << k for k, e in enumerate(eids) if inst.eforced[e])

    a0, b0 = pairs[0]
    if a0 == b0:
        if len(pairs) == 1 and len(verts) == 1 and not forced:
            return (Fraction(0), (frozenset(),))
        return None
    if any(a == b for a, b in pairs):
        return None

    ws = [inst.ew[e] for e in eids]
    denom = lcm(*(w.denominator for w in ws))
    weight = [w.numerator * (denom // w.denominator) for w in ws]
    nbr = [[(1 << k, 1 << j, j, weight[k]) for k, j in at] for at in inner]
    ends = [(local[a], local[b]) for a, b in pairs]
    last = len(pairs) - 1
    # every solution has one edge fewer per path than it has vertices, so
    # a partial cost plus the lightest inner weight, when negative, for
    # each edge still to place bounds every solution it completes
    floor = min([0, *weight])
    best = None  # (cost, used edges at the end of each path)

    def extend(k, cur, remaining, used, left, cost, done):
        # path k has reached ``cur``; ``left`` edges remain to be placed and
        # ``done`` holds ``used`` as it stood at the end of each path before
        nonlocal best
        if best is not None and cost + floor * left >= best[0]:
            return
        target = ends[k][1]
        for eb, wb, w, c in nbr[cur]:
            if used & eb or not remaining & wb:
                continue
            if w != target:
                extend(k, w, remaining ^ wb, used | eb, left - 1, cost + c, done)
            elif k == last:
                if remaining == wb and (used | eb) & forced == forced:
                    if best is None or cost + c < best[0]:
                        best = (cost + c, done + (used | eb,))
            else:
                a, b = ends[k + 1]
                rest = remaining ^ wb
                if rest >> a & 1 and rest >> b & 1:
                    now = used | eb
                    extend(k + 1, a, rest ^ (1 << a), now, left - 1, cost + c, done + (now,))

    start = ends[0][0]
    everyone = (1 << len(local)) - 1
    extend(0, start, everyone ^ (1 << start), 0, len(verts) - len(pairs), 0, ())
    if best is None:
        return None
    cost, done = best
    paths = tuple(
        frozenset(e for k, e in enumerate(eids) if (now ^ before) >> k & 1)
        for before, now in zip((0,) + done, done)
    )
    return Fraction(cost, denom), paths


def _internal_edges(inst: Instance, xs) -> list[int]:
    """Sorted ids of the edges, forced or not, with both ends in ``xs``."""
    return sorted(conn._edges_inside(inst, xs, False) + conn._edges_inside(inst, xs, True))


# -- 3-cut replacement ----------------------------------------------------------------


def reduce_3cut(inst: Instance, log: list, x_vertices):
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

    internal_edges = _internal_edges(inst, xs)
    old_w = [inst.ew[e] for e, _, _ in b_info]
    # an edge whose spared pairing has no internal path must be used
    sign = [inst.eforced[e] or sols[i] is None for i, (e, _, _) in enumerate(b_info)]

    for e, _, _ in b_info:
        inst.delete_edge(e)
    for e in internal_edges:
        inst.delete_edge(e)
    for v in sorted(xs):
        inst.remove_vertex(v)
    x = inst.add_vertex()

    cost = list(old_w)
    if len(feas) == 1:
        (j1,) = feas
        j2 = next(t for t in range(3) if t != j1)
        cost[j2] = old_w[j2] + sols[j1][0]
    elif len(feas) == 2:
        j1, j2 = feas
        cost[j1] = old_w[j1] + sols[j2][0]
        cost[j2] = old_w[j2] + sols[j1][0]
    elif len(feas) == 3:
        total = sum((s[0] for s in sols), Fraction(0))
        cost = [old_w[i] + total / 2 - sols[i][0] for i in range(3)]

    new_edges = tuple(
        inst.add_edge(x, b_info[i][2], cost[i], sign[i]) for i in range(3)
    )
    # a tour through x uses the two new edges of a pairing i that has a path
    lifts = []
    for i in feas:
        j, k = [t for t in range(3) if t != i]
        old = (b_info[j][0], b_info[k][0]) + tuple(sorted(sols[i][1][0]))
        lifts.append((frozenset((new_edges[j], new_edges[k])), old))
    log.append(Rewrite("3cut", tuple(sorted(xs)), new_edges, tuple(lifts)))


# -- 4-cut replacement ----------------------------------------------------------------


def _four_cut_anchors(inst: Instance, xs, forced_cut) -> list[int]:
    """The vertex of ``xs`` each forced boundary edge attaches to, in edge
    order."""
    anchors = []
    for e in sorted(forced_cut):
        u, v = inst.endpoints(e)
        anchors.append(u if u in xs else v)
    return anchors


def _four_cut_problems(anchors):
    """The three disjoint-path pairings for a 4-forced-edge boundary."""
    x4 = anchors[3]
    return [
        [(anchors[i], x4), (anchors[j1], anchors[j2])]
        for i, (j1, j2) in ((0, (1, 2)), (1, (0, 2)), (2, (0, 1)))
    ]


def is_4cut_reducible(inst: Instance, x_vertices) -> bool:
    """True iff the vertex set sits behind four forced edges with distinct
    attachments and at least one of the three pairings has no solution."""
    xs = frozenset(x_vertices)
    if len(xs) > conn.SMALL_SIDE:
        return False
    cf, cu = inst.cut(xs)
    if len(cf) != 4 or cu:
        return False
    anchors = _four_cut_anchors(inst, xs, cf)
    if len(set(anchors)) != 4:
        return False
    for pairs in _four_cut_problems(anchors):
        if solve_internal_paths(inst, xs, pairs) is None:
            return True
    return False


def reduce_4cut(inst: Instance, log: list, x_vertices):
    """Replace a 4-forced-boundary subgraph by nothing, a pair of forced
    edges, or a 4-cycle, depending on which internal pairings survive."""
    xs = frozenset(x_vertices)
    cf, cu = inst.cut(xs)
    if len(cf) != 4 or cu:
        raise GraphError("not a pure forced 4-cut")
    anchors = _four_cut_anchors(inst, xs, cf)
    if len(set(anchors)) != 4:
        raise GraphError("attachments not distinct")
    probs = _four_cut_problems(anchors)
    sols = [solve_internal_paths(inst, xs, p) for p in probs]
    feas = [i for i in range(3) if sols[i] is not None]
    if len(feas) >= 3:
        raise GraphError("subgraph is not 4-cut reducible")

    for e in _internal_edges(inst, xs):
        inst.delete_edge(e)
    for v in sorted(xs - set(anchors)):
        inst.remove_vertex(v)

    x4 = anchors[3]
    new_edges: tuple = ()
    lifts: tuple = ()
    if len(feas) == 1:
        (i0,) = feas
        pairs = probs[i0]
        cost0 = inst.tour_cost(sols[i0][1][0])
        cost1 = inst.tour_cost(sols[i0][1][1])
        e_a = inst.add_edge(pairs[0][0], pairs[0][1], cost0, forced=True)
        e_b = inst.add_edge(pairs[1][0], pairs[1][1], cost1, forced=True)
        new_edges = (e_a, e_b)
        union = frozenset(sols[i0][1][0]) | frozenset(sols[i0][1][1])
        lifts = ((frozenset(new_edges), tuple(sorted(union))),)
    elif len(feas) == 2:
        i1, i2 = feas
        (j,) = [t for t in range(3) if t not in feas]
        # cycle anchors[i1] - x4 - anchors[i2] - anchors[j] - back
        a_i1, a_i2, a_j = anchors[i1], anchors[i2], anchors[j]
        s1 = sols[i1]
        s2 = sols[i2]

        # path 0 of pairing i joins anchors[i] to x4, path 1 the other two
        e1 = inst.add_edge(a_i1, x4, inst.tour_cost(s1[1][0]), forced=False)
        e2 = inst.add_edge(x4, a_i2, inst.tour_cost(s2[1][0]), forced=False)
        e3 = inst.add_edge(a_i2, a_j, inst.tour_cost(s1[1][1]), forced=False)
        e4 = inst.add_edge(a_j, a_i1, inst.tour_cost(s2[1][1]), forced=False)
        new_edges = (e1, e2, e3, e4)
        union1 = frozenset(s1[1][0]) | frozenset(s1[1][1])
        union2 = frozenset(s2[1][0]) | frozenset(s2[1][1])
        lifts = (
            (frozenset((e1, e3)), tuple(sorted(union1))),
            (frozenset((e2, e4)), tuple(sorted(union2))),
        )
    log.append(Rewrite("4cut", tuple(sorted(xs)), new_edges, lifts))


# -- small-cut candidate search --------------------------------------------------------
#
# At this stage the instance is cubic, the whole graph and every component are
# 2-edge-connected, every component's forced boundary is even and no
# cut-forced edge remains.  A 3-edge boundary is then either two unforced
# edges of one component plus one forced edge, or three unforced edges of one
# component: any other kind needs a component with an odd boundary or a bridge
# inside a component, which the earlier screens rule out.  The whole
# graph's labels decide which edge sets are cuts of the whole graph: an
# edge set is a cut iff its labels XOR to 0, so the forced partners of a
# disconnecting pair e, f of a component are the forced edges labelled
# label[e] ^ label[f], tried in ascending order, and the component's
# triples are its three-edge cuts of the whole graph.  A pair's sides are
# tried from a vertex of each of its pieces in the component, a triple's
# from both ends of its lowest edge, eu first.  The whole graph is
# bridgeless, so each such cut is a bond, and each side is read off the
# whole graph's tree: its size (``connectivity.side_size``) first, and its
# vertices (``connectivity.tree_side``) only if a rewrite accepts that
# size.  A side holds the component piece of its start, so the size test
# also bounds that piece; and a one-vertex piece of a triple has no forced
# edge, so its side is that vertex, which the test rejects.  A triple whose
# three edges share an end is that vertex's boundary: its sides have 1 and
# n - 1 vertices, and the size test accepts the larger only when n <= 4, so
# such a star is sized only then.


def find_small_cut_candidate(inst: Instance, rejected=frozenset()):
    """First applicable small-cut rewrite: ('3cut', X) with |boundary| = 3,
    else ('4cut', X) for a 4-cut-reducible X, else None.  X has at most
    ``SMALL_SIDE`` vertices and at least 2; sets in ``rejected`` are skipped.

    The whole graph must be connected and bridgeless, as
    ``check_feasibility`` makes it, and no unforced edge may lie in a
    2-edge cut of it, as ``find_reducible_edge`` finds before the fixpoint
    asks.
    """
    cap = conn.SMALL_SIDE
    comps = inst.u_components()
    # a rewrite needs 2 <= |X|, and a lone-vertex complement is allowed
    # only for a tiny X (the terminal triangle-against-vertex case);
    # otherwise the cut is just some vertex's boundary seen from afar
    top = inst.n_alive() - 2
    # --- 3-cuts ---
    label = inst.memo(conn.whole_labels)
    tree, index = inst.memo(alive_tree), inst.memo(conn.whole_tree_index)
    partners: dict[int, list[int]] = {}
    for g in inst.forced_edges():
        partners.setdefault(label[g], []).append(g)
    for comp in comps:
        if comp.trivial or len(comp.edges) < 2:
            continue
        pairs2, triples3 = conn.component_cut_structure(inst, comp)
        # two unforced boundary edges plus one forced, then three unforced
        low, n = min(comp.vertices), len(comp.vertices)
        sides = [
            (start, (e, f, g))
            for e, f, v, k in pairs2
            for start, size in ((low, n - k), (v, k))
            if size <= cap
            for g in partners.get(label[e] ^ label[f], ())
        ]
        sides += [
            (start, (e, f, h))
            for e, f, h in triples3
            if top <= 2 or not _shared_end(inst, e, f, h)
            for start in (inst.eu[e], inst.ev[e])
        ]
        for start, cut in sides:
            k = conn.side_size(tree, index, cut, start)
            if 2 <= k <= cap and (k <= top or k <= 3):
                xs = conn.tree_side(tree, index, cut, start)
                if xs not in rejected:
                    return ("3cut", xs)
    # --- 4-cuts: unions of whole components behind four forced edges ---
    node_of = {v: i for i, comp in enumerate(comps) for v in comp.vertices}
    cg_adj: dict[int, set[int]] = {i: set() for i in range(len(comps))}
    for g in inst.forced_edges():
        a, b = node_of[inst.eu[g]], node_of[inst.ev[g]]
        if a != b:
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
        if is_4cut_reducible(inst, xs):
            return ("4cut", xs)
    return None


def _shared_end(inst: Instance, e: int, f: int, h: int) -> bool:
    """Whether the three edges have an end in common."""
    ends = {inst.eu[e], inst.ev[e]}
    return bool(ends.intersection(inst.endpoints(f), inst.endpoints(h)))


def _connected_subsets(adjacency: dict, weights: list, cap: int) -> set:
    """Connected node subsets with total weight at most ``cap``: the single
    nodes within it, then level by level every subset of the last level
    grown by one neighbour while the weight stays within it."""
    level = {frozenset((v,)): weights[v] for v in adjacency if weights[v] <= cap}
    out = set(level)
    while level:
        level = {
            s | {n}: w + weights[n]
            for s, w in level.items()
            for v in s
            for n in adjacency[v]
            if n not in s and w + weights[n] <= cap
        }
        out.update(level)
    return out


# -- fixpoint driver --------------------------------------------------------------------


def reduce_to_fixpoint(inst: Instance, log: list, audit=None):
    """Apply every reduction until none fires, and return the verdict: None
    while the node is still open, the infeasible ``Feasibility`` that
    stopped it, or an optimal ``TourResult`` of the reduced instance.  The
    instance is mutated in place, every entry is appended to ``log``, and
    ``audit`` (an ``analysis.Observer``) sees every step."""
    if audit is None:
        audit = analysis.NO_OBSERVER
    outcome = _reduce_loop(inst, log, audit)
    audit.settle_cascade(inst, outcome)
    return outcome


def _reduce_loop(inst: Instance, log: list, audit):
    while True:
        # A pass ends at the first rule that changes the instance, and no
        # rule or check touches it without reporting a change (a 3-cut is
        # rewritten on a copy, which becomes the instance only if the
        # measure accepts it), so one reading of mu serves the pass.
        before = audit.measure_of(inst)
        # Rules are called through the module's globals, so that rules
        # replaced on the module (by a tracer, say) are the ones called.
        # Each returns (changed, verdict-or-None) and reports changed
        # whenever it has a verdict.
        kind = "contract"
        changed, outcome = saturation_and_contraction(inst, log)
        if not changed:
            feas = check_feasibility(inst)
            if feas.infeasible:
                return feas
            if inst.n_alive() == 2:
                return solve_two_vertices(inst)
            kind = "parallel"
            changed, outcome = reduce_parallel(inst, log)
        if not changed:
            # saturation, the screen and the parallel rule hold at every
            # vertex now, so from here on they need visit only the
            # vertices that later rewrites touch
            inst.rest()
            kind = "normalize"
            changed, outcome = eliminate_bridges(inst, log)
        if changed:
            audit.step(kind, before, inst, outcome)
            if outcome is not None:
                return outcome
            continue

        red = find_reducible_edge(inst)
        if red is not None:
            audit.reducible_circuit(inst, red, before)
            feas = process_reducible_circuit(inst, log, red)
            outcome = feas if feas.infeasible else None
            audit.step("reducible_circuit", before, inst, outcome)
            if outcome is not None:
                return outcome
            continue

        if not _apply_small_cut(inst, log, audit, before):
            return None


def _apply_small_cut(inst: Instance, log: list, audit, before) -> bool:
    """Apply the first small-cut rewrite that does not raise the measure;
    False when there is none.  ``before`` is the observer's reading of mu
    for ``inst``."""
    rejected: set = set()
    while True:
        cand = find_small_cut_candidate(inst, rejected)
        if cand is None:
            return False
        kind, xs = cand
        if kind == "3cut":
            if not _measure_safe_3cut(inst, log, xs):
                rejected.add(xs)
                continue
        else:
            reduce_4cut(inst, log, xs)
        audit.step(kind, before, inst, None, detail=len(xs))
        return True


def _measure_safe_3cut(inst: Instance, log: list, xs) -> bool:
    """Rewrite a 3-cut only if that does not raise the search measure, and
    say whether it did.

    Slicing into a settled 4-cycle component can turn its negative component
    weight positive; such rewrites are skipped (branching handles the region
    instead), keeping every reduction step monotone.  The rewrite runs once,
    on a copy: an accepted copy's state, with the facts that reading its
    measure memoized, becomes the instance's, and its log entry is appended
    to ``log``; a rejected one leaves the instance and the log untouched.
    """
    probe, scratch = inst.copy(), []
    reduce_3cut(probe, scratch, xs)
    cfg = analysis.DEFAULT_CONFIG
    if analysis.measure(cfg, probe) > analysis.measure(cfg, inst):
        return False
    inst.take_over(probe)
    (rewrite,) = scratch
    log.append(rewrite)
    return True


# -- solution lifting --------------------------------------------------------------------


def expand_solution(log: list, tour_edges) -> frozenset:
    """Replay the log backwards, mapping the edges of a tour of the
    rewritten instance to those of a tour, of the same cost, of the instance
    the log started from.  Decisions rename nothing; through each rewrite,
    the new edges the tour uses give way to the old edges their lift
    names."""
    edges = set(tour_edges)
    for entry in reversed(log):
        if not isinstance(entry, Rewrite):
            continue
        used = frozenset(e for e in entry.new_edges if e in edges)
        old = dict(entry.lifts).get(used)
        if old is None:
            raise GraphError(f"tour crosses a replaced {entry.kind} in a way with no lift")
        edges -= used
        edges.update(old)
    return frozenset(edges)

"""Branch-and-search driver.

One branching primitive: pick a circuit, include or delete a pivot edge, and
propagate the decision deterministically along the circuit (a block piece
must keep an even number of pinned boundary edges).  Between branchings the
instance is reduced to a fixpoint, whose verdict is None (still open), an
infeasible ``Feasibility`` or an optimal ``TourResult``.  Once every unforced
component of an open node is a settled 4-cycle, the remaining choice is one
opposite edge pair per 4-cycle, solved in polynomial time by cheapest pairs
plus a minimum spanning tree of pair swaps; that ``TourResult`` is one more
verdict.  A node with a verdict is a leaf, and its tour lifts back through
the node's log along the same path whichever rule found it.
"""

from __future__ import annotations

from fractions import Fraction

from . import connectivity as conn
from . import reductions as red
from .analysis import NO_OBSERVER
from .graph import GraphError, Instance, UComponent
from .reductions import INFEASIBLE, OPTIMAL, TourResult

INFEASIBLE_RESULT = TourResult(INFEASIBLE)


def circuit_procedure(
    inst: Instance,
    log: None,
    comp: UComponent,
    circuit: conn.Circuit,
    pivot: int,
    action: str,
) -> red.Feasibility:
    """Determine every edge of the circuit, starting with the pivot.

    Walking from the pivot, the next edge copies the current decision across
    an even block and flips it across an odd one; the wrap-around must agree
    with the pivot or the instance is infeasible.  Only circuit edges are
    touched.

    ``log`` is not read, and callers pass None: decisions rename no edge,
    so they leave no log entry.  It stays only because the benchmark's
    tests stub this function with these six positional parameters; the
    benchmark change that hands the branch circuit's blocks over here
    (ROADMAP item 11) drops it.
    """
    if circuit.trivial:
        return red.apply_decision(inst, circuit.edges[0], action)
    blocks = conn.blocks_along(inst, comp, circuit)
    p = len(circuit.edges)
    start = circuit.edges.index(pivot)
    order = [circuit.edges[(start + i) % p] for i in range(p)]
    parities = [blocks[(start + i) % p].odd for i in range(p)]
    decisions = [action == "include"]
    for i in range(p - 1):
        decisions.append(decisions[-1] ^ parities[i])
    if decisions[-1] ^ parities[-1] != decisions[0]:
        return red.Feasibility(red.INFEASIBLE, "odd_block_count")
    status = red.OK
    for eid, inc in zip(order, decisions):
        st = red.apply_decision(inst, eid, "include" if inc else "delete")
        if st.infeasible:
            status = st
    return status


def select_branch_circuit(inst: Instance):
    """Deterministic branch target for the two-step policy, from one pass
    over the first branchable component's circuits: prefer a circuit
    carrying only single-vertex or settled-critical blocks; otherwise branch
    at a minimal normal block among those the pass met, pivoting on the
    circuit edge before it, so that propagation crosses it first."""
    for comp in inst.u_components():
        if comp.trivial or conn.is_four_cycle_shape(inst, comp):
            continue
        circuits = conn.circuit_partition(inst, comp)
        nontrivial = [c for c in circuits if not c.trivial]
        normal = []  # (circuit, i, block) of every normal block, in order
        for circuit in nontrivial:
            blocks = conn.blocks_along(inst, comp, circuit)
            kinds = [conn.classify_block(inst, b) for b in blocks]
            if all(k in (conn.TRIVIAL, conn.TWO_PENDENT_CRITICAL) for k in kinds):
                return comp, circuit, circuit.edges[0]
            normal += [
                (circuit, i, b) for i, (b, k) in enumerate(zip(blocks, kinds)) if k == conn.NORMAL
            ]
        if nontrivial:
            circuit, i, _ = conn.find_minimal_normal_block(inst, normal)
            return comp, circuit, circuit.edges[i]
        # fully 3-edge-connected component: branch on a single edge
        return comp, circuits[0], circuits[0].edges[0]
    raise GraphError("no branchable component")


def select_branch_circuit_simple(inst: Instance):
    """One-step policy: lowest circuit containing a single-vertex block."""
    fallback = None
    for comp in inst.u_components():
        if comp.trivial or conn.is_four_cycle_shape(inst, comp):
            continue
        circuits = conn.circuit_partition(inst, comp)
        for circuit in circuits:
            if circuit.trivial:
                continue
            blocks = conn.blocks_along(inst, comp, circuit)
            if any(len(b.vertices) == 1 for b in blocks):
                return comp, circuit, circuit.edges[0]
            if fallback is None:
                fallback = (comp, circuit, circuit.edges[0])
        if fallback is None:
            fallback = (comp, circuits[0], circuits[0].edges[0])
    if fallback is None:
        raise GraphError("no branchable component")
    return fallback


# -- base case: every unforced component a settled 4-cycle ---------------------


def _four_cycle_matchings(inst: Instance, comp: UComponent):
    """The two opposite edge pairs of a 4-cycle component, in cycle order."""
    o = conn._cycle_order(inst, comp.vertices)
    return (o[0], o[2]), (o[1], o[3])


def solve_all_4cycles(inst: Instance) -> TourResult:
    """Optimal tour when every unforced component is a settled 4-cycle.

    Each 4-cycle contributes one of its two opposite edge pairs (an adjacent
    pair would give some vertex tour degree 3).  Start from the cheaper pair
    everywhere; a swap inside one 4-cycle merges the two degree-2-cover
    cycles holding its current pair, so a minimum spanning tree of such
    swaps, weighted by cost increase, connects everything optimally.
    """
    four_cycles = []
    for comp in inst.u_components():
        if comp.trivial:
            if inst.degrees(next(iter(comp.vertices)))[1] != 2:
                raise GraphError("loose vertex outside any 4-cycle")
            continue
        if not conn.is_four_cycle_shape(inst, comp):
            raise GraphError("component is not a 4-cycle")
        for v in comp.vertices:
            if inst.degrees(v)[1] != 1:
                raise GraphError("4-cycle vertex without its pinned edge")
        four_cycles.append(comp)
    forced = inst.forced_edges()
    if not four_cycles:
        if inst.is_tour(forced):
            return TourResult(OPTIMAL, inst.tour_cost(forced), frozenset(forced))
        return INFEASIBLE_RESULT

    matchings = []
    chosen = []
    for comp in four_cycles:
        m0, m1 = _four_cycle_matchings(inst, comp)
        c0, c1 = inst.tour_cost(m0), inst.tour_cost(m1)
        if (c1, m1) < (c0, m0):
            m0, m1, c0, c1 = m1, m0, c1, c0
        matchings.append((m0, m1, c1 - c0))
        chosen.append(0)

    def cover_edges():
        out = list(forced)
        for idx, (m0, m1, _) in enumerate(matchings):
            out.extend(m1 if chosen[idx] else m0)
        return out

    # every alive vertex has two cover edges, so the cover is a union of
    # cycles; Kruskal over the swaps, cheapest first, joins them
    parent = {v: v for v in inst.alive_vertices()}

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    def union(a, b) -> bool:
        a, b = find(a), find(b)
        parent[a] = b
        return a != b

    pieces = len(parent) - sum(union(inst.eu[e], inst.ev[e]) for e in cover_edges())
    for idx in sorted(range(len(matchings)), key=lambda i: (matchings[i][2], i)):
        m0 = matchings[idx][0]
        if union(inst.eu[m0[0]], inst.eu[m0[1]]):
            chosen[idx] = 1
            pieces -= 1
    if pieces > 1:
        return INFEASIBLE_RESULT
    edges = frozenset(cover_edges())
    if not inst.is_tour(edges):
        raise GraphError("4-cycle assembly failed")
    return TourResult(OPTIMAL, inst.tour_cost(edges), edges)


def _base_case_ready(inst: Instance) -> bool:
    for comp in inst.u_components():
        if comp.trivial:
            continue
        if not conn.is_four_cycle_shape(inst, comp):
            return False
    return True


# -- recursive driver ------------------------------------------------------------


def solve(inst: Instance, strategy: str = "full", audit=None) -> TourResult:
    """Exact minimum tour (or infeasibility) of a forced-TSP instance.
    ``audit``, an ``analysis.Observer``, sees every node, step and branch."""
    if strategy not in ("full", "simple"):
        raise GraphError(f"unknown strategy {strategy!r}")
    if audit is None:
        audit = NO_OBSERVER
    audit.start(inst)
    result, _ = _solve_rec(inst.copy(), strategy, audit)
    if result.optimal:
        expect = inst.tour_cost(result.edges)
        if expect != result.cost or not inst.is_tour(result.edges):
            raise GraphError("internal error: lifted tour fails verification")
    return result


def _solve_rec(inst: Instance, strategy, audit):
    """Returns (result, measure of this node's reduced instance)."""
    audit.enter_node()
    log: list = []
    outcome = red.reduce_to_fixpoint(inst, log, audit)
    mu = audit.measure_of(inst, outcome)
    if outcome is None and _base_case_ready(inst):
        outcome = solve_all_4cycles(inst)
    if outcome is not None:
        audit.leaf()
        if outcome.infeasible:
            return INFEASIBLE_RESULT, mu
        return TourResult(OPTIMAL, outcome.cost, red.expand_solution(log, outcome.edges)), mu

    if strategy == "simple":
        comp, circuit, pivot = select_branch_circuit_simple(inst)
    else:
        comp, circuit, pivot = select_branch_circuit(inst)

    results = []
    child_mus = []
    for action in ("include", "delete"):
        child = inst.copy()
        # decisions rename no edge and log nothing, so a tour of the child
        # is a tour of this node's instance as it stands
        feas = circuit_procedure(child, None, comp, circuit, pivot, action)
        if feas.infeasible:
            results.append(INFEASIBLE_RESULT)
            child_mus.append(Fraction(0))
            audit.enter_node()
            audit.leaf()
            continue
        sub, child_mu = _solve_rec(child, strategy, audit)
        child_mus.append(child_mu)
        results.append(sub)
    audit.branch(mu, child_mus)

    best = None
    for sub in results:
        if sub.optimal and (best is None or sub.cost < best.cost):
            best = sub
    if best is None:
        return INFEASIBLE_RESULT, mu
    return TourResult(OPTIMAL, best.cost, red.expand_solution(log, best.edges)), mu

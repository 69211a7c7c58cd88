"""Branch-and-search driver.

One branching primitive: pick a circuit, include or delete a pivot edge, and
propagate the decision deterministically along the circuit (a block piece
must keep an even number of pinned boundary edges).  Between branchings the
instance is reduced to a fixpoint; once every unforced component is a settled
4-cycle the remaining choice is one opposite edge pair per 4-cycle, solved in
polynomial time by cheapest pairs plus a minimum spanning tree of pair swaps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import connectivity as conn
from . import reductions as red
from .graph import GraphError, Instance, UComponent

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class Decision:
    edge: int
    action: str  # "include" | "delete"


@dataclass(frozen=True)
class TourResult:
    status: str
    cost: Optional[Fraction] = None
    edges: frozenset = frozenset()

    @property
    def optimal(self) -> bool:
        return self.status == OPTIMAL


INFEASIBLE_RESULT = TourResult(INFEASIBLE)


def circuit_procedure(
    inst: Instance,
    log: red.ReductionLog,
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
    """
    if circuit.trivial:
        return red.apply_decision(inst, log, circuit.edges[0], action)
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
        st = red.apply_decision(inst, log, eid, "include" if inc else "delete")
        if st.infeasible:
            status = st
    return status


def _pivot_at_block(circuit: conn.Circuit, blocks, target) -> int:
    """Pivot edge so propagation crosses ``target`` first (one of the two
    circuit edges on its boundary)."""
    for i in range(len(circuit.edges)):
        if blocks[i].vertices == target.vertices:
            return circuit.edges[i]
    raise GraphError("block not on circuit")


def select_branch_circuit(inst: Instance):
    """Deterministic branch target for the two-step policy: prefer a circuit
    carrying only single-vertex or settled-critical blocks; otherwise branch
    at a minimal normal block, pivoting on one of its boundary edges."""
    for comp in inst.u_components():
        if comp.trivial or conn.is_four_cycle_shape(inst, comp):
            continue
        circuits = conn.circuit_partition(inst, comp)
        nontrivial = [c for c in circuits if not c.trivial]
        for circuit in nontrivial:
            blocks = conn.blocks_along(inst, comp, circuit)
            kinds = [conn.classify_block(inst, b) for b in blocks]
            if all(k in (conn.TRIVIAL, conn.TWO_PENDENT_CRITICAL) for k in kinds):
                return comp, circuit, circuit.edges[0]
        if nontrivial:
            circuit, block = conn.find_minimal_normal_block(inst, comp)
            blocks = conn.blocks_along(inst, comp, circuit)
            return comp, circuit, _pivot_at_block(circuit, blocks, block)
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
    verts = sorted(comp.vertices)
    start = verts[0]
    e0 = min(e for e in comp.edges if start in inst.endpoints(e))
    order_e = [e0]
    cur = inst.other_end(e0, start)
    prev = e0
    while len(order_e) < 4:
        nxt = next(e for e in comp.edges if e != prev and cur in inst.endpoints(e))
        order_e.append(nxt)
        cur = inst.other_end(nxt, cur)
        prev = nxt
    m0 = (order_e[0], order_e[2])
    m1 = (order_e[1], order_e[3])
    return m0, m1


def _cycle_cover_labels(inst: Instance, chosen_edges):
    """Label vertices by the cycle of the degree-2 cover they lie on, or
    return None when the cover is not a disjoint union of cycles."""
    deg = {v: [] for v in inst.alive_vertices()}
    for e in chosen_edges:
        deg[inst.eu[e]].append(e)
        deg[inst.ev[e]].append(e)
    if any(len(es) != 2 for es in deg.values()):
        return None, 0
    label = {}
    cycles = 0
    for v in deg:
        if v in label:
            continue
        cycles += 1
        label[v] = cycles
        prev_edge = None
        cur = v
        while True:
            e = next(e for e in deg[cur] if e != prev_edge)
            nxt = inst.other_end(e, cur)
            if nxt == v:
                break
            label[nxt] = cycles
            prev_edge, cur = e, nxt
    return label, cycles


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

    label, k = _cycle_cover_labels(inst, cover_edges())
    if label is None:
        return INFEASIBLE_RESULT
    if k > 1:
        swaps = []
        for idx, (m0, m1, delta) in enumerate(matchings):
            la = label[inst.eu[m0[0]]]
            lb = label[inst.eu[m0[1]]]
            if la != lb:
                swaps.append((delta, idx, la, lb))
        swaps.sort()
        parent = list(range(k + 1))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        merged = 1
        for delta, idx, la, lb in swaps:
            ra, rb = find(la), find(lb)
            if ra != rb:
                parent[ra] = rb
                chosen[idx] = 1
                merged += 1
        if merged < k:
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
    """Exact minimum tour (or infeasibility) of a forced-TSP instance."""
    if strategy not in ("full", "simple"):
        raise GraphError(f"unknown strategy {strategy!r}")
    conn.clear_caches()
    if audit is not None:
        audit.start(inst)
    result, _ = _solve_rec(inst.copy(), strategy, audit)
    if audit is not None:
        audit.finish(result)
    if result.optimal:
        expect = inst.tour_cost(result.edges)
        if expect != result.cost or not inst.is_tour(result.edges):
            raise GraphError("internal error: lifted tour fails verification")
    return result


def _solve_rec(inst: Instance, strategy, audit):
    """Returns (result, measure of this node's reduced instance)."""
    if audit is not None:
        audit.enter_node()
    log = red.ReductionLog()
    inst, log, outcome = red.reduce_to_fixpoint(inst, log, audit)
    mu = audit.measure_of(inst, outcome) if audit is not None else None
    if outcome.infeasible:
        if audit is not None:
            audit.leaf()
        return INFEASIBLE_RESULT, mu
    if outcome.solved:
        if audit is not None:
            audit.leaf()
        edges, cost = red.expand_solution(
            log, outcome.solution.edges, outcome.solution.cost
        )
        return TourResult(OPTIMAL, cost, edges), mu
    if _base_case_ready(inst):
        if audit is not None:
            audit.leaf()
        base = solve_all_4cycles(inst)
        if not base.optimal:
            return INFEASIBLE_RESULT, mu
        edges, cost = red.expand_solution(log, base.edges, base.cost)
        return TourResult(OPTIMAL, cost, edges), mu

    if strategy == "simple":
        comp, circuit, pivot = select_branch_circuit_simple(inst)
    else:
        comp, circuit, pivot = select_branch_circuit(inst)

    results = []
    child_mus = []
    for action in ("include", "delete"):
        child = inst.copy()
        clog = red.ReductionLog()
        feas = circuit_procedure(child, clog, comp, circuit, pivot, action)
        if feas.infeasible:
            results.append(INFEASIBLE_RESULT)
            child_mus.append(Fraction(0))
            if audit is not None:
                audit.enter_node()
                audit.leaf()
            continue
        sub, child_mu = _solve_rec(child, strategy, audit)
        child_mus.append(child_mu)
        if sub.optimal:
            edges, cost = red.expand_solution(clog, sub.edges, sub.cost)
            sub = TourResult(OPTIMAL, cost, edges)
        results.append(sub)
    if audit is not None:
        audit.branch(mu, child_mus)

    best = None
    for sub in results:
        if sub.optimal and (best is None or sub.cost < best.cost):
            best = sub
    if best is None:
        return INFEASIBLE_RESULT, mu
    edges, cost = red.expand_solution(log, best.edges, best.cost)
    return TourResult(OPTIMAL, cost, edges), mu

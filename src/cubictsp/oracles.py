"""Independent reference solvers.

``held_karp`` is the classic subset dynamic program (no forced edges);
``exhaustive_forced`` enumerates Hamiltonian cycles edge by edge so parallel
edges and forced-edge containment are handled exactly.  Both work on the
same exact rational weights as the main solver: weights are scaled to a
common integer denominator first.

The slow references that tests hold the solver's own primitives against
live here too: ``brute_force_4cycles`` for the 4-cycle base case,
``replay`` for the reduction log and ``_disconnects`` for cut pairs.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Optional

from . import connectivity as conn
from .graph import GraphError, Instance
from .reductions import (
    ContractPath,
    DeleteEdge,
    FourCut,
    IncludeEdge,
    ReductionLog,
    ThreeCut,
    reduce_3cut,
    reduce_4cut,
)
from .search import INFEASIBLE_RESULT, OPTIMAL, TourResult, _four_cycle_matchings

try:  # the integer DP table is 100x faster through numpy when it fits
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

HELD_KARP_LIMIT = 24
EXHAUSTIVE_LIMIT = 12


def _scale(inst: Instance, eids):
    denom = 1
    for e in eids:
        denom = denom * inst.ew[e].denominator // gcd(denom, inst.ew[e].denominator)
    return denom, {e: int(inst.ew[e] * denom) for e in eids}


def held_karp(inst: Instance) -> TourResult:
    """Exact optimum over all Hamiltonian cycles, forced set empty."""
    if inst.forced_edges():
        raise GraphError("dynamic program requires an empty forced set")
    verts = inst.alive_vertices()
    n = len(verts)
    if n > HELD_KARP_LIMIT:
        raise GraphError(f"instance too large for the dynamic program (n={n})")
    if not inst.is_connected():
        return INFEASIBLE_RESULT
    if n == 2:
        from .reductions import solve_two_vertices

        out = solve_two_vertices(inst)
        if out.infeasible or out.solution is None:
            return INFEASIBLE_RESULT
        return TourResult(OPTIMAL, out.solution.cost, out.solution.edges)
    remap = {v: i for i, v in enumerate(verts)}
    denom, scaled = _scale(inst, inst.alive_edges())
    big = None
    # min weight and representative edge id per vertex pair
    wmat = [[None] * n for _ in range(n)]
    emat = [[None] * n for _ in range(n)]
    for e in inst.alive_edges():
        a, b = remap[inst.eu[e]], remap[inst.ev[e]]
        w = scaled[e]
        for i, j in ((a, b), (b, a)):
            if wmat[i][j] is None or w < wmat[i][j]:
                wmat[i][j] = w
                emat[i][j] = e
    if _np is not None and _fits_int64(wmat, n):
        cost, order = _held_karp_numpy(wmat, n)
    else:
        cost, order = _held_karp_python(wmat, n)
    if cost is None:
        return INFEASIBLE_RESULT
    edges = []
    for i in range(len(order)):
        a, b = order[i], order[(i + 1) % len(order)]
        edges.append(emat[a][b])
    return TourResult(OPTIMAL, Fraction(cost, denom), frozenset(edges))


def _fits_int64(wmat, n) -> bool:
    top = max((w for row in wmat for w in row if w is not None), default=0)
    return top * (n + 1) < 2**62


_INF = 2**62


def _held_karp_numpy(wmat, n):
    np = _np
    W = np.full((n, n), _INF, dtype=np.int64)
    for i in range(n):
        for j in range(n):
            if wmat[i][j] is not None:
                W[i, j] = wmat[i][j]
    size = 1 << (n - 1)  # vertex n-1 is the anchor
    dp = np.full((size, n - 1), _INF, dtype=np.int64)
    parent = np.full((size, n - 1), -1, dtype=np.int16)
    for j in range(n - 1):
        if wmat[n - 1][j] is not None:
            dp[1 << j, j] = W[n - 1, j]
    for mask in range(size):
        row = dp[mask]
        live = row < _INF
        if not live.any():
            continue
        cand = row[:, None] + W[: n - 1, : n - 1]
        cand[~live] = _INF
        best = cand.min(axis=0)
        arg = cand.argmin(axis=0)
        for j in range(n - 1):
            if mask >> j & 1:
                continue
            nmask = mask | (1 << j)
            if best[j] < dp[nmask, j]:
                dp[nmask, j] = best[j]
                parent[nmask, j] = arg[j]
    full = size - 1
    best_cost = None
    best_j = None
    for j in range(n - 1):
        if dp[full, j] >= _INF or wmat[j][n - 1] is None:
            continue
        total = int(dp[full, j]) + wmat[j][n - 1]
        if best_cost is None or total < best_cost:
            best_cost, best_j = total, j
    if best_cost is None:
        return None, None
    order = [n - 1]
    mask, j = full, best_j
    while j != -1 and mask:
        order.append(j)
        pj = int(parent[mask, j])
        mask ^= 1 << j
        j = pj
    order.reverse()
    return best_cost, order


def _held_karp_python(wmat, n):
    size = 1 << (n - 1)
    dp = [dict() for _ in range(size)]
    for j in range(n - 1):
        if wmat[n - 1][j] is not None:
            dp[1 << j][j] = (wmat[n - 1][j], -1)
    for mask in range(size):
        cur = dp[mask]
        if not cur:
            continue
        for i, (ci, _) in list(cur.items()):
            row = wmat[i]
            for j in range(n - 1):
                if mask >> j & 1 or row[j] is None:
                    continue
                nmask = mask | (1 << j)
                cand = ci + row[j]
                old = dp[nmask].get(j)
                if old is None or cand < old[0]:
                    dp[nmask][j] = (cand, i)
    full = size - 1
    best = None
    for j, (cj, _) in dp[full].items():
        if wmat[j][n - 1] is None:
            continue
        total = cj + wmat[j][n - 1]
        if best is None or total < best[0]:
            best = (total, j)
    if best is None:
        return None, None
    order = [n - 1]
    mask, j = full, best[1]
    while j != -1:
        order.append(j)
        _, pj = dp[mask][j]
        mask ^= 1 << j
        j = pj
    order.reverse()
    return best[0], order


def exhaustive_forced(inst: Instance) -> TourResult:
    """Minimum tour by edge-level cycle enumeration, honouring forced edges."""
    verts = inst.alive_vertices()
    n = len(verts)
    if n > EXHAUSTIVE_LIMIT:
        raise GraphError(f"instance too large for exhaustive search (n={n})")
    if not inst.is_connected():
        return INFEASIBLE_RESULT
    forced = frozenset(inst.forced_edges())
    for v in verts:
        if inst.degrees(v)[1] > 2:
            return INFEASIBLE_RESULT
    start = verts[0]
    best: list = [None]

    def walk(cur, visited, used, cost):
        if best[0] is not None and cost >= best[0][0]:
            return
        if len(visited) == n:
            for e in inst.adj[cur]:
                if e not in used and inst.other_end(e, cur) == start:
                    total = cost + inst.ew[e]
                    if forced <= used | {e}:
                        if best[0] is None or total < best[0][0]:
                            best[0] = (total, used | {e})
            return
        for e in inst.adj[cur]:
            if e in used:
                continue
            w = inst.other_end(e, cur)
            if w in visited:
                continue
            walk(w, visited | {w}, used | {e}, cost + inst.ew[e])

    walk(start, {start}, frozenset(), Fraction(0))
    if best[0] is None:
        return INFEASIBLE_RESULT
    return TourResult(OPTIMAL, best[0][0], frozenset(best[0][1]))


# -- references for the solver's own primitives ------------------------------


def brute_force_4cycles(inst: Instance, limit: int = 20) -> TourResult:
    """Reference solver: try all opposite-pair combinations."""
    four_cycles = [
        comp
        for comp in inst.u_components()
        if not comp.trivial
    ]
    for comp in four_cycles:
        if not conn.is_four_cycle_shape(inst, comp):
            raise GraphError("component is not a 4-cycle")
    if len(four_cycles) > limit:
        raise GraphError(f"too many 4-cycles for brute force ({len(four_cycles)})")
    forced = inst.forced_edges()
    if not four_cycles:
        if inst.is_tour(forced):
            return TourResult(OPTIMAL, inst.tour_cost(forced), frozenset(forced))
        return INFEASIBLE_RESULT
    pairs = [_four_cycle_matchings(inst, comp) for comp in four_cycles]
    best: Optional[TourResult] = None
    for mask in range(1 << len(four_cycles)):
        edges = list(forced)
        for i, (m0, m1) in enumerate(pairs):
            edges.extend(m1 if mask >> i & 1 else m0)
        if inst.is_tour(edges):
            cost = inst.tour_cost(edges)
            if best is None or cost < best.cost:
                best = TourResult(OPTIMAL, cost, frozenset(edges))
    return best if best is not None else INFEASIBLE_RESULT


def replay(log: ReductionLog, inst: Instance) -> Instance:
    """Re-apply the log forward on a copy of the original instance; ids of
    created vertices/edges must come out identical."""
    out = inst.copy()
    scratch = ReductionLog()
    for entry in log.entries:
        if isinstance(entry, IncludeEdge):
            out.include_edge(entry.eid)
        elif isinstance(entry, DeleteEdge):
            out.delete_edge(entry.eid)
        elif isinstance(entry, ContractPath):
            for e in entry.path_edges:
                out.delete_edge(e)
            for v in entry.inner_vertices:
                out.remove_vertex(v)
            new_e = out.add_edge(
                entry.u, entry.v, sum((inst.ew[e] for e in entry.path_edges), Fraction(0)), True
            )
            if new_e != entry.new_edge:
                raise GraphError("replay id drift")
        elif isinstance(entry, ThreeCut):
            reduce_3cut(out, scratch, entry.x_vertices)
            if scratch.entries[-1].new_edges != entry.new_edges:
                raise GraphError("replay id drift")
        elif isinstance(entry, FourCut):
            anchors = entry.anchors
            xs = set(entry.removed_vertices) | set(anchors)
            reduce_4cut(out, scratch, xs)
            if scratch.entries[-1].new_edges != entry.new_edges:
                raise GraphError("replay id drift")
        else:
            raise GraphError(f"unknown log entry {entry!r}")
    return out


def _disconnects(inst: Instance, verts, eset, a, b) -> bool:
    start = verts[0]
    seen = {start}
    stack = [start]
    eu, ev = inst.eu, inst.ev
    while stack:
        v = stack.pop()
        for e in inst.adj[v]:
            if e == a or e == b or e not in eset:
                continue
            w = eu[e]
            if w == v:
                w = ev[e]
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) != len(verts)

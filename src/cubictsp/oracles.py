"""Independent reference solvers.

``held_karp`` is the classic subset dynamic program (no forced edges);
``exhaustive_forced`` enumerates Hamiltonian cycles edge by edge so parallel
edges and forced-edge containment are handled exactly.  Both work on the
same exact rational weights as the main solver: weights are scaled to a
common integer denominator first.

The slow references that tests hold the solver's own primitives against
live here too: ``exhaustive_internal_paths`` for the paths inside a small
cut side, ``brute_force_4cycles`` for the 4-cycle base case,
``_disconnects`` for cut pairs, ``_subgraph_pieces``, the flood fill that
splits a vertex set into its connected pieces, and ``_circuit_cycle``, which
orders a circuit and its blocks by those pieces.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Optional

from . import connectivity as conn
from .graph import GraphError, Instance, UComponent
from .reductions import solve_two_vertices
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
        out = solve_two_vertices(inst)
        return INFEASIBLE_RESULT if out.infeasible else out
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
    """Every sum of up to n + 1 weights, of either sign, stays below the
    table's infinity, and adding a weight to it stays inside int64."""
    top = max((abs(w) for row in wmat for w in row if w is not None), default=0)
    return top * (n + 1) < 2**62


_INF = 2**62


def _held_karp_numpy(wmat, n):
    np = _np
    W = np.full((n, n), _INF, dtype=np.int64)
    for i in range(n):
        for j in range(n):
            if wmat[i][j] is not None:
                W[i, j] = wmat[i][j]
    # a missing edge is _INF, which a negative cost would pull below _INF
    missing = W[: n - 1, : n - 1] >= _INF
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
        cand[missing] = _INF
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
    # a tour has n edges, so a walk's cost plus the lightest weight, when
    # negative, for each edge still to come bounds every tour it completes
    floor = min((inst.ew[e] for e in inst.alive_edges() if inst.ew[e].numerator < 0), default=0)

    def walk(cur, visited, used, cost):
        if best[0] is not None:
            low = cost + floor * (n - len(used)) if floor else cost
            if low >= best[0][0]:
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


def exhaustive_internal_paths(inst: Instance, x_vertices, pairs):
    """Minimum-cost vertex-disjoint paths inside a vertex set: path k runs
    between pairs[k], every vertex lies on exactly one path, and every
    internal forced edge is used.  Exhaustive; meant for <= 10 vertices.

    Returns (total cost, tuple of per-path edge-id frozensets) or None.
    The reference for ``reductions.solve_internal_paths``: the same search,
    over vertex and edge sets and rational costs.
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

    if not all(a in verts and b in verts for a, b in pairs):
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

    # every solution has one edge fewer per path than it has vertices, so
    # a partial cost plus the lightest inner weight, when negative, for
    # each edge still to place bounds every solution it completes; a
    # weight's sign is its numerator's, which is cheaper to read
    total = len(verts) - len(pairs)
    floor = min(
        (inst.ew[e] for es in adjm.values() for e, _ in es if inst.ew[e].numerator < 0), default=0
    )

    def extend(k, cur, remaining, paths, used, cost):
        if best[0] is not None:
            low = cost + floor * (total - len(used)) if floor else cost
            if low >= best[0][0]:
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


def _subgraph_pieces(inst, vertices, edges, removed) -> list[frozenset]:
    """Connected vertex pieces of (vertices, edges - removed), each found by
    a flood fill, in order of lowest vertex."""
    adj: dict[int, list[int]] = {v: [] for v in vertices}
    for e in edges:
        if e in removed:
            continue
        u, v = inst.eu[e], inst.ev[e]
        adj[u].append(v)
        adj[v].append(u)
    seen: set[int] = set()
    pieces = []
    for root in sorted(vertices):
        if root in seen:
            continue
        piece = {root}
        seen.add(root)
        stack = [root]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    piece.add(w)
                    stack.append(w)
        pieces.append(frozenset(piece))
    return pieces


def _circuit_cycle(inst: Instance, comp: UComponent, group) -> tuple:
    """Traverse the alternating edge/piece cycle of a circuit.

    The pieces of the component minus the circuit edges each touch exactly
    two circuit edges; edges and pieces alternate around one cycle.  Returns
    (ordered edge ids, ordered piece vertex sets), normalized to start at the
    lowest edge id and run toward the lower-id neighbouring edge, with piece
    i lying between edges i and i+1 (cyclically).
    """
    group = sorted(group)
    removed = set(group)
    pieces = _subgraph_pieces(inst, comp.vertices, comp.edges, removed)
    piece_of = {}
    for idx, piece in enumerate(pieces):
        for v in piece:
            piece_of[v] = idx
    incid: dict[int, list[int]] = {i: [] for i in range(len(pieces))}
    for e in group:
        pu, pv = piece_of[inst.eu[e]], piece_of[inst.ev[e]]
        if pu == pv:
            raise GraphError("circuit edge inside one piece")
        incid[pu].append(e)
        incid[pv].append(e)
    if any(len(es) != 2 for es in incid.values()):
        raise GraphError("circuit pieces must touch exactly two circuit edges")
    start = group[0]
    pa, pb = piece_of[inst.eu[start]], piece_of[inst.ev[start]]
    second = min(e for p in {pa, pb} for e in incid[p] if e != start)
    first_piece = min(p for p in (pa, pb) if second in incid[p])
    order_edges = [start]
    order_pieces = [first_piece]
    prev_edge, cur_piece = start, first_piece
    while len(order_edges) < len(group):
        nxt = next(e for e in incid[cur_piece] if e != prev_edge)
        pu, pv = piece_of[inst.eu[nxt]], piece_of[inst.ev[nxt]]
        cur_piece = pv if pu == cur_piece else pu
        order_edges.append(nxt)
        order_pieces.append(cur_piece)
        prev_edge = nxt
    return tuple(order_edges), [pieces[i] for i in order_pieces]

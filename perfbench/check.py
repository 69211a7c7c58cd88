"""Answer checker that shares no code with the solver.

It reads the plain edge table of a case, never an ``Instance`` method, so a
fault in ``Instance.is_tour`` or ``tour_cost`` cannot hide a wrong answer.
"""

from __future__ import annotations

from fractions import Fraction


def tour_problems(n: int, edges, tour, cost, unit_cost: bool = False) -> list[str]:
    """Reasons the answer (tour edge ids, cost) is not a valid tour of the
    graph given as ``n`` vertices and (u, v, weight, forced) rows; empty when
    it is one.  With ``unit_cost`` the cost must also equal ``n``."""
    tour = list(tour)
    on_tour = set(tour)
    if any(not (isinstance(e, int) and 0 <= e < len(edges)) for e in tour):
        return ["tour names an edge id outside the instance"]
    if len(on_tour) != len(tour):
        return ["tour repeats an edge"]
    problems = []
    incident = [[] for _ in range(n)]
    for e in tour:
        u, v = edges[e][0], edges[e][1]
        incident[u].append(e)
        incident[v].append(e)
    bad = [v for v in range(n) if len(incident[v]) != 2]
    if bad:
        problems.append(f"{len(bad)} vertices without tour degree 2 (first {bad[0]})")
    else:
        # walk the 2-regular edge set from vertex 0; one cycle visits all n
        seen, prev, cur = {0}, None, 0
        while True:
            e = incident[cur][0] if incident[cur][0] != prev else incident[cur][1]
            u, v = edges[e][0], edges[e][1]
            cur, prev = (v if u == cur else u), e
            if cur == 0:
                break
            seen.add(cur)
        if len(seen) != n:
            problems.append(f"tour is not one cycle ({len(seen)} of {n} vertices on it)")
    missing = [e for e, row in enumerate(edges) if row[3] and e not in on_tour]
    if missing:
        problems.append(f"{len(missing)} forced edges missing (first {missing[0]})")
    if not isinstance(cost, Fraction):
        problems.append(f"cost {cost!r} is not an exact Fraction")
    elif cost != sum((edges[e][2] for e in tour), Fraction(0)):
        problems.append(f"cost {cost} differs from the sum of tour edge weights")
    elif unit_cost and cost != n:
        problems.append(f"unit-weight tour costs {cost}, not n={n}")
    return problems

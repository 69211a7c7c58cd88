"""Edge-weighted multigraph with forced/unforced edge marks.

Vertices and edges carry dense integer ids.  Deletions tombstone the slot
instead of renumbering, so rewrite logs can refer to ids forever.  Weights
are exact rationals throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional


class GraphError(ValueError):
    """Structurally invalid input or operation."""


@dataclass(frozen=True)
class UComponent:
    """Maximal set of vertices connected through unforced edges."""

    vertices: frozenset
    edges: tuple  # unforced edge ids, sorted
    boundary_forced: int

    @property
    def trivial(self) -> bool:
        return not self.edges

    @property
    def odd(self) -> bool:
        return self.boundary_forced % 2 == 1


class Instance:
    """A multigraph together with the set of edges pinned into the tour.

    Every query treats dead vertices/edges as absent.  Mutations go through
    ``include_edge`` / ``delete_edge`` / ``remove_vertex`` / ``add_*`` so the
    adjacency stays consistent and caches are invalidated.
    """

    __slots__ = (
        "eu",
        "ev",
        "ew",
        "eforced",
        "ealive",
        "valive",
        "adj",
        "_comp_cache",
    )

    def __init__(self) -> None:
        self.eu: list[int] = []
        self.ev: list[int] = []
        self.ew: list[Fraction] = []
        self.eforced: list[bool] = []
        self.ealive: list[bool] = []
        self.valive: list[bool] = []
        self.adj: list[list[int]] = []
        self._comp_cache: Optional[list[UComponent]] = None

    # -- construction -----------------------------------------------------

    def add_vertex(self) -> int:
        self.valive.append(True)
        self.adj.append([])
        self._comp_cache = None
        return len(self.valive) - 1

    def add_edge(self, u: int, v: int, w, forced: bool = False) -> int:
        if u == v:
            raise GraphError("self-loops are not allowed")
        if not (self.valive[u] and self.valive[v]):
            raise GraphError("endpoint is dead")
        eid = len(self.eu)
        self.eu.append(u)
        self.ev.append(v)
        self.ew.append(Fraction(w))
        self.eforced.append(forced)
        self.ealive.append(True)
        self.adj[u].append(eid)
        self.adj[v].append(eid)
        self._comp_cache = None
        return eid

    def copy(self) -> "Instance":
        other = Instance.__new__(Instance)
        other.eu = self.eu[:]
        other.ev = self.ev[:]
        other.ew = self.ew[:]
        other.eforced = self.eforced[:]
        other.ealive = self.ealive[:]
        other.valive = self.valive[:]
        other.adj = [a[:] for a in self.adj]
        other._comp_cache = None
        return other

    # -- mutation ----------------------------------------------------------

    def include_edge(self, eid: int) -> None:
        if not self.ealive[eid] or self.eforced[eid]:
            raise GraphError("can only include a live unforced edge")
        self.eforced[eid] = True
        self._comp_cache = None

    def delete_edge(self, eid: int) -> None:
        if not self.ealive[eid]:
            raise GraphError("edge already dead")
        self.ealive[eid] = False
        self.adj[self.eu[eid]].remove(eid)
        self.adj[self.ev[eid]].remove(eid)
        self._comp_cache = None

    def remove_vertex(self, v: int) -> None:
        if self.adj[v]:
            raise GraphError("vertex still has live edges")
        if not self.valive[v]:
            raise GraphError("vertex already dead")
        self.valive[v] = False
        self._comp_cache = None

    # -- queries -----------------------------------------------------------

    def endpoints(self, eid: int) -> tuple[int, int]:
        return self.eu[eid], self.ev[eid]

    def other_end(self, eid: int, v: int) -> int:
        u = self.eu[eid]
        return self.ev[eid] if u == v else u

    def alive_vertices(self) -> list[int]:
        return [v for v, a in enumerate(self.valive) if a]

    def alive_edges(self) -> list[int]:
        return [e for e, a in enumerate(self.ealive) if a]

    def forced_edges(self) -> list[int]:
        return [e for e, a in enumerate(self.ealive) if a and self.eforced[e]]

    def n_alive(self) -> int:
        return sum(self.valive)

    def degrees(self, v: int) -> tuple[int, int, int]:
        """Return (d, d_forced, d_unforced), counting parallel edges."""
        if not self.valive[v]:
            raise GraphError("dead vertex")
        d = len(self.adj[v])
        df = sum(1 for e in self.adj[v] if self.eforced[e])
        return d, df, d - df

    def cut(self, xset) -> tuple[list[int], list[int]]:
        """Split the boundary edges of a vertex set by sign.

        Returns (forced boundary edge ids, unforced boundary edge ids).
        """
        xs = set(xset)
        if not xs:
            raise GraphError("empty vertex set")
        if sum(1 for v in xs if self.valive[v]) == self.n_alive():
            raise GraphError("vertex set must be proper")
        cf: list[int] = []
        cu: list[int] = []
        seen = set()
        for v in xs:
            for e in self.adj[v]:
                if e in seen:
                    continue
                seen.add(e)
                if (self.other_end(e, v) in xs):
                    continue
                (cf if self.eforced[e] else cu).append(e)
        cf.sort()
        cu.sort()
        return cf, cu

    def u_components(self) -> list[UComponent]:
        """Partition alive vertices by unforced-edge connectivity."""
        if self._comp_cache is not None:
            return self._comp_cache
        seen: set[int] = set()
        comps: list[UComponent] = []
        for root in range(len(self.valive)):
            if not self.valive[root] or root in seen:
                continue
            verts = {root}
            edges = set()
            stack = [root]
            seen.add(root)
            while stack:
                v = stack.pop()
                for e in self.adj[v]:
                    if self.eforced[e]:
                        continue
                    edges.add(e)
                    w = self.other_end(e, v)
                    if w not in seen:
                        seen.add(w)
                        verts.add(w)
                        stack.append(w)
            boundary = 0
            for v in verts:
                for e in self.adj[v]:
                    if self.eforced[e] and self.other_end(e, v) not in verts:
                        boundary += 1
            comps.append(
                UComponent(frozenset(verts), tuple(sorted(edges)), boundary)
            )
        comps.sort(key=lambda c: min(c.vertices))
        self._comp_cache = comps
        return comps

    def component_of(self, v: int) -> UComponent:
        for comp in self.u_components():
            if v in comp.vertices:
                return comp
        raise GraphError("vertex not in any component")

    # -- whole-graph connectivity -------------------------------------------

    def is_connected(self) -> bool:
        verts = self.alive_vertices()
        if not verts:
            return False
        seen = {verts[0]}
        stack = [verts[0]]
        while stack:
            v = stack.pop()
            for e in self.adj[v]:
                w = self.other_end(e, v)
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(verts)

    def bridges(self) -> list[int]:
        """Bridge edge ids of the alive graph, by iterative lowpoint DFS.
        Parallel edges never count."""
        n = len(self.valive)
        num = [-1] * n
        low = [0] * n
        out: list[int] = []
        counter = 0
        eu, ev, adj, valive, ealive = self.eu, self.ev, self.adj, self.valive, self.ealive
        for root in range(n):
            if not valive[root] or num[root] != -1:
                continue
            stack = [(root, -1, iter(adj[root]))]
            num[root] = low[root] = counter
            counter += 1
            while stack:
                v, pe, it = stack[-1]
                advanced = False
                lv = low[v]
                for e in it:
                    if not ealive[e] or e == pe:
                        continue
                    w = eu[e]
                    if w == v:
                        w = ev[e]
                    nw = num[w]
                    if nw == -1:
                        low[v] = lv
                        num[w] = low[w] = counter
                        counter += 1
                        stack.append((w, e, iter(adj[w])))
                        advanced = True
                        break
                    if nw < lv:
                        lv = nw
                if advanced:
                    continue
                low[v] = lv
                stack.pop()
                if stack:
                    u = stack[-1][0]
                    if lv < low[u]:
                        low[u] = lv
                    if lv > num[u]:
                        out.append(pe)
        out.sort()
        return out

    def is_2_edge_connected_graph(self) -> bool:
        return self.is_connected() and not self.bridges()

    # -- validation ----------------------------------------------------------

    def validate_initial(self) -> None:
        """Input contract: degrees in {2, 3} and at most 2 forced per vertex."""
        if self.n_alive() < 2:
            raise GraphError("need at least two vertices")
        for v in self.alive_vertices():
            d, df, _ = self.degrees(v)
            if d not in (2, 3):
                raise GraphError(f"vertex {v + 1} has degree {d}, want 2 or 3")
            if df > 2:
                raise GraphError(f"vertex {v + 1} has {df} forced edges")

    def tour_cost(self, edge_ids: Iterable[int]) -> Fraction:
        return sum((self.ew[e] for e in edge_ids), Fraction(0))

    def is_tour(self, edge_ids) -> bool:
        """True iff the edge set is a Hamiltonian cycle containing every
        forced edge (evaluated against this instance)."""
        eids = set(edge_ids)
        verts = self.alive_vertices()
        deg = {v: 0 for v in verts}
        for e in eids:
            if not self.ealive[e]:
                return False
            deg[self.eu[e]] += 1
            deg[self.ev[e]] += 1
        if any(d != 2 for d in deg.values()):
            return False
        for e in self.forced_edges():
            if e not in eids:
                return False
        # connectivity of the cycle
        start = verts[0]
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for e in self.adj[v]:
                if e in eids:
                    w = self.other_end(e, v)
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
        return len(seen) == len(verts)


# -- text format -------------------------------------------------------------
#
#   c <comment>
#   p ftsp <n> <m>
#   e <u> <v> <num>[/<den>] [F]
#
# 1-indexed vertices, denominator defaults to 1, trailing F marks a forced
# edge.


def parse_weight(tok: str) -> Fraction:
    if "/" in tok:
        num, den = tok.split("/", 1)
        return Fraction(int(num), int(den))
    return Fraction(int(tok))


def parse_instance(text: str) -> Instance:
    inst = Instance()
    n = m = None
    edges_seen = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise GraphError(f"line {lineno}: duplicate p line")
            if len(parts) != 4 or parts[1] != "ftsp":
                raise GraphError(f"line {lineno}: want 'p ftsp <n> <m>'")
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError:
                raise GraphError(f"line {lineno}: bad number in {line!r}") from None
            if n < 2:
                raise GraphError(f"line {lineno}: need at least 2 vertices")
            for _ in range(n):
                inst.add_vertex()
        elif parts[0] == "e":
            if n is None:
                raise GraphError(f"line {lineno}: edge before p line")
            if len(parts) not in (4, 5):
                raise GraphError(f"line {lineno}: want 'e <u> <v> <w> [F]'")
            try:
                u, v = int(parts[1]) - 1, int(parts[2]) - 1
                w = parse_weight(parts[3])
            except (ValueError, ZeroDivisionError):
                raise GraphError(f"line {lineno}: bad number in {line!r}") from None
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"line {lineno}: vertex out of range")
            forced = False
            if len(parts) == 5:
                if parts[4] != "F":
                    raise GraphError(f"line {lineno}: trailing token must be F")
                forced = True
            if u == v:
                raise GraphError(f"line {lineno}: self-loop")
            inst.add_edge(u, v, w, forced)
            edges_seen += 1
        else:
            raise GraphError(f"line {lineno}: unknown record {parts[0]!r}")
    if n is None:
        raise GraphError("missing p line")
    if m != edges_seen:
        raise GraphError(f"p line declares {m} edges, found {edges_seen}")
    inst.validate_initial()
    return inst


def format_weight(w: Fraction) -> str:
    return str(w.numerator) if w.denominator == 1 else f"{w.numerator}/{w.denominator}"


def format_instance(inst: Instance, comment: str = "") -> str:
    lines = []
    if comment:
        lines.append(f"c {comment}")
    verts = inst.alive_vertices()
    remap = {v: i + 1 for i, v in enumerate(verts)}
    eids = inst.alive_edges()
    lines.append(f"p ftsp {len(verts)} {len(eids)}")
    for e in eids:
        u, v = remap[inst.eu[e]], remap[inst.ev[e]]
        if u > v:
            u, v = v, u
        tail = " F" if inst.eforced[e] else ""
        lines.append(f"e {u} {v} {format_weight(inst.ew[e])}{tail}")
    return "\n".join(lines) + "\n"

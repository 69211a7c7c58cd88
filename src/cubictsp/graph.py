"""Edge-weighted multigraph with forced/unforced edge marks.

Vertices and edges carry dense integer ids.  Deletions tombstone the slot
instead of renumbering, so rewrite logs can refer to ids forever.  Weights
are exact rationals throughout.

``dfs_tree`` is the package's one depth-first walk, over per-vertex edge
lists: ``Instance.adj`` for the whole alive graph, its unforced part for the
unforced components, ``edge_lists`` for any other subgraph.
``tree_labels`` is the one fold over a tree's back edges: it labels every
edge with the set of fundamental cycles through it, so an edge is a bridge
iff its label is 0.  The whole alive graph's tree answers ``is_connected``,
and its labels (``whole_labels``) answer ``bridges``.  The unforced
components are the pieces of one walk per root over the unforced edges, and
each nontrivial one keeps its tree in ``UComponent.facts``, where
``connectivity`` memoizes the rest of its structure.  These and other facts
of one state are kept by ``Instance.memo`` until a mutation.

Every mutation also records the vertices whose edges it changed, so that the
reductions' vertex-local rules can visit only those (``Instance.pending``).
The record starts as None, meaning every vertex, so a parsed instance holds
no set; ``Instance.rest`` empties it once those rules have nothing to do.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable


class GraphError(ValueError):
    """Structurally invalid input or operation."""


@dataclass(frozen=True)
class UComponent:
    """Maximal set of vertices connected through unforced edges.

    ``forced_ends`` sums the forced degrees of its vertices: twice its inner
    forced edges plus its forced boundary, so it has the boundary's parity.
    ``facts`` memoizes what ``connectivity`` derives from the edges, by
    name; a nontrivial component of ``Instance.u_components`` starts out
    holding its ``dfs_tree`` under "tree".
    """

    vertices: frozenset
    edges: tuple  # unforced edge ids, sorted
    forced_ends: int
    facts: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def trivial(self) -> bool:
        return not self.edges

    @property
    def odd(self) -> bool:
        return self.forced_ends % 2 == 1


class Instance:
    """A multigraph together with the set of edges pinned into the tour.

    Every query treats dead vertices/edges as absent.  Mutations go through
    ``include_edge`` / ``delete_edge`` / ``remove_vertex`` / ``add_*`` so the
    adjacency and the forced-degree counters stay consistent, the memo of
    facts is cleared and the vertices they touch are recorded as pending;
    writing ``eforced`` directly bypasses all three.
    """

    __slots__ = (
        "eu",
        "ev",
        "ew",
        "eforced",
        "ealive",
        "valive",
        "adj",
        "fdeg",
        "_memo",
        "_pending",
    )

    def __init__(self) -> None:
        self.eu: list[int] = []
        self.ev: list[int] = []
        self.ew: list[Fraction] = []
        self.eforced: list[bool] = []
        self.ealive: list[bool] = []
        self.valive: list[bool] = []
        self.adj: list[list[int]] = []
        self.fdeg: list[int] = []  # alive forced edges at each vertex
        self._memo: dict = {}  # fact function -> its value on this state
        # vertices touched since the last ``rest``; None until the first
        self._pending: set[int] | None = None

    # -- construction -----------------------------------------------------

    def add_vertex(self) -> int:
        self.valive.append(True)
        self.adj.append([])
        self.fdeg.append(0)
        self._memo.clear()
        v = len(self.valive) - 1
        self._touch(v, v)
        return v

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
        if forced:
            self.fdeg[u] += 1
            self.fdeg[v] += 1
        self._memo.clear()
        self._touch(u, v)
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
        other.fdeg = self.fdeg[:]
        other._memo = {}
        other._pending = None if self._pending is None else set(self._pending)
        return other

    # -- mutation ----------------------------------------------------------

    def include_edge(self, eid: int) -> None:
        if not self.ealive[eid] or self.eforced[eid]:
            raise GraphError("can only include a live unforced edge")
        u, v = self.eu[eid], self.ev[eid]
        self.eforced[eid] = True
        self.fdeg[u] += 1
        self.fdeg[v] += 1
        self._memo.clear()
        self._touch(u, v)

    def delete_edge(self, eid: int) -> None:
        if not self.ealive[eid]:
            raise GraphError("edge already dead")
        u, v = self.eu[eid], self.ev[eid]
        self.ealive[eid] = False
        self.adj[u].remove(eid)
        self.adj[v].remove(eid)
        if self.eforced[eid]:
            self.fdeg[u] -= 1
            self.fdeg[v] -= 1
        self._memo.clear()
        self._touch(u, v)

    def remove_vertex(self, v: int) -> None:
        if self.adj[v]:
            raise GraphError("vertex still has live edges")
        if not self.valive[v]:
            raise GraphError("vertex already dead")
        self.valive[v] = False
        self._memo.clear()
        self._touch(v, v)

    def _touch(self, u: int, v: int) -> None:
        pending = self._pending
        if pending is not None:
            pending.add(u)
            pending.add(v)

    # -- pending vertices ----------------------------------------------------

    def pending(self) -> list[int]:
        """The alive vertices whose edges changed since the last ``rest``,
        ascending; every alive vertex before the first."""
        if self._pending is None:
            return self.alive_vertices()
        return sorted(v for v in self._pending if self.valive[v])

    def rest(self) -> None:
        """Mark every vertex settled: from now on ``pending`` reports only
        the vertices that later mutations touch."""
        self._pending = set()

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
        df = self.fdeg[v]
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

    def memo(self, fact):
        """``fact(self)``, computed once per state: every mutation forgets
        the facts remembered so far, and ``copy`` starts with none."""
        memo = self._memo
        if fact not in memo:
            memo[fact] = fact(self)
        return memo[fact]

    def u_components(self) -> list[UComponent]:
        """Partition alive vertices by unforced-edge connectivity."""
        return self.memo(Instance._u_components)

    def _u_components(self) -> list[UComponent]:
        """One ``dfs_tree`` over the unforced edges per unreached root, in
        ascending order.  ``adj`` lists each vertex's edges by ascending id,
        so each component is walked from its lowest vertex just as
        ``connectivity._dfs_tree`` would walk it, and keeps that tree."""
        eforced, fdeg = self.eforced, self.fdeg
        # each vertex's unforced edges: its ``adj`` list if none is forced
        nbr = [[e for e in es if not eforced[e]] if f else es for es, f in zip(self.adj, fdeg)]
        reached = [False] * len(self.valive)
        comps: list[UComponent] = []
        for root, alive in enumerate(self.valive):
            if not alive or reached[root]:
                continue
            if not nbr[root]:
                comps.append(UComponent(frozenset((root,)), (), fdeg[root]))
                continue
            tree = dfs_tree(self, root, nbr)
            pre, _, tree_edge, _, back = tree
            for v in pre:
                reached[v] = True
            edges = tuple(sorted(tree_edge[1:] + [e for e, _, _ in back]))
            ends = sum(fdeg[v] for v in pre)
            comps.append(UComponent(frozenset(pre), edges, ends, {"tree": tree}))
        return comps

    def component_of(self, v: int) -> UComponent:
        for comp in self.u_components():
            if v in comp.vertices:
                return comp
        raise GraphError("vertex not in any component")

    # -- whole-graph connectivity -------------------------------------------

    def is_connected(self) -> bool:
        n = self.n_alive()
        return n > 0 and len(self.memo(alive_tree)[0]) == n

    def bridges(self) -> list[int]:
        """Bridge edge ids of the connected alive graph: the edges whose
        ``whole_labels`` entry is 0.  Parallel edges never count."""
        if not self.is_connected():
            raise GraphError("graph is not connected")
        return sorted(e for e, a in self.memo(whole_labels).items() if not a)

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
        forced edge: its DFS tree is one path through every alive vertex,
        and its only other edge joins the path's ends."""
        eids = set(edge_ids)
        if not all(self.ealive[e] for e in eids) or not eids.issuperset(self.forced_edges()):
            return False
        n = self.n_alive()
        verts = self.alive_vertices()
        _, parent, _, _, back = dfs_tree(self, verts[0], edge_lists(self, verts, eids))
        return parent == list(range(-1, n - 1)) and [(a, d) for _, a, d in back] == [(0, n - 1)]


def alive_tree(inst: Instance):
    """``dfs_tree`` of the whole alive graph; ask it through ``inst.memo``.
    ``inst.adj`` lists each vertex's alive edges by ascending id, as
    ``edge_lists`` would."""
    return dfs_tree(inst, inst.valive.index(True), inst.adj)


def whole_labels(inst: Instance) -> dict:
    """``tree_labels`` of the whole alive graph; ask it through
    ``inst.memo``."""
    return tree_labels(inst.memo(alive_tree))


def edge_lists(inst: Instance, vertices, edges) -> dict:
    """Each vertex's edges in the subgraph (vertices, edges), in the order of
    ``edges``: the neighbour lists ``dfs_tree`` walks."""
    nbr: dict[int, list[int]] = {v: [] for v in vertices}
    for e in edges:
        nbr[inst.eu[e]].append(e)
        nbr[inst.ev[e]].append(e)
    return nbr


def dfs_tree(inst: Instance, root: int, nbr):
    """Depth-first tree of the piece around ``root`` of the graph whose
    edges at each vertex v are ``nbr[v]``, walked in that order.

    Returns (pre, parent, tree_edge, size, back), indexed by preorder
    position: ``pre`` is the tuple of reached vertices in preorder, node
    i > 0 hangs from ``parent[i]`` by ``tree_edge[i]``, and its subtree
    sub(i) is the slice ``pre[i:i + size[i]]``.  ``back`` lists every other
    edge of the piece as (edge id, ancestor position, descendant position);
    of a parallel bundle, the first copy walked is the tree edge and the rest
    are back edges.
    """
    eu, ev = inst.eu, inst.ev
    num = [-1] * len(inst.valive)
    num[root] = 0
    pre = [root]
    parent = [-1]
    tree_edge = [-1]
    back = []
    stack = [(root, iter(nbr[root]))]
    while stack:
        v, it = stack[-1]
        i = num[v]
        for e in it:
            w = eu[e]
            if w == v:
                w = ev[e]
            j = num[w]
            if j == -1:
                num[w] = len(pre)
                pre.append(w)
                parent.append(i)
                tree_edge.append(e)
                stack.append((w, iter(nbr[w])))
                break
            if j < i and e != tree_edge[i]:
                back.append((e, j, i))
        else:
            stack.pop()
    size = [1] * len(pre)
    for i in range(len(pre) - 1, 0, -1):
        size[parent[i]] += size[i]
    return tuple(pre), parent, tree_edge, size, back


def tree_labels(tree) -> dict:
    """Cycle-space labels of the edges of a ``dfs_tree``, as a map from edge
    id to label.

    Back edge j of the tree (its place in ``back``) is labelled ``1 << j``,
    and a tree edge with the XOR of the bits of the back edges covering it,
    that is, whose fundamental cycle runs through it.  Bit j of a label is
    then set iff the edge lies on fundamental cycle j, so the label is the
    edge's coordinates in the cycle space: an edge set is a cut iff its
    labels XOR to 0, an edge is a bridge iff its label is 0, and two edges
    that are no bridges form a cut iff their labels are equal.  Children
    follow their parent in preorder, so folding in reverse preorder
    completes i before i is added to its parent.
    """
    _, parent, tree_edge, _, back = tree
    acc = [0] * len(parent)
    label = {}
    for j, (e, a, d) in enumerate(back):
        bit = label[e] = 1 << j
        acc[a] ^= bit
        acc[d] ^= bit
    for i in range(len(parent) - 1, 0, -1):
        label[tree_edge[i]] = acc[i]
        acc[parent[i]] ^= acc[i]
    return label


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
    n = m = None
    edges = []
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
            edges.append((u, v, w, forced))
        else:
            raise GraphError(f"line {lineno}: unknown record {parts[0]!r}")
    if n is None:
        raise GraphError("missing p line")
    if m != len(edges):
        raise GraphError(f"p line declares {m} edges, found {len(edges)}")
    # every vertex needs two edge ends, so n <= m bounds n by the file's size
    if n > m:
        raise GraphError(f"p line declares {n} vertices but only {m} edges")
    inst = Instance()
    for _ in range(n):
        inst.add_vertex()
    for u, v, w, forced in edges:
        inst.add_edge(u, v, w, forced)
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

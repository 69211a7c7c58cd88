"""Circuit and block structure of 2-edge-connected unforced components.

In a 2-edge-connected component made of unforced edges, the pairs of edges
whose joint removal disconnects the component form an equivalence relation;
its classes are the *circuits*.  The connected pieces left between two
consecutive circuit edges are the *blocks*.  Branching and the deterministic
propagation of include/delete decisions both walk this structure.

Bridges, cut classes (the circuits' edge sets), cut pairs, and every
circuit's cyclic order and blocks come from one depth-first tree per
component, ``graph.dfs_tree``, and its one fold, ``graph.tree_labels``; the
whole graph's labels (``graph.whole_labels``) serve its bridges, reducible
circuits and small 3-cuts.  Every edge is labelled with the set of
fundamental cycles through it, as a bitmask over the back edges.  These are
the edge's coordinates in the cycle space, so an edge set is a cut iff its
labels XOR to 0: bridges are the edges labelled 0, cut classes are the
edges of one nonzero label, and the 3-cuts of the whole graph are its label
triples (a, b, a ^ b), so the third edge of two unforced ones is looked up
by label.  The side of a cut is the XOR of the subtrees below its tree
edges, for a 3-cut at most three nested or disjoint preorder intervals; so
a side's size, whether it holds a given vertex, and its vertices are read
off the tree (``_odd_side``, ``side_size``, ``tree_side``) without a walk.
A circuit's tree edges lie on one root path, so each of its blocks is at
most three slices of the preorder.  One edge's circuit is built alone from
the edges sharing its label (``circuit_through``).

The shapes the measure singles out, a chordless cycle (the critical 6-cycle,
the settled 4-cycle) and the 6-cycle extension, are tested by one cycle walk,
``_cycle_order``.  It also gives a 4-cycle's two opposite edge pairs, and
tells whether a normal block nests another (``find_minimal_normal_block``).

Facts of a component's labelled unforced edges are memoized on the
component object (``UComponent.facts``), which ``Instance.memo`` keeps
until the next mutation; nothing shares them between instance states.
They are the DFS tree, which ``Instance.u_components`` hands over from the
walk that found the component, and its labels, cut classes, cut pairs and
circuit partition.  None of them reads a forced mark or a setting.  A cut
pair names a side by one vertex on it, never by a vertex set; the only
vertex sets kept are the preorder and block slices a circuit carries.
Anything that reads forced edges or the whole graph, such as a block's
parity or a component's small 3-cuts, is recomputed on every call.  A
block's or a component's forced boundary is only ever asked for its
parity, which is that of the forced degrees (``Instance.fdeg``) summed
over its vertices: each forced edge inside counts twice.  The whole
graph's labels and tree index (``whole_labels``, ``whole_tree_index``) are
pure functions of its tree, asked once per instance state through
``Instance.memo``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import wraps

from .graph import (
    GraphError,
    Instance,
    UComponent,
    alive_tree,
    dfs_tree,
    edge_lists,
    tree_labels,
    whole_labels,
)

# Largest side, in vertices, that the small-cut searches and rewrites
# consider; read at call time.
SMALL_SIDE = 10

def clear_caches() -> None:
    """Does nothing.  Every component fact is memoized on its component
    object and goes with it; the name stays because the benchmark's layer
    table (``perfbench/layertrace.LAYERS``) still traces it."""


def _cached(fn):
    """Memoize ``fn(inst, comp)`` in ``comp.facts``.  Edge ids are never
    reused, so an object's edges keep their ends in every copy and later
    state of its instance, and what it holds about them stays true."""
    name = fn.__name__

    @wraps(fn)
    def lookup(inst: Instance, comp: UComponent):
        facts = comp.facts
        if name not in facts:
            facts[name] = fn(inst, comp)
        return facts[name]

    return lookup


@dataclass(frozen=True)
class Block:
    """Piece of a component between two consecutive circuit edges; ``odd``
    when an odd number of forced edges leave it."""

    vertices: frozenset
    odd: bool


@dataclass(frozen=True, slots=True)  # memoized, up to one per component edge
class Circuit:
    edges: tuple  # ordered edge ids; cyclic when nontrivial
    # nontrivial only: the component's vertices in DFS preorder, shared by
    # all its circuits, and per block the flat (lo, hi, ...) bounds of the
    # preorder slices it is made of
    preorder: tuple = field(default=(), compare=False, repr=False)
    slices: tuple = field(default=(), compare=False, repr=False)

    @property
    def trivial(self) -> bool:
        """A lone edge: every cut class has two or more edges."""
        return len(self.edges) == 1


TRIVIAL = "trivial"
REDUCIBLE = "reducible"
TWO_PENDENT_CRITICAL = "two_pendent_critical"
NORMAL = "normal"


def is_2_edge_connected(inst: Instance, comp: UComponent) -> bool:
    """No single unforced edge disconnects the component: no edge of it is
    labelled 0."""
    if comp.trivial:
        raise GraphError("component is trivial")
    return all(_cover_labels(inst, comp).values())


@_cached
def component_pairs2(inst: Instance, comp: UComponent):
    """Disconnecting edge pairs of a component as ``(e, f, v, k)``: v is a
    vertex of the side without the component's lowest vertex, and k is that
    side's size.

    Both tree edges of a pair lie on one root path, so that side is sub(top)
    minus sub(low), or all of sub(top) when the partner is the back edge
    that alone covers the tree edge above ``top``; v is ``top``'s vertex.
    """
    pre, _, tree_edge, size, _ = _dfs_tree(inst, comp)
    child = {e: i for i, e in enumerate(tree_edge) if i}
    pairs2 = []
    for e, f in two_cut_pairs(inst, comp):
        top, *low = sorted(child[x] for x in (e, f) if x in child)
        k = size[top] - size[low[0]] if low else size[top]
        pairs2.append((e, f, pre[top], k))
    return pairs2


def component_cut_structure(inst: Instance, comp: UComponent):
    """Small-cut skeleton of one 2-edge-connected component.

    Returns (pairs2, triples3): ``pairs2`` is ``component_pairs2``;
    ``triples3`` lists every triple e < f < h of the component's edges whose
    whole-graph labels (``whole_labels``) XOR to 0, that is, every 3-edge cut
    of the whole graph made of the component's edges, in ascending order.  A
    component with a bridge raises ``GraphError``.

    It serves the small-cut stage only, where the whole graph is bridgeless
    and ``reductions.find_reducible_edge`` has found no unforced edge in a
    2-edge cut of it: so every unforced edge's whole label is nonzero and
    unique, and the third edge of a pair is the one edge labelled with
    their XOR.
    """
    if not is_2_edge_connected(inst, comp):
        raise GraphError("component is not 2-edge-connected")
    label = inst.memo(whole_labels)
    edges = comp.edges
    edge_of = {label[e]: e for e in edges}
    triples3 = []
    for i, e in enumerate(edges):
        for f in edges[i + 1 :]:
            h = edge_of.get(label[e] ^ label[f])
            if h is not None and h > f:
                triples3.append((e, f, h))
    return component_pairs2(inst, comp), triples3


def _dfs_tree(inst: Instance, comp: UComponent):
    """``graph.dfs_tree`` of a component, which it must span, walked from
    its lowest vertex over its edges by ascending id.  A component of
    ``Instance.u_components`` comes holding it; any other is walked once."""
    facts = comp.facts
    if "tree" not in facts:
        tree = dfs_tree(inst, min(comp.vertices), edge_lists(inst, comp.vertices, comp.edges))
        if len(tree[0]) != len(comp.vertices):
            raise GraphError("subgraph is not connected")
        facts["tree"] = tree
    return facts["tree"]


def whole_tree_index(inst: Instance) -> tuple[dict, dict]:
    """(pos, child) of the whole alive graph's ``dfs_tree``: each vertex's
    preorder position, and each tree edge's child position; ask it through
    ``inst.memo``."""
    pre, _, tree_edge, _, _ = inst.memo(alive_tree)
    return {v: i for i, v in enumerate(pre)}, {e: i for i, e in enumerate(tree_edge) if i}


def _odd_side(size: list, child: dict, cut) -> tuple[list, int]:
    """The side of an edge cut ``cut`` that a ``dfs_tree``'s root is not
    on, in the graph the tree spans: (its preorder intervals, its size).

    A vertex is on that side iff its tree path from the root crosses the cut
    an odd number of times, so the side is the XOR of the subtrees below the
    cut's tree edges.  Subtree intervals are nested or disjoint; sorted by
    start, one counts with the sign of how many earlier ones hold it.
    """
    ivs = []
    for g in cut:
        c = child.get(g)
        if c is not None:
            ivs.append((c, c + size[c]))
    ivs.sort()
    k = 0
    for i, (lo, hi) in enumerate(ivs):
        odd = False
        for _, end in ivs[:i]:
            if lo < end:
                odd = not odd
        k += lo - hi if odd else hi - lo
    return ivs, k


def _on_odd_side(ivs: list, p: int) -> bool:
    """Whether preorder position ``p`` lies on an ``_odd_side``."""
    odd = False
    for lo, hi in ivs:
        if lo <= p < hi:
            odd = not odd
    return odd


def side_size(tree, index, cut, start: int) -> int:
    """Size of ``start``'s side of the edge cut ``cut`` of the graph that
    ``tree`` spans, given that ``dfs_tree`` and its index, as
    ``whole_tree_index`` builds it."""
    size = tree[3]
    pos, child = index
    ivs, k = _odd_side(size, child, cut)
    return k if _on_odd_side(ivs, pos[start]) else len(size) - k


def tree_side(tree, index, cut, start: int) -> frozenset:
    """The vertices of ``start``'s side of the edge cut ``cut``, as in
    ``side_size``."""
    pre, size = tree[0], tree[3]
    pos, child = index
    ivs, _ = _odd_side(size, child, cut)
    own = _on_odd_side(ivs, pos[start])
    return frozenset(v for p, v in enumerate(pre) if _on_odd_side(ivs, p) == own)


@_cached
def _cover_labels(inst: Instance, comp: UComponent) -> dict:
    """``graph.tree_labels`` of a component's DFS tree."""
    return tree_labels(_dfs_tree(inst, comp))


@_cached
def cut_classes(inst: Instance, comp: UComponent) -> list[tuple]:
    """Nontrivial circuits of a component, each as a sorted tuple of edge
    ids, sorted by lowest edge: the classes of edges that are not bridges by
    themselves and of which any two disconnect the component.  These are the
    groups of more than one edge with one nonzero label.  No forced mark is
    read.
    """
    groups: dict[int, list[int]] = {}
    for e, a in _cover_labels(inst, comp).items():
        if a:
            groups.setdefault(a, []).append(e)
    return sorted(tuple(sorted(group)) for group in groups.values() if len(group) > 1)


def two_cut_pairs(inst: Instance, comp: UComponent) -> list[tuple[int, int]]:
    """All unforced edge pairs whose removal disconnects the component and
    of which neither edge is a bridge by itself: the pairs inside each of
    ``cut_classes``."""
    return sorted(p for cls in cut_classes(inst, comp) for p in itertools.combinations(cls, 2))


@_cached
def circuit_partition(inst: Instance, comp: UComponent) -> list[Circuit]:
    """Partition the component's edges into circuits.

    Two edges share a circuit iff they form a disconnecting pair; edges in
    no such pair sit in their own trivial circuit.  Nontrivial circuits are
    returned in cyclic order, normalized to start at their lowest edge id
    and run toward the lower-id neighbouring edge.
    """
    if not is_2_edge_connected(inst, comp):  # raises on a trivial one
        raise GraphError("component is not 2-edge-connected")
    pre, _, tree_edge, size, _ = _dfs_tree(inst, comp)
    child = {e: i for i, e in enumerate(tree_edge) if i}
    classes = cut_classes(inst, comp)
    circuits = [_cyclic_circuit(cls, pre, child, size) for cls in classes]
    paired = {e for cls in classes for e in cls}
    circuits += [Circuit((e,)) for e in comp.edges if e not in paired]
    circuits.sort(key=lambda c: c.edges[0])
    return circuits


def _cyclic_circuit(group, pre: tuple, child: dict, size: list) -> Circuit:
    """Order a nontrivial circuit and slice its blocks out of the DFS tree.

    Its tree edges share one cover set, so their children c_1 < ... < c_k
    (by preorder) lie on one root path; the cycle runs c_1, ..., c_k and
    closes through the circuit's back edge, if it has one.  The block after
    c_j is sub(c_j) - sub(c_{j+1}).  With a back edge, the block after c_k
    is sub(c_k) and the block after the back edge is the outside of
    sub(c_1); without one, the block after c_k is the outside plus sub(c_k).
    """
    n = len(pre)
    tree = sorted((child[e], e) for e in group if e in child)
    closing = [e for e in group if e not in child]
    edges = [e for _, e in tree] + closing
    subs = [(c, c + size[c]) for c, _ in tree]
    blocks = [(a, b, b_end, a_end) for (a, a_end), (b, b_end) in zip(subs, subs[1:])]
    (top, top_end), (low, low_end) = subs[0], subs[-1]
    if closing:
        blocks += [(low, low_end), (0, top, top_end, n)]
    else:
        blocks.append((0, top, low, low_end, top_end, n))
    # start at the lowest edge id and run toward its lower-id neighbour; a
    # 2-edge circuit instead puts the last block, which holds the root, first
    m = len(edges)
    s = edges.index(min(edges))
    if m == 2:
        forward = s == 1
    else:
        forward = edges[(s + 1) % m] < edges[s - 1]
    if forward:
        idx = [(s + t) % m for t in range(m)]
        slices = [blocks[i] for i in idx]
    else:
        idx = [(s - t) % m for t in range(m)]
        slices = [blocks[i - 1] for i in idx]
    return Circuit(tuple(edges[i] for i in idx), pre, tuple(slices))


def circuit_through(inst: Instance, comp: UComponent, eid: int) -> Circuit:
    """The entry of ``circuit_partition`` holding ``eid``, an edge of the
    component that is no bridge of it, built alone: one ``_cyclic_circuit``
    over the edges sharing its label, or the trivial circuit when no other
    edge does."""
    label = _cover_labels(inst, comp)
    a = label.get(eid)
    if not a:
        raise GraphError("edge is a bridge of its component or not in it")
    group = [e for e, b in label.items() if b == a]
    if len(group) == 1:
        return Circuit((eid,))
    pre, _, tree_edge, size, _ = _dfs_tree(inst, comp)
    return _cyclic_circuit(group, pre, {e: i for i, e in enumerate(tree_edge) if i}, size)


def blocks_along(inst: Instance, comp: UComponent, circuit: Circuit) -> list[Block]:
    """Ordered blocks of a circuit of ``comp``, block i sitting between
    edges i and i+1 (cyclic)."""
    if circuit.trivial:
        raise GraphError("trivial circuit has no block decomposition")
    pre, fdeg = circuit.preorder, inst.fdeg
    blocks = []
    for bounds in circuit.slices:  # flat (lo, hi, ...) preorder slices
        piece = set()
        for j in range(0, len(bounds), 2):
            piece.update(pre[bounds[j] : bounds[j + 1]])
        blocks.append(Block(frozenset(piece), sum(fdeg[v] for v in piece) % 2 == 1))
    return blocks


def classify_block(inst: Instance, block: Block) -> str:
    if len(block.vertices) == 1:
        v = next(iter(block.vertices))
        _, df, _ = inst.degrees(v)
        return TRIVIAL if df >= 1 else REDUCIBLE
    if _is_two_pendent_critical(inst, block.vertices):
        return TWO_PENDENT_CRITICAL
    return NORMAL


def _edges_inside(inst: Instance, verts, forced: bool) -> list[int]:
    """Edges with both ends in ``verts`` and the given forced mark."""
    out = []
    seen = set()
    for v in verts:
        for e in inst.adj[v]:
            if e in seen or inst.eforced[e] != forced:
                continue
            seen.add(e)
            if inst.other_end(e, v) in verts:
                out.append(e)
    return out


def _cycle_order(inst: Instance, verts):
    """The unforced edges inside ``verts`` in cyclic order, walked from the
    lowest vertex along its lowest edge, or None unless they form one cycle
    through every vertex of ``verts``."""
    at: dict[int, list[int]] = {}
    for e in _edges_inside(inst, verts, False):
        at.setdefault(inst.eu[e], []).append(e)
        at.setdefault(inst.ev[e], []).append(e)
    if len(at) != len(verts) or any(len(es) != 2 for es in at.values()):
        return None
    start = min(verts)
    e = min(at[start])
    order = [e]
    v = inst.other_end(e, start)
    while v != start:
        a, b = at[v]
        e = b if a == e else a
        order.append(e)
        v = inst.other_end(e, v)
    # 2-regular, so the walk closes; it spans iff it used every edge
    return order if len(order) == len(verts) else None


def _is_cycle_shape(inst: Instance, verts, length: int) -> bool:
    return len(verts) == length and _cycle_order(inst, verts) is not None


def _is_six_cycle_extension(inst: Instance, verts) -> bool:
    """An 8-vertex shape: a 6-cycle plus an adjacent pair attached to two
    distinct cycle vertices.  Equivalently: 9 inner edges, degrees
    2,2,2,2,2,2,3,3, and an inner edge between two degree-2 vertices whose
    removal with both ends leaves a 6-cycle; its ends then hang from the
    two degree-3 vertices, which the 6-cycle passes through."""
    if len(verts) != 8:
        return False
    inner = _edges_inside(inst, verts, False)
    if len(inner) != 9:
        return False
    deg = {v: 0 for v in verts}
    for e in inner:
        deg[inst.eu[e]] += 1
        deg[inst.ev[e]] += 1
    if sorted(deg.values()) != [2, 2, 2, 2, 2, 2, 3, 3]:
        return False
    return any(
        deg[inst.eu[e]] == deg[inst.ev[e]] == 2
        and _is_cycle_shape(inst, verts - {inst.eu[e], inst.ev[e]}, 6)
        for e in inner
    )


def _is_critical_shape(inst: Instance, verts) -> bool:
    """Chordless 6-cycle or 6-cycle extension with no forced edge inside."""
    if _edges_inside(inst, verts, True):
        return False
    return _is_cycle_shape(inst, verts, 6) or _is_six_cycle_extension(inst, verts)


def _is_two_pendent_critical(inst: Instance, verts) -> bool:
    if len(verts) not in (6, 8):  # the only sizes of _is_critical_shape
        return False
    cf, cu = inst.cut(verts)
    return len(cu) == 2 and len(cf) == 4 and _is_critical_shape(inst, verts)


def is_critical_component(inst: Instance, comp: UComponent) -> bool:
    """Chordless 6-cycle or 6-cycle extension with six forced boundary edges:
    six forced ends, none of them on an edge inside."""
    return comp.forced_ends == 6 and _is_critical_shape(inst, comp.vertices)


def is_standard_four_cycle(inst: Instance, comp: UComponent) -> bool:
    """Unforced 4-cycle whose vertices each carry exactly one forced edge.

    Only this settled form cancels against its own vertex weight; a 4-cycle
    with a degree-2 vertex still has pending decisions and is weighted like
    a generic component.
    """
    if not _is_cycle_shape(inst, comp.vertices, 4):
        return False
    return all(inst.degrees(v)[1] == 1 for v in comp.vertices)


def is_four_cycle_shape(inst: Instance, comp: UComponent) -> bool:
    return _is_cycle_shape(inst, comp.vertices, 4)


# -- minimal normal block -----------------------------------------------------


def find_minimal_normal_block(inst: Instance, candidates):
    """The branch block among ``candidates``, a component's normal blocks as
    ``(circuit, i, block)`` with ``block`` the i-th of ``blocks_along``: the
    first, by fewest vertices and then lexicographic vertex ids, that nests
    no normal block, else the first of all.

    In a 2-edge-connected component with no vertex of degree above 3, a
    normal block B nests one (a block of two or more vertices, not two-pendent
    critical, of a circuit of its inner unforced edges H taken alone) iff H
    is not one cycle through all of B.  A cycle's one circuit has only
    single-vertex blocks.  Conversely, B's circuit edges a and b meet it at
    x != y, or x's one edge into B would be a bridge.  H is connected and
    bridgeless, as a bridge of H is a cut alone or with a; so x has two H
    edges, whose cut class K of H has the block {x}.  A block of any circuit
    of H that holds x has a and two circuit edges as unforced boundary, so
    it is never two-pendent critical.  If every block of K is one vertex, H
    is K's cycle.  Else K has a block D of two or more vertices; unless D is
    normal it is critical, so one of its vertices has only its two H edges,
    whose cut class is not K, and x's block of that class holds x's H
    neighbours: it is normal.
    """
    if not candidates:
        raise GraphError("no normal block in component")
    ranked = sorted(candidates, key=lambda c: (len(c[2].vertices), tuple(sorted(c[2].vertices))))
    return next((c for c in ranked if _cycle_order(inst, c[2].vertices) is not None), ranked[0])


def dump_structure(inst: Instance) -> str:
    """Debug dump: one line per circuit (edge ids), one per block."""
    lines = []
    for comp in inst.u_components():
        if comp.trivial:
            lines.append(f"component {min(comp.vertices)}: trivial")
            continue
        if not is_2_edge_connected(inst, comp):
            lines.append(f"component {min(comp.vertices)}: not 2-edge-connected")
            continue
        lines.append(
            f"component {min(comp.vertices)}: edges {' '.join(map(str, comp.edges))}"
        )
        for circuit in circuit_partition(inst, comp):
            kind = "trivial" if circuit.trivial else "cyclic"
            lines.append(
                f"  circuit {' '.join(map(str, circuit.edges))} [{kind}]"
            )
            if circuit.trivial:
                continue
            for block in blocks_along(inst, comp, circuit):
                verts = " ".join(map(str, sorted(block.vertices)))
                par = "odd" if block.odd else "even"
                lines.append(
                    f"    block {verts} kind={classify_block(inst, block)} parity={par}"
                )
    return "\n".join(lines) + "\n"

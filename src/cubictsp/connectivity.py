"""Circuit and block structure of 2-edge-connected unforced components.

In a 2-edge-connected component made of unforced edges, the pairs of edges
whose joint removal disconnects the component form an equivalence relation;
its classes are the *circuits*.  The connected pieces left between two
consecutive circuit edges are the *blocks*.  Branching and the deterministic
propagation of include/delete decisions both walk this structure.

One module-level cache, keyed on a component's labelled unforced edges,
shares results across search-tree siblings that did not touch the
component.  It may hold only facts of those labelled edges: bridges, cut
pairs with their sides, small 3-cuts and the circuit partition.  Anything
that reads forced edges, such as a block's forced boundary, is recomputed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import wraps

from .graph import GraphError, Instance, UComponent

# Largest side, in vertices, that the small-cut searches and rewrites
# consider; read at call time.
SMALL_SIDE = 10

# labelled unforced edges of a component -> {function name: result}
_CACHE: dict = {}
_CACHE_LIMIT = 200_000


def clear_caches() -> None:
    _CACHE.clear()


def _cached(fn):
    """Memoize ``fn(inst, comp)`` in the component's entry of the cache."""
    name = fn.__name__

    @wraps(fn)
    def lookup(inst: Instance, comp: UComponent):
        key = tuple((e, inst.eu[e], inst.ev[e]) for e in comp.edges)
        entry = _CACHE.get(key)
        if entry is None:
            entry = {}
            if len(_CACHE) < _CACHE_LIMIT:
                _CACHE[key] = entry
        if name not in entry:
            entry[name] = fn(inst, comp)
        return entry[name]

    return lookup


@dataclass(frozen=True)
class Block:
    """Piece of a component between two consecutive circuit edges."""

    vertices: frozenset
    cut_forced: int

    @property
    def odd(self) -> bool:
        return self.cut_forced % 2 == 1


@dataclass(frozen=True)
class Circuit:
    edges: tuple  # ordered edge ids; cyclic when nontrivial
    trivial: bool


TRIVIAL = "trivial"
REDUCIBLE = "reducible"
TWO_PENDENT_CRITICAL = "two_pendent_critical"
NORMAL = "normal"


def is_2_edge_connected(inst: Instance, comp: UComponent) -> bool:
    """No single unforced edge disconnects the component."""
    if comp.trivial:
        raise GraphError("component is trivial")
    return not _unforced_bridges(inst, comp)


def _edge_mask(inst: Instance, edges) -> list[bool]:
    ok = [False] * len(inst.ealive)
    for e in edges:
        ok[e] = True
    return ok


@_cached
def _unforced_bridges(inst: Instance, comp: UComponent) -> list[int]:
    ok = _edge_mask(inst, comp.edges)
    return inst.bridges(edge_ok=ok, roots=(inst.eu[comp.edges[0]],))


@_cached
def component_pairs2(inst: Instance, comp: UComponent):
    """Disconnecting edge pairs of a component with their two vertex sides."""
    pairs2 = []
    for e, f in two_cut_pairs(inst, comp):
        pieces = _subgraph_pieces(inst, comp.vertices, comp.edges, {e, f})
        if len(pieces) == 2:
            pairs2.append((e, f, pieces[0], pieces[1]))
    return pairs2


@_cached
def component_cut_structure(inst: Instance, comp: UComponent):
    """Small-cut skeleton of one 2-edge-connected component.

    Returns (pairs2, triples3): ``pairs2`` holds every disconnecting edge
    pair with its two vertex sides; ``triples3`` holds an entry
    ``(e, f, h, X)`` for every connected vertex set X of at most
    ``SMALL_SIDE`` vertices whose boundary inside the component is exactly
    the three edges e < f < h.  Entries are sorted by their triple; when
    both sides of one triple fit, the side holding ``inst.eu[e]`` comes
    first.  The cached list assumes ``SMALL_SIDE`` has not changed since
    the last ``clear_caches()``.
    """
    verts = sorted(comp.vertices)
    found = _small_three_cuts(_local_adjacency(inst, verts, comp.edges), SMALL_SIDE)
    triples3 = sorted(
        (cut + (frozenset(verts[i] for i in xs),) for cut, xs in found),
        key=lambda t: (t[:3], inst.eu[t[0]] not in t[3]),
    )
    return component_pairs2(inst, comp), triples3


def _small_three_cuts(nbr, cap: int):
    """(sorted boundary triple, X) for every connected X of at most ``cap``
    local indices whose boundary is exactly three edges.

    X is grown from its smallest index r, so indices below r stay outside.
    Each step takes the pending neighbour with the most edges into X and
    either adds it or bans it, which turns those edges into boundary; every
    connected X is reached once.  A branch dies once its boundary passes
    three edges, or once the pending vertices that cannot all fit under
    ``cap`` would push it past three when banned.
    """
    found = []

    def grow(r, xs, cut, pending, banned):
        # cut counts boundary edges so far; pending maps each undecided
        # neighbour of xs to its number of edges into xs
        if not pending:
            if cut == 3:
                found.append(xs)
            return
        room = 3 - cut
        spill = len(pending) + len(xs) - cap
        if spill > 0 and (spill > room or sum(sorted(pending.values())[:spill]) > room):
            return
        w = max(pending, key=pending.get)
        rest = dict(pending)
        into = rest.pop(w)
        if len(xs) < cap:
            add(r, xs, w, cut, rest, banned)
        if into <= room:
            grow(r, xs, cut + into, rest, banned | {w})

    def add(r, xs, w, cut, pending, banned):
        xs = xs | {w}
        pending = dict(pending)
        for _, y in nbr[w]:
            if y in xs:
                continue
            if y < r or y in banned:
                cut += 1
            else:
                pending[y] = pending.get(y, 0) + 1
        if cut <= 3:
            grow(r, xs, cut, pending, banned)

    for r in range(len(nbr)):
        add(r, frozenset(), r, 0, {}, frozenset())
    return [
        (tuple(sorted(e for v in xs for e, y in nbr[v] if y not in xs)), xs)
        for xs in found
    ]


def _subgraph_pieces(inst, vertices, edges, removed) -> list[frozenset]:
    """Connected vertex pieces of (vertices, edges - removed)."""
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


def _mix64(x: int) -> int:
    """splitmix64 finisher; a bijection on 64-bit words."""
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


def _edge_fingerprint(e: int) -> int:
    """128-bit per-edge fingerprint (two independent 64-bit mixes)."""
    return _mix64(e) | (_mix64(e ^ 0x5851F42D4C957F2D) << 64)


def _local_adjacency(inst: Instance, verts, edges) -> list[list[tuple[int, int]]]:
    """(edge id, neighbour index) lists of a subgraph, indexed by the
    position of each vertex in ``verts``."""
    idx = {v: i for i, v in enumerate(verts)}
    nbr: list[list[tuple[int, int]]] = [[] for _ in verts]
    for e in edges:
        u, v = idx[inst.eu[e]], idx[inst.ev[e]]
        nbr[u].append((e, v))
        nbr[v].append((e, u))
    return nbr


@_cached
def two_cut_pairs(inst: Instance, comp: UComponent) -> list[tuple[int, int]]:
    """All unforced edge pairs whose removal disconnects the component and
    of which neither edge is a bridge by itself.

    A pair of tree edges separates iff the same back edges cover both, and a
    (tree, back) pair iff that back edge is the tree edge's only cover; cover
    sets are compared by 128-bit XOR fingerprints (never missing a pair,
    since equal sets hash equally).  (tree, back) matches are exact outright;
    tree-pair groups are confirmed exactly by a bridge sweep.
    """
    verts = sorted(comp.vertices)
    nbr = _local_adjacency(inst, verts, comp.edges)
    n = len(nbr)
    num = [-1] * n
    tree_edge = [-1] * n
    tree_seen = [False] * n
    parent = [-1] * n
    order = []
    xor_acc = [0] * n
    cnt_acc = [0] * n
    back_val: dict[int, int] = {}
    num[0] = 0
    order.append(0)
    stack = [(0, iter(nbr[0]))]
    while stack:
        v, it = stack[-1]
        advanced = False
        for e, w in it:
            if e == tree_edge[v] and not tree_seen[v]:
                tree_seen[v] = True  # a parallel copy is still a back edge
                continue
            if num[w] == -1:
                num[w] = len(order)
                order.append(w)
                tree_edge[w] = e
                tree_seen[w] = False
                parent[w] = v
                stack.append((w, iter(nbr[w])))
                advanced = True
                break
            if num[w] < num[v]:
                val = _edge_fingerprint(e)
                back_val[e] = val
                xor_acc[v] ^= val
                xor_acc[w] ^= val
                cnt_acc[v] += 1
                cnt_acc[w] -= 1
        if not advanced:
            stack.pop()
    if len(order) != n:
        raise GraphError("subgraph is not connected")
    for v in reversed(order[1:]):
        p = parent[v]
        xor_acc[p] ^= xor_acc[v]
        cnt_acc[p] += cnt_acc[v]
    val_to_back = {val: e for e, val in back_val.items()}
    out = []
    singles: dict[int, list[int]] = {}
    multis: dict[int, list[int]] = {}
    for v in order[1:]:
        if cnt_acc[v] == 0:
            continue  # bridge; not part of any minimal pair
        h = xor_acc[v]
        if cnt_acc[v] == 1:
            singles.setdefault(h, []).append(tree_edge[v])
        else:
            multis.setdefault(h, []).append(tree_edge[v])
    # a single cover fingerprints to exactly that back edge, so these matches
    # and the pairs inside one singles group are exact outright
    for h, group in singles.items():
        b = val_to_back.get(h)
        members = sorted(group + ([b] if b is not None else []))
        for i, a in enumerate(members):
            for m in members[i + 1 :]:
                out.append((a, m))

    # Equal covers form an equivalence, so one sweep against a representative
    # settles a whole group: the true partners of edge r are exactly the
    # bridges of the subgraph minus r.  Rejected members (possible only via a
    # fingerprint collision) are regrouped and retried.
    ok = _edge_mask(inst, comp.edges)
    for h, group in multis.items():
        pending = sorted(group)
        while len(pending) > 1:
            ok[pending[0]] = False
            bset = set(inst.bridges(edge_ok=ok, roots=(verts[0],)))
            ok[pending[0]] = True
            verified = [pending[0]] + [m for m in pending[1:] if m in bset]
            for i, a in enumerate(verified):
                for m in verified[i + 1 :]:
                    out.append((a, m))
            pending = [m for m in pending[1:] if m not in bset]
    return sorted(set(out))


@_cached
def circuit_partition(inst: Instance, comp: UComponent) -> list[Circuit]:
    """Partition the component's edges into circuits.

    Two edges share a circuit iff they form a disconnecting pair; edges in
    no such pair sit in their own trivial circuit.  Nontrivial circuits are
    returned in cyclic order, normalized to start at their lowest edge id
    and run toward the lower-id neighbouring edge.
    """
    if comp.trivial:
        raise GraphError("component is trivial")
    if not is_2_edge_connected(inst, comp):
        raise GraphError("component is not 2-edge-connected")
    parent = {e: e for e in comp.edges}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e, f in two_cut_pairs(inst, comp):
        re, rf = find(e), find(f)
        if re != rf:
            parent[re] = rf

    groups: dict[int, list[int]] = {}
    for e in comp.edges:
        groups.setdefault(find(e), []).append(e)

    circuits = []
    for group in groups.values():
        group.sort()
        if len(group) == 1:
            circuits.append(Circuit((group[0],), True))
            continue
        circuits.append(Circuit(_circuit_cycle(inst, comp, group)[0], False))
    circuits.sort(key=lambda c: c.edges[0])
    return circuits


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


def blocks_along(inst: Instance, comp: UComponent, circuit: Circuit) -> list[Block]:
    """Ordered blocks, block i sitting between edges i and i+1 (cyclic)."""
    if circuit.trivial:
        raise GraphError("trivial circuit has no block decomposition")
    order, pieces = _circuit_cycle(inst, comp, circuit.edges)
    if order != circuit.edges:
        raise GraphError("circuit edges out of normalized order")
    blocks = []
    for piece in pieces:
        cf = 0
        for v in piece:
            for g in inst.adj[v]:
                if inst.eforced[g] and inst.other_end(g, v) not in piece:
                    cf += 1
        blocks.append(Block(piece, cf))
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


def _is_cycle_shape(inst: Instance, verts, length: int) -> bool:
    if len(verts) != length:
        return False
    inner = _edges_inside(inst, verts, False)
    if len(inner) != length:
        return False
    deg = {v: 0 for v in verts}
    for e in inner:
        deg[inst.eu[e]] += 1
        deg[inst.ev[e]] += 1
    if any(d != 2 for d in deg.values()):
        return False
    # connected 2-regular on `length` vertices is a single cycle
    pieces = _subgraph_pieces(inst, verts, inner, set())
    return len(pieces) == 1


def _is_six_cycle_extension(inst: Instance, verts) -> bool:
    """An 8-vertex shape: a 6-cycle plus an adjacent pair attached to two
    distinct cycle vertices.  Equivalently: suppressing the degree-2 chain
    vertices leaves two vertices joined by three paths, one of length 3."""
    if len(verts) != 8:
        return False
    inner = _edges_inside(inst, verts, False)
    if len(inner) != 9:
        return False
    deg = {v: 0 for v in verts}
    for e in inner:
        deg[inst.eu[e]] += 1
        deg[inst.ev[e]] += 1
    counts = sorted(deg.values())
    if counts != [2, 2, 2, 2, 2, 2, 3, 3]:
        return False
    pieces = _subgraph_pieces(inst, verts, inner, set())
    if len(pieces) != 1:
        return False
    hubs = [v for v in verts if deg[v] == 3]
    adjmap: dict[int, list[tuple[int, int]]] = {v: [] for v in verts}
    for e in inner:
        u, v = inst.eu[e], inst.ev[e]
        adjmap[u].append((v, e))
        adjmap[v].append((u, e))
    # walk the three chains leaving hub 0; all must end at hub 1
    lengths = []
    used: set[int] = set()
    for w, e0 in adjmap[hubs[0]]:
        if e0 in used:
            continue
        used.add(e0)
        length = 1
        cur = w
        while deg[cur] == 2:
            step = [(x, e) for x, e in adjmap[cur] if e not in used]
            if not step:
                return False
            x, e = step[0]
            used.add(e)
            cur = x
            length += 1
        if cur != hubs[1]:
            return False
        lengths.append(length)
    return len(lengths) == 3 and 3 in lengths and sum(lengths) == 9


def _is_critical_shape(inst: Instance, verts) -> bool:
    """Chordless 6-cycle or 6-cycle extension with no forced edge inside."""
    if _edges_inside(inst, verts, True):
        return False
    return _is_cycle_shape(inst, verts, 6) or _is_six_cycle_extension(inst, verts)


def _is_two_pendent_critical(inst: Instance, verts) -> bool:
    cf, cu = inst.cut(verts)
    return len(cu) == 2 and len(cf) == 4 and _is_critical_shape(inst, verts)


def is_critical_component(inst: Instance, comp: UComponent) -> bool:
    """Chordless 6-cycle or 6-cycle extension with six forced boundary edges."""
    return comp.boundary_forced == 6 and _is_critical_shape(inst, comp.vertices)


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


def _standalone_component(inst: Instance, verts) -> UComponent:
    edges = tuple(sorted(_edges_inside(inst, verts, False)))
    boundary = 0
    for v in verts:
        for e in inst.adj[v]:
            if inst.eforced[e] and inst.other_end(e, v) not in verts:
                boundary += 1
    return UComponent(frozenset(verts), edges, boundary)


def _has_normal_subblock(inst: Instance, verts, depth: int = 0) -> bool:
    """Recursively scan a block as a standalone 2-edge-connected piece for
    any inner block that would itself deserve branching."""
    if depth > 32:
        raise GraphError("block nesting too deep")
    sub = _standalone_component(inst, verts)
    if sub.trivial or len(sub.vertices) < 2:
        return False
    for circuit in circuit_partition(inst, sub):
        if circuit.trivial:
            continue
        for block in blocks_along(inst, sub, circuit):
            if block.vertices == verts:
                continue
            if len(block.vertices) == 1:
                continue
            if _is_two_pendent_critical(inst, block.vertices):
                continue
            return True
    return False


def find_minimal_normal_block(inst: Instance, comp: UComponent):
    """A normal block containing no nested normal block, with the circuit it
    lies on.  Preference: fewest vertices, then lexicographic vertex ids."""
    candidates = []
    for circuit in circuit_partition(inst, comp):
        if circuit.trivial:
            continue
        for block in blocks_along(inst, comp, circuit):
            if classify_block(inst, block) == NORMAL:
                candidates.append((circuit, block))
    if not candidates:
        raise GraphError("no normal block in component")
    minimal = [
        (c, b) for c, b in candidates if not _has_normal_subblock(inst, b.vertices)
    ]
    pool = minimal if minimal else candidates
    pool.sort(key=lambda cb: (len(cb[1].vertices), tuple(sorted(cb[1].vertices))))
    return pool[0]


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

import collections
import hashlib
import random
from fractions import Fraction

import pytest

import cubictsp.connectivity as conn
import cubictsp.reductions as red
import cubictsp.search as search
from cubictsp.generators import GeneratorSpec, generate, inject_forced
from cubictsp.graph import GraphError, Instance
from cubictsp.oracles import brute_force_4cycles, exhaustive_forced, held_karp
from cubictsp.search import (
    _four_cycle_matchings,
    circuit_procedure,
    select_branch_circuit,
    select_branch_circuit_simple,
    solve,
    solve_all_4cycles,
)

import test_connectivity as families_of
from conftest import build, cycle_instance, six_cycle_with_pendants


# -- circuit procedure ---------------------------------------------------------


def test_six_cycle_alternates_include_delete():
    inst = six_cycle_with_pendants()
    comp = inst.component_of(0)
    (circuit,) = conn.circuit_partition(inst, comp)
    feas = circuit_procedure(inst, None, comp, circuit, circuit.edges[0], "include")
    assert not feas.infeasible
    states = [
        "F" if inst.eforced[e] else ("dead" if not inst.ealive[e] else "U")
        for e in circuit.edges
    ]
    assert states == ["F", "dead", "F", "dead", "F", "dead"]


def test_six_cycle_delete_start_flips_pattern():
    inst = six_cycle_with_pendants()
    comp = inst.component_of(0)
    (circuit,) = conn.circuit_partition(inst, comp)
    circuit_procedure(inst, None, comp, circuit, circuit.edges[0], "delete")
    states = [
        "F" if inst.eforced[e] else ("dead" if not inst.ealive[e] else "U")
        for e in circuit.edges
    ]
    assert states == ["dead", "F", "dead", "F", "dead", "F"]


def chain2_instance():
    """Length-2 circuit u1-v1-v2 against an odd five-vertex block; both the
    shared vertex and the block are odd, so the boundary parity is even."""
    inst = build(
        10,
        [
            (0, 1),   # e0: u1 - v1
            (1, 2),   # e1: v1 - v2
            (0, 3), (0, 4),
            (2, 3), (2, 4),
            (3, 5), (4, 5),
            (6, 7), (7, 8), (8, 9), (9, 6),
        ],
    )
    inst.add_edge(1, 6, 1, forced=True)  # v1 pendant
    inst.add_edge(5, 8, 1, forced=True)  # x pendant
    inst.add_edge(7, 9, 1, forced=True)  # host chord
    return inst


def test_chain2_include_deletes_partner():
    # including the first chain edge finishes the shared trivial vertex, so
    # the second chain edge must go
    inst = chain2_instance()
    comp = inst.component_of(0)
    chain = next(c for c in conn.circuit_partition(inst, comp) if set(c.edges) == {0, 1})
    circuit_procedure(inst, None, comp, chain, 0, "include")
    assert inst.eforced[0] and not inst.ealive[1]


def test_chain2_delete_includes_partner():
    inst = chain2_instance()
    comp = inst.component_of(0)
    chain = next(c for c in conn.circuit_partition(inst, comp) if set(c.edges) == {0, 1})
    circuit_procedure(inst, None, comp, chain, 0, "delete")
    assert not inst.ealive[0] and inst.eforced[1]


def chain3_instance():
    """Three-edge circuit through two pinned vertices, rest one block."""
    inst = build(
        12,
        [
            (0, 1),   # e0: u1 - v1
            (1, 2),   # e1: v1 - v2
            (2, 3),   # e2: v2 - v3
            (0, 4), (0, 5),
            (3, 6), (3, 7),
            (4, 6), (5, 7), (4, 8), (5, 9), (6, 8), (7, 9),
            (8, 10), (9, 11), (10, 11),
        ],
    )
    inst.add_edge(1, 10, 1, forced=True)
    inst.add_edge(2, 11, 1, forced=True)
    return inst


def test_chain3_propagation():
    inst = chain3_instance()
    comp = inst.component_of(0)
    chain = next(
        c for c in conn.circuit_partition(inst, comp) if set(c.edges) == {0, 1, 2}
    )
    probe = inst.copy()
    circuit_procedure(probe, None, comp, chain, 0, "include")
    # odd single-vertex blocks flip the decision at every step
    assert probe.eforced[0] and not probe.ealive[1] and probe.eforced[2]
    probe = inst.copy()
    circuit_procedure(probe, None, comp, chain, 0, "delete")
    assert not probe.ealive[0] and probe.eforced[1] and not probe.ealive[2]


def test_circuit_procedure_keeps_blocks_as_components():
    # after processing, every block is its own 2-edge-connected component and
    # other components are untouched
    inst = chain3_instance()
    comp = inst.component_of(0)
    chain = next(
        c for c in conn.circuit_partition(inst, comp) if set(c.edges) == {0, 1, 2}
    )
    blocks = conn.blocks_along(inst, comp, chain)
    before_others = [
        c.vertices for c in inst.u_components() if c.vertices != comp.vertices
    ]
    circuit_procedure(inst, None, comp, chain, 0, "include")
    comps_after = {c.vertices: c for c in inst.u_components()}
    for block in blocks:
        assert block.vertices in comps_after
        sub = comps_after[block.vertices]
        if not sub.trivial:
            assert conn.is_2_edge_connected(inst, sub)
    for verts in before_others:
        assert verts in comps_after


def test_circuit_procedure_parity_of_blocks():
    # every block's pinned boundary stays even when feasible
    inst = six_cycle_with_pendants()
    comp = inst.component_of(0)
    (circuit,) = conn.circuit_partition(inst, comp)
    blocks = conn.blocks_along(inst, comp, circuit)
    circuit_procedure(inst, None, comp, circuit, circuit.edges[0], "include")
    for block in blocks:
        cf, _ = inst.cut(block.vertices)
        assert len(cf) % 2 == 0


def test_wraparound_contradiction_reported():
    # an odd number of odd blocks cannot be processed consistently
    inst = build(
        9,
        [(0, 1), (1, 2), (2, 0)]
        + [(3 + i, 3 + (i + 1) % 6) for i in range(6)],
    )
    inst.add_edge(0, 3, 1, forced=True)
    inst.add_edge(1, 5, 1, forced=True)
    inst.add_edge(2, 7, 1, forced=True)
    comp = inst.component_of(0)
    (circuit,) = [
        c for c in conn.circuit_partition(inst, comp) if len(c.edges) == 3
    ]
    feas = circuit_procedure(
        inst.copy(), None, comp, circuit, circuit.edges[0], "include"
    )
    assert feas.infeasible


# -- branch selection -----------------------------------------------------------


def test_select_prefers_all_trivial_circuit():
    inst = six_cycle_with_pendants()
    comp, circuit, pivot = select_branch_circuit(inst)
    blocks = conn.blocks_along(inst, comp, circuit)
    assert all(conn.classify_block(inst, b) == conn.TRIVIAL for b in blocks)
    assert pivot == circuit.edges[0]


def test_select_targets_minimal_normal_block():
    inst = chain2_instance()
    comp, circuit, pivot = select_branch_circuit(inst)
    blocks = conn.blocks_along(inst, comp, circuit)
    kinds = [conn.classify_block(inst, b) for b in blocks]
    assert conn.NORMAL in kinds
    # pivot sits on the boundary of the targeted block
    normal = next(b for b in blocks if conn.classify_block(inst, b) == conn.NORMAL)
    cf, cu = inst.cut(normal.vertices)
    assert pivot in cu


def test_select_single_edge_fallback_for_3ec_graph():
    inst = generate(GeneratorSpec(kind="named", name="petersen"))
    comp, circuit, pivot = select_branch_circuit(inst)
    assert circuit.trivial
    assert pivot == circuit.edges[0] == 0


def test_select_simple_wants_trivial_block():
    inst = six_cycle_with_pendants()
    comp, circuit, pivot = select_branch_circuit_simple(inst)
    blocks = conn.blocks_along(inst, comp, circuit)
    assert any(len(b.vertices) == 1 for b in blocks)


def test_select_is_deterministic():
    inst = chain2_instance()
    a = select_branch_circuit(inst)
    b = select_branch_circuit(inst)
    assert a[1].edges == b[1].edges and a[2] == b[2]


def _three_pass_minimal_normal_block(inst, comp):
    """The earlier ``find_minimal_normal_block(inst, comp)``: gather every
    normal block of the component anew, then take the first by size and
    vertex ids with no nested normal block, else the first of all."""
    candidates = []
    for circuit in conn.circuit_partition(inst, comp):
        if circuit.trivial:
            continue
        for block in conn.blocks_along(inst, comp, circuit):
            if conn.classify_block(inst, block) == conn.NORMAL:
                candidates.append((circuit, block))
    if not candidates:
        raise GraphError("no normal block in component")
    candidates.sort(key=lambda cb: (len(cb[1].vertices), tuple(sorted(cb[1].vertices))))
    nests = families_of._has_normal_subblock_by_partition
    return next((cb for cb in candidates if not nests(inst, cb[1].vertices)), candidates[0])


def _three_pass_pivot(circuit, blocks, target):
    """The earlier ``_pivot_at_block``: the circuit edge before ``target``."""
    for i in range(len(circuit.edges)):
        if blocks[i].vertices == target.vertices:
            return circuit.edges[i]
    raise GraphError("block not on circuit")


def _three_pass_branch_circuit(inst):
    """The branch rule as it was before one pass picked it: the circuits'
    blocks classified by the circuit loop, again by the normal-block pick
    and a third time to find the pivot.  Returns the pick and which case
    made it."""
    for comp in inst.u_components():
        if comp.trivial or conn.is_four_cycle_shape(inst, comp):
            continue
        circuits = conn.circuit_partition(inst, comp)
        nontrivial = [c for c in circuits if not c.trivial]
        for circuit in nontrivial:
            blocks = conn.blocks_along(inst, comp, circuit)
            kinds = [conn.classify_block(inst, b) for b in blocks]
            if all(k in (conn.TRIVIAL, conn.TWO_PENDENT_CRITICAL) for k in kinds):
                return (comp, circuit, circuit.edges[0]), "circuit"
        if nontrivial:
            circuit, block = _three_pass_minimal_normal_block(inst, comp)
            blocks = conn.blocks_along(inst, comp, circuit)
            nested = families_of._has_normal_subblock_by_partition(inst, block.vertices)
            pick = (comp, circuit, _three_pass_pivot(circuit, blocks, block))
            return pick, "nested" if nested else "minimal"
        return (comp, circuits[0], circuits[0].edges[0]), "edge"
    raise GraphError("no branchable component")


def _pick_or_error(pick, inst):
    try:
        return pick(inst)
    except GraphError as exc:
        return str(exc)


def test_one_pass_pick_matches_the_three_pass_rule(monkeypatch):
    # at every branch node of seeded solves, and on the nested and critical
    # families as built, the one-pass pick is the three-pass one
    seen = collections.Counter()
    pick = search.select_branch_circuit

    def checked(inst):
        want, case = _three_pass_branch_circuit(inst)
        got = pick(inst)
        assert got == want
        seen[case] += 1
        return got

    families = [
        families_of.chain2_instance(),
        families_of.four_cycle_block_instance(),
        families_of.nested_block_instance(),
        families_of.critical_block_instance(),
        families_of.critical_inner_block_instance(),
        six_cycle_with_pendants(),
        *(families_of.extension_instance(0, j) for j in (1, 2, 3)),
    ]
    for inst in families:
        want = _pick_or_error(lambda x: _three_pass_branch_circuit(x)[0], inst)
        assert _pick_or_error(pick, inst) == want
    monkeypatch.setattr(search, "select_branch_circuit", checked)
    for inst in families:
        solve(inst)
    for seed in range(24):
        base = generate(
            GeneratorSpec(kind="random_cubic", n=16 + 2 * (seed % 6), seed=seed, weights="random")
        )
        solve(inject_forced(base, seed % 7, seed=seed))
    assert seen["nested"] >= 40 and seen["minimal"] >= 10, seen
    assert seen["circuit"] >= 5 and seen["edge"] >= 1, seen


# -- all-4-cycles base case --------------------------------------------------------


def four_cycle_chain(k, rng=None, weights=None):
    """k settled 4-cycles in a ring: pinned edges join consecutive cycles."""
    inst = Instance()
    for _ in range(4 * k):
        inst.add_vertex()
    rng = rng or random.Random(1)
    for c in range(k):
        base = 4 * c
        for i in range(4):
            w = weights[c][i] if weights else Fraction(rng.randint(1, 9))
            inst.add_edge(base + i, base + (i + 1) % 4, w)
    for c in range(k):
        nxt = (c + 1) % k
        inst.add_edge(4 * c + 1, 4 * nxt, 1, forced=True)
        if k > 1:
            inst.add_edge(4 * c + 2, 4 * nxt + 3, 1, forced=True)
        else:
            inst.add_edge(4 * c + 2, 4 * c + 3, 1, forced=True)
    return inst


def test_single_four_cycle_picks_cheaper_pair():
    # one 4-cycle whose forced partner edges close the tour directly
    inst = build(4, [(0, 1, 5), (1, 2, 1), (2, 3, 5), (3, 0, 2)])
    inst.add_edge(0, 1, 0, forced=True)
    inst.add_edge(2, 3, 0, forced=True)
    got = solve_all_4cycles(inst)
    # tour must use the opposite pair {1-2, 3-0}: cost 1 + 2 + forced 0
    assert got.optimal and got.cost == 3


def test_all_4cycles_matches_bruteforce_random(rng):
    for trial in range(60):
        k = rng.randint(1, 5)
        inst = four_cycle_chain(k, rng=random.Random(trial))
        fast = solve_all_4cycles(inst)
        slow = brute_force_4cycles(inst)
        assert fast.status == slow.status
        if fast.optimal:
            assert fast.cost == slow.cost
            assert inst.is_tour(fast.edges)


def test_all_4cycles_swap_merges_two_cycles():
    # independent cheapest pairs leave two cycles; one swap joins them
    weights = [[Fraction(1), Fraction(9), Fraction(1), Fraction(9)] for _ in range(2)]
    inst = four_cycle_chain(2, weights=weights)
    fast = solve_all_4cycles(inst)
    slow = brute_force_4cycles(inst)
    assert fast.optimal and fast.cost == slow.cost


def test_all_4cycles_rejects_wrong_shapes():
    inst = six_cycle_with_pendants()
    with pytest.raises(GraphError):
        solve_all_4cycles(inst)


def test_all_4cycles_infeasible_when_unmergeable():
    # two 4-cycles whose pinned edges pair within each cycle: two separate
    # tours, never one
    inst = Instance()
    for _ in range(8):
        inst.add_vertex()
    for c in (0, 4):
        for i in range(4):
            inst.add_edge(c + i, c + (i + 1) % 4, 1)
    inst.add_edge(0, 2, 1, forced=True)
    inst.add_edge(1, 3, 1, forced=True)
    inst.add_edge(4, 6, 1, forced=True)
    inst.add_edge(5, 7, 1, forced=True)
    got = solve_all_4cycles(inst)
    assert not got.optimal


def test_four_cycle_matchings_are_the_opposite_pairs():
    # brute_force_4cycles shares the helper, so check it on its own: its two
    # pairs are the two pairs of component edges with no common end
    rng = random.Random(4)
    for trial in range(40):
        inst = four_cycle_chain(rng.randint(1, 4), rng=random.Random(trial))
        # relabel so that edge ids follow no cycle order
        perm = list(range(len(inst.valive)))
        rng.shuffle(perm)
        order = list(range(len(inst.eu)))
        rng.shuffle(order)
        out = Instance()
        for _ in perm:
            out.add_vertex()
        for e in order:
            out.add_edge(perm[inst.eu[e]], perm[inst.ev[e]], inst.ew[e], inst.eforced[e])
        for comp in out.u_components():
            opposite = {
                frozenset((e, f))
                for i, e in enumerate(comp.edges)
                for f in comp.edges[i + 1 :]
                if not set(out.endpoints(e)) & set(out.endpoints(f))
            }
            m0, m1 = _four_cycle_matchings(out, comp)
            assert {frozenset(m0), frozenset(m1)} == opposite
            # in cycle order: m0 starts at the lowest vertex's lowest edge
            low = min(comp.vertices)
            assert m0[0] == min(e for e in comp.edges if low in out.endpoints(e))


# -- whole solver -------------------------------------------------------------------


@pytest.mark.parametrize(
    "name,expected",
    [("k4", Fraction(4)), ("prism", Fraction(6)), ("k33", Fraction(6))],
)
def test_known_instances(name, expected):
    inst = generate(GeneratorSpec(kind="named", name=name))
    for strategy in ("full", "simple"):
        got = solve(inst, strategy=strategy)
        assert got.optimal and got.cost == expected
        assert inst.is_tour(got.edges)


def test_cycle_instance_cost():
    inst = cycle_instance(6)
    got = solve(inst)
    assert got.optimal and got.cost == 6


def test_petersen_infeasible_both_strategies():
    inst = generate(GeneratorSpec(kind="named", name="petersen"))
    assert exhaustive_forced(inst).status == "infeasible"
    for strategy in ("full", "simple"):
        assert solve(inst, strategy=strategy).status == "infeasible"


def test_moebius_kantor_matches_dp():
    inst = generate(GeneratorSpec(kind="named", name="moebius_kantor"))
    want = held_karp(inst)
    got = solve(inst)
    assert got.status == want.status and got.cost == want.cost


def test_strategies_agree_on_random_corpus(rng):
    for trial in range(20):
        base = generate(
            GeneratorSpec(kind="random_cubic", n=rng.choice([8, 10, 12]), seed=700 + trial, weights="random")
        )
        inst = inject_forced(base, count=rng.randint(0, 3), seed=trial)
        a = solve(inst, strategy="full")
        b = solve(inst, strategy="simple")
        assert a.status == b.status
        if a.optimal:
            assert a.cost == b.cost


def test_branch_children_cover_include_and_delete():
    # parent optimum equals the better of the two decision subtrees
    tested = 0
    for seed in range(40):
        base = generate(
            GeneratorSpec(kind="random_cubic", n=12, seed=seed, weights="random")
        )
        inst = base.copy()
        outcome = red.reduce_to_fixpoint(inst, [])
        if outcome is not None:
            continue
        comps = inst.u_components()
        if all(c.trivial or conn.is_four_cycle_shape(inst, c) for c in comps):
            continue
        comp, circuit, pivot = select_branch_circuit(inst)
        best = None
        for action in ("include", "delete"):
            child = inst.copy()
            feas = circuit_procedure(child, None, comp, circuit, pivot, action)
            assert child.eforced[pivot] == (action == "include") or feas.infeasible
            if feas.infeasible:
                continue
            sub = solve(child)
            if sub.optimal:
                assert inst.is_tour(sub.edges)
                if best is None or sub.cost < best:
                    best = sub.cost
        whole = solve(base)
        want = held_karp(base)
        assert whole.status == want.status
        if want.optimal:
            assert best is not None
            assert whole.cost == want.cost
        tested += 1
        if tested >= 5:
            break
    assert tested >= 3


# -- pinned search -----------------------------------------------------------------

# sha256 over each corpus below; a change that moves one changes the search
SEARCH_DIGEST = "fa6d1eafcabee4559c310d1eefd5471f8db410845959ea7caa5ad0c1e1ebd6d8"
FORCED_SEARCH_DIGEST = "cd79ac5744e98f5a3ac9069af15c9c752249d8eeca29f50564cc887d2499146b"


def _log_entry_key(entry):
    """A rewrite or a recorded decision in a form whose repr does not depend
    on set order."""
    if isinstance(entry, red.Rewrite):
        lifts = tuple((tuple(sorted(new)), old) for new, old in entry.lifts)
        return (entry.kind, entry.vertices, entry.new_edges, lifts)
    return entry


def _search_digest(monkeypatch, decisions, instances) -> str:
    """sha256 over every fixpoint's rewrites and decisions in order
    (``decisions`` is the ``decisions_logged`` recorder), small-cut pick,
    branch pick and answer of solving each instance in turn."""
    digest = hashlib.sha256()
    fixpoint = red.reduce_to_fixpoint
    find_cut = red.find_small_cut_candidate
    pick = search.select_branch_circuit

    def reduce_to_fixpoint(inst, log, audit=None):
        got = fixpoint(inst, log, audit)
        for entry in decisions.last:
            digest.update(repr(_log_entry_key(entry)).encode())
        return got

    def find_small_cut_candidate(inst, rejected=frozenset()):
        got = find_cut(inst, rejected)
        digest.update(repr(got and (got[0], sorted(got[1]))).encode())
        return got

    def select_branch_circuit(inst):
        comp, circuit, pivot = pick(inst)
        digest.update(repr((min(comp.vertices), tuple(circuit.edges), pivot)).encode())
        return comp, circuit, pivot

    monkeypatch.setattr(red, "reduce_to_fixpoint", reduce_to_fixpoint)
    monkeypatch.setattr(red, "find_small_cut_candidate", find_small_cut_candidate)
    monkeypatch.setattr(search, "select_branch_circuit", select_branch_circuit)
    for inst in instances:
        result = solve(inst)
        digest.update(repr((result.status, result.cost, sorted(result.edges))).encode())
    return digest.hexdigest()


def test_search_digest_is_pinned(monkeypatch, decisions_logged):
    """Every small-cut pick, branch pick and answer over a seeded corpus
    hashes to a pinned digest, so a refactor that means to keep the search
    as it is can show that it did."""
    corpus = (
        inject_forced(
            generate(
                GeneratorSpec(kind="random_cubic", n=16 + 2 * (seed % 8), seed=seed, weights="random")
            ),
            seed % 4,
            seed=seed,
        )
        for seed in range(12)
    )
    assert _search_digest(monkeypatch, decisions_logged, corpus) == SEARCH_DIGEST


def test_forced_search_digest_is_pinned(monkeypatch, decisions_logged):
    """The same digest over larger graphs with many forced edges, where the
    reductions do most of the work and many states are infeasible."""
    corpus = (
        inject_forced(
            generate(GeneratorSpec(kind="random_cubic", n=40 + 4 * (seed % 6), seed=seed, weights="random")),
            10 + seed,
            seed=seed,
        )
        for seed in range(8)
    )
    assert _search_digest(monkeypatch, decisions_logged, corpus) == FORCED_SEARCH_DIGEST

"""Acceptance suite: one test per criterion, each printing a PASS line.

Shared corpora are built once per module; solver runs carry the measure
audit so the monotonicity and leaf-bound criteria reuse the same work.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

import cubictsp.connectivity as conn
import cubictsp.reductions as red
from cubictsp.analysis import (
    ALPHA,
    DEFAULT_CONFIG,
    MeasureAudit,
    branch_vector_table,
    leaf_bound,
    leaf_bound_check,
    measure,
    vector_root,
    verify_config,
)
from cubictsp.generators import GeneratorSpec, generate, inject_forced
from cubictsp.graph import Instance
from cubictsp.oracles import _disconnects, brute_force_4cycles, exhaustive_forced, held_karp
from cubictsp.search import solve, solve_all_4cycles

PASS_FORMAT = "ACCEPTANCE {num} ({name}): PASS"


def report(num, name):
    print(PASS_FORMAT.format(num=num, name=name))


@pytest.fixture(scope="module")
def unforced_corpus():
    """200 seeded random connected cubic instances, n in {6, 8, ..., 16}."""
    sizes = [6, 8, 10, 12, 14, 16]
    out = []
    for seed in range(200):
        n = sizes[seed % len(sizes)]
        out.append(
            generate(GeneratorSpec(kind="random_cubic", n=n, seed=seed, weights="random"))
        )
    return out


@pytest.fixture(scope="module")
def forced_corpus():
    """100 seeded instances with random pinned edges, n <= 12."""
    sizes = [6, 8, 10, 12]
    out = []
    for seed in range(100):
        n = sizes[seed % len(sizes)]
        base = generate(
            GeneratorSpec(kind="random_cubic", n=n, seed=1000 + seed, weights="random")
        )
        out.append(inject_forced(base, count=(seed % 6) + 1, seed=seed))
    return out


@pytest.fixture(scope="module")
def named_corpus():
    return {
        name: generate(GeneratorSpec(kind="named", name=name))
        for name in ("petersen", "k4", "prism", "k33")
    }


@pytest.fixture(scope="module")
def solved_unforced(unforced_corpus):
    out = []
    for inst in unforced_corpus:
        audit = MeasureAudit()
        result = solve(inst, strategy="full", audit=audit)
        out.append((inst, result, audit))
    return out


@pytest.fixture(scope="module")
def solved_forced(forced_corpus):
    out = []
    for inst in forced_corpus:
        audit = MeasureAudit()
        result = solve(inst, strategy="full", audit=audit)
        out.append((inst, result, audit))
    return out


def test_criterion_1_oracle_equivalence(solved_unforced, solved_forced):
    t0 = time.time()
    for inst, result, _ in solved_unforced:
        want = held_karp(inst)
        assert result.status == want.status
        if want.optimal:
            assert result.cost == want.cost  # exact rational equality
            assert inst.is_tour(result.edges)
        simple = solve(inst, strategy="simple")
        assert simple.status == want.status
        if want.optimal:
            assert simple.cost == want.cost
    for inst, result, _ in solved_forced:
        want = exhaustive_forced(inst)
        assert result.status == want.status
        if want.optimal:
            assert result.cost == want.cost
            assert inst.is_tour(result.edges)
    elapsed = time.time() - t0
    assert elapsed < 300, f"criterion 1 took {elapsed:.0f}s"
    report(1, "oracle equivalence, both strategies, 300 instances")


def test_criterion_2_known_instances(named_corpus):
    expected = {"k4": Fraction(4), "prism": Fraction(6), "k33": Fraction(6)}
    assert solve(named_corpus["petersen"]).status == "infeasible"
    assert exhaustive_forced(named_corpus["petersen"]).status == "infeasible"
    for name, cost in expected.items():
        got = solve(named_corpus[name])
        assert got.optimal and got.cost == cost
    c6 = generate(GeneratorSpec(kind="cycle", n=6))
    got = solve(c6)
    assert got.optimal and got.cost == 6
    report(2, "petersen infeasible; k4=4, prism=6, k33=6, c6=6")


def test_criterion_3_measure_monotonicity(solved_unforced, solved_forced):
    checked_steps = 0
    checked_children = 0
    for _, _, audit in itertools.chain(solved_unforced, solved_forced):
        assert audit.violations == []
        for stat in audit.steps.values():
            checked_steps += stat.count
            if stat.min_delta is not None:
                assert stat.min_delta >= 0
        if audit.min_child_delta is not None:
            assert audit.min_child_delta > 0
            checked_children += 1
    assert checked_steps > 1000
    report(
        3,
        f"measure monotone over {checked_steps} reduction steps, "
        "every branch child strictly decreasing",
    )


def test_criterion_4_leaf_bound(solved_unforced, solved_forced, named_corpus):
    for inst, _, audit in itertools.chain(solved_unforced, solved_forced):
        rep = audit.report()
        assert rep["leaf_bound_ok"], rep
    for inst in named_corpus.values():
        audit = MeasureAudit()
        solve(inst, audit=audit)
        assert audit.report()["leaf_bound_ok"]
    bound40 = leaf_bound(Fraction(40) + DEFAULT_CONFIG.delta)
    assert bound40 <= 5336
    for seed in range(20):
        inst = generate(
            GeneratorSpec(kind="random_cubic", n=40, seed=seed, weights="random")
        )
        audit = MeasureAudit()
        t0 = time.time()
        result = solve(inst, audit=audit)
        elapsed = time.time() - t0
        rep = audit.report()
        assert rep["leaf_bound_ok"], (seed, rep)
        assert rep["leaves"] <= bound40
        assert elapsed < 10, f"n=40 seed {seed} took {elapsed:.1f}s"
    report(4, "leaves <= ceil(2^(0.3 mu0)) everywhere; n=40 under 10s each")


def test_criterion_5_bottleneck_vectors():
    cfg = DEFAULT_CONFIG
    tight = Fraction(10, 3)
    assert 6 * cfg.w3p + cfg.gamma == tight
    assert 4 * cfg.w3 - 2 * cfg.w3p == tight
    # 2 * alpha^(-10/3) = 1 exactly at alpha = 2^(3/10): exponent arithmetic
    assert Fraction(3, 10) * tight == 1
    assert verify_config(cfg) == []
    for name, vec in branch_vector_table(cfg):
        assert vector_root(vec) <= float(ALPHA) + 1e-9, name
    report(5, "both bottleneck decreases equal 10/3; all 13 roots <= 2^(3/10)")


def _naive_circuit_partition(inst, comp):
    parent = {e: e for e in comp.edges}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    eset = set(comp.edges)
    verts = sorted(comp.vertices)
    for i, a in enumerate(comp.edges):
        for b in comp.edges[i + 1 :]:
            if _disconnects(inst, verts, eset, a, b):
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[ra] = rb
    groups = {}
    for e in comp.edges:
        groups.setdefault(find(e), set()).add(e)
    return {frozenset(g) for g in groups.values()}


def test_criterion_6_structural_properties():
    reduced_seen = 0
    seed = 0
    sizes = [8, 10, 12, 14]
    while reduced_seen < 200 and seed < 1200:
        base = generate(
            GeneratorSpec(
                kind="random_cubic", n=sizes[seed % 4], seed=3000 + seed, weights="random"
            )
        )
        inst = inject_forced(base, count=seed % 5, seed=seed)
        seed += 1
        outcome = red.reduce_to_fixpoint(inst, [])
        if outcome is not None:
            continue
        reduced_seen += 1
        # triangle-free, parallel-free, no degree-2 vertex
        bundles = set()
        adj = {v: set() for v in inst.alive_vertices()}
        for e in inst.alive_edges():
            u, v = sorted(inst.endpoints(e))
            assert (u, v) not in bundles, "parallel edges survived"
            bundles.add((u, v))
            adj[u].add(v)
            adj[v].add(u)
        for v in inst.alive_vertices():
            assert len(inst.adj[v]) == 3, "degree-2 vertex survived"
            for a, b in itertools.combinations(adj[v], 2):
                assert b not in adj[a], "triangle survived"
        # circuit partition agrees with the naive disconnecting-pair closure
        for comp in inst.u_components():
            if comp.trivial or not conn.is_2_edge_connected(inst, comp):
                continue
            got = {frozenset(c.edges) for c in conn.circuit_partition(inst, comp)}
            assert got == _naive_circuit_partition(inst, comp)
        # idempotence
        probe = inst.copy()
        log2: list = []
        out2 = red.reduce_to_fixpoint(probe, log2)
        assert len(log2) == 0 and out2 is None
        assert probe.ealive == inst.ealive and probe.eforced == inst.eforced
    assert reduced_seen == 200
    report(6, "200 reduced instances: clean structure, naive-partition match, idempotent")


def _random_all_4cycle_instance(rng, k):
    inst = Instance()
    for _ in range(4 * k):
        inst.add_vertex()
    for c in range(k):
        base = 4 * c
        for i in range(4):
            inst.add_edge(
                base + i, base + (i + 1) % 4, Fraction(rng.randint(1, 12), rng.randint(1, 4))
            )
    slots = list(range(4 * k))
    while True:
        rng.shuffle(slots)
        pairs = list(zip(slots[::2], slots[1::2]))
        if all(u != v for u, v in pairs):
            break
    for u, v in pairs:
        inst.add_edge(u, v, Fraction(rng.randint(1, 12), rng.randint(1, 4)), forced=True)
    return inst


def test_criterion_7_four_cycle_base_case():
    rng = random.Random(424242)
    for trial in range(100):
        k = rng.randint(1, 12)
        inst = _random_all_4cycle_instance(rng, k)
        fast = solve_all_4cycles(inst)
        slow = brute_force_4cycles(inst)
        assert fast.status == slow.status, trial
        if slow.optimal:
            assert fast.cost == slow.cost, trial
            assert inst.is_tour(fast.edges)
    report(7, "assembly equals 2^k brute force on 100 all-4-cycle instances")

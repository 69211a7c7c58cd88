"""Tests of the benchmark's own code: the answer checker, corpus
determinism, the outside node counter, the tracer and the time limit.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import cubictsp  # noqa: E402
from cubictsp.generators import GeneratorSpec, generate, inject_forced  # noqa: E402

import run  # noqa: E402
from check import tour_problems  # noqa: E402
from corpus import BENCHMARKED, DEFAULT_SEED, WORKLOADS, Workload, build_corpus, edge_table, load_pins  # noqa: E402
from layertrace import NodeCounter, Tracer, tracer_metric_names  # noqa: E402


def random_cubic(n, seed, weights="random"):
    return generate(GeneratorSpec("random_cubic", n=n, seed=seed, weights=weights))


def hamiltonian(n, seed, weights="random"):
    """(instance, optimal tour, cost) of the first Hamiltonian random cubic
    graph from ``seed`` on."""
    while True:
        inst = random_cubic(n, seed, weights)
        result = cubictsp.held_karp(inst)
        if result.optimal:
            return inst, sorted(result.edges), result.cost
        seed += 1


# -- answer checker ----------------------------------------------------------


def test_checker_rejects_dropped_edge():
    inst, tour, cost = hamiltonian(12, 1)
    assert tour_problems(12, edge_table(inst), tour, cost) == []
    dropped = tour[1:]
    assert tour_problems(12, edge_table(inst), dropped, inst.tour_cost(dropped))


def test_checker_rejects_wrong_cost():
    inst, tour, cost = hamiltonian(12, 2)
    assert tour_problems(12, edge_table(inst), tour, cost + Fraction(1, 7))
    assert tour_problems(12, edge_table(inst), tour, float(cost))


def test_checker_rejects_missing_forced_edge():
    inst, tour, cost = hamiltonian(12, 3)
    off_tour = next(e for e in range(len(inst.eu)) if e not in tour)
    table = list(edge_table(inst))
    u, v, w, _ = table[off_tour]
    table[off_tour] = (u, v, w, True)
    assert any("forced" in p for p in tour_problems(12, table, tour, cost))


def test_checker_rejects_two_cycles():
    # two disjoint triangles joined by a perfect matching (a prism)
    inst = generate(GeneratorSpec("named", name="prism"))
    triangles = list(range(6))
    assert any("one cycle" in p for p in tour_problems(6, edge_table(inst), triangles, Fraction(6)))


def test_checker_unit_cost_must_equal_n():
    inst, tour, cost = hamiltonian(10, 4, weights="unit")
    assert tour_problems(10, edge_table(inst), tour, cost, unit_cost=True) == []
    table = [(u, v, Fraction(2), f) for u, v, _, f in edge_table(inst)]
    assert tour_problems(10, table, tour, Fraction(20), unit_cost=True)


@pytest.mark.parametrize("n", [8, 10, 12, 14, 16])
@pytest.mark.parametrize("weights", ["unit", "random"])
def test_checker_accepts_held_karp(n, weights):
    for seed in range(3):
        inst = random_cubic(n, seed, weights)
        result = cubictsp.held_karp(inst)
        if result.optimal:
            assert tour_problems(
                n, edge_table(inst), result.edges, result.cost, unit_cost=weights == "unit"
            ) == []


@pytest.mark.parametrize("n", [8, 10, 12])
def test_checker_accepts_exhaustive_forced(n):
    solved = 0
    for seed in range(8):
        inst = inject_forced(random_cubic(n, seed), 3, seed=seed)
        assert inst.forced_edges()
        result = cubictsp.exhaustive_forced(inst)
        if result.optimal:
            solved += 1
            assert tour_problems(n, edge_table(inst), result.edges, result.cost) == []
    assert solved


# -- corpus ------------------------------------------------------------------


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_corpus_is_seed_deterministic(name):
    wl = WORKLOADS[name]
    small = Workload(wl.name, wl.n, wl.weights, wl.forced, wl.audit, count=3)
    a, b = build_corpus(cubictsp, small, 7), build_corpus(cubictsp, small, 7)
    assert a == b
    other = build_corpus(cubictsp, small, 8)
    assert [c.text for c in other] != [c.text for c in a]
    # a seed relabels the same base graphs
    assert [c.digest for c in other] == [c.digest for c in a]


def test_pins_cover_every_workload():
    pins = load_pins()
    for name, wl in WORKLOADS.items():
        cases = build_corpus(cubictsp, wl, DEFAULT_SEED)
        assert [p["digest"] for p in pins[name]] == [c.digest for c in cases]
        if wl.weights == "unit":
            assert all(p["answer"] in (str(wl.n), "infeasible") for p in pins[name])


def test_relabelled_instance_keeps_its_optimum():
    wl = Workload("t", 14, "random", 0, False, count=2)
    for a, b in zip(build_corpus(cubictsp, wl, 1), build_corpus(cubictsp, wl, 2)):
        ra = cubictsp.solve(cubictsp.parse_instance(a.text))
        rb = cubictsp.solve(cubictsp.parse_instance(b.text))
        assert ra.cost == rb.cost


# -- instrumentation ---------------------------------------------------------


def test_node_counter_matches_measure_audit():
    wl = Workload("t", 20, "unit", 0, True, count=6)
    originals = (cubictsp.reductions.reduce_to_fixpoint, cubictsp.search.circuit_procedure)
    with NodeCounter(cubictsp) as counter:
        for case in build_corpus(cubictsp, wl, 0):
            audit = cubictsp.MeasureAudit()
            counter.reset()
            cubictsp.search.solve(cubictsp.parse_instance(case.text), audit=audit)
            assert (counter.nodes, counter.leaves) == (audit.nodes, audit.leaves)
    assert (cubictsp.reductions.reduce_to_fixpoint, cubictsp.search.circuit_procedure) == originals


def test_node_counter_counts_infeasible_children(monkeypatch):
    # Branch children that circuit_procedure rejects are rare on random
    # graphs, so every delete branch is made infeasible here.
    red = cubictsp.reductions
    propagate = cubictsp.search.circuit_procedure

    def include_only(inst, log, comp, circuit, pivot, action):
        if action == "delete":
            return red.Feasibility(red.INFEASIBLE, "test")
        return propagate(inst, log, comp, circuit, pivot, action)

    monkeypatch.setattr(cubictsp.search, "circuit_procedure", include_only)
    reduced = []
    reduce_to_fixpoint = red.reduce_to_fixpoint

    def counting(*args, **kwargs):
        reduced.append(1)
        return reduce_to_fixpoint(*args, **kwargs)

    monkeypatch.setattr(red, "reduce_to_fixpoint", counting)
    audit = cubictsp.MeasureAudit()
    with NodeCounter(cubictsp) as counter:
        cubictsp.search.solve(random_cubic(20, 6), audit=audit)
    assert counter.nodes > len(reduced)
    assert (counter.nodes, counter.leaves) == (audit.nodes, audit.leaves)


def test_tracer_self_times_add_up_and_patches_are_restored():
    inst = random_cubic(20, 5)
    original_copy = cubictsp.graph.Instance.copy
    with Tracer(cubictsp) as tracer:
        tracer.instance = 0
        cubictsp.search.solve(cubictsp.graph.parse_instance(cubictsp.format_instance(inst)))
        spans = list(tracer.spans)
        tracer.close_instance()
    assert cubictsp.graph.Instance.copy is original_copy
    assert tracer.calls["search.solve"] == 1 and tracer.calls["graph.parse_instance"] == 1
    assert all(s[4] == 0 for s in spans)
    # parse_instance and solve are the two root spans; self times fill them
    root_total = sum(end - start for _, start, end, parent, _ in spans if parent < 0)
    assert sum(tracer.self_s.values()) == pytest.approx(root_total, rel=1e-9)
    assert all(v >= -1e-9 for v in tracer.self_s.values())
    assert list(tracer.metrics()) == tracer_metric_names()


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(BENCHMARKED)
    for name in BENCHMARKED:
        assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names(WORKLOADS[name])


# -- time limit --------------------------------------------------------------


def test_timeout_counts_as_failure(monkeypatch):
    monkeypatch.setattr(run, "INSTANCE_LIMIT_S", 0.001)
    wl = WORKLOADS["branchy-n34"]
    case = build_corpus(cubictsp, Workload(wl.name, 34, "random", 0, False, count=1), DEFAULT_SEED)[0]
    with NodeCounter(cubictsp) as counter:
        bench = run.Bench(cubictsp, wl, DEFAULT_SEED, load_pins(), counter)
        out = bench.solve(case, cubictsp.parse_instance(case.text))
    assert out.problems and "timeout" in out.problems[0]
    assert (bench.attempted, bench.failed) == (1, 1)

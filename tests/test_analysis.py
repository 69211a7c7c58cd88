from collections import Counter
from fractions import Fraction

import pytest

import cubictsp.analysis as analysis
import cubictsp.connectivity as conn
import cubictsp.reductions as red
import cubictsp.search as search
from cubictsp.analysis import (
    ALPHA,
    DEFAULT_CONFIG,
    AuditViolation,
    MeasureAudit,
    WeightConfig,
    branch_vector_table,
    component_weight,
    leaf_bound,
    leaf_bound_check,
    measure,
    vector_root,
    verify_config,
    vertex_weight,
)
from cubictsp.generators import GeneratorSpec, generate, inject_forced
from cubictsp.graph import Instance

from conftest import build, cycle_instance, six_cycle_with_pendants

CFG = DEFAULT_CONFIG


def test_default_config_values():
    assert CFG.w3 == 1
    assert CFG.w3p == Fraction(1, 3)
    assert CFG.gamma == Fraction(4, 3)
    assert CFG.delta == Fraction(127, 100)
    assert CFG.d3 == Fraction(2, 3)


def test_vertex_weights():
    inst = generate(GeneratorSpec(kind="named", name="prism"))
    assert vertex_weight(CFG, inst, 0) == 1
    inst.include_edge(6)  # a rung: endpoints become pinned
    u, v = inst.endpoints(6)
    assert vertex_weight(CFG, inst, u) == Fraction(1, 3)


def test_finished_vertex_weight_zero():
    inst = cycle_instance(4)
    inst.include_edge(0)
    inst.include_edge(1)
    shared = set(inst.endpoints(0)) & set(inst.endpoints(1))
    assert vertex_weight(CFG, inst, shared.pop()) == 0


def test_component_weights():
    crit = six_cycle_with_pendants()
    assert component_weight(CFG, crit, crit.component_of(0)) == Fraction(4, 3)
    four = build(8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4)])
    for k in range(4):
        four.add_edge(k, 4 + k, 1, forced=True)
    assert component_weight(CFG, four, four.component_of(0)) == Fraction(-4, 3)
    assert component_weight(CFG, four, four.component_of(4)) == Fraction(-4, 3)
    pete = generate(GeneratorSpec(kind="named", name="petersen"))
    assert component_weight(CFG, pete, pete.component_of(0)) == CFG.delta


def test_trivial_component_weight_zero():
    inst = cycle_instance(3)
    # fully pin a triangle's vertices? instead: one isolated-after-forcing vertex
    inst = build(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    inst.include_edge(0)
    inst.include_edge(2)
    comp = inst.component_of(0)
    if comp.trivial:
        assert component_weight(CFG, inst, comp) == 0


def test_measure_fresh_instance_is_n_plus_delta():
    inst = generate(GeneratorSpec(kind="named", name="petersen"))
    assert measure(CFG, inst) == 10 + CFG.delta


def test_measure_four_cycle_with_pendants_is_zero():
    inst = build(8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4)])
    for k in range(4):
        inst.add_edge(k, 4 + k, 1, forced=True)
    assert measure(CFG, inst) == 0


def test_measure_infeasible_and_terminal_zero():
    inst = generate(GeneratorSpec(kind="named", name="petersen"))
    assert measure(CFG, inst, infeasible=True) == 0
    tiny = build(2, [(0, 1), (0, 1)])
    assert measure(CFG, tiny) == 0


class WeightSums(analysis.Observer):
    """At every reading of mu and after every step, checks that ``measure``,
    which tallies classes, equals the weights summed one vertex and one
    component at a time, under the default weights and under weights that
    differ in every class."""

    CONFIGS = (
        CFG,
        WeightConfig(Fraction(11, 10), Fraction(2, 7), Fraction(5, 3), Fraction(13, 9)),
    )

    def __init__(self):
        self.classes = Counter()

    def measure_of(self, inst, outcome=None):
        self.check(inst)

    def step(self, kind, mu_before, inst_after, outcome, detail=None):
        self.check(inst_after)

    def check(self, inst):
        if inst.n_alive() <= 2:
            return
        comps = inst.u_components()
        self.classes.update(analysis.vertex_class(inst, v) for v in inst.alive_vertices())
        self.classes.update(analysis.component_class(inst, c) for c in comps)
        for cfg in self.CONFIGS:
            one_by_one = sum(vertex_weight(cfg, inst, v) for v in inst.alive_vertices())
            one_by_one += sum(component_weight(cfg, inst, c) for c in comps)
            assert measure(cfg, inst) == one_by_one


def test_measure_tally_equals_the_summed_weights():
    sums = WeightSums()
    for seed in range(6):
        for weights, forced in (("unit", 0), ("random", 2), ("random", 9)):
            base = generate(GeneratorSpec(kind="random_cubic", n=18, seed=seed, weights=weights))
            search.solve(inject_forced(base, forced, seed=seed), audit=sums)
    search.solve(six_cycle_with_pendants(), audit=sums)
    # every class, and a vertex and a component of weight 0, came up
    assert set(sums.classes) == {"w3", "w3p", "four_cycle", "gamma", "delta", None}, sums.classes


# -- reference vectors -----------------------------------------------------------


def test_bottleneck_vectors_are_ten_thirds():
    tight = Fraction(10, 3)
    table = dict(branch_vector_table(CFG))
    assert table["six_cycle"] == (tight, tight)
    assert table["odd_minimal"] == (tight, tight)
    # both tight vectors decrease by exactly 10/3 in each child ...
    assert 6 * CFG.w3p + CFG.gamma == tight
    assert 4 * CFG.w3 - 2 * CFG.w3p == tight
    # ... and 2 * alpha^(-10/3) = 1 holds exactly for alpha = 2^(3/10):
    # 2 * (2^(3/10))^(-10/3) = 2 * 2^-1, checked on exponents
    assert Fraction(3, 10) * tight == 1


def test_all_vector_roots_below_alpha():
    for name, vec in branch_vector_table(CFG):
        assert vector_root(vec) <= float(ALPHA) + 1e-9, name


def test_bottleneck_root_is_exactly_alpha():
    root = vector_root((Fraction(10, 3), Fraction(10, 3)))
    assert abs(root - float(ALPHA)) < 1e-9


def test_verify_config_default_clean():
    assert verify_config(CFG) == []


def test_verify_config_flags_gamma_bound():
    bad = WeightConfig(gamma=Fraction(3, 2))  # 2*d3 = 4/3 < 3/2
    out = verify_config(bad)
    assert any("2*d3" in v for v in out)


def test_verify_config_flags_vector_roots():
    bad = WeightConfig(delta=Fraction(1))
    out = verify_config(bad)
    assert any("root" in v or "certificate" in v for v in out)


# -- leaf bound ------------------------------------------------------------------


def test_leaf_bound_examples():
    assert leaf_bound(Fraction(1127, 100)) == 11  # 10 + 1.27
    assert leaf_bound(Fraction(4127, 100)) == 5334  # 40 + 1.27
    assert leaf_bound(Fraction(0)) == 1
    assert leaf_bound(Fraction(10)) == 8  # 2^3 exactly


def test_leaf_bound_check():
    assert leaf_bound_check(Fraction(1127, 100), 11)
    assert not leaf_bound_check(Fraction(1127, 100), 12)
    assert leaf_bound_check(Fraction(10), 1)


# -- audit ------------------------------------------------------------------------


def test_audit_counts_nodes_and_leaves():
    inst = generate(GeneratorSpec(kind="named", name="prism"))
    audit = MeasureAudit()
    search.solve(inst, audit=audit)
    rep = audit.report()
    assert rep["nodes"] >= rep["leaves"] >= 1
    assert rep["violations"] == 0
    assert rep["leaf_bound_ok"]


def test_audit_step_rejects_increase():
    audit = MeasureAudit()
    inst = generate(GeneratorSpec(kind="named", name="petersen"))
    with pytest.raises(AuditViolation):
        audit.step("bogus", Fraction(0), inst, None)


def test_audit_branch_rejects_nondecrease():
    audit = MeasureAudit()
    with pytest.raises(AuditViolation):
        audit.branch(Fraction(5), [Fraction(5), Fraction(4)])


def test_audit_report_format_keys():
    inst = generate(GeneratorSpec(kind="named", name="k4"))
    audit = MeasureAudit()
    search.solve(inst, audit=audit)
    text = audit.format_report()
    for key in ("mu0:", "nodes:", "leaves:", "leaf_bound:", "violations:"):
        assert key in text
    report = audit.report()
    assert len(report) == 9
    assert text.splitlines()[:9] == [f"{k}: {v}" for k, v in report.items()]


def tight_six_cycle_instance():
    """A settled-critical 6-cycle whose pendants run into two 12-vertex hosts
    arranged so that both branch children land exactly on the tight decrease
    of ten thirds."""
    def host(inst, base):
        for i in range(12):
            inst.add_edge(base + i, base + (i + 1) % 12, 1)
        for x, y in [(1, 7), (2, 8), (4, 10), (5, 11)]:
            inst.add_edge(base + x, base + y, 1)
        return [base, base + 3, base + 6, base + 9]

    inst = Instance()
    for _ in range(30):
        inst.add_vertex()
    for i in range(6):
        inst.add_edge(i, (i + 1) % 6, 1)
    aa = host(inst, 6)
    bb = host(inst, 18)
    for a, t in [(0, aa[0]), (2, aa[1]), (4, aa[2]), (1, bb[0]), (3, bb[1]), (5, bb[2])]:
        inst.add_edge(a, t, 1, forced=True)
    inst.add_edge(aa[3], bb[3], 1, forced=True)
    inst.validate_initial()
    return inst


def test_tight_six_cycle_branch_decreases_exactly_ten_thirds():
    inst = tight_six_cycle_instance()
    mu0 = measure(CFG, inst)
    probe = inst.copy()
    outcome = red.reduce_to_fixpoint(probe, [])
    assert outcome is None
    assert sorted(probe.alive_edges()) == sorted(inst.alive_edges())

    comp, circuit, pivot = search.select_branch_circuit(inst)
    assert set(circuit.edges) == set(range(6))
    for action in ("include", "delete"):
        child = inst.copy()
        search.circuit_procedure(child, None, comp, circuit, pivot, action)
        red.reduce_to_fixpoint(child, [])
        assert mu0 - measure(CFG, child) == Fraction(10, 3)


def test_branch_children_meet_global_floor():
    # every branching child must drop the measure by at least 2 * d3 = 4/3
    # (the floor set by pinning one fresh edge); circuit branchings on real
    # structure are expected to reach 10/3
    floor = 2 * CFG.d3
    seen_branchings = 0
    for seed in range(12):
        base = generate(
            GeneratorSpec(kind="random_cubic", n=14, seed=800 + seed, weights="random")
        )
        inst = base.copy()
        outcome = red.reduce_to_fixpoint(inst, [])
        if outcome is not None:
            continue
        comps = inst.u_components()
        if all(c.trivial or conn.is_four_cycle_shape(inst, c) for c in comps):
            continue
        mu0 = measure(CFG, inst)
        comp, circuit, pivot = search.select_branch_circuit(inst)
        for action in ("include", "delete"):
            child = inst.copy()
            feas = search.circuit_procedure(child, None, comp, circuit, pivot, action)
            if feas.infeasible:
                continue
            sub = red.reduce_to_fixpoint(child, [])
            if isinstance(sub, red.TourResult):
                child_mu = Fraction(0)
            else:
                child_mu = measure(CFG, child, infeasible=sub is not None)
            assert mu0 - child_mu >= floor
            seen_branchings += 1
    assert seen_branchings >= 4


def test_no_violations_across_forced_corpus():
    for seed in range(10):
        base = generate(
            GeneratorSpec(kind="random_cubic", n=12, seed=300 + seed, weights="random")
        )
        inst = inject_forced(base, count=seed % 5, seed=seed)
        audit = MeasureAudit()
        search.solve(inst, audit=audit)
        assert audit.violations == []
        assert audit.report()["leaf_bound_ok"]


def test_reducible_cascade_soft_check():
    # the deferred check warns when a qualifying cascade drops mu too little
    audit = MeasureAudit()
    inst = generate(GeneratorSpec(kind="named", name="petersen"))
    audit.mark_cascade(measure(CFG, inst) + Fraction(1, 100))
    audit.settle_cascade(inst)
    assert any("cascade" in w for w in audit.warnings)
    # and stays quiet on real corpora
    for seed in range(8):
        base = generate(
            GeneratorSpec(kind="random_cubic", n=14, seed=600 + seed, weights="random")
        )
        probe = inject_forced(base, count=seed % 4, seed=seed)
        clean = MeasureAudit()
        search.solve(probe, audit=clean)
        assert not any("cascade" in w for w in clean.warnings)


def _reducible_circuit_corpus():
    for seed in range(8):
        base = generate(
            GeneratorSpec(kind="random_cubic", n=14, seed=600 + seed, weights="random")
        )
        yield inject_forced(base, count=seed % 4, seed=seed)


def test_default_observer_runs_no_audit_code(monkeypatch):
    # the same corpus reaches the lemma-8 check under an audit ...
    lemma8_calls = []
    real_lemma8 = analysis._lemma8_hypothesis

    def lemma8(*args):
        lemma8_calls.append(args)
        return real_lemma8(*args)

    monkeypatch.setattr(analysis, "_lemma8_hypothesis", lemma8)
    for inst in _reducible_circuit_corpus():
        search.solve(inst, audit=MeasureAudit())
    assert lemma8_calls

    # ... and without one never touches the check or any MeasureAudit method
    def boom(*args, **kwargs):
        raise AssertionError("audit code ran without an audit")

    monkeypatch.setattr(analysis, "_lemma8_hypothesis", boom)
    for name, attr in list(vars(MeasureAudit).items()):
        if callable(attr):
            monkeypatch.setattr(MeasureAudit, name, boom)
    fired = []
    real_process = red.process_reducible_circuit

    def process(*args):
        fired.append(args[1])
        return real_process(*args)

    monkeypatch.setattr(red, "process_reducible_circuit", process)
    for inst in _reducible_circuit_corpus():
        search.solve(inst)
    assert fired

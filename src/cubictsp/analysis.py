"""Measure instrumentation for the search.

Every vertex and every unforced component carries a weight; their sum is the
measure mu.  Reductions must never raise mu, each branch child must strictly
lower it, and the number of search-tree leaves is bounded by 2^(0.3 * mu0).
The audit collects exact rational evidence for all three claims, plus the
reference table of branching vectors whose recurrence roots certify the
exponent 2^(3/10).  A solve reports its events to an ``Observer``; the
default one does nothing, ``MeasureAudit`` checks the measure.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import connectivity as conn
from .graph import Instance, UComponent


@dataclass(frozen=True)
class WeightConfig:
    w3: Fraction = Fraction(1)
    w3p: Fraction = Fraction(1, 3)
    gamma: Fraction = Fraction(4, 3)
    delta: Fraction = Fraction(127, 100)

    @property
    def d3(self) -> Fraction:
        return self.w3 - self.w3p

    @property
    def four_cycle(self) -> Fraction:
        """A settled 4-cycle component cancels its vertices' weight."""
        return -4 * self.w3p


DEFAULT_CONFIG = WeightConfig()
ALPHA = 2 ** Fraction(3, 10)  # float; exact statements use the exponent 3/10


# The weight classes: a vertex or component of class c weighs the
# ``WeightConfig`` entry named c, and one of class None weighs 0.


def vertex_class(inst: Instance, v: int) -> Optional[str]:
    """'w3' for three unforced edges, 'w3p' for two and one forced."""
    _, df, du = inst.degrees(v)
    if du == 3:
        return "w3"
    if du == 2 and df == 1:
        return "w3p"
    return None


def component_class(inst: Instance, comp: UComponent) -> Optional[str]:
    """'four_cycle' for a settled 4-cycle, 'gamma' for a critical
    component, 'delta' for any other nontrivial one."""
    if comp.trivial:
        return None
    if conn.is_standard_four_cycle(inst, comp):
        return "four_cycle"
    if conn.is_critical_component(inst, comp):
        return "gamma"
    return "delta"


def _class_weight(cfg: WeightConfig, cls: Optional[str]) -> Fraction:
    return Fraction(0) if cls is None else getattr(cfg, cls)


def vertex_weight(cfg: WeightConfig, inst: Instance, v: int) -> Fraction:
    return _class_weight(cfg, vertex_class(inst, v))


def component_weight(cfg: WeightConfig, inst: Instance, comp: UComponent) -> Fraction:
    return _class_weight(cfg, component_class(inst, comp))


def measure(cfg: WeightConfig, inst: Instance, infeasible: bool = False) -> Fraction:
    """Sum of vertex and component weights; zero for settled instances
    (infeasible ones, and the two-vertex terminal solved directly).  The
    vertices and components of each class are counted first, and each
    count is multiplied by its class's weight once."""
    if infeasible or inst.n_alive() <= 2:
        return Fraction(0)
    tally = Counter(vertex_class(inst, v) for v in inst.alive_vertices())
    tally.update(component_class(inst, comp) for comp in inst.u_components())
    return sum((k * _class_weight(cfg, cls) for cls, k in tally.items()), Fraction(0))


# -- reference branching vectors -------------------------------------------------


def branch_vector_table(cfg: WeightConfig):
    """The thirteen guaranteed measure-decrease vectors of the two-step
    branching policy, as (name, tuple of decreases)."""
    w3, w3p, g, d = cfg.w3, cfg.w3p, cfg.gamma, cfg.delta
    d3 = cfg.d3
    return [
        ("six_cycle", (6 * w3p + g, 6 * w3p + g)),
        ("six_cycle_extension", (g + 2 * w3 + 6 * w3p, d + 2 * w3 - g)),
        ("two_critical", (d + 2 * (2 * d3 - g), d + 2 * (2 * w3 + 4 * w3p))),
        ("odd_minimal", (4 * w3 - 2 * w3p, 4 * w3 - 2 * w3p)),
        ("even_two_odd", (2 * w3, 6 * w3 - 2 * w3p)),
        ("even_no_odd_plain", (4 * d3 - d, 4 * w3 + 4 * d3)),
        ("even_no_odd_critical", (4 * d3 - g, 8 * w3)),
        ("pendent_cycle_a", (4 * d3 - g, d + 4 * w3 + 10 * w3p)),
        ("pendent_cycle_b", (2 * w3, d + 2 * w3 + 8 * w3p)),
        (
            "nested_a1",
            (
                d + 6 * w3 - 2 * w3p - 2 * g,
                d + 6 * w3 + 4 * w3p - g,
                d + 4 * w3 + 6 * w3p,
            ),
        ),
        (
            "nested_a2",
            (
                d + 4 * w3 + 2 * w3p - g,
                d + 4 * w3 + 8 * w3p,
                d + 2 * w3 + 4 * w3p,
            ),
        ),
        (
            "nested_b1",
            (
                d + 8 * w3 - 6 * w3p - 3 * g,
                d + 8 * w3 + 6 * w3p - g,
                d + 4 * w3 + 4 * w3p,
            ),
        ),
        (
            "nested_b2",
            (
                d + 6 * w3 - 2 * w3p - 2 * g,
                d + 6 * w3 + 10 * w3p,
                d + 2 * w3 + 3 * w3p,
            ),
        ),
    ]


def vector_root(vector) -> float:
    """Largest root of 1 - sum(x^-a_i), by bisection."""
    if any(a <= 0 for a in vector):
        return math.inf
    lo, hi = 1.0, 2.0
    while sum(hi ** -float(a) for a in vector) > 1.0:
        hi *= 2
    for _ in range(200):
        mid = (lo + hi) / 2
        if sum(mid ** -float(a) for a in vector) > 1.0:
            lo = mid
        else:
            hi = mid
    return hi


def verify_config(cfg: WeightConfig) -> list[str]:
    """Violated constraints of the weight system, empty when admissible.

    Checks the defining inequalities and that every reference vector's
    recurrence root stays at or below 2^(3/10).
    """
    out = []
    w3, w3p, g, d = cfg.w3, cfg.w3p, cfg.gamma, cfg.delta
    d3 = cfg.d3
    if not 2 * d3 >= g:
        out.append("2*d3 >= gamma")
    if not g >= d:
        out.append("gamma >= delta")
    if not d >= d3:
        out.append("delta >= d3")
    if not d3 >= w3 / 2:
        out.append("d3 >= w3/2")
    if not w3p >= w3 / 5:
        out.append("w3p >= w3/5")
    if not g - d <= w3p:
        out.append("gamma - delta <= w3p")
    for name, vec in branch_vector_table(cfg):
        if vector_root(vec) > float(ALPHA) + 1e-9:
            out.append(f"vector {name} root exceeds 2^(3/10)")
        if not _certify_vector_at_alpha(vec):
            out.append(f"vector {name} fails the exact 2^(3/10) certificate")
    return out


def _certify_vector_at_alpha(vector, margin: Fraction = Fraction(1, 10**12)) -> bool:
    """Certify sum over i of 2^(-(3/10) a_i) <= 1 with high-precision
    arithmetic (exact rational exponents, 60-digit evaluation)."""
    from decimal import Decimal, getcontext

    getcontext().prec = 60
    ln2 = Decimal(2).ln()
    total = Decimal(0)
    for a in vector:
        expo = -Decimal(3) * Decimal(a.numerator) / (Decimal(10) * Decimal(a.denominator))
        total += (expo * ln2).exp()
    return total <= 1 + Decimal(str(float(margin)))


# -- leaf bound ---------------------------------------------------------------------


def leaf_bound(mu0: Fraction) -> int:
    """ceil(2^(0.3 * mu0)) computed exactly on integers."""
    if mu0 <= 0:
        return 1
    expo = Fraction(3, 10) * mu0
    p, q = expo.numerator, expo.denominator
    # smallest integer L with L >= 2^(p/q):  L = floor(2^(p/q)) + (0 or 1)
    root = _int_nth_root(1 << p, q)
    return root if root**q == (1 << p) else root + 1


def _int_nth_root(x: int, n: int) -> int:
    if n == 1:
        return x
    hi = 1 << ((x.bit_length() + n - 1) // n + 1)
    lo = 0
    while lo < hi - 1:
        mid = (lo + hi) // 2
        if mid**n <= x:
            lo = mid
        else:
            hi = mid
    return lo


def leaf_bound_check(mu0: Fraction, leaves: int) -> bool:
    return leaves <= leaf_bound(mu0)


# -- audit accumulator ----------------------------------------------------------------


class AuditViolation(AssertionError):
    """A hard measure invariant failed; indicates an implementation bug."""


@dataclass
class StepStat:
    count: int = 0
    min_delta: Optional[Fraction] = None
    max_delta: Optional[Fraction] = None

    def add(self, delta: Fraction) -> None:
        self.count += 1
        if self.min_delta is None or delta < self.min_delta:
            self.min_delta = delta
        if self.max_delta is None or delta > self.max_delta:
            self.max_delta = delta


class Observer:
    """The events of one solve, ignored: ``measure_of`` measures nothing and
    every other hook does nothing.  ``MeasureAudit`` overrides them all."""

    def measure_of(self, inst: Instance, outcome=None) -> Optional[Fraction]:
        return None

    def _ignore(self, *args, **kwargs) -> None:
        pass

    start = enter_node = leaf = step = reducible_circuit = settle_cascade = branch = _ignore


NO_OBSERVER = Observer()


def _lemma8_hypothesis(inst: Instance, red_edge: int) -> bool:
    """Exactly one pinned-free single-vertex block along the cut-forced
    edge's circuit, inside a triangle-free component."""
    comp = inst.component_of(inst.eu[red_edge])
    if comp.trivial or not conn.is_2_edge_connected(inst, comp):
        return False
    adj: dict[int, set] = {v: set() for v in comp.vertices}
    for e in comp.edges:
        u, v = inst.endpoints(e)
        adj[u].add(v)
        adj[v].add(u)
    for v in comp.vertices:
        for a in adj[v]:
            if adj[v] & adj[a]:
                return False
    circuit = conn.circuit_through(inst, comp, red_edge)
    if circuit.trivial:
        return False
    blocks = conn.blocks_along(inst, comp, circuit)
    reducible = sum(
        1 for b in blocks if conn.classify_block(inst, b) == conn.REDUCIBLE
    )
    return reducible == 1


class MeasureAudit(Observer):
    """Collects mu evidence across one solve run.

    Hard checks raise: a reduction step must not raise mu, and every branch
    child must strictly lower it.  Soft checks only warn: per-branch child
    decreases should satisfy sum(alpha^-delta) <= 1 for alpha = 2^(3/10)
    (two-level branchings legitimately dip below it).
    """

    def __init__(self, cfg: WeightConfig = DEFAULT_CONFIG) -> None:
        self.cfg = cfg
        self.mu0: Optional[Fraction] = None
        self.nodes = 0
        self.leaves = 0
        self.branches = 0
        self.steps: dict[str, StepStat] = {}
        self.warnings: list[str] = []
        self.violations: list[str] = []
        self.min_child_delta: Optional[Fraction] = None
        self._pending_cascade: Optional[Fraction] = None

    # measurement helpers

    def measure_of(self, inst: Instance, outcome=None) -> Fraction:
        infeasible = outcome is not None and outcome.infeasible
        return measure(self.cfg, inst, infeasible=infeasible)

    # lifecycle

    def start(self, inst: Instance) -> None:
        self.mu0 = measure(self.cfg, inst)

    def enter_node(self) -> None:
        self.nodes += 1

    def leaf(self) -> None:
        self.leaves += 1

    def step(
        self, kind: str, mu_before: Fraction, inst_after: Instance, outcome, detail=None
    ) -> None:
        mu_after = self.measure_of(inst_after, outcome)
        delta = mu_before - mu_after
        self.steps.setdefault(kind, StepStat()).add(delta)
        if delta < 0:
            self.violations.append(
                f"step {kind}: measure rose by {-delta} (from {mu_before})"
            )
            raise AuditViolation(self.violations[-1])

    def reducible_circuit(self, inst: Instance, red_edge: int, mu_before) -> None:
        if _lemma8_hypothesis(inst, red_edge):
            self.mark_cascade(mu_before)

    def mark_cascade(self, mu_before: Fraction) -> None:
        """Open a deferred check: a cut-forced circuit with exactly one
        pinned-free single-vertex block in a triangle-free component must,
        once the follow-up rewrites settle, have lowered mu by 2*d3."""
        if self._pending_cascade is None:
            self._pending_cascade = mu_before

    def settle_cascade(self, inst: Instance, outcome=None) -> None:
        if self._pending_cascade is None:
            return
        start = self._pending_cascade
        self._pending_cascade = None
        drop = start - self.measure_of(inst, outcome)
        if drop < 2 * self.cfg.d3:
            self.warnings.append(
                f"reducible-circuit cascade dropped mu by only {drop} < 2*d3"
            )

    def branch(self, mu_parent: Fraction, child_mus) -> None:
        self.branches += 1
        load = 0.0
        for child_mu in child_mus:
            delta = mu_parent - child_mu
            if self.min_child_delta is None or delta < self.min_child_delta:
                self.min_child_delta = delta
            if delta <= 0:
                self.violations.append(
                    f"branch child did not decrease the measure (delta={delta})"
                )
                raise AuditViolation(self.violations[-1])
            load += float(ALPHA) ** (-float(delta))
        if load > 1.0 + 1e-9:
            self.warnings.append(
                f"branch vector load {load:.6f} > 1 (children {child_mus}, parent {mu_parent})"
            )

    # reporting

    def report(self) -> dict:
        mu0 = self.mu0 if self.mu0 is not None else Fraction(0)
        return {
            "mu0": mu0,
            "nodes": self.nodes,
            "leaves": self.leaves,
            "branches": self.branches,
            "leaf_bound": leaf_bound(mu0),
            "leaf_bound_ok": leaf_bound_check(mu0, self.leaves),
            "min_child_delta": self.min_child_delta,
            "violations": len(self.violations),
            "warnings": len(self.warnings),
        }

    def format_report(self) -> str:
        lines = [f"{key}: {value}" for key, value in self.report().items()]
        for kind in sorted(self.steps):
            st = self.steps[kind]
            lines.append(
                f"step[{kind}]: count={st.count} min_delta={st.min_delta} "
                f"max_delta={st.max_delta}"
            )
        for w in self.warnings:
            lines.append(f"warning: {w}")
        return "\n".join(lines) + "\n"

"""Outside-in instrumentation of the solver.

Both classes wrap public functions of ``cubictsp`` with ``setattr`` on their
module or class, and put the originals back on exit.  The solver's own code
is not touched: its modules look these names up at call time, so the
wrappers see every call made through the module or class attribute.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from time import perf_counter

# Layer (a cubictsp module) -> traced public functions and methods.
LAYERS = {
    "graph": (
        "parse_instance",
        "Instance.copy",
        "Instance.u_components",
        "Instance.bridges",
        "Instance.cut",
        "Instance.is_tour",
    ),
    "connectivity": (
        "component_cut_structure",
        "circuit_partition",
        "two_cut_pairs",
        "component_pairs2",
        "blocks_along",
        "classify_block",
        "find_minimal_normal_block",
        "is_four_cycle_shape",
        "clear_caches",
    ),
    "reductions": (
        "check_feasibility",
        "saturation_and_contraction",
        "reduce_parallel",
        "eliminate_bridges",
        "find_reducible_edge",
        "process_reducible_circuit",
        "find_small_cut_candidate",
        "reduce_3cut",
        "reduce_4cut",
        "expand_solution",
        "reduce_to_fixpoint",
    ),
    "search": ("select_branch_circuit", "circuit_procedure", "solve_all_4cycles", "solve"),
    "analysis": ("measure", "MeasureAudit.step", "MeasureAudit.branch"),
}
CUT_SEARCH = "reductions.find_small_cut_candidate"


def traced_names() -> list[str]:
    return [f"{layer}.{func}" for layer, funcs in LAYERS.items() for func in funcs]


def tracer_metric_names() -> list[str]:
    names = []
    for name in traced_names():
        names += [f"{name}.self_s", f"{name}.calls"]
    return names + [f"{CUT_SEARCH}.found_ratio"]


class _Patches:
    """Installs wrappers and restores the originals, last in first out."""

    def __init__(self, cubictsp) -> None:
        self.cubictsp = cubictsp
        self._saved: list = []

    def resolve(self, dotted: str):
        """'graph.Instance.copy' -> (cubictsp.graph.Instance, 'copy')"""
        parts = dotted.split(".")
        owner = getattr(self.cubictsp, parts[0])
        for part in parts[1:-1]:
            owner = getattr(owner, part)
        return owner, parts[-1]

    def wrap(self, dotted: str, make_wrapper) -> None:
        owner, attr = self.resolve(dotted)
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class NodeCounter(_Patches):
    """Search-tree size seen from outside ``search.solve``.

    One node per ``reduce_to_fixpoint`` call, plus one per branch child that
    ``circuit_procedure`` already finds infeasible (that child is never
    reduced).  Every node either branches, calling ``select_branch_circuit``
    once, or is a leaf, so leaves = nodes - branches.
    """

    def __init__(self, cubictsp) -> None:
        super().__init__(cubictsp)
        self.nodes = 0
        self.branches = 0
        self._reducing = 0  # open reduce_to_fixpoint calls

    @property
    def leaves(self) -> int:
        return self.nodes - self.branches

    def reset(self) -> None:
        self.nodes = self.branches = 0

    def __enter__(self):
        def reduce_to_fixpoint(fn):
            def wrapper(*args, **kwargs):
                self.nodes += 1
                self._reducing += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._reducing -= 1

            return wrapper

        def circuit_procedure(fn):
            def wrapper(*args, **kwargs):
                feas = fn(*args, **kwargs)
                # calls made while reducing come from reducible-circuit
                # processing, not from branching
                if feas.infeasible and not self._reducing:
                    self.nodes += 1
                return feas

            return wrapper

        def select_branch_circuit(fn):
            def wrapper(*args, **kwargs):
                self.branches += 1
                return fn(*args, **kwargs)

            return wrapper

        self.wrap("reductions.reduce_to_fixpoint", reduce_to_fixpoint)
        self.wrap("search.circuit_procedure", circuit_procedure)
        self.wrap("search.select_branch_circuit", select_branch_circuit)
        return self


class Tracer(_Patches):
    """Span recorder for every function in ``LAYERS``.

    Each call appends a span (name, start, end, parent index, instance id)
    to an in-memory list.  ``close_instance`` turns the spans of the instance
    just solved into per-function self time, the span's duration minus the
    time its direct child spans cover, and then drops them.
    """

    def __init__(self, cubictsp) -> None:
        super().__init__(cubictsp)
        self.instance = None
        self.spans: list = []
        self._stack: list[int] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.cut_search_found = 0

    def _make(self, name: str):
        spans, stack = self.spans, self._stack
        is_cut_search = name == CUT_SEARCH

        def make_wrapper(fn):
            def wrapper(*args, **kwargs):
                idx = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(idx)
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    stack.pop()
                    spans[idx] = (name, start, end, parent, self.instance)
                if is_cut_search and result is not None:
                    self.cut_search_found += 1
                return result

            return wrapper

        return make_wrapper

    def __enter__(self):
        # totals carry over when the same tracer is entered again
        for name in traced_names():
            self.wrap(name, self._make(name))
        return self

    def close_instance(self) -> None:
        """Fold the recorded spans into the totals and drop them."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            self.calls[name] += 1
            self.self_s[name] += end - start - child[idx]
        self.spans.clear()

    def metrics(self) -> dict:
        out = {}
        for name in traced_names():
            out[f"{name}.self_s"] = (self.self_s[name], "s")
            out[f"{name}.calls"] = (self.calls[name], "count")
        calls = self.calls[CUT_SEARCH]
        out[f"{CUT_SEARCH}.found_ratio"] = (
            self.cut_search_found / calls if calls else 0.0,
            "ratio",
        )
        return out

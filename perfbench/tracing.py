"""Spans around the calls into each spreadlab module, recorded from the
benchmark's side.

``Tracer.install`` replaces every listed public function with a timing
wrapper.  The package imports names directly (``from .cps import
find_cps`` in ``cli``, ``theorems`` and ``counterexamples``), so the
wrapper is bound in every ``spreadlab`` module namespace that holds the
original, not only in the defining module.  ``uninstall`` puts the
originals back.

A span records name, start, end, parent span and op id; spans stay in
memory until ``write_spans``.  Per-node hot functions keep only a count
and a total: their time is subtracted from the enclosing span, so every
module's self time stays correct without a span per call.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

# module -> wrapped public functions; "Class.method" names a static method
WRAPPED = {
    "cli": ("run_command",),
    "rationals": ("parse_rational", "format_rational"),
    "tree": ("load_tree", "EventTree.build", "ensure_adapted"),
    "market": ("load_market", "validate_market", "make_market"),
    "strategy": ("load_strategy", "check_self_financing", "ensure_strategy"),
    "valuation": ("admissibility_bound", "liquidation_value"),
    "cps": ("find_cps", "cps_threshold", "verify_cps", "load_cps", "cps_to_doc"),
    "simplex": ("solve",),
    "theorems": ("check_admissibility_theorem", "shadow_decomposition", "check_ossm", "doob_decompose"),
    "counterexamples": ("deterministic_counterexample", "stochastic_counterexample"),
}
HOT = {
    "rationals.parse_rational",
    "rationals.format_rational",
    "valuation.liquidation_value",
    "tree.ensure_adapted",
}
FUNCTIONS = [f"{module}.{name}" for module, names in WRAPPED.items() for name in names]


def _bits(values) -> int:
    return max(
        (max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values), default=0
    )


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.spans = []
        self.op = None
        self.solve_rows = 0
        self.solve_cols = 0
        self.feasible = 0
        self.witness_bits = 0
        self._stack = []  # [span id, seconds spent in children]
        self._restore = []

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "spreadlab" or name.startswith("spreadlab.")]
        for module_name, names in WRAPPED.items():
            module = importlib.import_module(f"spreadlab.{module_name}")
            for name in names:
                full = f"{module_name}.{name}"
                if "." in name:
                    cls_name, attr = name.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[attr]
                    wrapper = self._wrap(full, module_name, original.__func__)
                    setattr(cls, attr, staticmethod(wrapper))
                    self._restore.append((cls, attr, original))
                    continue
                original = getattr(module, name)
                wrapper = self._wrap(full, module_name, original)
                for holder in modules:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, attr, wrapper)
                            self._restore.append((holder, attr, original))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()

    def _wrap(self, full: str, module: str, fn):
        calls, seconds, self_seconds, stack = self.calls, self.seconds, self.self_seconds, self._stack

        if full in HOT:
            def hot(*args, **kwargs):
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    spent = perf_counter() - start
                    calls[full] += 1
                    seconds[full] += spent
                    self_seconds[module] += spent
                    if stack:
                        stack[-1][1] += spent
            return hot

        spans = self.spans

        def span(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spent = end - start
                calls[full] += 1
                seconds[full] += spent
                self_seconds[module] += spent - frame[1]
                if stack:
                    stack[-1][1] += spent
                spans[span_id] = (span_id, parent, full, start, end, self.op)
            if full == "simplex.solve":
                self._solve_args(*args, **kwargs)
            elif full == "cps.find_cps":
                self._find_cps_result(result)
            return result

        return span

    def _solve_args(self, num_vars, constraints, *rest, **kwargs) -> None:
        self.solve_cols += num_vars
        self.solve_rows += len(constraints)

    def _find_cps_result(self, result) -> None:
        if result.feasible:
            self.feasible += 1
            cps = result.cps
            self.witness_bits = max(
                self.witness_bits, _bits(cps.shadow_price.values()), _bits(cps.density.values.values())
            )

    def metrics(self, ops: int, report_bytes: int, overhead_ratio: float) -> dict:
        """Per-layer metrics, normalized per traced op."""
        out = {}
        for full in FUNCTIONS:
            out[f"{full}.calls"] = (self.calls[full] / ops, "calls/op")
            out[f"{full}.ms"] = (self.seconds[full] * 1000 / ops, "ms/op")
        for module in WRAPPED:
            out[f"{module}.self_ms"] = (self.self_seconds[module] * 1000 / ops, "ms/op")
        solves = self.calls["simplex.solve"]
        finds = self.calls["cps.find_cps"]
        out["simplex.solve.rows_mean"] = (self.solve_rows / solves if solves else 0.0, "rows")
        out["simplex.solve.cols_mean"] = (self.solve_cols / solves if solves else 0.0, "cols")
        out["simplex.solve.ms_per_call"] = (
            self.seconds["simplex.solve"] * 1000 / solves if solves else 0.0, "ms"
        )
        out["cps.find_cps.feasible_ratio"] = (self.feasible / finds if finds else 0.0, "1")
        out["cps.witness_max_bits"] = (self.witness_bits, "bits")
        out["cli.report_bytes"] = (report_bytes / ops, "B/op")
        out["trace.overhead_ratio"] = (overhead_ratio, "1")
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(
                {"fields": ["id", "parent", "name", "start", "end", "op"], "spans": self.spans},
                handle,
                separators=(",", ":"),
            )

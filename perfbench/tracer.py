"""In-memory tracing for the traced run of the benchmark.

The tracer wraps public functions of the vgadt modules at the module or
class attribute through which the program calls them (`criterion`
imports checker functions by name, so both attributes are wrapped).  A
span wrapper records (name, start, end, parent, op) for the outermost
call of a function and counts every call, so recursion costs one span.
A count wrapper only counts; it is used for functions called millions
of times.  Self time is derived after the run: a span's duration minus
the durations of its direct child spans.

Nothing in `src/` is edited; `uninstall` restores every attribute.
"""
from __future__ import annotations

import importlib
import json
import time
from collections import Counter
from typing import Callable, Optional

SPAN, COUNT = "span", "count"

#: (module, class or None, attribute, layer name, kind).
TARGETS = (
    ("vgadt.cli", None, "parse_signature", "syntax.parse", SPAN),
    ("vgadt.cli", None, "compute_closure_flags", "checker.flags", SPAN),
    ("vgadt.checker", None, "variance_sets", "checker.variance_sets", SPAN),
    ("vgadt.criterion", None, "variance_sets", "checker.variance_sets", SPAN),
    ("vgadt.checker", None, "decomp_sets", "checker.decomp_sets", SPAN),
    ("vgadt.criterion", None, "decomp_sets", "checker.decomp_sets", SPAN),
    ("vgadt.checker", "DecompEngine", "valid_contexts", "checker.engine", SPAN),
    ("vgadt.cli", None, "check_signature", "criterion.check_signature", SPAN),
    ("vgadt.criterion", None, "check_gadt_constructor", "criterion.gadt",
     COUNT),
    ("vgadt.criterion", None, "ctx_zip_all", "criterion.families", COUNT),
    ("vgadt.cli", None, "enumerate_types", "oracle.enumerate", SPAN),
    ("vgadt.oracle", "SemanticOracle", "related", "oracle.related", SPAN),
    ("vgadt.oracle", "SemanticOracle", "subtype", "oracle.subtype", COUNT),
    ("vgadt.cli", None, "req_sp", "oracle.req_sp", SPAN),
)

OP_SPAN = "cli.run"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Optional[tuple]] = []
        self.calls: Counter[str] = Counter()
        self.sums: Counter[str] = Counter()      # quantities from results
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._active: Counter[str] = Counter()
        self._op = -1
        self._oracles: list = []
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------

    def span(self, name: str, fn: Callable,
             on_result: Optional[Callable] = None) -> Callable:
        spans, stack, active, calls = (self.spans, self._stack, self._active,
                                       self.calls)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if active[name]:
                return fn(*args, **kwargs)
            active[name] += 1
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[name] -= 1
                spans[idx] = (name, start, end, parent, self._op)
            if on_result is not None:
                on_result(args, result)
            return result
        return wrapper

    def count(self, name: str, fn: Callable,
              on_result: Optional[Callable] = None) -> Callable:
        calls = self.calls
        if on_result is None:
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                calls[name] += 1
                result = fn(*args, **kwargs)
                on_result(args, result)
                return result
        return wrapper

    # -- result hooks ----------------------------------------------------------

    def _hooks(self) -> dict[str, Callable]:
        sums = self.sums

        def parsed(args, _result):
            sums["syntax.bytes"] += len(args[0].encode("utf-8"))

        def contexts(_args, result):
            sums["checker.engine_contexts"] += len(result)

        def verdict(_args, result):
            if result.accepted and result.gammas is not None:
                sums["criterion.witnessed"] += 1

        def universe(_args, result):
            sums["oracle.universe_types"] += len(result)

        return {"syntax.parse": parsed, "checker.engine": contexts,
                "criterion.gadt": verdict, "oracle.enumerate": universe}

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        hooks = self._hooks()
        wrapped: dict[tuple[int, str], Callable] = {}
        for module_name, class_name, attr, name, kind in TARGETS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.missing.append(
                    ".".join(filter(None, (module_name, class_name, attr))))
                continue
            key = (id(fn), name)   # one wrapper per function and layer
            if key not in wrapped:
                make = self.span if kind == SPAN else self.count
                wrapped[key] = make(name, fn, hooks.get(name))
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, wrapped[key])
        oracle_mod = importlib.import_module("vgadt.oracle")
        cls = getattr(oracle_mod, "SemanticOracle", None)
        if cls is not None:
            init = cls.__init__
            oracles = self._oracles

            def tracked_init(obj, *args, **kwargs):
                init(obj, *args, **kwargs)
                oracles.append(obj)
            self._saved.append((cls, "__init__", init))
            cls.__init__ = tracked_init

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    # -- ops -------------------------------------------------------------------

    def op(self, run: Callable) -> Callable:
        """Wrap the CLI entry point; each call is one op and roots a tree."""
        traced = self.span(OP_SPAN, run)

        def op_wrapper(*args, **kwargs):
            self._op += 1
            try:
                return traced(*args, **kwargs)
            finally:
                # The subtype memo lives on the oracle object of the op.
                self.sums["oracle.memo_entries"] += sum(
                    len(getattr(o, "_sub", ())) for o in self._oracles)
                self._oracles.clear()
        return op_wrapper

    @property
    def ops(self) -> int:
        return self._op + 1

    # -- results -------------------------------------------------------------

    def self_times(self) -> Counter[str]:
        """Total self time in seconds per span name."""
        child: Counter[int] = Counter()
        for span in self.spans:
            _, start, end, parent, _ = span
            if parent >= 0:
                child[parent] += end - start
        out: Counter[str] = Counter()
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[idx]
        return out

    def layer_metrics(self, scale: float) -> dict[str, float]:
        """Per-op layer figures, named as in BENCHMARK.json.  Times are
        multiplied by `scale`, the host's speed factor over the traced
        ops, so they are on the scale of the end-to-end figures."""
        ops = max(self.ops, 1)
        st = Counter({name: t * scale
                      for name, t in self.self_times().items()})
        calls, sums = self.calls, self.sums

        def ms(name: str) -> float:
            return st[name] * 1000.0 / ops

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        subtype_calls = calls["oracle.subtype"]
        memo = sums["oracle.memo_entries"]
        return {
            "cli.self_ms": ms(OP_SPAN),
            "syntax.parse_ms": ms("syntax.parse"),
            "syntax.parse_calls": calls["syntax.parse"] / ops,
            "syntax.bytes_per_s": ratio(sums["syntax.bytes"],
                                        st["syntax.parse"]),
            "checker.flags_ms": ms("checker.flags"),
            "checker.variance_sets_ms": ms("checker.variance_sets"),
            "checker.variance_sets_calls":
                calls["checker.variance_sets"] / ops,
            "checker.decomp_sets_ms": ms("checker.decomp_sets"),
            "checker.engine_ms": ms("checker.engine"),
            "checker.engine_contexts": sums["checker.engine_contexts"] / ops,
            "criterion.self_ms": ms("criterion.check_signature"),
            "criterion.families_tried": calls["criterion.families"] / ops,
            "criterion.family_hit_ratio": ratio(sums["criterion.witnessed"],
                                                calls["criterion.families"]),
            "oracle.enumerate_ms": ms("oracle.enumerate"),
            "oracle.universe_types": sums["oracle.universe_types"] / ops,
            "oracle.related_ms": ms("oracle.related"),
            "oracle.subtype_calls": subtype_calls / ops,
            "oracle.subtype_memo_entries": memo / ops,
            "oracle.subtype_memo_hit_ratio": (1.0 - memo / subtype_calls
                                              if subtype_calls else 0.0),
            "oracle.req_sp_self_ms": ms("oracle.req_sp"),
            "oracle.req_sp_calls": calls["oracle.req_sp"] / ops,
        }

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "op": op}) + "\n")

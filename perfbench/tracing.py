"""Spans around the calls into each layer of ``causalcgs``, from outside it.

Each entry point is wrapped under the name its calling module binds, such as
``causalcgs.builder.evaluate`` or ``causalcgs.cli.build_causal_cgs``, so a
call is seen wherever it crosses into a layer. A span records job, span id,
parent span id, layer, function, start and end. Spans stay in memory as one
flat integer array and are written out once, at exit. A span's self time is
its duration minus its child spans; job time outside every span is the
``cli`` layer's self time (argument parsing, report assembly, JSON dumps and
file writes). Per job, the layer self times plus that remainder equal the
job time exactly, in integer nanoseconds.

The tracer only wraps while a traced job runs, so untraced jobs run the
program's own functions.
"""

from __future__ import annotations

import gc
import inspect
import time
from array import array
from collections.abc import Mapping
from typing import Any, Callable

LAYERS = ("dsl", "model", "graph", "causality", "cgs", "builder", "bridge", "export")

# (module whose binding is wrapped, bound name, layer the function belongs to).
ENTRY_POINTS = (
    ("cli", "parse_model", "dsl"),
    ("cli", "document_diagnostics", "dsl"),
    ("cli", "outcome_formula", "dsl"),
    ("cli", "evaluate", "model"),
    ("cli", "build_network", "graph"),
    ("cli", "variable_levels", "graph"),
    ("cli", "agent_ranking", "graph"),
    ("cli", "enumerate_causes", "causality"),
    ("cli", "play", "cgs"),
    ("cli", "build_causal_cgs", "builder"),
    ("cli", "size_report", "builder"),
    ("cli", "corresponds", "builder"),
    ("cli", "check_prop_cause_iff_strategy", "bridge"),
    ("cli", "check_prop_superset_strategy", "bridge"),
    ("cli", "causal_profile", "bridge"),
    ("cli", "play_deviation", "bridge"),
    ("cli", "cgs_payload", "export"),
    ("cli", "export_dot", "export"),
    ("cli", "export_json", "export"),
    ("dsl", "validate_model", "model"),
    ("dsl", "validate_context", "model"),
    ("dsl", "as_event_formula", "model"),
    ("graph", "find_cycle", "model"),
    ("causality", "evaluate", "model"),
    ("causality", "satisfies", "model"),
    ("causality", "check_cause", "causality"),
    ("causality", "dependence_with_witness", "causality"),
    ("builder", "evaluate", "model"),
    ("builder", "intervened_model", "model"),
    ("builder", "validate_model", "model"),
    ("builder", "validate_context", "model"),
    ("builder", "build_network", "graph"),
    ("builder", "variable_levels", "graph"),
    ("builder", "agent_ranking", "graph"),
    ("bridge", "evaluate", "model"),
    ("bridge", "intervened_model", "model"),
    ("bridge", "satisfies", "model"),
    ("bridge", "dependence_with_witness", "causality"),
    ("bridge", "play", "cgs"),
    ("bridge", "fixed_action_strategy", "cgs"),
    ("bridge", "build_causal_cgs", "builder"),
    ("bridge", "corresponds", "builder"),
    ("bridge", "action_path", "builder"),
    ("bridge", "causal_profile", "bridge"),
    ("bridge", "play_deviation", "bridge"),
    ("export", "cgs_payload", "export"),
)

# Calls whose arguments are kept until the job ends, to count repeats: a call
# repeats when an equal (model, context, intervention) came earlier in the job.
_REPEAT_KEYED = ("evaluate", "build_causal_cgs")


class Tracer:
    """Wraps the entry points of one imported ``causalcgs`` package."""

    def __init__(self, program: Any):
        self.spans = array("q")  # job, span, parent, code, start_ns, end_ns per span
        self.codes: list[tuple[str, str]] = []  # code -> (layer, function)
        self.stack: list[list[int]] = []  # open spans: [span id, child ns]
        self.next_id = 0
        self.job = -1
        self.top_ns = 0  # summed duration of the job's outermost spans
        self.deferred: list[tuple[str, Callable, tuple, dict, int]] = []
        self.acc: dict[tuple[str, str], list[int]] = {}  # (layer, fn) -> [calls, self ns]
        self.totals: dict[str, int] = dict.fromkeys(
            ("certificates", "play_steps", "export_bytes", "verdicts",
             "evaluate_repeats", "build_repeats", "build_states", "gc_ns", "gc_gen2",
             "jobs", "job_ns", "cli_ns"), 0)
        self.bindings: list[tuple[Any, str, Callable, Callable]] = []
        self.unwrapped: list[str] = []
        self._gc_start = 0
        self.bind(program)

    def bind(self, program: Any) -> None:
        """Wrap the entry points of ``program``, a freshly imported package;
        counts and times go on adding up across packages."""
        self.bindings = []
        self.unwrapped = []
        for module_name, name, layer in ENTRY_POINTS:
            module = getattr(program, module_name, None)
            original = getattr(module, name, None)
            if not callable(original):
                self.unwrapped.append(f"causalcgs.{module_name}.{name}")
                continue
            wrapper = self._wrap(original, layer, name)
            self.bindings.append((module, name, original, wrapper))

    # --- wrapping ---------------------------------------------------------

    def _wrap(self, fn: Callable, layer: str, name: str) -> Callable:
        clock = time.perf_counter_ns
        stack = self.stack
        spans = self.spans
        tracer = self
        if (layer, name) not in self.codes:
            self.codes.append((layer, name))
        code = self.codes.index((layer, name))
        acc = self.acc.setdefault((layer, name), [0, 0])
        observe = _OBSERVERS.get(name)
        keyed = name in _REPEAT_KEYED

        def traced(*args, **kwargs):
            sid = tracer.next_id
            tracer.next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                else:
                    tracer.top_ns += duration
                acc[0] += 1
                acc[1] += duration - frame[1]
                spans.extend((tracer.job, sid, parent, code, start, end))
            if observe is not None:
                observe(tracer.totals, result)
            if keyed:
                size = len(result.states) if name == "build_causal_cgs" else 0
                tracer.deferred.append((name, fn, args, kwargs, size))
            return result

        traced.__wrapped__ = fn
        return traced

    def _gc_callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter_ns()
            return
        self.totals["gc_ns"] += time.perf_counter_ns() - self._gc_start
        if info.get("generation") == 2:
            self.totals["gc_gen2"] += 1

    # --- one traced job ---------------------------------------------------

    def run(self, job: int, call: Callable[[], Any]) -> tuple[Any, int]:
        """Run ``call`` with every entry point wrapped; returns its result and
        the job time in nanoseconds."""
        self.job = job
        self.top_ns = 0
        self.deferred = []
        before = sum(a[1] for a in self.acc.values())
        for module, name, _, wrapper in self.bindings:
            setattr(module, name, wrapper)
        gc.callbacks.append(self._gc_callback)
        try:
            start = time.perf_counter_ns()
            result = call()
            job_ns = time.perf_counter_ns() - start
        finally:
            gc.callbacks.remove(self._gc_callback)
            for module, name, original, _ in self.bindings:
                setattr(module, name, original)
        if self.stack:
            raise RuntimeError("tracer stack unbalanced after a job")
        layer_ns = sum(a[1] for a in self.acc.values()) - before
        if layer_ns != self.top_ns or layer_ns > job_ns:
            raise RuntimeError(
                f"span self times ({layer_ns} ns) do not add up to the traced time"
                f" ({self.top_ns} ns of a {job_ns} ns job)")
        self.totals["jobs"] += 1
        self.totals["job_ns"] += job_ns
        self.totals["cli_ns"] += job_ns - self.top_ns
        self._count_repeats()
        return result, job_ns

    def _count_repeats(self) -> None:
        seen: set = set()
        canon: dict = {}
        ids: dict[int, int] = {}
        held = []  # keep objects alive so their ids stay unique
        signatures: dict[Callable, inspect.Signature] = {}

        def norm(value: Any) -> Any:
            if value is None:
                return ()
            if isinstance(value, Mapping):
                return tuple(sorted(value.items()))
            index = ids.get(id(value))
            if index is None:
                index = canon.setdefault(value, len(canon))
                ids[id(value)] = index
                held.append(value)
            return index

        for name, fn, args, kwargs, size in self.deferred:
            sig = signatures.get(fn)
            if sig is None:
                sig = signatures[fn] = inspect.signature(fn)
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            key = (name,) + tuple(norm(v) for v in bound.arguments.values())
            if key in seen:
                self.totals["evaluate_repeats" if name == "evaluate" else "build_repeats"] += 1
            else:
                seen.add(key)
                self.totals["build_states"] += size
        self.deferred = []

    # --- results ----------------------------------------------------------

    def calls(self, name: str) -> int:
        return sum(a[0] for (_, fn), a in self.acc.items() if fn == name)

    def layer_self_ns(self, layer: str) -> int:
        return sum(a[1] for (ly, _), a in self.acc.items() if ly == layer)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics as means per traced job; shares are pooled."""
        t = self.totals
        jobs = max(t["jobs"], 1)

        def per_job(x: float) -> float:
            return x / jobs

        def share(part: int, whole: int) -> float:
            return part / whole if whole else 0.0

        s = {layer: self.layer_self_ns(layer) / 1e9 for layer in LAYERS}
        evaluate_calls = self.calls("evaluate")
        build_calls = self.calls("build_causal_cgs")
        check_calls = self.calls("check_cause")
        return {
            "export.self_s": per_job(s["export"]),
            "export.payload.calls": per_job(self.calls("cgs_payload")),
            "export.bytes": per_job(t["export_bytes"]),
            "builder.self_s": per_job(s["builder"]),
            "builder.build.calls": per_job(build_calls),
            "builder.build.repeat_share": share(t["build_repeats"], build_calls),
            "builder.states": per_job(t["build_states"]),
            "model.self_s": per_job(s["model"]),
            "model.evaluate.calls": per_job(evaluate_calls),
            "model.evaluate.self_s": per_job(
                sum(a[1] for (_, fn), a in self.acc.items() if fn == "evaluate") / 1e9),
            "model.evaluate.repeat_share": share(t["evaluate_repeats"], evaluate_calls),
            "model.intervened_model.calls": per_job(self.calls("intervened_model")),
            "causality.self_s": per_job(s["causality"]),
            "causality.check_cause.calls": per_job(check_calls),
            "causality.cert_ratio": share(t["certificates"], check_calls),
            "causality.dependence.calls": per_job(self.calls("dependence_with_witness")),
            "bridge.self_s": per_job(s["bridge"]),
            "bridge.verdicts": per_job(t["verdicts"]),
            "bridge.play_deviation.calls": per_job(self.calls("play_deviation")),
            "cgs.self_s": per_job(s["cgs"]),
            "cgs.play.calls": per_job(self.calls("play")),
            "cgs.play.steps": per_job(t["play_steps"]),
            "graph.self_s": per_job(s["graph"]),
            "graph.ranking.calls": per_job(self.calls("agent_ranking")),
            "dsl.self_s": per_job(s["dsl"]),
            "dsl.calls": per_job(sum(a[0] for (ly, _), a in self.acc.items() if ly == "dsl")),
            "cli.self_s": per_job(t["cli_ns"] / 1e9),
            "runtime.gc_s": per_job(t["gc_ns"] / 1e9),
            "runtime.gc_gen2": per_job(t["gc_gen2"]),
            "trace.job_s": per_job(t["job_ns"] / 1e9),
        }

    def write_spans(self, path: str) -> None:
        data = self.spans
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("job\tspan\tparent\tlayer\tfunction\tstart_ns\tend_ns\n")
            for k in range(0, len(data), 6):
                layer, name = self.codes[data[k + 3]]
                handle.write(f"{data[k]}\t{data[k + 1]}\t{data[k + 2]}\t{layer}\t{name}"
                             f"\t{data[k + 4]}\t{data[k + 5]}\n")


def _add(key: str, amount: Callable[[Any], int]) -> Callable[[dict, Any], None]:
    def observe(totals: dict, result: Any) -> None:
        totals[key] += amount(result)
    return observe


_OBSERVERS = {
    "enumerate_causes": _add("certificates", len),
    "play": _add("play_steps", lambda history: len(history) - 1),
    "export_dot": _add("export_bytes", len),
    "export_json": _add("export_bytes", len),
    "check_prop_cause_iff_strategy": _add("verdicts", lambda _: 1),
    "check_prop_superset_strategy": _add("verdicts", lambda _: 1),
}

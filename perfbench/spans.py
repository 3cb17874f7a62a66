"""In-memory span tracer for the fadenet benchmark.

The tracer lives entirely in the benchmark: it replaces each public function
of fadenet's modules, at every module-level name another module (or the
module itself) looks it up by, with a wrapper that records one span per call.
A span holds its name, start, end, parent span, op id and thread, plus a few
attributes for the estimator.  Spans stay in memory until the run ends.

A span opened on a thread with no open span of its own (a sweep's pool
worker) takes as parent the innermost open span of the thread that started
the op, so worker time nests under the sweep that spawned it.

``summarise`` turns the spans of a run into the per-layer metrics listed in
BENCHMARK.json; NOTES.md defines each.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from types import ModuleType
from typing import Callable

LAYERS = ("topology", "powerchain", "fading", "bounds", "simulate", "cli")

# functions whose self seconds and calls per pass are reported on their own
TRACED_FUNCTIONS = (
    "powerchain.longest_chain",
    "powerchain.decompose",
    "fading.block_mutual_information",
    "bounds.converse_envelope",
    "bounds.converse_envelope_report",
    "bounds.duality_upper_bound",
    "bounds.scheme_rate_lower_bound",
    "bounds.allocation",
    "simulate.estimate_pair_mi.d0",
    "simulate.estimate_pair_mi.d1",
    "simulate.logsumexp",
    "simulate.records_to_csv",
)


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    thread: int
    attrs: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._op_ids = itertools.count(1)
        self._stacks: dict[int, list[int]] = {}
        self._op: int | None = None
        self._op_thread: int | None = None

    @contextmanager
    def op(self):
        """Tag every span opened inside the block with a new op id."""
        self._op, self._op_thread = next(self._op_ids), threading.get_ident()
        try:
            yield
        finally:
            self._op = self._op_thread = None

    def _parent(self, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        root = self._stacks.get(self._op_thread, [])
        return root[-1] if root else None

    def wrap(
        self,
        name: str,
        func: Callable,
        attrs: Callable[[dict], dict] | None = None,
    ) -> Callable:
        signature = inspect.signature(func) if attrs else None

        @functools.wraps(func)
        def traced(*args, **kwargs):
            tid = threading.get_ident()
            stack = self._stacks.setdefault(tid, [])
            parent = self._parent(stack)
            extra = None
            if attrs:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                extra = attrs(bound.arguments)
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(sid, name, start, end, parent, self._op, tid, extra))

        return traced

    @contextmanager
    def installed(self, modules: list[ModuleType], extra: dict | None = None):
        """Wrap the modules' public functions for the duration of the block.

        ``extra`` maps (module, attribute) to a span name for foreign
        functions worth a span of their own, such as the ``logsumexp`` that
        the estimator imports from scipy.
        """
        patches = []
        for mod in modules:
            for attr, value in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                home = value.__module__.split(".")
                if home[0] != "fadenet":
                    continue
                patches.append((mod, attr, value, f"{home[1]}.{value.__name__}"))
        for (mod, attr), name in (extra or {}).items():
            patches.append((mod, attr, getattr(mod, attr), name))
        try:
            for mod, attr, value, name in patches:
                setattr(mod, attr, self.wrap(name, value, SPAN_ATTRS.get(name)))
            yield
        finally:
            for mod, attr, value, _ in patches:
                setattr(mod, attr, value)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def _estimator_attrs(args: dict) -> dict:
    # d = hearable weaker chain members at the witness, as estimate_pair_mi
    # counts them; the estimator evaluates n*m mixture components for the
    # marginal and, when d > 0, as many again for the conditional
    chain, nu = args["chain"], args["nu"]
    zeros = args["model"].topo.zeros
    witness = chain.witnesses[nu - 1]
    d = sum((witness, t) not in zeros for t in chain.transmitters[nu:])
    components = args["n_outer"] * args["m_inner"] * (2 if d else 1)
    return {"d": d, "level": nu, "components": components}


def _sweep_attrs(args: dict) -> dict:
    return {"workers": args["workers"]}


SPAN_ATTRS = {
    "simulate.estimate_pair_mi": _estimator_attrs,
    "simulate.snr_sweep": _sweep_attrs,
}


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by its child spans."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for lo, hi in sorted(children.get(span.id, ())):
            lo, hi = max(lo, reach), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span.id] = span.duration - covered
    return out


def summarise(spans, passes: int) -> dict:
    """Per-layer metrics per traced pass, from the recorded spans."""
    selfs = self_times(spans)
    fn_self: dict[str, float] = defaultdict(float)
    fn_calls: dict[str, int] = defaultdict(int)
    layer_self: dict[str, float] = defaultdict(float)
    level_time: dict[int, float] = defaultdict(float)
    estimator = components = sweep_capacity = converse_incl = 0.0
    for span in spans:
        name = span.name
        if name == "simulate.estimate_pair_mi":
            name = f"{name}.d{span.attrs['d']}"
            estimator += span.duration
            components += span.attrs["components"]
            level_time[span.attrs["level"]] += span.duration
        elif name == "simulate.snr_sweep":
            sweep_capacity += span.duration * span.attrs["workers"]
        elif name == "bounds.converse_envelope":
            converse_incl += span.duration
        fn_self[name] += selfs[span.id]
        fn_calls[name] += 1
        layer_self[span.name.split(".")[0]] += selfs[span.id]

    metrics = {}
    for name in TRACED_FUNCTIONS:
        metrics[f"{name}.s"] = fn_self[name] / passes
        metrics[f"{name}.calls"] = fn_calls[name] / passes
    metrics["bounds.converse_envelope.incl_s"] = converse_incl / passes
    for layer in LAYERS:
        metrics[f"{layer}.self.s"] = layer_self[layer] / passes
    # 0 where the workload runs no estimator or sweep
    metrics["simulate.components_per_s"] = components / estimator if estimator else 0.0
    metrics["simulate.worker_busy_frac"] = estimator / sweep_capacity if sweep_capacity else 0.0
    levels = list(level_time.values())
    metrics["simulate.level_max_over_mean"] = max(levels) / statistics.fmean(levels) if levels else 0.0
    return metrics

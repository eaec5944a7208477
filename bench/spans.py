"""In-memory span tracing of the markovscale layers, installed from outside.

`Tracer.installed()` rebinds the module-level names through which the
package calls its layers (for example `markovscale.hierarchy.classify`, the
name `build_level` uses) to wrappers that record a span per call, and puts
the originals back on exit.  Calls to `mono_add`, `mono_mul` and `mono_div`
made from `structure` and `hierarchy` are counted on the innermost open span.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    job: int | None
    start: float = 0.0
    end: float = 0.0
    mono_ops: int = 0
    counts: dict = field(default_factory=dict)

    def as_doc(self) -> dict:
        return {"id": self.id, "name": self.name, "parent": self.parent, "job": self.job,
                "start": self.start, "end": self.end, "mono_ops": self.mono_ops, **self.counts}


def _size_of(arg_index):
    return lambda args: len(args[arg_index])


#: (span name, [(module, attribute), ...], counts taken from the arguments)
LAYERS = (
    ("chain_model.load_chain", [("chain_model", "load_chain")], {}),
    ("games.load_game", [("games", "load_game")], {}),
    ("games.compile_game", [("games", "compile_game")], {}),
    ("hierarchy.analyze", [("hierarchy", "analyze")], {}),
    ("hierarchy.build_level", [("hierarchy", "build_level")], {}),
    ("structure.classify", [("structure", "classify"), ("hierarchy", "classify")],
     {"nodes": _size_of(0)}),
    ("structure.invariant_measure",
     [("structure", "invariant_measure"), ("hierarchy", "invariant_measure")],
     {"max_class": _size_of(1)}),
    ("structure.entrance_law", [("hierarchy", "entrance_law")],
     {"transients": lambda args: len(args[1].transient)}),
    ("chain_model.averaging_period", [("hierarchy", "averaging_period")], {}),
    ("evaluator.expm", [("evaluator", "expm")], {"max_dim": _size_of(0)}),
    ("evaluator.position", [("evaluator", "position"), ("oracle", "position")], {}),
    ("evaluator.occupation", [("evaluator", "occupation"), ("oracle", "occupation")], {}),
    ("evaluator.limit_payoff", [("evaluator", "limit_payoff")], {}),
    ("oracle.convergence_sweep", [("oracle", "convergence_sweep")], {}),
    ("oracle.instantiate", [("oracle", "instantiate")], {}),
    ("oracle.matrix_power_position", [("oracle", "matrix_power_position")], {}),
    ("oracle.discounted_sum", [("oracle", "discounted_sum")], {}),
)

MONO_OPS = [("structure", "mono_add"), ("structure", "mono_mul"), ("structure", "mono_div"),
            ("hierarchy", "mono_add"), ("hierarchy", "mono_mul")]


class Tracer:
    """Records spans with name, start, end, parent span and job id."""

    def __init__(self):
        self.spans: list[Span] = []
        self.job: int | None = None
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str, counts: dict | None = None):
        parent = self._stack[-1].id if self._stack else None
        sp = Span(len(self.spans), name, parent, self.job, counts=counts or {})
        self.spans.append(sp)
        self._stack.append(sp)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn, counters):
        def traced(*args, **kwargs):
            counts = {k: f(args) for k, f in counters.items()}
            with self.span(name, counts):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def _count(self, fn):
        stack = self._stack

        def counted(a, b):
            if stack:
                stack[-1].mono_ops += 1
            return fn(a, b)

        return counted

    @contextmanager
    def installed(self):
        """Rebind the package's layer names to span wrappers for the duration."""
        import importlib

        saved = []
        try:
            for name, sites, counters in LAYERS:
                modules = [importlib.import_module(f"markovscale.{m}") for m, _ in sites]
                wrapper = self._wrap(name, getattr(modules[0], sites[0][1]), counters)
                for module, (_, attr) in zip(modules, sites):
                    saved.append((module, attr, getattr(module, attr)))
                    setattr(module, attr, wrapper)
            for mod, op in MONO_OPS:
                module = importlib.import_module(f"markovscale.{mod}")
                saved.append((module, op, getattr(module, op)))
                setattr(module, op, self._count(getattr(module, op)))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover.  Calls are
    synchronous and single-threaded, so children never overlap."""
    own = {sp.id: sp.end - sp.start for sp in spans}
    for sp in spans:
        if sp.parent is not None:
            own[sp.parent] -= sp.end - sp.start
    return own


def job_layers(spans: list[Span]) -> dict[str, dict]:
    """Per span name, over the spans of one job: inclusive time `s`,
    `self_s`, `calls`, `mono_ops`, and the span counts (`max_*` maxed, the
    rest summed).  `trap_contractions` counts the invariant measures taken
    inside an entrance law."""
    own = self_times(spans)
    by_id = {sp.id: sp for sp in spans}
    out: dict[str, dict] = {}
    for sp in spans:  # parents precede their children
        d = out.setdefault(sp.name, {"s": 0.0, "self_s": 0.0, "calls": 0, "mono_ops": 0})
        d["s"] += sp.end - sp.start
        d["self_s"] += own[sp.id]
        d["calls"] += 1
        d["mono_ops"] += sp.mono_ops
        for k, v in sp.counts.items():
            d[k] = max(d.get(k, 0), v) if k.startswith("max_") else d.get(k, 0) + v
        if sp.name == "structure.invariant_measure":
            p = sp.parent
            while p is not None and by_id[p].name != "structure.entrance_law":
                p = by_id[p].parent
            if p is not None:
                el = out["structure.entrance_law"]
                el["trap_contractions"] = el.get("trap_contractions", 0) + 1
    return out

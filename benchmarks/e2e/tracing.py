"""Outside-in span tracing for the end-to-end search benchmark.

:class:`Tracer` wraps the public callables of each layer at the attribute
its caller looks it up by (``repro.sim.simulator.full_simulate``, not
``repro.sim.full_sim.full_simulate``, because the simulator imported the
name), records one span per call, and puts every original object back on
exit.  No program code changes: the spans are taken from out here.

A span is ``[name, start, end, parent, search, value]``: ``parent`` is the
index of the enclosing span in :attr:`Tracer.spans` (``-1`` at the top),
``search`` the id the caller set on the tracer, and ``value`` what the
call's return says about the work done (a cache hit, the number of tasks a
splice removed), or ``None``.

:func:`summarize` turns the spans of one search into the per-layer metrics
named in ``BENCHMARK.json``.  A layer's self time is its spans' duration
minus the time their child spans cover; a span's layer may depend on its
parent's (a ``full_simulate`` under ``Simulator.__init__`` is the initial
simulation, under ``simulate_strategy`` it is final-metrics work).
"""

from __future__ import annotations

import functools
import importlib
import time

__all__ = ["WRAP_POINTS", "SPAN_FIELDS", "METRICS", "Tracer", "summarize"]

SPAN_FIELDS = ("name", "start", "end", "parent", "search", "value")

# (module, attribute path) of every wrapped callable.  The module is the
# one whose namespace the caller resolves the name in.
WRAP_POINTS = (
    ("repro.plan.planner", "Planner.search"),
    ("repro.plan.backends", "simulate_strategy"),
    ("repro.search.exec.local", "run_one_chain"),
    ("repro.search.exec.base", "mcmc_search"),
    ("repro.sim.simulator", "Simulator.__init__"),
    ("repro.sim.simulator", "Simulator.propose"),
    ("repro.sim.simulator", "Simulator.commit"),
    ("repro.sim.simulator", "Simulator.revert"),
    ("repro.sim.simulator", "full_simulate"),
    ("repro.sim.simulator", "delta_simulate"),
    ("repro.sim.simulator", "propagate_simulate"),
    ("repro.sim.simulator", "preflight_route"),
    ("repro.sim.taskgraph", "TaskGraph.__init__"),
    ("repro.sim.taskgraph", "TaskGraph.replace_config"),
    ("repro.sim.taskgraph", "TaskGraph.undo_last_splice"),
    ("repro.sim.full_sim", "Timeline.copy"),
    ("repro.sim.full_sim", "Timeline.copy_into"),
    ("repro.soap.space", "ConfigSpace.random_config"),
    ("repro.search.cache", "FingerprintTracker.propose"),
    ("repro.search.cache", "SimulationCache.get"),
    ("repro.search.cache", "SimulationCache.put"),
    ("repro.search.store", "StrategyStore.__init__"),
    ("repro.search.store", "StrategyStore.get"),
    ("repro.search.store", "StrategyStore.record"),
    ("repro.search.store", "StrategyStore.flush"),
)

# What a call's return value says about its work (stored as span value).
_NOTES = {
    "SimulationCache.get": lambda args, out: int(out is not None),
    "StrategyStore.get": lambda args, out: int(out is not None),
    "TaskGraph.replace_config": lambda args, out: len(out[0]),
    "TaskGraph.__init__": lambda args, out: len(args[0].tasks),
}

_LAYER = {
    "Planner.search": "plan.search",
    "simulate_strategy": "plan.final_metrics",
    "run_one_chain": "exec.chain_overhead",
    "mcmc_search": "mcmc.loop",
    "Simulator.__init__": "sim.init",
    "Simulator.propose": "sim.facade",
    "Simulator.commit": "sim.facade",
    "Simulator.revert": "sim.facade",
    "full_simulate": "sim.repair",
    "delta_simulate": "sim.repair",
    "propagate_simulate": "sim.repair",
    "preflight_route": "sim.route",
    "TaskGraph.__init__": "sim.build",
    "TaskGraph.replace_config": "sim.splice",
    "TaskGraph.undo_last_splice": "sim.undo",
    "Timeline.copy": "sim.snapshot",
    "Timeline.copy_into": "sim.snapshot",
    "ConfigSpace.random_config": "soap.draw",
    "FingerprintTracker.propose": "cache.fingerprint",
    "SimulationCache.get": "cache.lookup",
    "SimulationCache.put": "cache.lookup",
    "StrategyStore.__init__": "store.open",
    "StrategyStore.get": "store.lookup",
    "StrategyStore.record": "store.lookup",
    "StrategyStore.flush": "store.flush",
}


def _layer(name: str, parent: str | None) -> str:
    if parent == "plan.final_metrics":
        return parent  # everything the final evaluation does is its cost
    if name == "full_simulate" and parent == "sim.init":
        return "sim.initial_sim"
    if name == "ConfigSpace.random_config" and parent != "mcmc.loop":
        return "plan.init"  # drawing a random initial strategy, not a proposal
    return _LAYER[name]


class Tracer:
    """Context manager that wraps ``points`` for the duration of a block.

    A point whose owner or attribute no longer exists is listed in
    :attr:`skipped` and left alone; the layers it fed then report 0.
    """

    def __init__(self, points=WRAP_POINTS):
        self.points = tuple(points)
        self.spans: list[list] = []
        self.search = 0
        self.skipped: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object, bool]] = []

    def __enter__(self) -> "Tracer":
        for module, path in self.points:
            *outer, attr = path.split(".")
            owner = importlib.import_module(module)
            for part in outer:
                owner = getattr(owner, part, None)
            if owner is None or not hasattr(owner, attr):
                self.skipped.append(f"{module}.{path}")
                continue
            own = attr in vars(owner)
            original = vars(owner)[attr] if own else getattr(owner, attr)
            self._restore.append((owner, attr, original, own))
            setattr(owner, attr, self._wrap(path, original))
        return self

    def __exit__(self, *exc) -> bool:
        while self._restore:
            owner, attr, original, own = self._restore.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        return False

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        note = _NOTES.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, tracer.search, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[5] = note(args, out)
            return out

        return traced


def summarize(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced search (``spans`` in start order)."""
    n = len(spans)
    layers: list[str] = []
    for name, _, _, parent, _, _ in spans:
        layers.append(_layer(name, layers[parent] if parent >= 0 else None))
    covered = [0.0] * n
    self_s: dict[str, float] = {}
    # Children start after their parent, so a reverse sweep has added up
    # every child's duration before it reaches the parent.
    for i in range(n - 1, -1, -1):
        name, start, end, parent, _, _ = spans[i]
        dur = end - start
        if parent >= 0:
            covered[parent] += dur
        self_s[layers[i]] = self_s.get(layers[i], 0.0) + dur - covered[i]

    def where(layer: str, names=None) -> list[list]:
        return [s for s, lay in zip(spans, layers) if lay == layer and (names is None or s[0] in names)]

    def rate(spans_: list[list]) -> float:
        return sum(s[5] for s in spans_) / len(spans_) if spans_ else 0.0

    proposals = len(where("soap.draw"))
    per_prop = 1e3 / proposals if proposals else 0.0
    repairs = where("sim.repair")
    splices = where("sim.splice")
    builds = where("sim.build")
    roots = where("plan.search")
    wall = sum(s[2] - s[1] for s in roots)
    attributed = sum(v for lay, v in self_s.items() if lay != "plan.search")

    def sec(layer: str) -> float:
        return self_s.get(layer, 0.0)

    def ms(layer: str) -> float:
        return sec(layer) * per_prop

    return {
        "sim.repair_ms": ms("sim.repair"),
        "sim.repair_full_frac": (
            sum(s[0] == "full_simulate" for s in repairs) / len(repairs) if repairs else 0.0
        ),
        "sim.splice_ms": ms("sim.splice"),
        "sim.splice_tasks": rate(splices),
        "sim.undo_ms": ms("sim.undo"),
        "sim.route_ms": ms("sim.route"),
        "sim.snapshot_ms": ms("sim.snapshot"),
        "sim.facade_ms": ms("sim.facade"),
        "soap.draw_ms": ms("soap.draw"),
        "cache.fingerprint_ms": ms("cache.fingerprint"),
        "cache.lookup_ms": ms("cache.lookup"),
        "cache.hit_rate": rate(where("cache.lookup", ("SimulationCache.get",))),
        "mcmc.loop_ms": ms("mcmc.loop"),
        "sim.build_s": sec("sim.build"),
        "sim.initial_sim_s": sec("sim.initial_sim"),
        "plan.final_metrics_s": sec("plan.final_metrics"),
        "exec.chain_overhead_s": sec("exec.chain_overhead"),
        "store.hit_rate": rate(where("store.lookup", ("StrategyStore.get",))),
        "sim.simulations_per_proposal": len(repairs) / proposals if proposals else 0.0,
        "sim.tasks": builds[0][5] if builds else 0,
        "trace.coverage": attributed / wall if wall else 0.0,
    }


#: Names of the metrics :func:`summarize` returns, in order.
METRICS = tuple(summarize([]))

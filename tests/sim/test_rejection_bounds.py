"""The lower bounds behind ``auto``'s early rejection are sound.

``Simulator.propose`` with a rejection bound gives up on a proposal once
a lower bound on its makespan exceeds that bound: first
``TaskGraph.spliced_loads``, before the splice, then the sweep's
load-plus-idle bound in ``full_simulate``.  Over the simulator
state machine's random graphs and splices, neither bound may exceed what
it bounds, and a bounded sweep must either stop or return the unbounded
timeline.

Every time the profiler here returns is a multiple of 1/16 us, so every
sum the sweep and the bounds form is exact in binary floating point.  The
bounds are therefore compared at tol=0, and a bound equal to the makespan
must not stop the sweep.
"""

import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.clusters import single_node
from repro.profiler.profiler import OpProfiler
from repro.sim import full_sim
from repro.sim.full_sim import Timeline, full_simulate
from repro.sim.taskgraph import TaskGraph, TaskKind
from repro.soap.presets import data_parallelism
from repro.soap.space import ConfigSpace

from test_simulator_state import small_graph


def _dyadic(us: float) -> float:
    return round(us * 16) / 16


class DyadicProfiler(OpProfiler):
    """An :class:`OpProfiler` whose times are multiples of 1/16 us."""

    def task_time(self, *args, **kwargs):
        return _dyadic(super().task_time(*args, **kwargs))

    def update_time(self, *args, **kwargs):
        return _dyadic(super().update_time(*args, **kwargs))

    def comm_time(self, *args, **kwargs):
        return _dyadic(super().comm_time(*args, **kwargs))


def loads_by_device(tg, compute_only=False):
    """Each device's (and connection's) total work, from the task dict."""
    loads: dict[int, float] = {}
    for t in tg.tasks.values():
        if not (compute_only and t.kind == TaskKind.COMM):
            loads[t.device] = loads.get(t.device, 0.0) + t.exe_time
    return loads


_SETTINGS = settings(max_examples=60, deadline=None)
_GRAPHS = dict(
    kind=st.sampled_from(["mlp", "lstm"]),
    width=st.sampled_from([16, 24, 32]),
    devices=st.integers(2, 3),
    seed=st.integers(0, 2**16),
    random_init=st.booleans(),
)


def build(kind, width, devices, seed, random_init):
    """A random state-machine graph and strategy, plus its config space and rng."""
    graph = small_graph(kind, width)
    topo = single_node(devices, "p100")
    space = ConfigSpace(graph, topo)
    rng = np.random.default_rng(seed)
    init = space.random_strategy(rng) if random_init else data_parallelism(graph, topo)
    return TaskGraph(graph, topo, init, DyadicProfiler()), space, rng


@_SETTINGS
@given(splices=st.integers(1, 8), **_GRAPHS)
def test_spliced_loads_bound_the_spliced_graph(splices, **graph):
    tg, space, rng = build(**graph)
    for _ in range(splices):
        oid = int(rng.choice(tg.graph.op_ids))
        cfg = space.random_config(oid, rng)
        loads = tg.spliced_loads(oid, cfg)
        tg.replace_config(oid, cfg)
        exact = loads_by_device(tg, compute_only=True)
        for d, low in enumerate(loads):
            assert low <= exact.get(d, 0.0), d
        assert max(loads) <= full_simulate(tg).makespan


@_SETTINGS
@given(fraction=st.floats(0.5, 1.5), **_GRAPHS)
def test_a_bounded_sweep_stops_iff_the_makespan_exceeds_the_bound(fraction, **graph):
    tg, _, _ = build(**graph)
    ref = full_simulate(tg)
    makespan = ref.makespan
    bound = fraction * makespan
    out = full_simulate(tg, bound)
    if makespan > bound:
        assert out == math.inf
    else:
        assert isinstance(out, Timeline) and out.equals(ref, tol=0.0)
        assert out.makespan == makespan
    # A device that ends the schedule has, at its last idle gap, a bound
    # equal to its end time, so the bound must be strict.
    at = full_simulate(tg, makespan)
    assert isinstance(at, Timeline) and at.equals(ref, tol=0.0)


@_SETTINGS
@given(**_GRAPHS)
def test_a_bound_below_the_largest_load_stops_before_the_first_pop(**graph):
    tg, _, _ = build(**graph)
    bound = max(loads_by_device(tg).values()) - 1 / 16
    with mock.patch.object(full_sim, "_sweep", side_effect=AssertionError("popped a task")):
        assert full_simulate(tg, bound) == math.inf

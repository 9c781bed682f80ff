"""Model-based test of the MCMC chain's lazy timeline sync.

With a cache or a store, ``mcmc_search`` answers a proposal from a
fingerprint hit without touching the simulator, even when it accepts it:
the accepted change waits in a lag, and the simulator catches up with it
only when a later miss needs a simulation.  The lag lives inside
``mcmc_search``, so this is a hypothesis property over whole chains.  On
the small random MLP and LSTM graphs of ``tests/sim/test_simulator_state.py``
every chain runs three ways:

* without a cache (every non-identity proposal is simulated);
* with a ``SimulationCache`` of 1-64 entries, so entries are evicted and
  their strategies simulated again;
* with a ``MemoryStore`` seeded from part of an earlier chain, so runs of
  warm hits build up long lags.

The three must take identical decisions -- the same per-iteration costs,
acceptances, best cost and best strategy -- and no cached run may simulate
more than the uncached one.  After every run the simulator's timeline must
equal a from-scratch full sweep of its task graph, bit for bit, and the
graph must pass ``TaskGraph.check_consistent`` (well formed, and equal to
a cold build of its strategy); under ``auto`` the route counts must add up
to the chain's simulations, a lag catch-up counting as one.

The catch-up itself is ``Simulator.sync``: one splice per changed group
and one full sweep under every algorithm, nothing for a lag of live
configs, and never while a proposal is pending.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.builder import GraphBuilder
from repro.machine.clusters import single_node
from repro.models.mlp import mlp
from repro.models.rnn import stacked_lstm
from repro.profiler.profiler import OpProfiler
from repro.search.cache import SimulationCache, strategy_fingerprint
from repro.search.mcmc import MCMCConfig, mcmc_search
from repro.sim import simulator as simulator_module
from repro.sim.full_sim import full_simulate
from repro.sim.simulator import ALGORITHMS, Simulator
from repro.sim.taskgraph import TaskGraph
from repro.soap.presets import data_parallelism
from repro.soap.space import ConfigSpace

from search_helpers import MemoryStore

ITERATIONS = 60


def small_graph(kind: str, width: int):
    """The graphs of the simulator state machine (tests/sim)."""
    if kind == "mlp":
        return mlp(batch=16, in_dim=16, hidden=(width,) * (1 + width % 2), num_classes=8)
    b = GraphBuilder("lstm", batch=8)
    outputs = stacked_lstm(b, steps=2, layers=1 + width % 2, hidden=width, vocab=32, embed_dim=16)
    b.softmax(b.dense(outputs[-1][-1], 4, name="classifier"), name="softmax")
    return b.graph


def run_chain(graph, topo, init, algorithm, config, **lookups):
    """One chain on a fresh simulator; returns ``(best, cost, trace)``
    after checking the simulator against a from-scratch sweep."""
    sim = Simulator(graph, topo, init, OpProfiler(), algorithm=algorithm)
    best, cost, trace = mcmc_search(sim, ConfigSpace(graph, topo), config, **lookups)
    tg = sim.task_graph
    assert full_simulate(tg).equals(sim.timeline, tol=0.0)
    assert sim.cost == sim.timeline.makespan
    tg.check_consistent()
    if algorithm == "auto":
        assert sum(trace.route_counts.values()) == trace.simulations
    return best, cost, trace


@settings(max_examples=50, deadline=None)
@given(
    kind=st.sampled_from(["mlp", "lstm"]),
    width=st.sampled_from([16, 24, 32]),
    devices=st.integers(2, 3),
    algorithm=st.sampled_from(ALGORITHMS),
    seed=st.integers(0, 2**16),
    random_init=st.booleans(),
    beta_scale=st.sampled_from([5.0, 50.0]),
    capacity=st.integers(1, 64),
    earlier_seed=st.integers(0, 2),
    earlier_iterations=st.integers(1, ITERATIONS),
    stride=st.integers(1, 3),
)
def test_cache_and_store_runs_match_the_uncached_chain(
    kind,
    width,
    devices,
    algorithm,
    seed,
    random_init,
    beta_scale,
    capacity,
    earlier_seed,
    earlier_iterations,
    stride,
):
    graph = small_graph(kind, width)
    topo = single_node(devices, "p100")
    if random_init:
        init = ConfigSpace(graph, topo).random_strategy(np.random.default_rng(seed))
    else:
        init = data_parallelism(graph, topo)
    config = MCMCConfig(
        iterations=ITERATIONS, seed=seed, beta_scale=beta_scale, no_improve_frac=None
    )

    # Part of an earlier chain: every ``stride``-th evaluation it recorded.
    # The same seed replays a prefix of the chain under test; another seed
    # overlaps it only here and there.
    earlier = MemoryStore()
    earlier_config = MCMCConfig(
        iterations=earlier_iterations,
        seed=seed + earlier_seed,
        beta_scale=beta_scale,
        no_improve_frac=None,
    )
    run_chain(graph, topo, init, algorithm, earlier_config, store=earlier)
    earlier.flush()
    seeded = MemoryStore(earlier.drain_outbox()[::stride])

    runs = {
        "uncached": run_chain(graph, topo, init, algorithm, config),
        "cache": run_chain(
            graph, topo, init, algorithm, config, cache=SimulationCache(capacity)
        ),
        "store": run_chain(graph, topo, init, algorithm, config, store=seeded),
    }

    best, cost, trace = runs["uncached"]
    for name, (b, c, t) in runs.items():
        assert t.costs == trace.costs, name
        assert t.accepted == trace.accepted, name
        assert c == cost, name
        assert strategy_fingerprint(b) == strategy_fingerprint(best), name
        assert t.simulations <= trace.simulations, name


def lstm_simulator(algorithm):
    graph = small_graph("lstm", 16)
    topo = single_node(3, "p100")
    return Simulator(graph, topo, data_parallelism(graph, topo), OpProfiler(), algorithm=algorithm)


def lagged_changes(sim, n):
    """``n`` changes to distinct weight-sharing groups, each to a config
    other than the live one (the LSTM's unrolled steps share groups)."""
    graph, space = sim.graph, ConfigSpace(sim.graph, sim.topology)
    rng = np.random.default_rng(7)
    changes, groups = [], set()
    for oid in graph.op_ids:
        oid = int(oid)
        if graph.group_key(oid) in groups or space.config_count(oid) < 2:
            continue
        cfg = sim.strategy[oid]
        while cfg == sim.strategy[oid]:
            cfg = space.random_config(oid, rng)
        groups.add(graph.group_key(oid))
        changes.append((oid, cfg))
        if len(changes) == n:
            return changes
    raise AssertionError(f"only {len(changes)} groups can change")


def spy(monkeypatch, owner, name):
    """Count the calls of ``owner.name`` and pass them through."""
    calls = []
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_a_sync_of_n_lagged_changes_is_one_sweep(monkeypatch, algorithm):
    sim = lstm_simulator(algorithm)
    changes = lagged_changes(sim, 4)
    sweeps = spy(monkeypatch, simulator_module, "full_simulate")
    splices = spy(monkeypatch, TaskGraph, "replace_config")
    monkeypatch.setattr(simulator_module, "delta_simulate", None)  # must not repair

    assert sim.sync(changes)
    assert len(sweeps) == 1 and len(splices) == len(changes)
    for oid, cfg in changes:
        for m in sim.graph.group_members(oid):
            assert sim.strategy[m] == cfg
    assert full_simulate(sim.task_graph).equals(sim.timeline, tol=0.0)
    assert sim.cost == sim.timeline.makespan
    sim.task_graph.check_consistent()
    assert sim.delta_stats.route_counts == ({"sync": 1} if algorithm == "auto" else {})


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_a_sync_of_live_configs_makes_no_call(monkeypatch, algorithm):
    sim = lstm_simulator(algorithm)
    timeline = sim.timeline
    changes = [(oid, sim.strategy[oid]) for oid, _ in lagged_changes(sim, 3)]
    monkeypatch.setattr(simulator_module, "full_simulate", None)
    monkeypatch.setattr(TaskGraph, "replace_config", None)

    assert not sim.sync(changes)
    assert not sim.sync([])
    assert sim.timeline is timeline
    assert sim.delta_stats.route_counts == {}


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("identity", [False, True])
def test_sync_refuses_to_run_while_a_proposal_is_pending(algorithm, identity):
    sim = lstm_simulator(algorithm)
    before = (sim.strategy.signature(), sim.cost)
    (oid, cfg), (other, other_cfg) = lagged_changes(sim, 2)
    sim.propose(oid, sim.strategy[oid] if identity else cfg)
    with pytest.raises(RuntimeError, match="pending"):
        sim.sync([(other, other_cfg)])
    assert sim.revert() == before[1]
    assert (sim.strategy.signature(), sim.cost) == before

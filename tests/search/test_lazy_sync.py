"""Model-based test of the MCMC chain's lazy timeline sync.

With a cache or a store, ``mcmc_search`` answers a proposal from a
fingerprint hit without touching the simulator, even when it accepts it:
the accepted change waits in a lag and is replayed into the simulator only
when a later miss needs a simulation.  The lag replay lives inside
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
graph's flat arrays must mirror its task dict.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.builder import GraphBuilder
from repro.machine.clusters import single_node
from repro.models.mlp import mlp
from repro.models.rnn import stacked_lstm
from repro.profiler.profiler import OpProfiler
from repro.search.cache import SimulationCache, strategy_fingerprint
from repro.search.mcmc import MCMCConfig, mcmc_search
from repro.search.store import MemoryStore
from repro.sim.full_sim import full_simulate
from repro.sim.simulator import ALGORITHMS, Simulator
from repro.soap.presets import data_parallelism
from repro.soap.space import ConfigSpace

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
    tg.arrays.check_consistent(tg.tasks)
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

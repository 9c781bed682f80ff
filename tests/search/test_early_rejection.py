"""Early rejection changes no decision of an MCMC chain.

Under ``auto``, ``mcmc_search`` peeks the uniform its Metropolis-Hastings
test would draw, turns it into the cost above which the test must reject,
and lets the simulator give up on a proposal once a lower bound on its
cost exceeds that.  Whole chains on LeNet and the simulator state
machine's MLP and LSTM graphs must take exactly the decisions of ``full``
chains, with the default cache.  An early-rejected proposal has no exact
cost, so it must never reach the cache.  A chain with a store, with
``beta_scale=0``, or with a peeked uniform of 0.0 gets no bound at all.
After a rejected ``propose``, the simulator must still hold the
pre-proposal state, and only ``revert`` may resolve it.
"""

import functools
import math

import numpy as np
import pytest

from repro.machine.clusters import single_node
from repro.models.lenet import lenet
from repro.profiler.profiler import OpProfiler
from repro.search.cache import SimulationCache, strategy_fingerprint
from repro.search.mcmc import MCMCConfig, mcmc_search
from repro.sim.full_sim import full_simulate
from repro.sim.simulator import Simulator
from repro.soap.presets import data_parallelism
from repro.soap.space import ConfigSpace

from search_helpers import MemoryStore
from test_lazy_sync import small_graph

ITERATIONS = 60
MODELS = {
    "lenet": lambda: lenet(batch=16),
    "mlp": lambda: small_graph("mlp", 24),
    "lstm": lambda: small_graph("lstm", 16),
}
CASES = [(m, s, i) for m in MODELS for s in (0, 1, 2) for i in ("data", "random")]
EARLY = ("load_reject", "sweep_stop")


@functools.lru_cache(maxsize=None)
def problem(model: str, init: str, seed: int):
    graph = MODELS[model]()
    topo = single_node(3, "p100")
    if init == "data":
        strategy = data_parallelism(graph, topo)
    else:
        strategy = ConfigSpace(graph, topo).random_strategy(np.random.default_rng(seed))
    return graph, topo, strategy


def run_chain(model, seed, init, algorithm, beta_scale=50.0, **lookups):
    """One chain with the default cache unless ``lookups`` says otherwise;
    returns ``(best, cost, trace, simulator)``."""
    graph, topo, strategy = problem(model, init, seed)
    lookups.setdefault("cache", SimulationCache())
    sim = Simulator(graph, topo, strategy, OpProfiler(), algorithm=algorithm)
    config = MCMCConfig(
        iterations=ITERATIONS, seed=seed, beta_scale=beta_scale, no_improve_frac=None
    )
    best, cost, trace = mcmc_search(sim, ConfigSpace(graph, topo), config, **lookups)
    return best, cost, trace, sim


@functools.lru_cache(maxsize=None)
def chain_pair(model, seed, init):
    return run_chain(model, seed, init, "auto"), run_chain(model, seed, init, "full")


def assert_same_decisions(a, b):
    best_a, cost_a, trace_a, _ = a
    best_b, cost_b, trace_b, _ = b
    assert trace_a.costs == trace_b.costs
    assert trace_a.accepted == trace_b.accepted
    assert trace_a.proposed == trace_b.proposed
    assert cost_a == cost_b
    assert strategy_fingerprint(best_a) == strategy_fingerprint(best_b)


def early_routes(trace) -> dict:
    return {r: n for r, n in trace.route_counts.items() if r in EARLY}


@pytest.mark.parametrize("model,seed,init", CASES)
def test_auto_chains_take_the_full_chains_decisions(model, seed, init):
    auto, full = chain_pair(model, seed, init)
    assert_same_decisions(auto, full)
    sim = auto[3]
    tg = sim.task_graph
    assert full_simulate(tg).equals(sim.timeline, tol=0.0)
    tg.check_consistent()


def test_both_early_rejection_routes_fire():
    fired = {r: 0 for r in EARLY}
    for case in CASES:
        for route, n in early_routes(chain_pair(*case)[0][2]).items():
            fired[route] += n
    assert fired["load_reject"] > 0, fired
    assert fired["sweep_stop"] > 0, fired


def test_no_bound_at_beta_zero():
    _, _, trace, _ = run_chain("lenet", 0, "random", "auto", beta_scale=0.0)
    assert trace.route_counts.get("full", 0) > 0
    assert not early_routes(trace)


def test_a_zero_uniform_gives_no_bound(monkeypatch):
    make_rng = np.random.default_rng

    class ZeroUniforms:
        """The seeded generator, except that every uniform is 0.0."""

        def __init__(self, seed):
            self._rng = make_rng(seed)

        def random(self, *args, **kwargs):
            return 0.0

        def __getattr__(self, name):
            return getattr(self._rng, name)

    monkeypatch.setattr(np.random, "default_rng", ZeroUniforms)
    _, _, trace, _ = run_chain("lenet", 0, "data", "auto")  # no ValueError from log(0)
    assert trace.route_counts.get("full", 0) > 0
    assert not early_routes(trace)


@pytest.mark.parametrize("model", MODELS)
def test_a_store_disables_the_bound(model):
    runs = {}
    for algorithm in ("auto", "full"):
        store = MemoryStore()
        runs[algorithm] = run_chain(model, 1, "random", algorithm, store=store)
        store.flush()
        runs[algorithm] += (sorted(store.drain_outbox()),)
    assert not early_routes(runs["auto"][2])
    assert_same_decisions(runs["auto"][:4], runs["full"][:4])
    assert runs["auto"][4] == runs["full"][4]


def test_the_cache_only_ever_holds_exact_costs(monkeypatch):
    seen = []
    put = SimulationCache.put

    def spy(self, fp, cost):
        seen.append(cost)
        return put(self, fp, cost)

    monkeypatch.setattr(SimulationCache, "put", spy)
    routes = {}
    for model in MODELS:
        _, _, trace, _ = run_chain(model, 2, "data", "auto")
        for route, n in early_routes(trace).items():
            routes[route] = routes.get(route, 0) + n
    assert routes and seen
    assert all(math.isfinite(c) for c in seen)


class TestRejectedProposal:
    def _proposal(self, graph, topo, sim):
        """A non-identity proposal whose exact cost exceeds its pre-splice bound."""
        space = ConfigSpace(graph, topo)
        rng = np.random.default_rng(0)
        while True:
            oid = int(rng.choice(graph.op_ids))
            cfg = space.random_config(oid, rng)
            if cfg == sim.strategy[oid]:
                continue
            low = max(sim.task_graph.spliced_loads(oid, cfg))
            cost = sim.propose(oid, cfg)
            sim.revert()
            if low < cost:
                return oid, cfg, low, cost

    @pytest.mark.parametrize("route", EARLY)
    def test_only_revert_resolves_it(self, route, lenet_graph, topo4):
        sim = Simulator(
            lenet_graph, topo4, data_parallelism(lenet_graph, topo4), OpProfiler()
        )
        oid, cfg, low, cost = self._proposal(lenet_graph, topo4, sim)
        bound = low / 2 if route == "load_reject" else (low + cost) / 2
        before = (sim.cost, sim.strategy.signature(), sim.timeline)
        assert sim.propose(oid, cfg, bound) == math.inf
        assert sim.delta_stats.route_counts[route] == 1
        assert (sim.cost, sim.strategy.signature(), sim.timeline) == before
        with pytest.raises(RuntimeError):
            sim.commit()
        assert sim.revert() == before[0]
        assert sim.strategy.signature() == before[1]
        tg = sim.task_graph
        assert full_simulate(tg).equals(sim.timeline, tol=0.0)
        tg.check_consistent()
        # Resolved: the same proposal, unbounded, now completes exactly.
        assert sim.propose(oid, cfg) == cost

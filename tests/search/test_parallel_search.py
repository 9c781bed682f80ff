"""Property tests for multi-chain search orchestration and the evaluation cache.

The two load-bearing guarantees (see :mod:`repro.search.exec`):

* worker-count invariance -- ``Planner.search("mcmc")`` with ``workers=k``
  returns the same best cost/strategy as with ``workers=1`` for any ``k``
  and seed;
* cache neutrality -- cached and uncached searches take identical
  accept/reject decisions and return identical results.

Both rest on the simulated cost being a pure function of the strategy
(canonical tie-breaking), which ``tests/sim`` locks down separately.
"""

import multiprocessing as mp
import os
import warnings

import numpy as np
import pytest

import repro.search.exec.local as exec_local
from repro.machine.clusters import single_node
from repro.machine.topology import DeviceTopology
from repro.models.mlp import mlp
from repro.plan import Planner, SearchConfig
from repro.profiler.profiler import OpProfiler
from repro.search.cache import SimulationCache
from repro.search.exec import ChainSpec
from repro.search.mcmc import MCMCConfig, mcmc_search
from repro.sim.simulator import Simulator
from repro.soap.presets import data_parallelism
from repro.soap.space import ConfigSpace

from search_helpers import chains_equal, plan_mcmc, run_specs


def random_graph(rng: np.random.Generator):
    """A small random MLP: varying batch, widths, and depth."""
    batch = int(rng.choice([8, 16]))
    depth = int(rng.integers(0, 3))
    hidden = tuple(int(rng.choice([16, 32])) for _ in range(depth))
    return mlp(batch=batch, in_dim=int(rng.choice([16, 32])), hidden=hidden, num_classes=8)


class TestWorkerCountInvariance:
    @pytest.mark.slow
    def test_property_random_graphs_workers_1_vs_2(self):
        """For random small graphs, fan-out never changes the outcome."""
        for seed in range(4):
            rng = np.random.default_rng(seed)
            graph = random_graph(rng)
            topo = single_node(int(rng.choice([2, 3])), "p100")
            results = {w: plan_mcmc(graph, topo, 40, seed=seed, workers=w) for w in (1, 2)}
            assert results[1].best_cost_us == results[2].best_cost_us, f"seed {seed}"
            assert (
                results[1].best_strategy.signature() == results[2].best_strategy.signature()
            ), f"seed {seed}"
            traces = {w: r.extras["traces"] for w, r in results.items()}
            for name in traces[1]:
                assert traces[1][name].costs == traces[2][name].costs

    @pytest.mark.slow
    def test_workers_4_matches_workers_1(self, lenet_graph, topo4):
        r1 = plan_mcmc(lenet_graph, topo4, 60, seed=7, workers=1)
        r4 = plan_mcmc(lenet_graph, topo4, 60, seed=7, workers=4)
        assert r1.best_cost_us == r4.best_cost_us
        assert r1.best_strategy.signature() == r4.best_strategy.signature()

    @pytest.mark.slow
    def test_run_chains_identical_across_workers(self, lenet_graph, topo4):
        specs = [
            ChainSpec("a", data_parallelism(lenet_graph, topo4), MCMCConfig(iterations=50, seed=0)),
            ChainSpec("b", data_parallelism(lenet_graph, topo4), MCMCConfig(iterations=50, seed=9)),
        ]
        seq = run_specs(lenet_graph, topo4, specs)
        par = run_specs(lenet_graph, topo4, specs, workers=2)
        assert chains_equal(seq, par)


class TestCacheNeutrality:
    def test_property_cached_equals_uncached(self):
        """Cached and uncached searches return identical results."""
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            graph = random_graph(rng)
            topo = single_node(2, "p100")
            outcomes = {}
            for cache_size in (0, 4096):
                outcomes[cache_size] = plan_mcmc(graph, topo, 60, seed=seed, cache_size=cache_size)
            assert outcomes[0].best_cost_us == outcomes[4096].best_cost_us, f"seed {seed}"
            for name in outcomes[0].extras["traces"]:
                t0 = outcomes[0].extras["traces"][name]
                t1 = outcomes[4096].extras["traces"][name]
                assert t0.costs == t1.costs, f"seed {seed} chain {name}"
                assert t0.accepted == t1.accepted
            # Uncached runs report no cache activity at all.
            assert outcomes[0].cache_hits == 0
            # The cache never adds simulator work.
            assert outcomes[4096].simulations <= outcomes[0].simulations

    def test_cached_mcmc_chain_equals_uncached(self, lenet_graph, topo4):
        runs = {}
        for label, cache in (("off", None), ("on", SimulationCache(1024))):
            sim = Simulator(lenet_graph, topo4, data_parallelism(lenet_graph, topo4), OpProfiler())
            _, cost, trace = mcmc_search(
                sim,
                ConfigSpace(lenet_graph, topo4),
                MCMCConfig(iterations=120, seed=5, no_improve_frac=None),
                cache=cache,
            )
            runs[label] = (cost, trace.costs, trace.accepted)
        assert runs["on"] == runs["off"]

    def test_small_space_search_hits_cache(self, topo2):
        """On a tiny space the chain re-proposes strategies and must hit."""
        graph = mlp(batch=8, in_dim=16, hidden=(), num_classes=4)
        res = plan_mcmc(graph, topo2, 300, seed=0, cache_size=4096)
        assert res.cache_hits > 0
        assert 0.0 < res.cache_hit_rate <= 1.0
        # Hits translate into strictly fewer simulations than a cache-less run.
        res_off = plan_mcmc(graph, topo2, 300, seed=0, cache_size=0)
        assert res.simulations < res_off.simulations
        assert res.best_cost_us == res_off.best_cost_us


class TestFallbacks:
    def test_unpicklable_topology_falls_back_in_process(self, lenet_graph):
        devices = single_node(2, "p100").devices
        topo = DeviceTopology(devices, lambda a, b: (20.0, 1.0, "nvlink", None), name="lambda")
        specs = [
            ChainSpec("a", data_parallelism(lenet_graph, topo), MCMCConfig(iterations=20, seed=0)),
            ChainSpec("b", data_parallelism(lenet_graph, topo), MCMCConfig(iterations=20, seed=1)),
        ]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            par = run_specs(lenet_graph, topo, specs, workers=2)
        assert any(issubclass(w.category, RuntimeWarning) for w in caught)
        seq = run_specs(lenet_graph, topo, specs)
        assert chains_equal(seq, par)

    @pytest.mark.skipif(
        "fork" not in mp.get_all_start_methods(), reason="needs fork to patch the workers"
    )
    def test_dead_worker_chains_rerun_in_caller(self, lenet_graph, topo4, monkeypatch):
        """A pool worker that dies costs time, not the search: its chains
        re-run in the caller and the result equals a ``workers=1`` search."""
        test_pid = os.getpid()
        run_one_chain = exec_local.run_one_chain

        def dies_in_a_worker(ctx, spec, cache, store):
            if spec.name == "random" and os.getpid() != test_pid:
                os._exit(3)
            return run_one_chain(ctx, spec, cache, store)

        monkeypatch.setattr(exec_local, "run_one_chain", dies_in_a_worker)
        with pytest.warns(RuntimeWarning, match="pool worker died.*random"):
            pool = plan_mcmc(lenet_graph, topo4, 30, seed=3, workers=2)
        monkeypatch.undo()
        alone = plan_mcmc(lenet_graph, topo4, 30, seed=3, workers=1)
        assert pool.extras["chains_rerun"] >= 1
        assert alone.extras["chains_rerun"] == 0
        assert pool.best_cost_us == alone.best_cost_us
        assert pool.best_strategy.signature() == alone.best_strategy.signature()
        for name, trace in alone.extras["traces"].items():
            assert pool.extras["traces"][name].costs == trace.costs, name

    def test_empty_specs_rejected(self, lenet_graph, topo4):
        """No inits means no chains: a ValueError before any chain runs."""
        with pytest.raises(ValueError, match="inits is empty"):
            Planner(lenet_graph, topo4).search("mcmc", SearchConfig(inits=()))


class TestSpeculativeSimulator:
    def test_revert_restores_cost_and_timeline(self, lenet_graph, topo4, rng):
        from repro.sim.full_sim import full_simulate

        sim = Simulator(lenet_graph, topo4, data_parallelism(lenet_graph, topo4), OpProfiler())
        base = sim.cost
        space = ConfigSpace(lenet_graph, topo4)
        for _ in range(10):
            oid = int(rng.choice(lenet_graph.op_ids))
            sim.propose(oid, space.random_config(oid, rng))
            assert sim.revert() == base
        assert sim.reverts == 10
        assert full_simulate(sim.task_graph).equals(sim.timeline, tol=0.0)

    def test_propose_requires_resolution(self, lenet_graph, topo4, rng):
        sim = Simulator(lenet_graph, topo4, data_parallelism(lenet_graph, topo4), OpProfiler())
        space = ConfigSpace(lenet_graph, topo4)
        oid = int(lenet_graph.op_ids[0])
        sim.propose(oid, space.random_config(oid, rng))
        with pytest.raises(RuntimeError):
            sim.propose(oid, space.random_config(oid, rng))
        sim.commit()
        with pytest.raises(RuntimeError):
            sim.commit()
        with pytest.raises(RuntimeError):
            sim.revert()


class TestOptimizeSurface:
    def test_result_reports_cache_and_workers(self, lenet_graph, topo4):
        res = plan_mcmc(lenet_graph, topo4, 40, seed=0, workers=1, cache_size=512)
        assert res.extras["workers"] == 1
        assert res.cache_hits + res.cache_misses > 0
        assert "evaluation cache" in res.summary()
        assert len(res.extras["chains"]) == len(res.extras["traces"])

    def test_repeated_random_inits_become_chains(self, lenet_graph, topo4):
        res = plan_mcmc(lenet_graph, topo4, 20, seed=0, inits=("random", "random", "random"))
        assert set(res.extras["init_costs"]) == {"random", "random_2", "random_3"}

    def test_per_chain_cache_stats_are_deltas(self, lenet_graph, topo4):
        """Chains sharing a worker cache report their own activity, not the
        cache's cumulative totals (which would double-count)."""
        res = plan_mcmc(
            lenet_graph,
            topo4,
            40,
            seed=0,
            inits=("data_parallel", "random", "random"),
            workers=1,
            cache_size=4096,
        )
        chains = res.extras["chains"]
        for r in chains:
            assert r.cache.hits == r.trace.cache_hits, r.name
            assert r.cache.misses == r.trace.cache_misses, r.name
        assert sum(r.cache.hits for r in chains) == res.cache_hits

    def test_cache_stats_aggregate_across_workers(self, lenet_graph, topo4):
        """Regression: per-worker SimulationCache stats used to die with
        the pool (only hit/miss trace counters survived; evictions were
        silently dropped).  PlanResult.cache_stats must aggregate the
        full accounting from the ChainResult deltas, for any worker
        count."""
        for workers in (1, 2):
            res = plan_mcmc(
                lenet_graph,
                topo4,
                60,
                seed=0,
                workers=workers,
                inits=("data_parallel", "random", "random"),
                cache_size=8,  # tiny: forces evictions
            )
            agg = res.cache_stats
            chains, traces = res.extras["chains"], res.extras["traces"]
            assert agg.hits == sum(r.cache.hits for r in chains) == res.cache_hits
            assert agg.misses == sum(r.cache.misses for r in chains) == res.cache_misses
            assert agg.evictions == sum(r.cache.evictions for r in chains)
            # Totals agree with the per-chain trace counters too.
            assert agg.hits == sum(t.cache_hits for t in traces.values())
            assert agg.misses == sum(t.cache_misses for t in traces.values())
            # The latent bug: evictions happened but were dropped on pool
            # teardown.  Now they survive.
            assert agg.evictions > 0, f"workers={workers}"
            assert agg.capacity == 8

    def test_workers_reports_observed_processes(self, lenet_graph, topo4):
        seq = plan_mcmc(lenet_graph, topo4, 20, seed=0, workers=1)
        assert seq.extras["workers"] == 1
        # Requesting more workers than chains clamps to the chain count.
        wide = plan_mcmc(lenet_graph, topo4, 20, seed=0, workers=8)
        assert 1 <= wide.extras["workers"] <= len(wide.extras["chains"])

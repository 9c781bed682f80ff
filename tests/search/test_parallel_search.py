"""Property tests for multi-chain search orchestration.

The load-bearing guarantee (see :mod:`repro.search.exec`) is worker-count
invariance: ``Planner.search("mcmc")`` with ``workers=k`` returns the
same best cost/strategy as with ``workers=1`` for any ``k`` and seed.
It rests on the simulated cost being a pure function of the strategy
(canonical tie-breaking), which ``tests/sim`` locks down separately;
store neutrality is ``tests/search/test_store.py``'s subject.
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
from repro.search.exec import ChainSpec
from repro.search.mcmc import MCMCConfig
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

        def dies_in_a_worker(ctx, spec, store):
            if spec.name == "random" and os.getpid() != test_pid:
                os._exit(3)
            return run_one_chain(ctx, spec, store)

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
        res = plan_mcmc(lenet_graph, topo4, 40, seed=0, workers=1)
        assert res.extras["workers"] == 1
        assert len(res.extras["chains"]) == len(res.extras["traces"])

    def test_repeated_random_inits_become_chains(self, lenet_graph, topo4):
        res = plan_mcmc(lenet_graph, topo4, 20, seed=0, inits=("random", "random", "random"))
        assert set(res.extras["init_costs"]) == {"random", "random_2", "random_3"}

    def test_per_chain_cache_stats_are_deltas(self, lenet_graph, topo4, tmp_path):
        """Chains sharing a store handle report their own activity, not the
        handle's cumulative totals (which would double-count)."""
        res = plan_mcmc(
            lenet_graph,
            topo4,
            40,
            seed=0,
            inits=("data_parallel", "random", "random"),
            store=str(tmp_path / "store"),
            workers=1,
        )
        chains = res.extras["chains"]
        for r in chains:
            assert r.store.hits == r.trace.store_hits, r.name
            assert r.store.misses == r.trace.store_misses, r.name
        assert sum(r.store.hits for r in chains) == res.store_stats.hits > 0

    def test_cache_stats_aggregate_across_workers(self, lenet_graph, topo4, tmp_path):
        """``PlanResult.store_stats`` sums the per-chain store deltas, so
        pool workers' accounting survives the pool, for any worker count."""
        for workers in (1, 2):
            res = plan_mcmc(
                lenet_graph,
                topo4,
                40,
                seed=0,
                inits=("data_parallel", "random", "random"),
                store=str(tmp_path / f"store-{workers}"),
                workers=workers,
            )
            agg = res.store_stats
            chains, traces = res.extras["chains"], res.extras["traces"]
            assert agg.hits == sum(r.store.hits for r in chains) > 0, f"workers={workers}"
            assert agg.misses == sum(r.store.misses for r in chains) > 0
            assert agg.appended == sum(r.store.appended for r in chains)
            # Totals agree with the per-chain trace counters too.
            assert agg.hits == sum(t.store_hits for t in traces.values())
            assert agg.misses == sum(t.store_misses for t in traces.values())

    def test_a_storeless_search_never_fingerprints(self, lenet_graph, topo4, monkeypatch):
        """Without a store nothing can answer a proposal, so a chain
        tracks no fingerprint and never lags: no lag sync ever runs."""

        def refuse(strategy):
            raise AssertionError("a storeless chain fingerprinted its strategy")

        monkeypatch.setattr("repro.search.mcmc.FingerprintTracker", refuse)
        res = plan_mcmc(lenet_graph, topo4, 60, seed=0)
        assert res.simulations > len(res.extras["chains"])
        assert "sync" not in res.extras["route_counts"]

    def test_workers_reports_observed_processes(self, lenet_graph, topo4):
        seq = plan_mcmc(lenet_graph, topo4, 20, seed=0, workers=1)
        assert seq.extras["workers"] == 1
        # Requesting more workers than chains clamps to the chain count.
        wide = plan_mcmc(lenet_graph, topo4, 20, seed=0, workers=8)
        assert 1 <= wide.extras["workers"] <= len(wide.extras["chains"])

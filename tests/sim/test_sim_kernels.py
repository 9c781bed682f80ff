"""Kernel loops == scalar reference, bit for bit; ``auto``'s short circuit.

The loops in :mod:`repro.sim.kernels` back ``full_simulate`` and the
delta suffix sweep unless ``REPRO_SIM_KERNELS=python`` is set.  Their
contract is *bitwise* identity with the scalar reference loops -- same
dict contents, same makespan float -- which these suites enforce A/B by
flipping the env var, on random graphs and on revert-heavy MCMC traces.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.mlp import mlp
from repro.machine.clusters import single_node
from repro.profiler.profiler import OpProfiler
from repro.sim import kernels
from repro.sim.full_sim import full_simulate
from repro.sim.simulator import Simulator
from repro.sim.taskgraph import TaskGraph
from repro.soap.presets import data_parallelism
from repro.soap.space import ConfigSpace


def drift_strategy(graph, topo, seed, steps):
    """A strategy `steps` random mutations away from data-parallel."""
    space = ConfigSpace(graph, topo)
    rng = np.random.default_rng(seed)
    strat = data_parallelism(graph, topo)
    for _ in range(steps):
        oid = int(rng.choice(graph.op_ids))
        strat = strat.with_config(oid, space.random_config(oid, rng))
    return strat


class TestKernelToggle:
    def test_env_var_disables_kernels(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_KERNELS", "python")
        assert not kernels.kernels_enabled()
        monkeypatch.setenv("REPRO_SIM_KERNELS", "numpy")
        assert kernels.kernels_enabled()
        monkeypatch.delenv("REPRO_SIM_KERNELS")
        assert kernels.kernels_enabled()


class TestFullKernelBitIdentity:
    def _ab(self, graph, topo, strat, monkeypatch):
        tg = TaskGraph(graph, topo, strat, OpProfiler())
        monkeypatch.setenv("REPRO_SIM_KERNELS", "python")
        ref = full_simulate(tg)
        monkeypatch.setenv("REPRO_SIM_KERNELS", "numpy")
        out = full_simulate(tg)
        assert out.makespan == ref.makespan  # bitwise, not approx
        assert out.equals(ref, tol=0.0)
        return out

    def test_lenet_data_parallel(self, lenet_graph, topo4, monkeypatch):
        self._ab(lenet_graph, topo4, data_parallelism(lenet_graph, topo4), monkeypatch)

    def test_weight_shared_rnn(self, tiny_rnn_graph, topo4, monkeypatch):
        self._ab(
            tiny_rnn_graph, topo4, data_parallelism(tiny_rnn_graph, topo4), monkeypatch
        )

    def test_production_thresholds_too(self, lenet_graph, multinode, monkeypatch):
        # Multi-node: cross-node transfers of every GPU pair queue on the
        # one shared IB connection of their node pair.
        self._ab(
            lenet_graph, multinode, data_parallelism(lenet_graph, multinode), monkeypatch
        )

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_property_random_graphs(self, seed):
        graph = mlp(batch=16, in_dim=32, hidden=(64, 32), num_classes=8)
        topo = single_node(4, "p100")
        strat = drift_strategy(graph, topo, seed, steps=5)
        tg = TaskGraph(graph, topo, strat, OpProfiler())
        import os

        try:
            os.environ["REPRO_SIM_KERNELS"] = "python"
            ref = full_simulate(tg)
            os.environ["REPRO_SIM_KERNELS"] = "numpy"
            out = full_simulate(tg)
        finally:
            os.environ.pop("REPRO_SIM_KERNELS", None)
        assert out.makespan == ref.makespan
        assert out.equals(ref, tol=0.0)


class TestSuffixDrainBitIdentity:
    def _chain(self, graph, topo, seed, steps, monkeypatch, algorithm="delta"):
        """Drive one mutation chain twice, python vs kernel loops, and
        assert the repaired timelines stay bitwise equal step by step."""
        space = ConfigSpace(graph, topo)
        rng = np.random.default_rng(seed)
        muts = []
        for _ in range(steps):
            oid = int(rng.choice(graph.op_ids))
            muts.append((oid, space.random_config(oid, rng)))
        outcomes = {}
        for mode in ("python", "numpy"):
            monkeypatch.setenv("REPRO_SIM_KERNELS", mode)
            sim = Simulator(
                graph, topo, data_parallelism(graph, topo), OpProfiler(),
                algorithm=algorithm,
            )
            costs = [sim.reconfigure(oid, cfg) for oid, cfg in muts]
            outcomes[mode] = (costs, sim)
        costs_py, sim_py = outcomes["python"]
        costs_np, sim_np = outcomes["numpy"]
        assert costs_np == costs_py  # bitwise, every step
        assert sim_np.timeline.equals(sim_py.timeline, tol=0.0)
        return sim_py, sim_np

    def test_lenet_mutation_chain(self, lenet_graph, topo4, monkeypatch):
        sim_py, sim_np = self._chain(lenet_graph, topo4, 7, 30, monkeypatch)
        assert sim_py.delta_stats.fallbacks == 0
        assert sim_np.delta_stats.fallbacks == 0

    def test_multinode_chain_production_thresholds(
        self, lenet_graph, multinode, monkeypatch
    ):
        self._chain(lenet_graph, multinode, 8, 20, monkeypatch)

    def test_auto_chain(self, lenet_graph, topo4, monkeypatch):
        self._chain(lenet_graph, topo4, 9, 20, monkeypatch, algorithm="auto")

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_property_revert_heavy_mcmc_traces(self, seed):
        """A revert-heavy proposal trace (the MCMC access pattern) under
        the kernels matches the scalar reference bitwise at every step:
        commits, snapshot reverts, and apply-then-undo pairs all land on
        identical timelines."""
        import os

        graph = mlp(batch=16, in_dim=32, hidden=(32,), num_classes=8)
        topo = single_node(3, "p100")
        try:
            sims = {}
            for mode in ("python", "numpy"):
                os.environ["REPRO_SIM_KERNELS"] = mode
                sims[mode] = Simulator(
                    graph, topo, data_parallelism(graph, topo), OpProfiler(),
                    algorithm="delta",
                )
            space = ConfigSpace(graph, topo)
            rng = np.random.default_rng(seed)
            for step in range(20):
                oid = int(rng.choice(graph.op_ids))
                cfg = space.random_config(oid, rng)
                style = rng.random()
                costs = {}
                for mode, sim in sims.items():
                    os.environ["REPRO_SIM_KERNELS"] = mode
                    if style < 0.3:  # committed proposal
                        costs[mode] = sim.propose(oid, cfg)
                        sim.commit()
                    elif style < 0.8:  # rejected proposal (revert-heavy)
                        sim.propose(oid, cfg)
                        costs[mode] = sim.revert()
                    else:  # apply-then-undo pair
                        old = sim.strategy[oid]
                        sim.reconfigure(oid, cfg)
                        costs[mode] = sim.reconfigure(oid, old)
                assert costs["numpy"] == costs["python"], f"step {step}"
                assert sims["numpy"].timeline.equals(
                    sims["python"].timeline, tol=0.0
                ), f"step {step}"
        finally:
            os.environ.pop("REPRO_SIM_KERNELS", None)


class TestAutoRouting:
    def test_auto_counts_router_decisions(self, lenet_graph, topo4, rng):
        sim = Simulator(
            lenet_graph, topo4, data_parallelism(lenet_graph, topo4), OpProfiler(),
            algorithm="auto",
        )
        space = ConfigSpace(lenet_graph, topo4)
        oid = lenet_graph.id_of("conv1")
        cfg = space.random_config(oid, rng)
        while cfg == sim.strategy[oid]:
            cfg = space.random_config(oid, rng)
        sim.reconfigure(oid, cfg)
        sim.reconfigure(oid, sim.strategy[oid])
        st = sim.delta_stats
        # A real change is a full sweep, an identity one a no-op; neither
        # touches the delta algorithm's accounting.
        assert st.route_counts == {"full": 1, "noop": 1}
        assert st.invocations == 0
        assert full_simulate(sim.task_graph).equals(sim.timeline, tol=0.0)

    def test_auto_identity_reconfigure_is_a_noop(self, lenet_graph, topo4):
        """cfg == current config short-circuits before the splice: no
        repair invocation, unchanged cost, counted as a noop route."""
        sim = Simulator(
            lenet_graph, topo4, data_parallelism(lenet_graph, topo4), OpProfiler(),
            algorithm="auto",
        )
        before = sim.cost
        inv0 = sim.delta_stats.invocations
        oid = lenet_graph.id_of("conv1")
        assert sim.reconfigure(oid, sim.strategy[oid]) == before
        assert sim.delta_stats.route_counts == {"noop": 1}
        assert sim.delta_stats.invocations == inv0  # no repair ran
        assert full_simulate(sim.task_graph).equals(sim.timeline, tol=0.0)

    def test_auto_identity_propose_commit_revert(self, lenet_graph, topo4, rng):
        sim = Simulator(
            lenet_graph, topo4, data_parallelism(lenet_graph, topo4), OpProfiler(),
            algorithm="auto",
        )
        base = sim.cost
        oid = lenet_graph.id_of("conv1")
        assert sim.propose(oid, sim.strategy[oid]) == base
        assert sim.revert() == base
        assert sim.propose(oid, sim.strategy[oid]) == base
        sim.commit()
        assert sim.cost == base
        # A real proposal afterwards still snapshots and reverts cleanly.
        space = ConfigSpace(lenet_graph, topo4)
        cfg = space.random_config(oid, rng)
        while cfg == sim.strategy[oid]:
            cfg = space.random_config(oid, rng)
        sim.propose(oid, cfg)
        assert sim.revert() == base
        assert full_simulate(sim.task_graph).equals(sim.timeline, tol=0.0)

    def test_named_algorithms_do_not_shortcut(self, lenet_graph, topo4):
        """algorithm="delta" must still run the full splice + repair on an
        identity reconfigure (it is the reference configuration)."""
        sim = Simulator(
            lenet_graph, topo4, data_parallelism(lenet_graph, topo4), OpProfiler(),
            algorithm="delta",
        )
        oid = lenet_graph.id_of("conv1")
        sim.reconfigure(oid, sim.strategy[oid])
        assert sim.delta_stats.invocations == 1
        assert sim.delta_stats.route_counts == {}


class TestSaturationHandoff:
    def test_dense_mutations_hand_off_to_full_kernel(
        self, lenet_graph, topo4, rng, monkeypatch
    ):
        """With kernels on, a suffix covering most of the graph re-routes
        to the full sweep -- counted, not a fallback -- and the
        result stays bitwise equal to the scalar cut-time reference."""
        monkeypatch.setenv("REPRO_SIM_KERNELS", "numpy")
        space = ConfigSpace(lenet_graph, topo4)
        muts = []
        for _ in range(10):
            oid = int(rng.choice(lenet_graph.op_ids))
            muts.append((oid, space.random_config(oid, rng)))
        sim = Simulator(
            lenet_graph, topo4, data_parallelism(lenet_graph, topo4), OpProfiler(),
            algorithm="delta",
        )
        costs = [sim.reconfigure(oid, cfg) for oid, cfg in muts]
        assert sim.delta_stats.saturation_handoffs > 0
        assert sim.delta_stats.fallbacks == 0
        assert sim.delta_stats.fallback_rate == 0.0

        monkeypatch.setenv("REPRO_SIM_KERNELS", "python")
        ref = Simulator(
            lenet_graph, topo4, data_parallelism(lenet_graph, topo4), OpProfiler(),
            algorithm="delta",
        )
        ref_costs = [ref.reconfigure(oid, cfg) for oid, cfg in muts]
        assert ref.delta_stats.saturation_handoffs == 0  # scalar path never hands off
        assert costs == ref_costs
        assert sim.timeline.equals(ref.timeline, tol=0.0)

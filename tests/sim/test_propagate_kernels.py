"""Delta's change-propagation kernels == scalar reference, bit for bit.

``delta`` propagates a splice through the timeline by re-simulating the
suffix after the cut time.  Under the kernels that suffix runs through
:func:`repro.sim.kernels.suffix_drain`, or -- once it covers at least
``delta_sim._SATURATION_FRAC`` of the tasks -- is handed to the full
sweep; under ``REPRO_SIM_KERNELS=python`` the scalar reference loop
re-simulates it.  These suites pin both kernel paths A/B by flipping the
env var, on proposal chains that mix mutations with identity re-splices
(which ``delta``, unlike ``auto``, always splices and repairs):

* with the handoff disabled, every repair takes ``suffix_drain`` and must
  land on timelines bitwise equal to the scalar loop's -- same costs, same
  dict contents;
* at the production handoff fraction, the mix of suffix drains and full
  sweeps must do the same.

The mode is also validated: a typo'd ``REPRO_SIM_KERNELS`` fails loudly.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.clusters import single_node
from repro.models.mlp import mlp
from repro.profiler.profiler import OpProfiler
from repro.sim import delta_sim, kernels
from repro.sim.full_sim import full_simulate
from repro.sim.simulator import Simulator
from repro.sim.taskgraph import TaskGraph
from repro.soap.presets import data_parallelism
from repro.soap.space import ConfigSpace

#: A handoff fraction no suffix can reach: every repair takes suffix_drain.
NO_HANDOFF = 2.0


class TestKernelModeValidation:
    def test_typo_raises_value_error(self, monkeypatch):
        """A typo'd REPRO_SIM_KERNELS must fail loudly, not silently
        select the kernels (the escape hatch's failure mode)."""
        for bad in ("phyton", "nmupy", "on", "0"):
            monkeypatch.setenv("REPRO_SIM_KERNELS", bad)
            with pytest.raises(ValueError, match="REPRO_SIM_KERNELS"):
                kernels.kernels_enabled()

    def test_valid_modes_accepted(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_KERNELS", "python")
        assert kernels.kernels_enabled() is False
        monkeypatch.setenv("REPRO_SIM_KERNELS", "NumPy")  # case-folded
        assert kernels.kernels_enabled() is True
        monkeypatch.setenv("REPRO_SIM_KERNELS", "")
        assert kernels.kernels_enabled() is True

    def test_typo_fails_the_simulation_too(self, lenet_graph, topo4, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_KERNELS", "phyton")
        tg = TaskGraph(
            lenet_graph, topo4, data_parallelism(lenet_graph, topo4), OpProfiler()
        )
        with pytest.raises(ValueError, match="REPRO_SIM_KERNELS"):
            full_simulate(tg)


def _mutation_chain(graph, topo, seed, steps, identity_every=3):
    """A deterministic proposal chain mixing mutations and identity
    resplices."""
    space = ConfigSpace(graph, topo)
    rng = np.random.default_rng(seed)
    muts = []
    for k in range(steps):
        oid = int(rng.choice(graph.op_ids))
        if k % identity_every == identity_every - 1:
            muts.append((oid, None))  # identity resplice
        else:
            muts.append((oid, space.random_config(oid, rng)))
    return muts


def _drive_ab(graph, topo, muts, algorithm="delta"):
    """Run one chain under both kernel modes; assert bitwise identity at
    every step and return the two simulators."""
    outcomes = {}
    for mode in ("python", "numpy"):
        os.environ["REPRO_SIM_KERNELS"] = mode
        sim = Simulator(
            graph, topo, data_parallelism(graph, topo), OpProfiler(),
            algorithm=algorithm,
        )
        costs = []
        for oid, cfg in muts:
            if cfg is None:
                cfg = sim.strategy[oid]
            costs.append(sim.reconfigure(oid, cfg))
        outcomes[mode] = (costs, sim)
    costs_py, sim_py = outcomes["python"]
    costs_np, sim_np = outcomes["numpy"]
    assert costs_np == costs_py  # bitwise, every step
    assert sim_np.timeline.equals(sim_py.timeline, tol=0.0)
    assert sim_np.timeline.equals(full_simulate(sim_np.task_graph), tol=0.0)
    return sim_py, sim_np


class TestPropagateKernelBitIdentity:
    def test_lenet_mixed_chain(self, lenet_graph, topo4, monkeypatch):
        monkeypatch.setattr(delta_sim, "_SATURATION_FRAC", NO_HANDOFF)
        monkeypatch.setenv("REPRO_SIM_KERNELS", "python")  # restored by monkeypatch
        sim_py, sim_np = _drive_ab(
            lenet_graph, topo4, _mutation_chain(lenet_graph, topo4, 11, 24)
        )
        assert sim_np.delta_stats.saturation_handoffs == 0  # suffix_drain every time
        assert sim_np.delta_stats.fallbacks == 0
        assert sim_py.delta_stats.fallbacks == 0

    def test_multinode_production_thresholds(
        self, lenet_graph, multinode, monkeypatch
    ):
        monkeypatch.setenv("REPRO_SIM_KERNELS", "python")
        sim_py, sim_np = _drive_ab(
            lenet_graph, multinode, _mutation_chain(lenet_graph, multinode, 5, 18)
        )
        assert sim_np.delta_stats.fallbacks == 0
        assert sim_py.delta_stats.saturation_handoffs == 0  # scalar path never hands off

    def test_identity_resplices_only(self, lenet_graph, topo4, monkeypatch):
        """Every proposal re-splices an op's current config: the splice
        rebuilds identical tasks and the suffix drain must reproduce the
        timeline it started from."""
        monkeypatch.setattr(delta_sim, "_SATURATION_FRAC", NO_HANDOFF)
        monkeypatch.setenv("REPRO_SIM_KERNELS", "python")
        base = full_simulate(
            TaskGraph(lenet_graph, topo4, data_parallelism(lenet_graph, topo4), OpProfiler())
        ).makespan
        muts = [(oid, None) for oid in lenet_graph.op_ids] * 2
        sim_py, sim_np = _drive_ab(lenet_graph, topo4, muts)
        assert sim_np.cost == sim_py.cost == base
        assert sim_np.delta_stats.invocations == len(muts)
        assert sim_np.delta_stats.fallbacks == 0

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_property_random_graphs(self, seed):
        graph = mlp(batch=16, in_dim=32, hidden=(48, 24), num_classes=8)
        topo = single_node(4, "p100")
        saved = delta_sim._SATURATION_FRAC
        delta_sim._SATURATION_FRAC = NO_HANDOFF
        try:
            _drive_ab(graph, topo, _mutation_chain(graph, topo, seed, 12))
        finally:
            os.environ.pop("REPRO_SIM_KERNELS", None)
            delta_sim._SATURATION_FRAC = saved

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_property_revert_heavy_traces(self, seed):
        """Revert-heavy MCMC access pattern under algorithm="delta":
        commits, snapshot reverts, apply-then-undo pairs and identity
        resplices stay bitwise equal across kernel modes at every step."""
        graph = mlp(batch=16, in_dim=32, hidden=(32,), num_classes=8)
        topo = single_node(3, "p100")
        saved = delta_sim._SATURATION_FRAC
        delta_sim._SATURATION_FRAC = NO_HANDOFF
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
            for step in range(16):
                oid = int(rng.choice(graph.op_ids))
                style = rng.random()
                cfg = (
                    sims["python"].strategy[oid]
                    if style < 0.25  # identity resplice
                    else space.random_config(oid, rng)
                )
                costs = {}
                for mode, sim in sims.items():
                    os.environ["REPRO_SIM_KERNELS"] = mode
                    if style < 0.55:  # committed proposal
                        costs[mode] = sim.propose(oid, cfg)
                        sim.commit()
                    elif style < 0.85:  # rejected proposal (revert-heavy)
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
            delta_sim._SATURATION_FRAC = saved

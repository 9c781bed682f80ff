"""Delta == full simulation: the Section 5.3 invariant, property-tested.

"The full and delta simulation algorithms always produce the same
timeline for a given task graph."
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.clusters import p100_cluster, single_node
from repro.models.lenet import lenet
from repro.models.mlp import mlp
from repro.models.rnn import rnnlm
from repro.profiler.profiler import OpProfiler
from repro.sim.delta_sim import DeltaStats, delta_simulate
from repro.sim.full_sim import full_simulate
from repro.sim.simulator import ALGORITHMS, Simulator
from repro.sim.taskgraph import TaskGraph
from repro.soap.presets import data_parallelism, expert_strategy
from repro.soap.space import ConfigSpace


def mutate_and_check(graph, topo, seed, steps, init=data_parallelism):
    """Apply `steps` random group mutations, asserting delta == full."""
    prof = OpProfiler()
    sim = Simulator(graph, topo, init(graph, topo), prof, algorithm="delta")
    space = ConfigSpace(graph, topo)
    rng = np.random.default_rng(seed)
    for i in range(steps):
        oid = int(rng.choice(graph.op_ids))
        cfg = space.random_config(oid, rng)
        cost = sim.reconfigure(oid, cfg)
        ref = full_simulate(sim.task_graph)
        assert abs(ref.makespan - cost) < 1e-6, f"makespan diverged at step {i}"
        assert ref.equals(sim.timeline), f"timeline diverged at step {i}"
    return sim


class TestDeltaEqualsFull:
    def test_lenet_chain(self, lenet_graph, topo4):
        sim = mutate_and_check(lenet_graph, topo4, seed=0, steps=40)
        assert sim.delta_stats.fallbacks == 0

    def test_mlp_multinode(self, mlp_graph, multinode):
        sim = mutate_and_check(mlp_graph, multinode, seed=1, steps=40)
        assert sim.delta_stats.fallbacks == 0

    def test_weight_shared_rnn(self, tiny_rnn_graph, topo4):
        sim = mutate_and_check(tiny_rnn_graph, topo4, seed=2, steps=30)
        assert sim.delta_stats.fallbacks == 0

    def test_from_expert_init(self, lenet_graph, topo4):
        mutate_and_check(lenet_graph, topo4, seed=3, steps=20, init=expert_strategy)

    def test_revert_restores_cost(self, lenet_graph, topo4):
        sim = Simulator(lenet_graph, topo4, data_parallelism(lenet_graph, topo4), OpProfiler())
        space = ConfigSpace(lenet_graph, topo4)
        rng = np.random.default_rng(4)
        base = sim.cost
        oid = int(lenet_graph.op_ids[3])
        old_cfg = sim.strategy[oid]
        sim.reconfigure(oid, space.random_config(oid, rng))
        restored = sim.reconfigure(oid, old_cfg)
        assert abs(restored - base) < 1e-6

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_property_random_mutation_chains(self, seed):
        graph = mlp(batch=16, in_dim=32, hidden=(64,), num_classes=8)
        topo = single_node(3, "p100")
        mutate_and_check(graph, topo, seed=seed, steps=6)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_property_long_sequences_with_interleaved_rejections(self, seed):
        """20+ proposals with interleaved rejections/undos: the delta
        timeline still exactly equals a from-scratch full simulation.

        Mixes all three mutation styles the MCMC chain uses -- committed
        proposals, reverted proposals (snapshot restore), and explicit
        apply-then-undo pairs -- and checks after every step, so any drift
        the single-step tests miss is caught as it accumulates.
        """
        graph = mlp(batch=16, in_dim=32, hidden=(32,), num_classes=8)
        topo = single_node(3, "p100")
        prof = OpProfiler()
        sim = Simulator(graph, topo, data_parallelism(graph, topo), prof, algorithm="delta")
        space = ConfigSpace(graph, topo)
        rng = np.random.default_rng(seed)
        for step in range(24):
            oid = int(rng.choice(graph.op_ids))
            cfg = space.random_config(oid, rng)
            style = rng.random()
            if style < 0.4:  # committed proposal
                cost = sim.propose(oid, cfg)
                sim.commit()
            elif style < 0.8:  # rejected proposal: snapshot revert
                sim.propose(oid, cfg)
                cost = sim.revert()
            else:  # legacy apply-then-undo pair
                old = sim.strategy[oid]
                sim.reconfigure(oid, cfg)
                cost = sim.reconfigure(oid, old)
            ref = full_simulate(sim.task_graph)
            assert abs(ref.makespan - cost) < 1e-9, f"makespan diverged at step {step}"
            assert ref.equals(sim.timeline), f"timeline diverged at step {step}"

    def test_cost_is_path_independent(self, lenet_graph, topo4):
        """Revisiting a strategy via different mutation paths gives the
        bitwise-identical cost (the invariant the strategy store needs)."""
        from repro.sim.simulator import simulate_strategy

        prof = OpProfiler()
        sim = Simulator(lenet_graph, topo4, data_parallelism(lenet_graph, topo4), prof)
        space = ConfigSpace(lenet_graph, topo4)
        rng = np.random.default_rng(11)
        seen: dict[tuple, float] = {}
        for _ in range(60):
            oid = int(rng.choice(lenet_graph.op_ids))
            cost = sim.reconfigure(oid, space.random_config(oid, rng))
            sig = sim.strategy.signature()
            if sig in seen:
                assert seen[sig] == cost  # bitwise, not approx
            seen[sig] = cost
            # A from-scratch rebuild of the same strategy agrees bitwise too.
            scratch = simulate_strategy(lenet_graph, topo4, sim.strategy, prof).makespan_us
            assert scratch == cost

    def test_stats_accounting(self, lenet_graph, topo4):
        sim = mutate_and_check(lenet_graph, topo4, seed=5, steps=10)
        st_ = sim.delta_stats
        assert st_.invocations == 10
        assert 0 < st_.resim_fraction <= 1.0

    def test_noop_change_keeps_timeline(self, lenet_graph, topo4):
        """Replacing a config with an identical one must be a fixpoint."""
        sim = Simulator(lenet_graph, topo4, data_parallelism(lenet_graph, topo4), OpProfiler())
        before = sim.cost
        oid = lenet_graph.id_of("conv1")
        cost = sim.reconfigure(oid, sim.strategy[oid])
        assert abs(cost - before) < 1e-6
        assert full_simulate(sim.task_graph).equals(sim.timeline)

    def test_structural_noop_skips_makespan_rescan(self, lenet_graph, topo4):
        """The ``t_cut == inf`` path (no removed task had a timeline entry,
        no seed survived) keeps the running makespan and every time."""
        sim = Simulator(lenet_graph, topo4, data_parallelism(lenet_graph, topo4), OpProfiler())
        before = sim.cost
        out = delta_simulate(sim.task_graph, sim.timeline, removed=[], added=[], changed=[])
        assert out.makespan == before
        assert full_simulate(sim.task_graph).equals(sim.timeline, tol=0.0)


class TestSimulatorFacade:
    def test_algorithms_agree(self, lenet_graph, topo4):
        rng = np.random.default_rng(6)
        space = ConfigSpace(lenet_graph, topo4)
        muts = []
        for _ in range(10):
            oid = int(rng.choice(lenet_graph.op_ids))
            muts.append((oid, space.random_config(oid, rng)))
        costs = {}
        for alg in ALGORITHMS:
            sim = Simulator(
                lenet_graph, topo4, data_parallelism(lenet_graph, topo4), OpProfiler(), algorithm=alg
            )
            costs[alg] = [sim.reconfigure(o, c) for o, c in muts]
        assert costs["auto"] == costs["delta"] == costs["full"]  # bitwise

    def test_unknown_algorithm_rejected(self, lenet_graph, topo4):
        assert ALGORITHMS == ("auto", "delta", "full")
        for name in ("magic", "propagate"):
            with pytest.raises(ValueError):
                Simulator(lenet_graph, topo4, data_parallelism(lenet_graph, topo4), OpProfiler(), algorithm=name)

    def test_metrics_accessor(self, lenet_graph, topo4):
        sim = Simulator(lenet_graph, topo4, data_parallelism(lenet_graph, topo4), OpProfiler())
        assert sim.metrics().makespan_us == sim.cost


class TestSnapshotPooling:
    """Revert snapshots.  ``delta`` repairs the timeline in place, so each
    proposal copies it (``Timeline.copy``) as the revert target; ``auto``
    and ``full`` never snapshot: the pre-proposal timeline object itself
    is the revert target."""

    def test_pooled_revert_restores_exact_timeline(self, lenet_graph, topo4):
        rng = np.random.default_rng(3)
        space = ConfigSpace(lenet_graph, topo4)
        sim = Simulator(
            lenet_graph, topo4, data_parallelism(lenet_graph, topo4), OpProfiler(),
            algorithm="delta",
        )
        base = sim.cost
        for _ in range(12):
            oid = int(rng.choice(lenet_graph.op_ids))
            sim.propose(oid, space.random_config(oid, rng))
            assert sim.revert() == base
        # After the churn the live timeline still matches a from-scratch
        # simulation bit-for-bit (no snapshot leaks stale state).
        assert full_simulate(sim.task_graph).equals(sim.timeline, tol=0.0)

    def test_copy_into_handles_shrinking_device_set(self):
        from repro.sim.full_sim import Timeline

        a = Timeline([0.0, 0.0], [0.0, 0.0], [2.0, 1.0], 2.0)
        b = Timeline([], [], [], 0.0)
        a.copy_into(b)
        assert b.equals(a, tol=0.0) and b.makespan == 2.0
        # Now copy a timeline with *fewer* slots into the same target:
        # stale entries must disappear, not linger.
        c = Timeline([1.0], [1.0], [4.0], 4.0)
        c.copy_into(b)
        assert b.ready == c.ready and b.start == c.start
        assert b.end == c.end and b.makespan == 4.0

    @pytest.mark.parametrize("algorithm", ["auto", "full"])
    def test_auto_and_full_never_snapshot(self, lenet_graph, topo4, monkeypatch, algorithm):
        from repro.sim.full_sim import Timeline

        def forbidden(*args):
            raise AssertionError("timeline snapshot taken")

        monkeypatch.setattr(Timeline, "copy", forbidden)
        rng = np.random.default_rng(8)
        space = ConfigSpace(lenet_graph, topo4)
        sim = Simulator(
            lenet_graph, topo4, data_parallelism(lenet_graph, topo4), OpProfiler(),
            algorithm=algorithm,
        )
        for i in range(12):
            before = sim.timeline
            oid = int(rng.choice(lenet_graph.op_ids))
            sim.propose(oid, space.random_config(oid, rng))
            if i % 3:
                sim.revert()
                assert sim.timeline is before  # the revert target is the old object
            else:
                sim.commit()
        assert full_simulate(sim.task_graph).equals(sim.timeline, tol=0.0)

"""Change propagation: every repair path equals a fresh full sweep at ``tol=0``.

After a task-graph splice the timeline must be brought up to date by
propagating the change to every later task.  The Section 5.3 invariant is
that however a repair path does this, it lands on the timeline a
from-scratch Algorithm 1 sweep would produce.  Two paths do less than a
full sweep per proposal: ``delta`` re-simulates only the suffix after the
cut time (Algorithm 2), and ``auto`` skips the splice and the repair
outright when a proposal's config is the current one.  For random graphs
x random splice/undo sequences, including revert-heavy MCMC traces and
identity re-splices, both must repair the timeline to *bitwise* equality
with a fresh full simulation.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.builder import GraphBuilder
from repro.machine.clusters import single_node
from repro.models.mlp import mlp
from repro.profiler.profiler import OpProfiler
from repro.sim import ALGORITHMS as EXPORTED_ALGORITHMS
from repro.sim.full_sim import full_simulate
from repro.sim.simulator import ALGORITHMS, Simulator
from repro.soap.presets import data_parallelism, expert_strategy
from repro.soap.space import ConfigSpace

#: The algorithms that do less than a full sweep on some proposals.
REPAIRS = ("auto", "delta")


def make_branchy():
    """Two parallel dense towers joined by a concat: skippable branches."""
    b = GraphBuilder("branchy", batch=16)
    x = b.image_input(channels=8, hw=(8, 8))
    flat = b.flatten(x)
    left = flat
    for i in range(3):
        left = b.dense(left, 48, name=f"left{i}")
    right = flat
    for i in range(3):
        right = b.dense(right, 48, name=f"right{i}")
    merged = b.concat([left, right], axis="channel", name="merge")
    logits = b.dense(merged, 8, name="head")
    b.softmax(logits)
    return b.graph


def drive(graph, topo, algorithm, seed, steps, check_every=1, init=data_parallelism):
    """Mixed mutation styles (commit / revert / apply-undo), exactness checks."""
    sim = Simulator(graph, topo, init(graph, topo), OpProfiler(), algorithm=algorithm)
    space = ConfigSpace(graph, topo)
    rng = np.random.default_rng(seed)
    costs = []
    for i in range(steps):
        oid = int(rng.choice(graph.op_ids))
        cfg = space.random_config(oid, rng)
        style = rng.random()
        if style < 0.35:
            costs.append(sim.propose(oid, cfg))
            sim.commit()
        elif style < 0.7:
            sim.propose(oid, cfg)
            costs.append(sim.revert())
        elif style < 0.85:
            old = sim.strategy[oid]
            sim.reconfigure(oid, cfg)
            costs.append(sim.reconfigure(oid, old))
        else:
            # Identity re-splice: auto's short circuit, delta's pure
            # UpdateTaskGraph + repair path.
            costs.append(sim.reconfigure(oid, sim.strategy[oid]))
        if i % check_every == 0:
            ref = full_simulate(sim.task_graph)
            assert ref.equals(sim.timeline, tol=0.0), f"[{algorithm}] diverged at step {i}"
            assert ref.makespan == sim.timeline.makespan == costs[-1]
    return sim, costs


class TestPropagateEqualsFull:
    def test_lenet_mixed_trace(self, lenet_graph, topo4):
        for alg in REPAIRS:
            sim, _ = drive(lenet_graph, topo4, alg, seed=0, steps=50)
            assert sim.delta_stats.fallbacks == 0

    def test_multinode(self, mlp_graph, multinode):
        for alg in REPAIRS:
            sim, _ = drive(mlp_graph, multinode, alg, seed=1, steps=50)
            assert sim.delta_stats.fallbacks == 0

    def test_weight_shared_rnn(self, tiny_rnn_graph, topo4):
        for alg in REPAIRS:
            sim, _ = drive(tiny_rnn_graph, topo4, alg, seed=2, steps=30)
            assert sim.delta_stats.fallbacks == 0

    def test_from_expert_init(self, lenet_graph, topo4):
        for alg in REPAIRS:
            drive(lenet_graph, topo4, alg, seed=3, steps=25, init=expert_strategy)

    def test_all_three_algorithms_agree_bitwise(self, lenet_graph, topo4):
        outcomes = {
            alg: drive(lenet_graph, topo4, alg, seed=7, steps=40)[1] for alg in ALGORITHMS
        }
        assert len(outcomes) == 3
        assert outcomes["auto"] == outcomes["delta"] == outcomes["full"]

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_property_random_graphs_and_traces(self, seed):
        rng = np.random.default_rng(seed)
        hidden = tuple(int(h) for h in rng.choice([16, 32, 48], size=rng.integers(1, 3)))
        graph = mlp(batch=16, in_dim=int(rng.choice([16, 32])), hidden=hidden, num_classes=8)
        topo = single_node(int(rng.choice([2, 3])), "p100")
        for alg in REPAIRS:
            drive(graph, topo, alg, seed=seed, steps=8)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_property_revert_heavy_mcmc_trace(self, seed):
        """A low-acceptance chain: long runs of propose/revert pairs."""
        graph = mlp(batch=16, in_dim=32, hidden=(32,), num_classes=8)
        topo = single_node(3, "p100")
        space = ConfigSpace(graph, topo)
        for alg in REPAIRS:
            sim = Simulator(graph, topo, data_parallelism(graph, topo), OpProfiler(),
                            algorithm=alg)
            rng = np.random.default_rng(seed)
            for i in range(30):
                oid = int(rng.choice(graph.op_ids))
                sim.propose(oid, space.random_config(oid, rng))
                if rng.random() < 0.15:
                    sim.commit()
                else:
                    sim.revert()
                ref = full_simulate(sim.task_graph)
                assert ref.equals(sim.timeline, tol=0.0), f"[{alg}] diverged at step {i}"

    def test_cost_is_path_independent(self, lenet_graph, topo4):
        """Same strategy reached via different splice paths: bitwise-equal
        cost under every repair path (the store-soundness invariant)."""
        from repro.sim.simulator import simulate_strategy

        prof = OpProfiler()
        space = ConfigSpace(lenet_graph, topo4)
        for alg in REPAIRS:
            sim = Simulator(lenet_graph, topo4, data_parallelism(lenet_graph, topo4), prof,
                            algorithm=alg)
            rng = np.random.default_rng(11)
            seen: dict[tuple, float] = {}
            for _ in range(40):
                oid = int(rng.choice(lenet_graph.op_ids))
                cost = sim.reconfigure(oid, space.random_config(oid, rng))
                sig = sim.strategy.signature()
                if sig in seen:
                    assert seen[sig] == cost
                seen[sig] = cost
                assert simulate_strategy(lenet_graph, topo4, sim.strategy, prof).makespan_us == cost


class TestBranchSkipping:
    def test_identity_resplice_is_splice_local(self, topo4):
        """An identity reconfigure changes nothing, so ``auto`` skips the
        splice and the repair -- no task is re-simulated -- while
        ``delta``, which always splices, re-simulates its suffix and lands
        on the same timeline."""
        graph = make_branchy()
        prof = OpProfiler()
        oid = graph.id_of("left0")
        sims = {}
        for alg in REPAIRS:
            sim = Simulator(graph, topo4, data_parallelism(graph, topo4), prof, algorithm=alg)
            for _ in range(5):
                sim.reconfigure(oid, sim.strategy[oid])
            assert full_simulate(sim.task_graph).equals(sim.timeline, tol=0.0)
            sims[alg] = sim
        auto, delta = sims["auto"].delta_stats, sims["delta"].delta_stats
        assert auto.route_counts == {"noop": 5}
        assert auto.invocations == 0
        assert auto.tasks_resimulated == 0 < delta.tasks_resimulated
        assert delta.invocations == 5 and delta.fallbacks == 0
        assert sims["auto"].cost == sims["delta"].cost


class TestFacade:
    def test_algorithms_tuple_exported(self):
        assert ALGORITHMS == ("auto", "delta", "full")
        assert EXPORTED_ALGORITHMS is ALGORITHMS

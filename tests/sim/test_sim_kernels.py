"""The sweeps == a literal Algorithm 1, bit for bit; ``auto``'s short circuit.

``full_simulate`` and ``delta``'s suffix sweep share one heap loop, which
orders ready-time ties by ckey rank.  Their contract is *bitwise* identity
with :func:`sim_helpers.algorithm1`, which orders them by the ckey tuples
themselves -- same dict contents, same makespan float -- on fixed and
random graphs and on revert-heavy MCMC traces.

The loop has two forms, the compiled ``_sweep.c`` and the Python
``full_sim._python_sweep``, and both are held to that contract: each
bit-identity class runs on the compiled loop, and its ``PythonLoop``
subclass on the Python one.  :class:`TestLoopsAgree` runs the two side by
side on random DAGs.  The compiled cases skip only when no compiler
works (``full_sim.SWEEP == "python"``), which CI refuses.
"""

import copy
import heapq
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.mlp import mlp
from repro.machine.clusters import single_node
from repro.profiler.profiler import OpProfiler
from repro.sim import delta_sim, full_sim
from repro.sim.full_sim import full_simulate
from repro.sim.simulator import Simulator
from repro.sim.taskgraph import TaskGraph
from repro.soap.presets import data_parallelism
from repro.soap.space import ConfigSpace

from sim_helpers import algorithm1


def compiled_loop():
    """The compiled loop; skips the test when it could not be built."""
    if full_sim._compiled_sweep is None:
        pytest.skip(f"no compiled loop: {full_sim.SWEEP_NOTE}")
    return full_sim._compiled_sweep


LOOPS = {"compiled": compiled_loop, "python": lambda: full_sim._python_sweep}


@pytest.fixture
def sweep(request, monkeypatch):
    """Bind ``_sweep``, in both modules that call it, to the loop the test
    class names in ``loop``."""
    fn = LOOPS[request.cls.loop]()
    monkeypatch.setattr(full_sim, "_sweep", fn)
    monkeypatch.setattr(delta_sim, "_sweep", fn)
    return fn


def assert_is_algorithm1(tl, tg):
    ref = algorithm1(tg)
    assert tl.makespan == ref.makespan  # bitwise, not approx
    assert tl.equals(ref, tol=0.0)


def drift_strategy(graph, topo, seed, steps):
    """A strategy `steps` random mutations away from data-parallel."""
    space = ConfigSpace(graph, topo)
    rng = np.random.default_rng(seed)
    strat = data_parallelism(graph, topo)
    for _ in range(steps):
        oid = int(rng.choice(graph.op_ids))
        strat = strat.with_config(oid, space.random_config(oid, rng))
    return strat


@pytest.mark.usefixtures("sweep")
class TestFullKernelBitIdentity:
    loop = "compiled"

    def _check(self, graph, topo, strat):
        tg = TaskGraph(graph, topo, strat, OpProfiler())
        assert_is_algorithm1(full_simulate(tg), tg)

    def test_lenet_data_parallel(self, lenet_graph, topo4):
        self._check(lenet_graph, topo4, data_parallelism(lenet_graph, topo4))

    def test_weight_shared_rnn(self, tiny_rnn_graph, topo4):
        self._check(tiny_rnn_graph, topo4, data_parallelism(tiny_rnn_graph, topo4))

    def test_production_thresholds_too(self, lenet_graph, multinode):
        # Multi-node: cross-node transfers of every GPU pair queue on the
        # one shared IB connection of their node pair.
        self._check(lenet_graph, multinode, data_parallelism(lenet_graph, multinode))

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_property_random_graphs(self, seed):
        self._random_graph(seed)

    def _random_graph(self, seed):
        graph = mlp(batch=16, in_dim=32, hidden=(64, 32), num_classes=8)
        topo = single_node(4, "p100")
        self._check(graph, topo, drift_strategy(graph, topo, seed, steps=5))


class TestFullKernelBitIdentityPythonLoop(TestFullKernelBitIdentity):
    loop = "python"

    # One hypothesis test may run on one class's instances only
    # (HealthCheck.differing_executors), so a subclass declares its own.
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_property_random_graphs(self, seed):
        self._random_graph(seed)


@pytest.mark.usefixtures("sweep")
class TestSuffixDrainBitIdentity:
    """Mutation chains whose every repaired timeline is Algorithm 1's."""

    loop = "compiled"

    def _chain(self, graph, topo, seed, steps, algorithm="delta"):
        space = ConfigSpace(graph, topo)
        rng = np.random.default_rng(seed)
        sim = Simulator(
            graph, topo, data_parallelism(graph, topo), OpProfiler(), algorithm=algorithm
        )
        for _ in range(steps):
            oid = int(rng.choice(graph.op_ids))
            assert sim.reconfigure(oid, space.random_config(oid, rng)) == sim.cost
            assert_is_algorithm1(sim.timeline, sim.task_graph)
        return sim

    def test_lenet_mutation_chain(self, lenet_graph, topo4):
        sim = self._chain(lenet_graph, topo4, 7, 30)
        assert sim.delta_stats.fallbacks == 0

    def test_multinode_chain_production_thresholds(self, lenet_graph, multinode):
        self._chain(lenet_graph, multinode, 8, 20)

    def test_auto_chain(self, lenet_graph, topo4):
        self._chain(lenet_graph, topo4, 9, 20, algorithm="auto")

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_property_revert_heavy_mcmc_traces(self, seed):
        """A revert-heavy proposal trace (the MCMC access pattern) under
        ``delta`` lands on Algorithm 1's timeline at every step: commits,
        snapshot reverts, and apply-then-undo pairs."""
        self._revert_heavy_trace(seed)

    def _revert_heavy_trace(self, seed):
        graph = mlp(batch=16, in_dim=32, hidden=(32,), num_classes=8)
        topo = single_node(3, "p100")
        sim = Simulator(
            graph, topo, data_parallelism(graph, topo), OpProfiler(), algorithm="delta"
        )
        space = ConfigSpace(graph, topo)
        rng = np.random.default_rng(seed)
        for step in range(20):
            oid = int(rng.choice(graph.op_ids))
            cfg = space.random_config(oid, rng)
            style = rng.random()
            if style < 0.3:  # committed proposal
                sim.propose(oid, cfg)
                sim.commit()
            elif style < 0.8:  # rejected proposal (revert-heavy)
                sim.propose(oid, cfg)
                sim.revert()
            else:  # apply-then-undo pair
                old = sim.strategy[oid]
                sim.reconfigure(oid, cfg)
                sim.reconfigure(oid, old)
            assert sim.cost == sim.timeline.makespan, f"step {step}"
            assert_is_algorithm1(sim.timeline, sim.task_graph)


class TestSuffixDrainBitIdentityPythonLoop(TestSuffixDrainBitIdentity):
    loop = "python"

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_property_revert_heavy_mcmc_traces(self, seed):
        self._revert_heavy_trace(seed)


# Times from a small set, so that ready times tie often; 0.1, 0.2 and 0.3
# are not dyadic, so sums round (0.1 + 0.2 != 0.3).
_TIMES = st.sampled_from([0.0, 0.1, 0.2, 0.25, 0.3, 0.5, 1.0, 1.5, 3.0])


@st.composite
def sweep_inputs(draw):
    """A random DAG (edges run from lower to higher slots, some twice) on
    1-4 devices, unique ranks up to 62 bits, preset ready and device end
    times (as ``delta``'s suffix has), and either no bound or random loads
    and a random bound: ``_sweep``'s arguments after the heap."""
    n = draw(st.integers(1, 24))
    ndev = draw(st.integers(1, 4))
    shift = draw(st.sampled_from([0, 30, 57]))
    rank = [r << shift for r in draw(st.permutations(range(n)))]
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n))
    outs = [[] for _ in range(n)]
    indeg = [0] * n
    for a, b in pairs:
        if a != b:
            outs[min(a, b)].append(max(a, b))
            indeg[max(a, b)] += 1
    exe = [draw(_TIMES) for _ in range(n)]
    dev = [draw(st.integers(0, ndev - 1)) for _ in range(n)]
    ready = [draw(_TIMES) for _ in range(n)]
    dev_end = [draw(_TIMES) for _ in range(ndev)]
    lb, bound = None, math.inf
    if draw(st.booleans()):
        lb = [draw(_TIMES) * 4 for _ in range(ndev)]
        bound = draw(st.sampled_from([0.0, 1.0, 2.5, 4.0, 6.0, 12.0]))
    return [exe, dev, rank, outs, indeg, ready, [0.0] * n, [-1.0] * n, dev_end, lb, bound]


def run_loop(fn, inputs):
    """``fn`` on a copy of ``inputs``, its heap seeded with every slot that
    has no predecessor; returns its value, then the heap and every list."""
    exe, dev, rank, outs, indeg, ready, start, end, dev_end, lb, bound = copy.deepcopy(inputs)
    heap = [(ready[s], rank[s], s) for s in range(len(exe)) if not indeg[s]]
    heapq.heapify(heap)
    done = fn(heap, exe, dev, rank, outs, indeg, ready, start, end, dev_end, lb, bound)
    return done, heap, ready, start, end, indeg, dev_end, lb


class TestLoopsAgree:
    @given(inputs=sweep_inputs())
    @settings(max_examples=300, deadline=None)
    def test_compiled_and_python_loops_leave_the_same_state(self, inputs):
        compiled = run_loop(compiled_loop(), inputs)
        python = run_loop(full_sim._python_sweep, inputs)
        assert compiled[0] is python[0]
        if python[0]:
            # A completed sweep: every list, and the emptied heap, agree.
            assert compiled == python
            assert compiled[1] == []


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
    def test_dense_mutations_hand_off_to_the_full_sweep(
        self, lenet_graph, topo4, rng, monkeypatch
    ):
        """A suffix covering most of the graph re-routes to the full
        sweep -- counted, not a fallback -- and the result stays bitwise
        equal to the pure cut-time repair and to Algorithm 1."""
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

        monkeypatch.setattr(delta_sim, "_SATURATION_FRAC", float("inf"))
        ref = Simulator(
            lenet_graph, topo4, data_parallelism(lenet_graph, topo4), OpProfiler(),
            algorithm="delta",
        )
        ref_costs = [ref.reconfigure(oid, cfg) for oid, cfg in muts]
        assert ref.delta_stats.saturation_handoffs == 0  # the suffix sweep every time
        assert costs == ref_costs
        assert sim.timeline.equals(ref.timeline, tol=0.0)
        assert_is_algorithm1(sim.timeline, sim.task_graph)

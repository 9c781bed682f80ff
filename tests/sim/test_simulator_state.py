"""Model-based test of the simulator's speculative reconfiguration.

For every timeline algorithm a hypothesis state machine interleaves
``propose`` (random and identity configs), ``commit``, ``revert`` and
``reconfigure`` on small random MLP and weight-shared LSTM graphs.  After
every step the live timeline must equal a literal Algorithm 1
(``sim_helpers.algorithm1``) bit for bit, the cost must be its makespan,
and the task graph's flat arrays must mirror its task dict.  The live
task graph, built and spliced with the machine's warm profiler, must also
equal a build of the same strategy with a cold profiler, task by task and
in its timeline, which catches a construction-memo key that misses an
input of its value.  A revert must restore the exact pre-proposal
strategy and cost.  On graphs this small nearly every delta suffix covers
half the graph and is handed to the full sweep, so one more machine runs
``delta`` with that handoff disabled to exercise the suffix loop itself.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from repro.ir.builder import GraphBuilder
from repro.machine.clusters import single_node
from repro.models.mlp import mlp
from repro.models.rnn import stacked_lstm
from repro.profiler.profiler import OpProfiler
from repro.sim import delta_sim
from repro.sim.simulator import ALGORITHMS, Simulator
from repro.sim.taskgraph import TaskGraph
from repro.soap.presets import data_parallelism
from repro.soap.space import ConfigSpace

from sim_helpers import algorithm1, tasks_by_ckey, timeline_by_ckey


def small_graph(kind: str, width: int):
    if kind == "mlp":
        return mlp(batch=16, in_dim=16, hidden=(width,) * (1 + width % 2), num_classes=8)
    b = GraphBuilder("lstm", batch=8)
    outputs = stacked_lstm(b, steps=2, layers=1 + width % 2, hidden=width, vocab=32, embed_dim=16)
    b.softmax(b.dense(outputs[-1][-1], 4, name="classifier"), name="softmax")
    return b.graph


_HANDOFF_FRAC = delta_sim._SATURATION_FRAC


class SimulatorMachine(RuleBasedStateMachine):
    algorithm = "auto"
    handoff = True  # delta: hand saturated suffixes to the full sweep

    @initialize(
        kind=st.sampled_from(["mlp", "lstm"]),
        width=st.sampled_from([16, 24, 32]),
        devices=st.integers(2, 3),
    )
    def build(self, kind, width, devices):
        self.graph = small_graph(kind, width)
        self.topo = topo = single_node(devices, "p100")
        self.space = ConfigSpace(self.graph, topo)
        self.sim = Simulator(
            self.graph, topo, data_parallelism(self.graph, topo), OpProfiler(),
            algorithm=self.algorithm,
        )
        self.before = None  # (strategy signature, cost) of a pending proposal
        if not self.handoff:
            delta_sim._SATURATION_FRAC = float("inf")

    def teardown(self):
        delta_sim._SATURATION_FRAC = _HANDOFF_FRAC

    def _draw(self, pick: int, identity: bool):
        op_ids = self.graph.op_ids
        oid = int(op_ids[pick % len(op_ids)])
        if identity:
            return oid, self.sim.strategy[oid]
        return oid, self.space.random_config(oid, np.random.default_rng(pick))

    @precondition(lambda self: self.before is None)
    @rule(pick=st.integers(0, 2**20), identity=st.booleans())
    def propose(self, pick, identity):
        oid, cfg = self._draw(pick, identity)
        self.before = (self.sim.strategy.signature(), self.sim.cost)
        assert self.sim.propose(oid, cfg) == self.sim.cost
        assert self.sim.strategy[oid] == cfg

    @precondition(lambda self: self.before is not None)
    @rule()
    def commit(self):
        self.sim.commit()
        self.before = None

    @precondition(lambda self: self.before is not None)
    @rule()
    def revert(self):
        signature, cost = self.before
        assert self.sim.revert() == cost
        assert self.sim.strategy.signature() == signature
        self.before = None

    @precondition(lambda self: self.before is None)
    @rule(pick=st.integers(0, 2**20), identity=st.booleans())
    def reconfigure(self, pick, identity):
        oid, cfg = self._draw(pick, identity)
        assert self.sim.reconfigure(oid, cfg) == self.sim.cost

    @invariant()
    def timeline_is_a_full_sweep(self):
        tg = self.sim.task_graph
        ref = algorithm1(tg)
        assert ref.equals(self.sim.timeline, tol=0.0)
        assert self.sim.cost == self.sim.timeline.makespan == ref.makespan
        tg.arrays.check_consistent(tg.tasks)

    @invariant()
    def graph_is_a_cold_build(self):
        tg = self.sim.task_graph
        cold = TaskGraph(self.graph, self.topo, self.sim.strategy, OpProfiler())
        assert tasks_by_ckey(tg) == tasks_by_ckey(cold)
        assert timeline_by_ckey(tg, self.sim.timeline) == timeline_by_ckey(cold)  # tol=0


_SETTINGS = settings(max_examples=50, stateful_step_count=25, deadline=None)

_MACHINES = {alg.title(): {"algorithm": alg} for alg in ALGORITHMS}
_MACHINES["DeltaSuffix"] = {"algorithm": "delta", "handoff": False}
for _name, _attrs in _MACHINES.items():
    _machine = type(f"{_name}Machine", (SimulatorMachine,), _attrs)
    _machine.TestCase.settings = _SETTINGS
    globals()[f"TestSimulator{_name}"] = _machine.TestCase
del _name, _attrs, _machine

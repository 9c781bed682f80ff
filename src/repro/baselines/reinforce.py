"""REINFORCE baseline [Mirhoseini et al. 2017] (paper Section 8.2.3, Fig 10a).

REINFORCE learns *device placements* for model parallelism: every
operation runs whole on one device, and a policy over op->device
assignments is trained with the policy-gradient estimator, using measured
per-iteration time as the (negative) reward.  The paper's comparison is
about the *search space*: REINFORCE explores only the operation
dimension, so FlexFlow's SOAP strategies beat the best placement it can
express by 3.4-3.8x.

Differences from the original, documented per DESIGN.md:

* the original trains a seq2seq placement policy on real-hardware
  rollouts across 160 machines for 12-27 hours; we use an independent
  per-group categorical policy trained against the execution simulator --
  the learned object (a placement) and the search-space restriction are
  identical, which is what the headline comparison depends on;
* weight-sharing groups (unrolled steps of one layer) share a placement,
  matching how [33] co-locates ops (their "grouping" preprocessing).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ir.graph import OperatorGraph
from repro.machine.topology import DeviceTopology
from repro.profiler.profiler import OpProfiler
from repro.sim.simulator import simulate_strategy
from repro.soap.config import ParallelConfig
from repro.soap.strategy import Strategy

__all__ = ["ReinforceResult"]


@dataclass
class ReinforceResult:
    strategy: Strategy
    best_cost_us: float
    history: list[float] = field(default_factory=list)  # best-so-far per episode
    episodes: int = 0

    @property
    def final_entropy(self) -> float:
        return self.history[-1] if self.history else float("nan")


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _reinforce_impl(
    graph: OperatorGraph,
    topology: DeviceTopology,
    profiler: OpProfiler | None = None,
    episodes: int = 300,
    lr: float = 1.0,
    entropy_bonus: float = 0.01,
    seed: int = 0,
    training: bool = True,
) -> ReinforceResult:
    """Policy-gradient search over per-group device placements.

    The engine behind the ``reinforce`` planner backend; call it through
    :meth:`repro.plan.Planner.search`.
    """
    profiler = profiler or OpProfiler()
    rng = np.random.default_rng(seed)
    d = topology.num_devices
    groups = sorted(graph.param_groups().values(), key=lambda members: members[0])
    n_groups = len(groups)

    logits = np.zeros((n_groups, d))
    baseline: float | None = None
    best_cost = float("inf")
    best_placement: np.ndarray | None = None
    history: list[float] = []

    for _ in range(episodes):
        probs = _softmax(logits)
        placement = np.array([rng.choice(d, p=probs[i]) for i in range(n_groups)])
        configs = {
            m: ParallelConfig.single(int(placement[i]))
            for i, members in enumerate(groups)
            for m in members
        }
        strategy = Strategy(configs)
        cost = simulate_strategy(graph, topology, strategy, profiler, training=training).makespan_us

        if cost < best_cost:
            best_cost = cost
            best_placement = placement.copy()
        history.append(best_cost)

        # Moving-average baseline keeps the gradient centred.
        baseline = cost if baseline is None else 0.9 * baseline + 0.1 * cost
        advantage = (baseline - cost) / max(baseline, 1e-9)

        grad = -probs
        grad[np.arange(n_groups), placement] += 1.0
        # Entropy regularization keeps exploration alive early on.
        ent_grad = -probs * (np.log(np.clip(probs, 1e-12, None)) + 1.0)
        logits += lr * (advantage * grad + entropy_bonus * ent_grad)

    assert best_placement is not None
    configs = {
        m: ParallelConfig.single(int(best_placement[i]))
        for i, members in enumerate(groups)
        for m in members
    }
    return ReinforceResult(
        strategy=Strategy(configs),
        best_cost_us=best_cost,
        history=history,
        episodes=episodes,
    )


"""Exhaustive optimal search for small spaces (Section 8.4 of the paper).

The paper validates MCMC by comparing against globally optimal strategies
found with depth-first search plus A*-style pruning on small executions
(LeNet and a 2-step RNNLM on 4 GPUs).  This module implements that
reference search: ops are assigned configurations in topological order,
and a partial assignment is pruned when the makespan of the already-
assigned subgraph (an admissible lower bound -- adding tasks never reduces
the makespan) meets the best complete strategy found so far.

Complete assignments are evaluated directly on the full graph, so their
costs are the same pure function of the strategy the MCMC search
optimizes -- which lets an optional persistent
:class:`~repro.search.store.StrategyStore` answer complete-strategy
evaluations across runs *and across backends* (a store warmed by an MCMC
search serves the exhaustive enumeration of the same problem, and vice
versa).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.graph import OperatorGraph
from repro.machine.topology import DeviceTopology
from repro.profiler.profiler import OpProfiler
from repro.search.cache import strategy_fingerprint
from repro.sim.full_sim import full_simulate
from repro.sim.taskgraph import TaskGraph
from repro.soap.config import ParallelConfig
from repro.soap.strategy import Strategy

__all__ = ["ExhaustiveResult"]


@dataclass
class ExhaustiveResult:
    best_strategy: Strategy
    best_cost_us: float
    explored: int
    pruned: int
    simulations: int = 0  # actual simulator invocations (bounds + misses)


def _subgraph_cost(
    graph: OperatorGraph,
    topology: DeviceTopology,
    profiler: OpProfiler,
    partial: dict[int, ParallelConfig],
    training: bool,
) -> float:
    """Makespan of the subgraph induced by the assigned ops (lower bound)."""
    sub = OperatorGraph(f"{graph.name}/partial")
    remap: dict[int, int] = {}
    for oid in graph.topo_order():
        if oid not in partial:
            continue
        # Only ops whose *entire ancestry* made it into the subgraph can
        # be included (a producer may be assigned but skipped because its
        # own producers are not assigned yet); dropping tasks only lowers
        # the makespan, so the bound stays admissible.
        if not all(p in remap for p in graph.inputs_of(oid)):
            continue
        remap[oid] = sub.add_op(graph.op(oid), [remap[p] for p in graph.inputs_of(oid)])
    strategy = Strategy({remap[o]: partial[o] for o in remap})
    tg = TaskGraph(sub, topology, strategy, profiler, training=training)
    return full_simulate(tg).makespan


def _exhaustive_impl(
    graph: OperatorGraph,
    topology: DeviceTopology,
    profiler: OpProfiler | None = None,
    training: bool = True,
    max_configs_per_op: int | None = None,
    prune_every: int = 1,
    store=None,
) -> ExhaustiveResult:
    """Branch-and-bound enumeration of the full strategy space.

    Only feasible for tiny graphs and device counts; guard with
    :meth:`ConfigSpace.strategy_space_size` before calling.
    ``max_configs_per_op`` truncates each op's candidate list (useful for
    bounding test runtimes while remaining exhaustive over the truncated
    space); ``prune_every`` evaluates the lower bound only at every k-th
    depth to trade pruning power against subgraph-simulation overhead.
    ``store`` is an optional persistent strategy store consulted for
    complete assignments (the caller flushes it).
    """
    from repro.soap.space import ConfigSpace

    profiler = profiler or OpProfiler()
    space = ConfigSpace(graph, topology)
    # Enumerate per weight-sharing group (members are config-tied),
    # ordered by the first member's topological position.
    groups = sorted(graph.param_groups().values(), key=lambda members: members[0])
    per_group_configs: list[list[ParallelConfig]] = []
    for members in groups:
        cfgs = list(space.all_configs(members[0]))
        if max_configs_per_op is not None:
            cfgs = cfgs[:max_configs_per_op]
        per_group_configs.append(cfgs)

    best_cost = float("inf")
    best: dict[int, ParallelConfig] | None = None
    explored = 0
    pruned = 0
    simulations = 0
    partial: dict[int, ParallelConfig] = {}

    def complete_cost() -> float:
        """Cost of the (complete) current assignment on the full graph.

        Evaluated directly -- not through the subgraph remap -- so the
        value matches :func:`~repro.sim.simulator.simulate_strategy`
        exactly and is interchangeable with MCMC store entries.
        """
        nonlocal simulations
        strategy = Strategy(dict(partial))
        fp = strategy_fingerprint(strategy) if store is not None else None
        if store is not None:
            cached = store.get(fp)
            if cached is not None:
                return cached
        tg = TaskGraph(graph, topology, strategy, profiler, training=training)
        cost = full_simulate(tg).makespan
        simulations += 1
        if store is not None:
            store.record(fp, cost)
        return cost

    def assign(members: tuple[int, ...], cfg: ParallelConfig | None) -> None:
        for m in members:
            if cfg is None:
                del partial[m]
            else:
                partial[m] = cfg

    def rec(depth: int) -> None:
        nonlocal best_cost, best, explored, pruned, simulations
        if depth == len(groups):
            cost = complete_cost()
            explored += 1
            if cost < best_cost:
                best_cost = cost
                best = dict(partial)
            return
        members = groups[depth]
        for cfg in per_group_configs[depth]:
            assign(members, cfg)
            if depth % prune_every == 0 and depth > 0:
                lb = _subgraph_cost(graph, topology, profiler, partial, training)
                simulations += 1
                if lb >= best_cost:
                    pruned += 1
                    assign(members, None)
                    continue
            rec(depth + 1)
            assign(members, None)

    rec(0)
    if best is None:
        from repro.plan.errors import SearchError

        raise SearchError("exhaustive search over an empty strategy space")
    return ExhaustiveResult(
        best_strategy=Strategy(best),
        best_cost_us=best_cost,
        explored=explored,
        pruned=pruned,
        simulations=simulations,
    )


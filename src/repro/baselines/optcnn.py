"""OptCNN baseline [Jia et al. 2018] (paper Section 8.2.3, Figure 10b).

OptCNN finds per-operation parallelization configurations but "assumes
that different operations in an operator graph cannot be performed in
parallel and estimates a DNN's execution time as the sum of the
operations' computation time and synchronization time and the tensors'
data transfer time".  That additive objective admits exact dynamic
programming on linear operator graphs; FlexFlow's advantage on non-linear
graphs (Inception, the RNNs) comes precisely from modelling inter-op
concurrency that this objective cannot see.

Implementation notes:

* Candidate configurations per op are the legal degree vectors with a
  canonical evenly-spread device assignment (OptCNN does not search
  placements -- it spreads each op across the whole machine).
* Weight-sharing groups are config-tied, like everywhere else in this
  repository.
* For linear graphs (AlexNet-style chains) we run exact chain DP; for
  general DAGs we run iterated coordinate descent on the same additive
  objective until a sweep makes no change -- exact for chains, and a
  faithful stand-in for OptCNN's graph reductions elsewhere.
* The returned strategy is then *evaluated* with the FlexFlow simulator
  so all systems are compared on one substrate, as the paper does by
  running every strategy on its runtime.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.graph import OperatorGraph
from repro.machine.topology import DeviceTopology
from repro.profiler.profiler import OpProfiler
from repro.soap.config import ParallelConfig
from repro.soap.partition import overlapping_tasks
from repro.soap.space import ConfigSpace
from repro.soap.strategy import Strategy

__all__ = ["OptCNNResult"]


@dataclass
class OptCNNResult:
    strategy: Strategy
    predicted_cost_us: float  # under OptCNN's additive objective
    sweeps: int
    candidates_per_group: dict[str, int]


def _spread_devices(num_tasks: int, num_devices: int) -> tuple[int, ...]:
    """Canonical assignment: tasks evenly spread over the machine."""
    return tuple((k * num_devices) // num_tasks for k in range(num_tasks))


def _op_time(graph, profiler, topology, oid: int, cfg: ParallelConfig) -> float:
    """Sequential-execution cost of one op: slowest task + its backward."""
    op = graph.op(oid)
    worst = 0.0
    for k in range(cfg.num_tasks):
        region = cfg.task_region(op, k)
        dev = topology.device(cfg.devices[k])
        t = profiler.task_time(op, region, dev) + profiler.task_time(op, region, dev, backward=True)
        worst = max(worst, t)
    return worst


def _sync_time(graph, profiler, topology, members: tuple[int, ...], cfg: ParallelConfig) -> float:
    """Ring all-reduce time for the group's replicated parameter shards."""
    op0 = graph.op(members[0])
    if not op0.params:
        return 0.0
    pdims = {n for n, kind in op0.parallel_dims().items() if kind.name == "PARAMETER"}
    deg_names = [n for n, _ in cfg.degrees]
    replica_sets: dict[tuple[int, ...], list[int]] = {}
    for k in range(cfg.num_tasks):
        coords = cfg.task_coords(k)
        key = tuple(c for n, c in zip(deg_names, coords) if n in pdims)
        replica_sets.setdefault(key, []).append(k)
    worst = 0.0
    dtype = op0.out_shape.dtype_bytes
    for idxs in replica_sets.values():
        devs = sorted({cfg.devices[k] for k in idxs})
        if len(devs) < 2:
            continue
        shard = op0.param_shard_volume(cfg.task_region(op0, idxs[0]))
        hop_bytes = 2.0 * (len(devs) - 1) / len(devs) * shard * dtype
        slowest_hop = max(
            topology.connection(d, devs[(i + 1) % len(devs)]).transfer_us(hop_bytes)
            for i, d in enumerate(devs)
        )
        worst = max(worst, slowest_hop)
    return worst


def _edge_time(
    graph, topology, src: int, dst: int, slot: int, c_src: ParallelConfig, c_dst: ParallelConfig
) -> float:
    """Transfer time of one tensor edge under OptCNN's model.

    Transfers on different connections proceed in parallel; transfers on
    the same connection serialize, so the edge costs the busiest link.
    """
    src_op, dst_op = graph.op(src), graph.op(dst)
    dtype = src_op.out_shape.dtype_bytes
    per_conn: dict[int, tuple[float, int]] = {}
    conns: dict[int, object] = {}
    for kj in range(c_dst.num_tasks):
        need = dst_op.input_region(c_dst.task_region(dst_op, kj), slot)
        if need is None:
            continue
        dev_j = c_dst.devices[kj]
        for ki, vol in overlapping_tasks(src_op, c_src, need):
            dev_i = c_src.devices[ki]
            if dev_i == dev_j:
                continue
            conn = topology.connection(dev_i, dev_j)
            conns[conn.cid] = conn
            # Forward activations plus backward gradients (same volume).
            nbytes, count = per_conn.get(conn.cid, (0.0, 0))
            per_conn[conn.cid] = (nbytes + 2.0 * vol * dtype, count + 2)
    worst = 0.0
    for cid, (nbytes, count) in per_conn.items():
        conn = conns[cid]
        worst = max(worst, nbytes / (conn.bandwidth_gbps * 1e3) + conn.latency_us * count)
    return worst


def _optcnn_impl(
    graph: OperatorGraph,
    topology: DeviceTopology,
    profiler: OpProfiler | None = None,
    max_sweeps: int = 8,
) -> OptCNNResult:
    """Minimize OptCNN's additive objective over per-group configurations.

    The engine behind the ``optcnn`` planner backend; call it through
    :meth:`repro.plan.Planner.search`.
    """
    profiler = profiler or OpProfiler()
    space = ConfigSpace(graph, topology)
    d = topology.num_devices

    groups = sorted(graph.param_groups().items(), key=lambda kv: kv[1][0])
    candidates: dict[str, list[ParallelConfig]] = {}
    for gkey, members in groups:
        cfgs = []
        for degs in space.degree_vectors(members[0]):
            n = 1
            for _, deg in degs:
                n *= deg
            cfgs.append(ParallelConfig(degrees=degs, devices=_spread_devices(n, d)))
        candidates[gkey] = cfgs

    # Cache per-group node costs (op time + sync), which don't depend on
    # neighbors.
    node_cost: dict[tuple[str, int], float] = {}

    def group_cost(gkey: str, members: tuple[int, ...], ci: int) -> float:
        key = (gkey, ci)
        if key not in node_cost:
            cfg = candidates[gkey][ci]
            cost = sum(_op_time(graph, profiler, topology, m, cfg) for m in members)
            cost += _sync_time(graph, profiler, topology, members, cfg)
            node_cost[key] = cost
        return node_cost[key]

    group_of: dict[int, str] = {}
    members_of: dict[str, tuple[int, ...]] = {}
    for gkey, members in groups:
        members_of[gkey] = members
        for m in members:
            group_of[m] = gkey

    # Current choice per group, initialized to data parallelism when legal.
    choice: dict[str, int] = {}
    for gkey, members in groups:
        dp = ParallelConfig.data_parallel(graph.op(members[0]), tuple(range(d)))
        cfgs = candidates[gkey]
        choice[gkey] = next(
            (i for i, c in enumerate(cfgs) if c.degrees == dp.degrees and c.devices == dp.devices),
            0,
        )

    def edge_cost(e, cfg_src: ParallelConfig, cfg_dst: ParallelConfig) -> float:
        return _edge_time(graph, topology, e.src, e.dst, e.slot, cfg_src, cfg_dst)

    def total_cost() -> float:
        total = 0.0
        for gkey, members in groups:
            total += group_cost(gkey, members, choice[gkey])
        for e in graph.edges():
            total += edge_cost(
                e,
                candidates[group_of[e.src]][choice[group_of[e.src]]],
                candidates[group_of[e.dst]][choice[group_of[e.dst]]],
            )
        return total

    # Iterated coordinate descent: exact for chains after one ordered
    # sweep per direction, convergent on DAGs.
    sweeps = 0
    improved = True
    while improved and sweeps < max_sweeps:
        improved = False
        sweeps += 1
        for gkey, members in groups:
            # Edges whose cost depends on this group's choice.
            local_edges = []
            for m in members:
                for slot, src in enumerate(graph.inputs_of(m)):
                    local_edges.append((src, m, slot))
                for e in graph.consumers_of(m):
                    local_edges.append((e.src, e.dst, e.slot))
            local_edges = list(dict.fromkeys(local_edges))

            def local_cost(ci: int) -> float:
                cfg = candidates[gkey][ci]
                cost = group_cost(gkey, members, ci)
                for src, dst, slot in local_edges:
                    c_s = cfg if group_of[src] == gkey else candidates[group_of[src]][choice[group_of[src]]]
                    c_d = cfg if group_of[dst] == gkey else candidates[group_of[dst]][choice[group_of[dst]]]
                    cost += _edge_time(graph, topology, src, dst, slot, c_s, c_d)
                return cost

            best_ci = min(range(len(candidates[gkey])), key=local_cost)
            if best_ci != choice[gkey]:
                choice[gkey] = best_ci
                improved = True

    configs = {
        m: candidates[gkey][choice[gkey]] for gkey, members in groups for m in members
    }
    return OptCNNResult(
        strategy=Strategy(configs),
        predicted_cost_us=total_cost(),
        sweeps=sweeps,
        candidates_per_group={g: len(c) for g, c in candidates.items()},
    )


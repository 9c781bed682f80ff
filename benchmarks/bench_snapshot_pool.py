"""Micro-benchmark: pooled vs per-proposal timeline snapshots.

Under ``algorithm="delta"``, which repairs the timeline in place,
rejected MCMC proposals revert from a timeline snapshot
(``Simulator.propose/revert``).  With snapshot pooling the simulator
recycles one scratch ``Timeline`` through the propose/resolve cycle
(``Timeline.copy_into``) instead of allocating three dicts for every
in-flight proposal.  The default ``auto`` (and ``full``) never snapshot:
they keep the pre-proposal timeline object as the revert target, so the
bench pins ``delta``.

Asserted here: pooling is cost-exact (identical makespans down the whole
proposal sequence -- it is an allocation strategy, not an algorithm
change).  The wall-time ratio is printed as a table row for the record;
only a generous no-regression bound is asserted, because sub-millisecond
dict-allocation deltas flake on shared CI runners.
"""

import time

import numpy as np

from repro.bench.harness import bench_model, cluster
from repro.bench.reporting import print_table
from repro.profiler.profiler import OpProfiler
from repro.sim.simulator import Simulator
from repro.soap.presets import data_parallelism
from repro.soap.space import ConfigSpace

from conftest import run_once

_CYCLES = 400


def _propose_revert_cycles(graph, topo, *, pool_snapshots: bool):
    """Run a fixed accept/reject proposal sequence; returns (wall_s, costs)."""
    sim = Simulator(
        graph,
        topo,
        data_parallelism(graph, topo),
        OpProfiler(),
        algorithm="delta",
        pool_snapshots=pool_snapshots,
    )
    space = ConfigSpace(graph, topo)
    rng = np.random.default_rng(11)
    op_ids = graph.op_ids
    costs = []
    t0 = time.perf_counter()
    for i in range(_CYCLES):
        oid = int(op_ids[int(rng.integers(0, len(op_ids)))])
        cost = sim.propose(oid, space.random_config(oid, rng))
        costs.append(cost)
        # Deterministic mix of outcomes: mostly rejections (the MCMC
        # regime pooling targets), some commits to rotate the scratch.
        if i % 4 == 0:
            sim.commit()
        else:
            costs.append(sim.revert())
    return time.perf_counter() - t0, costs


def test_snapshot_pool_micro(benchmark, scale):
    graph, _ = bench_model("inception_v3", scale)
    topo = cluster("p100", 4)

    def experiment():
        wall_off, costs_off = _propose_revert_cycles(graph, topo, pool_snapshots=False)
        wall_on, costs_on = _propose_revert_cycles(graph, topo, pool_snapshots=True)
        return wall_off, costs_off, wall_on, costs_on

    wall_off, costs_off, wall_on, costs_on = run_once(benchmark, experiment)
    rows = [
        {
            "variant": "per-proposal copy",
            "cycles": _CYCLES,
            "wall_s": round(wall_off, 4),
            "us_per_cycle": round(wall_off / _CYCLES * 1e6, 1),
        },
        {
            "variant": "pooled scratch",
            "cycles": _CYCLES,
            "wall_s": round(wall_on, 4),
            "us_per_cycle": round(wall_on / _CYCLES * 1e6, 1),
            "speedup": round(wall_off / wall_on, 2) if wall_on > 0 else float("inf"),
        },
    ]
    print_table(rows, "Snapshot pooling -- propose/revert micro-benchmark")
    # Pooling is an allocation strategy only: bit-identical costs.
    assert costs_on == costs_off
    # No-regression bound, deliberately loose for noisy shared runners.
    assert wall_on <= 1.5 * wall_off, rows

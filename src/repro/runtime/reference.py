"""The "real hardware" measurement substrate (Figure 11's ground truth).

The paper evaluates simulator accuracy by comparing predicted execution
times against wall-clock measurements on the physical clusters.  Offline,
we substitute a *higher-fidelity executor* that layers onto the task
graph exactly the second-order effects the simulator's assumptions A1-A4
idealize away:

* **A1 (deterministic kernels)** -- per-task multiplicative jitter drawn
  deterministically per (seed, task ckey), modelling run-to-run kernel
  variance;
* **A2 (full link utilization)** -- transfers achieve only a fraction of
  nominal bandwidth, and inter-node transfers of a node pair contend for
  the node's NIC instead of enjoying a private link per device pair;
* **A4 (zero runtime overhead)** -- every task pays a fixed runtime
  dispatch overhead.

The result is a "measured" time that is consistently slower than the
simulator's prediction by a strategy-dependent 0-30%, while preserving
the relative ordering of strategies -- the two properties Figure 11
establishes for the real system.  Like the simulator's, it is a function
of the strategy alone: jitter is keyed by each task's ckey, queue ties
are broken by ckey rank and a transfer's NIC slot is hashed from its
rank, so a task graph reached by splices measures what a cold build of
the same strategy measures, whatever ids its tasks were given.
"""

from __future__ import annotations

import heapq
import zlib
from dataclasses import dataclass

from repro.sim.taskgraph import TaskGraph, TaskKind

__all__ = ["ReferenceConfig", "ReferenceResult", "reference_execute"]


@dataclass(frozen=True)
class ReferenceConfig:
    """Fidelity knobs of the reference executor."""

    jitter: float = 0.06  # relative amplitude of per-task time noise
    overhead_us: float = 2.5  # runtime dispatch overhead per task (A4)
    bandwidth_efficiency: float = 0.85  # achievable fraction of link peak (A2)
    # Extra NIC contention beyond what the topology's shared inter-node
    # connections already model.  The cluster builders encode one shared
    # IB path per node pair (Figure 6), so this is off by default and
    # exists for what-if studies on topologies with per-pair links.
    nic_contention: bool = False
    nic_slots: int = 2
    seed: int = 0


@dataclass
class ReferenceResult:
    makespan_us: float
    num_tasks: int

    @property
    def makespan_ms(self) -> float:
        return self.makespan_us / 1e3


def _noise(seed: int, ckey: tuple, amplitude: float) -> float:
    """Deterministic per-(run, task) jitter factor, biased >= 1.

    Real kernels are slower than their cached best-case profile far more
    often than faster, so the factor is ``1 + amplitude * u`` with
    ``u ~ U[0, 1)`` plus a small symmetric component.
    """
    h = zlib.crc32(f"{seed}:{ckey}".encode()) / 0xFFFFFFFF
    h2 = zlib.crc32(f"{seed}:{ckey}:b".encode()) / 0xFFFFFFFF
    return 1.0 + amplitude * h + 0.25 * amplitude * (2.0 * h2 - 1.0)


def reference_execute(tg: TaskGraph, config: ReferenceConfig | None = None) -> ReferenceResult:
    """Execute the task graph under the high-fidelity machine model."""
    cfg = config or ReferenceConfig()
    topo = tg.topology
    arr = tg.arrays
    rank = arr.rank
    tasks = tg.tasks
    conns = {c.cid: c for c in topo.connections()}

    # Effective execution time and queueing resource per task.
    exe: dict[int, float] = {}
    queue_of: dict[int, object] = {}
    for tid in tasks:
        if arr.kind[tid] == TaskKind.COMM:
            conn = conns[arr.dev[tid]]
            time = conn.latency_us + arr.nbytes[tid] / (
                conn.bandwidth_gbps * 1e3 * cfg.bandwidth_efficiency
            )
            src_node = topo.device(conn.src).node
            dst_node = topo.device(conn.dst).node
            if cfg.nic_contention and src_node != dst_node:
                # All traffic between a node pair shares the NIC path,
                # hashed over its concurrent stream slots.
                stream = zlib.crc32(rank[tid].to_bytes(8, "little")) % max(1, cfg.nic_slots)
                queue_of[tid] = ("nic", src_node, dst_node, stream)
            else:
                queue_of[tid] = conn.cid
        else:
            time = arr.exe[tid] + cfg.overhead_us
            queue_of[tid] = arr.dev[tid]
        exe[tid] = time * _noise(cfg.seed, arr.ckey[tid], cfg.jitter)

    # Algorithm-1-style sweep over the modified machine model, ties broken
    # by ckey rank.
    indeg: dict[int, int] = {}
    ready: dict[int, float] = {}
    heap: list[tuple[float, int, int]] = []
    for tid in tasks:
        indeg[tid] = len(arr.ins[tid])
        if not arr.ins[tid]:
            ready[tid] = 0.0
            heap.append((0.0, rank[tid], tid))
    heapq.heapify(heap)

    last_end: dict[object, float] = {}
    makespan = 0.0
    scheduled = 0
    while heap:
        r, _, tid = heapq.heappop(heap)
        q = queue_of[tid]
        s = max(r, last_end.get(q, 0.0))
        e = s + exe[tid]
        last_end[q] = e
        if e > makespan:
            makespan = e
        scheduled += 1
        for nxt in arr.outs[tid]:
            nr = ready.get(nxt, 0.0)
            if e > nr:
                ready[nxt] = e
            else:
                ready.setdefault(nxt, nr)
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                heapq.heappush(heap, (ready[nxt], rank[nxt], nxt))

    if scheduled != len(tasks):
        raise RuntimeError("reference executor found a dependency cycle")
    return ReferenceResult(makespan_us=makespan, num_tasks=len(tasks))

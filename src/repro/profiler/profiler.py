"""Caching operator profiler.

Reproduces the measurement discipline of Section 5.1: "the simulator
measures the execution time of an operation once for each input size and
uses the measured time to predict all operations with the same type...
A task's exeTime is cached, and all future tasks with the same operation
type and output size will use the cached value without rerunning the
task."

Here the "measurement" is the analytic roofline estimate of
:mod:`repro.profiler.cost_model` (see DESIGN.md for why the substitution
preserves assumption A1); the caching structure, cache keys, and hit/miss
accounting mirror the real system so the simulator's speed story
(thousands of simulations per handful of measurements) is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.dims import Region
from repro.ir.ops import Operation
from repro.machine.device import Device
from repro.machine.topology import Connection
from repro.profiler.cost_model import task_time_us, update_time_us

__all__ = ["ProfilerStats", "OpProfiler"]


@dataclass
class ProfilerStats:
    """Cache accounting: how many distinct measurements were needed."""

    measurements: int = 0
    hits: int = 0

    @property
    def lookups(self) -> int:
        return self.measurements + self.hits

    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


@dataclass
class OpProfiler:
    """Per-(device-class, op-signature) execution-time oracle with caching.

    Parameters
    ----------
    noise_amplitude:
        Relative amplitude of the deterministic measurement noise applied
        to each distinct signature (0 disables; 0.03 mimics the few-percent
        run-to-run variance of real kernels).

    Besides the per-signature measurements, the profiler carries ``memo``:
    the work of building a :class:`~repro.sim.taskgraph.TaskGraph` that
    depends only on an op's structure and its degree vector, never on the
    op's identity or where its tasks are placed.  Every task graph built
    with this profiler reads and fills it, on the initial build and on
    every splice.  It names an op by its structure id ``sid``, a small int,
    and holds four kinds of entry, told apart by their key:

    * ``"structures"`` -> a dict from each
      :meth:`~repro.ir.ops.Operation.structure_key` seen to its ``sid``,
      assigned in order of first sight, so ops of one structure share one
      ``sid`` on every graph built with this profiler;
    * ``(sid, degrees, spec_keys, backward)`` -> one ``(forward_us,
      backward_us)`` pair per task, where ``spec_keys`` names each task's
      device spec and ``backward_us`` is 0.0 unless ``backward``;
    * ``(src_sid, dst_sid, slot, src_degrees, dst_degrees)`` -> the tensor
      edge's ``(kj, ki, nbytes)`` overlaps: consumer task ``kj`` reads
      ``nbytes`` from producer task ``ki``;
    * ``(sid, degrees)`` -> the replica sets that hold parameters of a
      weight group whose first op has structure ``sid``, as
      ``(shard_idx, task_idxs, shard_elems)``.

    So the memo is plain data: numbers, strings, None, and tuples and
    dicts of them.  No key holds a graph op id, so the exhaustive search's
    lower bound, which builds renumbered subgraphs of the same ops under
    the same profiler, reads the same entries as the full graph.

    The memo lives as long as this profiler -- one per
    :class:`~repro.plan.Planner` unless the caller shares one -- and has
    no size cap: one problem has few distinct structures, degree vectors
    and edges.  It is dropped when the profiler is pickled, so each
    process a search runs in fills its own.
    """

    noise_amplitude: float = 0.0
    _cache: dict[tuple, float] = field(default_factory=dict, repr=False)
    stats: ProfilerStats = field(default_factory=ProfilerStats)
    memo: dict[tuple, tuple] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __getstate__(self) -> dict:
        return {**self.__dict__, "memo": {}}

    def task_time(self, op: Operation, out_region: Region, device: Device, backward: bool = False) -> float:
        """Execution time (us) of the task producing ``out_region`` of ``op``."""
        key = (device.spec.key, backward, op.task_signature(out_region))
        cached = self._cache.get(key)
        if cached is not None:
            self.stats.hits += 1
            return cached
        time = task_time_us(
            op, out_region, device.spec, backward=backward, noise_amplitude=self.noise_amplitude
        )
        self._cache[key] = time
        self.stats.measurements += 1
        return time

    def update_time(self, shard_elems: int, device: Device) -> float:
        """Execution time (us) of an SGD update over ``shard_elems`` weights."""
        key = (device.spec.key, "update", shard_elems)
        cached = self._cache.get(key)
        if cached is not None:
            self.stats.hits += 1
            return cached
        time = update_time_us(shard_elems, device.spec)
        self._cache[key] = time
        self.stats.measurements += 1
        return time

    def comm_time(self, nbytes: float, connection: Connection) -> float:
        """Transfer time (us) of ``nbytes`` over ``connection`` (A2: s/b)."""
        return connection.transfer_us(nbytes)

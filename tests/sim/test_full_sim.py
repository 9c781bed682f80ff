"""Tests for the full simulation algorithm (Algorithm 1)."""

import pytest

from repro.profiler.profiler import OpProfiler
from repro.sim.full_sim import Timeline, full_simulate
from repro.sim.metrics import compute_metrics, throughput_samples_per_sec
from repro.sim.taskgraph import TaskGraph
from repro.soap.presets import data_parallelism, model_parallelism, single_device


def device_orders(tg, tl):
    """Each device's tasks in FIFO order, i.e. sorted by (readyTime, ckey),
    as ``(ready, ckey, slot)`` triples."""
    orders = {}
    arr = tg.arrays
    for t in tg.tasks:
        orders.setdefault(arr.dev[t], []).append((tl.ready[t], arr.ckey[t], t))
    return {d: sorted(v) for d, v in orders.items()}


class TestFullSimulate:
    def test_empty_graph(self, mlp_graph, topo4):
        tg = TaskGraph(mlp_graph, topo4, single_device(mlp_graph), OpProfiler(), training=False)
        tg.arrays.discard_batch(tg.tasks)
        assert tg.num_tasks == 0
        tl = full_simulate(tg)
        assert tl.makespan == 0.0

    def test_chain_on_one_device_serializes(self, mlp_graph, topo4):
        tg = TaskGraph(mlp_graph, topo4, single_device(mlp_graph), OpProfiler(), training=False)
        tl = full_simulate(tg)
        # Makespan equals the sum of all task times on a single device.
        assert abs(tl.makespan - sum(tg.arrays.exe[t] for t in tg.tasks)) < 1e-6

    def test_dependencies_respected(self, lenet_graph, topo4):
        tg = TaskGraph(lenet_graph, topo4, data_parallelism(lenet_graph, topo4), OpProfiler())
        tl = full_simulate(tg)
        for t in tg.tasks:
            for p in tg.arrays.ins[t]:
                assert tl.end[p] <= tl.ready[t] + 1e-9

    def test_device_fifo_no_overlap(self, lenet_graph, topo4):
        tg = TaskGraph(lenet_graph, topo4, data_parallelism(lenet_graph, topo4), OpProfiler())
        tl = full_simulate(tg)
        for dev, lst in device_orders(tg, tl).items():
            for (r1, k1, t1), (r2, k2, t2) in zip(lst, lst[1:]):
                assert (r1, k1) < (r2, k2)
                assert tl.end[t1] <= tl.start[t2] + 1e-9

    def test_start_respects_ready_and_exe(self, lenet_graph, topo4):
        tg = TaskGraph(lenet_graph, topo4, data_parallelism(lenet_graph, topo4), OpProfiler())
        tl = full_simulate(tg)
        for t in tg.tasks:
            assert tl.start[t] >= tl.ready[t] - 1e-9
            assert abs(tl.end[t] - tl.start[t] - tg.arrays.exe[t]) < 1e-9

    def test_cycle_detection(self, mlp_graph, topo4):
        tg = TaskGraph(mlp_graph, topo4, single_device(mlp_graph), OpProfiler(), training=False)
        a, b = tg.tasks[:2]
        tg._link(b, a)
        with pytest.raises(RuntimeError, match="cycle"):
            full_simulate(tg)

    def test_model_parallelism_slower_than_dp_on_balanced_cnn(self, lenet_graph, topo4):
        prof = OpProfiler()
        dp_tg = TaskGraph(lenet_graph, topo4, data_parallelism(lenet_graph, topo4), prof)
        mp_tg = TaskGraph(lenet_graph, topo4, model_parallelism(lenet_graph, topo4), prof)
        assert full_simulate(dp_tg).makespan < full_simulate(mp_tg).makespan

    def test_deterministic(self, lenet_graph, topo4):
        prof = OpProfiler()
        tg = TaskGraph(lenet_graph, topo4, data_parallelism(lenet_graph, topo4), prof)
        a = full_simulate(tg)
        b = full_simulate(tg)
        assert a.equals(b)
        assert a.makespan == b.makespan

    def test_device_orders_built_by_append_stay_sorted(self, lenet_graph, multinode):
        """Heap pops arrive in globally sorted (ready, ckey) order, so each
        device serves its tasks in append order -- which must be the
        sorted FIFO order: in (ready, ckey) order every task starts
        exactly when both its inputs and its device are free (assumptions
        A3 and A4), the order the delta algorithm's prefix/suffix split
        and its per-device end times rely on."""
        tg = TaskGraph(lenet_graph, multinode, data_parallelism(lenet_graph, multinode), OpProfiler())
        tl = full_simulate(tg)
        for lst in device_orders(tg, tl).values():
            prev_end = 0.0
            for r, _, slot in lst:
                assert tl.start[slot] == max(r, prev_end)
                assert tl.end[slot] == tl.start[slot] + tg.arrays.exe[slot]
                prev_end = tl.end[slot]


class TestTimeline:
    def test_copy_is_independent(self, lenet_graph, topo4):
        tg = TaskGraph(lenet_graph, topo4, single_device(lenet_graph), OpProfiler())
        tl = full_simulate(tg)
        assert len(tl.end) == tg.arrays.num_slots  # one entry per slot
        cp = tl.copy()
        some = tg.tasks[0]
        cp.end[some] += 1.0
        assert not tl.equals(cp)

    def test_equals_tolerance(self, lenet_graph, topo4):
        tg = TaskGraph(lenet_graph, topo4, single_device(lenet_graph), OpProfiler())
        tl = full_simulate(tg)
        cp = tl.copy()
        some = tg.tasks[0]
        cp.end[some] += 1e-12
        assert tl.equals(cp)


class TestMetrics:
    def test_iteration_metrics(self, lenet_graph, topo4):
        tg = TaskGraph(lenet_graph, topo4, data_parallelism(lenet_graph, topo4), OpProfiler())
        tl = full_simulate(tg)
        m = compute_metrics(tg, tl)
        assert m.makespan_us == tl.makespan
        assert m.total_comm_bytes == tg.total_comm_bytes()
        assert m.num_tasks == tg.num_tasks
        assert 0 < m.utilization(topo4.num_devices) <= 1.0
        assert "nvlink" in m.comm_bytes_by_label
        assert set(m.row()) == {"iter_time_ms", "comm_GB", "compute_s", "tasks"}

    def test_throughput(self):
        assert throughput_samples_per_sec(64, 1e6) == 64.0
        assert throughput_samples_per_sec(64, 0) == 0.0

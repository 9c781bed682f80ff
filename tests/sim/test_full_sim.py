"""Tests for the full simulation algorithm (Algorithm 1)."""

import pytest

from repro.profiler.profiler import OpProfiler
from repro.sim.full_sim import Timeline, full_simulate
from repro.sim.metrics import compute_metrics, throughput_samples_per_sec
from repro.sim.taskgraph import Task, TaskGraph, TaskKind
from repro.soap.presets import data_parallelism, model_parallelism, single_device


def device_orders(tg, tl):
    """Each device's tasks in FIFO order, i.e. sorted by (readyTime, ckey)."""
    orders = {}
    for tid, t in tg.tasks.items():
        orders.setdefault(t.device, []).append((tl.ready[tid], t.ckey, tid))
    return {d: sorted(v) for d, v in orders.items()}


class TestFullSimulate:
    def test_empty_graph(self, mlp_graph, topo4):
        tg = TaskGraph(mlp_graph, topo4, single_device(mlp_graph), OpProfiler(), training=False)
        for tid in list(tg.tasks):
            tg.arrays.discard(tid)
            del tg.tasks[tid]
        tl = full_simulate(tg)
        assert tl.makespan == 0.0

    def test_chain_on_one_device_serializes(self, mlp_graph, topo4):
        tg = TaskGraph(mlp_graph, topo4, single_device(mlp_graph), OpProfiler(), training=False)
        tl = full_simulate(tg)
        # Makespan equals the sum of all task times on a single device.
        assert abs(tl.makespan - sum(t.exe_time for t in tg.tasks.values())) < 1e-6

    def test_dependencies_respected(self, lenet_graph, topo4):
        tg = TaskGraph(lenet_graph, topo4, data_parallelism(lenet_graph, topo4), OpProfiler())
        tl = full_simulate(tg)
        for t in tg.tasks.values():
            for p in t.ins:
                assert tl.end[p] <= tl.ready[t.tid] + 1e-9

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
        for tid, t in tg.tasks.items():
            assert tl.start[tid] >= tl.ready[tid] - 1e-9
            assert abs(tl.end[tid] - tl.start[tid] - t.exe_time) < 1e-9

    def test_cycle_detection(self, mlp_graph, topo4):
        tg = TaskGraph(mlp_graph, topo4, single_device(mlp_graph), OpProfiler(), training=False)
        tids = list(tg.tasks)
        a, b = tids[0], tids[1]
        tg.tasks[a].ins.append(b)
        tg.tasks[b].outs.append(a)
        tg.arrays.link(b, a)
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
            for r, _, tid in lst:
                assert tl.start[tid] == max(r, prev_end)
                assert tl.end[tid] == tl.start[tid] + tg.tasks[tid].exe_time
                prev_end = tl.end[tid]


class TestTimeline:
    def test_copy_is_independent(self, lenet_graph, topo4):
        tg = TaskGraph(lenet_graph, topo4, single_device(lenet_graph), OpProfiler())
        tl = full_simulate(tg)
        cp = tl.copy()
        some = next(iter(cp.end))
        cp.end[some] += 1.0
        assert not tl.equals(cp)

    def test_equals_tolerance(self, lenet_graph, topo4):
        tg = TaskGraph(lenet_graph, topo4, single_device(lenet_graph), OpProfiler())
        tl = full_simulate(tg)
        cp = tl.copy()
        some = next(iter(cp.end))
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

"""Unit tests for the roofline cost model and the caching profiler."""

import pickle

from repro.ir.dims import Region
from repro.ir.op_conv import Conv2D
from repro.ir.op_dense import MatMul
from repro.machine.device import spec_for
from repro.machine.clusters import single_node
from repro.profiler.cost_model import noise_factor, task_time_us, update_time_us
from repro.profiler.profiler import OpProfiler
from repro.sim.taskgraph import TaskGraph
from repro.soap.presets import data_parallelism


def matmul(batch=64, in_dim=1024, out_dim=4096):
    return MatMul("m", batch=batch, in_dim=in_dim, out_dim=out_dim)


class TestCostModel:
    def test_monotone_in_region_size(self):
        op = matmul()
        spec = spec_for("p100")
        full = task_time_us(op, op.out_shape.full_region(), spec)
        half = task_time_us(op, Region((("sample", 0, 32), ("channel", 0, 4096))), spec)
        assert 0 < half < full

    def test_k80_slower_than_p100(self):
        op = matmul()
        r = op.out_shape.full_region()
        assert task_time_us(op, r, spec_for("k80")) > task_time_us(op, r, spec_for("p100"))

    def test_backward_costs_more(self):
        op = matmul()
        r = op.out_shape.full_region()
        spec = spec_for("p100")
        assert task_time_us(op, r, spec, backward=True) > task_time_us(op, r, spec)

    def test_launch_overhead_floors_tiny_tasks(self):
        op = matmul(batch=64, in_dim=4, out_dim=4)
        r = Region((("sample", 0, 1), ("channel", 0, 4)))
        spec = spec_for("p100")
        assert task_time_us(op, r, spec) >= spec.launch_overhead_us

    def test_small_kernel_saturation_penalizes_splitting(self):
        """N-way split of a big matmul costs more than 1/N of the whole."""
        op = matmul()
        spec = spec_for("p100")
        full = task_time_us(op, op.out_shape.full_region(), spec)
        sliver = task_time_us(op, Region((("sample", 0, 1), ("channel", 0, 4096))), spec)
        assert sliver > full / 64

    def test_channel_split_cheaper_than_batch_split_for_big_weights(self):
        """The Section 8.2.1 observation that motivates the P dimension."""
        op = matmul(batch=64, in_dim=1024, out_dim=32768)
        spec = spec_for("p100")
        batch_task = task_time_us(op, Region((("sample", 0, 16), ("channel", 0, 32768))), spec)
        chan_task = task_time_us(op, Region((("sample", 0, 64), ("channel", 0, 8192))), spec)
        assert chan_task < batch_task

    def test_noise_factor_deterministic_and_bounded(self):
        a = noise_factor(("p100", "x"), 0.05)
        b = noise_factor(("p100", "x"), 0.05)
        assert a == b
        assert 0.95 <= a <= 1.05
        assert noise_factor(("p100", "x"), 0.0) == 1.0

    def test_update_time_scales_with_shard(self):
        spec = spec_for("p100")
        assert update_time_us(1 << 20, spec) > update_time_us(1 << 10, spec)


class TestOpProfiler:
    def test_caching_by_signature(self):
        prof = OpProfiler()
        topo = single_node(2, "p100")
        op = matmul()
        r = op.out_shape.full_region()
        t1 = prof.task_time(op, r, topo.device(0))
        t2 = prof.task_time(op, r, topo.device(1))  # same device class
        assert t1 == t2
        assert prof.stats.measurements == 1
        assert prof.stats.hits == 1
        assert prof.stats.hit_rate() == 0.5

    def test_distinct_sizes_measured_separately(self):
        prof = OpProfiler()
        topo = single_node(1, "p100")
        op = matmul()
        prof.task_time(op, op.out_shape.full_region(), topo.device(0))
        prof.task_time(op, Region((("sample", 0, 32), ("channel", 0, 4096))), topo.device(0))
        assert prof.stats.measurements == 2

    def test_forward_backward_cached_separately(self):
        prof = OpProfiler()
        topo = single_node(1, "p100")
        op = matmul()
        r = op.out_shape.full_region()
        f = prof.task_time(op, r, topo.device(0))
        b = prof.task_time(op, r, topo.device(0), backward=True)
        assert b > f
        assert prof.stats.measurements == 2

    def test_memo_stays_behind_when_pickled(self, lenet_graph, topo4):
        prof = OpProfiler()
        TaskGraph(lenet_graph, topo4, data_parallelism(lenet_graph, topo4), prof)
        assert prof.memo
        copy = pickle.loads(pickle.dumps(prof))
        assert copy.memo == {}
        assert copy._cache == prof._cache and copy.stats == prof.stats

    def test_comm_time_uses_connection(self):
        prof = OpProfiler()
        topo = single_node(2, "p100")
        conn = topo.connection(0, 1)
        assert prof.comm_time(20_000_000, conn) == conn.transfer_us(20_000_000)

    def test_noise_keeps_cache_consistency(self):
        prof = OpProfiler(noise_amplitude=0.05)
        topo = single_node(1, "p100")
        op = matmul()
        r = op.out_shape.full_region()
        assert prof.task_time(op, r, topo.device(0)) == prof.task_time(op, r, topo.device(0))

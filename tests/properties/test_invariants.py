"""Cross-cutting hypothesis property tests on core invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.dims import Region, TensorShape
from repro.ir.op_conv import Conv2D
from repro.machine.clusters import single_node
from repro.models.mlp import mlp
from repro.profiler.profiler import OpProfiler
from repro.sim.full_sim import full_simulate
from repro.sim.metrics import compute_metrics
from repro.sim.taskgraph import TaskGraph, TaskKind
from repro.soap.partition import check_coverage, overlapping_tasks
from repro.soap.space import ConfigSpace, divisors
from repro.soap.strategy import Strategy
from repro.viz.timeline_viz import render_timeline


@st.composite
def regions(draw, dims=("a", "b"), max_size=16):
    ranges = []
    for d in dims:
        lo = draw(st.integers(0, max_size - 1))
        hi = draw(st.integers(lo + 1, max_size))
        ranges.append((d, lo, hi))
    return Region(tuple(ranges))


class TestRegionAlgebra:
    @given(r1=regions(), r2=regions())
    @settings(max_examples=100, deadline=None)
    def test_intersection_commutative_and_contained(self, r1, r2):
        a = r1.intersect(r2)
        b = r2.intersect(r1)
        if a is None:
            assert b is None
            return
        assert a.ranges == b.ranges
        assert a.volume <= min(r1.volume, r2.volume)
        for n in ("a", "b"):
            lo, hi = a.range(n)
            assert r1.range(n)[0] <= lo and hi <= r1.range(n)[1]

    @given(r=regions())
    @settings(max_examples=50, deadline=None)
    def test_self_intersection_identity(self, r):
        assert r.intersect(r).ranges == r.ranges
        assert r.overlap_volume(r) == r.volume


class TestConvPartitionProperties:
    @given(
        hd=st.sampled_from([1, 2, 5]),  # divisors of the 10-wide output
        wd=st.sampled_from([1, 2, 5]),
        cd=st.sampled_from([1, 2, 4, 8]),
        sd=st.sampled_from([1, 2, 4]),
    )
    @settings(max_examples=40, deadline=None)
    def test_any_conv_partition_tiles_output(self, hd, wd, cd, sd):
        op = Conv2D("c", batch=4, in_channels=3, out_channels=8, in_hw=(10, 10),
                    kernel=(3, 3), padding=(1, 1))
        from repro.soap.config import ParallelConfig

        degrees = tuple(
            (n, d)
            for n, d in (("sample", sd), ("channel", cd), ("height", hd), ("width", wd))
            if d > 1
        )
        n = sd * cd * hd * wd
        cfg = ParallelConfig(degrees=degrees, devices=tuple(range(n)))
        cfg.validate(op)  # degrees divide extents by construction
        check_coverage(op, cfg)
        # Input halos may overlap but every output element has a producer.
        hits = overlapping_tasks(op, cfg, op.out_shape.full_region())
        assert sum(v for _, v in hits) == op.out_shape.volume


class TestSimulationInvariants:
    @given(seed=st.integers(0, 5000))
    @settings(max_examples=15, deadline=None)
    def test_makespan_bounds(self, seed):
        """Makespan is bounded by critical work below and total work above."""
        graph = mlp(batch=16, in_dim=32, hidden=(64,), num_classes=8)
        topo = single_node(3, "p100")
        space = ConfigSpace(graph, topo)
        rng = np.random.default_rng(seed)
        strategy = space.random_strategy(rng)
        tg = TaskGraph(graph, topo, strategy, OpProfiler())
        tl = full_simulate(tg)
        total = sum(tg.arrays.exe[t] for t in tg.tasks)
        longest_task = max(tg.arrays.exe[t] for t in tg.tasks)
        assert longest_task <= tl.makespan <= total + 1e-6

    @given(seed=st.integers(0, 5000))
    @settings(max_examples=15, deadline=None)
    def test_metrics_consistency(self, seed):
        """The readers of a spliced graph -- free slots, recycled ids --
        report what they report for a cold build of the same strategy."""
        graph = mlp(batch=16, in_dim=32, hidden=(64,), num_classes=8)
        topo = single_node(3, "p100")
        rng = np.random.default_rng(seed)
        space = ConfigSpace(graph, topo)
        tg = TaskGraph(graph, topo, space.random_strategy(rng), OpProfiler())
        for _ in range(4):
            oid = int(rng.choice(graph.op_ids))
            tg.replace_config(oid, space.random_config(oid, rng), keep_record=True)
            if rng.random() < 0.5:
                tg.undo_last_splice()
        tl = full_simulate(tg)
        m = compute_metrics(tg, tl)
        arr = tg.arrays
        assert m.total_comm_bytes == sum(
            arr.nbytes[t] for t in tg.tasks if arr.kind[t] == TaskKind.COMM
        )
        assert sum(m.comm_bytes_by_label.values()) == m.total_comm_bytes
        assert m.utilization(topo.num_devices) <= 1.0 + 1e-9

        cold = TaskGraph(graph, topo, tg.strategy, OpProfiler())
        cold_tl = full_simulate(cold)
        mc = compute_metrics(cold, cold_tl)
        assert m.num_tasks == mc.num_tasks == tg.num_tasks == cold.num_tasks
        assert m.makespan_us == mc.makespan_us
        # Sums run in task-id order, which a splice permutes.
        close = dict(rel=1e-9, abs=0.0)
        assert m.total_comm_bytes == pytest.approx(mc.total_comm_bytes, **close)
        assert m.total_compute_us == pytest.approx(mc.total_compute_us, **close)
        assert m.comm_bytes_by_label == pytest.approx(mc.comm_bytes_by_label, **close)
        assert m.device_busy_us == pytest.approx(mc.device_busy_us, **close)
        assert render_timeline(tg, tl) == render_timeline(cold, cold_tl)


class TestStrategySerialization:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_json_roundtrip_preserves_signature(self, seed):
        graph = mlp(batch=16, in_dim=32, hidden=(64,), num_classes=8)
        topo = single_node(4, "p100")
        rng = np.random.default_rng(seed)
        s = ConfigSpace(graph, topo).random_strategy(rng)
        back = Strategy.from_json(s.to_json(graph), graph)
        assert back.signature() == s.signature()


class TestDivisorProperties:
    @given(n=st.integers(1, 2000))
    @settings(max_examples=100, deadline=None)
    def test_divisors_divide_and_are_sorted(self, n):
        ds = divisors(n)
        assert all(n % d == 0 for d in ds)
        assert list(ds) == sorted(set(ds))
        assert ds[0] == 1 and ds[-1] == n

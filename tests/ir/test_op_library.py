"""Unit tests for the concrete operator library (Table 1 semantics)."""

import math
from collections import defaultdict

import pytest

from repro.ir.dims import DimKind, Region, TensorShape
from repro.ir.op_conv import Conv1D, Conv2D, Pool1D, Pool2D
from repro.ir.op_dense import Embedding, Flatten, MatMul, Softmax
from repro.ir.op_misc import BatchNorm, Concat, Elementwise, Input
from repro.ir.op_rnn import Attention, LSTMCell
from repro.machine.clusters import single_node
from repro.models.registry import MODEL_NAMES, get_model
from repro.profiler.profiler import OpProfiler
from repro.soap.config import ParallelConfig
from repro.soap.space import ConfigSpace


def region_of(op, **ranges):
    full = {d.name: (0, d.size) for d in op.out_shape.dims}
    full.update(ranges)
    return Region(tuple((n, lo, hi) for n, (lo, hi) in full.items()))


class TestConv2D:
    def make(self, **kw):
        defaults = dict(
            name="c", batch=8, in_channels=3, out_channels=16, in_hw=(12, 12),
            kernel=(3, 3), stride=(1, 1), padding=(1, 1),
        )
        defaults.update(kw)
        return Conv2D(**defaults)

    def test_output_shape(self):
        op = self.make()
        assert op.out_shape == TensorShape.of(4, sample=8, channel=16, height=12, width=12)
        op2 = self.make(stride=(2, 2), padding=(0, 0))
        assert op2.out_hw == (5, 5)

    def test_table1_parallel_dims(self):
        pd = self.make().parallel_dims()
        assert pd["sample"] is DimKind.SAMPLE
        assert pd["height"] is DimKind.ATTRIBUTE
        assert pd["width"] is DimKind.ATTRIBUTE
        assert pd["channel"] is DimKind.PARAMETER  # filters are parameters

    def test_input_region_includes_halo(self):
        op = self.make(padding=(0, 0))  # out 10x10
        r = region_of(op, height=(2, 5))
        need = op.input_region(r, 0)
        # rows 2..4 need input rows 2..(4+3) = 2..7
        assert need.range("height") == (2, 7)
        assert need.range("channel") == (0, 3)  # full reduction extent

    def test_input_region_clamps_at_borders(self):
        op = self.make(padding=(1, 1))
        need = op.input_region(region_of(op, height=(0, 3)), 0)
        assert need.range("height")[0] == 0  # clamped, padding is implicit

    def test_flops_scale_with_region(self):
        op = self.make()
        full = op.flops_for(op.out_shape.full_region())
        half = op.flops_for(region_of(op, sample=(0, 4)))
        assert abs(full - 2 * half) < 1e-6

    def test_param_shard_follows_channel(self):
        op = self.make()
        full = op.param_shard_volume(op.out_shape.full_region())
        half = op.param_shard_volume(region_of(op, channel=(0, 8)))
        assert half * 2 == full
        # Sample split replicates the whole filter bank.
        assert op.param_shard_volume(region_of(op, sample=(0, 4))) == full

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            self.make(in_hw=(2, 2), kernel=(5, 5), padding=(0, 0))


class TestPool2D:
    def test_channel_is_attribute(self):
        op = Pool2D("p", batch=8, channels=16, in_hw=(8, 8))
        pd = op.parallel_dims()
        assert pd["channel"] is DimKind.ATTRIBUTE  # no parameters
        assert not op.params

    def test_input_region_passes_channel_through(self):
        op = Pool2D("p", batch=8, channels=16, in_hw=(8, 8))
        need = op.input_region(region_of(op, channel=(4, 8)), 0)
        assert need.range("channel") == (4, 8)

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            Pool2D("p", batch=8, channels=4, in_hw=(8, 8), kind="median")


class TestConv1DPool1D:
    def test_conv1d_table1(self):
        op = Conv1D("c", batch=8, in_channels=4, out_channels=8, in_length=16)
        pd = op.parallel_dims()
        assert pd == {
            "sample": DimKind.SAMPLE,
            "length": DimKind.ATTRIBUTE,
            "channel": DimKind.PARAMETER,
        }

    def test_pool1d_table1(self):
        op = Pool1D("p", batch=8, channels=4, in_length=16)
        pd = op.parallel_dims()
        assert pd == {
            "sample": DimKind.SAMPLE,
            "length": DimKind.ATTRIBUTE,
            "channel": DimKind.ATTRIBUTE,
        }


class TestMatMul:
    def test_channel_is_parameter(self):
        op = MatMul("m", batch=8, in_dim=32, out_dim=64)
        assert op.parallel_dims()["channel"] is DimKind.PARAMETER

    def test_input_needs_full_reduction_dim(self):
        op = MatMul("m", batch=8, in_dim=32, out_dim=64)
        need = op.input_region(region_of(op, channel=(0, 16)), 0)
        assert need.range("channel") == (0, 32)

    def test_sequence_variant_has_length_attribute(self):
        op = MatMul("m", batch=8, in_dim=32, out_dim=64, seq_len=10)
        assert op.parallel_dims()["length"] is DimKind.ATTRIBUTE
        assert op.out_shape.size("length") == 10

    def test_flops(self):
        op = MatMul("m", batch=8, in_dim=32, out_dim=64)
        assert op.flops_for(op.out_shape.full_region()) == 2.0 * 8 * 32 * 64

    def test_weight_shards_column_wise(self):
        op = MatMul("m", batch=8, in_dim=32, out_dim=64)
        shard = op.param_shard_volume(region_of(op, channel=(0, 16)))
        assert shard == 32 * 16 + 16  # weight slice + bias slice


class TestEmbedding:
    def test_step_variant_shapes(self):
        op = Embedding("e", batch=8, vocab=100, embed_dim=16)
        assert op.out_shape == TensorShape.of(4, sample=8, channel=16)
        assert op.input_shapes[0] == TensorShape.of(4, sample=8)

    def test_sequence_variant_shapes(self):
        op = Embedding("e", batch=8, vocab=100, embed_dim=16, seq_len=5)
        assert "length" in op.out_shape
        assert op.parallel_dims()["length"] is DimKind.ATTRIBUTE

    def test_table_shards_by_channel(self):
        op = Embedding("e", batch=8, vocab=100, embed_dim=16)
        assert op.param_shard_volume(region_of(op, channel=(0, 4))) == 100 * 4


class TestSoftmax:
    def test_channel_not_parallelizable(self):
        op = Softmax("s", batch=8, num_classes=10)
        assert "channel" not in op.parallel_dims()

    def test_input_region_full_channel(self):
        op = Softmax("s", batch=8, num_classes=10)
        need = op.input_region(region_of(op, sample=(0, 4)), 0)
        assert need.range("channel") == (0, 10)
        assert need.range("sample") == (0, 4)


class TestFlatten:
    def test_only_sample_parallelizable(self):
        op = Flatten("f", batch=8, channels=4, in_hw=(3, 3))
        assert list(op.parallel_dims()) == ["sample"]
        assert op.out_shape.size("channel") == 36


class TestLSTMCell:
    def test_shapes_and_dims(self):
        op = LSTMCell("l", batch=8, in_dim=16, hidden=32)
        assert op.out_shape == TensorShape.of(4, sample=8, channel=32)
        assert len(op.input_shapes) == 2
        assert op.parallel_dims()["channel"] is DimKind.PARAMETER

    def test_first_step_has_no_state_input(self):
        op = LSTMCell("l", batch=8, in_dim=16, hidden=32, has_state_input=False)
        assert len(op.input_shapes) == 1

    def test_inputs_read_full_channels(self):
        op = LSTMCell("l", batch=8, in_dim=16, hidden=32)
        r = region_of(op, channel=(0, 8))
        assert op.input_region(r, 0).range("channel") == (0, 16)
        assert op.input_region(r, 1).range("channel") == (0, 32)

    def test_param_shard(self):
        op = LSTMCell("l", batch=8, in_dim=16, hidden=32)
        full = op.param_shard_volume(op.out_shape.full_region())
        assert full == (16 + 32) * 4 * 32 + 4 * 32
        half = op.param_shard_volume(region_of(op, channel=(0, 16)))
        assert half * 2 == full


class TestAttention:
    def test_takes_decoder_state_plus_encoder_states(self):
        op = Attention("a", batch=8, hidden=16, src_len=5)
        assert len(op.input_shapes) == 6
        assert all(s == TensorShape.of(4, sample=8, channel=16) for s in op.input_shapes)

    def test_inputs_read_full_channel(self):
        op = Attention("a", batch=8, hidden=16, src_len=5)
        r = region_of(op, channel=(0, 8))
        for i in range(6):
            assert op.input_region(r, i).range("channel") == (0, 16)

    def test_channel_split_duplicates_score_flops(self):
        op = Attention("a", batch=8, hidden=16, src_len=5)
        full = op.flops_for(op.out_shape.full_region())
        half = op.flops_for(region_of(op, channel=(0, 8)))
        assert 2 * half > full  # score+context portion replicated


class TestConcat:
    def make(self):
        shapes = (
            TensorShape.of(4, sample=8, channel=4, height=3, width=3),
            TensorShape.of(4, sample=8, channel=6, height=3, width=3),
        )
        return Concat("cat", shapes, axis="channel")

    def test_output_sums_axis(self):
        assert self.make().out_shape.size("channel") == 10

    def test_input_region_offsets(self):
        op = self.make()
        r = region_of(op, channel=(2, 8))
        r0 = op.input_region(r, 0)
        r1 = op.input_region(r, 1)
        assert r0.range("channel") == (2, 4)
        assert r1.range("channel") == (0, 4)

    def test_non_overlapping_input_returns_none(self):
        op = self.make()
        r = region_of(op, channel=(5, 10))  # entirely inside input 1
        assert op.input_region(r, 0) is None

    def test_mismatched_inputs_rejected(self):
        shapes = (
            TensorShape.of(4, sample=8, channel=4),
            TensorShape.of(4, sample=4, channel=4),
        )
        with pytest.raises(ValueError):
            Concat("cat", shapes, axis="channel")

    def test_all_dims_attribute(self):
        pd = self.make().parallel_dims()
        assert pd["channel"] is DimKind.ATTRIBUTE


class TestElementwiseAndBN:
    def test_elementwise_identity_regions(self):
        shape = TensorShape.of(4, sample=8, channel=4)
        op = Elementwise("add", "add", shape, arity=2)
        r = region_of(op, sample=(0, 4))
        assert op.input_region(r, 0).range("sample") == (0, 4)
        assert op.input_region(r, 1).range("sample") == (0, 4)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Elementwise("x", "frobnicate", TensorShape.of(4, sample=2))

    def test_batchnorm_channel_is_parameter(self):
        shape = TensorShape.of(4, sample=8, channel=4, height=2, width=2)
        op = BatchNorm("bn", shape)
        assert op.parallel_dims()["channel"] is DimKind.PARAMETER
        assert op.param_shard_volume(region_of(op, channel=(0, 2))) == 4

    def test_input_is_source(self):
        op = Input("in", TensorShape.of(4, sample=8, channel=4))
        assert op.is_source
        assert op.parallel_dims()["channel"] is DimKind.ATTRIBUTE


def construction_reads(op, degree_vectors):
    """What task-graph construction reads of ``op`` under each degree
    vector: every task's region, input regions, parameter shard volume and
    profiler signature."""
    reads = []
    for degrees in degree_vectors:
        cfg = ParallelConfig(degrees, tuple(range(math.prod(d for _, d in degrees))))
        for k in range(cfg.num_tasks):
            region = cfg.task_region(op, k)
            reads.append((
                degrees,
                region,
                tuple(op.input_region(region, i) for i in range(len(op.input_shapes))),
                op.param_shard_volume(region),
                op.task_signature(region),
            ))
    return reads


def assert_differ_only_in_static_attrs(a, b):
    assert type(a) is type(b)
    assert a.out_shape == b.out_shape and a.input_shapes == b.input_shapes
    assert a.parallel_dims() == b.parallel_dims() and a.params == b.params
    assert a.static_attrs() != b.static_attrs()


class TestStructureKey:
    """Ops with one ``structure_key`` share their task-graph construction
    (the profiler memo's entries), so the key must cover all it reads."""

    def test_equal_keys_read_equal_geometry_in_the_bench_models(self):
        topo = single_node(4, "p100")
        by_key = defaultdict(list)  # structure key -> [(graph, space, op id)], across models
        for name in MODEL_NAMES + ("lenet", "rnnlm_small", "mlp"):
            graph = get_model(name, scale="ci")
            space = ConfigSpace(graph, topo)
            for oid in graph.op_ids:
                by_key[graph.op(oid).structure_key()].append((graph, space, oid))
        shared = 0
        for members in by_key.values():
            graph, space, oid = members[0]
            degree_vectors = space.degree_vectors(oid)
            expected = construction_reads(graph.op(oid), degree_vectors)
            for graph, space, oid in members[1:]:
                assert space.degree_vectors(oid) == degree_vectors
                assert construction_reads(graph.op(oid), degree_vectors) == expected
                shared += 1
        assert shared > 300  # unrolled steps and repeated blocks

    def test_stride_is_in_the_key(self):
        """Both give a 2x2 output, but output row 1 reads input rows
        [3, 6) at stride 3 and [4, 7) at stride 4."""
        a, b = (
            Conv2D("c", batch=2, in_channels=3, out_channels=4, in_hw=(8, 8), kernel=(3, 3),
                   stride=(s, s))
            for s in (3, 4)
        )
        assert_differ_only_in_static_attrs(a, b)
        row1 = region_of(a, height=(1, 2))
        assert a.input_region(row1, 0).range("height") == (3, 6)
        assert b.input_region(row1, 0).range("height") == (4, 7)
        assert a.structure_key() != b.structure_key()

    def test_elementwise_kind_is_in_the_key(self):
        """Equal geometry, but a tanh task takes longer than a relu task."""
        shape = TensorShape.of(4, sample=64, channel=1024)
        relu, tanh = (Elementwise(kind, kind, shape) for kind in ("relu", "tanh"))
        assert_differ_only_in_static_attrs(relu, tanh)
        full = shape.full_region()
        assert relu.input_region(full, 0) == tanh.input_region(full, 0)
        device = single_node(1, "p100").device(0)
        assert OpProfiler().task_time(relu, full, device) < OpProfiler().task_time(tanh, full, device)
        assert relu.structure_key() != tanh.structure_key()

    def test_the_key_is_plain_data_computed_once(self):
        op = Conv2D("c", batch=2, in_channels=3, out_channels=4, in_hw=(8, 8))
        key = op.structure_key()
        assert op.structure_key() is key

        def leaves(x):
            if isinstance(x, tuple):
                for item in x:
                    yield from leaves(item)
            else:
                yield x

        assert {type(x) for x in leaves(key)} <= {str, int, bool, type(None)}

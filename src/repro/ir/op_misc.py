"""Structural and elementwise operations: Input, Concat, Elementwise, BatchNorm.

These complete the operator vocabulary needed by the six benchmark DNNs:
``Input`` sources the operator graph, ``Concat`` merges Inception branches
and gathers encoder states for attention, ``Elementwise`` covers residual
additions and standalone activations, and ``BatchNorm`` exists for graphs
that do not fuse normalization into convolutions.
"""

from __future__ import annotations

from repro.ir.dims import DimKind, Region, TensorShape
from repro.ir.ops import Operation, ParamSpec, elementwise_shape

__all__ = ["Input", "Concat", "Elementwise", "BatchNorm"]


class Input(Operation):
    """A graph source producing a training-data tensor.

    Parallelizable along every dimension (sample as S, the rest as A):
    the data loader can hand any sub-tensor to any device, so the input
    partitioning is free to match whatever its consumers choose.
    """

    def __init__(self, name: str, shape: TensorShape):
        super().__init__(name)
        self._out_shape = shape

    @property
    def out_shape(self) -> TensorShape:
        return self._out_shape

    @property
    def input_shapes(self) -> tuple[TensorShape, ...]:
        return ()

    def parallel_dims(self) -> dict[str, DimKind]:
        return elementwise_shape(self._out_shape)

    def flops_for(self, out_region: Region) -> float:
        return float(out_region.volume)

    def bytes_for(self, out_region: Region) -> float:
        return float(self._out_shape.dtype_bytes * out_region.volume)


class Concat(Operation):
    """Concatenate tensors along one dimension.

    Parameter-free, so every dimension (including the concatenated one) is
    S or A.  A task whose output slice along the concat dimension does not
    overlap input *k*'s span reads nothing from that producer --
    :meth:`input_region` returns ``None``, and no task-graph dependency is
    created (Section 5.1 step 2 only connects tasks with shared tensors).
    """

    def __init__(self, name: str, input_shapes: tuple[TensorShape, ...], axis: str):
        super().__init__(name)
        if not input_shapes:
            raise ValueError("Concat needs at least one input")
        first = input_shapes[0]
        if axis not in first:
            raise KeyError(f"concat axis {axis!r} not in input shape {first!r}")
        for shape in input_shapes[1:]:
            if shape.names != first.names:
                raise ValueError("Concat inputs must share dimension names/order")
            for d in shape.dims:
                if d.name != axis and d.size != first.size(d.name):
                    raise ValueError(
                        f"Concat inputs disagree on non-axis dim {d.name!r}: "
                        f"{d.size} vs {first.size(d.name)}"
                    )
        self.axis = axis
        self._in_shapes = input_shapes
        self.offsets: list[int] = []
        total = 0
        for shape in input_shapes:
            self.offsets.append(total)
            total += shape.size(axis)
        dims = [
            (d.name, total if d.name == axis else d.size) for d in first.dims
        ]
        self._out_shape = TensorShape.of(first.dtype_bytes, **dict(dims))

    @property
    def out_shape(self) -> TensorShape:
        return self._out_shape

    @property
    def input_shapes(self) -> tuple[TensorShape, ...]:
        return self._in_shapes

    def parallel_dims(self) -> dict[str, DimKind]:
        return elementwise_shape(self._out_shape)

    def structure_key(self) -> tuple:
        # input_region reads the axis and each input's offset along it.
        return super().structure_key() + (self.axis, tuple(self.offsets))

    def input_region(self, out_region: Region, input_index: int) -> Region | None:
        offset = self.offsets[input_index]
        span = self._in_shapes[input_index].size(self.axis)
        lo, hi = out_region.range(self.axis)
        in_lo, in_hi = max(0, lo - offset), min(span, hi - offset)
        if in_hi <= in_lo:
            return None
        ranges = []
        for n, a, b in out_region.ranges:
            if n == self.axis:
                ranges.append((n, in_lo, in_hi))
            else:
                ranges.append((n, a, b))
        return Region(tuple(ranges))

    def flops_for(self, out_region: Region) -> float:
        # Pure copy; charge one op per element for non-zero cost.
        return float(out_region.volume)


class Elementwise(Operation):
    """Parameter-free elementwise op: add, mul, relu, tanh, dropout, ...

    ``arity`` inputs of identical shape map one-to-one onto the output, so
    the default pass-through :meth:`Operation.input_region` is exact and
    every dimension is parallelizable (sample as S, others as A).
    """

    FLOPS_PER_ELEM = {"add": 1.0, "mul": 1.0, "relu": 1.0, "tanh": 4.0, "sigmoid": 4.0, "dropout": 2.0}

    def __init__(self, name: str, kind: str, shape: TensorShape, arity: int = 1):
        super().__init__(name)
        if kind not in self.FLOPS_PER_ELEM:
            raise ValueError(f"unknown elementwise kind {kind!r}")
        if arity < 1:
            raise ValueError("arity must be >= 1")
        self.kind = kind
        self.arity = arity
        self._out_shape = shape
        self._in_shapes = tuple(shape for _ in range(arity))

    @property
    def out_shape(self) -> TensorShape:
        return self._out_shape

    @property
    def input_shapes(self) -> tuple[TensorShape, ...]:
        return self._in_shapes

    def parallel_dims(self) -> dict[str, DimKind]:
        return elementwise_shape(self._out_shape)

    def flops_for(self, out_region: Region) -> float:
        return self.FLOPS_PER_ELEM[self.kind] * out_region.volume

    def static_attrs(self) -> tuple:
        return (self.kind, self.arity)


class BatchNorm(Operation):
    """Standalone batch normalization over the channel dimension.

    The per-channel scale/shift parameters make channel a *parameter*
    dimension here, unlike parameter-free elementwise ops.  Most model
    definitions in :mod:`repro.models` fuse BN into the preceding
    convolution instead (matching cuDNN-era execution), but the op exists
    for unfused graphs and for tests of parameter-dim classification.
    """

    def __init__(self, name: str, shape: TensorShape):
        super().__init__(name)
        if "channel" not in shape:
            raise KeyError("BatchNorm requires a channel dimension")
        self._out_shape = shape
        self._in_shapes = (shape,)

    @property
    def out_shape(self) -> TensorShape:
        return self._out_shape

    @property
    def input_shapes(self) -> tuple[TensorShape, ...]:
        return self._in_shapes

    def parallel_dims(self) -> dict[str, DimKind]:
        dims = elementwise_shape(self._out_shape)
        dims["channel"] = DimKind.PARAMETER
        return dims

    @property
    def params(self) -> tuple[ParamSpec, ...]:
        c = self._out_shape.size("channel")
        return (
            ParamSpec("gamma", (c,), partition_dim="channel", axis=0),
            ParamSpec("beta", (c,), partition_dim="channel", axis=0),
        )

    def flops_for(self, out_region: Region) -> float:
        return 4.0 * out_region.volume

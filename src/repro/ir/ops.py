"""Operation base class: the nodes of an operator graph.

An :class:`Operation` declares everything the rest of the system needs to
parallelize it in the SOAP space (Section 4 of the paper):

* its **output shape** with named dimensions,
* which output dimensions are **parallelizable** and their
  :class:`~repro.ir.dims.DimKind` (Sample / Attribute / Parameter),
* how an **output region maps to input regions** -- given the slice of the
  output tensor a task produces, which slice of each input tensor it must
  read (this drives task-graph dependency construction, Section 5.1),
* its **model parameters** and how output-dimension partitioning shards
  them (this drives parameter-synchronization cost modelling),
* analytic **FLOP and byte counts** per output region, consumed by the
  profiler's roofline cost model (assumption A1: per-task cost is
  predictable and content-independent).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.ir.dims import Dim, DimKind, Region, TensorShape

__all__ = ["ParamSpec", "Operation"]


@dataclass(frozen=True)
class ParamSpec:
    """A model parameter tensor owned by an operation.

    Parameters
    ----------
    name:
        Identifier within the op (``"weight"``, ``"bias"``...).
    shape:
        Plain integer extents of the parameter tensor.
    partition_dim:
        Name of the *output* dimension that shards this parameter, or
        ``None`` if the parameter is fully replicated regardless of the
        configuration.  Partitioning the output along ``partition_dim``
        with degree *d* splits this parameter into *d* equal shards along
        ``axis``; partitioning along any other dimension replicates it.
    axis:
        The parameter axis that ``partition_dim`` shards.
    """

    name: str
    shape: tuple[int, ...]
    partition_dim: str | None = None
    axis: int = 0

    @property
    def volume(self) -> int:
        v = 1
        for s in self.shape:
            v *= s
        return v

    def shard_volume(self, out_region: Region, out_shape: TensorShape) -> int:
        """Number of parameter elements held by a task with ``out_region``."""
        if self.partition_dim is None or self.partition_dim not in out_region.names:
            return self.volume
        frac_num = out_region.extent(self.partition_dim)
        frac_den = out_shape.size(self.partition_dim)
        return self.volume * frac_num // frac_den


class Operation(abc.ABC):
    """A single DNN operation (a node of the operator graph).

    Subclasses declare static structure (shapes, parallelizable dims,
    parameters) and analytic cost functions.  Operations are identified
    inside a graph by an integer id assigned at insertion; the ``name``
    here is a human-readable label.
    """

    def __init__(self, name: str, param_group: str | None = None):
        self.name = name
        # Ops with the same param_group share one copy of their parameters
        # (e.g. the unrolled steps of a recurrent layer -- Figure 14:
        # "each grey box denotes a layer, whose operations share the same
        # network parameters").  Shared-parameter ops are constrained to a
        # common parallelization configuration and synchronize gradients
        # once per iteration, not once per step.
        self.param_group = param_group
        # Filled by structure_key().  Set here rather than probed through
        # __dict__: reading an op's __dict__ slows every later attribute
        # load on it, which slowed AlexNet/4's search setup by about 4%.
        self._structure_key: tuple | None = None

    # -- structure (abstract) ------------------------------------------------
    @property
    @abc.abstractmethod
    def out_shape(self) -> TensorShape:
        """Shape of the (single) output tensor."""

    @property
    @abc.abstractmethod
    def input_shapes(self) -> tuple[TensorShape, ...]:
        """Expected shapes of the input tensors, in input-slot order."""

    @abc.abstractmethod
    def parallel_dims(self) -> dict[str, DimKind]:
        """Parallelizable output dimensions and their SOAP kind.

        Always includes the sample dimension (Section 4: "P_i always
        includes a sample dimension").  Output dimensions absent from the
        mapping cannot be partitioned.
        """

    # -- parameters ----------------------------------------------------------
    @property
    def params(self) -> tuple[ParamSpec, ...]:
        """Model parameters owned by this op.  Default: none."""
        return ()

    def param_shard_volume(self, out_region: Region) -> int:
        """Total parameter elements a task with ``out_region`` must hold."""
        return sum(p.shard_volume(out_region, self.out_shape) for p in self.params)

    @property
    def param_volume(self) -> int:
        return sum(p.volume for p in self.params)

    # -- region mapping --------------------------------------------------------
    def input_region(self, out_region: Region, input_index: int) -> Region | None:
        """The slice of input ``input_index`` needed to produce ``out_region``.

        Returns ``None`` when the task does not read this input at all
        (possible for e.g. concatenation).  The default implementation
        passes ranges through by dimension name: dimensions the input
        shares with the output take the output's range, all other input
        dimensions are read in full.  This is correct for elementwise ops
        and a convenient base for most others.
        """
        in_shape = self.input_shapes[input_index]
        out_ranges = {n: (lo, hi) for n, lo, hi in out_region.ranges}
        ranges = []
        for d in in_shape.dims:
            lo, hi = out_ranges.get(d.name, (0, d.size))
            # Clamp in case the output extent differs from the input's.
            ranges.append((d.name, min(lo, d.size), min(hi, d.size)))
        return Region(tuple(ranges))

    # -- analytic costs ---------------------------------------------------------
    @abc.abstractmethod
    def flops_for(self, out_region: Region) -> float:
        """Forward floating-point operations to produce ``out_region``."""

    def backward_flops_for(self, out_region: Region) -> float:
        """Backward-pass FLOPs for the task producing ``out_region``.

        Default heuristic: the backward pass computes both an input
        gradient and (when parameters exist) a weight gradient, each
        costing roughly one forward pass.
        """
        scale = 2.0 if self.params else 1.0
        return scale * self.flops_for(out_region)

    def bytes_for(self, out_region: Region) -> float:
        """Bytes moved to/from device memory for the forward task.

        Default: read every input region and the parameter shard, write
        the output region, all at the output dtype width.
        """
        dtype = self.out_shape.dtype_bytes
        total = out_region.volume
        for idx in range(len(self.input_shapes)):
            r = self.input_region(out_region, idx)
            if r is not None:
                total += r.volume
        total += self.param_shard_volume(out_region)
        return float(total * dtype)

    # -- profiler signature -------------------------------------------------------
    def static_attrs(self) -> tuple:
        """Hashable attributes distinguishing cost-relevant variants."""
        return ()

    def structure_key(self) -> tuple:
        """Everything task-graph construction reads of this op, as plain data.

        The type name, output and input shapes, parallel dims, parameters
        and :meth:`static_attrs`.  Ops with equal keys have equal task
        regions, input regions, parameter shards and task signatures under
        every configuration, so :class:`~repro.sim.taskgraph.TaskGraph`
        construction computes those once for all of them: the unrolled
        steps of a recurrent layer, the repeated blocks of Inception-v3.
        A subclass whose geometry reads other state extends the key.  It
        holds only strings, numbers, None and tuples of them, so hashing
        it runs no Python code; it is computed once per op.
        """
        if self._structure_key is None:
            self._structure_key = (
                type(self).__name__,
                _plain_shape(self.out_shape),
                tuple(map(_plain_shape, self.input_shapes)),
                tuple((n, kind.value) for n, kind in self.parallel_dims().items()),
                tuple((p.name, p.shape, p.partition_dim, p.axis) for p in self.params),
                self.static_attrs(),
            )
        return self._structure_key

    def task_signature(self, out_region: Region) -> tuple:
        """Cache key for the profiler: op type + static attrs + task extents.

        Two tasks with equal signatures are assumed to have identical
        execution time on a given device (the paper's caching rule in
        Section 5.1: "all future tasks with the same operation type and
        output size will use the cached value").
        """
        ins = []
        for idx in range(len(self.input_shapes)):
            r = self.input_region(out_region, idx)
            ins.append(None if r is None else r.extents())
        return (
            type(self).__name__,
            self.static_attrs(),
            out_region.extents(),
            tuple(ins),
        )

    # -- misc -------------------------------------------------------------------
    @property
    def is_source(self) -> bool:
        """True for graph sources (no inputs), e.g. data-loading ops."""
        return len(self.input_shapes) == 0

    def validate_parallel_dims(self) -> None:
        """Sanity-check the parallel-dim declaration against the shape."""
        pd = self.parallel_dims()
        for name, kind in pd.items():
            if name not in self.out_shape:
                raise ValueError(f"{self.name}: parallel dim {name!r} not in output shape")
            if not kind.parallelizable:
                raise ValueError(f"{self.name}: dim {name!r} declared with kind NONE")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r}, out={self.out_shape!r})"


def _plain_shape(shape: TensorShape) -> tuple:
    return (tuple((d.name, d.size) for d in shape.dims), shape.dtype_bytes)


def elementwise_shape(shape: TensorShape) -> dict[str, DimKind]:
    """Parallel dims for a parameter-free elementwise op over ``shape``.

    The sample dimension keeps kind S; every other dimension is an
    attribute dimension (splitting it never splits parameters).
    """
    out: dict[str, DimKind] = {}
    for d in shape.dims:
        out[d.name] = DimKind.SAMPLE if d.name == "sample" else DimKind.ATTRIBUTE
    return out


def dims_of(**sizes: int) -> list[Dim]:
    """Shorthand for building dimension lists: ``dims_of(sample=64, channel=32)``."""
    return [Dim(n, s) for n, s in sizes.items()]

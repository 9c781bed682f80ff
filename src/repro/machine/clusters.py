"""Builders for the paper's two GPU clusters (Figure 6) and generic machines.

* :func:`p100_cluster` -- 4 nodes x 4 Tesla P100; GPUs on a node are
  connected by NVLink, nodes by 100 Gb/s EDR InfiniBand.
* :func:`k80_cluster` -- 16 nodes x 4 Tesla K80; adjacent GPU pairs share
  a dedicated PCIe switch, other same-node pairs go through the shared
  PCIe fabric, nodes are connected by 56 Gb/s FDR InfiniBand.

Bandwidths use published per-direction figures; what matters for
reproducing the paper's *shape* is the compute-to-communication ratio and
the intra- vs inter-node gap, both of which these numbers preserve.

Link policies are module-level callables (not closures) so topologies can
be pickled into the process-pool and remote search workers
(:mod:`repro.search.exec`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.machine.device import Device, spec_for
from repro.machine.topology import DeviceTopology

__all__ = ["p100_cluster", "k80_cluster", "single_node", "uniform_cluster"]

# Link parameters: (bandwidth GB/s, latency us).
NVLINK = (20.0, 1.0)
PCIE_DEDICATED = (12.0, 4.0)
PCIE_SHARED = (8.0, 5.0)
IB_EDR = (12.5, 5.0)  # 100 Gb/s EDR InfiniBand
IB_FDR = (7.0, 7.0)  # 56 Gb/s FDR InfiniBand


def _grid_devices(num_nodes: int, gpus_per_node: int, spec_key: str) -> list[Device]:
    devices = []
    did = 0
    for node in range(num_nodes):
        for idx in range(gpus_per_node):
            devices.append(Device(did, "gpu", node, idx, spec_for(spec_key)))
            did += 1
    return devices


@dataclass(frozen=True)
class _P100Policy:
    def __call__(self, a: Device, b: Device) -> tuple:
        if a.node == b.node:
            return (*NVLINK, "nvlink", None)
        return (*IB_EDR, "ib-edr", ("ib", a.node, b.node))


@dataclass(frozen=True)
class _K80Policy:
    def __call__(self, a: Device, b: Device) -> tuple:
        if a.node == b.node:
            if a.index_on_node // 2 == b.index_on_node // 2:
                return (*PCIE_DEDICATED, "pcie-switch", None)
            # Non-adjacent GPUs cross the host's shared PCIe fabric (one
            # path per node and direction).
            return (*PCIE_SHARED, "pcie-shared", ("pcie", a.node, a.did < b.did))
        return (*IB_FDR, "ib-fdr", ("ib", a.node, b.node))


@dataclass(frozen=True)
class _UniformLinkPolicy:
    bandwidth_gbps: float
    latency_us: float
    label: str

    def __call__(self, a: Device, b: Device) -> tuple:
        return (self.bandwidth_gbps, self.latency_us, self.label, None)


@dataclass(frozen=True)
class _TwoTierPolicy:
    intra_gbps: float
    intra_lat_us: float
    inter_gbps: float
    inter_lat_us: float

    def __call__(self, a: Device, b: Device) -> tuple:
        if a.node == b.node:
            return (self.intra_gbps, self.intra_lat_us, "intra", None)
        return (self.inter_gbps, self.inter_lat_us, "inter", ("inter", a.node, b.node))


def p100_cluster(num_nodes: int = 4, gpus_per_node: int = 4) -> DeviceTopology:
    """The paper's P100 cluster: NVLink within a node, EDR IB across nodes.

    GPUs on one node get dedicated NVLink connections; all traffic
    between a pair of nodes shares the single InfiniBand path (the
    "Network" box of Figure 6a), so cross-node transfers serialize on one
    communication device per node pair and direction.
    """
    return DeviceTopology(
        _grid_devices(num_nodes, gpus_per_node, "p100"),
        _P100Policy(),
        name=f"p100x{num_nodes * gpus_per_node}",
    )


def k80_cluster(num_nodes: int = 16, gpus_per_node: int = 4) -> DeviceTopology:
    """The paper's K80 cluster with its asymmetric PCIe intra-node fabric.

    GPUs ``2k`` and ``2k+1`` on a node sit behind the same PCIe switch
    (fast path); any other same-node pair crosses the shared switch
    (slower); inter-node traffic uses FDR InfiniBand.  This asymmetry is
    what makes the optimizer prefer placing cooperating tasks on adjacent
    GPUs (Section 8.5, Inception-v3 on K80).
    """
    return DeviceTopology(
        _grid_devices(num_nodes, gpus_per_node, "k80"),
        _K80Policy(),
        name=f"k80x{num_nodes * gpus_per_node}",
    )


def single_node(num_gpus: int = 4, spec_key: str = "p100", link: str = "nvlink") -> DeviceTopology:
    """A single compute node with ``num_gpus`` identical GPUs."""
    params = {"nvlink": NVLINK, "pcie": PCIE_DEDICATED}[link]
    return DeviceTopology(
        _grid_devices(1, num_gpus, spec_key),
        _UniformLinkPolicy(params[0], params[1], link),
        name=f"{spec_key}x{num_gpus}",
    )


def uniform_cluster(
    num_nodes: int,
    gpus_per_node: int,
    spec_key: str = "p100",
    intra_gbps: float = 20.0,
    intra_lat_us: float = 1.0,
    inter_gbps: float = 12.5,
    inter_lat_us: float = 5.0,
    name: str | None = None,
) -> DeviceTopology:
    """A custom homogeneous cluster; useful for what-if topology studies."""
    return DeviceTopology(
        _grid_devices(num_nodes, gpus_per_node, spec_key),
        _TwoTierPolicy(intra_gbps, intra_lat_us, inter_gbps, inter_lat_us),
        name=name or f"{spec_key}x{num_nodes * gpus_per_node}",
    )

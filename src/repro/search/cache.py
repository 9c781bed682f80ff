"""Strategy fingerprints: stable hashes of whole parallelization strategies.

The persistent :class:`~repro.search.store.StrategyStore` keys every
evaluation by the fingerprint of its strategy, and ``mcmc_search``
computes one per proposal when it has a store.  Since canonical
tie-breaking made the simulated cost a *pure function* of ``(graph,
topology, strategy, training)`` (see :mod:`repro.sim.full_sim`), a
recorded cost answers any later proposal of the same strategy, in this
search or a later one.

Fingerprints are built from BLAKE2b digests of each ``(op id,
ParallelConfig)`` pair and combined with XOR, so they are

* independent of the dict order in which a :class:`Strategy` stores its
  configs (XOR commutes);
* identical across processes and interpreter runs (no dependence on
  ``PYTHONHASHSEED`` -- required for a store shard written by one
  process to answer another);
* updatable in O(group size) per MCMC proposal: XOR out the digests of
  the reconfigured ops, XOR in the new ones (:class:`FingerprintTracker`).

The module also holds a :class:`SimulationCache` stub that nothing
calls: the end-to-end benchmark's tracer still wraps its ``get`` and
``put`` (see the note over it at the end).
"""

from __future__ import annotations

import hashlib
from typing import Iterable

from repro.soap.config import ParallelConfig
from repro.soap.strategy import Strategy

__all__ = [
    "config_digest",
    "strategy_fingerprint",
    "FingerprintTracker",
]

_DIGEST_BYTES = 16  # 128-bit digests: collisions are negligible at any store size


def config_digest(op_id: int, cfg: ParallelConfig) -> int:
    """A stable 128-bit digest of one op's parallelization configuration."""
    h = hashlib.blake2b(digest_size=_DIGEST_BYTES)
    h.update(repr((op_id, cfg.degrees, cfg.devices)).encode())
    return int.from_bytes(h.digest(), "big")


def strategy_fingerprint(strategy: Strategy) -> int:
    """Canonical fingerprint of a whole strategy.

    XOR of the per-op config digests: insensitive to the iteration order
    of the strategy's underlying dict, sensitive to any single-op
    configuration change (up to 128-bit digest collisions).
    """
    fp = 0
    for oid, cfg in strategy.items():
        fp ^= config_digest(oid, cfg)
    return fp


class FingerprintTracker:
    """Incrementally maintained fingerprint of a mutating strategy.

    ``propose`` computes the fingerprint the strategy *would* have after
    reconfiguring a set of ops without touching the tracked state;
    ``commit`` makes a proposed update current.  Cost per proposal is
    O(|ops changed|) instead of O(|strategy|).
    """

    __slots__ = ("_digests", "fingerprint")

    def __init__(self, strategy: Strategy):
        self._digests: dict[int, int] = {
            oid: config_digest(oid, cfg) for oid, cfg in strategy.items()
        }
        fp = 0
        for d in self._digests.values():
            fp ^= d
        self.fingerprint = fp

    def propose(self, op_ids: Iterable[int], cfg: ParallelConfig) -> tuple[int, dict[int, int]]:
        """Fingerprint after setting every op in ``op_ids`` to ``cfg``.

        Returns ``(fingerprint, new_digests)``; pass ``new_digests`` to
        :meth:`commit` to adopt the proposal.
        """
        fp = self.fingerprint
        new_digests: dict[int, int] = {}
        for oid in op_ids:
            d = config_digest(oid, cfg)
            new_digests[oid] = d
            fp ^= self._digests[oid] ^ d
        return fp, new_digests

    def commit(self, fingerprint: int, new_digests: dict[int, int]) -> None:
        self._digests.update(new_digests)
        self.fingerprint = fingerprint


# Removed: the in-memory LRU of simulated costs.  The end-to-end
# benchmark's tracer (benchmarks/e2e/tracing.py) still lists ``get`` and
# ``put`` of this class among its wrap points, and its tests require every
# point to resolve; nothing calls them, so the layers they fed
# (``cache.lookup_ms`` and ``cache.hit_rate``) read 0.  Delete the class
# together with those wrap points.
class SimulationCache:
    """Removed: the in-memory evaluation cache; a store answers proposals."""

    def get(self, *args, **kwargs):
        raise NotImplementedError("the in-memory evaluation cache was removed")

    def put(self, *args, **kwargs):
        raise NotImplementedError("the in-memory evaluation cache was removed")

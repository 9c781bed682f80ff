"""Persistent, process-safe strategy-evaluation store.

Table-4-style sweeps re-search the same ``(model, cluster)`` pair, and
without a store each search redoes every simulation.  This module
persists strategy evaluations across *runs*: an append-only shard file
per search context, safe for concurrent multi-process writers, consulted
by :func:`~repro.search.mcmc.mcmc_search` before it simulates a proposal
and flushed when each chain completes.  It is the only thing that
answers a proposal without the simulator.

Keying
------
A *search context* is a digest of everything the simulated cost depends
on besides the strategy itself: the operator graph (per-op structure
including cost-relevant static attributes and parameter specs), the
device topology (device placement/specs plus the materialized link
policy -- bandwidth, latency, label, and sharing of every directed
pair), the ``training`` flag, the simulation algorithm, the profiler's
noise amplitude, and explicit version constants
(:data:`STORE_FORMAT_VERSION`,
:data:`~repro.profiler.cost_model.COST_MODEL_VERSION`,
:data:`~repro.sim.SIMULATOR_VERSION`).  Bumping a version constant when
the cost model or simulator changes invalidates every stale entry
without touching disk: stale shards simply stop being addressed.

Within a context, entries are keyed by
:func:`~repro.search.cache.strategy_fingerprint`, a stable 128-bit
fingerprint of the whole strategy, so any search of the context can
answer a proposal from an entry another one recorded (costs are pure
functions of the strategy).

Durability model
----------------
One shard file per context, text lines of ``<fingerprint-hex>
<cost-float-hex>``.  A shard is an append-only log: writers append under
an exclusive ``flock``, opening a store only reads its shard (under a
shared lock), and nothing ever rewrites it.  Torn or corrupt lines are
skipped on load (a damaged shard degrades to store misses, it never
crashes a search).  Appends are idempotent: two records of one
fingerprint carry identical costs, and the last one wins on load.
"""

from __future__ import annotations

import hashlib
import io
import os
import threading
import warnings
from dataclasses import dataclass
from pathlib import Path

try:  # POSIX advisory locking; absent on some platforms (degrades gracefully)
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

from repro.ir.graph import OperatorGraph
from repro.machine.topology import DeviceTopology
from repro.profiler.cost_model import COST_MODEL_VERSION
from repro.profiler.profiler import OpProfiler
from repro.sim import SIMULATOR_VERSION

__all__ = [
    "STORE_FORMAT_VERSION",
    "graph_digest",
    "topology_digest",
    "search_context",
    "default_store_root",
    "StoreStats",
    "FileLock",
    "StrategyStore",
]

STORE_FORMAT_VERSION = 1

_HEADER_PREFIX = "#repro-strategy-store"
_DIGEST_CHARS = 32  # 128-bit hex digests for context components
_FP_HEX_CHARS = 32  # fingerprints are 128-bit (repro.search.cache), %032x-encoded


def _blake(parts: list[str]) -> str:
    h = hashlib.blake2b(digest_size=_DIGEST_CHARS // 2)
    for p in parts:
        h.update(p.encode())
        h.update(b"\x00")
    return h.hexdigest()


def graph_digest(graph: OperatorGraph) -> str:
    """Stable structural digest of an operator graph.

    Sensitive to anything that can move a simulated cost: op identity and
    order, op type, output shape, cost-relevant static attributes
    (kernel/stride/..., via ``Operation.static_attrs``), parameter specs,
    weight-sharing groups, and edge wiring.  Unlike
    ``OperatorGraph.signature`` this includes the static attributes, so
    two convolutions differing only in stride key different contexts.
    """
    parts = [f"graph:{graph.name}"]
    for oid in graph.op_ids:
        op = graph.op(oid)
        params = tuple(
            (p.name, p.shape, p.partition_dim, p.axis) for p in op.params
        )
        parts.append(
            repr(
                (
                    oid,
                    type(op).__name__,
                    op.name,
                    op.param_group,
                    op.out_shape,
                    op.static_attrs(),
                    params,
                    graph.inputs_of(oid),
                )
            )
        )
    return _blake(parts)


def topology_digest(topology: DeviceTopology) -> str:
    """Stable digest of a device topology, link model included.

    Materializes the link policy for every directed device pair through
    :meth:`~repro.machine.topology.DeviceTopology.link_spec` (read-only:
    no connection objects are created), so a single changed bandwidth,
    latency, label, or sharing key yields a different digest.  The digest
    is independent of which connections happen to have been lazily
    materialized already -- rebuilding the same topology in any usage
    order keys identically.
    """
    parts = [f"topology:{topology.name}"]
    for d in topology.devices:
        parts.append(repr((d.did, d.kind, d.node, d.index_on_node, d.spec)))
    n = topology.num_devices
    for src in range(n):
        for dst in range(n):
            if src == dst:
                continue
            parts.append(repr((src, dst, topology.link_spec(src, dst))))
    return _blake(parts)


def search_context(
    graph: OperatorGraph,
    topology: DeviceTopology,
    *,
    training: bool = True,
    algorithm: str = "auto",
    profiler: OpProfiler | None = None,
    noise_amplitude: float | None = None,
) -> str:
    """The composite context key addressing one shard of the store.

    Two searches share persisted evaluations iff their contexts are
    equal; everything the cost depends on besides the strategy is folded
    in (see the module docstring).  Pass either ``profiler`` or a bare
    ``noise_amplitude``; both default to the noiseless profiler.

    The built-in timeline algorithms (``auto``/``full``/``delta``)
    produce bit-identical costs (property-tested at ``tol=0`` in
    ``tests/sim``), so they address one shard: a search
    run under ``algorithm="auto"`` warm-starts from evaluations a
    delta- or full-simulation search flushed, and vice versa.  Unknown
    algorithm names still get their own context.
    """
    if noise_amplitude is None:
        noise_amplitude = profiler.noise_amplitude if profiler is not None else 0.0
    from repro.sim.simulator import ALGORITHMS

    if algorithm in ALGORITHMS:
        algorithm = "delta"  # canonical token: keeps delta-era shards warm
    return _blake(
        [
            f"store-v{STORE_FORMAT_VERSION}",
            f"cost-model-v{COST_MODEL_VERSION}",
            f"simulator-v{SIMULATOR_VERSION}",
            graph_digest(graph),
            topology_digest(topology),
            f"training={bool(training)}",
            f"algorithm={algorithm}",
            f"noise={float(noise_amplitude)!r}",
        ]
    )


def default_store_root() -> str | None:
    """``REPRO_CACHE_DIR`` from the environment, or ``None`` (disabled)."""
    root = os.environ.get("REPRO_CACHE_DIR")
    return root or None


@dataclass
class StoreStats:
    """Accounting of one :class:`StrategyStore` (or an aggregate of them)."""

    loaded: int = 0  # entries read from disk at open
    hits: int = 0
    misses: int = 0
    # Hits answered by entries that came from *disk* (the snapshot loaded
    # at open) rather than recorded by this run -- i.e. the cross-run
    # persistence actually paying off.
    warm_hits: int = 0
    appended: int = 0  # new entries flushed to disk
    dropped: int = 0  # corrupt/torn lines skipped during load

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    @property
    def cold_hits(self) -> int:
        """Hits on entries recorded during this run (not from disk)."""
        return self.hits - self.warm_hits

    @property
    def warm_hit_rate(self) -> float:
        return self.warm_hits / self.lookups if self.lookups else 0.0

    @property
    def cold_hit_rate(self) -> float:
        return self.cold_hits / self.lookups if self.lookups else 0.0

    def merge(self, other: "StoreStats") -> "StoreStats":
        return StoreStats(
            loaded=max(self.loaded, other.loaded),
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            warm_hits=self.warm_hits + other.warm_hits,
            appended=self.appended + other.appended,
            dropped=max(self.dropped, other.dropped),
        )


def _parse_record(line: str) -> tuple[int, float] | None:
    """Parse one shard line into ``(fingerprint, cost)``; ``None`` if invalid.

    Strict-format records only: a torn write can truncate a line to a
    *shorter but still parseable* prefix ('0x1.9' from '0x1.91eb...p+13'
    parses to a wildly wrong cost), so both fields must round-trip to
    their canonical encodings exactly.
    """
    fields = line.split()
    if len(fields) != 2 or len(fields[0]) != _FP_HEX_CHARS:
        return None
    try:
        fp = int(fields[0], 16)
        cost = float.fromhex(fields[1])
    except ValueError:
        return None
    if cost != cost or cost < 0.0 or cost.hex() != fields[1]:
        return None
    return fp, cost


class FileLock:
    """``flock``-based advisory lock (no-op where ``fcntl`` is missing).

    Shared by the two append-only logs: strategy-store shards and the
    experiment results table (:mod:`repro.exp.results`).
    """

    def __init__(self, fh, exclusive: bool):
        self._fh = fh
        self._exclusive = exclusive

    def __enter__(self):
        if fcntl is not None:
            fcntl.flock(self._fh.fileno(), fcntl.LOCK_EX if self._exclusive else fcntl.LOCK_SH)
        return self

    def __exit__(self, *exc):
        if fcntl is not None:
            fcntl.flock(self._fh.fileno(), fcntl.LOCK_UN)
        return False


class StrategyStore:
    """One context's persisted fingerprint -> cost map.

    ``get`` answers from an in-memory snapshot loaded once at open (plus
    anything recorded since); ``record`` buffers new evaluations;
    ``flush`` appends the buffer to the shard file under an exclusive
    lock.  Opening only reads the shard, and nothing ever rewrites it: a
    shard holding duplicate records (two handles that both loaded before
    either flushed) loads the last of each, and they carry one cost.
    Opening never raises on a damaged or unwritable shard -- the store
    degrades to an empty (or read-only) one with a ``RuntimeWarning``,
    because a broken store must never take down a search.
    """

    def __init__(self, root: str | os.PathLike, context: str):
        # expanduser: config files and CLI flags routinely say "~/.cache/...";
        # without it the shards land in a literal cwd-relative "~" directory.
        self.root = Path(root).expanduser()
        self.context = context
        self.path = self.root / f"{context}.shard"
        self.stats = StoreStats()
        # Guards the mutating operations (record/flush) so threads may
        # share one handle.  get() stays lock-free: a plain dict read is
        # atomic under the GIL and sits on the per-proposal hot path.
        self._lock = threading.Lock()
        self._snapshot: dict[int, float] = {}
        self._pending: dict[int, float] = {}
        # Fingerprints whose value came from disk -- hits on these count
        # as *warm* hits.
        self._warm: set[int] = set()
        self._writable = True
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            warnings.warn(
                f"strategy store root {self.root} is unusable ({exc}); persistence disabled",
                RuntimeWarning,
                stacklevel=2,
            )
            self._writable = False
        self._load()

    # -- reading -----------------------------------------------------------
    def _parse(self, stream: io.TextIOBase) -> None:
        first = True
        for line in stream:
            if first:
                first = False
                if line.startswith(_HEADER_PREFIX):
                    continue  # header is informational; fall through otherwise
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            record = _parse_record(line)
            if record is None:
                self.stats.dropped += 1
                continue
            self._snapshot[record[0]] = record[1]

    def _load(self) -> None:
        try:
            with open(self.path, "r", encoding="utf-8", errors="replace") as fh:
                with FileLock(fh, exclusive=False):
                    self._parse(fh)
        except FileNotFoundError:
            pass  # nothing persisted yet: an empty store
        except OSError as exc:
            warnings.warn(
                f"strategy store shard {self.path} unreadable ({exc}); starting empty",
                RuntimeWarning,
                stacklevel=2,
            )
        # Everything loaded came from disk: hits on it are warm hits.
        self._warm.update(self._snapshot)
        self.stats.loaded = len(self._snapshot)

    # -- lookup / record ---------------------------------------------------
    def __len__(self) -> int:
        return len(self._snapshot)

    def __contains__(self, fingerprint: int) -> bool:
        return fingerprint in self._snapshot

    def get(self, fingerprint: int) -> float | None:
        cost = self._snapshot.get(fingerprint)
        if cost is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        if fingerprint in self._warm:
            self.stats.warm_hits += 1
        return cost

    def record(self, fingerprint: int, cost_us: float) -> None:
        """Buffer one evaluation for the next :meth:`flush`."""
        with self._lock:
            if fingerprint in self._snapshot:
                return
            self._snapshot[fingerprint] = cost_us
            self._pending[fingerprint] = cost_us

    # -- writing -----------------------------------------------------------
    # Test seam: called after the shard is opened but *before* the
    # exclusive lock is taken, so regression tests can deterministically
    # interleave two first-flushes (tests/search/test_store.py).
    _flush_barrier = None

    def flush(self) -> int:
        """Append buffered evaluations to the shard file; returns the count.

        Safe under concurrent writers: the whole batch is appended under
        an exclusive lock, to a file opened in append mode, so records
        from different processes interleave at line granularity at worst.
        Whether this writer owes the shard its header line is decided
        *inside* the lock, from ``os.fstat`` of the locked handle -- a
        pre-lock ``exists()``/``stat()`` check races other first-flushers
        (two processes can both conclude "fresh" and both write the
        header, or land one mid-file after the other's batch).
        """
        with self._lock:
            if not self._pending or not self._writable:
                self._pending.clear()
                return 0
            pending, self._pending = self._pending, {}
        try:
            with open(self.path, "a", encoding="utf-8") as fh:
                if self._flush_barrier is not None:
                    self._flush_barrier()
                with FileLock(fh, exclusive=True):
                    if os.fstat(fh.fileno()).st_size == 0:
                        fh.write(f"{_HEADER_PREFIX} v{STORE_FORMAT_VERSION} ctx={self.context}\n")
                    else:
                        # A pre-existing file may end mid-line (torn write,
                        # foreign garbage): start the batch on a fresh line
                        # -- blank lines are skipped on load.
                        fh.write("\n")
                    for fp, cost in pending.items():
                        fh.write(f"{fp:032x} {float(cost).hex()}\n")
                    fh.flush()
        except OSError as exc:
            warnings.warn(
                f"strategy store flush to {self.path} failed ({exc}); "
                f"{len(pending)} entries kept in memory only",
                RuntimeWarning,
                stacklevel=2,
            )
            self._writable = False
            return 0
        self.stats.appended += len(pending)
        return len(pending)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StrategyStore({str(self.path)!r}, entries={len(self)})"

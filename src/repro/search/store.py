"""Persistent, process-safe strategy-evaluation store.

The in-memory :class:`~repro.search.cache.SimulationCache` dies with its
worker process, so Table-4-style sweeps that re-search the same
``(model, cluster)`` pair redo every simulation.  This module persists
strategy evaluations across *runs*: an append-only shard file per search
context, safe for concurrent multi-process writers, consulted by
:func:`~repro.search.mcmc.mcmc_search` and flushed by pool workers when a
chain completes.

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
:func:`~repro.search.cache.strategy_fingerprint` -- the same stable
128-bit fingerprint the in-memory cache uses -- so a store hit and a
cache hit are interchangeable (costs are pure functions of the
strategy).

Durability model
----------------
One shard file per context, text lines of ``<fingerprint-hex>
<cost-float-hex>``.  Writers append under an exclusive ``flock``;
readers take a shared lock and tolerate torn or corrupt lines by
skipping them (a damaged shard degrades to cache misses, it never
crashes a search).  Appends are idempotent: duplicate fingerprints carry
identical costs, last-in wins on load.
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
    "AUTO_COMPACT_MIN_BYTES",
    "AUTO_COMPACT_MIN_RECORDS",
    "AUTO_COMPACT_DUP_RATIO",
    "graph_digest",
    "topology_digest",
    "search_context",
    "default_store_root",
    "StoreStats",
    "CompactionStats",
    "StrategyStore",
    "MemoryStore",
    "shared_store",
    "flush_shared_stores",
]

STORE_FORMAT_VERSION = 1

# Scheduled compaction thresholds: a shard with duplicate records
# (concurrent writers re-flushing the same evaluations) is rewritten at
# open when it exceeds the size floor, or when enough of its records are
# duplicates for the rewrite to pay for itself.  Small shards and shards
# with nothing to reclaim are never touched.
AUTO_COMPACT_MIN_BYTES = 4 << 20
AUTO_COMPACT_MIN_RECORDS = 64
AUTO_COMPACT_DUP_RATIO = 0.5

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
    # at open, or merged by a reload) rather than recorded by this run --
    # i.e. the cross-run persistence actually paying off.
    warm_hits: int = 0
    appended: int = 0  # new entries flushed to disk
    dropped: int = 0  # corrupt/torn lines skipped during load
    # Entries merged mid-session from fleet gossip (the coordinator's
    # ``store_delta`` frames; see repro.search.exec.distributed).  Only
    # the remote MemoryStore overlays ever see these; like ``loaded``
    # they are a per-open fact, and hits on them count as warm.
    gossiped: int = 0
    # Scheduled compaction at open (see AUTO_COMPACT_*): sweeps run and
    # bytes they reclaimed, so long-lived caches report their upkeep.
    auto_compactions: int = 0
    compaction_bytes_saved: int = 0

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
            # Like loaded/dropped these are per-open facts, not per-chain
            # deltas: chains sharing one store handle must not double-count.
            gossiped=max(self.gossiped, other.gossiped),
            auto_compactions=max(self.auto_compactions, other.auto_compactions),
            compaction_bytes_saved=max(
                self.compaction_bytes_saved, other.compaction_bytes_saved
            ),
        )


@dataclass
class CompactionStats:
    """Outcome of one :meth:`StrategyStore.compact` sweep."""

    kept: int = 0  # unique entries surviving the rewrite
    duplicates_dropped: int = 0  # redundant records removed
    corrupt_dropped: int = 0  # unparseable lines removed
    bytes_before: int = 0
    bytes_after: int = 0

    @property
    def bytes_saved(self) -> int:
        return max(0, self.bytes_before - self.bytes_after)


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


class _FileLock:
    """``flock``-based advisory lock (no-op where ``fcntl`` is missing)."""

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
    lock.  Opening never raises on a damaged or unwritable shard -- the
    store degrades to an empty (or read-only) one with a
    ``RuntimeWarning``, because a broken cache must never take down a
    search.
    """

    def __init__(self, root: str | os.PathLike, context: str, *, auto_compact: bool = True):
        # expanduser: config files and CLI flags routinely say "~/.cache/...";
        # without it the shards land in a literal cwd-relative "~" directory.
        self.root = Path(root).expanduser()
        self.context = context
        self.path = self.root / f"{context}.shard"
        self.stats = StoreStats()
        # Guards the mutating/iterating operations (record/entries/flush)
        # so one handle can be shared by concurrent searches in threads
        # (the planning server's resident shards; see shared_store()).
        # get() stays lock-free: a plain dict read is atomic under the GIL
        # and sits on the per-proposal hot path.
        self._lock = threading.Lock()
        self._snapshot: dict[int, float] = {}
        self._pending: dict[int, float] = {}
        # Fingerprints whose value came from disk (initial load or a
        # reload merge) -- hits on these count as *warm* hits.
        self._warm: set[int] = set()
        # (st_size, st_mtime_ns) of the shard as of the last read, so
        # reload() can skip re-parsing an unchanged file; None = unknown.
        self._disk_state: tuple[int, int] | None = None
        # Valid records parsed by the last _load (duplicates included) --
        # the duplicate-ratio input of the scheduled-compaction check.
        self._load_records = 0
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
        if auto_compact:
            self._maybe_auto_compact()

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
            self._load_records += 1
            self._snapshot[record[0]] = record[1]

    def _load(self) -> None:
        before = set(self._snapshot)
        self._load_records = 0
        try:
            with open(self.path, "r", encoding="utf-8", errors="replace") as fh:
                with _FileLock(fh, exclusive=False):
                    self._parse(fh)
                    # Captured under the shared lock, so the recorded
                    # state matches exactly what was parsed.
                    st = os.fstat(fh.fileno())
                    self._disk_state = (st.st_size, st.st_mtime_ns)
        except FileNotFoundError:
            self._disk_state = None
        except OSError as exc:
            self._disk_state = None
            warnings.warn(
                f"strategy store shard {self.path} unreadable ({exc}); starting empty",
                RuntimeWarning,
                stacklevel=2,
            )
        # Entries we did not already know about came from disk: hits on
        # them are warm hits.  Our own recorded entries stay cold even
        # after a flush + reload round-trip (they are in ``before``).
        self._warm.update(fp for fp in self._snapshot if fp not in before)
        self.stats.loaded = len(self._snapshot)

    def reload(self) -> int:
        """Merge entries appended by other processes since open.

        Cheap when nothing changed: the shard's ``(size, mtime)`` is
        compared against the state recorded by the last read, and an
        unchanged file skips the re-parse entirely -- so a search can
        poll ``reload()`` periodically without rescanning a large shard
        every time.
        """
        if self._disk_state is not None:
            try:
                st = os.stat(self.path)
                if (st.st_size, st.st_mtime_ns) == self._disk_state:
                    return 0
            except OSError:
                pass  # vanished or unstatable: fall through to the full load
        before = len(self._snapshot)
        self._load()
        return len(self._snapshot) - before

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

    def entries(self) -> list[tuple[int, float]]:
        """Every known ``(fingerprint, cost)`` pair (snapshot + recorded).

        The payload the distributed coordinator ships to remote workers,
        which see this store only through that snapshot (no shared
        filesystem; see :class:`MemoryStore`).
        """
        with self._lock:
            return list(self._snapshot.items())

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
                with _FileLock(fh, exclusive=True):
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
        self._disk_state = None  # our append changed the file; force re-stat
        return len(pending)

    def _maybe_auto_compact(self) -> None:
        """Scheduled compaction: rewrite an overgrown shard right at open.

        Shards only ever append during searches, so without an operator
        running :meth:`compact` by hand a long-lived cache grows past its
        information content.  Opening is the natural trigger point: every
        search passes through it, the rewrite runs at most once per open,
        and the thresholds keep small or duplicate-free shards untouched.
        """
        if not self._writable or self._disk_state is None:
            return
        size = self._disk_state[0]
        records = self._load_records
        duplicates = records - len(self._snapshot)
        if duplicates <= 0:
            # Nothing reclaimable: a rewrite would change no bytes but
            # still repeat at every open (and an all-unique shard can
            # never shrink below any size threshold).
            return
        dup_heavy = (
            records >= AUTO_COMPACT_MIN_RECORDS
            and duplicates / records >= AUTO_COMPACT_DUP_RATIO
        )
        if size < AUTO_COMPACT_MIN_BYTES and not dup_heavy:
            return
        swept = self.compact()
        self.stats.auto_compactions += 1
        self.stats.compaction_bytes_saved += swept.bytes_saved

    def compact(self) -> CompactionStats:
        """Rewrite the shard in place, dropping duplicate fingerprints.

        Shards only ever append during searches: concurrent writers can
        each flush the same fingerprint, and every batch adds separator
        lines, so a long-lived shard grows past its information content
        (the ROADMAP's "shards only append" item).  Compaction re-reads
        the file under the *exclusive* lock (no reader or writer can
        interleave), keeps the last record per fingerprint, and rewrites
        header + unique records.  Corrupt lines are dropped for good.
        Like every other store operation it degrades instead of raising:
        a missing or unwritable shard returns an all-zero
        :class:`CompactionStats` with a ``RuntimeWarning``.
        """
        try:
            with open(self.path, "r+", encoding="utf-8", errors="replace") as fh:
                with _FileLock(fh, exclusive=True):
                    bytes_before = os.fstat(fh.fileno()).st_size
                    entries: dict[int, float] = {}
                    records = corrupt = 0
                    for line in fh:
                        line = line.strip()
                        if not line or line.startswith("#"):
                            continue  # headers/separators are not records
                        record = _parse_record(line)
                        if record is None:
                            corrupt += 1
                            continue
                        records += 1
                        entries[record[0]] = record[1]
                    fh.seek(0)
                    fh.truncate()
                    fh.write(f"{_HEADER_PREFIX} v{STORE_FORMAT_VERSION} ctx={self.context}\n")
                    for fp, cost in entries.items():
                        fh.write(f"{fp:032x} {float(cost).hex()}\n")
                    fh.flush()
                    bytes_after = os.fstat(fh.fileno()).st_size
        except FileNotFoundError:
            return CompactionStats()  # nothing persisted yet: a no-op sweep
        except OSError as exc:
            warnings.warn(
                f"strategy store compaction of {self.path} failed ({exc}); shard left as-is",
                RuntimeWarning,
                stacklevel=2,
            )
            return CompactionStats()
        # The rewrite is the authoritative disk state; fold it into the
        # snapshot (disk-sourced entries count as warm, as in _load).
        self._warm.update(fp for fp in entries if fp not in self._snapshot)
        self._snapshot.update(entries)
        self._disk_state = None  # the rewrite changed the file; force re-stat
        return CompactionStats(
            kept=len(entries),
            duplicates_dropped=records - len(entries),
            corrupt_dropped=corrupt,
            bytes_before=bytes_before,
            bytes_after=bytes_after,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StrategyStore({str(self.path)!r}, entries={len(self)})"


class MemoryStore:
    """In-memory store overlay for workers with no shared filesystem.

    Implements the same consult/record/flush surface as
    :class:`StrategyStore` (so :func:`~repro.search.mcmc.mcmc_search` and
    :func:`~repro.search.exec.base.run_one_chain` cannot tell them
    apart), but persists nothing locally: it is seeded from a snapshot of
    the coordinator's entries (which count as warm, exactly like
    disk-loaded entries), and everything recorded since the last drain
    sits in an outbox that the worker daemon ships back with each chain
    result for the *coordinator* to flush -- the remote-flush path for
    clusters without NFS.
    """

    def __init__(self, entries=()):
        self.stats = StoreStats()
        items = entries.items() if isinstance(entries, dict) else entries
        self._snapshot: dict[int, float] = {int(fp): float(cost) for fp, cost in items}
        self._warm: set[int] = set(self._snapshot)
        self._pending: dict[int, float] = {}
        self._outbox: dict[int, float] = {}
        self.stats.loaded = len(self._snapshot)

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
        if fingerprint in self._snapshot:
            return
        self._snapshot[fingerprint] = cost_us
        self._pending[fingerprint] = cost_us

    def flush(self) -> int:
        """Stage pending evaluations into the outbox; returns the count.

        "Durability" here means *handed to the transport*: the worker
        drains the outbox into its next result message, and real
        persistence happens when the coordinator flushes its
        :class:`StrategyStore`.
        """
        n = len(self._pending)
        self._outbox.update(self._pending)
        self._pending.clear()
        self.stats.appended += n
        return n

    def drain_outbox(self) -> list[tuple[int, float]]:
        """Flushed-but-unshipped evaluations, clearing the outbox."""
        out = list(self._outbox.items())
        self._outbox.clear()
        return out

    def merge_snapshot(self, entries) -> int:
        """Fold fleet-gossiped evaluations in as warm entries; returns the
        number actually new.

        The coordinator forwards one worker's shipped evaluations to the
        rest of the fleet as ``store_delta`` frames mid-session; merged
        entries behave exactly like the start-of-session snapshot (warm
        hits, never re-shipped).  Called from the daemon's connection
        reader while chain threads consult the store concurrently --
        safe because each operation is a single dict/set mutation (no
        invariant spans two of them) and costs are pure functions of the
        fingerprint, so a racing reader sees either a miss or the same
        value a later hit would return.
        """
        added = 0
        for fp, cost in entries:
            fp = int(fp)
            if fp in self._snapshot:
                continue
            self._snapshot[fp] = float(cost)
            self._warm.add(fp)
            added += 1
        self.stats.gossiped += added
        return added

    def entries(self) -> list[tuple[int, float]]:
        return list(self._snapshot.items())

    def reload(self) -> int:
        """No backing file to merge from; present for interface parity."""
        return 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MemoryStore(entries={len(self)}, outbox={len(self._outbox)})"


# -- shared open-shard handles -------------------------------------------------
# A long-running process serving many searches over the same context (the
# repro.plan.serve daemon) should not re-open and re-parse the shard per
# request: opening is a mkdir + full file read + possible compaction sweep.
# The registry below interns one StrategyStore per (root, context) for the
# life of the process; reuse is a dict hit plus a cheap (size, mtime)
# reload check that merges foreign appends.

_SHARED_STORES: dict[tuple[str, str], StrategyStore] = {}
_SHARED_STORES_LOCK = threading.Lock()


def shared_store(root: str | os.PathLike, context: str) -> StrategyStore:
    """A process-wide shared handle on one shard, opened at most once.

    First call per ``(root, context)`` opens the shard from disk exactly
    like ``StrategyStore(root, context)``; later calls return the same
    (thread-safe) handle after a :meth:`StrategyStore.reload` -- which is
    a single ``stat`` when no other process has appended.  Accounting
    consequence: the handle's :class:`StoreStats` accumulate across every
    search that shares it, and entries recorded by *this process* stay
    cold hits forever -- callers wanting per-search numbers must diff
    stats around their run (as :func:`~repro.search.exec.base.run_one_chain`
    already does).
    """
    key = (os.fspath(Path(root).expanduser()), context)
    with _SHARED_STORES_LOCK:
        store = _SHARED_STORES.get(key)
        if store is None:
            store = StrategyStore(root, context)
            _SHARED_STORES[key] = store
            return store
    store.reload()
    return store


def flush_shared_stores() -> int:
    """Flush every shared handle; returns the entries written.

    The planning server's drain path: buffered evaluations from in-flight
    searches must reach disk before the process exits.
    """
    with _SHARED_STORES_LOCK:
        stores = list(_SHARED_STORES.values())
    return sum(s.flush() for s in stores)

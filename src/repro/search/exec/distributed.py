"""Distributed chain executor: dispatch ChainSpecs to worker daemons.

The coordinator connects to a cluster of ``python -m repro.search.worker``
daemons (``ExecutionContext.cluster``, ``"host:port"`` strings), ships the
problem environment once per worker, then streams chains out and results
back over the length-prefixed protocol of
:mod:`repro.search.exec.protocol`:

* **Dispatch.**  Each worker runs one chain at a time; the coordinator
  keeps every worker busy while undispatched chains remain and collects
  :class:`~repro.search.exec.base.ChainResult`\\ s in spec order.
* **Early-stop broadcast.**  Workers publish improved best costs
  upstream; the coordinator re-broadcasts them to the rest of the fleet,
  so a met target stops remote chains exactly like the shared-memory
  path stops pool chains.
* **Fault tolerance.**  A worker that dies mid-chain (EOF, reset, or a
  garbage frame) is dropped and its in-flight chain re-queued on a
  surviving worker -- sound because chains are pure functions of their
  spec, so a re-run is bit-identical to the lost run.  A worker that
  stays alive but *errors* a chain gets the same benefit of the doubt
  once: the chain is retried on a different worker
  (``DispatchStats.chain_retries``) before a second failure raises, since
  the cause may be worker-local (OOM, disk) rather than the chain itself.
  Only when *every* worker is gone does the search fail.
* **Remote store flush.**  Workers have no shared filesystem: they
  receive a snapshot of the coordinator's persistent
  :class:`~repro.search.store.StrategyStore` entries with the
  environment, evaluate against an in-memory overlay, and ship newly
  recorded evaluations back with each result.  The coordinator records
  and flushes them into its own store -- the remote-flush path that
  makes cross-run persistence work without NFS.
* **Mid-search join.**  With ``ExecutionContext.join_bind`` set, the
  coordinator opens a *registration listener* (address published in its
  ``hello`` frames and on :attr:`DistributedExecutor.join_address`).  A
  fresh ``python -m repro.search.worker --join host:port`` daemon
  announces itself there; the coordinator connects back to the
  advertised address, ships the environment plus a *current* store
  snapshot, and the joiner immediately steals queued chains
  (``DispatchStats.workers_joined`` / ``stolen_chains``).
* **Evaluation gossip.**  Evaluations one worker ships home are not
  just flushed locally: the coordinator forwards them to the rest of
  the fleet as incremental ``store_delta`` frames, which workers merge
  into their :class:`~repro.search.store.MemoryStore` overlays as warm
  entries -- sibling chains get warm hits mid-session instead of
  re-simulating strategies the fleet has already costed.
* **Adaptive budget transport.**  Chains with
  ``MCMCConfig.adaptive=True`` share an iteration-budget pool hosted on
  the coordinator: workers send ``budget_deposit`` frames when a chain
  stalls and ``budget_withdraw`` requests (answered by
  ``budget_grant``) while improving, mirroring the shared-memory pool
  of the local executors across the wire.

Determinism: with ``early_stop_cost=None`` and adaptive budgets off the
results are bit-identical to the in-process and pool executors for the
same specs, regardless of cluster size, dispatch order, mid-search
worker deaths, or mid-search worker joins (chains are pure functions of
their specs; gossip only changes which host simulates first).  Adaptive
budgets remain the opt-in timing-dependent feature they are locally.
"""

from __future__ import annotations

import selectors
import socket
import warnings
from collections import deque
from dataclasses import dataclass, field

from repro.search.exec.base import (
    ChainResult,
    ChainSpec,
    ExecutionContext,
    LocalBudget,
)
from repro.search.exec.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    VersionMismatchError,
    recv_msg,
    send_msg,
)
from repro.search.store import StrategyStore, shared_store

__all__ = [
    "ClusterSpec",
    "DispatchStats",
    "DistributedExecutor",
    "accept_join",
    "dedupe_cluster",
    "parse_address",
    "parse_cluster",
]

_CONNECT_TIMEOUT_S = 10.0
_HANDSHAKE_TIMEOUT_S = 30.0
# A join registration is three small frames on a fresh connection; a
# joiner that stalls longer than this (see accept_join) must not hold up
# the search loop or the planning server's registration thread.
JOIN_TIMEOUT_S = 10.0


def parse_address(addr: str, *, allow_ephemeral: bool = False) -> tuple[str, int]:
    """``"host:port"`` -> ``(host, port)``; loud on malformed entries.

    The port must be an integer in 1-65535 (``host:abc`` used to leak a
    raw ``int()`` ValueError, and nonsense ports like 0 or 70000 were
    silently accepted and only failed much later at connect time).
    ``allow_ephemeral`` additionally admits port 0 for *bind* addresses
    where the kernel picks the port (e.g. a registration listener).
    """
    host, sep, port = addr.rpartition(":")
    if not sep or not host:
        raise ValueError(f"cluster address {addr!r} is not of the form host:port")
    try:
        port_n = int(port)
    except ValueError:
        raise ValueError(
            f"cluster address {addr!r} is not of the form host:port "
            f"(port {port!r} is not an integer)"
        ) from None
    if not ((0 if allow_ephemeral else 1) <= port_n <= 65535):
        raise ValueError(
            f"cluster address {addr!r} is not of the form host:port "
            f"(port {port_n} is outside 1-65535)"
        )
    return host, port_n


@dataclass(frozen=True)
class ClusterSpec:
    """One cluster entry: a worker address plus an optional capacity cap.

    The wire format stays a plain string (``ExecutionConfig.cluster`` and
    ``REPRO_CLUSTER`` round-trip through JSON unchanged): ``"host:port"``
    accepts whatever concurrency the daemon announces (its
    ``--capacity``), ``"host:port*N"`` additionally caps the chains this
    coordinator keeps in flight there at ``N`` -- the effective capacity
    is ``min(announced, cap)``, never below 1.
    """

    address: str
    cap: int | None = None

    @classmethod
    def parse(cls, entry: str) -> "ClusterSpec":
        addr, sep, cap = entry.partition("*")
        parse_address(addr)  # validate eagerly
        if not sep:
            return cls(address=addr)
        try:
            cap_n = int(cap)
        except ValueError:
            cap_n = 0
        if cap_n < 1:
            raise ValueError(
                f"cluster entry {entry!r}: capacity cap must be a positive "
                "integer (form host:port*N)"
            )
        return cls(address=addr, cap=cap_n)

    def effective_capacity(self, announced: int) -> int:
        cap = max(1, int(announced))
        if self.cap is not None:
            cap = min(cap, self.cap)
        return cap


def accept_join(conn: socket.socket) -> str:
    """Answer one ``join`` registration on ``conn`` and close it.

    The handshake of every registration listener (the distributed
    coordinator's and the planning server's): read the ``join`` frame,
    check its protocol version, require an ``advertise`` address and
    validate it, then send ``join_ack``.  A refused join gets a
    ``join_ack`` whose ``error`` says why (naming both versions on a
    mismatch) and raises :class:`VersionMismatchError` or
    :class:`ProtocolError`; a malformed address raises ``ValueError``
    and a dead connection ``OSError``.  Returns the advertised
    ``host:port[*N]`` entry.
    """
    try:
        conn.settimeout(JOIN_TIMEOUT_S)
        msg = recv_msg(conn)
        if msg is None or msg.get("type") != "join":
            raise ProtocolError(f"expected join, got {msg!r}")
        ack = {"type": "join_ack", "version": PROTOCOL_VERSION}
        if msg.get("version") != PROTOCOL_VERSION:
            ack["error"] = (
                f"worker speaks protocol v{msg.get('version')}, "
                f"registration listener speaks v{PROTOCOL_VERSION}"
            )
            send_msg(conn, ack)
            raise VersionMismatchError(ack["error"])
        advertise = str(msg.get("advertise") or "")
        if not advertise:
            ack["error"] = (
                "join carries no advertise address (start the worker "
                "with --bind and --join)"
            )
            send_msg(conn, ack)
            raise ProtocolError(ack["error"])
        ClusterSpec.parse(advertise)  # validate before acking
        send_msg(conn, ack)
        return advertise
    finally:
        try:
            conn.close()
        except OSError:
            pass


def dedupe_cluster(entries) -> tuple[str, ...]:
    """Drop repeated addresses from a cluster list, warning per duplicate.

    A worker daemon serves one coordinator session at a time, so a second
    connection to the same ``host:port`` parks in the daemon's listen
    backlog until the 30s handshake timeout -- listing an address twice
    used to stall every run by that much.  Order is preserved; the first
    entry for an address wins (caps included: ``host:port*2,host:port``
    keeps the ``*2`` cap).
    """
    kept: list[str] = []
    seen: set[str] = set()
    for entry in entries:
        addr = ClusterSpec.parse(entry).address
        if addr in seen:
            warnings.warn(
                f"duplicate cluster entry {entry!r} dropped: a worker daemon "
                "serves one coordinator session at a time, so a second "
                f"connection to {addr} would hang until the handshake timeout",
                RuntimeWarning,
                stacklevel=3,
            )
            continue
        seen.add(addr)
        kept.append(entry)
    return tuple(kept)


def parse_cluster(spec: str) -> tuple[str, ...]:
    """A comma-separated ``host:port[*N]`` list (the ``REPRO_CLUSTER`` format)."""
    addrs = tuple(a.strip() for a in spec.split(",") if a.strip())
    for a in addrs:
        ClusterSpec.parse(a)  # validate eagerly
    return dedupe_cluster(addrs)


@dataclass
class DispatchStats:
    """Observability of one distributed run (exposed for tests/benches)."""

    workers_connected: int = 0
    workers_failed: int = 0  # never completed the handshake
    workers_died: int = 0  # lost after handshake
    requeued_chains: int = 0
    # Chains whose worker replied "error" and that were re-run once on a
    # different worker (worker-local failures: OOM, disk, a path that
    # only exists on the coordinator).  A chain failing twice still
    # raises.
    chain_retries: int = 0
    evals_flushed: int = 0  # remote evaluations recorded into the local store
    best_broadcasts: int = 0
    total_capacity: int = 0  # sum of effective per-worker chain capacities
    dead_addresses: list[str] = field(default_factory=list)
    # Elasticity (protocol v2): workers that announced themselves on the
    # registration listener mid-search, and the chains they were handed
    # out of the queue.
    workers_joined: int = 0
    stolen_chains: int = 0
    # Evaluation gossip: store_delta frames forwarded to the fleet and
    # the evaluations they carried.
    gossip_messages: int = 0
    gossip_entries: int = 0
    # Adaptive budget transport: iterations deposited into / granted out
    # of the coordinator-side pool.
    budget_deposited: int = 0
    budget_granted: int = 0


class _Worker:
    """Coordinator-side handle of one connected daemon."""

    __slots__ = ("addr", "sock", "tasks", "pid", "capacity", "joined")

    def __init__(
        self,
        addr: str,
        sock: socket.socket,
        pid: int,
        capacity: int = 1,
        joined: bool = False,
    ):
        self.addr = addr
        self.sock = sock
        self.tasks: set[int] = set()  # indexes of the in-flight chains
        self.pid = pid
        self.capacity = max(1, capacity)
        self.joined = joined  # announced mid-search (chains it gets are "stolen")


class DistributedExecutor:
    """Fan chains out to remote worker daemons over sockets."""

    name = "distributed"

    def __init__(self) -> None:
        self.stats = DispatchStats()
        # "host:port" of the registration listener once run() binds it
        # (None when ctx.join_bind is unset or before run() starts).
        self.join_address: str | None = None

    # -- connection management ---------------------------------------------
    def _connect(
        self, entry: str, ctx: ExecutionContext, store_entries, *, joined: bool = False
    ) -> _Worker:
        spec = ClusterSpec.parse(entry)
        host, port = parse_address(spec.address)
        sock = socket.create_connection((host, port), timeout=_CONNECT_TIMEOUT_S)
        sock.settimeout(_HANDSHAKE_TIMEOUT_S)
        # The registration address rides in the hello so every worker
        # (and its logs) knows where siblings can join this search.
        send_msg(
            sock,
            {"type": "hello", "version": PROTOCOL_VERSION, "join": self.join_address},
        )
        ack = recv_msg(sock)
        if ack is None or ack.get("type") != "hello_ack":
            raise ProtocolError(f"worker {entry} did not acknowledge the handshake: {ack!r}")
        if ack.get("version") != PROTOCOL_VERSION:
            raise VersionMismatchError(
                f"worker {entry} speaks protocol v{ack.get('version')}, "
                f"coordinator speaks v{PROTOCOL_VERSION}"
            )
        send_msg(
            sock,
            {"type": "env", "ctx": ctx, "store_entries": store_entries},
            pickled=True,
        )
        # Chains can legitimately run for minutes: worker liveness is
        # detected by EOF/reset, not by read timeouts.
        sock.settimeout(None)
        capacity = spec.effective_capacity(int(ack.get("capacity", 1)))
        return _Worker(spec.address, sock, int(ack.get("pid", 0)), capacity, joined=joined)

    def _drop(self, worker: _Worker, sel: selectors.BaseSelector, queue: deque) -> None:
        """Forget a dead worker, re-queueing its in-flight chains."""
        try:
            sel.unregister(worker.sock)
        except (KeyError, ValueError):
            pass
        try:
            worker.sock.close()
        except OSError:
            pass
        self.stats.workers_died += 1
        self.stats.dead_addresses.append(worker.addr)
        # Chains are pure: re-runs on surviving workers return the
        # bit-identical results the dead worker would have.
        for task in sorted(worker.tasks, reverse=True):
            queue.appendleft(task)
            self.stats.requeued_chains += 1
        worker.tasks.clear()

    def _accept_join(
        self,
        listener: socket.socket,
        ctx: ExecutionContext,
        store: StrategyStore | None,
        workers: list[_Worker],
        sel: selectors.BaseSelector,
    ) -> None:
        """One registration on the join listener: handshake, connect back.

        A bad joiner (garbage, version mismatch, unreachable advertise
        address) is warned about and dropped -- it must never kill a
        running search the way a stale *configured* worker does.
        """
        try:
            conn, addr = listener.accept()
        except OSError:
            return
        peer = f"{addr[0]}:{addr[1]}"
        try:
            advertise = accept_join(conn)
            if any(w.addr == ClusterSpec.parse(advertise).address for w in workers):
                raise ProtocolError(
                    f"advertised address {advertise} is already in the fleet"
                )
            # Connect back exactly like to a fixed-fleet worker, with the
            # *current* store snapshot (start-of-session entries plus
            # everything the fleet flushed since).
            w = self._connect(
                advertise,
                ctx,
                store.entries() if store is not None else [],
                joined=True,
            )
        except (OSError, ProtocolError, ValueError) as exc:
            warnings.warn(
                f"worker join from {peer} failed ({exc!r}); continuing without it",
                RuntimeWarning,
                stacklevel=4,
            )
            return
        workers.append(w)
        sel.register(w.sock, selectors.EVENT_READ, w)
        self.stats.workers_joined += 1
        self.stats.total_capacity += w.capacity

    # -- main loop ---------------------------------------------------------
    def run(self, ctx: ExecutionContext, specs: list[ChainSpec]) -> list[ChainResult]:
        if not ctx.cluster:
            raise ValueError(
                "the distributed executor needs a cluster: set "
                "ExecutionConfig(cluster=[\"host:port\", ...]) or REPRO_CLUSTER"
            )
        # Coordinator-side iteration-budget pool: remote stalled chains
        # deposit into it, remote improving chains withdraw from it --
        # the wire mirror of the local executors' shared-memory pool.
        budget = LocalBudget()

        store: StrategyStore | None = None
        store_entries: list[tuple[int, float]] = []
        if ctx.store_root is not None and ctx.store_context is not None:
            store = (
                shared_store(ctx.store_root, ctx.store_context)
                if ctx.store_shared
                else StrategyStore(ctx.store_root, ctx.store_context)
            )
            store_entries = store.entries()

        # Bind the registration listener *before* the fixed fleet
        # connects, so every hello already carries the join address.
        listener: socket.socket | None = None
        if ctx.join_bind is not None:
            jhost, jport = parse_address(ctx.join_bind, allow_ephemeral=True)
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((jhost, jport))
            listener.listen(8)
            self.join_address = f"{jhost}:{listener.getsockname()[1]}"

        workers: list[_Worker] = []
        for addr in dedupe_cluster(ctx.cluster):
            try:
                workers.append(self._connect(addr, ctx, store_entries))
            except VersionMismatchError:
                # A stale daemon is a deployment error: fail the whole
                # search loudly instead of quietly degrading the fleet.
                if listener is not None:
                    listener.close()
                raise
            except (OSError, ProtocolError) as exc:
                self.stats.workers_failed += 1
                self.stats.dead_addresses.append(addr)
                warnings.warn(
                    f"distributed worker {addr} unavailable ({exc!r}); continuing without it",
                    RuntimeWarning,
                    stacklevel=2,
                )
        if not workers:
            if listener is not None:
                listener.close()
            raise RuntimeError(
                f"no distributed workers reachable in cluster {list(ctx.cluster)}"
            )
        self.stats.workers_connected = len(workers)
        self.stats.total_capacity = sum(w.capacity for w in workers)

        sel = selectors.DefaultSelector()
        for w in workers:
            sel.register(w.sock, selectors.EVENT_READ, w)
        if listener is not None:
            # data=None marks the listener; every other key carries its
            # _Worker handle.
            sel.register(listener, selectors.EVENT_READ, None)

        queue: deque[int] = deque(range(len(specs)))
        results: list[ChainResult | None] = [None] * len(specs)
        done = 0
        best_cost = float("inf")
        # task -> address of the worker whose "error" reply it survived:
        # the retry must land elsewhere (the failure may be worker-local),
        # and a second error on the same task raises for real.
        failed: dict[int, str] = {}

        def dispatch() -> None:
            # Keep every worker filled to its capacity, spreading chains
            # one at a time so a capacity-N daemon is not handed N chains
            # while an idle sibling waits.  A send failure drops the
            # worker and re-scans immediately: its re-queued chains must
            # not wait out a select timeout for a new home.
            progress = True
            while progress and queue:
                progress = False
                for w in list(workers):
                    if not queue:
                        break
                    if len(w.tasks) >= w.capacity:
                        continue
                    task = queue.popleft()
                    if failed.get(task) == w.addr and len(workers) > 1:
                        # A retried chain must avoid the worker that
                        # errored it while any other worker survives.
                        queue.append(task)
                        continue
                    try:
                        send_msg(
                            w.sock,
                            {"type": "chain", "task": task, "spec": specs[task]},
                            pickled=True,
                        )
                    except OSError:
                        # The chain this send failed for goes through the
                        # same accounting and ordering as the worker's
                        # other in-flight chains: hand it to the worker
                        # first, then let _drop re-queue everything in
                        # spec order and count it in requeued_chains.  (A
                        # bare appendleft here used to skip the counter
                        # and land *behind* the re-queued in-flight
                        # chains, inverting spec-order re-dispatch.)
                        w.tasks.add(task)
                        workers.remove(w)
                        self._drop(w, sel, queue)
                        progress = True
                        continue
                    w.tasks.add(task)
                    if w.joined:
                        self.stats.stolen_chains += 1
                    progress = True

        try:
            while done < len(specs):
                dispatch()
                if not workers:
                    raise RuntimeError(
                        f"all distributed workers died with {len(specs) - done} "
                        f"chain(s) outstanding (addresses: {self.stats.dead_addresses})"
                    )
                for key, _ in sel.select(timeout=1.0):
                    if key.data is None:  # the registration listener
                        assert listener is not None
                        self._accept_join(listener, ctx, store, workers, sel)
                        continue
                    w: _Worker = key.data
                    try:
                        msg = recv_msg(w.sock)
                    except (OSError, ProtocolError):
                        msg = None
                    if msg is None:  # EOF / reset / garbage: the worker is gone
                        workers.remove(w)
                        self._drop(w, sel, queue)
                        continue
                    kind = msg.get("type")
                    if kind == "result":
                        task = msg["task"]
                        results[task] = msg["result"]
                        done += 1
                        w.tasks.discard(task)
                        evals = msg.get("evals") or []
                        if store is not None and evals:
                            for fp, cost in evals:
                                store.record(int(fp), float(cost))
                            self.stats.evals_flushed += store.flush()
                            # Gossip: the rest of the fleet merges these
                            # into their in-memory overlays as warm
                            # entries, so sibling chains stop
                            # re-simulating strategies this worker
                            # already costed.
                            delta = {
                                "type": "store_delta",
                                "entries": [
                                    [int(fp), float(cost)] for fp, cost in evals
                                ],
                            }
                            for other in workers:
                                if other is w:
                                    continue
                                try:
                                    send_msg(other.sock, delta)
                                except OSError:
                                    continue  # reaped on its next read event
                                self.stats.gossip_messages += 1
                                self.stats.gossip_entries += len(evals)
                    elif kind == "budget_deposit":
                        n = max(0, int(msg.get("n", 0)))
                        budget.deposit(n)
                        self.stats.budget_deposited += n
                    elif kind == "budget_withdraw":
                        grant = budget.withdraw(max(0, int(msg.get("n", 0))))
                        self.stats.budget_granted += grant
                        try:
                            send_msg(
                                w.sock,
                                {"type": "budget_grant", "id": msg.get("id"), "n": grant},
                            )
                        except OSError:
                            # The worker died between asking and the
                            # answer; give the grant back to the pool.
                            budget.deposit(grant)
                            self.stats.budget_granted -= grant
                    elif kind == "best":
                        cost = float(msg["cost"])
                        if cost < best_cost:
                            best_cost = cost
                            if ctx.early_stop_cost is not None:
                                for other in workers:
                                    if other is w:
                                        continue
                                    try:
                                        send_msg(other.sock, {"type": "best", "cost": cost})
                                        self.stats.best_broadcasts += 1
                                    except OSError:
                                        pass  # reaped on its next read event
                    elif kind == "error":
                        task = msg.get("task")
                        valid = isinstance(task, int) and 0 <= task < len(specs)
                        name = specs[task].name if valid else repr(task)
                        if valid and task in w.tasks and task not in failed and len(workers) > 1:
                            # Chains are pure, and a worker-side failure
                            # (OOM, full disk, a dependency only installed
                            # there) often is too: give the chain one run
                            # on a different worker before failing the
                            # whole search.  Dead workers already get this
                            # treatment via re-queueing; errored replies
                            # used to raise immediately.
                            w.tasks.discard(task)
                            failed[task] = w.addr
                            queue.append(task)
                            self.stats.chain_retries += 1
                            warnings.warn(
                                f"worker {w.addr} failed chain {name} "
                                f"({msg.get('message')}); retrying it once on "
                                "another worker",
                                RuntimeWarning,
                                stacklevel=2,
                            )
                            continue
                        prior = (
                            f" (already retried after failing on {failed[task]})"
                            if valid and task in failed
                            else ""
                        )
                        raise RuntimeError(
                            f"worker {w.addr} failed chain {name}{prior}: "
                            f"{msg.get('message')}"
                        )
                    else:
                        raise ProtocolError(f"unexpected message {kind!r} from worker {w.addr}")
        finally:
            if listener is not None:
                try:
                    sel.unregister(listener)
                except (KeyError, ValueError):
                    pass
                listener.close()
            for w in workers:
                try:
                    send_msg(w.sock, {"type": "bye"})
                except OSError:
                    pass
                try:
                    w.sock.close()
                except OSError:
                    pass
            sel.close()

        assert all(r is not None for r in results)
        return results  # type: ignore[return-value]

"""Distributed search worker daemon: ``python -m repro.search.worker``.

One daemon serves one coordinator connection at a time (the
:class:`~repro.search.exec.distributed.DistributedExecutor`): it receives
the pickled problem environment once, then runs chains as they arrive --
each through the same :func:`~repro.search.exec.base.run_one_chain` the
local executors use -- and streams results back.  The daemon never
announces itself: a coordinator lists it in its cluster and connects to
it.  A background of the session:

* **Best-cost channel.**  The daemon publishes improved best costs
  upstream and folds the coordinator's broadcasts into a local value the
  running chain polls, so early-stop targets work across machines.
* **Store overlay.**  Workers are assumed to share *no* filesystem with
  the coordinator.  When the search has a persistent store, the daemon
  receives a snapshot of the coordinator's entries with the environment,
  evaluates against an in-memory :class:`~repro.search.store.MemoryStore`
  overlay, and ships newly recorded evaluations back with each result
  for the coordinator to flush (the remote-flush path).
* **Capacity.**  ``--capacity N`` runs up to ``N`` chains concurrently
  per coordinator session (one big machine serving as several workers):
  the session starts ``N`` runner threads draining one job queue, each
  with its own evaluation cache and store overlay, and announces the
  capacity in the protocol handshake so the coordinator's dispatch
  accounting keeps ``N`` chains in flight here.  Chains are pure
  functions of their spec, so concurrency never changes results.
* **Lifecycle.**  ``bye`` (or coordinator EOF) ends the session and the
  daemon goes back to accepting; ``--once`` exits after the first
  session.  A chain orphaned by a dead coordinator runs to completion
  before the next session is accepted.

Run::

    python -m repro.search.worker --bind 0.0.0.0:7070 --capacity 2

On startup the daemon prints ``REPRO-WORKER <host> <port>`` to stdout
(with ``--bind host:0`` the kernel picks the port), which is what
:func:`spawn_local_worker` and the CI loopback smoke job parse.

Only bind on trusted networks: the protocol carries pickles (see
:mod:`repro.search.exec.protocol`).
"""

from __future__ import annotations

import argparse
import os
import queue
import socket
import subprocess
import sys
import threading
import time

from repro.search.cache import SimulationCache
from repro.search.exec.base import ExecutionContext, run_one_chain
from repro.search.exec.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    recv_msg,
    send_msg,
)
from repro.search.store import MemoryStore

__all__ = ["serve", "spawn_local_worker", "main"]

class _RemoteBest:
    """Worker-side best channel: local threaded value + upstream publishes.

    ``publish`` is called by the chain on improvement (forwarded to the
    coordinator); ``merge`` is called by the connection reader when the
    coordinator broadcasts a sibling's best.  ``current`` feeds the
    chain's early-stop poll.
    """

    def __init__(self, send_improvement=None):
        self._lock = threading.Lock()
        self._value = float("inf")
        self._send = send_improvement

    def publish(self, cost: float) -> None:
        improved = False
        with self._lock:
            if cost < self._value:
                self._value = cost
                improved = True
        if improved and self._send is not None:
            self._send(cost)

    def merge(self, cost: float) -> None:
        with self._lock:
            if cost < self._value:
                self._value = cost

    def current(self) -> float:
        with self._lock:
            return self._value


def _log(msg: str) -> None:
    print(f"[repro-worker pid={os.getpid()}] {msg}", file=sys.stderr, flush=True)


def _serve_connection(
    conn: socket.socket,
    *,
    chain_delay_s: float = 0.0,
    capacity: int = 1,
    fail_chains: int = 0,
) -> None:
    """One coordinator session: env, chains, results, bye."""
    capacity = max(1, int(capacity))
    # Fault injection (--fail-chains N): the first N chains of each
    # session error out instead of running, exercising the coordinator's
    # retry-on-a-different-worker path without a real OOM.
    faults = {"left": max(0, int(fail_chains))}
    faults_lock = threading.Lock()
    hello = recv_msg(conn)
    if hello is None or hello.get("type") != "hello":
        raise ProtocolError(f"expected hello, got {hello!r}")
    send_msg(
        conn,
        {
            "type": "hello_ack",
            "version": PROTOCOL_VERSION,
            "pid": os.getpid(),
            "capacity": capacity,
        },
    )
    if hello.get("version") != PROTOCOL_VERSION:
        _log(
            f"refusing coordinator speaking protocol v{hello.get('version')} "
            f"(this worker speaks v{PROTOCOL_VERSION})"
        )
        return

    send_lock = threading.Lock()

    def safe_send(msg: dict, *, pickled: bool = False) -> None:
        with send_lock:
            send_msg(conn, msg, pickled=pickled)

    def send_best(cost: float) -> None:
        try:
            safe_send({"type": "best", "cost": cost})
        except OSError:
            pass  # coordinator gone; the reader loop will notice

    # The upstream callback is attached once the environment arrives, and
    # only when an early-stop target exists -- with early stop off the
    # coordinator ignores "best" frames, so streaming one per improvement
    # would be pure wasted wire traffic.
    best = _RemoteBest(None)
    jobs: "queue.Queue[tuple[int, object] | None]" = queue.Queue()
    # stores[i] is runner i's overlay.
    state: dict = {"ctx": None, "stores": []}

    def run_jobs(index: int) -> None:
        # Per-thread evaluation cache and store overlay: chains running
        # concurrently in one daemon never contend on shared mutable
        # state, and each result ships exactly the evaluations its own
        # chain recorded (the cache/store are result-neutral, so the
        # partitioning changes accounting only).
        ctx = state["ctx"]
        cache = SimulationCache(ctx.cache_size) if ctx.cache_size > 0 else None
        store = state["stores"][index] if state["stores"] else None
        while True:
            item = jobs.get()
            if item is None:
                return
            task, spec = item
            if chain_delay_s > 0.0:
                time.sleep(chain_delay_s)  # test/debug aid (--chain-delay-s)
            # Chain failures (OSError included -- e.g. a pickled profiler
            # touching a path that only exists on the coordinator) must
            # reach the coordinator as an "error" reply; only a *send*
            # failure means the connection is gone and the thread should
            # exit, otherwise the coordinator waits on this worker forever.
            try:
                with faults_lock:
                    inject = faults["left"] > 0
                    if inject:
                        faults["left"] -= 1
                if inject:
                    raise RuntimeError("injected chain fault (--fail-chains)")
                result = run_one_chain(ctx, spec, cache, store, best)
                evals = store.drain_outbox() if store is not None else []
                reply = {"type": "result", "task": task, "result": result, "evals": evals}
            except Exception as exc:
                reply = {"type": "error", "task": task, "message": repr(exc)}
            try:
                safe_send(reply, pickled=True)
            except OSError:
                return  # coordinator connection is gone
            except Exception as exc:
                # The reply itself failed to serialize (e.g. a result
                # object that pickles asymmetrically).  Fall back to a
                # JSON error frame -- which cannot fail to encode -- so
                # the coordinator is never left waiting on this worker.
                try:
                    safe_send({"type": "error", "task": task, "message": repr(exc)})
                except OSError:
                    return

    runners: list[threading.Thread] = []
    try:
        while True:
            msg = recv_msg(conn)
            if msg is None:
                break
            kind = msg.get("type")
            if kind == "env":
                if state["ctx"] is not None:
                    # The runner threads snapshot the environment once at
                    # start; silently accepting a replacement would leave
                    # them computing against the stale one.
                    raise ProtocolError("duplicate env in one coordinator session")
                ctx = msg["ctx"]
                if not isinstance(ctx, ExecutionContext):
                    raise ProtocolError(f"env.ctx is {type(ctx).__name__}, not ExecutionContext")
                state["ctx"] = ctx
                best._send = send_best if ctx.early_stop_cost is not None else None
                # The overlays exist iff the coordinator has a store:
                # their snapshot warms this worker, and everything newly
                # recorded is shipped back for the coordinator to flush.
                entries = msg.get("store_entries") or []
                if ctx.store_root is not None:
                    state["stores"] = [MemoryStore(entries) for _ in range(capacity)]
                if not runners:
                    runners = [
                        threading.Thread(
                            target=run_jobs,
                            args=(i,),
                            daemon=True,
                            name=f"chain-runner-{i}",
                        )
                        for i in range(capacity)
                    ]
                    for t in runners:
                        t.start()
            elif kind == "chain":
                if state["ctx"] is None:
                    raise ProtocolError("chain received before env")
                jobs.put((int(msg["task"]), msg["spec"]))
            elif kind == "best":
                best.merge(float(msg["cost"]))
            elif kind == "bye":
                break
            else:
                raise ProtocolError(f"unexpected message {kind!r} from coordinator")
    finally:
        for _ in runners:
            jobs.put(None)
        if not runners:
            jobs.put(None)
        for t in runners:
            t.join()
        try:
            conn.close()
        except OSError:
            pass


def serve(
    bind: str = "127.0.0.1:0",
    *,
    once: bool = False,
    chain_delay_s: float = 0.0,
    capacity: int = 1,
    fail_chains: int = 0,
    announce_stream=None,
) -> None:
    """Listen on ``bind`` and serve coordinator sessions until killed.

    Announces ``REPRO-WORKER <host> <port>`` on ``announce_stream``
    (default stdout) once the socket is bound -- with port ``0`` this is
    how callers learn the kernel-assigned port.
    """
    host, _, port = bind.rpartition(":")
    if not host:
        raise ValueError(f"--bind {bind!r} is not of the form host:port")
    srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    srv.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    srv.bind((host, int(port)))
    srv.listen(4)
    bound_host, bound_port = srv.getsockname()[:2]
    stream = announce_stream if announce_stream is not None else sys.stdout
    print(f"REPRO-WORKER {bound_host} {bound_port}", file=stream, flush=True)
    try:
        while True:
            conn, addr = srv.accept()
            _log(f"coordinator connected from {addr[0]}:{addr[1]}")
            try:
                _serve_connection(
                    conn,
                    chain_delay_s=chain_delay_s,
                    capacity=capacity,
                    fail_chains=fail_chains,
                )
            except (ProtocolError, OSError) as exc:
                _log(f"session ended abnormally: {exc!r}")
            else:
                _log("session ended")
            if once:
                break
    finally:
        srv.close()


def spawn_local_worker(
    *,
    once: bool = False,
    chain_delay_s: float = 0.0,
    capacity: int = 1,
    fail_chains: int = 0,
    env: dict | None = None,
    bind: str = "127.0.0.1:0",
    announce_timeout_s: float = 20.0,
) -> tuple["subprocess.Popen", str]:
    """Start a loopback worker daemon subprocess; returns ``(proc, "host:port")``.

    The helper the tests and the CI smoke job use: it points
    ``PYTHONPATH`` at this installation of :mod:`repro`, binds ``bind``
    (port 0 by default), and parses the announce line for the
    kernel-assigned address.  The caller owns the process
    (``proc.terminate()`` when done).

    The wait for the announce line is bounded by ``announce_timeout_s``:
    a daemon that dies before announcing (``--bind`` port already in
    use, an import error) or silently hangs is reaped and the raised
    error carries its captured stderr, instead of the old behavior of
    blocking the caller forever on ``stdout.readline()``.
    """
    import collections

    import repro

    src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    full_env = dict(os.environ if env is None else env)
    existing = full_env.get("PYTHONPATH", "")
    full_env["PYTHONPATH"] = src_root + (os.pathsep + existing if existing else "")
    args = [sys.executable, "-m", "repro.search.worker", "--bind", bind]
    if once:
        args.append("--once")
    if chain_delay_s > 0.0:
        args += ["--chain-delay-s", str(chain_delay_s)]
    if capacity != 1:
        args += ["--capacity", str(capacity)]
    if fail_chains > 0:
        args += ["--fail-chains", str(fail_chains)]
    proc = subprocess.Popen(
        args,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=full_env,
    )
    assert proc.stdout is not None and proc.stderr is not None
    # Drain stderr continuously (a blocked pipe would deadlock a chatty
    # daemon) into a bounded tail for the failure message.
    stderr_tail: "collections.deque[str]" = collections.deque(maxlen=50)

    def _drain_stderr() -> None:
        for ln in proc.stderr:
            stderr_tail.append(ln)

    drainer = threading.Thread(target=_drain_stderr, daemon=True)
    drainer.start()

    announce: dict = {}

    def _read_announce() -> None:
        announce["line"] = proc.stdout.readline()

    reader = threading.Thread(target=_read_announce, daemon=True)
    reader.start()
    reader.join(timeout=announce_timeout_s)
    line = (announce.get("line") or "").strip()
    parts = line.split()
    if len(parts) != 3 or parts[0] != "REPRO-WORKER":
        proc.kill()
        proc.wait(timeout=10)
        drainer.join(timeout=2.0)
        tail = "".join(stderr_tail).strip()
        raise RuntimeError(
            f"worker daemon failed to announce itself within "
            f"{announce_timeout_s:g}s (got {line!r}); stderr:\n"
            f"{tail or '<empty>'}"
        )
    return proc, f"{parts[1]}:{parts[2]}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.search.worker",
        description="Distributed parallelization-search worker daemon.",
    )
    parser.add_argument(
        "--bind",
        default="127.0.0.1:7070",
        metavar="HOST:PORT",
        help="address to listen on (port 0 = kernel-assigned; default %(default)s)",
    )
    parser.add_argument(
        "--once",
        action="store_true",
        help="exit after serving one coordinator session",
    )
    parser.add_argument(
        "--capacity",
        type=int,
        default=1,
        metavar="N",
        help="chains run concurrently per coordinator session (default %(default)s)",
    )
    parser.add_argument(
        "--chain-delay-s",
        type=float,
        default=0.0,
        help=argparse.SUPPRESS,  # test/debug aid: sleep before each chain
    )
    parser.add_argument(
        "--fail-chains",
        type=int,
        default=0,
        help=argparse.SUPPRESS,  # test aid: error the first N chains per session
    )
    args = parser.parse_args(argv)
    try:
        serve(
            args.bind,
            once=args.once,
            chain_delay_s=args.chain_delay_s,
            capacity=args.capacity,
            fail_chains=args.fail_chains,
        )
    except KeyboardInterrupt:
        _log("interrupted; shutting down")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Planner-as-a-service daemon: ``python -m repro.plan.serve``.

A long-running planning server that keeps the expensive parts of a
search session *resident* between requests, so interactive callers
(notebooks, schedulers, CI sweeps) pay the setup cost once instead of
per invocation:

* **Interned problems.**  The first request ships a full pickled problem
  (graph/topology/profiler/training); the server builds the
  :class:`~repro.plan.Planner` once and keys it by the store-context
  digest.  Later requests -- from any client -- send the bare digest and
  skip the graph rebuild entirely (the warm path; see
  :mod:`repro.plan.client`).
* **Open store shards.**  Every admitted search runs with
  ``StoreConfig(root=<server root>, shared=True)``, so one process-wide
  :func:`~repro.search.store.shared_store` handle per shard stays open
  and parsed across requests instead of being re-read from disk each
  run.
* **Server-owned fan-out.**  ``--workers N`` replaces the pool fan-out
  (``ExecutionConfig.workers``) of every request, so execution
  resources belong to the server, not to its clients.

Production behaviour:

* **Admission control.**  At most ``--queue-limit`` requests wait for a
  search slot; excess requests are *rejected with a reason*
  (``plan_reject``), never silently dropped or left hanging.
* **Request dedup.**  Concurrent identical requests -- same problem
  digest, backend, and normalized config -- collapse onto one in-flight
  search; every waiter gets the same :class:`~repro.plan.PlanResult`.
  Sound because searches are pure functions of (problem, backend,
  config): results are bit-identical for a fixed seed, so running the
  search twice could only waste cycles.
* **Fairness.**  Search slots are handed out round-robin across client
  sessions, so one client queueing 50 requests cannot starve another's
  single request.
* **Graceful drain.**  SIGTERM/SIGINT stop the accept loop, reject new
  requests with ``"server is draining"``, finish every queued and
  running search, flush the shared store shards, then exit 0.

Run::

    python -m repro.plan.serve --bind 0.0.0.0:7180 --store-root ~/.cache/repro

On startup the daemon prints ``REPRO-PLAN-SERVE <host> <port>`` to
stdout (with ``--bind host:0`` the kernel picks the port), which is what
:func:`spawn_local_server` and the CI ``serve-smoke`` job parse.

Only bind on trusted networks: requests and results travel as pickles
(see :mod:`repro.plan.protocol`).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass

from repro.plan.config import SearchConfig, StoreConfig
from repro.plan.planner import Planner
from repro.plan.protocol import (
    SERVE_PROTOCOL_VERSION,
    ProtocolError,
    parse_address,
    recv_msg,
    send_msg,
)
from repro.search.store import flush_shared_stores, shared_store

__all__ = ["PlanServer", "ServeStats", "spawn_local_server", "main"]


def _log(msg: str) -> None:
    print(f"[repro-plan-serve pid={os.getpid()}] {msg}", file=sys.stderr, flush=True)


@dataclass
class ServeStats:
    """Monotonic counters; live gauges ride along in ``stats_dict``."""

    requests: int = 0  # plan_requests received, every outcome
    completed: int = 0  # searches that produced a PlanResult
    searches: int = 0  # searches actually started (deduped requests start none)
    deduped: int = 0  # requests that piggybacked on an identical in-flight search
    rejected: int = 0  # admission-control rejections (queue full / draining)
    errors: int = 0  # bad requests + searches that raised
    unknown_digest: int = 0  # digest-only requests naming a problem we don't hold
    problems_interned: int = 0  # distinct problems built and kept resident
    problem_hits: int = 0  # requests resolved against an already-interned problem


def _request_key(digest: str, backend: str, config: SearchConfig) -> str:
    """Dedup identity of a request: problem digest + backend + canonical
    JSON of the *normalized* config (sorted keys, so dict order never
    splits identical requests)."""
    return json.dumps(
        [digest, backend, config.to_dict()], sort_keys=True, separators=(",", ":")
    )


class _Job:
    """One admitted search plus everyone waiting on its result."""

    __slots__ = ("key", "digest", "backend", "config", "planner", "warm", "setup_s", "waiters")

    def __init__(self, key, digest, backend, config, planner, warm, setup_s):
        self.key = key
        self.digest = digest
        self.backend = backend
        self.config = config
        self.planner = planner
        self.warm = warm
        self.setup_s = setup_s
        # [(session, request id), ...]; index 0 is the originator.
        self.waiters: list[tuple["_Session", object]] = []


class _Session:
    """One client connection: a reader thread plus a send-serialized socket."""

    def __init__(self, conn: socket.socket, sid: int, peer: str):
        self.conn = conn
        self.sid = sid
        self.peer = peer
        self.pending: deque[_Job] = deque()  # jobs this session is queueing
        self.closed = False
        self._send_lock = threading.Lock()

    def send(self, msg: dict, *, pickled: bool = False) -> None:
        """Best-effort reply; a dead client marks the session closed."""
        if self.closed:
            return
        try:
            with self._send_lock:
                send_msg(self.conn, msg, pickled=pickled)
        except (OSError, ProtocolError):
            self.closed = True


class PlanServer:
    """The resident planning service (see module docstring).

    Thread model: the calling thread runs the accept loop, one reader
    thread per client session parses requests, and ``serve_workers``
    search threads drain the per-session queues round-robin.  All
    scheduling state -- sessions, per-session deques, the in-flight
    dedup map, queue depth -- is guarded by one condition variable
    (``_work``).
    """

    def __init__(
        self,
        bind: str = "127.0.0.1:0",
        *,
        store_root: str | None = None,
        serve_workers: int = 2,
        queue_limit: int = 32,
        exec_workers: int | None = None,
        request_delay_s: float = 0.0,
        announce_stream=None,
    ):
        self._host, self._port = parse_address(bind, bind=True)
        self.store_root = store_root
        self.serve_workers = max(1, int(serve_workers))
        self.queue_limit = max(1, int(queue_limit))
        self.exec_workers = exec_workers
        # "host:port" of the request listener once serve_forever binds it.
        self.address: str | None = None
        self.request_delay_s = request_delay_s  # test aid: widens the dedup window
        self._announce_stream = announce_stream

        self.stats = ServeStats()
        self._work = threading.Condition()
        self._sessions: list[_Session] = []
        self._inflight: dict[str, _Job] = {}  # dedup map: queued or running jobs
        self._queued = 0
        self._running = 0
        self._rr = 0  # round-robin cursor over _sessions
        self._next_sid = 0
        self._draining = threading.Event()
        self._srv: socket.socket | None = None
        self._problems: dict[str, Planner] = {}  # store-context digest -> planner
        self._problems_lock = threading.Lock()

    # -- lifecycle ---------------------------------------------------------
    def serve_forever(self, *, install_signal_handlers: bool = True) -> None:
        """Bind, announce, and serve until :meth:`shutdown` (or SIGTERM)."""
        srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        srv.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        srv.bind((self._host, self._port))
        srv.listen(16)
        # Wake periodically: a close() from shutdown() on another thread
        # does not interrupt a blocked accept() (only the signal path
        # does), so a drain must never rely on it.  Set before the
        # listener is published: once shutdown() can see it, it may
        # already be closed.
        srv.settimeout(0.5)
        self._srv = srv
        bound_host, bound_port = srv.getsockname()[:2]
        self.address = f"{bound_host}:{bound_port}"
        stream = self._announce_stream if self._announce_stream is not None else sys.stdout
        print(f"REPRO-PLAN-SERVE {bound_host} {bound_port}", file=stream, flush=True)
        if install_signal_handlers and threading.current_thread() is threading.main_thread():
            for sig in (signal.SIGTERM, signal.SIGINT):
                signal.signal(sig, lambda *_: self.shutdown())

        workers = [
            threading.Thread(target=self._work_loop, name=f"plan-search-{i}", daemon=True)
            for i in range(self.serve_workers)
        ]
        for t in workers:
            t.start()

        try:
            while not self._draining.is_set():
                try:
                    conn, addr = srv.accept()
                except TimeoutError:
                    continue
                except OSError:
                    break  # shutdown() closed the listener
                conn.settimeout(None)
                peer = f"{addr[0]}:{addr[1]}"
                with self._work:
                    session = _Session(conn, self._next_sid, peer)
                    self._next_sid += 1
                    self._sessions.append(session)
                threading.Thread(
                    target=self._read_session,
                    args=(session,),
                    name=f"plan-session-{session.sid}",
                    daemon=True,
                ).start()
                _log(f"client connected from {peer} (session {session.sid})")
        finally:
            self._draining.set()
            with self._work:
                self._work.notify_all()
            for t in workers:
                t.join()
            flushed = flush_shared_stores()
            with self._work:
                sessions = list(self._sessions)
            for s in sessions:
                s.closed = True
                try:
                    s.conn.close()
                except OSError:
                    pass
            try:
                srv.close()
            except OSError:
                pass
            _log(f"drained ({flushed} store evaluation(s) flushed); bye")

    def shutdown(self) -> None:
        """Begin a graceful drain: stop accepting, finish queued and
        running searches, flush the shared stores, exit.  Safe to call
        from a signal handler or any thread; idempotent."""
        if self._draining.is_set():
            return
        _log("drain requested: no longer accepting; finishing in-flight searches")
        self._draining.set()
        if self._srv is not None:
            try:
                self._srv.close()
            except OSError:
                pass
        with self._work:
            self._work.notify_all()

    # -- per-session reader ------------------------------------------------
    def _read_session(self, session: _Session) -> None:
        try:
            hello = recv_msg(session.conn)
            if hello is None:
                return
            if hello.get("type") != "plan_hello":
                raise ProtocolError(f"expected plan_hello, got {hello.get('type')!r}")
            session.send(
                {
                    "type": "plan_hello_ack",
                    "version": SERVE_PROTOCOL_VERSION,
                    "pid": os.getpid(),
                }
            )
            if hello.get("version") != SERVE_PROTOCOL_VERSION:
                _log(
                    f"refusing client speaking plan protocol v{hello.get('version')} "
                    f"(this server speaks v{SERVE_PROTOCOL_VERSION})"
                )
                return
            while True:
                msg = recv_msg(session.conn)
                if msg is None or msg.get("type") == "bye":
                    return
                self._handle(session, msg)
        except (ProtocolError, OSError) as exc:
            _log(f"session {session.sid} ended abnormally: {exc!r}")
        finally:
            self._detach(session)

    def _detach(self, session: _Session) -> None:
        """Remove a dead session; re-home its queued jobs to surviving
        dedup waiters (another client may be waiting on them)."""
        with self._work:
            session.closed = True
            if session in self._sessions:
                self._sessions.remove(session)
            for job in list(session.pending):
                survivors = [
                    (s, rid) for (s, rid) in job.waiters if s is not session and not s.closed
                ]
                if survivors:
                    job.waiters = survivors
                    survivors[0][0].pending.append(job)
                else:
                    self._inflight.pop(job.key, None)
                    self._queued -= 1
            session.pending.clear()
            self._work.notify_all()
        try:
            session.conn.close()
        except OSError:
            pass
        _log(f"session {session.sid} ({session.peer}) closed")

    # -- request handling --------------------------------------------------
    def _normalize_config(self, data: dict) -> SearchConfig:
        """The runnable config: client search *policy*, server *resources*.

        The store always points at the server's root with shared handles
        (resident mode), and the server's ``--workers``, when given,
        replaces the client's pool fan-out.
        """
        cfg = SearchConfig.from_dict(data) if not isinstance(data, SearchConfig) else data
        store = StoreConfig(root=self.store_root, shared=self.store_root is not None)
        ex = cfg.execution
        if self.exec_workers is not None:
            ex = dataclasses.replace(ex, workers=self.exec_workers)
        return cfg.replace(store=store, execution=ex)

    def _handle(self, session: _Session, msg: dict) -> None:
        kind = msg.get("type")
        if kind == "stats":
            session.send({"type": "stats_reply", "stats": self.stats_dict()})
            return
        if kind != "plan_request":
            raise ProtocolError(f"unexpected message {kind!r} from client")

        self.stats.requests += 1
        req_id = msg.get("id")
        try:
            backend = str(msg["backend"])
            config = self._normalize_config(msg.get("config") or {})
        except Exception as exc:
            self.stats.errors += 1
            session.send({"type": "plan_error", "id": req_id, "message": f"bad request: {exc!r}"})
            return

        # Resolve the problem: intern a shipped one, or look a digest up.
        t0 = time.perf_counter()
        digest = msg.get("digest")
        planner: Planner | None = None
        if msg.get("problem") is not None:
            problem = msg["problem"]
            try:
                planner = Planner(
                    problem["graph"],
                    problem["topology"],
                    profiler=problem.get("profiler"),
                    training=bool(problem.get("training", True)),
                )
                digest = planner.store_context(config)
            except Exception as exc:
                self.stats.errors += 1
                session.send(
                    {"type": "plan_error", "id": req_id, "message": f"bad problem: {exc!r}"}
                )
                return
        if digest is None:
            self.stats.errors += 1
            session.send(
                {
                    "type": "plan_error",
                    "id": req_id,
                    "message": "plan_request carries neither a problem nor a digest",
                }
            )
            return
        warm = False
        with self._problems_lock:
            known = self._problems.get(digest)
            if known is not None:
                planner = known  # reuse the resident problem even if one was shipped
                warm = True
                self.stats.problem_hits += 1
            elif planner is not None:
                self._problems[digest] = planner
                self.stats.problems_interned += 1
            else:
                self.stats.unknown_digest += 1
                session.send({"type": "plan_unknown_problem", "id": req_id, "digest": digest})
                return
        if self.store_root is not None:
            # Touch the shard handle now so its open/parse cost lands in
            # setup (resident and therefore near-zero on the warm path),
            # not inside the first search's wall time.
            try:
                shared_store(self.store_root, digest)
            except OSError as exc:
                _log(f"store shard unavailable for {digest[:12]}: {exc!r}")
        setup_s = time.perf_counter() - t0

        key = _request_key(digest, backend, config)
        with self._work:
            job = self._inflight.get(key)
            if job is not None:
                # Identical search already queued or running: piggyback.
                job.waiters.append((session, req_id))
                self.stats.deduped += 1
                return
            if self._draining.is_set():
                self.stats.rejected += 1
                session.send(
                    {"type": "plan_reject", "id": req_id, "reason": "server is draining"}
                )
                return
            if self._queued >= self.queue_limit:
                self.stats.rejected += 1
                session.send(
                    {
                        "type": "plan_reject",
                        "id": req_id,
                        "reason": (
                            f"queue full ({self._queued} request(s) waiting, "
                            f"limit {self.queue_limit}); retry later"
                        ),
                    }
                )
                return
            job = _Job(key, digest, backend, config, planner, warm, setup_s)
            job.waiters.append((session, req_id))
            self._inflight[key] = job
            session.pending.append(job)
            self._queued += 1
            self._work.notify()

    # -- search workers ----------------------------------------------------
    def _next_job_locked(self) -> _Job | None:
        """Round-robin over sessions' queues (fairness; caller holds _work)."""
        n = len(self._sessions)
        for i in range(n):
            s = self._sessions[(self._rr + i) % n]
            if s.pending:
                self._rr = (self._rr + i + 1) % n
                return s.pending.popleft()
        return None

    def _work_loop(self) -> None:
        while True:
            with self._work:
                job = self._next_job_locked()
                while job is None:
                    if self._draining.is_set():
                        return  # queue drained; running jobs belong to other threads
                    self._work.wait(timeout=0.5)
                    job = self._next_job_locked()
                self._queued -= 1
                self._running += 1
                self.stats.searches += 1
            try:
                self._run_job(job)
            finally:
                with self._work:
                    self._running -= 1

    def _run_job(self, job: _Job) -> None:
        if self.request_delay_s > 0.0:
            time.sleep(self.request_delay_s)  # test/debug aid (--request-delay-s)
        t0 = time.perf_counter()
        result = None
        error: str | None = None
        try:
            result = job.planner.search(job.backend, job.config)
        except Exception as exc:
            error = repr(exc)
        search_s = time.perf_counter() - t0
        # Snapshot the waiters *after* unpublishing the job, atomically:
        # a duplicate arriving between the two would otherwise attach to
        # a job nobody will ever answer again.
        with self._work:
            self._inflight.pop(job.key, None)
            waiters = list(job.waiters)
        if error is not None:
            self.stats.errors += 1
            _log(f"search failed for {len(waiters)} waiter(s): {error}")
            for s, rid in waiters:
                s.send({"type": "plan_error", "id": rid, "message": error})
            return
        self.stats.completed += 1
        _log(
            f"search done: backend={job.backend} digest={job.digest[:12]} "
            f"warm={job.warm} waiters={len(waiters)} "
            f"setup={job.setup_s * 1e3:.1f}ms search={search_s:.2f}s"
        )
        for s, rid in waiters:
            s.send(
                {
                    "type": "plan_result",
                    "id": rid,
                    "result": result,
                    "digest": job.digest,
                    "warm": job.warm,
                    "setup_s": job.setup_s,
                    "search_s": search_s,
                },
                pickled=True,
            )

    # -- introspection -----------------------------------------------------
    def stats_dict(self) -> dict:
        d = dataclasses.asdict(self.stats)
        with self._work:
            d["queued"] = self._queued
            d["running"] = self._running
            d["sessions"] = len(self._sessions)
        d["problems_resident"] = len(self._problems)
        d["draining"] = self._draining.is_set()
        return d


def spawn_local_server(
    *,
    store_root: str | None = None,
    serve_workers: int = 2,
    queue_limit: int = 32,
    workers: int | None = None,
    request_delay_s: float = 0.0,
    env: dict | None = None,
) -> tuple["subprocess.Popen", str]:
    """Start a loopback planning server subprocess; returns ``(proc, "host:port")``.

    Binds port 0, parses the ``REPRO-PLAN-SERVE`` announce line, and
    leaves process ownership with the caller (``proc.send_signal(SIGTERM)``
    for a graceful drain, ``proc.kill()`` to abort).
    """
    import repro

    src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    full_env = dict(os.environ if env is None else env)
    existing = full_env.get("PYTHONPATH", "")
    full_env["PYTHONPATH"] = src_root + (os.pathsep + existing if existing else "")
    args = [sys.executable, "-m", "repro.plan.serve", "--bind", "127.0.0.1:0"]
    if store_root is not None:
        args += ["--store-root", str(store_root)]
    if serve_workers != 2:
        args += ["--serve-workers", str(serve_workers)]
    if queue_limit != 32:
        args += ["--queue-limit", str(queue_limit)]
    if workers is not None:
        args += ["--workers", str(workers)]
    if request_delay_s > 0.0:
        args += ["--request-delay-s", str(request_delay_s)]
    proc = subprocess.Popen(args, stdout=subprocess.PIPE, text=True, env=full_env)
    assert proc.stdout is not None
    line = proc.stdout.readline().strip()
    parts = line.split()
    if len(parts) != 3 or parts[0] != "REPRO-PLAN-SERVE":
        proc.kill()
        raise RuntimeError(f"planning server failed to announce itself (got {line!r})")
    return proc, f"{parts[1]}:{parts[2]}"


def _smoke() -> int:
    """Self-test for CI: dedup of concurrent identical requests, a warm
    follow-up, and a graceful SIGTERM drain, all over loopback."""
    import tempfile

    from repro.machine.clusters import single_node
    from repro.models.lenet import lenet
    from repro.plan.client import PlanClient
    from repro.plan.config import BudgetConfig

    graph, topology = lenet(batch=8), single_node(2, "p100")
    cfg = SearchConfig(budget=BudgetConfig(iterations=40), inits=("data_parallel",), seed=0)
    with tempfile.TemporaryDirectory() as tmp:
        proc, addr = spawn_local_server(store_root=tmp, request_delay_s=0.5)
        try:
            results: list = [None, None]

            def one(i: int) -> None:
                with PlanClient(addr) as c:
                    results[i] = c.plan(graph, topology, config=cfg)

            threads = [threading.Thread(target=one, args=(i,)) for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert all(r is not None for r in results), "a smoke request failed"
            assert results[0].best_cost_us == results[1].best_cost_us

            with PlanClient(addr) as c:
                stats = c.stats()
                assert stats["searches"] == 1, f"dedup failed: {stats}"
                assert stats["deduped"] == 1, f"dedup failed: {stats}"
                # A new client, same problem: the server resolves it
                # against the interned planner (the warm path).
                warm = c.plan(graph, topology, config=cfg.replace(seed=1))
                assert c.stats()["problem_hits"] >= 1
                assert warm.extras["serve"]["warm"] is True

            proc.send_signal(signal.SIGTERM)
            rc = proc.wait(timeout=60)
            assert rc == 0, f"drain exited {rc}"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
    print("plan-serve smoke: PASS (dedup=1, warm problem hit, clean drain)")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.plan.serve",
        description="Long-running planning server (planner-as-a-service).",
    )
    parser.add_argument(
        "--bind",
        default="127.0.0.1:7180",
        metavar="HOST:PORT",
        help="address to listen on (port 0 = kernel-assigned; default %(default)s)",
    )
    parser.add_argument(
        "--store-root",
        default=None,
        metavar="DIR",
        help="persistent strategy-store root every search shares (default: store off)",
    )
    parser.add_argument(
        "--serve-workers",
        type=int,
        default=2,
        metavar="N",
        help="searches run concurrently (default %(default)s)",
    )
    parser.add_argument(
        "--queue-limit",
        type=int,
        default=32,
        metavar="N",
        help="max requests waiting for a search slot before rejection (default %(default)s)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="local process-pool fan-out per search (default: the client config's)",
    )
    parser.add_argument(
        "--request-delay-s",
        type=float,
        default=0.0,
        help=argparse.SUPPRESS,  # test/debug aid: sleep before each search
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the loopback self-test (spawns a server subprocess) and exit",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        return _smoke()
    try:
        server = PlanServer(
            args.bind,
            store_root=args.store_root,
            serve_workers=args.serve_workers,
            queue_limit=args.queue_limit,
            exec_workers=args.workers,
            request_delay_s=args.request_delay_s,
        )
    except ValueError as exc:
        parser.error(f"--bind: {exc}")
    server.serve_forever()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""The sweep coordinator: a TCP server issuing spec-keyed shard leases.

A :class:`DistCoordinator` wraps a :class:`~repro.dist.board.ShardBoard` in
a ``ThreadingTCPServer`` speaking the newline-delimited JSON protocol of
:mod:`repro.dist.protocol`.  Construction order encodes the contract:

1. the plan is validated and sharded in **plan order**;
2. result-store hits (then ``--resume`` seed records) are served
   immediately — *before the server even listens*, so a fully warm plan
   never issues a shard;
3. :meth:`start` binds the socket (port ``0`` = ephemeral) and worker
   connections claim/heartbeat/complete against the board;
4. every accepted completion is flushed to the store incrementally
   (idempotent ``(spec_key, fingerprint)`` upsert — duplicate completions
   are discarded *before* the store, so no duplicate rows either way);
5. :meth:`result` blocks for the last shard and reassembles the
   plan-ordered :class:`~repro.experiments.sweep.SweepResult`.

Live coordinators register themselves in a process-local registry so the
experiment service can surface their status (``GET /dist/coordinators``)
without holding references.
"""

from __future__ import annotations

import socketserver
import threading
import time
from typing import Callable, Dict, List, Mapping, Optional, Tuple, TYPE_CHECKING

from repro.dist.board import DEFAULT_LEASE_TIMEOUT, CompletionRejected, ShardBoard
from repro.dist.protocol import read_frame, write_frame
from repro.experiments.plan import ExperimentPlan
from repro.experiments.sweep import ExperimentRecord, SweepResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store import ResultStore

#: process-local registry of live coordinators (service status endpoint)
_ACTIVE: Dict[int, "DistCoordinator"] = {}
_ACTIVE_LOCK = threading.Lock()


def active_coordinators() -> List[Dict[str, object]]:
    """Status snapshots of every live coordinator in this process."""
    with _ACTIVE_LOCK:
        coordinators = list(_ACTIVE.values())
    return [coordinator.status() for coordinator in coordinators]


class _CoordinatorServer(socketserver.ThreadingTCPServer):
    """One thread per worker connection; daemonic so close() never hangs."""

    allow_reuse_address = True
    daemon_threads = True
    coordinator: "DistCoordinator"


class _ShardHandler(socketserver.StreamRequestHandler):
    """Frame dispatch for one connection (see repro.dist.protocol)."""

    def handle(self) -> None:  # noqa: C901 - flat dispatch table
        coordinator = self.server.coordinator  # type: ignore[attr-defined]
        welcomed = False
        while True:
            try:
                frame = read_frame(self.rfile)
            except Exception:  # malformed frame: drop the connection
                return
            if frame is None:
                return
            kind = frame.get("type")
            if kind == "status":
                write_frame(self.wfile, {"type": "status", **coordinator.status()})
            elif kind == "hello":
                reply = coordinator.handshake(
                    str(frame.get("worker", "?")), str(frame.get("fingerprint", ""))
                )
                write_frame(self.wfile, reply)
                if reply["type"] == "reject":
                    return  # a stale-code worker gets nothing else
                welcomed = True
            elif not welcomed:
                write_frame(
                    self.wfile,
                    {
                        "type": "error",
                        "reason": f"handshake required before {kind!r} "
                                  f"(send a hello frame first)",
                    },
                )
            elif kind == "claim":
                write_frame(
                    self.wfile, coordinator.claim(str(frame.get("worker", "?")))
                )
            elif kind == "heartbeat":
                alive = coordinator.board.heartbeat(str(frame.get("lease", "")))
                write_frame(self.wfile, {"type": "ok" if alive else "expired"})
            elif kind == "complete":
                try:
                    accepted = coordinator.complete(
                        frame.get("index"),  # type: ignore[arg-type]
                        frame.get("record"),  # type: ignore[arg-type]
                        worker=str(frame.get("worker", "?")),
                    )
                except CompletionRejected as exc:
                    write_frame(self.wfile, {"type": "reject", "reason": str(exc)})
                else:
                    write_frame(self.wfile, {"type": "ok", "accepted": accepted})
            else:
                write_frame(
                    self.wfile,
                    {"type": "error", "reason": f"unknown frame type {kind!r}"},
                )


class DistCoordinator:
    """Shard an experiment plan and serve it to TCP workers under leases.

    Parameters
    ----------
    plan:
        The grid to run; validated up front (bad specs fail before any
        worker connects).
    store:
        Optional :class:`~repro.store.ResultStore` — hits are served before
        any shard is issued, fresh records are flushed incrementally.
    seed_records:
        ``spec_key → record`` mapping (the ``--resume`` file); served after
        store hits, re-persisted to the store when one is given.
    lease_timeout:
        Seconds before an unheartbeated lease expires and its shard is
        re-issued.
    clock:
        Injectable monotonic clock for the lease state machine (tests).
    fingerprint:
        Code identity workers must match; defaults to
        :func:`repro.store.keys.code_fingerprint`.
    on_record:
        ``(index, record, served_from_store)`` callback in completion
        order — same hook :class:`~repro.experiments.sweep.SweepRunner`
        exposes, so the service can stream distributed jobs too.
    """

    def __init__(
        self,
        plan: ExperimentPlan,
        store: Optional["ResultStore"] = None,
        seed_records: Optional[Mapping[str, ExperimentRecord]] = None,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        host: str = "127.0.0.1",
        port: int = 0,
        clock: Optional[Callable[[], float]] = None,
        fingerprint: Optional[str] = None,
        on_record: Optional[Callable[[int, ExperimentRecord, bool], None]] = None,
    ) -> None:
        from repro.store.keys import code_fingerprint

        self.plan = plan
        self.store = store
        self.fingerprint = fingerprint or code_fingerprint()
        self._on_record = on_record
        self._host, self._port = host, port
        self._server: Optional[_CoordinatorServer] = None
        self._server_thread: Optional[threading.Thread] = None
        self._started_at: Optional[float] = None
        self._workers_seen: Dict[str, int] = {}
        self._lock = threading.Lock()

        specs = plan.specs()
        for spec in specs:
            spec.validate()
        self.board = ShardBoard(specs, lease_timeout=lease_timeout, clock=clock)
        # Store hits (then resume seeds) are served before the server ever
        # listens: a warm plan issues zero shards and needs zero workers.
        if store is not None:
            for index, hit in enumerate(store.get_many(specs)):
                if hit is not None:
                    self._serve(index, hit, "store")
        if seed_records:
            from repro.store.keys import spec_key

            for index, spec in enumerate(specs):
                shard = self.board.shards[index]
                if shard.state != "done":
                    hit = seed_records.get(spec_key(spec))
                    if hit is not None:
                        self._serve(index, hit, "resume")
                        if store is not None:
                            store.put(hit)

    def _serve(self, index: int, record: ExperimentRecord, source: str) -> None:
        self.board.serve(index, record, source)
        if self._on_record is not None:
            self._on_record(index, record, True)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> Tuple[str, int]:
        """Bind the socket and serve claims; returns ``(host, port)``."""
        if self._server is not None:
            return self.address
        server = _CoordinatorServer((self._host, self._port), _ShardHandler)
        server.coordinator = self
        self._server = server
        self._started_at = time.perf_counter()
        self._server_thread = threading.Thread(
            target=server.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-dist-coordinator",
            daemon=True,
        )
        self._server_thread.start()
        with _ACTIVE_LOCK:
            _ACTIVE[id(self)] = self
        return self.address

    @property
    def address(self) -> Tuple[str, int]:
        if self._server is None:
            raise RuntimeError("coordinator is not started")
        return self._server.server_address[0], self._server.server_address[1]

    def close(self) -> None:
        """Stop serving (idempotent); leases and records stay readable."""
        with _ACTIVE_LOCK:
            _ACTIVE.pop(id(self), None)
        server, self._server = self._server, None
        if server is not None:
            server.shutdown()
            server.server_close()
        if self._server_thread is not None:
            self._server_thread.join(timeout=10.0)
            self._server_thread = None

    def __enter__(self) -> "DistCoordinator":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # frame-level operations (called by handler threads)
    # ------------------------------------------------------------------
    def handshake(self, worker: str, fingerprint: str) -> Dict[str, object]:
        if fingerprint != self.fingerprint:
            return {
                "type": "reject",
                "reason": (
                    f"code fingerprint mismatch: worker {worker!r} runs "
                    f"{fingerprint!r} but the coordinator expects "
                    f"{self.fingerprint!r} — update the worker's checkout to "
                    f"the coordinator's code before claiming shards"
                ),
            }
        with self._lock:
            self._workers_seen[worker] = self._workers_seen.get(worker, 0) + 1
        return {
            "type": "welcome",
            "worker": worker,
            "total": len(self.board.shards),
            "lease_timeout": self.board.lease_timeout,
        }

    def claim(self, worker: str) -> Dict[str, object]:
        claim = self.board.claim(worker)
        if claim.kind == "drained":
            return {"type": "drained"}
        if claim.kind == "wait":
            return {"type": "wait", "retry_after": claim.retry_after}
        shard = claim.shard
        assert shard is not None
        return {
            "type": "lease",
            "lease": shard.lease_id,
            "index": shard.index,
            "spec_key": shard.spec_key,
            "spec": shard.spec.to_dict(),
            "lease_timeout": self.board.lease_timeout,
            "attempt": shard.attempts,
        }

    def complete(
        self, index: int, record_data: Dict[str, object], worker: str = "?"
    ) -> bool:
        """Accept one worker completion; :class:`CompletionRejected` names a bad one."""
        if not isinstance(record_data, dict):
            raise CompletionRejected(f"completion record must be an object, got {record_data!r}")
        try:
            record = ExperimentRecord.from_dict(record_data)
        except (KeyError, TypeError, ValueError) as exc:
            raise CompletionRejected(f"completion record does not parse: {exc!r}") from exc
        accepted = self.board.complete(index, record, worker=worker)
        if accepted:
            if self.store is not None:
                self.store.put(record)
            if self._on_record is not None:
                self._on_record(index, record, False)
        return accepted

    # ------------------------------------------------------------------
    # progress and results
    # ------------------------------------------------------------------
    def status(self) -> Dict[str, object]:
        """JSON-safe progress snapshot (the service's ``/dist`` payload)."""
        counts = self.board.counts()
        with self._lock:
            workers = dict(self._workers_seen)
        address = None
        if self._server is not None:
            host, port = self.address
            address = f"{host}:{port}"
        return {
            "address": address,
            "fingerprint": self.fingerprint,
            "lease_timeout": self.board.lease_timeout,
            "finished": self.board.finished,
            "workers": workers,
            "expired_leases": self.board.counters.expired_leases,
            "duplicate_completions": self.board.counters.duplicate_completions,
            "completed_by": dict(self.board.counters.completed_by),
            **counts,
        }

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until every shard is done (or the timeout elapses)."""
        return self.board.wait(timeout=timeout)

    def result(
        self, timeout: Optional[float] = None, jobs: Optional[int] = None
    ) -> SweepResult:
        """The plan-ordered sweep result; blocks until the board drains.

        ``jobs`` labels the result (the worker count the caller launched);
        it defaults to the number of distinct workers that completed a
        shard, or 1 for a fully served plan.
        """
        if not self.board.wait(timeout=timeout):
            counts = self.board.counts()
            raise TimeoutError(
                f"distributed sweep incomplete after {timeout}s: "
                f"{counts['done']}/{counts['total']} shards done "
                f"({counts['leased']} leased, {counts['pending']} pending)"
            )
        records, served_store, served_resume = self.board.records()
        total_seconds = (
            time.perf_counter() - self._started_at if self._started_at else 0.0
        )
        if jobs is None:
            jobs = max(1, len(self.board.counters.completed_by))
        return SweepResult(
            plan=self.plan,
            records=records,
            total_seconds=total_seconds,
            jobs=jobs,
            served_from_store=served_store + served_resume,
            served_from_resume=served_resume,
        )

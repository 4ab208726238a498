"""Wire protocol of the distributed sweep executor.

One frame per line: a JSON object terminated by ``\\n``, written over a
plain TCP stream.  Every exchange is strict request/response, so a
connection is a sequence of RPCs; the coordinator handles many concurrent
connections (one thread each, ``ThreadingTCPServer``).

Frame types (worker → coordinator, with the coordinator's replies):

====================  =====================================================
``hello``             fingerprint handshake; replied with ``welcome`` (plan
                      size, lease timeout) or ``reject`` (reason names both
                      fingerprints) — required before ``claim``/
                      ``heartbeat``/``complete`` on that connection.
``claim``             request a shard; replied with ``lease`` (index, spec,
                      spec_key, lease id, deadline), ``wait`` (everything
                      is leased; retry_after seconds) or ``drained`` (all
                      shards done — the worker exits).
``heartbeat``         extend a lease; replied ``ok`` while the lease is
                      live, ``expired`` once it lapsed (the shard may have
                      been re-issued).
``complete``          deliver a finished record; replied ``ok`` with
                      ``accepted: false`` for duplicate completions, or
                      ``reject`` (reason) when the index names no shard,
                      the record is another spec's or does not parse.
``status``            progress snapshot; needs no handshake (monitoring).
====================  =====================================================

Everything here is stdlib-only on purpose — the executor must run anywhere
the store runs.
"""

from __future__ import annotations

import json
import os
import socket
from typing import Dict, Optional, Tuple, Union

Address = Union[str, Tuple[str, int]]


class ProtocolError(RuntimeError):
    """A malformed frame, an unexpected reply, or a dropped connection."""


class WorkerRejectedError(RuntimeError):
    """The coordinator refused this worker (fingerprint mismatch, by name)."""


def parse_address(address: Address) -> Tuple[str, int]:
    """``"HOST:PORT"`` (or an already-split tuple) → ``(host, port)``."""
    if isinstance(address, tuple):
        host, port = address
        return str(host), int(port)
    host, sep, port = str(address).rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"coordinator address must look like HOST:PORT, got {address!r}"
        )
    return host, int(port)


def write_frame(wfile, payload: Dict[str, object]) -> None:
    """Serialize one frame (compact JSON + newline) and flush it."""
    wfile.write(json.dumps(payload, separators=(",", ":")).encode("utf-8") + b"\n")
    wfile.flush()


def read_frame(rfile) -> Optional[Dict[str, object]]:
    """Read one frame; ``None`` on a cleanly closed connection."""
    line = rfile.readline()
    if not line:
        return None
    try:
        frame = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"malformed frame {line[:80]!r}: {exc}") from None
    if not isinstance(frame, dict) or "type" not in frame:
        raise ProtocolError(f"frame without a type: {frame!r}")
    return frame


def default_worker_id() -> str:
    """``hostname-pid`` — unique enough to tell workers apart in status."""
    return f"{socket.gethostname()}-{os.getpid()}"


class CoordinatorClient:
    """One worker-side connection to a coordinator (strict request/response).

    Cheap to construct: the heartbeat thread opens a fresh client per beat
    rather than interleaving frames with an in-flight ``claim`` on the main
    connection.  Use as a context manager or call :meth:`close`.
    """

    def __init__(
        self,
        address: Address,
        worker: str = "",
        fingerprint: Optional[str] = None,
        timeout: float = 30.0,
    ) -> None:
        self.host, self.port = parse_address(address)
        self.worker = worker or default_worker_id()
        if fingerprint is None:
            from repro.store.keys import code_fingerprint

            fingerprint = code_fingerprint()
        self.fingerprint = fingerprint
        self._sock = socket.create_connection((self.host, self.port), timeout=timeout)
        self._rfile = self._sock.makefile("rb")
        self._wfile = self._sock.makefile("wb")

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _rpc(self, payload: Dict[str, object]) -> Dict[str, object]:
        write_frame(self._wfile, payload)
        reply = read_frame(self._rfile)
        if reply is None:
            raise ProtocolError(
                f"coordinator at {self.host}:{self.port} closed the connection "
                f"mid-exchange (request type {payload.get('type')!r})"
            )
        if reply.get("type") == "error":
            raise ProtocolError(str(reply.get("reason", "unspecified protocol error")))
        return reply

    def close(self) -> None:
        for closer in (self._rfile.close, self._wfile.close, self._sock.close):
            try:
                closer()
            except OSError:  # pragma: no cover - teardown races only
                pass

    def __enter__(self) -> "CoordinatorClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # RPCs
    # ------------------------------------------------------------------
    def hello(self) -> Dict[str, object]:
        """Fingerprint handshake; raises :class:`WorkerRejectedError` on reject."""
        reply = self._rpc(
            {"type": "hello", "worker": self.worker, "fingerprint": self.fingerprint}
        )
        if reply.get("type") == "reject":
            raise WorkerRejectedError(str(reply.get("reason", "rejected")))
        if reply.get("type") != "welcome":
            raise ProtocolError(f"expected welcome, got {reply!r}")
        return reply

    def claim(self) -> Dict[str, object]:
        """Ask for a shard: a ``lease``, ``wait`` or ``drained`` reply."""
        reply = self._rpc({"type": "claim", "worker": self.worker})
        if reply.get("type") not in ("lease", "wait", "drained"):
            raise ProtocolError(f"unexpected claim reply {reply!r}")
        return reply

    def heartbeat(self, lease: str) -> bool:
        """Extend a lease; ``False`` once it expired (shard may be re-issued)."""
        reply = self._rpc({"type": "heartbeat", "worker": self.worker, "lease": lease})
        return reply.get("type") == "ok"

    def complete(self, lease: str, index: int, record: Dict[str, object]) -> bool:
        """Deliver a finished record; ``False`` marks a duplicate completion."""
        reply = self._rpc(
            {
                "type": "complete",
                "worker": self.worker,
                "lease": lease,
                "index": index,
                "record": record,
            }
        )
        if reply.get("type") == "reject":
            raise ProtocolError(f"completion rejected: {reply.get('reason')}")
        return bool(reply.get("accepted"))

    def status(self) -> Dict[str, object]:
        """The coordinator's progress snapshot (no handshake required)."""
        return self._rpc({"type": "status"})


def coordinator_status(address: Address, timeout: float = 10.0) -> Dict[str, object]:
    """One-shot status query against a running coordinator."""
    with CoordinatorClient(address, worker="status-probe", timeout=timeout) as client:
        return client.status()

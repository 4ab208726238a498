"""The lease state machine behind the coordinator: spec-keyed shard claiming.

A :class:`ShardBoard` owns a plan's specs as indexed shards and hands them
out under **leases**: a claim moves a shard ``pending → leased`` with a
deadline; heartbeats push the deadline forward; a shard whose deadline
lapses is re-issued to the next claimer (at-least-once execution).
Completions are first-wins per shard — a late completion from an expired
lease is still accepted if nobody else finished the shard first, and a
*second* completion is acknowledged but discarded (exactly-once results).

The board is pure bookkeeping — no sockets, no store — and takes an
injectable ``clock``, so every lease race (expiry, re-issue, duplicate
completion) is testable deterministically without sleeping.  All methods
are thread-safe; the TCP handler threads of
:class:`~repro.dist.coordinator.DistCoordinator` call straight into it.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.plan import ExperimentSpec
from repro.experiments.sweep import ExperimentRecord

#: default lease lifetime; heartbeats are expected every third of this
DEFAULT_LEASE_TIMEOUT = 30.0

#: shard lifecycle states
PENDING, LEASED, DONE = "pending", "leased", "done"


@dataclass
class Shard:
    """One unit of claimable work: a plan slot, its spec and its lease."""

    index: int
    spec: ExperimentSpec
    spec_key: str
    state: str = PENDING
    lease_id: Optional[str] = None
    worker: Optional[str] = None
    deadline: float = 0.0
    #: how many times this shard has been issued (>1 means re-issue)
    attempts: int = 0
    record: Optional[ExperimentRecord] = None
    #: "store"/"resume" when the record was served instead of executed
    served_from: Optional[str] = None


@dataclass
class ClaimResult:
    """What :meth:`ShardBoard.claim` returns: one of three outcomes."""

    kind: str  # "lease" | "wait" | "drained"
    shard: Optional[Shard] = None
    retry_after: float = 0.0


class CompletionRejected(ValueError):
    """A completion that names no shard of the plan or the wrong spec's record."""


@dataclass
class BoardCounters:
    """Race bookkeeping surfaced through the coordinator's status."""

    expired_leases: int = 0
    duplicate_completions: int = 0
    #: accepted fresh completions per worker id
    completed_by: Dict[str, int] = field(default_factory=dict)


class ShardBoard:
    """Thread-safe lease-based claiming over a plan's indexed specs."""

    def __init__(
        self,
        specs: Sequence[ExperimentSpec],
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        from repro.store.keys import spec_key

        self.lease_timeout = float(lease_timeout)
        self.clock = clock or time.monotonic
        self.shards: List[Shard] = [
            Shard(index=i, spec=spec, spec_key=spec_key(spec))
            for i, spec in enumerate(specs)
        ]
        self.counters = BoardCounters()
        self._lock = threading.Lock()
        self._done = threading.Event()
        self._lease_seq = 0
        if not self.shards:
            self._done.set()

    # ------------------------------------------------------------------
    # serving (store/resume hits — before any shard is issued)
    # ------------------------------------------------------------------
    def serve(self, index: int, record: ExperimentRecord, source: str) -> None:
        """Mark a shard done with an already-known record (store/resume hit)."""
        with self._lock:
            shard = self.shards[index]
            if shard.state == DONE:
                return
            shard.state = DONE
            shard.record = record
            shard.served_from = source
            self._check_done()

    # ------------------------------------------------------------------
    # the lease protocol
    # ------------------------------------------------------------------
    def claim(self, worker: str) -> ClaimResult:
        """Issue the first pending (or expired-lease) shard, in plan order."""
        with self._lock:
            now = self.clock()
            earliest: Optional[float] = None
            for shard in self.shards:
                if shard.state == PENDING or (
                    shard.state == LEASED and shard.deadline <= now
                ):
                    if shard.state == LEASED:
                        self.counters.expired_leases += 1
                    self._lease_seq += 1
                    shard.state = LEASED
                    shard.lease_id = f"L{self._lease_seq:05d}"
                    shard.worker = worker
                    shard.deadline = now + self.lease_timeout
                    shard.attempts += 1
                    return ClaimResult(kind="lease", shard=shard)
                if shard.state == LEASED:
                    earliest = (
                        shard.deadline
                        if earliest is None
                        else min(earliest, shard.deadline)
                    )
            if earliest is None:  # nothing pending, nothing leased
                return ClaimResult(kind="drained")
            retry = max(0.05, min(earliest - now, 1.0))
            return ClaimResult(kind="wait", retry_after=retry)

    def heartbeat(self, lease_id: str) -> bool:
        """Extend a live lease's deadline; ``False`` once it already lapsed."""
        with self._lock:
            now = self.clock()
            for shard in self.shards:
                if shard.state == LEASED and shard.lease_id == lease_id:
                    if shard.deadline <= now:
                        return False
                    shard.deadline = now + self.lease_timeout
                    return True
            return False

    def complete(
        self, index: int, record: ExperimentRecord, worker: str = "?"
    ) -> bool:
        """Accept a finished record (first-wins); ``False`` for duplicates.

        A completion from an *expired* lease is still accepted when the
        shard is not yet done — the record is a pure function of the spec,
        so whichever attempt finishes first is as good as any other
        (at-least-once execution, exactly-once results).  A completion that
        names no shard of this plan, or carries another spec's record,
        raises :class:`CompletionRejected` and changes nothing.
        """
        from repro.store.keys import spec_key

        if isinstance(index, bool) or not isinstance(index, int):
            raise CompletionRejected(f"completion index must be an integer, got {index!r}")
        if not 0 <= index < len(self.shards):
            raise CompletionRejected(
                f"completion index {index} is out of range for a plan of "
                f"{len(self.shards)} shards"
            )
        shard = self.shards[index]
        key = spec_key(record.spec)
        if key != shard.spec_key:
            raise CompletionRejected(
                f"completion for shard {index} ({shard.spec.key}, spec_key "
                f"{shard.spec_key}) carries a record of {record.spec.key} "
                f"(spec_key {key})"
            )
        with self._lock:
            if shard.state == DONE:
                self.counters.duplicate_completions += 1
                return False
            shard.state = DONE
            shard.record = record
            shard.worker = worker
            self.counters.completed_by[worker] = (
                self.counters.completed_by.get(worker, 0) + 1
            )
            self._check_done()
            return True

    # ------------------------------------------------------------------
    # progress
    # ------------------------------------------------------------------
    def _check_done(self) -> None:
        if all(shard.state == DONE for shard in self.shards):
            self._done.set()

    @property
    def finished(self) -> bool:
        return self._done.is_set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until every shard is done (or the timeout elapses)."""
        return self._done.wait(timeout=timeout)

    def counts(self) -> Dict[str, int]:
        with self._lock:
            by_state = {PENDING: 0, LEASED: 0, DONE: 0}
            served = {"store": 0, "resume": 0}
            for shard in self.shards:
                by_state[shard.state] += 1
                if shard.served_from:
                    served[shard.served_from] += 1
            return {
                "total": len(self.shards),
                "pending": by_state[PENDING],
                "leased": by_state[LEASED],
                "done": by_state[DONE],
                "served_from_store": served["store"],
                "served_from_resume": served["resume"],
                "executed": by_state[DONE] - served["store"] - served["resume"],
            }

    def records(self) -> Tuple[List[ExperimentRecord], int, int]:
        """Plan-ordered records plus (store, resume) served counts.

        Only valid once :attr:`finished`; raises otherwise, because a
        partial list would silently break plan-order reassembly.
        """
        with self._lock:
            missing = [s.index for s in self.shards if s.record is None]
            if missing:
                raise RuntimeError(
                    f"board is not finished: {len(missing)} shard(s) without a "
                    f"record (first missing index {missing[0]})"
                )
            served_store = sum(1 for s in self.shards if s.served_from == "store")
            served_resume = sum(1 for s in self.shards if s.served_from == "resume")
            return [s.record for s in self.shards], served_store, served_resume

"""Distributed sweep executor: multi-host shard claiming over the result store.

The eighth subsystem generalizes the sweep runner beyond one host.  A
:class:`~repro.dist.coordinator.DistCoordinator` shards an
:class:`~repro.experiments.plan.ExperimentPlan` into **spec-keyed work
units** — the same content-addressed keys the result store uses — and serves
them to workers over a small TCP protocol (stdlib ``socketserver``,
newline-delimited JSON frames; no new dependency).  A worker
(``python -m repro dist-worker HOST:PORT``) claims a lease, runs the spec
through the existing :func:`~repro.experiments.sweep.execute_spec` path and
streams the finished :class:`~repro.experiments.sweep.ExperimentRecord`
back for incremental store flush.

Correctness contract (pinned by ``tests/test_dist.py`` and the CI
``dist-smoke`` job):

* **Leases, not assignments** — a claimed shard carries a lease with a
  heartbeat deadline; a crashed or partitioned worker's lease expires and
  the shard is re-issued to the next claimer (*at-least-once execution*).
* **Exactly-once persistence** — completions are accepted first-wins per
  shard; duplicates from expired leases are acknowledged but discarded, and
  the store's ``(spec_key, fingerprint)`` upsert makes even a racing flush
  idempotent.
* **Fingerprint handshake** — a worker running different code than the
  coordinator is rejected *by name* (both fingerprints in the message)
  before it can claim anything.
* **Store hits first** — records already in the result store (or a
  ``--resume`` file) are served before any shard is issued, so a warm
  distributed sweep spawns zero workers.
* **Plan-order reassembly** — the coordinator's
  :class:`~repro.experiments.sweep.SweepResult` is index-reassembled, so
  ``sweep --distributed N --canonical`` output is byte-identical to a
  serial run of the same plan.

:func:`run_distributed_sweep` is the localhost proof-of-contract behind
``python -m repro sweep --distributed N``: one in-process coordinator plus
``N`` worker subprocesses (or in-process threads for tests).
"""

from repro.dist.board import DEFAULT_LEASE_TIMEOUT, CompletionRejected, ShardBoard
from repro.dist.coordinator import DistCoordinator, active_coordinators
from repro.dist.launch import DistributedSweepError, run_distributed_sweep, spawn_worker
from repro.dist.protocol import (
    CoordinatorClient,
    ProtocolError,
    WorkerRejectedError,
    coordinator_status,
    parse_address,
)
from repro.dist.worker import run_worker

__all__ = [
    "DEFAULT_LEASE_TIMEOUT",
    "CompletionRejected",
    "ShardBoard",
    "DistCoordinator",
    "active_coordinators",
    "DistributedSweepError",
    "run_distributed_sweep",
    "spawn_worker",
    "CoordinatorClient",
    "ProtocolError",
    "WorkerRejectedError",
    "coordinator_status",
    "parse_address",
    "run_worker",
]

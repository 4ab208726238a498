"""Distributed sweep executor: lease board, TCP protocol, end-to-end runs.

The correctness contract of :mod:`repro.dist`, each half pinned here:

* **Lease state machine** — claim/heartbeat/expiry/re-issue/duplicate-
  completion races, driven deterministically through an injectable clock
  (no sleeps) on the pure :class:`~repro.dist.board.ShardBoard` and then
  again over real TCP with two :class:`~repro.dist.protocol.
  CoordinatorClient` connections against one coordinator.
* **Exactly-once persistence** — at-least-once execution (an expired
  lease's shard is re-issued) never produces duplicate store rows or
  duplicate records in the reassembled result.
* **Byte-identical reassembly** — ``run_distributed_sweep`` (in-process
  workers and real ``dist-worker`` subprocesses, warm store or cold) and
  ``sweep --distributed --canonical`` serialise byte-for-byte identically
  to a serial run of the same plan.
* **Fingerprint handshake** — a worker running different code is rejected
  by name before it can claim anything.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.dist import (
    CompletionRejected,
    CoordinatorClient,
    DistCoordinator,
    ProtocolError,
    ShardBoard,
    WorkerRejectedError,
    active_coordinators,
    coordinator_status,
    parse_address,
    run_distributed_sweep,
    run_worker,
)
from repro.experiments.cli import main as cli_main
from repro.experiments.plan import ExperimentPlan
from repro.experiments.sweep import RUN_COUNTER, SweepRunner, execute_spec
from repro.store import ResultStore, spec_key


@pytest.fixture(autouse=True)
def _pinned_fingerprint(monkeypatch):
    """Pin the code fingerprint so handshakes never depend on git state."""
    monkeypatch.setenv("REPRO_CODE_FINGERPRINT", "dist-test-fp")


PLAN = ExperimentPlan(ns=(24,), adversaries=("none", "silent"), seeds=(3,))
#: a spec that is not in PLAN
FOREIGN = ExperimentPlan(ns=(32,), seeds=(9,)).specs()[0]


class FakeClock:
    """A settable monotonic clock for deterministic lease races."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _board(clock=None, lease_timeout=10.0, specs=None):
    return ShardBoard(
        specs if specs is not None else PLAN.specs(),
        lease_timeout=lease_timeout,
        clock=clock,
    )


# ----------------------------------------------------------------------
# the lease state machine (no sockets, no sleeps)
# ----------------------------------------------------------------------
class TestShardBoard:
    def test_claims_issue_in_plan_order(self):
        board = _board(FakeClock())
        first = board.claim("w1")
        second = board.claim("w2")
        assert (first.kind, second.kind) == ("lease", "lease")
        assert (first.shard.index, second.shard.index) == (0, 1)
        assert first.shard.lease_id != second.shard.lease_id

    def test_all_leased_means_wait_with_bounded_retry(self):
        clock = FakeClock()
        board = _board(clock, lease_timeout=10.0)
        board.claim("w1")
        board.claim("w1")
        result = board.claim("w2")
        assert result.kind == "wait"
        assert 0.05 <= result.retry_after <= 1.0

    def test_heartbeat_extends_the_deadline(self):
        clock = FakeClock()
        board = _board(clock, lease_timeout=10.0)
        lease = board.claim("w1").shard.lease_id
        clock.advance(8.0)
        assert board.heartbeat(lease)  # extended to now+10
        clock.advance(8.0)  # 16s after claim: dead without the beat
        assert board.claim("w2").shard.index == 1  # shard 0 still live

    def test_expired_lease_is_reissued_and_counted(self):
        clock = FakeClock()
        board = _board(clock, lease_timeout=10.0)
        first = board.claim("w1").shard
        old_lease = first.lease_id
        clock.advance(11.0)
        reissued = board.claim("w2").shard
        assert reissued.index == 0
        assert reissued.worker == "w2"
        assert reissued.attempts == 2
        assert board.counters.expired_leases == 1
        assert not board.heartbeat(old_lease)  # the old lease is gone

    def test_duplicate_completion_is_discarded_first_wins(self):
        clock = FakeClock()
        board = _board(clock, lease_timeout=10.0)
        shard = board.claim("w1").shard
        record = execute_spec(shard.spec)
        clock.advance(11.0)
        board.claim("w2")  # re-issue after expiry
        # the original (expired) attempt finishes first: still accepted
        assert board.complete(0, record, worker="w1")
        assert not board.complete(0, record, worker="w2")
        assert board.counters.duplicate_completions == 1
        assert board.counters.completed_by == {"w1": 1}

    @pytest.mark.parametrize("index", [-1, 2, 99])
    def test_completion_outside_the_plan_is_rejected(self, index):
        board = _board(FakeClock())
        board.claim("w1")
        record = execute_spec(PLAN.specs()[0])
        with pytest.raises(CompletionRejected, match=f"index {index} is out of range"):
            board.complete(index, record, worker="w1")
        assert board.counts()["done"] == 0
        assert board.counters.completed_by == {}

    def test_negative_index_with_a_foreign_record_is_rejected(self):
        # index -1 used to alias the last shard and store the foreign record
        board = _board(FakeClock())
        with pytest.raises(CompletionRejected, match="out of range"):
            board.complete(-1, execute_spec(FOREIGN), worker="w1")
        assert all(shard.record is None for shard in board.shards)

    def test_completion_with_another_specs_record_is_rejected(self):
        board = _board(FakeClock())
        shard = board.claim("w1").shard
        other = PLAN.specs()[1]
        with pytest.raises(CompletionRejected) as excinfo:
            board.complete(shard.index, execute_spec(other), worker="w1")
        message = str(excinfo.value)
        assert shard.spec.key in message and other.key in message
        assert shard.state == "leased" and shard.record is None
        # the right record still lands afterwards
        assert board.complete(shard.index, execute_spec(shard.spec), worker="w1")

    @pytest.mark.parametrize("index", [None, "0", 0.0, True])
    def test_non_integer_index_is_rejected(self, index):
        board = _board(FakeClock())
        with pytest.raises(CompletionRejected, match="must be an integer"):
            board.complete(index, execute_spec(PLAN.specs()[0]))

    def test_served_shards_are_never_issued(self):
        board = _board(FakeClock())
        record = execute_spec(PLAN.specs()[0])
        board.serve(0, record, "store")
        assert board.claim("w1").shard.index == 1
        counts = board.counts()
        assert counts["served_from_store"] == 1 and counts["done"] == 1

    def test_drained_and_plan_order_records(self):
        board = _board(FakeClock())
        for _ in range(2):
            shard = board.claim("w1").shard
            board.complete(shard.index, execute_spec(shard.spec), worker="w1")
        assert board.claim("w1").kind == "drained"
        assert board.finished and board.wait(timeout=0.1)
        records, served_store, served_resume = board.records()
        assert [r.spec for r in records] == list(PLAN.specs())
        assert (served_store, served_resume) == (0, 0)

    def test_records_refuses_a_partial_board(self):
        board = _board(FakeClock())
        with pytest.raises(RuntimeError, match="not finished"):
            board.records()

    def test_empty_plan_is_born_finished(self):
        board = _board(FakeClock(), specs=[])
        assert board.finished
        assert board.claim("w1").kind == "drained"


# ----------------------------------------------------------------------
# the TCP protocol against a live coordinator
# ----------------------------------------------------------------------
class TestCoordinatorTCP:
    def test_lease_race_over_tcp_reassembles_identically(self):
        """Two workers race one shard after an expiry — the duplicate is
        discarded and the reassembled result matches a serial run."""
        clock = FakeClock()
        serial = SweepRunner(PLAN, jobs=1).run()
        with DistCoordinator(PLAN, lease_timeout=10.0, clock=clock) as coord:
            address = coord.address
            with CoordinatorClient(address, worker="w1") as w1, CoordinatorClient(
                address, worker="w2"
            ) as w2:
                w1.hello()
                w2.hello()
                lease0 = w1.claim()
                lease1 = w2.claim()
                assert (lease0["index"], lease1["index"]) == (0, 1)
                record1 = execute_spec(PLAN.specs()[1])
                assert w2.complete(lease1["lease"], 1, record1.to_dict())
                clock.advance(11.0)  # w1's lease lapses unheartbeated
                assert not w1.heartbeat(lease0["lease"])
                retry = w2.claim()
                assert retry["index"] == 0 and retry["attempt"] == 2
                record0 = execute_spec(PLAN.specs()[0])
                # slow original attempt lands first, retry is the duplicate
                assert w1.complete(lease0["lease"], 0, record0.to_dict())
                assert not w2.complete(retry["lease"], 0, record0.to_dict())
            status = coord.status()
            assert status["expired_leases"] == 1
            assert status["duplicate_completions"] == 1
            result = coord.result(timeout=5.0)
        assert json.dumps(result.canonical_dict()) == json.dumps(
            serial.canonical_dict()
        )

    def test_stale_code_worker_is_rejected_by_name(self):
        with DistCoordinator(PLAN) as coord:
            client = CoordinatorClient(
                coord.address, worker="stale-w", fingerprint="other-fp"
            )
            with client:
                with pytest.raises(WorkerRejectedError) as excinfo:
                    client.hello()
            message = str(excinfo.value)
            assert "stale-w" in message
            assert "other-fp" in message and "dist-test-fp" in message
            # run_worker surfaces the same rejection
            with pytest.raises(WorkerRejectedError):
                run_worker(coord.address, worker_id="w", fingerprint="other-fp")

    def test_claim_before_hello_is_a_protocol_error(self):
        with DistCoordinator(PLAN) as coord:
            with CoordinatorClient(coord.address, worker="rude") as client:
                with pytest.raises(ProtocolError, match="handshake required"):
                    client.claim()

    def test_bad_completion_frames_are_rejected_by_name(self):
        good = execute_spec(PLAN.specs()[0]).to_dict()
        foreign = execute_spec(FOREIGN).to_dict()
        bad_frames = {
            "out of range": {"index": -1, "record": foreign},
            "must be an integer": {"record": good},
            "carries a record of": {"index": 0, "record": foreign},
            "does not parse": {"index": 0, "record": {"spec": {"bogus": 1}}},
            "must be an object": {"index": 0},
        }
        with DistCoordinator(PLAN) as coord:
            with CoordinatorClient(coord.address, worker="w1") as client:
                client.hello()
                lease = client.claim()
                for reason, frame in bad_frames.items():
                    reply = client._rpc({"type": "complete", "worker": "w1", **frame})
                    assert reply["type"] == "reject" and reason in reply["reason"]
                with pytest.raises(ProtocolError, match="completion rejected"):
                    client.complete(lease["lease"], 5, good)
                # the connection survived every rejection, and nothing landed
                assert coord.status()["done"] == 0
                assert client.complete(lease["lease"], 0, good)

    def test_status_needs_no_handshake_and_registry_lists_it(self):
        with DistCoordinator(PLAN) as coord:
            host, port = coord.address
            status = coordinator_status(f"{host}:{port}")
            assert status["total"] == 2 and not status["finished"]
            assert any(
                c["address"] == f"{host}:{port}" for c in active_coordinators()
            )
        assert all(
            c["address"] != f"{host}:{port}" for c in active_coordinators()
        )

    def test_parse_address(self):
        assert parse_address("127.0.0.1:7341") == ("127.0.0.1", 7341)
        assert parse_address(("h", 1)) == ("h", 1)
        with pytest.raises(ValueError, match="HOST:PORT"):
            parse_address("7341")


# ----------------------------------------------------------------------
# end-to-end distributed sweeps
# ----------------------------------------------------------------------
class TestDistributedSweep:
    def test_in_process_workers_match_serial_byte_for_byte(self):
        serial = SweepRunner(PLAN, jobs=1).run()
        result = run_distributed_sweep(PLAN, workers=2, in_process=True)
        assert json.dumps(result.canonical_dict()) == json.dumps(
            serial.canonical_dict()
        )
        assert result.jobs == 2

    def test_store_flushes_exactly_once_and_warm_plan_spawns_nothing(
        self, tmp_path
    ):
        with ResultStore(str(tmp_path / "s.sqlite")) as store:
            first = run_distributed_sweep(
                PLAN, workers=2, store=store, in_process=True
            )
            assert first.served_from_store == 0
            assert store.stats()["records"] == len(PLAN)  # zero duplicates
            executed_before = RUN_COUNTER["executed"]
            warm = run_distributed_sweep(
                PLAN, workers=2, store=store, in_process=True
            )
            # fully served before the server listens: nothing executed in
            # this process, no worker threads started, jobs reads 1
            assert RUN_COUNTER["executed"] == executed_before
            assert warm.served_from_store == len(PLAN)
            assert warm.jobs == 1
            assert [r.spec for r in warm.records] == [
                r.spec for r in first.records
            ]

    @pytest.mark.parametrize("executor", ["sweep", "distributed"])
    def test_resume_seeds_serve_and_repersist(self, tmp_path, executor):
        # one store hit, one resume seed, one miss — both executors serve
        # through the same serve_plan and must agree on every count
        plan = ExperimentPlan(ns=(24,), seeds=(3, 4, 5))
        complete = SweepRunner(plan, jobs=1).run()
        seeds = {spec_key(complete.records[1].spec): complete.records[1]}
        events = []

        def on_record(index, _record, served):
            events.append((index, served))

        with ResultStore(str(tmp_path / "s.sqlite")) as store:
            store.put(complete.records[0])
            if executor == "sweep":
                result = SweepRunner(plan, jobs=1).run(
                    store=store, seed_records=seeds, on_record=on_record
                )
            else:
                result = run_distributed_sweep(
                    plan, workers=2, store=store, seed_records=seeds,
                    in_process=True, on_record=on_record,
                )
            assert result.served_from_store == 2  # combined served count
            assert result.served_from_resume == 1
            assert store.stats()["records"] == len(plan)  # seed re-persisted
        assert events == [(0, True), (1, True), (2, False)]
        assert json.dumps(result.canonical_dict()) == json.dumps(
            complete.canonical_dict()
        )

    def test_worker_subprocesses_match_serial(self, tmp_path):
        serial = SweepRunner(PLAN, jobs=1).run()
        with ResultStore(str(tmp_path / "s.sqlite")) as store:
            result = run_distributed_sweep(
                PLAN, workers=2, store=store, lease_timeout=15.0
            )
            assert store.stats()["records"] == len(PLAN)
        assert json.dumps(result.canonical_dict()) == json.dumps(
            serial.canonical_dict()
        )

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError, match="workers"):
            run_distributed_sweep(PLAN, workers=0)


# ----------------------------------------------------------------------
# CLI: sweep --distributed / --canonical, dist-worker
# ----------------------------------------------------------------------
class TestDistCLI:
    SWEEP = ["sweep", "--ns", "24", "--adversaries", "none,silent",
             "--seeds", "3", "--no-store", "--jobs", "1"]

    def test_distributed_sweep_is_byte_identical_to_serial(self, tmp_path, capsys):
        serial_out = str(tmp_path / "serial.json")
        dist_out = str(tmp_path / "dist.json")
        assert cli_main([*self.SWEEP, "--canonical", "--out", serial_out]) == 0
        assert (
            cli_main(
                [*self.SWEEP, "--canonical", "--out", dist_out,
                 "--distributed", "2", "--lease-timeout", "15"]
            )
            == 0
        )
        assert "distributed workers" in capsys.readouterr().out
        with open(serial_out, "rb") as a, open(dist_out, "rb") as b:
            assert a.read() == b.read()

    def test_canonical_zeroes_volatile_fields(self, tmp_path):
        out = tmp_path / "sweep.json"
        assert cli_main([*self.SWEEP, "--canonical", "--out", str(out)]) == 0
        data = json.loads(out.read_text(encoding="utf-8"))
        assert data["total_seconds"] == 0.0 and data["jobs"] == 0
        assert all(r["seconds"] == 0.0 for r in data["records"])

    def test_dist_worker_command_drains_a_coordinator(self, capsys):
        coordinator = DistCoordinator(PLAN, lease_timeout=15.0)
        with coordinator:
            host, port = coordinator.address
            code = cli_main(
                ["dist-worker", f"{host}:{port}", "--id", "cli-w", "--poll", "0.1"]
            )
            assert code == 0
            assert "executed 2 shard(s)" in capsys.readouterr().out
            assert coordinator.board.finished
            assert coordinator.status()["completed_by"] == {"cli-w": 2}

    def test_dist_worker_command_reports_rejection(self, monkeypatch, capsys):
        with DistCoordinator(PLAN) as coordinator:
            host, port = coordinator.address
            monkeypatch.setenv("REPRO_CODE_FINGERPRINT", "stale-fp")
            assert cli_main(["dist-worker", f"{host}:{port}"]) == 2
            assert "fingerprint mismatch" in capsys.readouterr().err

    def test_dist_worker_command_without_a_coordinator(self, capsys):
        assert cli_main(["dist-worker", "127.0.0.1:9", "--poll", "0.1"]) == 2
        assert "cannot work against" in capsys.readouterr().err


# ----------------------------------------------------------------------
# concurrent in-process workers racing one coordinator
# ----------------------------------------------------------------------
def test_two_worker_threads_split_the_plan():
    plan = ExperimentPlan(ns=(24,), adversaries=("none", "silent"), seeds=(3, 4))
    with DistCoordinator(plan, lease_timeout=15.0) as coordinator:
        host, port = coordinator.address
        counts = {}

        def work(name):
            counts[name] = run_worker(
                (host, port), worker_id=name, poll_interval=0.05
            )

        threads = [
            threading.Thread(target=work, args=(f"t{i}",)) for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert coordinator.wait(timeout=5.0)
        assert sum(counts.values()) == len(plan)  # nothing executed twice
        result = coordinator.result(timeout=5.0)
    assert [r.spec for r in result.records] == list(plan.specs())


# ----------------------------------------------------------------------
# bench cases and the service endpoint
# ----------------------------------------------------------------------
def test_bench_distributed_cases_schema():
    from repro.experiments.bench import build_report, run_distributed_cases

    tiny = ExperimentPlan(ns=(24,), seeds=(3, 4))
    cases = run_distributed_cases(repeats=1, plan=tiny, in_process=True)
    assert [c["key"] for c in cases] == [
        "pooled_n2", "distributed_n2", "distributed_n4",
    ]
    for case in cases:
        assert case["agreement_reached"] and case["seconds"] > 0
        assert case["total_messages"] > 0
    report = build_report(cases=cases, repeats=1, commit="test")
    assert report["distributed_overhead_n2"] == pytest.approx(
        cases[1]["seconds"] / cases[0]["seconds"], abs=0.01
    )


def test_service_lists_live_coordinators():
    from repro.service import fastapi_available

    if not fastapi_available():
        pytest.skip("needs the [service] extra")
    from fastapi.testclient import TestClient

    from repro.service import create_app
    from repro.service.jobs import JobManager

    app = create_app(manager=JobManager(store=None, jobs=1))
    with TestClient(app) as client:
        assert client.get("/dist/coordinators").json() == []
        with DistCoordinator(PLAN) as coordinator:
            host, port = coordinator.address
            listed = client.get("/dist/coordinators").json()
            assert [c["address"] for c in listed] == [f"{host}:{port}"]
            assert listed[0]["total"] == len(PLAN)
        assert client.get("/dist/coordinators").json() == []

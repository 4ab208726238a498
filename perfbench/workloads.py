"""The benchmark's four workloads: inputs from a seed, one timed section each.

A workload object is built from ``(seed, tiny)``; :meth:`Workload.setup`
does everything the benchmark counts as set-up (config and scenario
construction, and for ``vec_adversaries`` the seed's I/H table builds), and
:meth:`Workload.run` is the timed section.  ``tiny=True`` shrinks every
system size so the benchmark's own tests can run all four workloads in
seconds; the full sizes are what ``BENCHMARK.json`` measures.

The program only ever sees the generated specs: in-process workloads build
the scenario the protocol adapter would build for the spec and call
:func:`repro.runner.run_aer` on it, and the pipeline workload hands plans to
:class:`~repro.experiments.sweep.SweepRunner` and
:func:`~repro.dist.launch.run_distributed_sweep`.

Every spec yields a digest (message and bit totals, rounds or span, and a
hash of the correct nodes' decisions) that the run compares against the
recorded reference, plus a safety check that no correct node decided
anything but ``gstring``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
import traceback
from typing import Dict, List, Optional, Tuple

from repro.core.config import AERConfig
from repro.experiments.plan import ExperimentPlan, ExperimentSpec
from repro.protocols.scenarios import make_scenario_by_name

#: pool workers and distributed workers (each holds one TCP connection);
#: never more than the two cores of the reference machine
WORKERS = 2


class Outcome:
    """What one timed section produced, checked spec by spec."""

    def __init__(self, reference: Optional[Dict[str, dict]]) -> None:
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.digests: Dict[str, dict] = {}
        #: simulated messages of the specs executed (not served) here
        self.messages = 0
        self.first_record_t: Optional[float] = None
        #: per-layer work counters read from results (vectorized rounds),
        #: merged into the traced run's layer metrics
        self.work: Dict[str, float] = {}

    def fail(self, key: str, reason: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{key}: {reason}")

    def check(self, key: str, digest: dict, wrong: int) -> None:
        """Count one attempted spec; fail it on a safety or digest mismatch."""
        self.attempted += 1
        self.digests[key] = digest
        if self.first_record_t is None:
            self.first_record_t = time.perf_counter()
        if wrong:
            self.fail(key, f"{wrong} correct node(s) decided a value other than gstring")
        elif self.reference is not None:
            expected = self.reference.get(key)
            if expected is None:
                self.fail(key, "no reference digest recorded for this spec")
            elif expected != digest:
                self.fail(key, f"digest {digest} differs from reference {expected}")

    def add_work(self, name: str, amount: float) -> None:
        self.work[name] = self.work.get(name, 0.0) + amount


def simulation_digest(sim, gstring: str) -> Tuple[dict, int]:
    """(digest, number of correct nodes that decided a wrong value)."""
    decisions = sorted(
        (node_id, str(sim.decisions[node_id]))
        for node_id in sim.correct_ids
        if node_id in sim.decisions
    )
    wrong = sum(1 for _node, value in decisions if value != gstring)
    blob = json.dumps(decisions, separators=(",", ":")).encode()
    digest = {
        "messages": sim.metrics_all.total_messages,
        "bits": sim.metrics_all.total_bits,
        "rounds": sim.rounds,
        "span": None if sim.span is None else round(sim.span, 9),
        "decisions": hashlib.sha256(blob).hexdigest()[:16],
    }
    return digest, wrong


def record_digest(record) -> Tuple[dict, int]:
    """Digest of a sweep record, and whether a correct node decided wrong.

    Records carry the fraction of correct nodes that decided ``gstring``
    (rounded to 4 places); at the pipeline's n ≤ 16 one wrong decider moves
    it by more than 1/16, so the comparison with ``decided/correct`` is
    exact.
    """
    decided_gstring = float(record.extras.get("decided_gstring", -1.0))
    expected = round(record.decided_count / max(1, record.correct_count), 4)
    digest = {
        "messages": record.total_messages,
        "bits": record.total_bits,
        "rounds": record.rounds,
        "span": None if record.span is None else round(record.span, 9),
        "decided": record.decided_count,
        "decided_gstring": decided_gstring,
    }
    return digest, int(decided_gstring != expected)


class Workload:
    name = ""

    def __init__(self, seed: int, tiny: bool, work_dir: str) -> None:
        self.seed = seed
        self.tiny = tiny
        self.work_dir = work_dir

    def setup(self) -> None:
        """Everything before the first timed call."""

    def run(self, outcome: Outcome) -> None:
        """The timed section."""
        raise NotImplementedError

    def providers(self) -> List[AERConfig]:
        """Configs whose in-process sampler caches the traced run inspects."""
        return []

    def close(self) -> None:
        """Release what set-up created (after timing)."""


class InProcessWorkload(Workload):
    """Specs run one after another in this process through ``run_aer``."""

    def specs(self) -> List[ExperimentSpec]:
        raise NotImplementedError

    def setup(self) -> None:
        self.prepared = []
        for spec in self.specs():
            # the same config and scenario AERProtocolAdapter.run builds
            config = AERConfig.for_system(
                spec.n, sampler_seed=spec.seed, quorum_multiplier=spec.quorum_multiplier
            )
            t = spec.t if spec.t is not None else max(1, spec.n // 6)
            scenario = make_scenario_by_name(
                "synthetic",
                spec.n,
                config,
                spec.seed,
                t=t,
                knowledge_fraction=spec.knowledge_fraction,
                wrong_candidate_mode=spec.wrong_candidate_mode,
            )
            self.prepared.append((spec, config, scenario))

    def providers(self) -> List[AERConfig]:
        return [config for _spec, config, _scenario in self.prepared]

    def run(self, outcome: Outcome) -> None:
        from repro import runner

        for spec, config, scenario in self.prepared:
            try:
                if spec.backend == "vectorized":
                    sim = runner.run_aer(
                        scenario,
                        config=config,
                        adversary_name=spec.adversary,
                        seed=spec.seed,
                        backend="vectorized",
                    )
                    outcome.add_work("vec.engine.rounds", sim.rounds or 0)
                else:
                    samplers = config.shared_samplers()
                    adversary = runner.make_adversary(
                        spec.adversary, scenario, config, samplers
                    )
                    sim = runner.run_aer(
                        scenario,
                        config=config,
                        adversary=adversary,
                        mode=spec.mode,
                        seed=spec.seed,
                        samplers=samplers,
                    )
            except Exception:
                outcome.attempted += 1
                outcome.fail(spec.key, traceback.format_exc(limit=3).strip())
                continue
            outcome.messages += sim.metrics_all.total_messages
            digest, wrong = simulation_digest(sim, scenario.gstring)
            outcome.check(spec.key, digest, wrong)


class VecCold(InProcessWorkload):
    """One cold vectorized spec; every run is a fresh interpreter."""

    name = "vec_cold"

    def specs(self) -> List[ExperimentSpec]:
        return [
            ExperimentSpec(
                n=1100 if self.tiny else 30_000,
                adversary="none",
                seed=self.seed,
                wrong_candidate_mode="common_wrong",
                backend="vectorized",
            )
        ]


class VecAdversaries(InProcessWorkload):
    """Three adversaries on one seed's warm vectorized tables."""

    name = "vec_adversaries"
    adversaries = ("silent", "quorum_flood", "push_flood")

    def specs(self) -> List[ExperimentSpec]:
        return [
            ExperimentSpec(
                n=1100 if self.tiny else 10_000,
                adversary=adversary,
                seed=self.seed,
                wrong_candidate_mode="common_wrong",
                backend="vectorized",
            )
            for adversary in self.adversaries
        ]

    def setup(self) -> None:
        super().setup()
        from repro.vec.tables import tables_for

        # All three specs share one config (same n and seed): build its I/H
        # tables for every candidate string once, as a sweep worker that
        # runs one seed's adversaries back to back would have them.
        _spec, config, scenario = self.prepared[0]
        tables = tables_for(config)
        for s in sorted(set(scenario.candidates.values())):
            tables.ensure_all("I", s)
            tables.ensure_all("H", s)


class KernelMixed(InProcessWorkload):
    """Message-kernel specs: sync without and with an adversary, and async."""

    name = "kernel_mixed"

    def specs(self) -> List[ExperimentSpec]:
        big, small = (32, 24) if self.tiny else (512, 256)
        return [
            ExperimentSpec(n=big, adversary="none", mode="sync", seed=self.seed),
            ExperimentSpec(n=big, adversary="push_flood", mode="sync", seed=self.seed),
            ExperimentSpec(n=small, adversary="none", mode="async", seed=self.seed),
        ]


class PipelineStore(Workload):
    """Tiny specs through the pooled sweep runner, then a distributed pass.

    Pass A runs plan A with a two-worker pool into a fresh result store.
    Pass B runs plan B, whose seeds overlap half of A's, with two localhost
    distributed workers against the same store: half of B is served from
    the store and half executed.
    """

    name = "pipeline_store"

    def plans(self) -> Tuple[ExperimentPlan, ExperimentPlan]:
        count = 4 if self.tiny else 40
        ns = (8,) if self.tiny else (8, 16)
        base = self.seed * 1000
        seeds = [base + i for i in range(count + count // 2)]

        def plan(chosen):
            return ExperimentPlan(
                ns=ns,
                adversaries=("none", "silent"),
                modes=("sync", "async"),
                seeds=tuple(chosen),
            )

        return plan(seeds[:count]), plan(seeds[count // 2 :])

    def setup(self) -> None:
        from repro.store import ResultStore

        self.plan_a, self.plan_b = self.plans()
        self.store_dir = os.path.join(self.work_dir, f"store-{os.getpid()}")
        self.store = ResultStore(os.path.join(self.store_dir, "results.sqlite"))
        #: per finished pass: (entry time, [(arrival, record, served)], exit time)
        self.passes: Dict[str, tuple] = {}

    def _pass(self, label: str, plan: ExperimentPlan, outcome: Outcome, execute) -> None:
        arrivals: List[tuple] = []

        def on_record(_index, record, served) -> None:
            now = time.perf_counter()
            if outcome.first_record_t is None:
                outcome.first_record_t = now
            arrivals.append((now, record, served))

        specs = plan.specs()
        entered = time.perf_counter()
        try:
            result = execute(on_record)
        except Exception:
            outcome.attempted += len(specs)
            for spec in specs:
                outcome.fail(spec.key, "pass raised before its records were checked")
            outcome.errors.append(traceback.format_exc(limit=3).strip())
            return
        self.passes[label] = (entered, arrivals, time.perf_counter())
        outcome.messages += sum(
            record.total_messages for _t, record, served in arrivals if not served
        )
        records = list(result.records) + [None] * (len(specs) - len(result.records))
        for spec, record in zip(specs, records):
            if record is None or record.spec != spec:
                outcome.attempted += 1
                outcome.fail(spec.key, "missing or misplaced record")
                continue
            digest, wrong = record_digest(record)
            outcome.check(spec.key, digest, wrong)

    def run(self, outcome: Outcome) -> None:
        from repro.dist import launch
        from repro.experiments import sweep

        def pooled(on_record):
            pool = sweep.WorkerPool(processes=WORKERS)
            try:
                return sweep.SweepRunner(self.plan_a, jobs=WORKERS).run(
                    pool=pool, store=self.store, on_record=on_record
                )
            finally:
                pool.close()

        def distributed(on_record):
            return launch.run_distributed_sweep(
                self.plan_b, workers=WORKERS, store=self.store, on_record=on_record
            )

        self._pass("sweep", self.plan_a, outcome, pooled)
        self._pass("dist", self.plan_b, outcome, distributed)
        self.store.close()

    def pass_stats(self, label: str) -> Dict[str, float]:
        """Start latency, summed execution and utilisation of one pass."""
        if label not in self.passes:
            return {"start_s": 0.0, "exec_s": 0.0, "utilization": 0.0}
        entered, arrivals, left = self.passes[label]
        executed = [(t, record) for t, record, served in arrivals if not served]
        exec_s = sum(record.seconds for _t, record in executed)
        start_s = 0.0
        if executed:
            first_t, first = executed[0]
            start_s = max(0.0, first_t - entered - first.seconds)
        wall = max(left - entered, 1e-9)
        return {"start_s": start_s, "exec_s": exec_s, "utilization": exec_s / (wall * WORKERS)}

    def close(self) -> None:
        self.store.close()
        shutil.rmtree(self.store_dir, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (VecCold, VecAdversaries, KernelMixed, PipelineStore)}

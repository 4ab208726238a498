"""The fixed kernel benchmark sweep behind ``BENCH_kernel.json``.

``BENCH_kernel.json`` is the repo's performance trajectory for the simulation
engine: a *fixed* sweep (same specs, same seeds, forever) timed on the
current tree and compared against the recorded baselines — the pre-kernel
seed engine and every previously committed generation of the file.  Updating
is one command::

    python -m repro bench --update

which re-times the fixed sweep plus the extended cases (min-of-5 each),
stamps platform and git provenance, preserves the previous generation's
numbers under ``trajectory`` and rewrites the file.  ``python -m repro
bench`` without ``--update`` times the fixed sweep only (min-of-3) — a quick
local check that does not aspire to be committed.

Keep :data:`FIXED_SWEEP` stable — the cross-PR trajectory is only meaningful
while the workload stays identical.  :data:`EXTENDED_SWEEP` carries the
larger cases (``n=1024`` sync, ``n=512`` async) that became tractable once
the columnar fast path landed; they have no seed-engine baseline and simply
accumulate their own history.
"""

from __future__ import annotations

import json
import platform
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence

from repro.experiments.plan import ExperimentPlan, ExperimentSpec

#: the fixed sweep: do not change without resetting the baseline
FIXED_SWEEP = (
    ExperimentSpec(n=512, adversary="none", mode="sync", seed=0),
    ExperimentSpec(n=512, adversary="silent", mode="sync", seed=0),
    ExperimentSpec(n=256, adversary="none", mode="async", seed=0),
)

#: larger cases recorded since the columnar fast path; no seed baseline.
#: The ``n=4096`` pair times the same spec on both engine backends (the
#: vectorized speedup gate); ``n=10**5`` and ``n=10**6`` are the
#: vectorized-only scale cases (the latter exercises the streaming
#: memory-budget path end to end).
EXTENDED_SWEEP = (
    ExperimentSpec(n=1024, adversary="none", mode="sync", seed=0),
    ExperimentSpec(n=512, adversary="none", mode="async", seed=0),
    ExperimentSpec(
        n=4096, adversary="none", mode="sync", seed=0,
        wrong_candidate_mode="common_wrong",
    ),
    ExperimentSpec(
        n=4096, adversary="none", mode="sync", seed=0,
        wrong_candidate_mode="common_wrong", backend="vectorized",
    ),
    ExperimentSpec(
        n=100_000, adversary="none", mode="sync", seed=0,
        wrong_candidate_mode="common_wrong", backend="vectorized",
    ),
    ExperimentSpec(
        n=1_000_000, adversary="none", mode="sync", seed=0,
        wrong_candidate_mode="common_wrong", backend="vectorized",
    ),
)

#: the plan behind the ``pooled_n2``/``distributed_n*`` overhead cases: six
#: quick specs, enough shards for two or four workers to actually interleave
DISTRIBUTED_BENCH_PLAN = ExperimentPlan(
    ns=(64,), adversaries=("none", "silent"), modes=("sync",), seeds=(0, 1, 2)
)

#: timed repetitions for the quick local check (``python -m repro bench``)
DEFAULT_REPEATS = 3

#: timed repetitions for the committed update (``--update``); the *minimum*
#: wall-clock is reported, the standard low-noise estimator on shared machines
UPDATE_REPEATS = 5

#: wall-clock seconds of the *seed* engine (commit 7eb7f85, pre event-kernel)
#: on the fixed sweep — minimum of 3 runs per case, measured in a clean
#: worktree on the reference machine; keyed by ExperimentSpec.key.
SEED_BASELINE_SECONDS: Dict[str, float] = {
    "sync:none:n512:s0": 17.961,
    "sync:silent:n512:s0": 17.444,
    "async:none:n256:s0": 25.640,
}


def _git_commit() -> str:
    """Short HEAD commit (``+dirty`` if the tree has uncommitted changes).

    The dirty marker is the provenance fix for the trajectory file: a sweep
    measured on top of uncommitted work used to be silently attributed to
    the parent commit, so ``BENCH_kernel.json`` could claim numbers for a
    tree that never existed.  ``"unknown"`` outside a git checkout.
    """
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):  # pragma: no cover - git missing/hung
        return "unknown"
    commit = out.stdout.strip() or "unknown"
    if commit != "unknown" and status.stdout.strip():
        commit += "+dirty"
    return commit


def verify_provenance(path: str = "BENCH_kernel.json") -> str:
    """Assert the recorded measurement commit matches the checked-out HEAD.

    The CI perf job regenerates the quick sweep and then calls this, so the
    pipeline fails loudly if the provenance machinery ever stops recording
    the measurement-time commit (the ``d567550`` staleness this replaces).
    Returns the verified commit string.
    """
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    recorded = str((report.get("git") or {}).get("commit") or "unknown")
    head = _git_commit()
    if recorded != head:
        raise RuntimeError(
            f"stale benchmark provenance in {path}: recorded git.commit is "
            f"{recorded!r} but HEAD is {head!r}; re-run `python -m repro bench "
            "--update` at the commit being measured"
        )
    return recorded


#: the child program of :func:`measure_peak_rss`: run one spec from JSON and
#: print the process-lifetime resident-set high-water mark
_RSS_CHILD = """\
import json, resource, sys
from repro.experiments.plan import ExperimentSpec
ExperimentSpec.from_dict(json.loads(sys.argv[1])).run()
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def measure_peak_rss(spec: ExperimentSpec) -> Optional[float]:
    """Peak RSS (MB) of running ``spec`` once in a fresh interpreter.

    ``ru_maxrss`` is a process-lifetime high-water mark, so an in-process
    measurement would report whichever earlier case was largest; a cold
    subprocess per case is the honest number (it includes building the
    sampler tables, exactly what a standalone run of that case pays).
    Returns ``None`` where the measurement is unavailable (no ``resource``
    module outside POSIX, or the child failed).
    """
    payload = json.dumps(spec.to_dict())
    try:
        proc = subprocess.run(
            [sys.executable, "-c", _RSS_CHILD, payload],
            capture_output=True, text=True, timeout=3600, check=False,
        )
    except (OSError, subprocess.SubprocessError):  # pragma: no cover - spawn failure
        return None
    if proc.returncode != 0:
        return None
    try:
        ru_maxrss = int(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return None
    # Linux reports ru_maxrss in KB (macOS in bytes; this repo pins Linux CI)
    return round(ru_maxrss / 1024.0, 1)


def run_fixed_sweep(
    repeats: int = DEFAULT_REPEATS,
    specs: Sequence[ExperimentSpec] = FIXED_SWEEP,
    measure_rss: bool = False,
) -> List[Dict[str, object]]:
    """Time every case of the sweep on the current tree (serially).

    Each case is run ``repeats`` times; ``seconds`` is the minimum (the
    repeats are listed under ``seconds_all``), matching how the recorded
    baselines were measured.  Every repeat of a vectorized case starts from
    an empty table-provider cache, so it pays the table hashing a fresh
    spec pays instead of reading the previous repeat's tables.  With
    ``measure_rss=True`` every vectorized case additionally runs once in a
    fresh subprocess to record its cold ``peak_rss_mb`` (the memory-budget
    contract's observable).
    """
    from repro.vec import tables as vec_tables

    cases = []
    for spec in specs:
        times = []
        result = None
        for _ in range(max(1, repeats)):
            if spec.backend == "vectorized":
                vec_tables._PROVIDER_CACHE.clear()
            start = time.perf_counter()
            result = spec.run()
            times.append(round(time.perf_counter() - start, 3))
        case: Dict[str, object] = {
            "key": spec.key,
            "n": spec.n,
            "adversary": spec.adversary,
            "mode": spec.mode,
            "seed": spec.seed,
            "backend": spec.backend,
            "seconds": min(times),
            "seconds_all": times,
            "agreement_reached": result.agreement,
            "total_messages": result.total_messages,
            "total_bits": result.total_bits,
        }
        if measure_rss and spec.backend == "vectorized":
            case["peak_rss_mb"] = measure_peak_rss(spec)
        cases.append(case)
    return cases


def run_distributed_cases(
    repeats: int = DEFAULT_REPEATS,
    plan: ExperimentPlan = DISTRIBUTED_BENCH_PLAN,
    in_process: bool = False,
) -> List[Dict[str, object]]:
    """Time the same plan through a warm pool and the distributed executor.

    Three cases in the fixed-sweep schema — ``pooled_n2`` (the
    :class:`~repro.experiments.sweep.SweepRunner` baseline with two pool
    workers), ``distributed_n2`` and ``distributed_n4`` (coordinator + TCP
    workers) — so ``BENCH_kernel.json`` tracks what shard claiming over
    localhost costs relative to ``multiprocessing``.  ``in_process=True``
    swaps worker subprocesses for threads (tests).
    """
    from repro.dist import run_distributed_sweep
    from repro.experiments.sweep import run_sweep

    def pooled(workers: int):
        return lambda: run_sweep(plan, jobs=workers)

    def distributed(workers: int):
        return lambda: run_distributed_sweep(
            plan, workers=workers, in_process=in_process
        )

    cases = []
    for key, runner in (
        ("pooled_n2", pooled(2)),
        ("distributed_n2", distributed(2)),
        ("distributed_n4", distributed(4)),
    ):
        times = []
        result = None
        for _ in range(max(1, repeats)):
            start = time.perf_counter()
            result = runner()
            times.append(round(time.perf_counter() - start, 3))
        cases.append(
            {
                "key": key,
                "n": max(plan.ns),
                "adversary": ",".join(plan.adversaries),
                "mode": "sync",
                "seed": 0,
                "backend": "message",
                "seconds": min(times),
                "seconds_all": times,
                "agreement_reached": all(r.agreement for r in result.records),
                "total_messages": sum(r.total_messages for r in result.records),
                "total_bits": sum(r.total_bits for r in result.records),
            }
        )
    return cases


def _previous_trajectory(previous: Optional[Dict[str, object]]) -> Dict[str, object]:
    """Fold the prior generation of the file into the trajectory mapping.

    The previous generation's own ``trajectory`` is carried over verbatim
    and its ``cases`` are appended under a label derived from its recorded
    git commit (``"pr1"`` for the original file, which predates the ``git``
    provenance key) — so every committed generation of the numbers stays
    addressable forever.
    """
    if not previous:
        return {}
    trajectory: Dict[str, object] = dict(previous.get("trajectory") or {})
    old_cases = previous.get("cases") or []
    if old_cases:
        git_info = previous.get("git") or {}
        label = str(git_info.get("commit") or "pr1")
        entry: Dict[str, object] = {
            "seconds": {
                str(case["key"]): case["seconds"] for case in old_cases
            },
            "cases": old_cases,
        }
        # Carry the generation's measurement protocol with its numbers, so a
        # min-of-2 entry is never read as if it were min-of-5.
        if previous.get("repeats") is not None:
            entry["repeats"] = previous["repeats"]
        trajectory[label] = entry
    return trajectory


def build_report(
    cases: Optional[List[Dict[str, object]]] = None,
    previous: Optional[Dict[str, object]] = None,
    repeats: int = DEFAULT_REPEATS,
    commit: Optional[str] = None,
) -> Dict[str, object]:
    """Assemble the BENCH_kernel.json payload (running the sweep if needed).

    ``commit`` is the commit captured *at measurement time* by
    :func:`write_report`; it defaults to the current HEAD only when cases are
    timed right here.
    """
    if cases is None:
        cases = run_fixed_sweep(repeats=repeats)
    speedups = {}
    for case in cases:
        baseline = SEED_BASELINE_SECONDS.get(str(case["key"]))
        if baseline is not None and case["seconds"]:
            speedups[case["key"]] = round(baseline / float(case["seconds"]), 2)

    trajectory = _previous_trajectory(previous)
    speedup_vs_previous = {}
    if previous:
        previous_seconds = {
            str(case["key"]): float(case["seconds"])
            for case in (previous.get("cases") or [])
        }
        for case in cases:
            before = previous_seconds.get(str(case["key"]))
            if before and case["seconds"]:
                speedup_vs_previous[case["key"]] = round(before / float(case["seconds"]), 2)

    # Aggregate only the cases that have a recorded baseline, so custom case
    # lists (e.g. with new sizes) degrade gracefully instead of raising.
    large_keys = [
        c["key"]
        for c in cases
        if int(c["n"]) >= 512 and str(c["key"]) in SEED_BASELINE_SECONDS
    ]
    large_baseline = sum(SEED_BASELINE_SECONDS[str(k)] for k in large_keys)
    large_current = sum(float(c["seconds"]) for c in cases if c["key"] in large_keys)
    fixed_keys = set(SEED_BASELINE_SECONDS)
    total_baseline = sum(SEED_BASELINE_SECONDS.values())
    total_current = sum(
        float(c["seconds"]) for c in cases if str(c["key"]) in fixed_keys
    )
    report: Dict[str, object] = {
        "description": (
            "Fixed engine benchmark sweep; baseline is the pre-kernel seed "
            "engine (commit 7eb7f85) timed on the same machine and specs. "
            f"All numbers are the minimum of {max(1, repeats)} runs per case; "
            "trajectory preserves every previously committed generation."
        ),
        "platform": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "git": {"commit": commit or _git_commit()},
        "repeats": max(1, repeats),
        "baseline_seconds": SEED_BASELINE_SECONDS,
        "cases": cases,
        "speedup_per_case": speedups,
        "speedup_n512": (
            round(large_baseline / large_current, 2) if large_current else None
        ),
        "speedup_total": (
            round(total_baseline / total_current, 2) if total_current else None
        ),
    }
    # Same-spec message-vs-vectorized ratio at n=4096 (the backend gate).
    by_key = {str(c["key"]): float(c["seconds"]) for c in cases if c["seconds"]}
    msg_4096 = by_key.get("sync:none:n4096:s0")
    vec_4096 = by_key.get("sync:none:n4096:s0:vec")
    if msg_4096 and vec_4096:
        report["speedup_vectorized_n4096"] = round(msg_4096 / vec_4096, 2)
    # The n=10⁶ scale case: headline wall-clock (and peak RSS, when measured)
    # of the memory-budgeted vectorized engine.
    for case in cases:
        if str(case["key"]) == "sync:none:n1000000:s0:vec":
            entry: Dict[str, object] = {"seconds": case["seconds"]}
            if case.get("peak_rss_mb") is not None:
                entry["peak_rss_mb"] = case["peak_rss_mb"]
            report["vectorized_n1e6"] = entry
    # Shard-claiming cost: distributed executor vs a warm pool, same plan.
    pooled_2 = by_key.get("pooled_n2")
    dist_2 = by_key.get("distributed_n2")
    if pooled_2 and dist_2:
        report["distributed_overhead_n2"] = round(dist_2 / pooled_2, 2)
    if trajectory:
        report["trajectory"] = trajectory
    if speedup_vs_previous:
        report["speedup_vs_previous"] = speedup_vs_previous
        fixed_current = [
            float(c["seconds"]) for c in cases if str(c["key"]) in fixed_keys
        ]
        previous_fixed = [
            float(case["seconds"])
            for case in (previous.get("cases") or [])
            if str(case["key"]) in fixed_keys
        ]
        if fixed_current and len(previous_fixed) == len(fixed_current):
            report["speedup_vs_previous_total"] = round(
                sum(previous_fixed) / sum(fixed_current), 2
            )
    return report


def write_report(
    path: str = "BENCH_kernel.json",
    update: bool = False,
    repeats: Optional[int] = None,
) -> Dict[str, object]:
    """Run the benchmark sweep and write the report JSON to ``path``.

    ``update=False`` (plain ``python -m repro bench``) times the fixed sweep
    min-of-``DEFAULT_REPEATS`` and writes a fresh report — the quick local
    check.  ``update=True`` (``--update``) is the committed-artifact path:
    min-of-``UPDATE_REPEATS`` over the fixed *and* extended sweeps, with the
    previous generation of the file preserved under ``trajectory`` and
    per-case speedups against it.
    """
    previous: Optional[Dict[str, object]] = None
    if update:
        try:
            with open(path, encoding="utf-8") as fh:
                previous = json.load(fh)
        except (OSError, ValueError):
            previous = None
    if repeats is None:
        repeats = UPDATE_REPEATS if update else DEFAULT_REPEATS
    specs = tuple(FIXED_SWEEP) + (tuple(EXTENDED_SWEEP) if update else ())
    # Capture provenance *before* the (long) timed sweep: the numbers belong
    # to the tree as it stood when measurement started, not when it finished.
    commit = _git_commit()
    # --update also measures per-case peak RSS (a subprocess per vectorized
    # case) so the committed artifact carries the memory trajectory
    cases = run_fixed_sweep(repeats=repeats, specs=specs, measure_rss=update)
    if update:
        cases = cases + run_distributed_cases(repeats=repeats)
    report = build_report(cases=cases, previous=previous, repeats=repeats, commit=commit)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    return report

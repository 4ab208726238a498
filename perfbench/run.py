"""Run one benchmark workload and print its metrics.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload vec_cold --seed 0 --seconds 33 --trace 0

Each iteration is a fresh interpreter (``child.py``) started by this client
process, one at a time, so set-up is measured from process launch and no
table or sampler cache survives between iterations.  A run first makes one
untimed tiny-size iteration, which compiles the bytecode of everything the
workload imports into the run's own cache, so every timed launch finds it
warm.  With ``--trace 0`` the client repeats iterations while another one
still fits in ``--seconds`` (always at least two).  Between them it launches
set-up-only children, which get ``SETUP_SHARE`` of the time, so that set-up
is measured many times across the run.  It reports the end-to-end metrics:
medians over the iterations (``setup_s`` over every set-up), except
``peak_rss_mb``, which is the highest of them.  With ``--trace 1`` it runs
one untraced and one traced iteration and reports the per-layer metrics of
the traced one, with the tracing overhead measured against the untraced
one.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a human-readable summary.  ``--record-reference`` re-records the
per-spec digests of the default seed into ``reference.json`` instead.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from layers import PER_LAYER_METRICS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
REFERENCE = BENCH_DIR / "reference.json"
#: the seed whose per-spec digests are recorded in reference.json; at this
#: seed the two ``none`` specs of kernel_mixed are BENCH_kernel.json's
#: fixed-sweep specs
DEFAULT_SEED = 0
WORKLOAD_NAMES = ("vec_cold", "vec_adversaries", "kernel_mixed", "pipeline_store")

#: (name, unit) of every end-to-end metric, as in BENCHMARK.json
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_msgs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

#: a run must end within 180 s: no iteration starts unless it fits in this
#: budget, so an iteration killed here is a real hang
CHILD_TIMEOUT_S = 160.0
#: share of a ``--trace 0`` run's time given to set-up-only launches ...
SETUP_SHARE = 0.1
#: ... while set-up has been measured fewer times than this (timed
#: iterations plus set-up-only launches)
SETUP_SAMPLES = 16


def child_env(work_dir: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC_DIR), env.get("PYTHONPATH", "")) if p
    )
    # a fixed code identity: the store and the distributed handshake would
    # otherwise ask git, and the checkout need not be a repository
    env["REPRO_CODE_FINGERPRINT"] = "perfbench"
    # bytecode always warm and always the run's own, whatever the caller's
    # environment says: set-up time must not depend on it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(work_dir / "pycache")
    return env


def run_child(args, work_dir: Path, timeout: float, trace: int = 0, tiny: bool = False,
              setup_only: bool = False, check: bool = True) -> dict:
    """One iteration in a fresh interpreter; ``{"ok": False, ...}`` if it broke.

    At the default seed the outcome is checked against ``reference.json``
    unless ``check`` is off (when re-recording it).
    """
    command = [
        sys.executable, str(BENCH_DIR / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--trace", str(trace), "--work-dir", str(work_dir),
        "--reference", str(REFERENCE) if check and args.seed == DEFAULT_SEED else "",
    ]
    if tiny:
        command.append("--tiny")
    if setup_only:
        command.append("--setup-only")
    launched_at = time.monotonic()
    proc = subprocess.Popen(
        command + ["--launched-at", repr(launched_at)],
        stdout=subprocess.PIPE,
        env=child_env(work_dir),
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"ok": False, "error": f"iteration killed after {timeout:.0f} s"}
    finally:
        # pool or distributed workers a crashed child left behind
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = stdout.decode(errors="replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"ok": False, "error": f"iteration exited with code {proc.returncode}"}
    result = json.loads(lines[-1])
    result["ok"] = True
    result["child_s"] = time.monotonic() - launched_at
    return result


def machine() -> str:
    # the installed version, read without importing numpy in this process
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:  # pragma: no cover
        numpy_version = "missing"
    return (
        f"nproc {os.cpu_count()}, {platform.machine()}, "
        f"python {platform.python_version()}, numpy {numpy_version}"
    )


def end_to_end(runs: List[dict], setups: List[float]) -> Dict[str, float]:
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(run["wall_s"] for run in runs),
        "sim_msgs_per_s": statistics.median(run["messages"] / run["wall_s"] for run in runs),
        "peak_rss_mb": max(run["peak_rss_mb"] for run in runs),
    }


def record_reference(work_dir: Path) -> int:
    """Re-record the default seed's per-spec digests of every workload."""
    data = {"seed": DEFAULT_SEED, "workloads": {}}
    for name in WORKLOAD_NAMES:
        for tiny in (True, False):
            args = argparse.Namespace(workload=name, seed=DEFAULT_SEED)
            run = run_child(args, work_dir, CHILD_TIMEOUT_S, tiny=tiny, check=False)
            if not run["ok"] or run["failed"]:
                print(f"error: {name} (tiny={tiny}) did not run cleanly: "
                      f"{run.get('error') or run['errors']}", file=sys.stderr)
                return 1
            size = "tiny" if tiny else "full"
            data["workloads"].setdefault(name, {})[size] = run["digests"]
            print(f"{name} {size}: {len(run['digests'])} digests")
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=33.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny system sizes (the benchmark's own smoke tests)")
    parser.add_argument("--record-reference", action="store_true",
                        help="re-record reference.json and exit")
    args = parser.parse_args(argv)

    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC_DIR}; run from a source checkout",
              file=sys.stderr)
        return 2
    if not args.record_reference and args.workload is None:
        parser.error("--workload is required")
    started = time.monotonic()
    work_dir = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.record_reference:
            return record_reference(work_dir)
        return measure(args, work_dir, started)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass  # another run is still using it


def measure(args, work_dir: Path, started: float) -> int:
    print(f"# perfbench {args.workload} seed {args.seed} trace {args.trace}: {machine()}")

    def elapsed() -> float:
        return time.monotonic() - started

    def left() -> float:
        return CHILD_TIMEOUT_S - elapsed()

    # untimed: compiles the bytecode that every timed launch then finds warm
    warm = run_child(args, work_dir, left(), trace=args.trace, tiny=True)
    runs: List[dict] = []
    setup_only: List[dict] = []
    if warm["ok"] and args.trace:
        runs.append(run_child(args, work_dir, left(), tiny=args.tiny))
        if runs[-1]["ok"]:
            runs.append(run_child(args, work_dir, left(), trace=1, tiny=args.tiny))
    elif warm["ok"]:
        setup_spent = 0.0
        while True:
            runs.append(run_child(args, work_dir, left(), tiny=args.tiny))
            if not runs[-1]["ok"]:
                break
            # set-up-only launches between the timed iterations, so that the
            # set-up samples are spread over the whole run
            setup_cost = statistics.median(run["child_s"] - run["wall_s"] for run in runs)
            while (setup_spent + setup_cost <= SETUP_SHARE * elapsed()
                   and len(runs) + len(setup_only) < SETUP_SAMPLES
                   and elapsed() < CHILD_TIMEOUT_S - 10.0):
                setup_only.append(run_child(args, work_dir, left(), tiny=args.tiny,
                                            setup_only=True))
                if not setup_only[-1]["ok"]:
                    break
                setup_spent += setup_only[-1]["child_s"]
                setup_cost = setup_only[-1]["child_s"]
            if setup_only and not setup_only[-1]["ok"]:
                break
            longest = max(run["child_s"] for run in runs)
            if elapsed() + longest > CHILD_TIMEOUT_S or (
                len(runs) >= 2 and elapsed() + longest * (1 + SETUP_SHARE) > args.seconds
            ):
                break
    runs.insert(0, warm)
    for index, run in enumerate(runs):
        label = "warm-up (tiny, untimed)" if index == 0 else f"iteration {index}"
        if run["ok"]:
            print(f"# {label}: setup {run['setup_s']:.3f} s, wall "
                  f"{run['wall_s']:.3f} s, {run['attempted']} specs, {run['failed']} failed")
            for error in run["errors"]:
                print(f"#   failure: {error}")
        else:
            print(f"# {label}: {run['error']}")
    for run in setup_only:
        if not run["ok"]:
            print(f"# set-up-only launch: {run['error']}")
    if not all(run["ok"] for run in runs + setup_only):
        print("error: an iteration did not complete", file=sys.stderr)
        return 1
    warm = runs.pop(0)
    setups = [run["setup_s"] for run in runs + setup_only]
    # the warm-up's specs are checked too, and count
    attempted = sum(run["attempted"] for run in runs + [warm])
    failed = sum(run["failed"] for run in runs + [warm])
    if args.trace:
        untraced, traced = runs
        metrics = dict(traced["layers"])
        metrics["trace.untraced_wall_s"] = untraced["wall_s"]
        metrics["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
        units = dict(PER_LAYER_METRICS)
        print(f"# tracing overhead: {metrics['trace.overhead_s']:+.3f} s on an untraced "
              f"wall of {untraced['wall_s']:.3f} s")
    else:
        metrics = end_to_end(runs, setups)
        units = dict(END_TO_END)
        print(f"# set-up measured {len(setups)} times ({len(setup_only)} set-up-only "
              f"launches), median {metrics['setup_s']:.4f} s")
    print(f"# failed_frac {failed / max(1, attempted):.6f} 1 ({failed} of {attempted} specs)")
    if not args.trace:
        # printed, not gated: too unsteady on the reference machine (protocol.json)
        first = statistics.median(run["first_record_s"] for run in runs)
        print(f"# first_record_s {first:.6g} s (median; not in the JSON line)")
    for name, value in metrics.items():
        print(f"# {name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

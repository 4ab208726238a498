"""One iteration of a workload in a fresh interpreter (started by run.py).

Prints one JSON line: set-up and timed-section figures, the checked
outcome (attempted/failed specs, per-spec digests) and, with ``--trace 1``,
the per-layer metrics of the timed section.  With ``--setup-only`` it stops
after set-up and prints only ``setup_s``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--launched-at", type=float, required=True,
                        help="time.monotonic() of the parent just before the launch")
    parser.add_argument("--reference", default="",
                        help="reference digests to check against (empty: no check)")
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC_DIR))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC_DIR):
        print(f"error: imported repro from {repro.__file__}, not from {SRC_DIR}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS, Outcome

    tracer = None
    if args.trace:
        import layers
        from tracer import Tracer

        tracer = Tracer()
        layers.install(tracer)

    reference = None
    if args.reference:
        with open(args.reference, encoding="utf-8") as fh:
            size = "tiny" if args.tiny else "full"
            reference = json.load(fh)["workloads"].get(args.workload, {}).get(size, {})
    workload = WORKLOADS[args.workload](args.seed, args.tiny, args.work_dir)
    outcome = Outcome(reference)
    workload.setup()
    if tracer is not None:
        tracer.reset()
        cache_before = layers.sampler_cache_counts(workload.providers())

    setup_s = time.monotonic() - args.launched_at
    if args.setup_only:
        workload.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0
    start = time.perf_counter()
    workload.run(outcome)
    end = time.perf_counter()

    result = {
        "setup_s": setup_s,
        "wall_s": end - start,
        "first_record_s": (outcome.first_record_t or end) - start,
        "messages": outcome.messages,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "errors": outcome.errors,
        "digests": outcome.digests,
    }
    if tracer is not None:
        tracer.restore()
        hits, misses = layers.sampler_cache_counts(workload.providers())
        passes = {}
        if hasattr(workload, "pass_stats"):
            passes = {label: workload.pass_stats(label) for label in ("sweep", "dist")}
        result["layers"] = layers.report(
            tracer,
            wall_s=end - start,
            work=outcome.work,
            cache_delta=(hits - cache_before[0], misses - cache_before[1]),
            tables_mb=layers.packed_mb(workload.providers()),
            passes=passes,
        )
    workload.close()
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    result["peak_rss_mb"] = peak_kb / 1024
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())

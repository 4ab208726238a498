"""Which public ``repro`` callables belong to which layer, and the per-layer
metrics the traced run reports.

:func:`install` must run before any node, simulator, pool or coordinator is
built: the kernel binds ``node.on_message`` when it is constructed, and the
vectorized engine and table provider look up ``derive_rng`` and the hashing
functions as module globals at call time, so patching the defining class or
the importing module is enough.
"""

from __future__ import annotations

from typing import Dict, List

from tracer import Layer, Tracer

#: the metric that carries each wrapped layer's self time; these metrics
#: plus ``unattributed_s`` add up to the traced wall time
SELF_TIME_METRIC = {
    "vec.hashing": "vec.hashing.busy_s",
    "vec.tables.build": "vec.tables.build_self_s",
    "vec.tables.gather": "vec.tables.gather_s",
    "vec.tables.poll_rows": "vec.tables.poll_rows_s",
    "net.rng": "net.rng.derive_s",
    "vec.engine": "vec.engine.self_s",
    "adversary": "adversary.busy_s",
    "samplers": "samplers.busy_s",
    "net": "net.self_s",
    "core": "core.self_s",
    "core.build": "core.self_s",
    "experiments.sweep": "experiments.sweep.self_s",
    "store.get": "store.get_s",
    "store.put": "store.put_s",
    "dist": "dist.self_s",
}

#: every per-layer metric, in BENCHMARK.json order, with its unit
PER_LAYER_METRICS = [
    ("vec.hashing.calls", "count"),
    ("vec.hashing.rows", "count"),
    ("vec.hashing.busy_s", "s"),
    ("vec.tables.build_self_s", "s"),
    ("vec.tables.gather_s", "s"),
    ("vec.tables.poll_rows_s", "s"),
    ("vec.tables.packed_mb", "MB"),
    ("net.rng.derive_calls", "count"),
    ("net.rng.derive_s", "s"),
    ("vec.engine.self_s", "s"),
    ("vec.engine.rounds", "count"),
    ("adversary.calls", "count"),
    ("adversary.busy_s", "s"),
    ("adversary.byz_msgs", "count"),
    ("samplers.queries", "count"),
    ("samplers.busy_s", "s"),
    ("samplers.hit_ratio", "ratio"),
    ("net.deliveries", "count"),
    ("net.batches", "count"),
    ("net.self_s", "s"),
    ("core.handler_calls", "count"),
    ("core.self_s", "s"),
    ("experiments.sweep.pool_start_s", "s"),
    ("experiments.sweep.exec_s", "s"),
    ("experiments.sweep.utilization", "ratio"),
    ("experiments.sweep.self_s", "s"),
    ("store.get_s", "s"),
    ("store.put_s", "s"),
    ("store.puts", "count"),
    ("store.hit_ratio", "ratio"),
    ("dist.start_s", "s"),
    ("dist.exec_s", "s"),
    ("dist.utilization", "ratio"),
    ("dist.useful_ratio", "ratio"),
    ("dist.self_s", "s"),
    ("unattributed_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
]


def _rows(layer: Layer, args: tuple, _result) -> None:
    # first_distinct_rows(prefix, columns, ...) / batch_digest_mod(prefix, columns, n)
    layer.add("rows", len(args[1][0]))


def _lookups(layer: Layer, args: tuple, result) -> None:
    layer.add("lookups", len(args[1]))
    layer.add("hits", sum(1 for record in result if record is not None))


def _puts(layer: Layer, args: tuple, _result) -> None:
    layer.add("puts", len(args[1]))


def _delivered(layer: Layer, _args: tuple, _result) -> None:
    layer.add("deliveries", 1)


def _sent(layer: Layer, _args: tuple, _result) -> None:
    layer.add("byz_msgs", 1)


def _batch(layer: Layer, _args: tuple, _result) -> None:
    layer.add("batches", 1)


def _dist_status(layer: Layer, args: tuple, _result) -> None:
    status = args[0].status()
    layer.add("completed", sum(status["completed_by"].values()))
    layer.add("wasted", status["duplicate_completions"] + status["expired_leases"])


def _subclasses(cls) -> List[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


def _unwrapped_while(tracer: Tracer, fn):
    def call(*args, **kwargs):
        with tracer.suspended():
            return fn(*args, **kwargs)

    return call


def install(tracer: Tracer) -> None:
    """Wrap every traced layer's public entry points."""
    import repro.adversary  # noqa: F401  (registers every strategy class)
    import repro.runner
    import repro.vec.engine
    import repro.vec.tables
    from repro.adversary.base import Adversary
    from repro.core.aer import AERNode
    from repro.dist import coordinator, launch
    from repro.experiments.sweep import SweepRunner, WorkerPool
    from repro.net.asynchronous import AsynchronousSimulator
    from repro.net.kernel import EventKernel
    from repro.net.sync import SynchronousSimulator
    from repro.samplers.hash_sampler import QuorumSampler
    from repro.samplers.poll_sampler import PollSampler
    from repro.samplers.tables import QuorumTable
    from repro.store import ResultStore

    patch = tracer.patch
    # vec.hashing, as bound in the table provider
    patch(repro.vec.tables, "first_distinct_rows", "vec.hashing", _rows)
    patch(repro.vec.tables, "batch_digest_mod", "vec.hashing", _rows)
    # vec.tables
    tables = repro.vec.tables.VecSamplerTables
    for name in ("ensure_rows", "ensure_all"):
        patch(tables, name, "vec.tables.build")
    for name in ("rows", "iter_rows", "full"):
        patch(tables, name, "vec.tables.gather")
    patch(tables, "poll_rows", "vec.tables.poll_rows")
    # net.rng: per-node label draws of the vectorized engine
    patch(repro.vec.engine, "derive_rng", "net.rng")
    # vec.engine: the whole-round engine entry point
    patch(repro.vec.engine, "run_aer_vectorized", "vec.engine")
    # adversary hooks of the base class and every strategy
    hooks = ("on_start", "on_round", "on_deliver", "observe_send", "delay_for")
    for cls in [Adversary] + _subclasses(Adversary):
        for name in [hook for hook in hooks if hook in cls.__dict__]:
            patch(cls, name, "adversary", _delivered if name == "on_deliver" else None)
    # every message a strategy injects, in either backend, goes through send_as
    patch(Adversary, "send_as", "adversary", _sent)
    # samplers: scalar query methods and the per-string tables they return
    for name in ("table", "quorum", "contains", "majority_threshold", "threshold", "inverse",
                 "load_of"):
        patch(QuorumSampler, name, "samplers")
    for name in ("entry", "poll_list", "contains", "majority_threshold", "threshold"):
        patch(PollSampler, name, "samplers")
    for name in ("quorum", "members", "contains", "threshold", "inverse_of", "build_full"):
        patch(QuorumTable, name, "samplers")
    # net: kernel construction, the two schedulers and batch delivery
    for cls in (SynchronousSimulator, AsynchronousSimulator):
        patch(cls, "__init__", "net")
        patch(cls, "run", "net")
    patch(EventKernel, "deliver_batch", "net", _batch)
    # core: node construction and the AER node's handlers
    patch(repro.runner, "build_aer_nodes", "core.build")
    patch(AERNode, "on_start", "core")
    patch(AERNode, "on_round", "core")
    patch(AERNode, "on_message", "core", _delivered)
    # experiments.sweep, store, dist
    patch(SweepRunner, "run", "experiments.sweep")
    patch(
        WorkerPool,
        "acquire",
        "experiments.sweep",
        # the pool forks its workers here; they must run unwrapped code, since
        # their work is read from the records' seconds
        around=lambda acquire: _unwrapped_while(tracer, acquire),
    )
    patch(WorkerPool, "close", "experiments.sweep")
    patch(ResultStore, "get_many", "store.get", _lookups)
    patch(ResultStore, "put_many", "store.put", _puts)
    patch(launch, "run_distributed_sweep", "dist")
    patch(launch, "spawn_worker", "dist")
    for name in ("__init__", "start", "close"):
        patch(coordinator.DistCoordinator, name, "dist")
    patch(coordinator.DistCoordinator, "result", "dist", _dist_status)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def sampler_cache_counts(configs) -> tuple:
    """(hits, misses) summed over the LRU caches of the configs' suites."""
    hits = misses = 0
    for config in set(configs):  # equal configs share one cached suite
        suite = config.shared_samplers()
        for sampler in (suite.push, suite.pull, suite.poll):
            hits += sampler.cache_info.hits
            misses += sampler.cache_info.misses
    return hits, misses


def packed_mb(configs) -> float:
    from repro.vec.tables import tables_for

    return sum(tables_for(config).packed_nbytes() for config in set(configs)) / (1 << 20)


def report(
    tracer: Tracer,
    wall_s: float,
    work: Dict[str, float],
    cache_delta: tuple,
    tables_mb: float,
    passes: Dict[str, Dict[str, float]],
) -> Dict[str, float]:
    """The per-layer metrics of one traced timed section (without the
    ``trace.*`` overhead figures, which need the untraced run)."""
    layers = tracer.layers

    def get(name: str) -> Layer:
        return layers.get(name) or Layer(name)

    unknown = sorted(set(layers) - set(SELF_TIME_METRIC))
    if unknown:
        raise ValueError(f"layers without a self-time metric: {unknown}")
    metrics: Dict[str, float] = {name: 0.0 for name, _unit in PER_LAYER_METRICS}
    for layer_name, metric in SELF_TIME_METRIC.items():
        metrics[metric] += get(layer_name).self_s
    hashing = get("vec.hashing")
    metrics["vec.hashing.calls"] = hashing.calls
    metrics["vec.hashing.rows"] = hashing.work.get("rows", 0)
    metrics["vec.tables.packed_mb"] = tables_mb
    metrics["net.rng.derive_calls"] = get("net.rng").calls
    metrics["vec.engine.rounds"] = work.get("vec.engine.rounds", 0)
    adversary = get("adversary")
    metrics["adversary.calls"] = adversary.calls
    metrics["adversary.byz_msgs"] = adversary.work.get("byz_msgs", 0)
    metrics["samplers.queries"] = get("samplers").calls
    hits, misses = cache_delta
    metrics["samplers.hit_ratio"] = _ratio(hits, hits + misses)
    core = get("core")
    metrics["net.deliveries"] = core.work.get("deliveries", 0) + adversary.work.get(
        "deliveries", 0
    )
    metrics["net.batches"] = get("net").work.get("batches", 0)
    metrics["core.handler_calls"] = core.calls
    sweep = passes.get("sweep", {})
    metrics["experiments.sweep.pool_start_s"] = sweep.get("start_s", 0.0)
    metrics["experiments.sweep.exec_s"] = sweep.get("exec_s", 0.0)
    metrics["experiments.sweep.utilization"] = sweep.get("utilization", 0.0)
    store_get = get("store.get")
    metrics["store.puts"] = get("store.put").work.get("puts", 0)
    metrics["store.hit_ratio"] = _ratio(
        store_get.work.get("hits", 0), store_get.work.get("lookups", 0)
    )
    dist = get("dist")
    dist_pass = passes.get("dist", {})
    metrics["dist.start_s"] = dist_pass.get("start_s", 0.0)
    metrics["dist.exec_s"] = dist_pass.get("exec_s", 0.0)
    metrics["dist.utilization"] = dist_pass.get("utilization", 0.0)
    completed = dist.work.get("completed", 0)
    metrics["dist.useful_ratio"] = _ratio(completed, completed + dist.work.get("wasted", 0))
    metrics["unattributed_s"] = wall_s - tracer.self_seconds()
    metrics["trace.wall_s"] = wall_s
    return metrics

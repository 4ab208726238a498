"""The engine-backend capability table.

One frozen row per engine backend says what it can run.  Spec validation,
the runner, the vectorized engines, the adapters' ``supports_backends``, the
CLI's ``--backend`` option and the ``protocols`` listing all read the rows,
and :func:`check_backend` generates every rejection message from them, so a
request is refused in the same words through every entry point.  Stdlib
only, so every layer may import it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Tuple

#: the oracle backend every rejection points to
ORACLE = "message"

_MODE_WORDS = {"sync": "synchronous", "async": "asynchronous"}


@dataclass(frozen=True)
class Backend:
    """What one engine backend can run."""

    name: str
    summary: str
    modes: Tuple[str, ...]
    rushing: bool
    trace: bool
    faults: bool
    #: whether the ``vec_memory_mb`` working-set budget applies
    memory_budget: bool
    #: protocol → adversaries it replays by name; ``None``: every protocol,
    #: any adversary, named or constructed
    adversaries: Optional[Mapping[str, Tuple[str, ...]]] = None
    #: replayed adversaries equal to the oracle in distribution, not bit for bit
    statistical: Tuple[str, ...] = ()

    def describe(self) -> str:
        """One line of capabilities (the CLI ``--backend`` help)."""
        flags = (("rushing", self.rushing), ("tracing", self.trace), ("faults", self.faults))
        lacks = "/".join(what for what, has in flags if not has)
        return "; ".join(
            [self.summary, "modes " + "/".join(self.modes)]
            + ([f"no {lacks}"] if lacks else [])
            + ([] if self.adversaries is None else ["protocols " + ", ".join(self.adversaries)])
        )


BACKENDS: Mapping[str, Backend] = {row.name: row for row in (
    Backend("message", "per-message event kernel, the oracle", ("sync", "async"),
            rushing=True, trace=True, faults=True, memory_budget=False),
    Backend("vectorized", "whole-round numpy engine for large n", ("sync",),
            rushing=False, trace=False, faults=False, memory_budget=True,
            adversaries={
                "aer": ("none", "silent", "push_flood", "quorum_flood", "cornering", "cornering_nodelay"),
                "sample_majority": ("none", "silent"),
            },
            statistical=("cornering", "cornering_nodelay")),
)}


def backends_for(protocol: str) -> Tuple[str, ...]:
    """Names of the backends that run ``protocol``, in table order."""
    return tuple(name for name, row in BACKENDS.items()
                 if row.adversaries is None or protocol in row.adversaries)


def check_backend(
    backend: str,
    protocol: str = "aer",
    mode: str = "sync",
    rushing: bool = False,
    trace: bool = False,
    faults: bool = False,
    adversary: object = "none",
    memory_budget: bool = False,
) -> None:
    """Raise ``ValueError`` naming the first thing ``backend`` cannot run.

    ``adversary`` is a registered strategy name or a constructed adversary.
    """
    row = BACKENDS.get(backend)
    if row is None:
        raise ValueError(f"unknown backend {backend!r} (expected {' or '.join(map(repr, BACKENDS))})")
    if backend not in backends_for(protocol):
        raise ValueError(f"protocol {protocol!r} does not support backend {backend!r} "
                         f"(supported: {', '.join(backends_for(protocol))})")
    words = " / ".join(_MODE_WORDS.get(m, m) for m in row.modes)
    for lacks, what, runs in (
        (faults and not row.faults, "does not implement fault injection", "faulted"),
        (mode not in row.modes, f"is {words} only (got mode={mode!r})", mode),
        (rushing and not row.rushing, "does not implement a rushing adversary", "rushing"),
        (trace and not row.trace, "does not implement trace probes", "traced"),
    ):
        if lacks:
            raise ValueError(f"backend={backend!r} {what}; use backend={ORACLE!r} for {runs} runs")
    supported = (row.adversaries or {}).get(protocol)
    if supported is not None and not isinstance(adversary, str):
        raise ValueError(f"backend={backend!r} replays adversaries by name; pass adversary_name "
                         f"instead of a constructed adversary")
    if supported is not None and adversary not in supported:
        raise ValueError(f"backend={backend!r} does not support adversary {adversary!r} for {protocol} "
                         f"(supported: {', '.join(supported)}); use backend={ORACLE!r} for it")
    if memory_budget and not row.memory_budget:
        budgeted = " or ".join(repr(name) for name, other in BACKENDS.items() if other.memory_budget)
        raise ValueError(f"vec_memory_mb only applies to backend={budgeted}; backend={backend!r} "
                         f"has no chunked working set to budget")

"""Deterministic host-level chaos: planned worker faults for testing.

PR 2 proved the *simulation* survives faults by injecting them from
seeded plans (``repro.faults``).  This module applies the identical
philosophy one layer down, to the execution host: a :class:`ChaosPlan`
decides — deterministically, from the ``derive_seed`` chain — which task
indices get hit by which host-level fault, and :class:`ChaosExecutor`
(a :class:`~repro.parallel.supervisor.SupervisedExecutor` subclass)
injects them at submit time.

Three fault kinds mirror the supervisor's quarantine taxonomy:

* :data:`CHAOS_CRASH` — the worker calls ``os._exit`` mid-task, breaking
  the process pool (exercises pool rebuild / :data:`WORKER_CRASH`);
* :data:`CHAOS_HANG` — the worker sleeps past ``task_timeout_s``
  (exercises hung-task reclamation / :data:`TASK_HANG`);
* :data:`CHAOS_CORRUPT` — the task returns a value whose pickle raises,
  so the result cannot cross back (exercises :data:`TASK_ERROR`).

Faults are planned per ``(index, attempt)`` and default to attempt 0
only, which makes every planned fault *retry-recoverable*: the re-dispatch
runs the unmodified task function, whose result is a pure function of
the item.  That is the signature acceptance property — a chaos-afflicted
run's journal is **byte-identical** to a serial run's (see
``tests/test_parallel_supervisor.py``).

Injection happens in the parent, at submit time, by sending an
:class:`_AfflictedTask` wrapper along with exactly the afflicted
``(index, attempt)`` dispatch.  The worker never needs to know which
attempt it is running, and every dispatch, afflicted or not, runs the
task callable the pool installed once per worker.
"""

from __future__ import annotations

import os
import pickle
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from repro.parallel.supervisor import SupervisedExecutor, TaskWrapper

#: Chaos fault kinds (host-level, injected into workers).
CHAOS_CRASH = "crash"      #: worker process exits hard mid-task
CHAOS_HANG = "hang"        #: task sleeps past the supervisor's timeout
CHAOS_CORRUPT = "corrupt"  #: task result cannot be pickled back

CHAOS_KINDS = (CHAOS_CRASH, CHAOS_HANG, CHAOS_CORRUPT)


@dataclass(frozen=True)
class ChaosFault:
    """One planned fault: hit ``index`` on dispatch attempt ``attempt``."""

    index: int
    kind: str
    attempt: int = 0
    hang_s: float = 3600.0  #: sleep length for :data:`CHAOS_HANG` faults

    def __post_init__(self) -> None:
        if self.kind not in CHAOS_KINDS:
            raise ValueError(
                f"unknown chaos fault kind {self.kind!r} "
                f"(expected one of {CHAOS_KINDS})"
            )
        if self.index < 0:
            raise ValueError("fault index cannot be negative")
        if self.attempt < 0:
            raise ValueError("fault attempt cannot be negative")
        if self.hang_s <= 0:
            raise ValueError("hang duration must be positive")


@dataclass
class ChaosPlan:
    """Planned faults keyed by ``(index, attempt)``.

    With the default ``attempt=0`` faults, every fault is
    retry-recoverable and a supervised run converges to the fault-free
    result.  Planning a fault at every attempt of an index (via several
    :class:`ChaosFault` entries) creates a poison task for quarantine
    tests.
    """

    faults: Tuple[ChaosFault, ...] = ()
    _by_slot: Dict[Tuple[int, int], ChaosFault] = field(
        init=False, repr=False, default_factory=dict)

    def __post_init__(self) -> None:
        self.faults = tuple(self.faults)
        for fault in self.faults:
            slot = (fault.index, fault.attempt)
            if slot in self._by_slot:
                raise ValueError(
                    f"duplicate chaos fault for index {fault.index} "
                    f"attempt {fault.attempt}"
                )
            self._by_slot[slot] = fault

    def fault_at(self, index: int, attempt: int) -> Optional[ChaosFault]:
        return self._by_slot.get((index, attempt))

    @property
    def has_hangs(self) -> bool:
        return any(f.kind == CHAOS_HANG for f in self.faults)

    @classmethod
    def seeded(cls, experiment: str, tasks: int, *,
               fault_rate: float = 0.25,
               hang_s: float = 3600.0,
               kinds: Tuple[str, ...] = CHAOS_KINDS) -> "ChaosPlan":
        """Derive a plan from the experiment's seed chain.

        Each task index draws from ``derive_seed(f"{experiment}#chaos",
        index)`` — the same namespacing discipline as retry reseeds
        (``exp#retryN``) — so the plan is a pure function of
        ``(experiment, tasks)``: stable across runs, hosts, and worker
        counts, and independent per index.  At most one fault per index,
        always at attempt 0 (retry-recoverable by construction).
        """
        if not 0.0 <= fault_rate <= 1.0:
            raise ValueError("fault rate must be within [0, 1]")
        if not kinds:
            raise ValueError("need at least one fault kind")
        for kind in kinds:
            if kind not in CHAOS_KINDS:
                raise ValueError(f"unknown chaos fault kind {kind!r}")
        # Function-level import: repro.core.experiments imports
        # repro.parallel at module top, so importing it back at module
        # level here would hit a partially-initialized module.
        from repro.core.experiments import derive_seed

        faults = []
        for index in range(tasks):
            rng = random.Random(derive_seed(f"{experiment}#chaos", index))
            if rng.random() < fault_rate:
                faults.append(ChaosFault(index=index,
                                         kind=rng.choice(list(kinds)),
                                         hang_s=hang_s))
        return cls(faults=tuple(faults))


class _UnpicklableResult:
    """A value that refuses to cross the process boundary.

    Returned by :data:`CHAOS_CORRUPT` faults: the worker computes it
    fine, but pickling the result back to the parent raises, which the
    pool surfaces as the future's exception — the exact shape of a real
    corrupted-result failure.
    """

    def __reduce__(self) -> Any:
        raise pickle.PicklingError("chaos: task result corrupted in transit")


@dataclass(frozen=True)
class _AfflictedTask:
    """Picklable wrapper that detonates one planned fault in the worker.

    Carries only the fault; the work itself is the worker's installed
    task, exactly as on an unafflicted dispatch.
    """

    kind: str
    hang_s: float

    def __call__(self, task: Callable[[Any], Any], item: Any) -> Any:
        if self.kind == CHAOS_CRASH:
            # A hard exit, not an exception: simulates the OOM killer /
            # a segfault, which is what breaks a ProcessPoolExecutor.
            os._exit(17)
        if self.kind == CHAOS_HANG:
            time.sleep(self.hang_s)
        if self.kind == CHAOS_CORRUPT:
            task(item)  # the work happens; only the return is lost
            return _UnpicklableResult()
        return task(item)


class ChaosExecutor(SupervisedExecutor):
    """A :class:`SupervisedExecutor` that injects planned host faults.

    Test harness only — never wired into ``get_executor``.  Faults fire
    at submit time for exactly the planned ``(index, attempt)`` slots;
    every other dispatch is untouched, so with a retry-recoverable plan
    the output is identical to the fault-free run.
    """

    def __init__(self, max_workers: int, plan: ChaosPlan, **kwargs: Any):
        super().__init__(max_workers, **kwargs)
        if plan.has_hangs and self.task_timeout_s is None:
            raise ValueError(
                "a chaos plan with hang faults requires task_timeout_s — "
                "without a timeout the hung worker stalls the run forever"
            )
        self.plan = plan

    def _wrapper_for(self, index: int,
                     attempt: int) -> Optional[TaskWrapper]:
        fault = self.plan.fault_at(index, attempt)
        if fault is None:
            return None
        return _AfflictedTask(kind=fault.kind, hang_s=fault.hang_s)


__all__ = [
    "CHAOS_CORRUPT",
    "CHAOS_CRASH",
    "CHAOS_HANG",
    "CHAOS_KINDS",
    "ChaosExecutor",
    "ChaosFault",
    "ChaosPlan",
]

"""Supervised fan-out: survive host-level faults without losing determinism.

``MultiprocessExecutor`` is fast but brittle: one worker killed by the
OOM killer raises ``BrokenProcessPool`` and destroys hours of sweep
progress, and a single hung task stalls the run forever.
:class:`SupervisedExecutor` wraps the same ``ProcessPoolExecutor``
fan-out in a supervision loop that

* **rebuilds a broken pool** and re-dispatches only the unfinished task
  indices (completed results are never re-run);
* **enforces a per-task wall-clock budget** (``task_timeout_s``) — a
  hung task's pool is killed and every casualty is reassigned to a
  fresh pool;
* **quarantines poison tasks**: a task that keeps faulting is retired
  after ``max_task_retries`` faulted dispatches as a typed
  :class:`QuarantinedTask` (taxonomy :data:`WORKER_CRASH` /
  :data:`TASK_HANG` / :data:`TASK_ERROR`) instead of failing the sweep;
* **drains on SIGINT/SIGTERM**: in-flight results are collected and
  yielded (so the caller journals them) before ``KeyboardInterrupt`` is
  raised, which makes an interrupted sweep resume cleanly via the
  journal ``--resume`` path.

A pool receives the task callable once: its initializer installs ``fn``
in each worker, and every dispatch then carries only the item.  The
dispatch window is two tasks per worker, so a worker that finishes one
task starts the next without waiting for the parent's hand-off.  Workers
flag the task they are running in a small shared array, so a pool break
charges the tasks it interrupted, not the ones queued behind them.

Determinism is untouched: every trial is a pure function of its task
item, so re-dispatching a task after a crash reproduces the identical
result, and the index keying of the :class:`~repro.parallel.Executor`
contract keeps completion order out of the output.  The acceptance
property (see ``tests/test_parallel_supervisor.py``) is that a
chaos-afflicted run's journal is *byte-identical* to a serial run's.

Supervision events are host-level facts (how often the pool broke on
this machine) and therefore deliberately stay out of journals — the same
policy that keeps ``duration_wall_s`` out of the v3 journal schema.
They are observable through the ``parallel.*`` metrics namespace
(``parallel.pool_rebuilds``, ``parallel.task_retries``,
``parallel.quarantined`` counters and the ``parallel.live_workers``
gauge), through :attr:`SupervisedExecutor.last_supervision` /
:attr:`SupervisedExecutor.supervision_totals`, and — when a
:class:`repro.obs.runlog.RunLog` is attached — as host-keyed events
(``task_dispatch``, ``task_retry``, ``pool_rebuild``, ``hang_reclaim``,
``quarantine``, ``signal_drain``) in the run-level ``run.jsonl`` stream.

This module is the only place in the codebase allowed to register
signal handlers — simlint rule PAR602 enforces that, the way PAR601
pins process fan-out to ``repro.parallel``.
"""

from __future__ import annotations

import multiprocessing
import signal
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    CancelledError,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from itertools import islice
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.obs.metrics import MetricsRegistry, NullMetrics, NULL_METRICS
from repro.obs.runlog import AnyRunLog, NULL_RUNLOG
from repro.parallel.executors import Executor, ensure_picklable

#: Quarantine taxonomy: why the supervisor gave up on a task.
WORKER_CRASH = "worker_crash"  #: the worker process died (pool broken)
TASK_HANG = "task_hang"        #: the task exceeded ``task_timeout_s``
TASK_ERROR = "task_error"      #: the task raised (or its result would not pickle)

_QUARANTINE_KINDS = frozenset({WORKER_CRASH, TASK_HANG, TASK_ERROR})

#: Exceptions that mean "the pool itself died", not "the task failed".
_POOL_FAILURES = (BrokenProcessPool, CancelledError)
_POOL_BROKEN = "worker process died; process pool broken"

#: In-flight tasks per worker: one running, one queued behind it.
_WINDOW_PER_WORKER = 2

#: Flag a worker holds in its pool's shared per-task array while the
#: task runs (0 before it starts and after it returns).
_RUNNING = 1

#: A worker-side wrapper around the installed task (chaos injection).
TaskWrapper = Callable[[Callable[[Any], Any], Any], Any]

#: Worker-side slots the pool initializer fills (see :func:`_install`).
_worker_task: Optional[Callable[[Any], Any]] = None
_worker_flags: Any = None


def _install(fn: Callable[[Any], Any], flags: Any) -> None:
    """Pool initializer: keep the task and the pool's flags in the worker."""
    global _worker_task, _worker_flags
    _worker_task, _worker_flags = fn, flags


def _dispatch(index: int, item: Any,
              wrapper: Optional[TaskWrapper] = None) -> Any:
    """Dispatch trampoline: run the installed task on ``item`` in a worker.

    Flags ``index`` as running for as long as the task runs, so a pool
    break can tell the tasks it interrupted from those that returned or
    never started.  ``wrapper`` (chaos injection) receives the installed
    task and the item.
    """
    task = _worker_task
    if task is None:
        raise RuntimeError("no task installed in this worker process")
    _worker_flags[index] = _RUNNING
    try:
        return task(item) if wrapper is None else wrapper(task, item)
    finally:
        # A task that raised returned too: only a dead worker leaves
        # its flag set.
        _worker_flags[index] = 0


@dataclass(frozen=True)
class QuarantinedTask:
    """Typed placeholder yielded for a task the supervisor retired.

    Sits in the result stream where the real result would be, so callers
    (``RobustTrialRunner``, the studies) can classify the loss into
    their own failure taxonomy instead of the whole sweep failing.
    """

    index: int     #: task index in the submitted item list
    kind: str      #: one of :data:`WORKER_CRASH` / :data:`TASK_HANG` / :data:`TASK_ERROR`
    attempts: int  #: faulted dispatches before the supervisor gave up
    error: str     #: deterministic one-line description of the last fault


@dataclass
class SupervisionReport:
    """What the supervisor had to do during one ``run_tasks`` call."""

    pool_rebuilds: int = 0
    task_retries: int = 0
    quarantined: List[QuarantinedTask] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when no supervision action was needed."""
        return (self.pool_rebuilds == 0 and self.task_retries == 0
                and not self.quarantined)


def drop_quarantined(results: Sequence[Any]) -> list:
    """Filter :class:`QuarantinedTask` placeholders out of ``map`` output.

    The studies summarize whatever trials survived (the same graceful
    degradation ``Summary.failures`` gives sim-level faults), so a
    quarantined trial shrinks ``n`` instead of crashing the sweep.
    """
    return [r for r in results if not isinstance(r, QuarantinedTask)]


@dataclass
class _InFlight:
    """Bookkeeping for one submitted future.

    ``serial`` numbers submissions within one ``run_tasks`` call.
    ``started`` and ``deadline`` stay ``None`` until the task joins the
    started cohort (see :meth:`SupervisedExecutor._arm`).
    """

    index: int
    serial: int
    started: Optional[float] = None
    deadline: Optional[float] = None


class SupervisedExecutor(Executor):
    """Fault-tolerant :class:`~repro.parallel.Executor` over worker pools.

    Contract differences from ``MultiprocessExecutor``, all in the
    direction of never losing the sweep:

    * task exceptions do **not** propagate — a task that keeps raising is
      quarantined as :data:`TASK_ERROR` after ``max_task_retries``
      faulted dispatches and yielded as a :class:`QuarantinedTask`;
    * the pool path is always taken (no serial degradation for one item
      or one worker), so crash/hang recovery semantics do not silently
      change with the workload size;
    * ``run_tasks`` still yields every index exactly once — a quarantined
      index yields its placeholder.

    The pool's initializer installs the task callable in each worker
    once (a rebuilt pool re-installs it); a dispatch ships only the item.
    The dispatch window is two in-flight tasks per worker, topped up as
    soon as any task finishes.  Workers take tasks in submission order,
    so the ``workers`` oldest in-flight tasks are the *started cohort*
    and the rest are queued behind them.  Four rules keep supervision
    honest under the deeper window:

    * a task's ``task_timeout_s`` clock starts when it joins the started
      cohort, not when it is submitted;
    * a pool break charges a fault only to the tasks it interrupted
      (each worker flags the task it is running in a shared per-pool
      array), or to the started cohort when none was running; queued or
      already-returned tasks go back to the front of the queue
      uncharged, so the blast radius stays at most ``max_workers``
      charged tasks;
    * a signal drain waits for the started cohort only; queued tasks are
      dropped and re-run on ``--resume``;
    * at most ``window`` submissions run ahead of the oldest unfinished
      task until it has run for ``poll_interval_s``, and no task is sent
      to a pool with an exited worker, so a crash is noticed before the
      surviving workers drain the queue into the broken pool.

    ``drain_signals=True`` (the default) registers SIGINT/SIGTERM
    handlers for the duration of the run: the first signal stops new
    submissions, drains in-flight results for up to ``drain_grace_s``
    (so the caller's journal captures them), then raises
    ``KeyboardInterrupt``; a second signal aborts the drain immediately.
    Handlers are always restored, and registration is skipped off the
    main thread.
    """

    def __init__(
        self,
        max_workers: int,
        *,
        task_timeout_s: Optional[float] = None,
        max_task_retries: int = 3,
        drain_signals: bool = True,
        drain_grace_s: Optional[float] = None,
        poll_interval_s: float = 0.05,
        metrics: Optional[MetricsRegistry] = None,
        runlog: Optional[AnyRunLog] = None,
    ):
        if max_workers < 1:
            raise ValueError("need at least one worker")
        if task_timeout_s is not None and task_timeout_s <= 0:
            raise ValueError("task timeout must be positive")
        if max_task_retries < 0:
            raise ValueError("max task retries cannot be negative")
        if poll_interval_s <= 0:
            raise ValueError("poll interval must be positive")
        self.jobs = max_workers
        self.task_timeout_s = task_timeout_s
        self.max_task_retries = max_task_retries
        self.drain_signals = drain_signals
        self.drain_grace_s = (
            drain_grace_s if drain_grace_s is not None
            else (task_timeout_s if task_timeout_s is not None else 30.0)
        )
        self.poll_interval_s = poll_interval_s
        self._metrics: Union[MetricsRegistry, NullMetrics] = (
            metrics if metrics is not None else NULL_METRICS
        )
        self._pool_rebuilds = self._metrics.counter("parallel.pool_rebuilds")
        self._task_retries = self._metrics.counter("parallel.task_retries")
        self._quarantined = self._metrics.counter("parallel.quarantined")
        self._live_workers = self._metrics.gauge("parallel.live_workers")
        #: Run-level event stream for supervision events (host facts).
        #: The CLI attaches one after construction; default is the no-op.
        self.runlog: AnyRunLog = runlog if runlog is not None else NULL_RUNLOG
        #: Supervision stats of the most recent ``run_tasks`` call.
        self.last_supervision = SupervisionReport()
        #: Supervision stats accumulated over every ``run_tasks`` call of
        #: this executor's lifetime — what the CLI's one-line
        #: ``supervision:`` summary prints after a multi-sweep command.
        self.supervision_totals = SupervisionReport()
        self._signals_seen = 0

    # -- submission hook ---------------------------------------------------

    def _wrapper_for(self, index: int,
                     attempt: int) -> Optional[TaskWrapper]:
        """Worker-side wrapper around the installed task for one dispatch;
        ``ChaosExecutor`` overrides this to inject planned faults for
        ``(index, attempt)``."""
        return None

    # -- pool lifecycle ----------------------------------------------------

    def _new_pool(self, workers: int, fn: Callable[[Any], Any],
                  tasks: int) -> Tuple[ProcessPoolExecutor, Any]:
        """A pool with ``fn`` installed in every worker, and its flags.

        The pool keeps its platform start method: under fork the
        initializer's arguments are inherited, so ``fn`` is not pickled
        per worker.  Each pool gets fresh flags, so a worker of a killed
        pool can never mark a task of its successor.
        """
        flags = multiprocessing.RawArray("b", tasks)
        pool = ProcessPoolExecutor(max_workers=workers, initializer=_install,
                                   initargs=(fn, flags))
        self._live_workers.set(workers)
        return pool, flags

    def _kill_pool(self, pool: ProcessPoolExecutor) -> None:
        """Tear a pool down without waiting — hung workers included.

        ``shutdown`` alone never reclaims a worker stuck in a busy loop;
        terminating the processes first is the only way to cancel a hung
        task.  ``_processes`` is private API, so failures to reach it
        degrade to a plain shutdown (the leaked worker dies with the
        parent).
        """
        try:
            processes = dict(getattr(pool, "_processes", None) or {})
            for process in processes.values():
                process.terminate()
        except Exception:
            pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass
        self._live_workers.set(0)

    def _rebuild_pool(self, workers: int, fn: Callable[[Any], Any],
                      tasks: int, report: SupervisionReport,
                      ) -> Tuple[ProcessPoolExecutor, Any]:
        report.pool_rebuilds += 1
        self.supervision_totals.pool_rebuilds += 1
        self._pool_rebuilds.inc()
        self.runlog.emit("pool_rebuild", workers=workers)
        return self._new_pool(workers, fn, tasks)

    def _arm(self, inflight: Dict[Future, _InFlight], workers: int) -> None:
        """Stamp the start, and the hang deadline, of tasks that joined
        the started cohort.

        Workers take tasks in submission order, so the ``workers`` oldest
        in-flight tasks are the ones running; a queued task's clock
        starts only once it moves up into that cohort.
        """
        # Host watchdog, not sim time: the budget guards the machine, so
        # it must read a real clock.
        now = time.monotonic()  # simlint: disable=DET001 -- host-level watchdog deadline
        for slot in islice(inflight.values(), workers):
            if slot.started is None:
                slot.started = now
                if self.task_timeout_s is not None:
                    slot.deadline = now + self.task_timeout_s

    def _may_run_ahead(self, inflight: Dict[Future, _InFlight], serial: int,
                       window: int) -> bool:
        """Whether submission ``serial`` may go out now.

        A worker that dies mid-task looks like a slow one until its
        process is torn down (milliseconds), and meanwhile its siblings
        could drain the queue into the doomed pool.  So at most
        ``window`` submissions run ahead of the oldest unfinished task
        until that task has run for ``poll_interval_s``.
        """
        head = next(iter(inflight.values()), None)
        if head is None or serial - head.serial <= window:
            return True
        return (head.started is not None
                and time.monotonic() - head.started  # simlint: disable=DET001 -- host-level watchdog clock
                >= self.poll_interval_s)

    # -- fault accounting --------------------------------------------------

    def _fault(self, index: int, attempts: List[int], queue: Deque[int],
               kind: str, error: str,
               report: SupervisionReport) -> Iterator[Tuple[int, Any]]:
        """Count one faulted dispatch; quarantine when the budget is spent.

        A task with retries left goes to the back of ``queue``; a task
        whose budget is spent yields its :class:`QuarantinedTask`.
        """
        attempts[index] += 1
        if attempts[index] <= self.max_task_retries:
            report.task_retries += 1
            self.supervision_totals.task_retries += 1
            self._task_retries.inc()
            self.runlog.emit("task_retry", index=index, kind=kind,
                             error=error)
            queue.append(index)
            return
        quarantined = QuarantinedTask(index=index, kind=kind,
                                      attempts=attempts[index], error=error)
        report.quarantined.append(quarantined)
        self.supervision_totals.quarantined.append(quarantined)
        self._quarantined.inc()
        self.runlog.emit("quarantine", index=index, kind=kind,
                         attempts=attempts[index], error=error)
        yield index, quarantined

    # -- signal plumbing ---------------------------------------------------

    def _install_handlers(self) -> Optional[Dict[int, Any]]:
        if not self.drain_signals:
            return None
        self._signals_seen = 0

        def on_signal(signum: int, frame: Any) -> None:
            self._signals_seen += 1

        try:
            return {
                signum: signal.signal(signum, on_signal)
                for signum in (signal.SIGINT, signal.SIGTERM)
            }
        except ValueError:
            # signal.signal only works on the main thread; supervision
            # still runs, just without the drain-on-signal behavior.
            return None

    @staticmethod
    def _restore_handlers(previous: Optional[Dict[int, Any]]) -> None:
        if previous is None:
            return
        for signum, handler in previous.items():
            signal.signal(signum, handler)

    # -- execution ---------------------------------------------------------

    def run_tasks(self, fn: Callable[[Any], Any],
                  items: Sequence[Any]) -> Iterator[Tuple[int, Any]]:
        work = list(items)
        self.last_supervision = SupervisionReport()
        if not work:
            return
        ensure_picklable(fn)
        yield from self._supervise(fn, work, self.last_supervision)

    def _supervise(self, fn: Callable[[Any], Any], work: list,
                   report: SupervisionReport) -> Iterator[Tuple[int, Any]]:
        workers = min(self.jobs, len(work))
        window = _WINDOW_PER_WORKER * workers
        queue: Deque[int] = deque(range(len(work)))
        attempts: List[int] = [0] * len(work)
        # Insertion order is submission order, so the first ``workers``
        # entries are the started cohort.
        inflight: Dict[Future, _InFlight] = {}
        serial = 0
        previous_handlers = self._install_handlers()
        pool, flags = self._new_pool(workers, fn, len(work))
        try:
            while queue or inflight:
                if self._signals_seen:
                    yield from self._drain(inflight, workers)
                    raise KeyboardInterrupt(
                        "sweep interrupted: in-flight results drained; "
                        "rerun with --resume to continue"
                    )
                broken = _worker_died(pool)
                while (not broken and queue and len(inflight) < window
                       and self._may_run_ahead(inflight, serial, window)):
                    index = queue.popleft()
                    try:
                        future = pool.submit(
                            _dispatch, index, work[index],
                            self._wrapper_for(index, attempts[index]))
                    except Exception:
                        # Submitting on a dead pool (BrokenProcessPool /
                        # RuntimeError): the item itself never dispatched,
                        # so it goes back without a fault charge.
                        queue.appendleft(index)
                        broken = True
                        break
                    inflight[future] = _InFlight(index=index, serial=serial)
                    serial += 1
                    self.runlog.emit("task_dispatch", index=index,
                                     attempt=attempts[index])
                self._arm(inflight, workers)
                if not broken and inflight:
                    # Back on the first completion: waiting for the whole
                    # window would idle a worker behind a slower sibling.
                    done, _ = wait(set(inflight),
                                   timeout=self.poll_interval_s,
                                   return_when=FIRST_COMPLETED)
                    for future in done:
                        tag, payload = _settle(future)
                        if tag == "pool":
                            broken = True  # settled with the cohort below
                            continue
                        slot = inflight.pop(future)
                        if tag == "ok":
                            self.runlog.emit("task_complete",
                                             index=slot.index)
                            yield slot.index, payload
                        else:
                            yield from self._fault(
                                slot.index, attempts, queue, TASK_ERROR,
                                payload, report)
                if broken:
                    # The pool died.  Finished tasks keep their results;
                    # each task the break interrupted pays one fault (the
                    # culprit is among them but unattributable).  When no
                    # task was running (the break hit between tasks or in
                    # transit), the started cohort pays.  The rest never
                    # ran or already returned: they go back to the front
                    # of the queue uncharged.
                    lost: List[int] = []
                    for future, slot in inflight.items():
                        tag, payload = _settle(future)
                        if tag == "ok":
                            self.runlog.emit("task_complete",
                                             index=slot.index)
                            yield slot.index, payload
                        elif tag == "error":
                            yield from self._fault(
                                slot.index, attempts, queue, TASK_ERROR,
                                payload, report)
                        else:
                            lost.append(slot.index)
                    inflight.clear()
                    self._kill_pool(pool)
                    charged = ([index for index in lost
                                if flags[index] == _RUNNING]
                               or lost[:workers])
                    queue.extendleft(reversed(
                        [index for index in lost if index not in charged]))
                    pool, flags = self._rebuild_pool(workers, fn, len(work),
                                                     report)
                    for index in charged:
                        yield from self._fault(index, attempts, queue,
                                               WORKER_CRASH, _POOL_BROKEN,
                                               report)
                    continue
                if self.task_timeout_s is not None and inflight:
                    now = time.monotonic()  # simlint: disable=DET001 -- host-level watchdog clock
                    expired = {future for future, slot in inflight.items()
                               if slot.deadline is not None
                               and now >= slot.deadline}
                    if expired:
                        # A running future cannot be cancelled; killing the
                        # pool is the only way to reclaim a hung worker.
                        # Innocent cohort members re-queue without a fault
                        # charge.
                        hung = sorted(inflight[f].index for f in expired)
                        survivors = sorted(slot.index
                                           for future, slot in inflight.items()
                                           if future not in expired)
                        self.runlog.emit("hang_reclaim", hung=hung,
                                         survivors=survivors)
                        inflight.clear()
                        self._kill_pool(pool)
                        pool, flags = self._rebuild_pool(workers, fn,
                                                         len(work), report)
                        queue.extendleft(reversed(survivors))
                        for index in hung:
                            yield from self._fault(
                                index, attempts, queue, TASK_HANG,
                                f"exceeded the {self.task_timeout_s:g}s "
                                f"task timeout",
                                report)
        finally:
            self._restore_handlers(previous_handlers)
            self._kill_pool(pool)

    def _drain(self, inflight: Dict[Future, _InFlight], workers: int,
               ) -> Iterator[Tuple[int, Any]]:
        """Collect what the started cohort is finishing before shutdown.

        Waits only for the ``workers`` oldest in-flight tasks, the ones
        already running, and yields every result that completes within
        ``drain_grace_s`` so the consumer can journal it.  Queued tasks
        are dropped, and faults during the drain are simply dropped too:
        those trials rerun on ``--resume``.  A second signal aborts the
        drain immediately.
        """
        cohort = dict(islice(inflight.items(), workers))
        self.runlog.emit("signal_drain", inflight=len(cohort))
        deadline = time.monotonic() + self.drain_grace_s  # simlint: disable=DET001 -- host-level drain deadline
        while cohort and self._signals_seen < 2:
            remaining = deadline - time.monotonic()  # simlint: disable=DET001 -- host-level drain deadline
            if remaining <= 0:
                break
            done, _ = wait(set(cohort),
                           timeout=min(self.poll_interval_s, remaining),
                           return_when=FIRST_COMPLETED)
            for future in done:
                slot = cohort.pop(future)
                tag, payload = _settle(future)
                if tag == "ok":
                    yield slot.index, payload


def _worker_died(pool: ProcessPoolExecutor) -> bool:
    """True once a worker of ``pool`` has exited.

    The pool's own manager thread reads a pending result before it looks
    at dead workers, so while the survivors keep returning results a
    crash goes unnoticed and the parent keeps feeding the broken pool.
    Reading the workers' exit codes (private ``_processes``, as in
    ``_kill_pool``) catches the crash before the next submission.
    """
    try:
        processes = list((getattr(pool, "_processes", None) or {}).values())
        return any(process.exitcode is not None for process in processes)
    except Exception:
        return False


def _settle(future: Future) -> Tuple[str, Any]:
    """Classify a future: ``("ok", result)``, ``("error", msg)``, or
    ``("pool", msg)`` for infrastructure death (including still-pending
    futures on a broken pool)."""
    try:
        result = future.result(timeout=0)
    except _POOL_FAILURES:
        return "pool", _POOL_BROKEN
    except FutureTimeoutError:
        # Not done: its pool broke under it before it could run.
        return "pool", _POOL_BROKEN
    except Exception as error:  # noqa: BLE001 - taxonomy boundary
        return "error", f"{type(error).__name__}: {error}"
    return "ok", result


__all__ = [
    "QuarantinedTask",
    "SupervisedExecutor",
    "SupervisionReport",
    "TASK_ERROR",
    "TASK_HANG",
    "WORKER_CRASH",
    "drop_quarantined",
]

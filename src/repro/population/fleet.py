"""Fleet execution: thousands of sampled sessions, one streaming pass.

:class:`FleetRunner` mirrors :class:`~repro.core.experiments.
RobustTrialRunner` semantics — runlog ``run_start`` / ``trial_complete``
/ ``run_end`` events, the same crash/timeout/deadlock/error taxonomy,
supervised-executor quarantine folding, and content-addressed caching of
per-session results — but folds everything into a
:class:`~repro.population.aggregate.FleetAggregator` instead of keeping
records, so memory stays O(buckets) at any session count.

Determinism across worker counts: the cache hit/miss partition is fixed
by the store's contents, not by ``--jobs``, so the canonical fold order
is (1) hits in session-index order, then (2) executed sessions in
pending order — restored from the executor's arbitrary completion order
by a reorder buffer bounded by the supervisor's in-flight window.  Same
seed + same cache state → byte-identical aggregate JSON for any worker
count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cache import (
    KIND_PICKLE,
    TrialCache,
    TrialKeyer,
    decode_result,
    encode_result,
    resolve_cache,
)
from repro.core.background import BackgroundLoad, make_rng
from repro.core.experiments import (
    TRIAL_CRASH,
    TRIAL_DEADLOCK,
    TRIAL_ERROR,
    TRIAL_OK,
    TRIAL_TIMEOUT,
)
from repro.device import Device
from repro.netstack import Link
from repro.obs.export import histogram_quantile
from repro.obs.runlog import AnyRunLog, NULL_RUNLOG, RUNLOG_VERSION, RunLog
from repro.parallel import (
    Executor,
    QuarantinedTask,
    SerialExecutor,
    SupervisionReport,
    TASK_HANG,
    WORKER_CRASH,
)
from repro.population.aggregate import ALL_TIER, FleetAggregator
from repro.population.config import PopulationConfig, SessionSampler, SessionSpec
from repro.rtc import CallConfig, VideoCall
from repro.sim import Environment, Interrupt, SimDeadlock, StepBudgetExceeded
from repro.video import StreamingPlayer, VideoSpec
from repro.web import BrowserEngine
from repro.workloads import generate_corpus
from repro.workloads.pages import PageSpec
from repro.workloads.regexcorpus import RegexWorkloadFactory

#: Aggregate JSON schema version (``FleetReport.to_json``).
AGGREGATE_VERSION = 1


@dataclass(frozen=True)
class SessionResult:
    """Outcome of one simulated session (the only thing workers return)."""

    index: int
    tier: str
    workload: str
    network: str
    status: str
    metrics: Dict[str, float]
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.status == TRIAL_OK


def _simulate(config: PopulationConfig, corpus: Tuple[PageSpec, ...],
              spec: SessionSpec) -> Dict[str, float]:
    """Run one session on a fresh simulated device; returns its QoE metrics."""
    env = Environment()
    device = Device(env, spec.device, governor="OD")
    if config.background_jitter:
        BackgroundLoad(env, device, make_rng(spec.seed))
    link = Link(env, spec.link)
    if spec.workload == "web":
        browser = BrowserEngine(env, device, link)
        result = env.run(env.process(browser.load(corpus[spec.page_index])))
        return {"plt_s": result.plt}
    if spec.workload == "video":
        player = StreamingPlayer(env, device, link,
                                 VideoSpec(duration_s=config.video_s))
        stream = env.run(env.process(player.run()))
        return {"startup_s": stream.startup_latency_s,
                "stall_ratio": stream.stall_ratio}
    call = VideoCall(env, device, link,
                     CallConfig(call_duration_s=config.call_s))
    outcome = env.run(env.process(call.run()))
    return {"setup_delay_s": outcome.setup_delay_s,
            "frame_rate_fps": outcome.frame_rate}


def run_session(config: PopulationConfig, corpus: Tuple[PageSpec, ...],
                spec: SessionSpec) -> SessionResult:
    """One session under the trial failure taxonomy — never raises."""
    status = TRIAL_OK
    metrics: Dict[str, float] = {}
    error = ""
    try:
        metrics = _simulate(config, corpus, spec)
    except Interrupt as fault:
        status, error = TRIAL_CRASH, f"interrupted: {fault.cause!r}"
    except SimDeadlock as deadlock:
        status, error = TRIAL_DEADLOCK, str(deadlock)
    except StepBudgetExceeded as budget:
        status, error = TRIAL_TIMEOUT, str(budget)
    except Exception as exc:  # noqa: BLE001 - taxonomy boundary
        status, error = TRIAL_ERROR, f"{type(exc).__name__}: {exc}"
    return SessionResult(index=spec.index, tier=spec.tier,
                         workload=spec.workload, network=spec.network,
                         status=status, metrics=metrics, error=error)


@dataclass(frozen=True)
class _SessionTask:
    """Picklable unit of work: sample session ``index`` and simulate it.

    Carries the runner whole, like :class:`~repro.core.experiments.
    _TrialTask`: the task holds only configuration and the page corpus
    (the runlog reduces to the null object, executors carry no live pool
    state), and the worker re-derives everything else from the session
    index.  A supervised pool installs the task in each worker once, so
    the corpus is not re-sent with every session.
    """

    runner: "FleetRunner"

    def __call__(self, index: int) -> SessionResult:
        runner = self.runner
        spec = SessionSampler(runner.config).sample(index)
        return run_session(runner.config, runner.corpus, spec)


@dataclass
class FleetReport:
    """Aggregated outcome of one fleet run (no per-session state)."""

    config: PopulationConfig
    aggregate: dict
    quarantined: int = 0
    supervision: Optional[SupervisionReport] = None

    @property
    def experiment(self) -> str:
        return self.config.experiment

    @property
    def sessions(self) -> int:
        return int(self.aggregate.get("sessions", 0))

    @property
    def completed(self) -> int:
        return int(self.aggregate.get("completed", 0))

    @property
    def failures(self) -> Dict[str, int]:
        return dict(self.aggregate.get("failures", {}))

    def series(self, workload: str, metric: str) -> Dict[str, dict]:
        """Per-tier entries for one metric (empty when none observed)."""
        return dict(self.aggregate.get("series", {})
                    .get(workload, {}).get(metric, {}))

    def quantile(self, workload: str, metric: str, q: float,
                 tier: str = ALL_TIER) -> float:
        """Bucket-resolution quantile of one tier's metric distribution.

        The ``le`` bucket bound is clamped to the tier's observed
        ``[min, max]``: a bound past the largest observation, or the
        ``+Inf`` overflow bucket, would claim a value no session had.
        """
        entry = self.series(workload, metric).get(tier)
        if entry is None:
            return 0.0
        bound = histogram_quantile(entry["hist"], q)
        return min(max(bound, entry["min"]), entry["max"])

    def cdf(self, workload: str, metric: str,
            tier: str = ALL_TIER) -> List[Tuple[float, float]]:
        """Bucket-bound CDF points ``(bound, P(value <= bound))``.

        Covers the finite bucket bounds; mass beyond the last bound (the
        ``+Inf`` overflow bucket) keeps the final probability below 1.
        """
        entry = self.series(workload, metric).get(tier)
        if entry is None:
            return []
        hist = entry["hist"]
        count = hist.get("count", 0)
        if count <= 0:
            return []
        finite = sorted(
            (float(label), n)
            for label, n in hist.get("buckets", {}).items()
            if label != "+Inf"
        )
        points: List[Tuple[float, float]] = []
        cumulative = 0
        for bound, n in finite:
            cumulative += n
            points.append((bound, cumulative / count))
        return points

    def to_json(self) -> str:
        """Canonical aggregate JSON — byte-identical across worker counts."""
        import json

        return json.dumps(
            {
                "aggregate_version": AGGREGATE_VERSION,
                "experiment": self.experiment,
                "seed": self.config.seed,
                "sessions": self.config.sessions,
                "aggregate": self.aggregate,
            },
            sort_keys=True, separators=(",", ": "), indent=1,
        ) + "\n"


class FleetRunner:
    """Samples, dispatches, and streams a whole fleet into one aggregate.

    Same wiring discipline as :class:`~repro.core.experiments.
    RobustTrialRunner`: the runlog and cache are taken from the
    constructor or the executor's attachments; only the parent process
    touches either.
    """

    def __init__(self, config: PopulationConfig,
                 executor: Optional[Executor] = None,
                 runlog: Optional[RunLog] = None,
                 cache: Optional[TrialCache] = None):
        self.config = config
        self.executor = executor or SerialExecutor()
        self.runlog = runlog
        self.cache = cache
        # Built once in the parent and shipped inside the pickled task, so
        # every worker loads the identical pages.
        self.corpus: Tuple[PageSpec, ...] = tuple(generate_corpus(
            config.n_pages, factory=RegexWorkloadFactory()))

    def cache_params(self) -> dict:
        """The facets a session result depends on (the cache-key protocol).

        The executor, runlog, and cache are infrastructure — which of
        them ran a session must never change its key.
        """
        return {"config": self.config, "corpus": self.corpus}

    def _resolve_runlog(self) -> AnyRunLog:
        if self.runlog is not None:
            return self.runlog
        attached = getattr(self.executor, "runlog", None)
        return NULL_RUNLOG if attached is None else attached

    def run(self) -> FleetReport:
        """Execute every session; returns the streamed aggregate."""
        config = self.config
        experiment = config.experiment
        runlog = self._resolve_runlog()
        sampler = SessionSampler(config)
        task = _SessionTask(runner=self)
        aggregator = FleetAggregator()
        quarantined = 0
        keyer = TrialKeyer.create(
            resolve_cache(self.cache, self.executor), task,
            experiment=experiment)

        def fold(result: SessionResult) -> None:
            aggregator.observe(tier=result.tier, workload=result.workload,
                               network=result.network, status=result.status,
                               metrics=result.metrics)
            runlog.emit("trial_complete", trial=result.index,
                        status=result.status, tier=result.tier,
                        workload=result.workload)

        runlog.emit("run_start", experiment=experiment,
                    trials=config.sessions, pending=config.sessions,
                    resumed=0, runlog_version=RUNLOG_VERSION,
                    config={"jobs": getattr(self.executor, "jobs", 1),
                            "seed": config.seed})
        # Phase 1: replay cache hits in index order.  The partition is a
        # function of the store's contents alone, so it is identical for
        # every worker count.
        pending: List[int] = []
        keys: Dict[int, str] = {}
        for index in range(config.sessions):
            result = self._cached_result(keyer, index, runlog, keys)
            if result is None:
                pending.append(index)
            else:
                fold(result)
        # Phase 2: dispatch the misses; fold strictly in pending order via
        # a reorder buffer.  The buffer holds at most the supervisor's
        # in-flight window (O(jobs)), preserving O(buckets) peak state.
        buffer: Dict[int, SessionResult] = {}
        next_fold = 0
        for sub_index, outcome in self.executor.run_tasks(task, pending):
            index = pending[sub_index]
            if isinstance(outcome, QuarantinedTask):
                result = self._quarantined_result(sampler, index, outcome)
                quarantined += 1
            else:
                result = outcome
                self._store_result(keyer, result, keys, runlog)
            buffer[sub_index] = result
            while next_fold in buffer:
                fold(buffer.pop(next_fold))
                next_fold += 1
        runlog.emit("run_end", completed=aggregator.completed,
                    failures=sum(aggregator.failures.values()),
                    quarantined=quarantined)
        return FleetReport(
            config=config,
            aggregate=aggregator.snapshot(),
            quarantined=quarantined,
            supervision=getattr(self.executor, "last_supervision", None),
        )

    # -- result cache ------------------------------------------------------

    def _cached_result(self, keyer: Optional[TrialKeyer], index: int,
                       runlog: AnyRunLog,
                       keys: Dict[int, str]) -> Optional[SessionResult]:
        """The stored result for one session, or ``None`` to execute it."""
        if keyer is None:
            return None
        key = keyer.key(index, index)
        if key is None:
            return None
        keys[index] = key
        entry = keyer.cache.get(key)
        if entry is not None and entry.get("kind") == KIND_PICKLE:
            try:
                result = decode_result(entry["payload"])
            except Exception:
                result = None
            if isinstance(result, SessionResult) and result.index == index:
                runlog.emit("cache_hit", experiment=self.config.experiment,
                            index=index, key=key)
                return result
            # Torn or stale payload: re-book the optimistic hit as a miss.
            keyer.cache.stats.hits -= 1
            keyer.cache.stats.misses += 1
        elif entry is not None:
            keyer.cache.stats.hits -= 1
            keyer.cache.stats.misses += 1
        runlog.emit("cache_miss", experiment=self.config.experiment,
                    index=index, key=key)
        return None

    def _store_result(self, keyer: Optional[TrialKeyer],
                      result: SessionResult, keys: Dict[int, str],
                      runlog: AnyRunLog) -> None:
        """Store one executed session (ok only — failures re-run cheaply)."""
        if keyer is None or not result.ok:
            return
        key = keys.get(result.index)
        if key is None:
            return
        keyer.cache.put(key, experiment=self.config.experiment,
                        trial=result.index, kind=KIND_PICKLE,
                        payload=encode_result(result),
                        fingerprint=keyer.fingerprint)
        runlog.emit("cache_store", experiment=self.config.experiment,
                    index=result.index, key=key)

    def _quarantined_result(self, sampler: SessionSampler, index: int,
                            quarantined: QuarantinedTask) -> SessionResult:
        """Classify a supervisor-quarantined session into the taxonomy.

        The session's composition is re-sampled in the parent (cheap and
        deterministic) so mix counts stay complete even though the
        worker never reported back.
        """
        spec = sampler.sample(index)
        status = {
            WORKER_CRASH: TRIAL_CRASH,
            TASK_HANG: TRIAL_TIMEOUT,
        }.get(quarantined.kind, TRIAL_ERROR)
        return SessionResult(
            index=index, tier=spec.tier, workload=spec.workload,
            network=spec.network, status=status, metrics={},
            error=(f"quarantined after {quarantined.attempts} faulted "
                   f"dispatches ({quarantined.kind}): {quarantined.error}"),
        )


__all__ = [
    "AGGREGATE_VERSION",
    "FleetReport",
    "FleetRunner",
    "SessionResult",
    "run_session",
]

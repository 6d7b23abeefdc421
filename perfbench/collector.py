"""Per-layer collector for the traced run.

The collector wraps public entry points of ``repro`` from outside: it
swaps class and module attributes for timing or counting wrappers on
``__enter__`` and puts every original back on ``__exit__``.  No file
under ``src/repro`` changes, and a process that never enters a collector
runs the program untouched, which is why end-to-end metrics come from
untraced runs only.

What it records:

* every ``Environment.schedule`` call, attributed to the first module
  outside ``repro.sim`` on the call stack, or to ``sim`` itself when
  the kernel's own dispatch loop scheduled it (process resumption);
* per environment (one simulated session): its kind (web, video, rtc),
  scheduled events, CPU tasks, cluster transitions seen by an observer
  registered with ``Cluster.add_observer``, governor samples, and the
  ``repro.obs`` counters of a registry installed when it was built;
* wall time of calls into the population, workloads, parallel, cache
  and studies layers;
* separately, :func:`self_shares` groups a profiler's self time by
  ``repro`` module; the profiled pass runs without the wrappers, so
  their cost does not land in any layer's share.

The model hooks (``model=True``) only make sense when the simulation
runs in this process; with worker processes the collector sees the
parent side alone.
"""

from __future__ import annotations

import cProfile
import pickle
import pstats
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List

#: Layers that events are attributed to (module prefixes under repro).
EVENT_LAYERS = ("device.cpu", "device.governors", "netstack", "web",
                "video", "rtc", "core.background", "sim")
#: Groups of repro modules whose profiler self time is reported.
SHARE_GROUPS = ("sim", "device.cpu", "device.energy", "device.governors",
                "netstack", "web", "video", "rtc", "dsp", "jsruntime",
                "regexlib", "analysis", "population", "workloads", "core")
SESSION_KINDS = ("web", "video", "rtc")


def _matches(name: str, prefix: str) -> bool:
    return name == prefix or name.startswith(prefix + ".")


def event_layer(module: str) -> str:
    """The ``EVENT_LAYERS`` entry a ``repro.*`` module belongs to."""
    if module.startswith("repro."):
        name = module[len("repro."):]
        for layer in EVENT_LAYERS:
            if _matches(name, layer):
                return layer
    return "other"


class _EnvRecord:
    """Counts for one simulated environment (one session or page load)."""

    __slots__ = ("kind", "events", "cpu_tasks", "transitions", "samples",
                 "metrics")

    def __init__(self, metrics: Any):
        self.kind = ""
        self.events = 0
        self.cpu_tasks = 0
        self.transitions = 0
        self.samples = 0
        self.metrics = metrics

    def on_transition(self, cluster: Any) -> None:
        self.transitions += 1

    def counter(self, name: str) -> float:
        return self.metrics.counter(name).value


class _TimedTask:
    """A ``cached_map`` task that records each trial's wall time."""

    def __init__(self, task: Callable[[Any], Any], sink: List[float]):
        self.perfbench_inner = task
        self.sink = sink

    def __call__(self, item: Any) -> Any:
        start = time.perf_counter()
        result = self.perfbench_inner(item)
        self.sink.append(time.perf_counter() - start)
        return result


class Collector:
    """Context manager that installs the traced run's wrappers."""

    def __init__(self, model: bool = True):
        self.model = model
        self.records: List[_EnvRecord] = []
        self.by_layer: Counter = Counter()
        self.timings: Dict[str, List[float]] = defaultdict(list)
        self.task_bytes: List[int] = []
        self._undo: List[tuple] = []

    # -- patching ----------------------------------------------------------

    def _swap(self, owner: Any, name: str, replacement: Any) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def _swap_everywhere(self, original: Callable, replacement: Any) -> None:
        """Replace ``original`` in every loaded repro module that binds it."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not _matches(module_name, "repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._swap(module, attr, replacement)

    def _timed(self, key: str, original: Callable) -> Callable:
        sink = self.timings[key]

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                sink.append(time.perf_counter() - start)
        return timed

    def __enter__(self) -> "Collector":
        if self.model:
            self._install_model()
        self._install_layers()
        return self

    def __exit__(self, *exc: Any) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def _install_model(self) -> None:
        import repro.obs
        from repro.device import cpu as cpu_mod
        from repro.device import governors
        from repro.rtc import VideoCall
        from repro.sim import core
        from repro.video import StreamingPlayer
        from repro.web import BrowserEngine

        records = self.records
        by_layer = self.by_layer
        env_init = core.Environment.__dict__["__init__"]
        schedule = core.Environment.__dict__["schedule"]
        step_code = core.Environment.__dict__["step"].__code__
        layer_of: Dict[str, str] = {}

        def init(env, *args, **kwargs):
            env_init(env, *args, **kwargs)
            _, metrics = repro.obs.install(env)
            env._perfbench = _EnvRecord(metrics)
            records.append(env._perfbench)

        def traced_schedule(env, *args, **kwargs):
            frame = sys._getframe(1)
            module = "repro.sim"
            while frame is not None:
                name = frame.f_globals.get("__name__", "")
                if not _matches(name, "repro.sim"):
                    module = name
                    break
                if frame.f_code is step_code:
                    break  # the kernel's dispatch loop: process resumption
                frame = frame.f_back
            layer = layer_of.get(module)
            if layer is None:
                layer = layer_of[module] = event_layer(module)
            by_layer[layer] += 1
            env._perfbench.events += 1
            return schedule(env, *args, **kwargs)

        self._swap(core.Environment, "__init__", init)
        self._swap(core.Environment, "schedule", traced_schedule)

        for cls, kind in ((BrowserEngine, "web"), (StreamingPlayer, "video"),
                          (VideoCall, "rtc")):
            self._swap(cls, "__init__", self._tag(cls.__dict__["__init__"],
                                                  kind))

        for method in ("submit", "run"):
            self._swap(cpu_mod.CPU, method,
                       self._count_cpu(cpu_mod.CPU.__dict__[method]))
        cluster_init = cpu_mod.Cluster.__dict__["__init__"]

        def cluster(self_, env, *args, **kwargs):
            cluster_init(self_, env, *args, **kwargs)
            self_.add_observer(env._perfbench.on_transition)
        self._swap(cpu_mod.Cluster, "__init__", cluster)

        for cls in vars(governors).values():
            if (isinstance(cls, type) and issubclass(cls, governors.Governor)
                    and "on_sample" in cls.__dict__):
                self._swap(cls, "on_sample",
                           self._count_sample(cls.__dict__["on_sample"]))

    @staticmethod
    def _tag(original: Callable, kind: str) -> Callable:
        def init(self_, env, *args, **kwargs):
            original(self_, env, *args, **kwargs)
            env._perfbench.kind = kind
        return init

    @staticmethod
    def _count_cpu(original: Callable) -> Callable:
        def counted(self_, *args, **kwargs):
            self_.env._perfbench.cpu_tasks += 1
            return original(self_, *args, **kwargs)
        return counted

    @staticmethod
    def _count_sample(original: Callable) -> Callable:
        def counted(self_, *args, **kwargs):
            self_.env._perfbench.samples += 1
            return original(self_, *args, **kwargs)
        return counted

    def _install_layers(self) -> None:
        from repro import cache, parallel
        from repro.cache import store
        from repro.population import aggregate, config, fleet, report
        from repro.workloads import pages

        timings = self.timings
        self._swap_everywhere(pages.generate_corpus, self._timed(
            "workloads.corpus", pages.generate_corpus))
        self._swap_everywhere(report.render_text, self._timed(
            "population.report.render", report.render_text))
        run_session = fleet.run_session

        def session(config_, corpus, spec):
            start = time.perf_counter()
            result = run_session(config_, corpus, spec)
            timings["session." + spec.workload].append(
                time.perf_counter() - start)
            return result
        self._swap_everywhere(run_session, session)

        for owner, name, key in (
                (config.SessionSampler, "sample", "population.sample"),
                (aggregate.FleetAggregator, "observe",
                 "population.aggregate.observe"),
                (aggregate.FleetAggregator, "snapshot",
                 "population.aggregate.snapshot"),
                (store.TrialKeyer, "key", "cache.key"),
                (store.TrialCache, "get", "cache.get"),
                (store.TrialCache, "put", "cache.put")):
            self._swap(owner, name, self._timed(key, owner.__dict__[name]))
        self._swap_everywhere(cache.code_fingerprint, self._timed(
            "cache.fingerprint", cache.code_fingerprint))
        self._swap_everywhere(cache.decode_result, self._timed(
            "cache.decode", cache.decode_result))

        trials = timings["studies.trial"]
        cached_map = cache.cached_map

        def traced_map(executor, task, items, **kwargs):
            return cached_map(executor, _TimedTask(task, trials), items,
                              **kwargs)
        self._swap_everywhere(cached_map, traced_map)

        for cls in (parallel.SerialExecutor, parallel.MultiprocessExecutor,
                    parallel.SupervisedExecutor):
            self._swap(cls, "run_tasks",
                       self._capture_tasks(cls.__dict__["run_tasks"]))

    def _capture_tasks(self, original: Callable) -> Callable:
        timings = self.timings
        task_bytes = self.task_bytes

        def run_tasks(executor, fn, items):
            task = getattr(fn, "perfbench_inner", fn)
            start = time.perf_counter()
            blob = pickle.dumps(task, protocol=pickle.HIGHEST_PROTOCOL)
            pickle.loads(blob)
            timings["parallel.task_pickle"].append(
                time.perf_counter() - start)
            task_bytes.append(len(blob))
            start = time.perf_counter()
            first = True
            for pair in original(executor, fn, items):
                if first:
                    timings["parallel.first_result"].append(
                        time.perf_counter() - start)
                    first = False
                yield pair
        return run_tasks

    # -- results -----------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        """Every per-layer metric this collector can see (0 when unseen)."""
        from repro.analysis.stats import percentile

        out: Dict[str, float] = {}
        records = self.records
        sessions = len(records) or 1
        by_kind = {kind: [r for r in records if r.kind == kind]
                   for kind in SESSION_KINDS}
        for kind, group in by_kind.items():
            out[f"sim.events_per_session.{kind}"] = (
                sum(r.events for r in group) / len(group) if group else 0.0)
        for layer in EVENT_LAYERS + ("other",):
            out[f"sim.events_by_layer.{layer}"] = (
                self.by_layer[layer] / sessions)
        out["sim.steps"] = sum(r.counter("sim.steps") for r in records)
        out["device.cpu.tasks_per_session"] = (
            sum(r.cpu_tasks for r in records) / sessions)
        out["device.cluster.transitions_per_session"] = (
            sum(r.transitions for r in records) / sessions)
        out["device.governors.samples_per_session"] = (
            sum(r.samples for r in records) / sessions)
        out["net.link.transfers_per_session"] = sum(
            r.counter("net.link.transfers") for r in records) / sessions
        out["net.tcp.rounds_per_session"] = sum(
            r.counter("net.tcp.rounds") for r in records) / sessions
        for kind in SESSION_KINDS:
            times = self.timings["session." + kind]
            out[f"population.session_ms_p50.{kind}"] = (
                percentile(times, 50) * 1e3)
            out[f"population.session_ms_p95.{kind}"] = (
                percentile(times, 95) * 1e3)
            out[f"population.session_n.{kind}"] = len(times)

        def p50(key: str, scale: float) -> float:
            return percentile(self.timings[key], 50) * scale

        out["population.sample_us"] = p50("population.sample", 1e6)
        out["population.aggregate.observe_us"] = p50(
            "population.aggregate.observe", 1e6)
        out["population.aggregate.snapshot_ms"] = p50(
            "population.aggregate.snapshot", 1e3)
        out["population.report.render_ms"] = p50(
            "population.report.render", 1e3)
        out["workloads.corpus_s"] = sum(self.timings["workloads.corpus"], 0.0)
        out["parallel.task_bytes"] = percentile(self.task_bytes, 50)
        out["parallel.task_pickle_ms"] = p50("parallel.task_pickle", 1e3)
        first = self.timings["parallel.first_result"]
        out["parallel.first_result_s"] = first[0] if first else 0.0
        out["cache.fingerprint_s"] = sum(self.timings["cache.fingerprint"],
                                         0.0)
        out["cache.key_ms"] = p50("cache.key", 1e3)
        out["cache.get_ms"] = p50("cache.get", 1e3)
        out["cache.decode_ms"] = p50("cache.decode", 1e3)
        out["cache.put_ms"] = p50("cache.put", 1e3)
        trials = self.timings["studies.trial"]
        out["studies.trial_ms_p50"] = percentile(trials, 50) * 1e3
        out["studies.trial_ms_p95"] = percentile(trials, 95) * 1e3
        out["studies.trial_n"] = len(trials)
        return out


def self_shares(profile: "cProfile.Profile | None") -> Dict[str, float]:
    """Share of profiled self time spent in each ``SHARE_GROUPS`` entry."""
    if profile is None:
        return {f"{group}.self_share": 0.0 for group in SHARE_GROUPS}
    import repro

    root = Path(repro.__file__).resolve().parent
    by_module: Dict[str, float] = defaultdict(float)
    total = 0.0
    for (filename, _, _), row in pstats.Stats(profile).stats.items():
        own = row[2]
        total += own
        try:
            relative = Path(filename).resolve().relative_to(root)
        except ValueError:
            continue
        by_module[".".join(relative.with_suffix("").parts)] += own
    shares = {}
    for group in SHARE_GROUPS:
        own = sum(t for name, t in by_module.items() if _matches(name, group))
        shares[f"{group}.self_share"] = own / total if total else 0.0
    return shares

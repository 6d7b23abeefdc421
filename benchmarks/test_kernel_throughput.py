"""Simulation kernel throughput on a seeded serial fleet.

Runs the 30 sessions of fleet ``population@300`` one by one through
``run_session`` (the serial fleet's own code path), timing each, and
records two series in the perf trajectory:

* ``sim.kernel.events_per_s`` — kernel events processed per host second
  over all sessions (unit ``1/s``, higher is better);
* ``population.session_ms.<workload>`` — mean host milliseconds per
  session of each workload (unit ``ms``, lower is better).

The event total is deterministic and asserted exactly: a host-side speedup
that changes it has changed the simulation, not just its cost.  Corpus
generation happens before the timed region.
"""

from __future__ import annotations

import os
import time

from repro.population import FleetRunner, PopulationConfig, SessionSampler
from repro.population import fleet
from repro.sim import Environment

CONFIG = PopulationConfig(seed=300, sessions=30)
CORES = os.cpu_count() or 1
#: Kernel events of the 30 sessions (15 web, 10 video, 5 RTC).
PINNED_EVENTS = 160214
PINNED_BY_WORKLOAD = {"web": 57343, "video": 67142, "rtc": 35729}


def test_kernel_throughput(fig_printer, perf_track, monkeypatch):
    envs: list = []

    class CountingEnvironment(Environment):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            envs.append(self)

    monkeypatch.setattr(fleet, "Environment", CountingEnvironment)
    corpus = FleetRunner(CONFIG).corpus
    sampler = SessionSampler(CONFIG)
    seconds: dict = {}
    events: dict = {}
    for index in range(CONFIG.sessions):
        spec = sampler.sample(index)
        start = time.perf_counter()  # simlint: disable=DET001
        result = fleet.run_session(CONFIG, corpus, spec)
        elapsed = time.perf_counter() - start  # simlint: disable=DET001
        assert result.ok, result.error
        seconds.setdefault(spec.workload, []).append(elapsed)
        events[spec.workload] = (events.get(spec.workload, 0)
                                 + envs[-1].steps_processed)

    total_events = sum(events.values())
    total_s = sum(sum(times) for times in seconds.values())
    events_per_s = total_events / total_s
    perf_track("sim.kernel.events_per_s", events_per_s, unit="1/s",
               cores=CORES, jobs=1, sessions=CONFIG.sessions,
               events=total_events)
    lines = [f"sessions          {CONFIG.sessions} (seed {CONFIG.seed}, serial)",
             f"host cores        {CORES}",
             f"kernel events     {total_events}",
             f"events/s          {events_per_s:10.0f}"]
    for workload in sorted(seconds):
        times = seconds[workload]
        session_ms = 1000.0 * sum(times) / len(times)
        perf_track(f"population.session_ms.{workload}", session_ms,
                   unit="ms", cores=CORES, jobs=1, sessions=len(times))
        lines.append(f"{workload:<6} ms/session  {session_ms:8.1f} "
                     f"({len(times)} sessions)")
    fig_printer("Simulation kernel throughput", "\n".join(lines))

    assert events == PINNED_BY_WORKLOAD
    assert total_events == PINNED_EVENTS

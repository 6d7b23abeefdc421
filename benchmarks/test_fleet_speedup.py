"""Population fleet at ``--jobs 1`` vs ``--jobs N``: throughput + identity.

Runs one seeded default-market fleet serially and on a supervised
N-worker pool, records both rates in the perf trajectory as
``population.sessions_per_s.jobs1`` and ``population.sessions_per_s.jobsN``
(unit ``1/s``, so ``repro perf check`` treats them as higher-is-better),
and asserts that the two aggregate JSONs are byte-identical: the worker
count must be invisible in the output.  Corpus generation happens when
the runner is built and stays outside the timed region.

The speed-up floor matches ``test_parallel_speedup.py``: about 60 %
parallel efficiency on the cores the pool can use (1.2x on 2 cores).
"""

from __future__ import annotations

import os
import time

from repro.parallel import get_executor
from repro.population import FleetRunner, PopulationConfig

SESSIONS = 100
SEED = 11
CORES = os.cpu_count() or 1
JOBS = max(2, min(4, CORES))


def run_fleet(jobs: int) -> tuple:
    runner = FleetRunner(PopulationConfig(sessions=SESSIONS, seed=SEED),
                         executor=get_executor(jobs))
    start = time.perf_counter()  # simlint: disable=DET001
    report = runner.run()
    elapsed = time.perf_counter() - start  # simlint: disable=DET001
    assert report.sessions == SESSIONS
    assert report.quarantined == 0
    return SESSIONS / elapsed, report.to_json()


def test_fleet_speedup(fig_printer, perf_track):
    serial_rate, serial_json = run_fleet(1)
    pooled_rate, pooled_json = run_fleet(JOBS)
    speedup = pooled_rate / serial_rate

    perf_track("population.sessions_per_s.jobs1", serial_rate, unit="1/s",
               cores=CORES, jobs=1, sessions=SESSIONS)
    perf_track("population.sessions_per_s.jobsN", pooled_rate, unit="1/s",
               cores=CORES, jobs=JOBS, sessions=SESSIONS)
    body = "\n".join([
        f"sessions          {SESSIONS} (seed {SEED})",
        f"host cores        {CORES}",
        f"--jobs 1          {serial_rate:8.1f} sessions/s",
        f"--jobs {JOBS}          {pooled_rate:8.1f} sessions/s",
        f"speedup           {speedup:8.2f}x",
    ])
    fig_printer("Population fleet: serial vs supervised pool", body)

    assert serial_json == pooled_json

    usable = min(JOBS, CORES)
    if usable > 1:
        assert speedup > 0.6 * usable

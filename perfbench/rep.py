"""One timed repetition in a fresh interpreter (started by ``run.py``).

Usage: ``python perfbench/rep.py '<json spec>'``.  The spec names the
pass (``fleet`` or ``figures``), its inputs, the parent's monotonic
clock reading just before it started this process (``spawned``), and
whether to run under the collector or the profiler (``trace``).  The
last line of standard output is one JSON object: set-up and batch
seconds, peak resident memory, and the pass result from ``passes.py``;
traced repetitions add ``layers``, their per-layer metrics.

Set-up runs from ``spawned`` to the pass's ``ready`` stamp: interpreter
start, imports and, for the fleet, corpus generation.  ``CLOCK_MONOTONIC``
is shared by every process on the host, so the parent's stamp and the
child's are comparable.
"""

from __future__ import annotations

import json
import multiprocessing
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import passes  # noqa: E402  (needs the path set above)


def _peak_rss_mb(workers: int) -> float:
    """Driver peak plus ``workers`` times the largest worker peak.

    Workers are joined first so the kernel has folded their peaks into
    ``RUSAGE_CHILDREN``; the sum of peaks bounds the peak of the sum.
    """
    for child in multiprocessing.active_children():
        child.join(timeout=30)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    worker = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + (workers * worker if worker else 0)) / 1024.0


def _run(spec: dict) -> dict:
    if spec["kind"] == "figures":
        return passes.figures_pass()
    return passes.fleet_pass(spec["seed"], spec["sessions"], spec["jobs"],
                             spec.get("cache"))


def _collected(spec: dict) -> dict:
    """The pass under the collector; adds its per-layer ``layers``."""
    import collector

    layers: dict = {}
    if spec.get("fill"):
        # Time the cold fill's writes, then forget the memoized
        # fingerprint so the warm pass pays for it like a re-run.
        from repro.cache import clear_caches

        with collector.Collector(model=False) as fill:
            passes.fleet_pass(spec["seed"], spec["sessions"], spec["fill"],
                              spec["cache"])
        clear_caches()
        layers["cache.put_ms"] = fill.metrics()["cache.put_ms"]
    in_process = spec["kind"] == "figures" or spec["jobs"] == 1
    with collector.Collector(model=in_process) as col:
        result = _run(spec)
    result["layers"] = {**col.metrics(), **layers}
    return result


def _profiled(spec: dict) -> dict:
    """The pass under ``cProfile``; adds self-time shares as ``layers``."""
    import cProfile

    import collector

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = _run(spec)
    finally:
        profiler.disable()
    result["layers"] = collector.self_shares(profiler)
    return result


def main(argv: list) -> int:
    spec = json.loads(argv[1])
    mode = spec.get("trace")
    result = (_collected(spec) if mode == "collect"
              else _profiled(spec) if mode == "profile" else _run(spec))
    jobs = 1 if spec["kind"] == "figures" else spec["jobs"]
    result["setup_s"] = result["ready"] - spec["spawned"]
    result["batch_s"] = result["done"] - result["ready"]
    result["peak_rss_mb"] = _peak_rss_mb(jobs)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

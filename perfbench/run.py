"""Benchmark entry point (see ``README.md`` beside this file).

Usage, from the repository root::

    python3 perfbench/run.py --workload fleet-serial --seed 1 \
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics: it runs timed
repetitions, each in a fresh interpreter (``rep.py``), for ``--seconds``
seconds and reports totals and medians over them.  ``--trace 1`` runs
one untraced reference repetition, then the same work under the
collector and, where the model runs in this process, under the profiler,
and reports the per-layer metrics.  Metric names and units come from
``BENCHMARK.json``.  Every run checks the outputs; a failed check prints
``error: ...`` and exits 1 without a result.

The last line of standard output is the result object; the line before
it carries the host metadata and the seeds used.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import collector
from passes import GIONEE, INTEX, PIXEL2

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout (listed in .gitignore).
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("fleet-serial", "fleet-jobs", "figures")
#: Sessions per fleet pass: the population CLI's default market at a
#: size where one pass takes a few seconds on one core.
SESSIONS = 100
#: A seed no measurement in README.md used; re-check claims on it.
HELD_OUT_SEED = 9973
#: Every run ends well inside the 180 s the harness allows.
RUN_DEADLINE_S = 170.0


class BenchError(Exception):
    """A repetition failed or an output check did not hold."""


def fleet_seed(seed: int, rep: int) -> int:
    """Fleet seed of repetition ``rep``: each repetition draws a new fleet.

    Averaging over the fleets of a whole run keeps one draw of apps and
    phones from setting the run's cost.
    """
    return seed * 100 + rep


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def host_info() -> dict:
    model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": nproc(), "python": platform.python_version(),
            "cpu_model": model}


def source_digest() -> str:
    """Digest of every source file under ``src/repro``."""
    sha = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        sha.update(path.relative_to(SRC).as_posix().encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()


class Runner:
    """Starts repetitions and keeps every one inside the run's deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        # rep.py puts src/ first on its own path; only the cache switch
        # of the population CLI must not leak in from the caller.
        self.env = {k: v for k, v in os.environ.items() if k != "REPRO_CACHE"}

    def spawn(self, spec: dict) -> dict:
        """Run one repetition; returns its result with its whole ``wall_s``."""
        spawned = time.monotonic()
        timeout = self.deadline - spawned
        if timeout <= 0:
            raise BenchError("out of time before a repetition could start")
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "rep.py"),
             json.dumps(dict(spec, spawned=spawned))],
            cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=timeout)
        except BaseException as error:
            # Overran the deadline, or this process is being stopped: take
            # the repetition's whole process group down and reap it.
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            if isinstance(error, subprocess.TimeoutExpired):
                raise BenchError(f"repetition {spec} overran the deadline")
            raise
        wall = time.monotonic() - spawned
        if proc.returncode != 0 or not out.strip():
            tail = err.strip().splitlines()[-5:]
            raise BenchError(f"repetition {spec} exited {proc.returncode}: "
                             + " | ".join(tail))
        result = json.loads(out.strip().splitlines()[-1])
        result["wall_s"] = wall
        return result


# -- output checks ------------------------------------------------------------


def check(condition: bool, message: str) -> None:
    if not condition:
        raise BenchError(f"output check failed: {message}")


def check_same(results: list, what: str) -> None:
    digests = {r["digest"] for r in results}
    check(len(digests) == 1,
          f"{what} gave {len(digests)} different outputs for one input")


def check_figures(result: dict) -> None:
    """The figure-shape properties EXPERIMENTS.md reports."""
    shape = result["shape"]
    plt = shape["fig2a_plt"]
    check(plt[INTEX] > plt[GIONEE] > plt[PIXEL2],
          "Fig 2a PLT must order Intex > Gionee > Pixel2")
    check(plt[INTEX] >= 3.0 * plt[PIXEL2],
          "Fig 2a Intex PLT must be at least 3x Pixel2's")
    ladder = shape["fig3a_plt"]
    check([mhz for mhz, _ in ladder] == sorted(mhz for mhz, _ in ladder),
          "Fig 3a ladder must rise in clock")
    check(all(a > b for (_, a), (_, b) in zip(ladder, ladder[1:])),
          "Fig 3a PLT must fall monotonically as the clock rises")
    check(shape["fig7a_eplt_improvement"] > 0,
          "Fig 7a DSP offload must improve ePLT")


class DigestStore:
    """Fleet outputs by (source, fleet seed, sessions), shared across runs.

    The fleet workloads run the same fleets, so any two runs of the same
    source must print byte-identical aggregates whatever the executor
    or cache state.
    """

    def __init__(self):
        self.path = WORK / "fleet-digests.json"
        self.source = source_digest()

    def check(self, seed: int, digest: str) -> None:
        key = f"{self.source}:{seed}:{SESSIONS}"
        try:
            known = json.loads(self.path.read_text())
        except (OSError, ValueError):
            known = {}
        check(known.get(key, digest) == digest,
              f"fleet seed {seed} aggregate differs from an earlier run's")
        known[key] = digest
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, sort_keys=True))
        os.replace(tmp, self.path)


# -- timed runs (--trace 0) ---------------------------------------------------


def repeat(runner: Runner, seconds: float, make_spec) -> list:
    """Closed loop of repetitions for ``seconds``, at least one.

    A repetition starts only if half the mean repetition so far still
    fits, so the measured span ends within about half a repetition of
    ``seconds``.  With ten-second figure sets, stopping when a whole one
    no longer fitted left up to a quarter of the run unmeasured.
    """
    start = time.monotonic()
    results = []
    while True:
        results.append(runner.spawn(make_spec(len(results))))
        elapsed = time.monotonic() - start
        if elapsed + 0.5 * elapsed / len(results) > seconds:
            return results


def completed(result: dict) -> int:
    return result["attempted"] - result["failed"]


def check_fleets(results: list, store: DigestStore) -> None:
    for result in results:
        check(result["attempted"] == SESSIONS,
              f"fleet folded {result['attempted']} of {SESSIONS} sessions")
        store.check(result["seed"], result["digest"])


def timed(workload: str, seed: int, seconds: float,
          runner: Runner) -> tuple:
    """End-to-end metrics of one workload, plus run facts for the log."""
    jobs = nproc() if workload == "fleet-jobs" else 1
    if workload == "figures":
        reps = repeat(runner, seconds, lambda r: {"kind": "figures"})
        for result in reps:
            check_figures(result)
        check_same(reps, "the figure set")
    else:
        reps = repeat(runner, seconds, lambda r: {
            "kind": "fleet", "seed": fleet_seed(seed, r),
            "sessions": SESSIONS, "jobs": jobs})
        check_fleets(reps, DigestStore())
    # Medians over the run's repetitions: the host's speed comes in bursts
    # and phases, and a median ignores the repetitions a burst slowed.
    metrics = {
        "sessions_per_s": statistics.median(completed(r) / r["batch_s"]
                                            for r in reps),
        "batch_s": statistics.median(r["batch_s"] for r in reps),
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    facts = {"jobs": jobs, "repetitions": len(reps),
             "fleet_seeds": sorted({r["seed"] for r in reps if "seed" in r})}
    return metrics, reps, facts


# -- traced runs (--trace 1) --------------------------------------------------

#: Run-level per-layer metrics that only some workloads produce.
UNREACHED_DEFAULTS = (
    "parallel.speedup", "parallel.speedup.serial_sessions_per_s",
    "parallel.speedup.jobs_sessions_per_s", "parallel.retries",
    "parallel.pool_rebuilds", "parallel.quarantined", "cache.hit_ratio",
    "cache.entry_bytes", "studies.fig2_s", "studies.fig3a_s",
    "studies.fig7_s", "model.web.plt_s_mean", "model.video.startup_s_mean",
    "model.video.stall_ratio_mean", "model.rtc.frame_rate_mean",
    "model.fig2a.intex_over_pixel2", "model.fig7a.eplt_improvement")


def cache_layers(runner: Runner, base: dict, workdir: Path) -> tuple:
    """The cache layer, timed on a cold fill and a warm re-run of ``base``.

    One collected repetition fills a fresh cache, forgets the memoized
    fingerprint, and replays the fleet from the cache, as a user's second
    ``--cache`` invocation would.
    """
    warm = runner.spawn(dict(base, trace="collect", fill=base["jobs"],
                             cache=str(workdir / "cache")))
    info = warm["cache"]
    check(info["hits"] == SESSIONS, "a warm re-run must replay every session")
    layers = {name: value for name, value in warm["layers"].items()
              if name.startswith("cache.")}
    layers["cache.hit_ratio"] = info["hits"] / info["lookups"]
    layers["cache.entry_bytes"] = info["bytes"] / info["entries"]
    return layers, warm


def traced(workload: str, seed: int, runner: Runner, workdir: Path) -> tuple:
    """Per-layer metrics of one workload, plus run facts for the log."""
    jobs = nproc() if workload == "fleet-jobs" else 1
    if workload == "figures":
        base = {"kind": "figures"}
    else:
        base = {"kind": "fleet", "seed": fleet_seed(seed, 0),
                "sessions": SESSIONS, "jobs": jobs}
    extra = {}
    ref = runner.spawn(base)
    col = runner.spawn(dict(base, trace="collect"))
    outputs = [ref, col]
    prof = None
    if workload == "fleet-jobs":
        serial = runner.spawn(dict(base, jobs=1))
        outputs.append(serial)
        serial_rate = completed(serial) / serial["batch_s"]
        jobs_rate = completed(ref) / ref["batch_s"]
        extra["parallel.speedup"] = jobs_rate / serial_rate
        extra["parallel.speedup.serial_sessions_per_s"] = serial_rate
        extra["parallel.speedup.jobs_sessions_per_s"] = jobs_rate
    else:
        prof = runner.spawn(dict(base, trace="profile"))
        outputs.append(prof)
    if workload == "fleet-serial":
        cache, warm = cache_layers(runner, base, workdir)
        extra.update(cache)
        outputs.append(warm)
    check_same(outputs, "traced, profiled, cached and untraced passes")
    if workload == "figures":
        for result in outputs:
            check_figures(result)
        for name, seconds in ref["figure_s"].items():
            extra[f"studies.{name}_s"] = seconds
    else:
        check_fleets(outputs, DigestStore())
        for name, value in ref["supervision"].items():
            extra[f"parallel.{name}"] = value
    # A layer this workload never reaches reports 0 (no work done).
    layers = dict.fromkeys(UNREACHED_DEFAULTS, 0.0)
    layers.update(collector.self_shares(None))
    layers.update(col["layers"])
    layers.update(prof["layers"] if prof else {})
    layers.update(ref["model"])
    layers.update(extra)
    layers["sim.host_events_per_s"] = layers.pop("sim.steps") / ref["batch_s"]
    layers["trace.overhead"] = col["batch_s"] / ref["batch_s"]
    layers["trace.profile_overhead"] = (prof["batch_s"] / ref["batch_s"]
                                        if prof else 0.0)
    layers["failed_share"] = ref["failed"] / ref["attempted"]
    facts = {"jobs": jobs, "repetitions": len(outputs),
             "fleet_seeds": [base["seed"]] if "seed" in base else []}
    return layers, [ref], facts


# -- entry point --------------------------------------------------------------


def parse(argv: list) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="python3 perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error(f"--seed cannot be negative (got {args.seed})")
    if args.seconds < 1:
        parser.error(f"--seconds must be at least 1 (got {args.seconds})")
    return args


def declared(trace: int) -> list:
    """(name, unit) of every metric BENCHMARK.json lists for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv: list) -> int:
    args = parse(argv)
    # SIGTERM unwinds like an interrupt, so repetitions are reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    start = time.monotonic()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    names = declared(args.trace)
    load_before = os.getloadavg()[0]
    # Byte-compile up front: a user's second invocation never pays it.
    compileall.compile_dir(str(SRC / "repro"), quiet=1)
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    runner = Runner(start + RUN_DEADLINE_S)
    try:
        if args.trace:
            values, reps, facts = traced(args.workload, args.seed, runner,
                                         workdir)
        else:
            values, reps, facts = timed(args.workload, args.seed,
                                        args.seconds, runner)
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    missing = [name for name, _ in names if name not in values]
    if missing:
        print(f"error: no value measured for {missing}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in names}
    for name, entry in metrics.items():
        print(f"{name:48s} {entry['value']:.6g} {entry['unit']}")
    meta = dict(host_info(), workload=args.workload, seed=args.seed,
                held_out_seed=HELD_OUT_SEED, trace=args.trace,
                load_1m_before=load_before,
                load_1m_after=os.getloadavg()[0], **facts)
    print(json.dumps({"run": meta}, sort_keys=True))
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

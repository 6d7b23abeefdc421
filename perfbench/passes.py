"""The two kinds of work the benchmark times: a fleet pass and a figure set.

Both are written against the public API, the way ``python -m repro
population`` and ``python -m repro fig2|fig3a|fig7`` drive it, and both
look their callees up through module attributes at call time so the
traced run's wrappers (``collector.py``) see every call.

Each pass returns a plain dict: ``ready`` and ``done`` monotonic stamps
(set-up ends at ``ready``; the timed work runs from ``ready`` to
``done``), the canonical output bytes' digest, the counts of attempted
and failed work, and the model outputs the checks and the ``model.*``
metrics read.
"""

from __future__ import annotations

import hashlib
import time

#: CLI defaults of the figure commands (``python -m repro fig2`` etc.).
FIG_PAGES = 5
FIG_TRIALS = 1
FIG_MEDIA_S = 60.0
#: Intex and Pixel2 are Table 1's slowest and fastest phones (Fig 2a).
INTEX = "Intex Amaze+"
GIONEE = "Gionee F103"
PIXEL2 = "Google Pixel2"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def fleet_pass(seed: int, sessions: int, jobs: int, cache_dir=None) -> dict:
    """One ``repro population`` run; returns timings, digest and outputs."""
    from repro.cache import TrialCache
    from repro.parallel import get_executor
    from repro.population import fleet, report
    from repro.population.aggregate import ALL_TIER
    from repro.population.config import PopulationConfig

    cache = TrialCache(cache_dir) if cache_dir else None
    executor = get_executor(jobs)
    config = PopulationConfig(sessions=sessions, seed=seed)
    runner = fleet.FleetRunner(config, executor=executor, cache=cache)
    ready = time.monotonic()
    result = runner.run()
    text = report.render_text(result)
    canonical = result.to_json()
    done = time.monotonic()

    series = result.aggregate["series"]

    def mean(workload: str, metric: str) -> float:
        entry = series.get(workload, {}).get(metric, {}).get(ALL_TIER)
        return entry["mean"] if entry else 0.0

    totals = getattr(executor, "supervision_totals", None)
    return {
        "ready": ready,
        "done": done,
        "seed": seed,
        "digest": digest(canonical),
        "report_bytes": len(text),
        "attempted": result.sessions,
        # Quarantined sessions are folded as failures, so this counts both.
        "failed": sum(result.failures.values()),
        "supervision": {
            "retries": totals.task_retries if totals else 0,
            "pool_rebuilds": totals.pool_rebuilds if totals else 0,
            "quarantined": len(totals.quarantined) if totals else 0,
        },
        "cache": ({"hits": cache.stats.hits, "lookups": cache.stats.lookups,
                   "entries": cache.entry_count(),
                   "bytes": cache.total_bytes()} if cache else None),
        "model": {
            "model.web.plt_s_mean": mean("web", "plt_s"),
            "model.video.startup_s_mean": mean("video", "startup_s"),
            "model.video.stall_ratio_mean": mean("video", "stall_ratio"),
            "model.rtc.frame_rate_mean": mean("rtc", "frame_rate_fps"),
        },
    }


def _expected(summary, n: int) -> tuple:
    """(attempted, failed) of one summary that should hold ``n`` samples."""
    return n, n - summary.n


def figures_pass() -> dict:
    """Fig 2, Fig 3a and Fig 7 at CLI default scale, rendered as tables."""
    from repro.analysis import render_table
    from repro.analysis.stats import median
    from repro.core import studies
    from repro.device import NEXUS4_LADDER
    from repro.rtc import CallConfig
    from repro.video import VideoSpec

    ready = time.monotonic()
    stamps = {}
    tables = []
    counts = []

    # Fig 2: three apps across the seven Table 1 phones (ondemand).
    web = studies.WebStudy(studies.WebStudyConfig(n_pages=FIG_PAGES,
                                                  trials=FIG_TRIALS))
    video = studies.VideoStudy(studies.VideoStudyConfig(
        clip=VideoSpec(duration_s=FIG_MEDIA_S), trials=FIG_TRIALS))
    rtc = studies.RtcStudy(studies.RtcStudyConfig(
        call=CallConfig(call_duration_s=min(FIG_MEDIA_S, 20)),
        trials=FIG_TRIALS))
    web_rows = {s.name: v for s, v in web.qoe_across_devices()}
    video_rows = {p.label: p for p in video.qoe_across_devices()}
    rtc_rows = {p.label: p for p in rtc.qoe_across_devices()}
    tables.append(render_table(
        ["device", "plt_s", "plt_std", "startup_s", "stall_ratio", "fps"],
        [[name, f"{web_rows[name].mean:.2f}", f"{web_rows[name].stdev:.2f}",
          f"{video_rows[name].startup.mean:.2f}",
          f"{video_rows[name].stall_ratio.mean:.3f}",
          f"{rtc_rows[name].frame_rate.mean:.1f}"] for name in web_rows]))
    for name in web_rows:
        counts.append(_expected(web_rows[name], FIG_PAGES * FIG_TRIALS))
        counts.append(_expected(video_rows[name].startup, FIG_TRIALS))
        counts.append(_expected(rtc_rows[name].frame_rate, FIG_TRIALS))
    stamps["fig2"] = time.monotonic()

    # Fig 3a: the Nexus 4 pinned-clock ladder (userspace governor).
    clock = studies.WebStudy(studies.WebStudyConfig(n_pages=FIG_PAGES,
                                                    trials=FIG_TRIALS))
    points = clock.plt_vs_clock(ladder=NEXUS4_LADDER)
    tables.append(render_table(
        ["clock_mhz", "plt_s", "plt_std", "cp_compute_s", "cp_network_s",
         "scripting_share"],
        [[p.clock_mhz, f"{p.plt.mean:.2f}", f"{p.plt.stdev:.2f}",
          f"{p.compute_time.mean:.2f}", f"{p.network_time.mean:.2f}",
          f"{p.scripting_share:.3f}"] for p in points]))
    counts.extend(_expected(p.plt, FIG_PAGES * FIG_TRIALS) for p in points)
    stamps["fig3a"] = time.monotonic()

    # Fig 7: DSP regex offload (7a default governor, 7b power, 7c clocks).
    offload = studies.OffloadStudy(studies.OffloadStudyConfig(
        n_pages=FIG_PAGES, trials=FIG_TRIALS))
    cmp = offload.compare_default_governor()
    cpu_w, dsp_w = offload.power_distributions()
    eplt_points = offload.eplt_vs_clock()
    tables.append(render_table(
        ["executor", "scripting_s", "eplt_s"],
        [["CPU", f"{cmp.cpu_scripting.mean:.2f}", f"{cmp.cpu_eplt.mean:.2f}"],
         ["DSP", f"{cmp.dsp_scripting.mean:.2f}",
          f"{cmp.dsp_eplt.mean:.2f}"]]))
    tables.append(f"ePLT improvement: {cmp.eplt_improvement:.1%}\n"
                  f"median power CPU {median(cpu_w):.2f} W, "
                  f"DSP {median(dsp_w):.2f} W")
    tables.append(render_table(
        ["clock_mhz", "cpu_eplt_s", "dsp_eplt_s", "win"],
        [[p.clock_mhz, f"{p.cpu_eplt.mean:.2f}", f"{p.dsp_eplt.mean:.2f}",
          f"{p.improvement:.1%}"] for p in eplt_points]))
    per_point = FIG_PAGES * FIG_TRIALS
    counts.append(_expected(cmp.cpu_eplt, per_point))
    counts.append(_expected(cmp.dsp_eplt, per_point))
    for p in eplt_points:
        counts.append(_expected(p.cpu_eplt, per_point))
        counts.append(_expected(p.dsp_eplt, per_point))
    done = time.monotonic()
    stamps["fig7"] = done

    text = "\n\n".join(tables) + "\n"
    return {
        "ready": ready,
        "done": done,
        "digest": digest(text),
        "attempted": sum(a for a, _ in counts),
        # A quarantined trial drops out of its summary's n.
        "failed": sum(f for _, f in counts),
        "figure_s": {
            "fig2": stamps["fig2"] - ready,
            "fig3a": stamps["fig3a"] - stamps["fig2"],
            "fig7": stamps["fig7"] - stamps["fig3a"],
        },
        "shape": {
            "fig2a_plt": {name: s.mean for name, s in web_rows.items()},
            "fig3a_plt": [[p.clock_mhz, p.plt.mean] for p in points],
            "fig7a_eplt_improvement": cmp.eplt_improvement,
        },
        "model": {
            "model.fig2a.intex_over_pixel2": (web_rows[INTEX].mean
                                              / web_rows[PIXEL2].mean),
            "model.fig7a.eplt_improvement": cmp.eplt_improvement,
        },
    }

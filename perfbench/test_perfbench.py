"""The benchmark's deterministic half: counts and outputs repeat exactly.

Run with ``python -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import collector
import passes
import run
from repro.population import fleet as fleet_module
from repro.population.config import PopulationConfig, SessionSampler
from repro.sim import Environment

#: Per-layer counts that must not depend on the host.
COUNTED = ("sim.events_per_session.", "sim.events_by_layer.", "sim.steps",
           "device.cpu.tasks_per_session",
           "device.cluster.transitions_per_session",
           "device.governors.samples_per_session",
           "net.link.transfers_per_session", "net.tcp.rounds_per_session",
           "population.session_n.")
SEED = run.fleet_seed(1, 0)


def counts(metrics: dict) -> dict:
    return {name: value for name, value in metrics.items()
            if name.startswith(COUNTED)}


@pytest.fixture(scope="module")
def fleet():
    """A small fleet with one session index per app kind."""
    config = PopulationConfig(sessions=30, seed=SEED)
    runner = fleet_module.FleetRunner(config)
    sampler = SessionSampler(config)
    first = {}
    for index in range(config.sessions):
        first.setdefault(sampler.sample(index).workload, index)
    assert sorted(first) == ["rtc", "video", "web"]
    return config, runner.corpus, {kind: sampler.sample(index)
                                   for kind, index in first.items()}


@pytest.mark.parametrize("kind", ["web", "video", "rtc"])
def test_one_session_counts_and_outputs_repeat(fleet, kind):
    config, corpus, specs = fleet
    plain = fleet_module.run_session(config, corpus, specs[kind])
    seen = []
    for _ in range(2):
        with collector.Collector() as col:
            # Through the module attribute, which the collector wraps.
            result = fleet_module.run_session(config, corpus, specs[kind])
        assert result == plain  # tracing must not perturb the model
        seen.append(counts(col.metrics()))
    assert seen[0] == seen[1]
    assert seen[0][f"sim.events_per_session.{kind}"] > 0
    assert seen[0][f"population.session_n.{kind}"] == 1
    layers = sum(value for name, value in seen[0].items()
                 if name.startswith("sim.events_by_layer."))
    assert layers == seen[0][f"sim.events_per_session.{kind}"]


def test_fleet_aggregate_digest_repeats_traced_or_not():
    first = passes.fleet_pass(SEED, 6, 1)
    with collector.Collector() as col:
        traced = passes.fleet_pass(SEED, 6, 1)
    assert traced["digest"] == first["digest"]
    assert traced["model"] == first["model"]
    assert passes.fleet_pass(SEED, 6, 1)["digest"] == first["digest"]
    assert col.metrics()["population.session_n.web"] > 0


def test_collector_restores_every_original():
    schedule = Environment.__dict__["schedule"]
    run_session = fleet_module.run_session
    with collector.Collector():
        assert Environment.__dict__["schedule"] is not schedule
        assert fleet_module.run_session is not run_session
    assert Environment.__dict__["schedule"] is schedule
    assert fleet_module.run_session is run_session


def test_event_layers():
    assert collector.event_layer("repro.device.cpu") == "device.cpu"
    assert collector.event_layer("repro.netstack.tcp") == "netstack"
    assert collector.event_layer("repro.sim.resources") == "sim"
    assert collector.event_layer("repro.population.fleet") == "other"


def test_figure_checks_reject_a_flat_clock_ladder():
    shape = {"fig2a_plt": {passes.INTEX: 9.0, passes.GIONEE: 6.0,
                           passes.PIXEL2: 2.5},
             "fig3a_plt": [[384, 12.0], [702, 7.0], [1512, 4.0]],
             "fig7a_eplt_improvement": 0.1}
    run.check_figures({"shape": shape})
    shape["fig3a_plt"][2][1] = 7.0
    with pytest.raises(run.BenchError):
        run.check_figures({"shape": shape})


def test_fails_without_the_program(tmp_path):
    """Given only BENCHMARK.json and perfbench, the command refuses."""
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "figures",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not Path(tmp_path / ".perfbench_work").exists()

"""Pin the simulated schedule of seeded sessions exactly.

Host-side speedups to the kernel, the CPU model or the energy meter must
leave the simulation itself untouched: the same events in the same order,
hence the same step count, the same QoE floats and the same joules.  The
values below were recorded before those fast paths existed; any change to
one of them means the model changed, not just its cost.

Sessions come from fleet ``population@300``: the first session of each
workload in sampling order.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.device import Device
from repro.population import FleetRunner, PopulationConfig, SessionSampler
from repro.population import fleet
from repro.sim import Environment

FLEET = PopulationConfig(seed=300, sessions=100)

#: workload -> (session index, tier, device, network, steps, QoE reprs, energy_j repr)
PINNED = {
    "web": (0, "legacy", "hist-2013-7", "wifi", 3591,
            {"plt_s": "7.452565915352323"}, "15.08346134554735"),
    "video": (1, "mid", "Google Nexus4", "wifi", 3844,
              {"startup_s": "1.5094973834983696", "stall_ratio": "0.0"},
              "32.194954571880785"),
    "rtc": (10, "low", "Intex Amaze+", "lte", 5668,
            {"setup_delay_s": "16.630266789090413",
             "frame_rate_fps": "18.112808686461626"},
            "29.65990980147553"),
}

#: sha256 of ``FleetRunner(PopulationConfig(seed=300, sessions=20)).run().to_json()``.
FLEET20_SHA256 = (
    "ea5845aa529a83665d89e26aa02edcb5f5362c377342324b4c8c819bb942d34f")


@pytest.fixture(scope="module")
def corpus():
    return FleetRunner(FLEET).corpus


def run_recorded(monkeypatch, spec, corpus):
    """Run one session through ``run_session``; returns (result, env, device)."""
    made: dict = {}

    class RecordingEnvironment(Environment):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made["env"] = self

    class RecordingDevice(Device):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made["device"] = self

    monkeypatch.setattr(fleet, "Environment", RecordingEnvironment)
    monkeypatch.setattr(fleet, "Device", RecordingDevice)
    result = fleet.run_session(FLEET, corpus, spec)
    return result, made["env"], made["device"]


@pytest.mark.parametrize("workload", sorted(PINNED))
def test_seeded_session_schedule_is_pinned(monkeypatch, corpus, workload):
    index, tier, device, network, steps, qoe, energy = PINNED[workload]
    spec = SessionSampler(FLEET).sample(index)
    assert (spec.workload, spec.tier, spec.device.name, spec.network) == (
        workload, tier, device, network)

    result, env, dev = run_recorded(monkeypatch, spec, corpus)

    assert result.ok, result.error
    assert env.steps_processed == steps
    assert {name: repr(value) for name, value in result.metrics.items()} == qoe
    assert repr(dev.energy.energy_j) == energy


def test_fleet_aggregate_json_is_pinned():
    report = FleetRunner(PopulationConfig(seed=300, sessions=20)).run()
    digest = hashlib.sha256(report.to_json().encode()).hexdigest()
    assert digest == FLEET20_SHA256

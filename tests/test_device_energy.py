"""Unit tests for power/energy accounting."""

import pytest

from repro.device import (
    CPU,
    Device,
    EnergyMeter,
    NEXUS4,
    PIXEL2,
    PowerSpec,
    TABLE1_DEVICES,
)
from repro.device.energy import DspPowerSpec
from repro.population.market import legacy_tier_devices
from repro.sim import Environment


def test_voltage_interpolation_bounds():
    power = PowerSpec(v_min=0.6, v_max=1.1)
    assert power.voltage(384, 384, 1512) == pytest.approx(0.6)
    assert power.voltage(1512, 384, 1512) == pytest.approx(1.1)
    mid = power.voltage(948, 384, 1512)
    assert 0.6 < mid < 1.1


def test_dynamic_power_grows_superlinearly_with_clock():
    power = PowerSpec()
    low = power.dynamic_power(384, 384, 1512)
    high = power.dynamic_power(1512, 384, 1512)
    # P ∝ f·V², so quadrupling f more than quadruples power.
    assert high > 4 * low


def test_idle_device_draws_only_static_power():
    env = Environment()
    device = Device(env, NEXUS4, governor="PF")
    env.run(until=10.0)
    expected = 10.0 * 4 * NEXUS4.power.static_w
    assert device.energy.energy_j == pytest.approx(expected, rel=1e-6)


def test_busy_energy_exceeds_idle_energy():
    env = Environment()
    idle = Device(env, NEXUS4, governor="PF")
    env.run(until=1.0)
    idle_j = idle.energy.energy_j

    env2 = Environment()
    busy = Device(env2, NEXUS4, governor="PF")
    busy.submit(1e9)
    env2.run(until=1.0)
    assert busy.energy.energy_j > idle_j


def test_same_work_cheaper_at_low_voltage():
    """Energy for fixed work drops at lower clock (race-to-idle inverse)."""
    joules = {}
    for mhz in (384, 1512):
        env = Environment()
        device = Device(env, NEXUS4, pinned_mhz=mhz)
        task = device.submit(1e9)
        env.run(task.done)
        # Compare dynamic energy only (same wall-clock horizon unfair).
        busy = env.now
        static = device.cpu.online_cores * NEXUS4.power.static_w * busy
        joules[mhz] = device.energy.energy_j - static
    assert joules[384] < joules[1512]


def test_power_now_reflects_busy_cores():
    env = Environment()
    device = Device(env, NEXUS4, governor="PF")
    idle_power = device.energy.power_now
    device.submit(1e12)
    env.run(until=0.1)
    assert device.energy.power_now > idle_power


def test_pixel2_scripting_power_calibration():
    """Sustained single-core work at max clock draws ≈1–1.6 W (Fig 7b)."""
    env = Environment()
    device = Device(env, PIXEL2, governor="PF")
    task = device.submit(5e9)
    env.run(task.done)
    avg_watts = device.energy.energy_j / env.now
    assert 0.8 < avg_watts < 1.8


def test_dsp_power_spec_defaults():
    spec = DspPowerSpec()
    assert spec.active_w < 0.5
    assert spec.idle_w < spec.active_w


@pytest.mark.parametrize("spec", TABLE1_DEVICES + legacy_tier_devices(),
                         ids=lambda spec: spec.name)
def test_power_table_matches_dynamic_power_at_every_step(spec):
    env = Environment()
    device = Device(env, spec, governor="PF")
    table = device.energy._table
    assert list(table) == device.cpu.clusters
    for cluster in device.cpu.clusters:
        ladder = cluster.spec.freqs_mhz
        assert len(table[cluster]) == len(ladder)
        for mhz, entry in zip(ladder, table[cluster]):
            assert entry == spec.power.dynamic_power(
                mhz, cluster.spec.min_mhz, cluster.spec.max_mhz)


def test_meter_matches_a_reference_integral_bit_for_bit():
    """Busy ±1 on two clusters, DVFS steps, a thermal cap and its lift."""
    env = Environment()
    cpu = CPU(env, PIXEL2.clusters)
    power = PIXEL2.power
    meter = EnergyMeter(env, cpu, power)
    little, big = cpu.clusters

    def reference_power():
        return sum(
            cluster.busy_cores * power.dynamic_power(
                cluster.freq_mhz, cluster.spec.min_mhz, cluster.spec.max_mhz)
            + cluster.online_cores * power.static_w
            for cluster in cpu.clusters)

    power_idle = reference_power()
    reference = {"j": 0.0, "w": power_idle, "t": env.now}

    def reference_energy():
        if env.now > reference["t"]:
            reference["j"] += reference["w"] * (env.now - reference["t"])
        reference["t"] = env.now
        return reference["j"]

    def integrate(cluster):
        reference_energy()
        reference["w"] = reference_power()

    for cluster in cpu.clusters:
        cluster.add_observer(integrate)

    script = [
        (0.10, lambda: little.mark_busy(+1)),
        (0.25, lambda: big.mark_busy(+1)),
        (0.40, lambda: big.mark_busy(+1)),
        (0.55, lambda: big.set_freq_index(3)),
        (0.70, lambda: little.set_freq_index(1)),
        (0.85, lambda: cpu.set_thermal_cap_fraction(0.5)),
        (1.00, lambda: big.set_freq_index(len(big.spec.freqs_mhz) - 1)),
        (1.15, lambda: big.mark_busy(-1)),
        (1.30, lambda: cpu.set_thermal_cap_fraction(None)),
        (1.45, lambda: little.mark_busy(-1)),
        (1.60, lambda: big.mark_busy(-1)),
    ]
    capped = None
    for at, action in script:
        env.run(until=at)
        action()
        if at == 1.00:
            capped = big.freq_index
        assert meter.power_now == reference["w"]
        assert meter.energy_j == reference_energy()
    env.run(until=2.0)
    assert meter.energy_j == reference_energy() > 0
    assert meter.power_now == reference["w"] == power_idle
    assert capped is not None and capped < len(big.spec.freqs_mhz) - 1
    assert big.freq_index == len(big.spec.freqs_mhz) - 1

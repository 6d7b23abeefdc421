"""Power and energy accounting.

Standard CMOS dynamic-power model per core::

    P_core(f) = P_static + c · f · V(f)²

with the rail voltage ``V(f)`` interpolated linearly across the DVFS ladder.
The meter observes cluster busy/frequency transitions (via
``Cluster.add_observer``) and integrates energy exactly between transitions,
so samples never miss short bursts.

The ladder is discrete, so the meter tabulates one busy core's power per
(cluster, ladder step) at construction, each entry computed by
:meth:`PowerSpec.dynamic_power` exactly as a per-transition evaluation
would.  It holds each cluster's draw (busy cores × table entry + online
cores × static power); a transition recomputes only the cluster that
changed and re-sums the held draws in cluster order, so every float
matches a from-scratch evaluation bit for bit.

The DSP draws a flat active power (a Hexagon-class aDSP runs a fixed
clock domain); the CPU-vs-DSP *median power ratio of ~4×* in the paper's
Fig 7b follows from these constants.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.device.cpu import CPU, Cluster, MHZ
from repro.sim import Environment


@dataclass(frozen=True)
class PowerSpec:
    """Electrical constants for one cluster.

    ``switching_nf`` is the effective switched capacitance in nanofarads;
    typical mobile big cores land near 1.0–1.5 nF, little cores near 0.4 nF.
    """

    v_min: float = 0.60
    v_max: float = 1.10
    switching_nf: float = 1.0
    static_w: float = 0.035

    def voltage(self, freq_mhz: float, min_mhz: float, max_mhz: float) -> float:
        """Rail voltage at ``freq_mhz``, linear across the ladder."""
        if max_mhz <= min_mhz:
            return self.v_max
        span = (freq_mhz - min_mhz) / (max_mhz - min_mhz)
        span = min(1.0, max(0.0, span))
        return self.v_min + span * (self.v_max - self.v_min)

    def dynamic_power(self, freq_mhz: float, min_mhz: float, max_mhz: float) -> float:
        """Active power of one busy core at ``freq_mhz`` in watts."""
        volts = self.voltage(freq_mhz, min_mhz, max_mhz)
        return self.switching_nf * 1e-9 * freq_mhz * MHZ * volts * volts


class EnergyMeter:
    """Integrates CPU energy over a simulation run.

    Attach one meter per device; it subscribes to every cluster, holds each
    cluster's draw, and keeps one running integral.  ``power_now`` exposes
    the instantaneous draw for power-trace experiments (Fig 7b).
    """

    def __init__(self, env: Environment, cpu: CPU, power: PowerSpec):
        self.env = env
        self.cpu = cpu
        self.power = power
        self._energy_j = 0.0
        self._last = env.now
        #: One busy core's power per ladder step, keyed by cluster.
        self._table: dict[Cluster, tuple[float, ...]] = {}
        #: Each cluster's draw since its last transition, in cluster order.
        self._held: dict[Cluster, float] = {}
        for cluster in cpu.clusters:
            spec = cluster.spec
            self._table[cluster] = tuple(
                power.dynamic_power(mhz, spec.min_mhz, spec.max_mhz)
                for mhz in spec.freqs_mhz)
            self._held[cluster] = self._cluster_power(cluster)
        self._held_power = sum(self._held.values())
        for cluster in cpu.clusters:
            cluster.add_observer(self._on_transition)

    def _cluster_power(self, cluster: Cluster) -> float:
        active = self._table[cluster][cluster.freq_index]
        return (cluster.busy_cores * active
                + cluster.online_cores * self.power.static_w)

    @property
    def power_now(self) -> float:
        """Instantaneous CPU power draw in watts."""
        return self._held_power

    def _on_transition(self, cluster: Cluster) -> None:
        # The observer fires *after* a state change; the interval since the
        # previous transition ran at the power level held before it.
        self._integrate()
        held = self._held
        held[cluster] = self._cluster_power(cluster)
        self._held_power = sum(held.values())

    def _integrate(self) -> None:
        now = self.env.now
        if now > self._last:
            self._energy_j += self._held_power * (now - self._last)
        self._last = now

    @property
    def energy_j(self) -> float:
        """Total energy in joules up to the current simulated time."""
        self._integrate()
        return self._energy_j


@dataclass(frozen=True)
class DspPowerSpec:
    """Power constants for the DSP coprocessor power domain."""

    active_w: float = 0.28
    idle_w: float = 0.006


__all__ = ["DspPowerSpec", "EnergyMeter", "PowerSpec"]

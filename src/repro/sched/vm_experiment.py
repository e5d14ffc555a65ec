"""The Fig 5 experiment: VM compute performance with/without ticks.

Two 128-vCPU VMs share one 128-logical-core socket. ``busy_loop`` runs
on N vCPUs; the rest are idle. On-host ghOSt needs 1 ms ticks on every
core; Wave moves scheduling to the SmartNIC and disables ticks, letting
idle cores reach deep C-states and busy cores turbo higher.
"""

from __future__ import annotations

import dataclasses
from typing import List

from repro.hw import HwParams, Machine
from repro.sched.vm import VmHost
from repro.sim import Environment
from repro.workloads import BusyLoop

#: Idle cores need to exceed the deep-sleep residency before the turbo
#: governor stops counting them; settle before measuring.
SETTLE_NS = 10_000_000.0
MEASURE_NS = 100_000_000.0


@dataclasses.dataclass
class VmPointResult:
    """Work output for one (active vCPUs, ticks) configuration."""

    active_vcpus: int
    ticks: bool
    total_work: float             #: gigacycles completed by all vCPUs
    per_vcpu_work: float
    awake_cores: int              #: physical cores awake during measure
    frequency_ghz: float          #: boosted frequency during measure


def run_vm_point(active_vcpus: int, ticks: bool,
                 measure_ns: float = MEASURE_NS,
                 params: HwParams = None,
                 counters: dict = None) -> VmPointResult:
    """Run one Fig 5 data point.

    ``counters``, when given, is filled with the simulation kernel's
    event counters after the run (perf-bench accounting)."""
    env = Environment()
    machine = Machine(env, params or HwParams.pcie())
    socket = machine.host.sockets[0]
    host = VmHost(env, socket)
    host.start()
    if ticks:
        machine.host.start_ticks(socket)

    # Let idle cores settle into their C-states before activating.
    env.run(until=SETTLE_NS)
    active = host.activate(active_vcpus)
    # Give the per-core schedulers one granularity period to pick the
    # newly busy vCPUs up, then start measuring.
    env.run(until=env.now + 2_000_000)

    loops: List[BusyLoop] = []
    for vcpu, scheduler in zip(active, _schedulers_for(host, active_vcpus)):
        loops.append(BusyLoop(env, scheduler.core, vcpu.vcpu_id,
                              manage_core=False))
    for loop in loops:
        loop.start()
    env.run(until=env.now + measure_ns)
    total = sum(loop.finish() for loop in loops)
    if counters is not None:
        counters.update(events_scheduled=env.events_scheduled,
                        events_dispatched=env.events_dispatched,
                        events_logical=env._seq,
                        timers_coalesced=env.timers_coalesced)
    return VmPointResult(
        active_vcpus=active_vcpus,
        ticks=ticks,
        total_work=total,
        per_vcpu_work=total / max(1, active_vcpus),
        awake_cores=socket.awake_cores,
        frequency_ghz=socket.current_ghz(),
    )


def _schedulers_for(host: VmHost, total_active: int):
    """The logical-thread schedulers hosting the first N busy vCPUs
    (thread k hosts busy vCPU k by the activation placement)."""
    return host.schedulers[:total_active]


def improvement_no_ticks(active_vcpus: int,
                         measure_ns: float = MEASURE_NS,
                         params: HwParams = None) -> float:
    """Fig 5b's metric: % improvement of Wave (no ticks) over on-host
    ghOSt (ticks) at a given number of active vCPUs."""
    wave = run_vm_point(active_vcpus, ticks=False, measure_ns=measure_ns,
                        params=params)
    onhost = run_vm_point(active_vcpus, ticks=True, measure_ns=measure_ns,
                          params=params)
    return 100.0 * (wave.total_work / onhost.total_work - 1.0)

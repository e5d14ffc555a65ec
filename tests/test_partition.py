"""The machine's timing-domain partition and its Table 2 causality check.

A :class:`Machine` spans three timing domains -- ``host`` (socket),
``ic`` (interconnect), ``nic`` (SoC). :meth:`HwParams.domain_lookahead`
gives the smallest latency any modeled interaction can cross each
ordered hop in. The one NIC -> host send the model makes, the MSI-X
delivery of :meth:`repro.hw.nic.SmartNic.raise_msix`, is checked
against the ``nic -> host`` minimum: a faster delivery raises
:class:`LookaheadViolation`, and parameters whose minimum is not
positive are refused when the NIC is built.

All three domains run on the one serial dispatch loop:
``Environment.partition`` is always None, and the environment flag
that once selected a partitioned engine changes nothing.
"""

import dataclasses

import pytest

from repro.hw import HwParams, Interconnect, Machine
from repro.hw.pcie import LookaheadViolation
from repro.sim import Environment, PollTimer

DOMAINS = ("host", "ic", "nic")


def _stub_propagation(monkeypatch, machine, wire, via_ioctl=False):
    """Make the next MSI-X delivery take exactly ``wire`` ns."""
    send = machine.interconnect.msix_send(via_ioctl)
    monkeypatch.setattr(machine.interconnect, "msix_propagation",
                        lambda: wire - send)


def _deliver(machine, via_ioctl=False):
    """Raise one MSI-X, run to completion, return the delivery times."""
    env = machine.env
    _, delivery = machine.nic.raise_msix(via_ioctl=via_ioctl)
    fired = []
    delivery.callbacks.append(lambda ev: fired.append(env.now))
    env.run()
    return fired


# -- Table 2 minima -----------------------------------------------------------

@pytest.mark.parametrize("preset", ["pcie", "cxl", "upi"])
def test_domain_lookahead_positive_for_every_preset(preset):
    """Every shipped Table 2 preset yields a positive minimum for every
    ordered pair of timing domains; a non-positive one would let the
    model deliver a signal at or before the instant it was sent."""
    params = getattr(HwParams, preset)()
    windows = params.domain_lookahead()
    assert set(windows) == {
        (s, d) for s in DOMAINS for d in DOMAINS if s != d}
    assert all(w > 0 for w in windows.values()), windows
    # Composed paths are exactly the sum of their legs (no shortcut the
    # two-hop physics cannot deliver).
    assert windows[("host", "nic")] == pytest.approx(
        windows[("host", "ic")] + windows[("ic", "nic")])
    assert windows[("nic", "host")] == pytest.approx(
        windows[("nic", "ic")] + windows[("ic", "host")])


def test_pcie_lookahead_values_match_table2_derivation():
    p = HwParams.pcie()
    w = p.domain_lookahead()
    assert w[("host", "ic")] == p.mmio_write_uc
    assert w[("ic", "nic")] == (
        min(p.mmio_write_visibility, p.dma_base_latency) - p.mmio_write_uc)
    assert w[("nic", "ic")] == p.msix_send_reg
    assert w[("ic", "host")] == (
        p.msix_e2e - p.msix_send_ioctl - p.msix_receive - p.msix_send_reg)


def test_interconnect_partition_plan_is_usable():
    """On every preset the interconnect's own MSI-X propagation already
    meets the nic -> host minimum, so no unstalled send can trip the
    check."""
    for preset in ("pcie", "cxl", "upi"):
        params = getattr(HwParams, preset)()
        minimum = params.domain_lookahead()[("nic", "host")]
        assert Interconnect(params).msix_propagation() >= minimum, preset
        machine = Machine(Environment(), params)
        assert machine.nic.min_msix_wire == minimum


_PCIE = HwParams.pcie()


@pytest.mark.parametrize("plan", [
    dataclasses.replace(_PCIE, msix_e2e=0.0),          # no wire at all
    dataclasses.replace(                                # zero minimum
        _PCIE, msix_e2e=_PCIE.msix_send_ioctl + _PCIE.msix_receive),
    dataclasses.replace(                                # negative minimum
        _PCIE, msix_e2e=_PCIE.msix_send_ioctl),
    dataclasses.replace(_PCIE, msix_receive=_PCIE.msix_e2e),
    dataclasses.replace(_PCIE, msix_send_ioctl=_PCIE.msix_e2e),
])
def test_unusable_plans(plan):
    """Parameters whose nic -> host minimum is not positive cannot back
    a causality check: building the NIC refuses them."""
    assert plan.domain_lookahead()[("nic", "host")] <= 0
    with pytest.raises(ValueError):
        Machine(Environment(), plan)


# -- the checked NIC -> host send ------------------------------------------

def test_cross_timeout_below_window_raises(monkeypatch):
    """A delivery faster than Table 2 allows is a causality violation,
    not a silently early interrupt."""
    machine = Machine(Environment())
    minimum = machine.nic.min_msix_wire
    _stub_propagation(monkeypatch, machine, minimum - 1.0)
    with pytest.raises(LookaheadViolation):
        machine.nic.raise_msix(via_ioctl=False)


def test_cross_timeout_at_window_is_legal(monkeypatch):
    """A delivery of exactly the minimum is legal and fires on time."""
    machine = Machine(Environment())
    minimum = machine.nic.min_msix_wire
    _stub_propagation(monkeypatch, machine, minimum)
    assert _deliver(machine) == [minimum]
    assert machine.nic.msix_sent == 1


@pytest.mark.parametrize("via_ioctl", [True, False])
def test_msix_delivery_respects_nic_host_minimum(via_ioctl):
    """Both send flavours clear the nic -> host minimum and fire after
    exactly ``send + propagation``."""
    machine = Machine(Environment())
    send = machine.interconnect.msix_send(via_ioctl)
    wire = send + machine.interconnect.msix_propagation()
    assert wire >= machine.nic.min_msix_wire
    assert _deliver(machine, via_ioctl=via_ioctl) == [wire]


def test_asymmetric_windows_checked_per_direction(monkeypatch):
    """The MSI-X is held to the nic -> host minimum, not the smaller
    host -> nic one: a delivery between the two still raises."""
    machine = Machine(Environment())
    windows = machine.params.domain_lookahead()
    host_nic, nic_host = windows[("host", "nic")], windows[("nic", "host")]
    assert host_nic < nic_host
    _stub_propagation(monkeypatch, machine, (host_nic + nic_host) / 2)
    with pytest.raises(LookaheadViolation):
        machine.nic.raise_msix(via_ioctl=False)


# -- one dispatch loop ------------------------------------------------------

def test_fallback_env_runs_serially():
    """Every environment is a plain serial one; ``partition`` is a
    read-only None."""
    env = Environment()
    assert env.partition is None
    with pytest.raises(AttributeError):
        env.partition = object()
    log = []
    t = env.timeout(1.0)
    t.callbacks.append(lambda ev: log.append(env.now))
    env.run(until=10.0)
    assert log == [1.0]


def test_machine_partitions_by_default_and_opts_out():
    """A Machine builds all three domains on the serial loop; the
    ``use_partition`` option that chose an engine is gone."""
    env = Environment()
    Machine(env)
    assert env.partition is None
    with pytest.raises(TypeError):
        Machine(Environment(), use_partition=False)


def test_enable_partition_env_var_hatch(monkeypatch):
    """``REPRO_NO_PARTITION`` no longer selects anything: the same
    MSI-X lands at the same time with it set or unset."""
    times = []
    for value in (None, "1"):
        if value is None:
            monkeypatch.delenv("REPRO_NO_PARTITION", raising=False)
        else:
            monkeypatch.setenv("REPRO_NO_PARTITION", value)
        env = Environment()
        assert not hasattr(env, "enable_partition")
        times.append(_deliver(Machine(env)))
    assert times[0] == times[1] != []


def test_partition_counters_track_activity():
    """The NIC counts its sends and the kernel its dispatches, with no
    per-domain counters left to keep."""
    machine = Machine(Environment())
    env = machine.env
    fired = _deliver(machine)
    assert len(fired) == 1
    assert machine.nic.msix_sent == 1
    assert machine.nic.msix_lost == 0
    dispatched = env.events_dispatched
    assert dispatched >= 1
    env.timeout(25.0)
    env.run()
    assert env.events_dispatched == dispatched + 1


def test_polltimer_in_partitioned_env():
    """A poll timer armed in a Machine's environment fires on time."""
    env = Environment()
    Machine(env)
    fired = []
    poll = PollTimer(env)
    timer = poll.arm(300.0)
    timer.callbacks.append(lambda ev: fired.append(env.now))
    env.run(until=1_000.0)
    assert fired == [300.0]

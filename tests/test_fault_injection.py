"""Tests for the deterministic fault-injection layer (repro.sim.faults).

Every fault class gets three guarantees checked here:

1. *provoke*: the fault actually fires against the instrumented
   subsystem (ring, interconnect, DMA engine, NIC, agent);
2. *recover*: the system completes all offered work anyway, through the
   mechanism the paper prescribes (watchdog + pull-based restart,
   FAILED_RACE transactions, idle re-check, DMA retry/backoff);
3. *replay*: two runs with the same ``(seed, plan)`` produce
   byte-identical stat snapshots.
"""

from pathlib import Path
from unittest import mock

import pytest

from repro.bench.faults import ChaosTiming, build_plans, run_chaos
from repro.hw import HwParams, Machine
from repro.hw.pte import PteType
from repro.queues.ring import FloemRing
from repro.sim import Environment, FaultInjector, FaultPlan
from repro.sim.faults import (
    AGENT_CRASH,
    AGENT_HANG,
    DMA_TIMEOUT,
    FAULT_KINDS,
    MSG_DELAY,
    MSG_DROP,
    MSG_DUP,
    MSIX_LOSS,
    PCIE_STALL,
)

#: Reduced-scale chaos scenario so the whole matrix stays test-fast.
TINY = ChaosTiming(duration_ns=20_000_000.0, warmup_ns=1_000_000.0,
                   fault_at_ns=5_000_000.0, rate_per_sec=40_000.0,
                   n_worker_cores=2, watchdog_timeout_ns=5_000_000.0)


# -- FaultPlan validation -----------------------------------------------------

def test_plan_rejects_unknown_kind():
    with pytest.raises(ValueError):
        FaultPlan("segfault", at_ns=1.0)


def test_plan_requires_exactly_one_trigger():
    with pytest.raises(ValueError):
        FaultPlan(MSG_DROP)  # no trigger
    with pytest.raises(ValueError):
        FaultPlan(MSG_DROP, at_ns=1.0, every_n=2)  # two triggers


def test_plan_validates_trigger_values():
    with pytest.raises(ValueError):
        FaultPlan(MSG_DROP, every_n=0)
    with pytest.raises(ValueError):
        FaultPlan(MSG_DROP, probability=1.5)


def test_plan_validates_window_kinds():
    with pytest.raises(ValueError):
        FaultPlan(PCIE_STALL, every_n=3, duration_ns=10.0)  # needs at_ns
    with pytest.raises(ValueError):
        FaultPlan(PCIE_STALL, at_ns=1.0, duration_ns=10.0,
                  factor=0.5)  # speedups are not stalls
    with pytest.raises(ValueError):
        FaultPlan(AGENT_HANG, at_ns=1.0)  # needs a duration


def test_at_ns_plans_default_to_single_fire():
    assert FaultPlan(AGENT_CRASH, at_ns=5.0).max_fires == 1
    assert FaultPlan(MSG_DROP, every_n=3).max_fires is None


def test_one_injector_per_environment():
    env = Environment()
    FaultInjector(env, seed=1).arm()
    with pytest.raises(RuntimeError):
        FaultInjector(env, seed=2).arm()


# -- ring-level faults (msg-drop / msg-dup / msg-delay) -----------------------

def _ring(env, machine, name="chaos-ring"):
    link = machine.interconnect
    return FloemRing(env, name, link.host_path(PteType.UC),
                     link.nic_path(PteType.WB))


def test_msg_drop_loses_every_nth_entry():
    env = Environment()
    machine = Machine(env, HwParams.pcie())
    ring = _ring(env, machine)
    injector = FaultInjector(env, seed=3, plans=[
        FaultPlan(MSG_DROP, every_n=2, target="chaos-ring")]).arm()

    def driver():
        yield env.timeout(ring.produce(list(range(10))))
        yield env.timeout(10_000)
        items, cost = ring.consume()
        assert items == [0, 2, 4, 6, 8]

    env.process(driver())
    env.run(until=1_000_000)
    assert ring.fault_dropped == 5
    assert injector.messages_dropped == 5
    assert injector.total_fires() == 5


def test_msg_dup_replays_entries():
    env = Environment()
    machine = Machine(env, HwParams.pcie())
    ring = _ring(env, machine)
    injector = FaultInjector(env, seed=3, plans=[
        FaultPlan(MSG_DUP, every_n=3, target="chaos-ring")]).arm()

    def driver():
        yield env.timeout(ring.produce(list(range(6))))
        yield env.timeout(10_000)
        items, cost = ring.consume()
        assert items == [0, 1, 2, 2, 3, 4, 5, 5]

    env.process(driver())
    env.run(until=1_000_000)
    assert ring.fault_duplicated == 2
    assert injector.messages_duplicated == 2


def test_msg_delay_pushes_out_visibility():
    env = Environment()
    machine = Machine(env, HwParams.pcie())
    ring = _ring(env, machine)
    FaultInjector(env, seed=3, plans=[
        FaultPlan(MSG_DELAY, probability=1.0, delay_ns=80_000.0,
                  target="chaos-ring")]).arm()
    woke = {}

    def consumer():
        yield ring.wait_nonempty()
        woke["at"] = env.now

    def producer():
        yield env.timeout(ring.produce(["x"]))

    env.process(consumer())
    env.process(producer())
    env.run(until=1_000_000)
    # Without the fault the entry is visible after ~produce cost plus
    # the path's visibility delay (~1 us); the injected 80 us dominates.
    assert woke["at"] >= 80_000.0


def test_plan_target_filters_by_ring_name():
    env = Environment()
    machine = Machine(env, HwParams.pcie())
    hit = _ring(env, machine, name="victim")
    miss = _ring(env, machine, name="bystander")
    injector = FaultInjector(env, seed=3, plans=[
        FaultPlan(MSG_DROP, every_n=1, target="victim")]).arm()

    def driver():
        yield env.timeout(hit.produce([1, 2]))
        yield env.timeout(miss.produce([3, 4]))
        yield env.timeout(10_000)
        assert hit.consume()[0] == []
        assert miss.consume()[0] == [3, 4]

    env.process(driver())
    env.run(until=1_000_000)
    assert injector.messages_dropped == 2


# -- interconnect faults (pcie-stall / msix-loss / dma-timeout) ---------------

def test_pcie_stall_inflates_only_inside_window():
    env = Environment()
    machine = Machine(env, HwParams.pcie())
    params = machine.params
    FaultInjector(env, seed=0, plans=[
        FaultPlan(PCIE_STALL, at_ns=1_000.0, duration_ns=2_000.0,
                  factor=4.0)]).arm()
    seen = {}

    def probe():
        seen["before"] = machine.interconnect.mmio_read()
        yield env.timeout(2_000)  # inside [1000, 3000)
        seen["during_read"] = machine.interconnect.mmio_read()
        seen["during_e2e"] = machine.interconnect.msix_e2e()
        yield env.timeout(2_000)  # past the window
        seen["after"] = machine.interconnect.mmio_read()

    env.process(probe())
    env.run(until=10_000)
    wire = (params.msix_e2e - params.msix_send_ioctl - params.msix_receive)
    assert seen["before"] == params.mmio_read_uc
    assert seen["during_read"] == 4.0 * params.mmio_read_uc
    # Only the wire portion of MSI-X delivery is stalled; the CPU-side
    # send/receive overheads are not interconnect traffic.
    assert seen["during_e2e"] == (params.msix_send_ioctl
                                  + params.msix_receive + 4.0 * wire)
    assert seen["after"] == params.mmio_read_uc


def test_pcie_stall_spares_local_paths():
    env = Environment()
    machine = Machine(env, HwParams.pcie())
    injector = FaultInjector(env, seed=0, plans=[
        FaultPlan(PCIE_STALL, at_ns=0.0, duration_ns=1_000.0,
                  factor=8.0)]).arm()
    crossing = machine.interconnect.host_path(PteType.UC)
    local = machine.interconnect.nic_path(PteType.WB)
    assert injector.path_cost_factor(crossing) == 8.0
    assert injector.path_cost_factor(local) == 1.0
    assert injector.path_cost_factor(
        machine.interconnect.host_local_path()) == 1.0


def test_msix_loss_swallows_delivery_but_charges_sender():
    env = Environment()
    machine = Machine(env, HwParams.pcie())
    FaultInjector(env, seed=0, plans=[
        FaultPlan(MSIX_LOSS, probability=1.0, max_fires=1)]).arm()
    send_cost, lost = machine.nic.raise_msix()
    assert send_cost == machine.params.msix_send_ioctl  # sender still pays
    send_cost, delivered = machine.nic.raise_msix()  # budget exhausted

    def idle():
        yield env.timeout(1)

    env.process(idle())
    env.run(until=1_000_000)
    assert not lost.triggered  # swallowed on the wire, forever
    assert delivered.triggered
    assert machine.nic.msix_lost == 1


def test_dma_timeout_retries_with_bounded_backoff():
    env = Environment()
    machine = Machine(env, HwParams.pcie())
    params = machine.params
    FaultInjector(env, seed=0, plans=[
        FaultPlan(DMA_TIMEOUT, probability=1.0)]).arm()
    engine = machine.nic.dma
    duration, completion = engine.launch(64)
    # Every attempt times out, so the engine burns the full retry
    # ladder: n timeout windows plus exponentially growing pauses --
    # then the final attempt is forced through (bounded recovery).
    ladder = sum(params.dma_timeout_ns + params.dma_retry_backoff_ns * 2 ** i
                 for i in range(params.dma_max_retries))
    assert duration == ladder + engine.transfer_duration(64)
    assert engine.timeouts == params.dma_max_retries
    assert engine.retries == params.dma_max_retries

    def waiter():
        yield completion

    env.process(waiter())
    env.run(until=10 * duration)
    assert completion.triggered  # the transfer still lands


# -- agent faults, end to end -------------------------------------------------

def test_agent_crash_detected_and_recovered():
    result = run_chaos(AGENT_CRASH, seed=7, timing=TINY)
    assert result.fault_fires == 1
    assert result.failovers >= 1
    # Detection comes from the watchdog grid (period = timeout / 4).
    assert 0.0 <= result.detection_ns <= TINY.watchdog_timeout_ns
    assert result.recovery_ns > 0.0
    assert result.completed == result.submitted


def test_agent_hang_trips_the_silence_threshold():
    result = run_chaos(AGENT_HANG, seed=7, timing=TINY)
    assert result.fault_fires == 1
    # The silence branch needs > timeout of quiet before it may fire.
    assert result.detection_ns > TINY.watchdog_timeout_ns
    assert result.detection_ns < 2.0 * TINY.watchdog_timeout_ns \
        + TINY.watchdog_timeout_ns / 2.0
    assert result.failovers >= 1
    assert result.completed == result.submitted


def test_msg_drop_recovered_by_pull_based_restart():
    # Dropped TASK_NEW messages strand tasks in the kernel; only the
    # section 6 pull-based restart (kernel snapshot) can find them, so
    # the scenario pairs drops with a later crash.
    result = run_chaos(MSG_DROP, seed=7, timing=TINY)
    assert result.messages_dropped > 0
    assert result.failovers >= 1
    assert result.completed == result.submitted


def test_msg_dup_fails_cleanly():
    result = run_chaos(MSG_DUP, seed=7, timing=TINY)
    assert result.messages_duplicated > 0
    # Duplicate schedule decisions must lose transactions, not work.
    assert result.completed == result.submitted


def test_msix_loss_recovered_by_idle_recheck():
    result = run_chaos(MSIX_LOSS, seed=7, timing=TINY)
    assert result.msix_lost > 0
    assert result.completed == result.submitted


def test_pcie_stall_degrades_latency_not_correctness():
    baseline = run_chaos("none", seed=7, timing=TINY)
    stalled = run_chaos(PCIE_STALL, seed=7, timing=TINY)
    assert stalled.fault_fires == 1
    assert stalled.completed == stalled.submitted
    assert stalled.get_p99_us > baseline.get_p99_us


def test_dma_timeout_drill_delivers_everything():
    result = run_chaos(DMA_TIMEOUT, seed=7, timing=TINY)
    assert result.dma_timeouts > 0
    assert result.completed == result.submitted


# -- reproducibility ----------------------------------------------------------

@pytest.mark.parametrize("plan_name", FAULT_KINDS)
def test_same_seed_is_byte_identical(plan_name):
    first = run_chaos(plan_name, seed=11, timing=TINY)
    second = run_chaos(plan_name, seed=11, timing=TINY)
    assert first.snapshot() == second.snapshot()
    assert first.digest() == second.digest()


def test_different_seeds_diverge():
    # A probabilistic plan consumes the seeded RNG, so seeds must show.
    first = run_chaos(MSG_DELAY, seed=1, timing=TINY)
    second = run_chaos(MSG_DELAY, seed=2, timing=TINY)
    assert first.snapshot() != second.snapshot()


def test_build_plans_covers_every_kind():
    for kind in FAULT_KINDS:
        plans = build_plans(kind, TINY)
        assert plans, kind
        assert any(p.kind == kind for p in plans)
    assert build_plans("none", TINY) == []
    with pytest.raises(ValueError):
        build_plans("meteor-strike", TINY)


#: The benchmark's tiny chaos timing (``perfbench.points.chaos_timing``
#: with ``tiny=True``): 8 ms of load at 20k req/s, a 1 ms watchdog.
PIN_TIMING = ChaosTiming(duration_ns=8_000_000.0, warmup_ns=300_000.0,
                         fault_at_ns=1_200_000.0, rate_per_sec=20_000.0,
                         watchdog_timeout_ns=1_000_000.0)

#: ``run_chaos(plan, seed, PIN_TIMING).digest()`` for every scheduling
#: plan at seeds 1-3, as the one-poll-at-a-time agent computes them. A
#: change to host-side shortcuts (such as the empty-poll fast-forward)
#: must leave every one of them as it is; a deliberate change to the
#: simulated model updates them in the same commit.
PINNED_DIGESTS = {
    "none": ("09022a8487f68a3d", "ce9b2f8e37c67fbe", "5a2a84d44fdf05ac"),
    AGENT_CRASH: ("7907702c9fa8dbfd", "e0c17a9e0953d692", "343ccfa83af30fac"),
    AGENT_HANG: ("922f83ea41085aca", "9711e05ad3fde407", "a4a311efdbbc61fc"),
    MSG_DROP: ("018aae978e24f139", "f9aa1a28952b0bed", "8bffc1ac021ae087"),
    MSG_DUP: ("e9a213ca068a8f5d", "5076d1444f609fc2", "e3649db9460450bc"),
    MSG_DELAY: ("8d0ee3ce9317d4ee", "a6786973e1f79325", "2738020cdc0fd439"),
    PCIE_STALL: ("46472d146e3b91a8", "5f1c92d3b6c3f02b", "0fbc44cb442c9b75"),
    MSIX_LOSS: ("5cc7df94b94d3594", "f8b84fce5e175cca", "3b99e4e8dbb49f66"),
}


@pytest.mark.parametrize("plan_name", sorted(PINNED_DIGESTS))
def test_chaos_digests_pinned(plan_name):
    digests = tuple(run_chaos(plan_name, seed=seed,
                              timing=PIN_TIMING).digest()
                    for seed in (1, 2, 3))
    assert digests == PINNED_DIGESTS[plan_name]


def _events_dispatched(plan_name: str, seed: int) -> int:
    envs = []
    env_init = Environment.__init__

    def record(self, *args, **kwargs):
        env_init(self, *args, **kwargs)
        envs.append(self)

    with mock.patch.object(Environment, "__init__", record):
        run_chaos(plan_name, seed=seed, timing=PIN_TIMING)
    [env] = envs
    return env.events_dispatched


def test_msg_delay_host_work_stays_near_baseline():
    """A delayed ring head must not cost a kernel event per empty poll.

    The agent re-reads a delayed head until it becomes visible; one
    event pair per 17 ns poll made msg-delay dispatch ~14x the events
    of the fault-free run. The empty-poll fast-forward skips such
    runs of polls, so the count stays within 2x of the baseline.
    """
    baseline = _events_dispatched("none", seed=1)
    delayed = _events_dispatched(MSG_DELAY, seed=1)
    assert delayed <= 2 * baseline, (delayed, baseline)


def test_msg_delay_fast_report_matches_checked_in_copy():
    """``python -m repro chaos --seed 42 --plan msg-delay --fast`` prints
    the checked-in report (CI diffs the CLI output against it too)."""
    expected = (Path(__file__).parent / "golden"
                / "chaos-msg-delay-seed42-fast.txt").read_text()
    result = run_chaos(MSG_DELAY, seed=42, timing=ChaosTiming.fast())
    assert result.summary() + "\n" == expected

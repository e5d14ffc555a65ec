"""Differential tests for the empty-poll fast-forward.

``FloemRing.fast_forward_polls`` lets the ghOSt agent jump over a run
of empty ring polls (a delayed FIFO head it keeps re-reading) in one
step. It must be invisible in every simulated output. Each test runs
the same scenario with the fast-forward disabled -- the ring method
patched to return the one-poll cost it was given -- and enabled, and
demands equal results, fault logs, metrics, per-ring counts, metric
timelines and, between ``Environment.run`` slices, equal counters and
equal reactions to what the caller does between the slices.
"""

import contextlib
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.bench.faults import ChaosTiming, run_chaos
from repro.hw import HwParams, Interconnect, PteType
from repro.hw.paths import MemPath
from repro.obs import Telemetry, TimelineConfig, timeline_json
from repro.queues.ring import FloemRing
from repro.sim import Environment, FaultInjector, FaultPlan, Interrupt
from repro.sim.faults import (AGENT_CRASH, AGENT_HANG, MSG_DELAY, MSG_DUP,
                              MSIX_LOSS, PCIE_STALL)

#: The scheduling chaos plans (``dma-timeout`` runs no agent).
PLANS = ("none", "msg-delay", "msg-dup", "msg-drop", "agent-crash",
         "agent-hang", "pcie-stall", "msix-loss")


def _timing(cores: int) -> ChaosTiming:
    return ChaosTiming(duration_ns=3_000_000.0, warmup_ns=300_000.0,
                       fault_at_ns=1_200_000.0, rate_per_sec=40_000.0,
                       n_worker_cores=cores,
                       watchdog_timeout_ns=1_000_000.0)


def _one_poll(ring, cost):
    return cost


@contextlib.contextmanager
def _observed(fast_forward: bool):
    """Record every Environment and FloemRing built in the block; with
    ``fast_forward=False`` every ring polls one step at a time."""
    envs, rings = [], []
    env_init, ring_init = Environment.__init__, FloemRing.__init__

    def record_env(self, *args, **kwargs):
        env_init(self, *args, **kwargs)
        envs.append(self)

    def record_ring(self, *args, **kwargs):
        ring_init(self, *args, **kwargs)
        rings.append(self)

    with contextlib.ExitStack() as stack:
        stack.enter_context(
            mock.patch.object(Environment, "__init__", record_env))
        stack.enter_context(
            mock.patch.object(FloemRing, "__init__", record_ring))
        if not fast_forward:
            stack.enter_context(mock.patch.object(
                FloemRing, "fast_forward_polls", _one_poll))
        yield envs, rings


def _ring_rows(run, rings):
    rows = []
    for ring in rings:
        ops = {op: run.metrics.counter("ring_ops", ring=ring.name,
                                       op=op).value
               for op in ("push", "pop", "poll")}
        rows.append((ring.name, ring.produced, ring.consumed, ring.dropped,
                     ring.fault_dropped, ring.fault_duplicated, len(ring),
                     ops))
    return rows


def _chaos(plan, seed, cores, fast_forward, period_ns=None):
    config = TimelineConfig(period_ns=period_ns) if period_ns else None
    hub = Telemetry(timeline=config)
    with _observed(fast_forward) as (envs, rings), hub:
        result = run_chaos(plan, seed=seed, timing=_timing(cores))
    [env] = envs
    [run] = hub.runs
    metrics = run.metrics.dump()   # before _ring_rows registers zeros
    return {"result": result, "metrics": metrics,
            "rings": _ring_rows(run, rings),
            "timeline": timeline_json(hub) if config else None,
            "dispatched": env.events_dispatched}


@settings(deadline=None, max_examples=12)
@given(plan=st.sampled_from(PLANS), seed=st.integers(1, 100_000),
       cores=st.integers(1, 3))
@example(plan="msg-delay", seed=1, cores=2)
def test_fast_forward_changes_no_output(plan, seed, cores):
    off = _chaos(plan, seed, cores, fast_forward=False, period_ns=1_000.0)
    on = _chaos(plan, seed, cores, fast_forward=True, period_ns=1_000.0)
    assert on["result"] == off["result"]
    assert on["result"].injector_snapshot == off["result"].injector_snapshot
    assert on["metrics"] == off["metrics"]
    assert on["rings"] == off["rings"]
    assert on["timeline"] == off["timeline"]
    # The skip length never depends on whether a timeline is sampled.
    untimed = _chaos(plan, seed, cores, fast_forward=True)
    assert untimed["dispatched"] == on["dispatched"]
    assert untimed["result"] == on["result"]
    if plan == "msg-delay":
        assert on["dispatched"] < off["dispatched"]


def _delay(**kwargs):
    return FaultPlan(MSG_DELAY, probability=0.25, delay_ns=100_000.0,
                     target="chaos-msg", **kwargs)


#: Fault mixes that put a second fault next to delayed ring heads, so
#: the agent's fast-forward preconditions meet each of them.
MIXES = {
    # A pending hang counts every checkpoint as a matching event.
    "delay+hang": lambda t: [_delay(), FaultPlan(
        AGENT_HANG, at_ns=t.fault_at_ns, duration_ns=200_000.0,
        target="ghost-agent", max_fires=1)],
    # So does an event-triggered crash, until it fires.
    "delay+crash": lambda t: [_delay(), FaultPlan(
        AGENT_CRASH, every_n=4_000, target="ghost-agent", max_fires=1)],
    # Duplicates fail as FAILED_RACE outcomes, which can sit delayed in
    # the outcome ring while the agent polls a delayed message head.
    "delay+dup+late-outcomes": lambda t: [
        _delay(), FaultPlan(MSG_DUP, every_n=3, target="chaos-msg"),
        FaultPlan(MSG_DELAY, probability=0.5, delay_ns=30_000.0,
                  target="chaos-outcome")],
    "delay+stall": lambda t: [_delay(), FaultPlan(
        PCIE_STALL, at_ns=t.fault_at_ns, duration_ns=1_000_000.0,
        factor=8.0)],
    "delay+msix": lambda t: [_delay(), FaultPlan(
        MSIX_LOSS, probability=0.3, max_fires=50)],
}


@pytest.mark.parametrize("mix", sorted(MIXES))
def test_fast_forward_changes_no_output_under_fault_mixes(mix):
    runs = []
    for fast_forward in (False, True):
        with mock.patch("repro.bench.faults.build_plans",
                        lambda name, timing: MIXES[name](timing)):
            runs.append(_chaos(mix, 1, 2, fast_forward))
    off, on = runs
    assert on["result"] == off["result"]
    assert on["metrics"] == off["metrics"]
    assert on["rings"] == off["rings"]
    assert on["dispatched"] < off["dispatched"]


def _sliced(slice_ns: float, log: list):
    """Split every numeric ``Environment.run`` into ``slice_ns`` slices
    and log the metrics dump after each one."""
    real_run = Environment.run

    def run(env, until=None):
        if isinstance(until, (int, float)):
            at = env.now + slice_ns
            while at < until:
                real_run(env, at)
                log.append((env.now, env.telemetry.metrics.dump()))
                at += slice_ns
        return real_run(env, until)

    return mock.patch.object(Environment, "run", run)


def test_counters_between_run_slices_match():
    logs = {}
    for fast_forward in (False, True):
        log = logs[fast_forward] = []
        with _sliced(7_919.3, log), _observed(fast_forward), Telemetry():
            result = run_chaos("msg-delay", seed=3, timing=_timing(2))
        log.append(result)
    assert len(logs[True]) > 500
    assert logs[True] == logs[False]


def _delayed_head_ring(env):
    """A NIC-local ring whose first batch is delayed by 30 us: the
    consumer sees the second batch's entry while the head is not yet
    visible, so it polls the head until it shows up."""
    link = Interconnect(HwParams.pcie())
    injector = FaultInjector(env, seed=0, plans=[
        FaultPlan(MSG_DELAY, every_n=1, max_fires=1, delay_ns=30_000.0)])
    injector.arm()
    local = link.nic_path(PteType.UC)
    ring = FloemRing(env, "ring", local, local)

    def producer():
        yield env.timeout(ring.produce(["late"]))
        yield env.timeout(ring.produce(["early"]))

    env.process(producer())
    return ring


def _stop_flag_run(fast_forward: bool):
    """Two run slices around an out-of-band action: between them the
    caller raises a flag the consumer checks once per loop iteration."""
    hub = Telemetry()
    with hub:
        env = Environment()
    ring = _delayed_head_ring(env)
    stop = {"flag": False}
    seen = {}

    def consumer():
        yield env.timeout(2_000.0)   # both batches produced
        while not stop["flag"]:
            yield ring.wait_nonempty()
            items, cost = ring.consume()
            if items:
                seen.setdefault("first_items", (env.now, items))
            else:
                cost += ring.poll_cost()
                if fast_forward:
                    cost = ring.fast_forward_polls(cost)
            yield env.timeout(cost)
        seen["stopped_at"] = env.now

    env.process(consumer())
    env.run(until=12_345.6)
    polls = hub.runs[0].metrics.counter("ring_ops", ring="ring",
                                        op="poll").value
    stop["flag"] = True
    env.run(until=50_000.0)
    return polls, seen, env.events_dispatched


def test_fast_forward_stops_at_the_run_horizon():
    polls_off, seen_off, dispatched_off = _stop_flag_run(False)
    polls_on, seen_on, dispatched_on = _stop_flag_run(True)
    assert polls_off > 50
    assert polls_on == polls_off
    # The consumer reacts at the first poll after the horizon, exactly
    # as without the fast-forward.
    assert 12_345.6 < seen_on["stopped_at"] == seen_off["stopped_at"]
    assert "first_items" not in seen_on
    assert dispatched_on < dispatched_off / 10


def test_fast_forward_counts_every_poll_over_a_whole_run():
    results = []
    for fast_forward in (False, True):
        hub = Telemetry(timeline=TimelineConfig(period_ns=500.0))
        with hub:
            env = Environment()
        ring = _delayed_head_ring(env)
        seen = []

        def consumer():
            yield env.timeout(2_000.0)
            while True:
                yield ring.wait_nonempty()
                items, cost = ring.consume()
                if items:
                    seen.append((env.now, items))
                else:
                    cost += ring.poll_cost()
                    if fast_forward:
                        cost = ring.fast_forward_polls(cost)
                yield env.timeout(cost)

        env.process(consumer())
        env.run(until=40_000.0)
        results.append((seen, hub.runs[0].metrics.dump(),
                        timeline_json(hub)))
    assert results[0][0][0][1] == ["late", "early"]
    assert results[1] == results[0]


def test_outside_run_nothing_is_skipped():
    env = Environment()
    ring = _delayed_head_ring(env)
    env.run(until=2_000.0)
    assert env.horizon is None
    assert len(ring) == 2 and ring.visible_count() == 1
    assert ring.fast_forward_polls(17.0) == 17.0


class _WholePath(MemPath):
    """A ring path with whole-nanosecond costs: every poll time is an
    exact float, so a head or another event can land exactly on one."""

    def read_words(self, addr, n, now):
        return 16.0 * n

    def write_words(self, addr, n):
        return 16.0 * n


def _exact_landing_run(fast_forward: bool):
    """The head becomes visible exactly at a poll time, and another
    process interrupts the consumer exactly at an earlier one."""
    hub = Telemetry()
    with hub:
        env = Environment()
    FaultInjector(env, seed=0, plans=[FaultPlan(
        MSG_DELAY, every_n=1, max_fires=1, delay_ns=1_000.0)]).arm()
    path = _WholePath()
    ring = FloemRing(env, "ring", path, path)
    log = []

    def producer():
        yield env.timeout(ring.produce(["late"]))    # visible at 1112
        yield env.timeout(ring.produce(["early"]))   # visible at 224

    def consumer():
        yield env.timeout(312.0)   # polls at 312 + 16k: 632, ..., 1112
        while True:
            try:
                yield ring.wait_nonempty()
                items, cost = ring.consume()
                if items:
                    log.append(("items", env.now, items))
                    return
                cost += ring.poll_cost()
                if fast_forward:
                    cost = ring.fast_forward_polls(cost)
                yield env.timeout(cost)
            except Interrupt:
                log.append(("interrupted", env.now))

    def interrupter(target):
        yield env.timeout(632.0)
        target.interrupt("poke")

    env.process(producer())
    env.process(interrupter(env.process(consumer())))
    env.run(until=5_000.0)
    log.append(hub.runs[0].metrics.dump())
    return log, env.events_dispatched


def test_fast_forward_stops_on_exact_ties():
    off, dispatched_off = _exact_landing_run(False)
    on, dispatched_on = _exact_landing_run(True)
    assert off[:2] == [("interrupted", 632.0),
                       ("items", 1112.0, ["late", "early"])]
    assert on == off
    assert dispatched_on < dispatched_off


@pytest.mark.parametrize("pte", (PteType.UC, PteType.WT))
def test_interconnect_consumer_polls_one_step_at_a_time(pte):
    """A host consumer over MMIO: its poll cost depends on the time
    (a pcie-stall window, the host's cached copy), so nothing is
    skipped, and the outputs match a plain poll loop."""
    results = []
    for fast_forward in (False, True):
        hub = Telemetry()
        with hub:
            env = Environment()
        FaultInjector(env, seed=0, plans=[
            FaultPlan(MSG_DELAY, every_n=1, max_fires=1, delay_ns=20_000.0),
            FaultPlan(PCIE_STALL, at_ns=8_000.0, duration_ns=5_000.0,
                      factor=4.0)]).arm()
        link = Interconnect(HwParams.pcie())
        ring = FloemRing(env, "n2h", link.nic_path(PteType.WB),
                         link.host_path(pte), coherent=False)
        delays = []

        def producer():
            yield env.timeout(ring.produce(["late"]))
            yield env.timeout(ring.produce(["early"]))

        def consumer():
            yield env.timeout(2_000.0)
            while True:
                yield ring.wait_nonempty()
                items, cost = ring.consume()
                if items:
                    delays.append(("items", env.now, items))
                    return
                cost += ring.poll_cost()
                if fast_forward:
                    delay = ring.fast_forward_polls(cost)
                    assert delay == cost
                    cost = delay
                delays.append(cost)
                yield env.timeout(cost)

        env.process(producer())
        env.process(consumer())
        env.run(until=40_000.0)
        results.append((delays, hub.runs[0].metrics.dump()))
    assert len(set(results[0][0][:-1])) > 1   # the cost varied
    assert results[1] == results[0]


def test_nothing_visible_means_no_skip():
    """With every entry still invisible the consumer sleeps in
    wait_nonempty instead of polling, so there is nothing to skip."""
    env = Environment()
    FaultInjector(env, seed=0, plans=[FaultPlan(
        MSG_DELAY, every_n=1, delay_ns=10_000.0)]).arm()
    link = Interconnect(HwParams.pcie())
    local = link.nic_path(PteType.UC)
    ring = FloemRing(env, "ring", local, local)
    seen = []

    def probe():
        yield env.timeout(ring.produce(["a"]))
        yield env.timeout(ring.produce(["b"]))
        yield env.timeout(1_000.0)
        assert ring.visible_count() == 0
        seen.append(ring.fast_forward_polls(17.0))

    env.process(probe())
    env.run(until=5_000.0)
    assert seen == [17.0]

"""Tests for the observability layer (repro.obs)."""

import json
import math
import random

import pytest

from repro.core import Placement, WaveChannel, WaveOpts
from repro.ghost import GhostAgent, GhostKernel, GhostTask
from repro.hw import HwParams, Machine, PteType
from repro.obs import (
    LoopProfiler,
    MetricsRegistry,
    NULL_METRIC,
    NULL_REGISTRY,
    Span,
    SpanLog,
    Telemetry,
    chrome_trace_events,
    metrics_digest,
    metrics_dump,
    render_key,
    run_report,
    stage_breakdown,
    write_chrome_trace,
    write_metrics,
)
from repro.queues import FloemRing
from repro.rpc.experiment import RpcScenario, run_rpc_point
from repro.sched import ShinjukuPolicy
from repro.sim import Environment


# -- metrics registry --------------------------------------------------------

def test_counter_labels_and_render():
    reg = MetricsRegistry()
    reg.counter("ring_ops", ring="wakeup", op="push").incr(3)
    reg.counter("ring_ops", ring="wakeup", op="push").incr()
    reg.counter("ring_ops", ring="wakeup", op="pop").incr()
    assert reg.counter("ring_ops", ring="wakeup", op="push").value == 4
    dump = reg.dump()
    assert 'ring_ops{op="pop",ring="wakeup"} 1' in dump
    assert 'ring_ops{op="push",ring="wakeup"} 4' in dump


def test_render_key_no_labels():
    reg = MetricsRegistry()
    metric = reg.counter("plain")
    assert render_key(metric.key) == "plain"


def test_gauge():
    reg = MetricsRegistry()
    g = reg.gauge("depth")
    g.set(4.0)
    g.add(-1.5)
    assert g.value == 2.5
    assert "depth 2.5" in reg.dump()


def test_kind_clash_raises():
    reg = MetricsRegistry()
    reg.counter("x", a="1")
    with pytest.raises(TypeError):
        reg.gauge("x", a="1")
    # Same name with different labels is a different metric: fine.
    reg.gauge("x", a="2")


def test_timeweighted_needs_env():
    with pytest.raises(RuntimeError):
        MetricsRegistry().timeweighted("depth")


def test_timeweighted_metric_integral():
    env = Environment()
    reg = MetricsRegistry(env)
    m = reg.timeweighted("depth")

    def proc():
        m.set(2.0)
        yield env.timeout(10)
        m.set(0.0)

    env.process(proc())
    env.run(until=20)
    assert m.integral == pytest.approx(20.0)
    lines = dict(reg.sample_lines())
    assert lines["depth:last"] == "0"
    assert lines["depth:integral"] == "20"


def test_histogram_percentiles_bucket_resolution():
    reg = MetricsRegistry()
    h = reg.histogram("lat")
    for v in range(1, 101):
        h.record(float(v))
    assert h.count == 100
    assert h.vmin == 1.0
    assert h.vmax == 100.0
    # Nearest-rank to bucket lower bound: within 12.5% below the exact.
    for p, exact in ((50, 50.0), (99, 99.0), (100, 100.0)):
        got = h.percentile(p)
        assert got <= exact
        assert exact - got <= exact / 8.0 + 1e-9


def test_histogram_merge_equals_union():
    a = MetricsRegistry().histogram("x")
    b = MetricsRegistry().histogram("x")
    union = MetricsRegistry().histogram("x")
    for v in (1.0, 5.0, 9.0, 2000.0):
        a.record(v)
        union.record(v)
    for v in (3.0, 700.0):
        b.record(v)
        union.record(v)
    a.merge(b)
    assert a.count == union.count
    assert a.total == union.total
    assert a.buckets == union.buckets
    for p in (1, 50, 99, 100):
        assert a.percentile(p) == union.percentile(p)


def test_histogram_empty_percentile_nan():
    h = MetricsRegistry().histogram("x")
    assert math.isnan(h.percentile(50))
    assert h.sample_lines() == [("x:count", "0")]


def test_snapshot_delta():
    reg = MetricsRegistry()
    c = reg.counter("events")
    c.incr(2)
    before = reg.snapshot()
    c.incr(3)
    reg.counter("other").incr()
    delta = reg.delta(before)
    assert delta["events"] == ("2", "5")
    assert delta["other"] == ("", "1")
    assert reg.delta(reg.snapshot()) == {}


def test_digest_is_order_independent():
    a = MetricsRegistry()
    b = MetricsRegistry()
    a.counter("one").incr()
    a.counter("two").incr(2)
    b.counter("two").incr(2)
    b.counter("one").incr()
    assert a.digest() == b.digest()


def test_null_registry_records_nothing():
    NULL_REGISTRY.counter("x", a="b").incr(5)
    NULL_REGISTRY.histogram("y").record(1.0)
    NULL_REGISTRY.gauge("z").set(3.0)
    assert NULL_REGISTRY.counter("x", a="b") is NULL_METRIC
    assert len(NULL_REGISTRY) == 0
    assert NULL_REGISTRY.dump() == ""


# -- spans -------------------------------------------------------------------

def test_span_log_bounded_ring():
    log = SpanLog(capacity=3)
    for i in range(5):
        log.append(Span("s", "t", float(i), float(i), None))
    assert len(log) == 3
    assert log.recorded == 5
    assert log.evicted == 2
    assert [s.begin_ns for s in log] == [2.0, 3.0, 4.0]


def test_run_telemetry_span_and_begin_end():
    env = Environment()
    tel = Telemetry().attach(env, label="unit")
    assert env.telemetry is tel

    def proc():
        tel.span("setup", "trackA", dur_ns=5.0, n=1)
        open_span = tel.begin("work", "trackB")
        yield env.timeout(100)
        tel.end(open_span, outcome="done")

    env.process(proc())
    env.run()
    setup, = tel.spans.spans("setup")
    assert setup.duration_ns == 5.0
    assert setup.args == {"n": 1}
    work, = tel.spans.spans("work")
    assert work.duration_ns == 100.0
    assert work.args == {"outcome": "done"}
    assert tel.spans.tracks() == ["trackA", "trackB"]


def test_stage_filter():
    env = Environment()
    tel = Telemetry(stage_filter=["keep.this"]).attach(env)
    tel.span("keep.this", "t")
    tel.span("drop.that", "t")
    assert tel.begin("drop.that", "t") is None
    tel.end(None)  # must tolerate filtered-out begins
    assert tel.spans.stages() == ["keep.this"]


def test_install_attaches_new_environments():
    hub = Telemetry()
    with hub:
        env1 = Environment()
        env2 = Environment()
        assert env1.telemetry is not None
        assert env2.telemetry is not None
        assert env1.telemetry.run_index == 0
        assert env2.telemetry.run_index == 1
    # After uninstall new environments come up bare.
    env3 = Environment()
    assert env3.telemetry is None
    assert len(hub.runs) == 2


def test_install_is_restored_on_error():
    hub = Telemetry()
    with pytest.raises(RuntimeError):
        with hub:
            raise RuntimeError("boom")
    assert Environment().telemetry is None


# -- end-to-end instrumentation ---------------------------------------------

def _run_sched_deployment():
    """A small Shinjuku deployment; returns (env, kernel)."""
    env = Environment()
    machine = Machine(env, HwParams.pcie())
    channel = WaveChannel(machine, Placement.NIC, WaveOpts.full(), name="t")
    kernel = GhostKernel(channel, core_ids=[0, 1], rng=random.Random(1))
    agent = GhostAgent(channel, ShinjukuPolicy(30_000), kernel.core_ids)
    agent.start()
    kernel.start()
    tasks = [GhostTask(service_ns=100_000)] + \
        [GhostTask(service_ns=5_000) for _ in range(7)]

    def feeder():
        for task in tasks:
            yield from kernel.submit(task)

    env.process(feeder(), name="feeder")
    env.run(until=5_000_000)
    return env, kernel


def test_instrumented_run_emits_full_stack_spans():
    hub = Telemetry()
    with hub:
        env, kernel = _run_sched_deployment()
    assert kernel.completed == 8
    stages = hub.stages()
    for stage in ("sched.submit", "sched.queue", "core.dispatch",
                  "task.run", "agent.loop", "agent.commit",
                  "ring.produce", "ring.consume"):
        assert stage in stages, f"missing stage {stage}"
    assert len(stages) >= 5
    assert len(hub.tracks()) >= 3
    metrics = env.telemetry.metrics
    assert metrics.counter("sched_tasks", event="submit").value == 8
    assert metrics.counter("sched_tasks", event="complete").value == 8
    assert metrics.counter(
        "sched_policy_ops", policy="ShinjukuPolicy", op="dequeue").value >= 8
    assert metrics.histogram("sched_task_latency_ns").count == 8


def test_telemetry_does_not_perturb_simulation():
    """An instrumented run is numerically identical to a bare one."""
    env_bare, kernel_bare = _run_sched_deployment()
    with Telemetry():
        env_obs, kernel_obs = _run_sched_deployment()
    assert env_bare.telemetry is None
    assert kernel_bare.completed == kernel_obs.completed
    assert kernel_bare.preempted == kernel_obs.preempted
    assert kernel_bare.latency.count == kernel_obs.latency.count
    assert kernel_bare.latency.mean == kernel_obs.latency.mean
    assert kernel_bare.latency.p99 == kernel_obs.latency.p99


def test_same_seed_runs_have_identical_digests():
    hubs = []
    for _ in range(2):
        hub = Telemetry()
        with hub:
            _run_sched_deployment()
        hubs.append(hub)
    assert metrics_dump(hubs[0]) == metrics_dump(hubs[1])
    assert metrics_digest(hubs[0]) == metrics_digest(hubs[1])


# -- exporters ---------------------------------------------------------------

def test_chrome_trace_export(tmp_path):
    hub = Telemetry()
    with hub:
        _run_sched_deployment()
    path = tmp_path / "trace.json"
    n_events = write_chrome_trace(hub, str(path))
    assert n_events > 0
    data = json.loads(path.read_text())
    events = data["traceEvents"]
    meta = [e for e in events if e["ph"] == "M"]
    spans = [e for e in events if e["ph"] == "X"]
    begins = [e for e in events if e["ph"] == "B"]
    assert any(e["name"] == "process_name" for e in meta)
    thread_names = {e["args"]["name"] for e in meta
                    if e["name"] == "thread_name"}
    assert {"core0", "core1"} <= thread_names
    # Completed spans export as "X"; spans still open at export time
    # (e.g. a parked core's core.park) export as "B" begin events.
    assert len(spans) + len(begins) == n_events
    for event in spans[:50]:
        assert event["ts"] >= 0
        assert event["dur"] >= 0
        assert "." in event["name"]
        assert event["cat"] == event["name"].split(".", 1)[0]
    for event in begins:
        assert "dur" not in event
    # Cross-track causal edges export as flow pairs ("s" start at the
    # source, "f" with bp="e" at the destination).
    starts = [e for e in events if e["ph"] == "s"]
    finishes = [e for e in events if e["ph"] == "f"]
    assert starts and len(starts) == len(finishes)
    assert {e["id"] for e in starts} == {e["id"] for e in finishes}
    assert all(e["bp"] == "e" for e in finishes)


def test_metrics_dump_and_write(tmp_path):
    hub = Telemetry()
    with hub:
        _run_sched_deployment()
    dump = metrics_dump(hub)
    assert dump.startswith("== run0 ==")
    assert "spans.recorded" in dump
    path = tmp_path / "metrics.txt"
    digest = write_metrics(hub, str(path))
    text = path.read_text()
    assert text.endswith(f"digest {digest}\n")
    assert digest == metrics_digest(hub)


def test_run_report_sections():
    hub = Telemetry()
    with hub:
        _run_sched_deployment()
    text = run_report(hub, title="unit test")
    assert text.startswith("# unit test")
    assert "## Top event kinds" in text
    assert "## Stage latency breakdown (us)" in text
    assert "`task.run`" in text
    # No faults injected: no fault section.
    assert "Fault recovery timeline" not in text
    rows = stage_breakdown(hub)
    assert rows and all(len(r) == 6 for r in rows)


def test_report_includes_fault_timeline():
    from repro.bench.faults import ChaosTiming, run_chaos
    from repro.sim.faults import AGENT_CRASH

    hub = Telemetry()
    with hub:
        result = run_chaos(AGENT_CRASH, seed=42, timing=ChaosTiming.fast())
    assert result.detection_ns >= 0
    assert result.recovery_ns >= 0
    text = run_report(hub, title="chaos")
    assert "## Fault recovery timeline" in text
    assert "`fault.fire`" in text
    assert "`fault.verdict`" in text
    assert "`fault.recover`" in text


def test_chaos_span_latencies_match_manager_bookkeeping():
    """The span-derived chaos latencies must agree with the failover
    manager's own counters (the pre-span source of truth)."""
    from repro.bench.faults import ChaosTiming, run_chaos
    from repro.sim.faults import AGENT_HANG

    result = run_chaos(AGENT_HANG, seed=11, timing=ChaosTiming.fast())
    assert result.failovers >= 1
    assert result.detection_ns >= 0
    assert result.recovery_ns > 0


# -- profiler ----------------------------------------------------------------

def test_loop_profiler_attributes_time():
    profiler = LoopProfiler()
    hub = Telemetry(profiler=profiler)
    with hub:
        env, kernel = _run_sched_deployment()
    assert kernel.completed == 8
    assert profiler.steps > 0
    assert profiler.wall_s > 0
    kinds = dict((k, c) for k, c, _, _ in profiler.rows())
    assert any(k.startswith("Timeout") for k in kinds)
    # Trailing digits collapse: core0/core1 share one row.
    assert "Timeout:core" in kinds
    text = profiler.table(top=5)
    assert "event-loop profile" in text
    assert "wall ms" in text


def test_profiler_wall_clock_never_reaches_digest():
    """Two profiled runs have different wall clocks but equal digests."""
    digests = []
    for _ in range(2):
        hub = Telemetry(profiler=LoopProfiler())
        with hub:
            _run_sched_deployment()
        digests.append(metrics_digest(hub))
    assert digests[0] == digests[1]


# -- registry merging (process-pool shards) ----------------------------------

def test_registry_merge_accumulates_counters_and_histograms():
    a = MetricsRegistry()
    a.counter("ops", op="push").incr(3)
    a.histogram("lat").record(10.0)
    b = MetricsRegistry()
    b.counter("ops", op="push").incr(2)
    b.counter("ops", op="pop").incr()
    b.histogram("lat").record(1000.0)
    a.merge(b)
    assert a.counter("ops", op="push").value == 5
    assert a.counter("ops", op="pop").value == 1
    h = a.histogram("lat")
    assert h.count == 2
    assert h.total == 1010.0
    assert h.vmin == 10.0 and h.vmax == 1000.0


def test_registry_merge_empty_is_digest_noop():
    reg = MetricsRegistry()
    reg.counter("ops").incr(7)
    reg.histogram("lat").record(5.0)
    before = reg.digest()
    reg.merge(MetricsRegistry())
    assert reg.digest() == before


def test_merge_empty_histogram_does_not_perturb_digest():
    """The satellite-b edge case: a histogram key that exists in the
    merged-in registry but holds no samples (or only zero-count bucket
    entries) must leave the digest untouched."""
    reg = MetricsRegistry()
    reg.histogram("lat").record(5.0)
    before = reg.digest()

    other = MetricsRegistry()
    other.histogram("lat")  # registered, never recorded
    reg.merge(other)
    assert reg.digest() == before

    zeroed = MetricsRegistry()
    z = zeroed.histogram("lat")
    z.buckets[40] = 0  # hand-built shard state: a dead bucket entry
    reg.merge(zeroed)
    assert reg.digest() == before
    assert 40 not in reg.histogram("lat").buckets


def test_merge_zero_count_buckets_dropped_even_with_samples():
    reg = MetricsRegistry()
    reg.histogram("lat").record(5.0)
    other = MetricsRegistry()
    o = other.histogram("lat")
    o.record(7.0)
    o.buckets[99] = 0  # must not travel across the merge
    reg.merge(other)
    assert reg.histogram("lat").count == 2
    assert 99 not in reg.histogram("lat").buckets
    assert all(reg.histogram("lat").buckets.values())


def test_registry_merge_kind_mismatch_raises():
    a = MetricsRegistry()
    a.counter("x").incr()
    b = MetricsRegistry()
    b.gauge("x").set(1.0)
    with pytest.raises(TypeError):
        a.merge(b)


def test_registry_merge_into_empty_copies():
    src = MetricsRegistry()
    src.counter("ops").incr(4)
    dst = MetricsRegistry()
    dst.merge(src)
    assert dst.dump() == src.dump()
    # A copy, not an alias: mutating the source leaves dst alone.
    src.counter("ops").incr()
    assert dst.counter("ops").value == 4


# -- bound ring metric handles ------------------------------------------------

def _telemetry_ring(env):
    link = Machine(env, HwParams.pcie()).interconnect
    return FloemRing(env, "bound", link.host_path(PteType.WC),
                     link.nic_path(PteType.WB))


def test_produce_only_ring_registers_push_and_depth_only():
    """Handles bind on first use: a ring that is never polled or
    consumed adds no zero ``pop``/``poll`` counter to the dump."""
    env = Environment()
    run = Telemetry().attach(env)
    ring = _telemetry_ring(env)
    ring.produce(["a", "b"])
    ring.produce(["c"])
    env.run(until=100_000)
    assert [render_key(key) for key in run.metrics._metrics] == [
        'ring_ops{op="push",ring="bound"}', 'ring_depth{ring="bound"}']
    assert run.metrics.counter("ring_ops", ring="bound", op="push").value == 3


def test_ring_handles_rebind_to_a_new_hub():
    env = Environment()
    first = Telemetry().attach(env)
    ring = _telemetry_ring(env)
    ring.produce(["a", "b"])
    env.run(until=100_000)
    ring.consume()
    ring.poll_cost()
    frozen = first.metrics.dump()
    second = Telemetry().attach(env)
    ring.produce(["c"])
    env.run(until=200_000)
    ring.consume()
    ring.poll_cost()
    ring.poll_cost()
    assert first.metrics.dump() == frozen
    counter = second.metrics.counter
    assert counter("ring_ops", ring="bound", op="push").value == 1
    assert counter("ring_ops", ring="bound", op="pop").value == 1
    assert counter("ring_ops", ring="bound", op="poll").value == 2
    assert first.metrics.counter(
        "ring_ops", ring="bound", op="poll").value == 1


@pytest.mark.parametrize("scenario, multiqueue, digest", [
    ("OFFLOAD_ALL", True, "542b85f1d7fbfb6a"),
    ("ONHOST_ALL", False, "255d5bbf91628113"),
])
def test_rpc_point_metrics_digest_pinned(scenario, multiqueue, digest):
    """Binding handles lazily must register the same metrics, in the
    same order, with the same values as looking each one up per event;
    the digests were recorded with per-event lookups."""
    hub = Telemetry()
    with hub:
        run_rpc_point(RpcScenario[scenario], multiqueue, 230_000,
                      duration_ns=2_000_000, warmup_ns=500_000, seed=3)
    assert metrics_digest(hub) == digest

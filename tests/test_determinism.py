"""Golden-trace determinism regression for the simulation core.

The chaos layer's whole value proposition -- "any failure a sweep finds
replays exactly" -- rests on the simulator being a pure function of its
seed. These tests pin that property three ways on the Fig 4a FIFO
deployment (reduced scale so they stay test-fast):

1. two same-seed runs produce identical event sequences and stats;
2. different seeds actually produce different traces (the hash is not
   vacuously constant);
3. the reduced-scale trace matches a checked-in golden digest, so an
   accidental change to event ordering, RNG consultation order, or the
   timing model fails loudly instead of silently shifting every number.

The event hash covers each request's kind, arrival, and completion time
in arrival order -- not task ids, which are labelling only. (Ids once
depended on what ran earlier in the process; they now reset at every
``Environment`` construction -- see
``repro.sim.core.register_run_id_reset`` -- so pooled sweep workers
emit the same span args as a serial run. The hash predates that and
keeps its narrower footing.)

A second pin holds a full-scale Fig 4a point (Wave-15 FIFO at
700k req/s, seed 4) to the exact-order kernel's output: the
window-batched partitioned engine this repo once defaulted to completed
2,711 requests there instead of 2,708.

The differential tests at the bottom run the same figure points twice
and demand identical traces, aggregates, kernel counters, and telemetry
digests: with the removed engine flags set and unset (a stale setting
must change nothing), and with the timer wheel on and off (the two
queueing variants of the one dispatch loop).
"""

import dataclasses
import hashlib

from repro.core import Placement, WaveOpts
from repro.obs import Telemetry, metrics_digest
from repro.sched import FifoPolicy
from repro.sched.experiment import run_sched_point
from repro.sched.vm_experiment import run_vm_point
from repro.workloads import RocksDbModel

#: sha256 of the reduced-scale seed-1 event sequence. If a change to
#: the timing model or event ordering is *intentional*, rerun
#: ``_event_hash(_run()[1])`` and update this value in the same commit.
GOLDEN_DIGEST = \
    "9a3735f86405819cf1dde447e06e94a09863923228e2feadcfe19c70da1b0074"


def _run(seed=1, counters=None):
    """One reduced-scale Fig 4a FIFO point (NIC placement, 2 cores)."""
    sink = []
    result = run_sched_point(Placement.NIC, WaveOpts.full(), 2, FifoPolicy,
                             lambda rng: RocksDbModel.fifo_mix(rng),
                             rate_per_sec=120_000.0,
                             duration_ns=8_000_000.0, warmup_ns=1_000_000.0,
                             seed=seed, request_sink=sink, counters=counters)
    return result, sink


def _event_hash(requests):
    lines = []
    for i, request in enumerate(requests):
        done = (f"{request.completed_ns:.3f}"
                if request.completed_ns is not None else "-")
        lines.append(f"{i} {request.kind.name} "
                     f"arr={request.arrival_ns:.3f} done={done}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_same_seed_same_event_sequence():
    first_result, first_trace = _run(seed=1)
    second_result, second_trace = _run(seed=1)
    assert _event_hash(first_trace) == _event_hash(second_trace)
    # Dataclass equality: every aggregate (rates, percentiles, counts)
    # must match too, not just the trace.
    assert first_result == second_result


def test_different_seed_different_trace():
    _, first_trace = _run(seed=1)
    _, second_trace = _run(seed=2)
    assert _event_hash(first_trace) != _event_hash(second_trace)


def test_reduced_scale_trace_matches_golden_digest():
    _, trace = _run(seed=1)
    assert len(trace) > 500  # the window actually carries load
    assert _event_hash(trace) == GOLDEN_DIGEST, (
        "the reduced-scale Fig 4a FIFO event trace drifted from the "
        "checked-in golden digest: some change altered simulated event "
        "ordering, RNG consultation order, or timing. If intentional, "
        "update GOLDEN_DIGEST in this file in the same commit.")


#: sha256 of every result field (floats by repr) of the Fig 4a Wave-15
#: FIFO point at 700k req/s, seed 4, as the exact-order serial kernel
#: computes it.
WAVE15_SEED4_DIGEST = \
    "5bb7af208c003b4654de1db2e7dd1cd5b29ec2a4e8bca90c227361b5071f58f1"


def test_fig4a_wave15_seed4_matches_exact_order():
    """A point where window-batched dispatch diverged from exact order
    (2,711 completions, p50 32.32 us): the kernel must give the exact
    (time, priority, seq) result -- 2,708 completions, p50 33.06 us."""
    result = run_sched_point(Placement.NIC, WaveOpts.full(), 15, FifoPolicy,
                             RocksDbModel.fifo_mix, 700_000,
                             duration_ns=5e6, warmup_ns=1e6, seed=4)
    assert result.completed == 2708
    text = repr(sorted((k, repr(v)) for k, v in
                       dataclasses.asdict(result).items()))
    assert hashlib.sha256(text.encode()).hexdigest() == WAVE15_SEED4_DIGEST


# -- differential runs -----------------------------------------------------------

#: Flags that once chose among partitioned engines, with the values
#: that selected the serial engine, exact merge, and forced threads.
#: They are gone; a stale setting must leave every output unchanged.
REMOVED_ENGINE_FLAGS = {"REPRO_NO_PARTITION": "1",
                        "REPRO_NO_WINDOW_BATCH": "1",
                        "REPRO_PARALLEL_DOMAINS": "force"}


def _set_removed_flags(monkeypatch, on):
    for name, value in REMOVED_ENGINE_FLAGS.items():
        if on:
            monkeypatch.setenv(name, value)
        else:
            monkeypatch.delenv(name, raising=False)


def _set_wheel(monkeypatch, on):
    if on:
        monkeypatch.delenv("REPRO_NO_TIMER_WHEEL", raising=False)
    else:
        monkeypatch.setenv("REPRO_NO_TIMER_WHEEL", "1")


def _fig4a(seed=3):
    counters = {}
    result, trace = _run(seed=seed, counters=counters)
    return result, _event_hash(trace), counters


def _fig5():
    counters = {}
    result = run_vm_point(2, ticks=True, measure_ns=20_000_000,
                          counters=counters)
    return result, counters


def test_partition_off_matches_golden_digest(monkeypatch):
    """``REPRO_NO_PARTITION`` once selected the serial engine, whose
    trace the golden digest pins; with the flag gone a stale setting
    still yields that trace."""
    monkeypatch.setenv("REPRO_NO_PARTITION", "1")
    _, trace = _run(seed=1)
    assert _event_hash(trace) == GOLDEN_DIGEST


def test_fig4a_point_identical_partition_on_vs_off(monkeypatch):
    """Full Fig 4a point equality with the removed engine flags set and
    unset: every aggregate in the result dataclass, the raw event trace,
    and all of the kernel's event counters."""
    runs = []
    for on in (False, True):
        _set_removed_flags(monkeypatch, on)
        runs.append(_fig4a())
    assert runs[0] == runs[1]
    assert runs[0][2]["events_dispatched"] > 0


def test_fig4a_point_batched_matches_serial(monkeypatch):
    """The timer wheel files timers into time buckets and promotes them
    a bucket at a time; the Fig 4a point must come out exactly as from
    the plain heap. (Promotions count as schedulings, so only
    ``events_scheduled`` may differ.)"""
    runs = []
    for on in (True, False):
        _set_wheel(monkeypatch, on)
        result, digest, counters = _fig4a()
        runs.append((result, digest, counters["events_logical"],
                     counters["events_dispatched"]))
    assert runs[0] == runs[1]


def test_fig5_point_identical_partition_on_vs_off(monkeypatch):
    """The Fig 5 vCPU-scheduling point -- a different model stack (VM
    host, busy loops, tick machinery) -- is identical too."""
    runs = []
    for on in (False, True):
        _set_removed_flags(monkeypatch, on)
        runs.append(_fig5())
    assert runs[0] == runs[1]


def test_fig5_point_batched_matches_serial(monkeypatch):
    """Timer wheel on and off on the Fig 5 stack: result-identical."""
    runs = []
    for on in (True, False):
        _set_wheel(monkeypatch, on)
        result, counters = _fig5()
        runs.append((result, counters["events_logical"],
                     counters["events_dispatched"]))
    assert runs[0] == runs[1]


def test_telemetry_digest_identical_partition_on_vs_off(monkeypatch):
    """The observability layer sees the same history: stage spans,
    counters, and histograms digest identically with the removed engine
    flags set and unset."""
    digests = []
    for on in (False, True):
        _set_removed_flags(monkeypatch, on)
        hub = Telemetry()
        with hub:
            _run(seed=1)
        digests.append(metrics_digest(hub))
    assert digests[0] == digests[1]

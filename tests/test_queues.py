"""Tests for Floem-style rings and DMA queues."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hw import HwParams, Interconnect, PteType, DmaEngine
from repro.queues import FloemRing, DmaQueue, QueueType
from repro.sim import Environment
from repro.sim.faults import DMA_TIMEOUT, MSG_DELAY, FaultInjector, FaultPlan


def make_mmio_ring(env, params=None, host_pte=PteType.WC,
                   nic_pte=PteType.WB, host_produces=True, **kw):
    """A host<->NIC MMIO ring as Wave configures them (section 5.3)."""
    params = params or HwParams.pcie()
    link = Interconnect(params)
    host = link.host_path(host_pte)
    nic = link.nic_path(nic_pte)
    if host_produces:
        return FloemRing(env, "h2n", host, nic, coherent=True, **kw)
    # NIC produces, host consumes over non-coherent PCIe with caching.
    coherent = not (host_pte.caches_reads and not params.coherent)
    return FloemRing(env, "n2h", nic, host, coherent=coherent, **kw)


def test_queue_type_enum():
    assert QueueType.DMA_SYNC.is_dma
    assert QueueType.DMA_ASYNC.is_dma
    assert not QueueType.MMIO.is_dma


def test_ring_rejects_bad_params():
    env = Environment()
    params = HwParams.pcie()
    link = Interconnect(params)
    with pytest.raises(ValueError):
        FloemRing(env, "bad", link.host_local_path(), link.host_local_path(),
                  entry_words=0)


def test_produce_then_consume_after_visibility():
    env = Environment()
    ring = make_mmio_ring(env)
    log = {}

    def producer():
        cost = ring.produce(["m1", "m2"])
        log["produce_cost"] = cost
        yield env.timeout(cost)

    def consumer():
        yield ring.wait_nonempty()
        items, cost = ring.consume()
        log["items"] = items
        log["seen_at"] = env.now

    env.process(producer())
    env.process(consumer())
    env.run()
    assert log["items"] == ["m1", "m2"]
    # Visibility includes the PCIe one-way delay.
    assert log["seen_at"] >= HwParams.pcie().mmio_write_visibility


def test_wc_batch_producer_cost():
    """Host WC producer: per-word buffered writes + one flush."""
    env = Environment()
    params = HwParams.pcie()
    ring = make_mmio_ring(env, params)
    cost = ring.produce(["a", "b", "c"])
    expected = 3 * 7 * params.wc_buffered_write + params.wc_flush
    assert cost == pytest.approx(expected)


def test_uc_producer_costs_more_than_wc():
    env = Environment()
    wc = make_mmio_ring(env, host_pte=PteType.WC)
    uc = make_mmio_ring(env, host_pte=PteType.UC)
    assert uc.produce(["a"]) > wc.produce(["a"])


def test_fifo_order_preserved():
    env = Environment()
    ring = make_mmio_ring(env)
    got = []

    def producer():
        for i in range(10):
            yield env.timeout(ring.produce([i]))

    def consumer():
        while len(got) < 10:
            yield ring.wait_nonempty()
            items, cost = ring.consume()
            yield env.timeout(cost)
            got.extend(items)

    env.process(producer())
    env.process(consumer())
    env.run()
    assert got == list(range(10))


def test_capacity_drops_and_counts():
    env = Environment()
    ring = make_mmio_ring(env, capacity=2)
    ring.produce([1, 2, 3, 4])
    assert len(ring) == 2
    assert ring.dropped == 2
    assert ring.produced == 2


def test_consume_respects_visibility_horizon():
    env = Environment()
    ring = make_mmio_ring(env)
    ring.produce(["early"])
    # Immediately: nothing visible yet (PCIe delay).
    items, _ = ring.consume()
    assert items == []
    env.run(until=10_000)
    items, _ = ring.consume()
    assert items == ["early"]


def test_poll_cost_noncoherent_consumer_includes_clflush():
    env = Environment()
    params = HwParams.pcie()
    # NIC produces, host consumes with WT caching: poll needs clflush.
    ring = make_mmio_ring(env, params, host_pte=PteType.WT,
                          host_produces=False)
    assert not ring.coherent
    assert ring.poll_cost() >= params.clflush + params.mmio_read_uc


def test_poll_cost_local_consumer_cheap():
    env = Environment()
    params = HwParams.pcie()
    ring = make_mmio_ring(env, params)  # NIC consumes locally (WB)
    assert ring.poll_cost() == params.nic_access_wb


def test_decision_read_cost_wt_beats_uc():
    """Section 5.3.2: WT decision reads amortize across the line."""
    env = Environment()
    params = HwParams.pcie()
    wt = make_mmio_ring(env, params, host_pte=PteType.WT, host_produces=False)
    uc = make_mmio_ring(env, params, host_pte=PteType.UC, host_produces=False)
    wt.produce(["d"])
    uc.produce(["d"])
    env.run(until=10_000)
    _, wt_cost = wt.consume()
    _, uc_cost = uc.consume()
    assert wt_cost < uc_cost


def test_wait_nonempty_fires_for_future_entry():
    env = Environment()
    ring = make_mmio_ring(env)
    woke = []

    def consumer():
        yield ring.wait_nonempty()
        woke.append(env.now)

    def producer():
        yield env.timeout(5_000)
        yield env.timeout(ring.produce(["x"]))

    env.process(consumer())
    env.process(producer())
    env.run()
    assert len(woke) == 1
    assert woke[0] >= 5_000


def test_wait_nonempty_immediate_when_visible():
    env = Environment()
    ring = make_mmio_ring(env)
    ring.produce(["x"])
    env.run(until=10_000)
    event = ring.wait_nonempty()
    assert event.triggered


@settings(deadline=None, max_examples=30)
@given(st.lists(st.integers(), min_size=0, max_size=40),
       st.integers(min_value=1, max_value=8))
def test_ring_conservation(items, batch):
    """Everything produced is eventually consumed, exactly once, in order."""
    env = Environment()
    ring = make_mmio_ring(env)
    got = []

    def producer():
        for item in items:
            yield env.timeout(ring.produce([item]))

    def consumer():
        while len(got) < len(items):
            yield ring.wait_nonempty()
            batch_items, cost = ring.consume(max_batch=batch)
            yield env.timeout(cost)
            got.extend(batch_items)

    env.process(producer())
    env.process(consumer())
    env.run(until=10_000_000)
    assert got == items
    assert ring.consumed == len(items)


# -- cached soonest-visible time ---------------------------------------------

#: One step of a random ring workload: produce a batch of n entries,
#: consume up to k, wait for the ring to become non-empty, or let
#: simulated time run for some nanoseconds.
_RING_OPS = st.lists(st.one_of(
    st.tuples(st.just("produce"), st.integers(1, 5)),
    st.tuples(st.just("consume"), st.integers(1, 4)),
    st.tuples(st.just("wait"), st.just(0)),
    # Short advances land between a batch's visibility (~1 us) and a
    # delayed batch's; long ones let everything become visible.
    st.tuples(st.just("advance"),
              st.one_of(st.integers(1, 3_000), st.integers(1, 40_000))),
), max_size=50)


def _check_soonest_cache(env, queue, ops):
    """Apply ``ops`` to ``queue``, checking its ``_soonest`` cache after
    every step and every wait's wake time against a brute-force scan."""
    expected = {}  # wait step -> simulated time it must fire at
    fired = {}
    pending = []   # waits on an empty queue: the next batch wakes them

    def brute_soonest():
        return min((t for _, t in queue._entries), default=None)

    for step, (op, arg) in enumerate(ops):
        now = env.now
        if op == "produce":
            produced = queue.produced
            queue.produce([step] * arg)
            if queue.produced > produced:
                visible_at = queue._entries[-1][1]
                for waited in pending:
                    expected[waited] = now + max(0.0, visible_at - now)
                pending.clear()
        elif op == "consume":
            queue.consume(max_batch=arg)
        elif op == "wait":
            soonest = brute_soonest()
            event = queue.wait_nonempty()
            event.callbacks.append(
                lambda _event, step=step: fired.setdefault(step, env.now))
            if soonest is None:
                pending.append(step)
            elif soonest <= now:
                expected[step] = now
            else:
                expected[step] = now + max(0.0, soonest - now)
        else:
            env.run(until=now + arg)
        if queue._soonest is not None:
            assert queue._soonest == brute_soonest(), (step, op)
    env.run()
    assert {step: fired.get(step) for step in expected} == expected
    assert not any(step in fired for step in pending)


@settings(deadline=None, max_examples=100)
@given(_RING_OPS, st.integers(0, 2 ** 16), st.integers(2, 12))
def test_ring_soonest_cache_matches_brute_force(ops, seed, capacity):
    """FloemRing under msg-delay faults: delayed batches leave entries
    whose visibility is out of FIFO order, and a small capacity adds
    rejected batches."""
    env = Environment()
    ring = make_mmio_ring(env, capacity=capacity)
    FaultInjector(env, seed=seed, plans=[
        FaultPlan(MSG_DELAY, probability=0.4, delay_ns=25_000.0)]).arm()
    _check_soonest_cache(env, ring, ops)


@settings(deadline=None, max_examples=100)
@given(_RING_OPS, st.integers(0, 2 ** 16), st.booleans())
def test_dma_queue_soonest_cache_matches_brute_force(ops, seed, sync):
    """DmaQueue: batch size sets the wire time, and dma-timeout retries
    push some batches out, so arrivals are out of FIFO order too."""
    env = Environment()
    params = HwParams.pcie()
    link = Interconnect(params)
    queue = DmaQueue(env, "dma", DmaEngine(env, params),
                     link.host_local_path(), link.nic_path(PteType.WB),
                     sync=sync)
    FaultInjector(env, seed=seed, plans=[
        FaultPlan(DMA_TIMEOUT, probability=0.3)]).arm()
    _check_soonest_cache(env, queue, ops)


class TestDmaQueue:
    def make(self, env, sync=False):
        params = HwParams.pcie()
        link = Interconnect(params)
        dma = DmaEngine(env, params)
        # Host produces into host DRAM; DMA lands in NIC DRAM.
        return DmaQueue(env, "dma", dma, link.host_local_path(),
                        link.nic_path(PteType.WB), sync=sync), params

    def test_async_producer_does_not_wait_wire_time(self):
        env = Environment()
        queue, params = self.make(env, sync=False)
        cost, completion = queue.produce(list(range(100)))
        env2 = Environment()
        sync_queue, _ = self.make(env2, sync=True)
        sync_cost, _ = sync_queue.produce(list(range(100)))
        wire = queue.dma.transfer_duration(100 * queue.entry_bytes)
        # Async saves exactly the wire time vs sync (iPipe's 2-7x win).
        assert sync_cost - cost == pytest.approx(wire)
        assert completion is not None

    def test_sync_producer_waits_wire_time(self):
        env = Environment()
        queue, params = self.make(env, sync=True)
        cost, completion = queue.produce(list(range(100)))
        wire = queue.dma.transfer_duration(100 * queue.entry_bytes)
        assert cost > wire
        assert completion is None

    def test_items_arrive_after_transfer(self):
        env = Environment()
        queue, params = self.make(env, sync=False)
        got = []

        def producer():
            cost, completion = queue.produce(["a", "b"])
            yield env.timeout(cost)

        def consumer():
            yield queue.wait_nonempty()
            items, cost = queue.consume()
            got.append((env.now, items))

        env.process(producer())
        env.process(consumer())
        env.run()
        assert got[0][1] == ["a", "b"]
        assert got[0][0] >= params.dma_base_latency

    def test_empty_produce_free(self):
        env = Environment()
        queue, _ = self.make(env)
        assert queue.produce([]) == (0.0, None)

    def test_batched_transfer_amortizes_base_latency(self):
        env = Environment()
        queue, params = self.make(env, sync=True)
        one_by_one = sum(queue.produce([i])[0] for i in range(10))
        env2 = Environment()
        queue2, _ = self.make(env2, sync=True)
        batched = queue2.produce(list(range(10)))[0]
        assert batched < one_by_one

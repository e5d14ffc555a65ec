"""DMA-backed unidirectional queue (Floem's design, paper section 5.3).

The producer writes entries to *its own* local DRAM cheaply, then kicks
the DMA engine (a few MMIO doorbell writes) to move the batch into the
consumer's local DRAM; the consumer then reads locally and coherently.
Synchronous mode blocks the producer for the wire time; asynchronous
mode lets the producer continue (prior work: 2-7x faster) and deliver
on completion.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Optional, Tuple

from repro.hw.dma import DmaEngine
from repro.hw.paths import MemPath
from repro.queues.ring import (RingMetrics, batch_links, lower_soonest,
                               relink_batch, soonest_visible)
from repro.sim import Environment, Event


class DmaQueue:
    """SPSC queue whose transport is the SmartNIC DMA engine."""

    def __init__(self, env: Environment, name: str, dma: DmaEngine,
                 producer_path: MemPath, consumer_path: MemPath,
                 entry_words: int = 6, sync: bool = False):
        if entry_words <= 0:
            raise ValueError("entry_words must be positive")
        self.env = env
        self.name = name
        self.dma = dma
        self.producer_path = producer_path
        self.consumer_path = consumer_path
        self.entry_words = entry_words
        self.sync = sync
        self._entries: Deque[Tuple[Any, float]] = deque()
        #: Minimum ``visible_at`` over ``_entries``; None when unknown
        #: (see :func:`repro.queues.ring.soonest_visible`).
        self._soonest: Optional[float] = None
        self._waiters: List[Event] = []
        self._metrics = RingMetrics(name)
        self.produced = 0
        self.consumed = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def entry_bytes(self) -> int:
        return (self.entry_words + 1) * 8  # payload + valid flag

    def produce(self, items: List[Any]) -> Tuple[float, Optional[Event]]:
        """Enqueue a batch via one DMA descriptor.

        Returns ``(producer_cpu_cost, completion)``. In synchronous mode
        the CPU cost already includes the wire time (the producer busy
        waits) and ``completion`` is None; in asynchronous mode the
        producer only pays local writes + doorbells, and ``completion``
        fires when the data lands on the consumer side.
        """
        if not items:
            return 0.0, None
        tel = getattr(self.env, "telemetry", None)
        span = pctx = None
        if tel is not None:
            # Record the hop before launching so the engine's transfer
            # span can descend from it; the duration is patched below
            # once the (possibly synchronous) cost is final.
            span = tel.span("dmaq.produce", f"ring:{self.name}", dur_ns=0.0,
                            links=batch_links(items), n=len(items),
                            sync=self.sync)
            pctx = tel.ctx_after(span)
        cost = 0.0
        for _ in items:
            cost += self.producer_path.write_words(0, self.entry_words + 1)
        cost += self.producer_path.flush_writes()
        cost += self.dma.setup_cost()
        nbytes = len(items) * self.entry_bytes
        # One launch per descriptor batch: the duration (which includes
        # any injected timeout/retry penalty) and the completion event
        # come from the same draw, so arrival and completion agree.
        duration, completion = self.dma.launch(nbytes, ctx=pctx)
        if self.sync:
            cost += duration
        arrival = self.env.now + cost + (0.0 if self.sync else duration)
        lower_soonest(self, arrival, not self._entries)
        for item in items:
            self._entries.append((item, arrival))
        self.produced += len(items)
        self._announce(arrival)
        if tel is not None:
            span.end_ns = span.begin_ns + cost
            relink_batch(tel, span, items)
            self._metrics.op(tel, "push").incr(len(items))
        if self.sync:
            return cost, None
        return cost, completion

    def _announce(self, visible_at: float) -> None:
        if not self._waiters:
            return
        delay = max(0.0, visible_at - self.env.now)
        waiters, self._waiters = self._waiters, []

        def waker():
            yield self.env.timeout(delay)
            for waiter in waiters:
                if not waiter.triggered:
                    waiter.succeed()

        self.env.process(waker(), name=f"{self.name}-waker")

    def visible_count(self) -> int:
        now = self.env.now
        return sum(1 for _, t in self._entries if t <= now)

    def consume(self, max_batch: int = 1 << 30) -> Tuple[List[Any], float]:
        """Dequeue visible entries; consumer reads are local + coherent."""
        now = self.env.now
        items: List[Any] = []
        cost = 0.0
        while self._entries and len(items) < max_batch:
            item, visible_at = self._entries[0]
            if visible_at > now + cost:
                break
            self._entries.popleft()
            if visible_at == self._soonest:
                self._soonest = None
            cost += self.consumer_path.read_words(0, self.entry_words + 1,
                                                  now + cost)
            items.append(item)
        self.consumed += len(items)
        if items:
            tel = getattr(self.env, "telemetry", None)
            if tel is not None:
                span = tel.span("dmaq.consume", f"ring:{self.name}",
                                dur_ns=cost, links=batch_links(items),
                                n=len(items))
                relink_batch(tel, span, items)
                self._metrics.op(tel, "pop").incr(len(items))
        return items, cost

    def wait_nonempty(self) -> Event:
        """Event firing when at least one entry is (or becomes) visible."""
        event = Event(self.env)
        soonest = soonest_visible(self)
        if soonest is not None and soonest <= self.env.now:
            event.succeed()
        else:
            self._waiters.append(event)
            if soonest is not None:
                self._announce(soonest)
        return event

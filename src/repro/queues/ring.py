"""The Floem-style single-producer single-consumer ring.

Per paper section 5.3: fixed-size entries; the producer writes an
entry's payload first and sets a per-entry valid flag *last*, so the
consumer never reads a half-written entry. Messages can be batched; the
queue is backed by SmartNIC DRAM for MMIO queues (the host accesses it
over PCIe, agents access it locally and coherently).

Cost convention: every operation returns the CPU nanoseconds the calling
actor must charge itself (by yielding ``env.timeout(cost)``); entry
*visibility* to the other side additionally includes the path's one-way
visibility delay, which the ring tracks internally.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Optional, Tuple

from repro.hw.paths import MemPath
from repro.obs.metrics import CounterFamily
from repro.obs.spans import SpanCtx
from repro.sim import Environment, Event

_INF = float("inf")


def relink_batch(tel, span, items) -> None:
    """Re-point each item's request context through a batch span.

    A ring/queue hop serves many requests at once: the batch span links
    back to every item's prior span (fan-in), and each item's context is
    advanced to the batch span while keeping its own request id, so the
    per-request chains stay separable on the far side (fan-out).
    """
    if span is None:
        return
    for item in items:
        ctx = getattr(item, "ctx", None)
        if ctx is not None:
            item.ctx = SpanCtx(ctx.req, span.span_id)


def batch_links(items):
    """The span ids feeding a batch hop (for the span's ``links``)."""
    links = []
    for item in items:
        ctx = getattr(item, "ctx", None)
        if ctx is not None and ctx.span is not None:
            links.append(ctx.span)
    return links or None


def soonest_visible(queue) -> Optional[float]:
    """Minimum ``visible_at`` over ``queue._entries`` (None when empty).

    The queue caches the minimum in ``_soonest``: producers lower it and
    a consume that pops the minimum clears it to None ("unknown"), so
    the scan below runs only after such a pop, not on every poll.
    """
    soonest = queue._soonest
    if soonest is None and queue._entries:
        soonest = queue._soonest = min(t for _, t in queue._entries)
    return soonest


def lower_soonest(queue, visible_at: float, was_empty: bool) -> None:
    """Fold a just-produced batch's ``visible_at`` into the cache."""
    soonest = queue._soonest
    if soonest is None:
        if was_empty:
            queue._soonest = visible_at
    elif visible_at < soonest:
        queue._soonest = visible_at


class RingMetrics:
    """A ring's ``ring_ops``/``ring_depth`` handles, bound on first use.

    Each handle is looked up in the run's registry the first time the
    ring needs it, never at construction: a pre-registered zero counter
    would add a line to the metrics dump (and so to its digest) and a
    series to the timelines. The handles belong to one registry; when
    the environment's telemetry changes (a new hub attached), they are
    looked up again in the new registry.
    """

    __slots__ = ("ring", "_ops", "_depth_registry", "_depth")

    def __init__(self, ring: str):
        self.ring = ring
        self._ops = CounterFamily("ring_ops", "op", ring=ring)
        self._depth_registry = None
        self._depth = None

    def op(self, tel, op: str):
        """The ``ring_ops{op=...}`` counter in ``tel``'s registry."""
        return self._ops.get(tel, op)

    def depth(self, tel):
        """The ``ring_depth`` time-weighted value in ``tel``'s registry."""
        registry = tel.metrics
        if registry is not self._depth_registry:
            self._depth_registry = registry
            self._depth = registry.timeweighted("ring_depth", ring=self.ring)
        return self._depth


class PollTrain:
    """Empty polls skipped by :meth:`FloemRing.fast_forward_polls`, not
    yet credited to ``ring_ops{op="poll"}``.

    The polls happened at ``next_at``, ``next_at + step``, ... (``left``
    of them), each time reached by the float addition the kernel's
    timeout would have made. A credit registered with
    :meth:`repro.sim.Environment.defer`: a timeline sample at boundary
    ``b`` settles the polls before ``b`` and nothing else.
    """

    __slots__ = ("counter", "next_at", "step", "left")

    def __init__(self, counter, next_at: float, step: float, left: int):
        self.counter = counter
        self.next_at = next_at
        self.step = step
        self.left = left

    def settle(self, before: float) -> bool:
        """Credit the polls strictly before ``before``; True once none
        are left."""
        left = self.left
        if before == _INF:
            n = left
        else:
            n = 0
            at = self.next_at
            step = self.step
            while n < left and at < before:
                n += 1
                at += step
            self.next_at = at
        if n:
            self.counter.incr(n)
            self.left = left - n
        return not self.left


class FloemRing:
    """SPSC ring with per-entry valid flags and batching."""

    def __init__(self, env: Environment, name: str,
                 producer_path: MemPath, consumer_path: MemPath,
                 entry_words: int = 6, capacity: int = 1024,
                 coherent: bool = True):
        if entry_words <= 0 or capacity <= 0:
            raise ValueError("entry_words and capacity must be positive")
        self.env = env
        self.name = name
        self.producer_path = producer_path
        self.consumer_path = consumer_path
        self.entry_words = entry_words
        self.capacity = capacity
        #: False when the consumer reads through a non-coherent cache and
        #: must clflush before reading fresh entries (section 5.3.2).
        self.coherent = coherent
        self._entries: Deque[Tuple[Any, float]] = deque()  # (item, visible_at)
        #: Minimum ``visible_at`` over ``_entries``; None when unknown
        #: (see :func:`soonest_visible`).
        self._soonest: Optional[float] = None
        self._waiters: List[Event] = []
        self._metrics = RingMetrics(name)
        #: Polls skipped by the last fast-forward and not yet credited;
        #: the consumer's next consume or wait credits them, and so do
        #: timeline samples and the end of every Environment.run.
        self._train: Optional[PollTrain] = None
        self._next_slot = 0  # byte address allocator for cache modelling
        self.produced = 0
        self.consumed = 0
        self.dropped = 0
        #: Entries lost / duplicated by fault injection (distinct from
        #: ``dropped``, which counts capacity-overflow backpressure).
        self.fault_dropped = 0
        self.fault_duplicated = 0
        self.max_depth = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    # -- producer ---------------------------------------------------------

    def produce(self, items: List[Any], via: MemPath = None) -> float:
        """Enqueue a batch; returns producer CPU cost.

        Each entry costs ``entry_words`` payload writes plus one valid
        flag write; a single flush makes the whole batch visible (the WC
        batching optimization of section 5.3.1). Items beyond capacity
        are dropped and counted -- system software treats a full queue as
        backpressure.

        ``via`` lets a differently-placed producer use its own path to
        the same backing memory (e.g. a co-located SmartNIC RPC stack
        writing the scheduler's NIC-resident message ring locally).
        """
        producer = via if via is not None else self.producer_path
        faults = getattr(self.env, "faults", None)
        fault_delay = 0.0
        if faults is not None:
            items, fault_delay, n_dropped, n_duplicated = (
                faults.on_ring_produce(self.name, items))
            self.fault_dropped += n_dropped
            self.fault_duplicated += n_duplicated
        cost = 0.0
        accepted = 0
        accepted_items: List[Any] = []
        for item in items:
            if self.full:
                self.dropped += 1
                continue
            addr = self._alloc_slot()
            cost += producer.write_words(addr, self.entry_words + 1)
            self._entries.append((item, None))  # visibility patched below
            accepted_items.append(item)
            accepted += 1
        cost += producer.flush_writes()
        if faults is not None:
            cost *= faults.path_cost_factor(producer)
        visible_at = (self.env.now + cost
                      + producer.visibility_delay() + fault_delay)
        if accepted:
            # Patch the visibility of the entries just appended.
            patched = []
            for _ in range(accepted):
                item, _ = self._entries.pop()
                patched.append((item, visible_at))
            lower_soonest(self, visible_at, not self._entries)
            self._entries.extend(reversed(patched))
            self.produced += accepted
            self.max_depth = max(self.max_depth, len(self._entries))
            self._announce(visible_at)
        tel = getattr(self.env, "telemetry", None)
        if tel is not None:
            span = tel.span("ring.produce", f"ring:{self.name}", dur_ns=cost,
                            links=batch_links(accepted_items), n=accepted)
            relink_batch(tel, span, accepted_items)
            self._metrics.op(tel, "push").incr(accepted)
            self._metrics.depth(tel).set(len(self._entries))
        return cost

    def _alloc_slot(self) -> int:
        addr = (self._next_slot % self.capacity) * (self.entry_words + 1) * 8
        self._next_slot += 1
        return addr

    def _announce(self, visible_at: float) -> None:
        if not self._waiters:
            return
        delay = max(0.0, visible_at - self.env.now)
        waiters, self._waiters = self._waiters, []

        def waker():
            if delay:
                yield self.env.timeout(delay)
            else:
                yield self.env.timeout(0)
            for waiter in waiters:
                if not waiter.triggered:
                    waiter.succeed()

        self.env.process(waker(), name=f"{self.name}-waker")

    # -- consumer ---------------------------------------------------------

    def visible_count(self) -> int:
        """Entries the consumer could read right now."""
        now = self.env.now
        return sum(1 for _, t in self._entries if t <= now)

    def poll_cost(self) -> float:
        """Cost of one empty-handed poll: check the head valid flag."""
        cost = 0.0
        if not self.coherent:
            cost += self.consumer_path.invalidate(0, 1)
        cost += self.consumer_path.read_words(0, 1, self.env.now + cost)
        faults = getattr(self.env, "faults", None)
        if faults is not None:
            cost *= faults.path_cost_factor(self.consumer_path)
        tel = getattr(self.env, "telemetry", None)
        if tel is not None:
            self._metrics.op(tel, "poll").incr()
        return cost

    def consume(self, max_batch: int = 64) -> Tuple[List[Any], float]:
        """Dequeue up to ``max_batch`` visible entries.

        Returns ``(items, cost)``. Cost covers the valid-flag read and
        payload reads per entry (plus software-coherence invalidations
        for non-coherent cached consumers).
        """
        if self._train is not None:
            self._land()
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
            addr = self._read_addr()
            words = self.entry_words + 1
            if not self.coherent:
                cost += self.consumer_path.invalidate(addr, words)
            cost += self.consumer_path.read_words(addr, words, now + cost)
            items.append(item)
        faults = getattr(self.env, "faults", None)
        if faults is not None:
            cost *= faults.path_cost_factor(self.consumer_path)
        self.consumed += len(items)
        if items:
            tel = getattr(self.env, "telemetry", None)
            if tel is not None:
                span = tel.span("ring.consume", f"ring:{self.name}",
                                dur_ns=cost, links=batch_links(items),
                                n=len(items))
                relink_batch(tel, span, items)
                self._metrics.op(tel, "pop").incr(len(items))
                self._metrics.depth(tel).set(len(self._entries))
        return items, cost

    def fast_forward_polls(self, cost: float) -> float:
        """Delay to the consumer's next poll that can find anything.

        Call right after an empty poll that cost ``cost``, when the
        caller knows that the rest of its loop iteration is a no-op
        until it polls again. Returns the delay to yield instead of
        ``cost``: the time of the first later poll, among
        ``now + cost``, ``now + cost + cost``, ... (the float additions
        the kernel would make), at which the FIFO head may be visible,
        another event may have run, or the :meth:`Environment.run` in
        progress has stopped. The polls in between would each find the
        head invisible and change nothing else, so they are skipped and
        credited to ``ring_ops{op="poll"}`` (lazily, see
        :class:`PollTrain`). Returns ``cost`` (one ordinary poll) when
        nothing can be skipped:

        - outside :meth:`Environment.run`, or when the ring is empty;
        - when the consumer path crosses the interconnect: its cost can
          change with time (pcie-stall windows, the host's MMIO cache);
        - when no entry is visible: the consumer then sleeps in
          :meth:`wait_nonempty` instead of polling;
        - when the landing time is not exactly ``now + delay``.
        """
        env = self.env
        horizon = env.horizon
        if (horizon is None or not self._entries or cost <= 0.0
                or self.consumer_path.crosses_interconnect):
            return cost
        now = env.now
        poll_at = now + cost
        head_at = self._entries[0][1]
        if poll_at >= head_at or soonest_visible(self) > now:
            return cost
        bound = min(head_at, env.peek())
        skipped = 0
        while poll_at < bound and poll_at <= horizon:
            skipped += 1
            poll_at += cost
        delay = poll_at - now
        if not skipped or now + delay != poll_at:
            return cost
        tel = getattr(env, "telemetry", None)
        if tel is not None:
            self._train = PollTrain(self._metrics.op(tel, "poll"),
                                    now + cost, cost, skipped)
            env.defer(self._train)
        return delay

    def _land(self) -> None:
        """Credit the skipped polls: the consumer is back, so every one
        of them is past."""
        train, self._train = self._train, None
        train.settle(_INF)

    def _read_addr(self) -> int:
        addr = (self.consumed % self.capacity) * (self.entry_words + 1) * 8
        return addr

    def wait_nonempty(self) -> Event:
        """An event that fires once at least one entry is visible.

        Consumers loop: ``yield ring.wait_nonempty()`` then ``consume``;
        a woken consumer may still find the ring raced empty and must
        re-wait.
        """
        if self._train is not None:
            self._land()
        event = Event(self.env)
        now = self.env.now
        soonest = soonest_visible(self)
        if soonest is not None and soonest <= now:
            event.succeed()
        elif soonest is not None:
            self._waiters.append(event)
            self._announce(soonest)
        else:
            self._waiters.append(event)
        return event

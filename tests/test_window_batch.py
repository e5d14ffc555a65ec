"""Exact-order dispatch and the removed window-batching flags.

The kernel has one dispatch loop. ``REPRO_NO_WINDOW_BATCH`` and
``REPRO_PARALLEL_DOMAINS`` once chose how a partitioned engine batched
and threaded its windows; they select nothing now, and a stale setting
must leave dispatch unchanged. The rest pins the serial kernel
behaviour those modes had to reproduce: exact ``(time, priority, seq)``
order, an event seeded mid-run neither lost nor late, Store hand-offs,
and cancelled timers dropped from the wheel without being dispatched.
"""

import pytest

from repro.sim import Environment, Store


def _workload(env):
    """Timers from three components, with same-time ties; returns the
    dispatch log."""
    fired = []
    for name, base in (("host", 100.0), ("ic", 700.0), ("nic", 1300.0)):
        for k in range(40):
            t = env.timeout(base + 600.0 * (k // 2) + 1800.0 * (k % 3))
            t.callbacks.append(
                lambda ev, n=name, k=k: fired.append((n, k, env.now)))
    env.run(until=200_000.0)
    return fired


def _exact(fired):
    """``fired`` re-sorted into (time, insertion order) -- the order
    exact dispatch must already have produced."""
    order = {(n, k): i for i, (n, k) in enumerate(
        (n, k) for n in ("host", "ic", "nic") for k in range(40))}
    return sorted(fired, key=lambda e: (e[2], order[(e[0], e[1])]))


@pytest.fixture
def reference(monkeypatch):
    """The dispatch log with no engine flag set."""
    for name in ("REPRO_NO_PARTITION", "REPRO_NO_WINDOW_BATCH",
                 "REPRO_PARALLEL_DOMAINS"):
        monkeypatch.delenv(name, raising=False)
    fired = _workload(Environment())
    assert len(fired) == 120
    assert fired == _exact(fired)
    return fired


# -- stale engine flags ------------------------------------------------------

def test_no_window_batch_hatch_pins_exact_merge(monkeypatch, reference):
    monkeypatch.setenv("REPRO_NO_WINDOW_BATCH", "1")
    env = Environment()
    assert env.partition is None
    assert _workload(env) == reference


@pytest.mark.parametrize("value,threaded", [
    ("0", False), ("off", False), ("no", False), ("false", False),
    ("1", True), ("yes", True), ("force", True),
])
def test_parallel_domains_mode_resolution(monkeypatch, reference, value,
                                          threaded):
    """``threaded`` is the mode each value once selected; neither kind
    of value changes dispatch now."""
    monkeypatch.setenv("REPRO_PARALLEL_DOMAINS", value)
    env = Environment()
    assert env.partition is None
    assert _workload(env) == reference, (value, threaded)


def test_parallel_domains_auto_matches_build(monkeypatch, reference):
    """``auto`` once picked threads on free-threaded builds only; on any
    build the run is the serial one."""
    monkeypatch.setenv("REPRO_PARALLEL_DOMAINS", "auto")
    assert _workload(Environment()) == reference


def test_forced_threaded_run_matches_serial(monkeypatch, reference):
    """``force`` once ran domain windows on threads, which matched the
    serial timeline only after a canonical sort; the log is now the
    serial one exactly, raw order included."""
    monkeypatch.setenv("REPRO_PARALLEL_DOMAINS", "force")
    assert _workload(Environment()) == reference


def test_telemetry_pins_exact_merge(reference):
    """Span ordering is observable, so an instrumented run must
    dispatch in the same exact order as a bare one."""
    from repro.obs import Telemetry
    with Telemetry():
        assert _workload(Environment()) == reference


# -- exact-order dispatch ------------------------------------------------------

def test_unfenced_fast_path_when_one_queue_nonempty():
    """Timers from one component dispatch by time, ties in insertion
    order."""
    env = Environment()
    fired = []
    for delay in (300.0, 100.0, 200.0, 100.0):
        t = env.timeout(delay)
        t.callbacks.append(lambda ev, d=delay: fired.append((d, env.now)))
    env.run(until=1_000.0)
    assert fired == [(100.0, 100.0), (100.0, 100.0),
                     (200.0, 200.0), (300.0, 300.0)]
    assert env.events_dispatched == 4


def test_unfenced_path_closes_on_cross_insert():
    """An event that seeds another mid-run: the seeded event must be
    dispatched at its own time, ahead of a later one already queued,
    and not lost."""
    env = Environment()
    fired = []

    def seeder(ev):
        seeded = env.timeout(2_000.0)
        seeded.callbacks.append(lambda e: fired.append(("seeded", env.now)))

    first = env.timeout(100.0)
    late = env.timeout(50_000.0)
    first.callbacks.append(seeder)
    late.callbacks.append(lambda ev: fired.append(("late", env.now)))
    env.run(until=100_000.0)
    assert fired == [("seeded", 2_100.0), ("late", 50_000.0)]


def test_single_domain_store_keeps_batching():
    """A Store hands every item to its consumer at the put's time, in
    put order."""
    env = Environment()
    store = Store(env)
    got = []

    def producer():
        for i in range(20):
            yield env.timeout(500.0)
            yield store.put(i)

    def consumer():
        while True:
            item = yield store.get()
            got.append((item, env.now))

    env.process(producer())
    env.process(consumer())
    env.run(until=100_000.0)
    assert got == [(i, 500.0 * (i + 1)) for i in range(20)]


# -- cancelled timers in the wheel ---------------------------------------------

def test_window_close_purges_cancelled_wheel_entries():
    """Cancelling a backlog of far wheel timers: the entries leave the
    wheel when their buckets come due, without ever being dispatched."""
    env = Environment(use_wheel=True)
    timers = [env.timeout(400_000.0 + i * 977.0) for i in range(72)]
    driver = env.timeout(50.0)

    def cancel_all(ev):
        for t in timers:
            del t.callbacks[:]
            t.cancel()

    driver.callbacks.append(cancel_all)
    env.run(until=600_000.0)
    assert env._wheel.dropped_cancelled == len(timers)
    assert len(env._wheel) == 0
    assert env.events_dispatched == 1  # the driver only


def test_serial_env_counts_purges_too():
    """A single cancelled far timer is dropped and counted too."""
    env = Environment(use_wheel=True)
    t = env.timeout(400_000.0)
    del t.callbacks[:]
    t.cancel()
    env.run(until=1_000_000.0)
    assert env._wheel.dropped_cancelled == 1
    assert env.events_dispatched == 0

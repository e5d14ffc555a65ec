"""Staged-dispatch + re-arm interleavings between processes.

The *stale-seq* bug class: a re-armed :class:`PollTimer` leaves its
old queue entry behind, and every place that entry can surface (heap
pop, staged fast path, wheel promotion) must re-key it at the re-arm
deadline and sequence number, and equal deadlines must still
tie-break on seq. These scenarios were first written against
per-domain queues (one process plays the NIC side, the other the host
side); they pin each interleaving on the single dispatch loop, against
absolute expectations and differentially with the timer wheel on and
off.
"""

from repro.sim import Environment, PollTimer


def _both_engines(program):
    """Run one program with and without the timer wheel; logs must
    match."""
    heap = program(Environment(use_wheel=False))
    wheel = program(Environment(use_wheel=True))
    assert heap == wheel
    return heap


def test_rearm_from_other_domain_dispatch_fires_at_new_deadline():
    """A poll timer whose stale entry sits in the queue is re-armed
    during another process's dispatch; it must fire once, at the new
    deadline, with the wheel on and off."""
    def program(env):
        log = []
        poll = PollTimer(env)

        def driver():
            timer = poll.arm(600.0)
            del timer.callbacks[:]
            timer.cancel()
            yield env.timeout(200.0)  # dispatch at t=200
            again = poll.arm(800.0)  # stale entry @600, fire at 1000
            assert again is timer  # in-place reuse
            again.callbacks.append(lambda ev: log.append(("fire", env.now)))
            yield env.timeout(5_000.0)

        env.process(driver())
        env.run(until=10_000.0)
        return log

    assert _both_engines(program) == [("fire", 1000.0)]


def test_rearm_while_stale_entry_staged_across_domains():
    """The staged-fast-path regression: the arm, cancel, and re-arm
    all happen inside one dispatch while other timers own the next
    events -- the stale entry rides the staged list and must be
    re-keyed, not fired early."""
    def program(env):
        log = []
        fired = []
        poll = PollTimer(env)

        def on_start(_):
            timer = poll.arm(200.0)
            del timer.callbacks[:]
            timer.cancel()
            again = poll.arm(500.0)  # in-place reuse; stale entry staged
            assert again is timer
            again.callbacks.append(lambda ev: fired.append(env.now))

        starter = env.timeout(10.0)
        starter.callbacks.append(on_start)

        # Traffic bracketing the poll deadlines.
        for delay in (100.0, 300.0, 600.0):
            t = env.timeout(delay)
            t.callbacks.append(
                lambda ev, d=delay: log.append(("host", d, env.now)))
        env.run(until=1_000.0)
        return log, fired

    log, fired = _both_engines(program)
    assert fired == [510.0]
    assert log == [("host", 100.0, 100.0), ("host", 300.0, 300.0),
                   ("host", 600.0, 600.0)]


def test_equal_deadline_rearm_tiebreaks_across_queues():
    """An equal-deadline re-arm must tie-break on seq exactly like a
    fresh timeout: the 'mid' timer (earlier seq) fires before the
    re-armed poll timer (later seq), same timestamp."""
    def program(env):
        log = []
        poll = PollTimer(env)

        def driver():
            ev = env.event()
            timer = poll.arm(100.0)

            def kicker():
                yield env.timeout(10.0)
                ev.succeed()

            env.process(kicker())
            yield env.any_of([ev, timer])  # resumes at t=10; loser cancelled
            mid = env.timeout(90.0)        # same deadline t=100
            mid.callbacks.append(lambda e: log.append("mid"))
            again = poll.arm(90.0)         # seq after mid's
            again.callbacks.append(lambda e: log.append("poll"))
            yield env.timeout(300.0)

        env.process(driver())
        env.run(until=1_000.0)
        return log

    assert _both_engines(program) == ["mid", "poll"]


def test_rearm_surfacing_via_wheel_promotion_in_other_domain():
    """A far-future poll entry parked in the *wheel* is re-armed; the
    stale entry must be re-keyed at promotion time while another
    process keeps dispatching."""
    def program(env):
        log = []
        poll = PollTimer(env)

        def driver():
            timer = poll.arm(50_000.0)  # parks in the fine wheel
            del timer.callbacks[:]
            timer.cancel()
            yield env.timeout(1_000.0)
            again = poll.arm(60_000.0)  # stale wheel entry @50_000
            again.callbacks.append(lambda ev: log.append(("fire", env.now)))
            # Heartbeat spanning the promotion window.
            for _ in range(8):
                yield env.timeout(10_000.0)
                log.append(("beat", env.now))

        env.process(driver())
        env.run(until=200_000.0)
        return log

    log = _both_engines(program)
    assert ("fire", 61_000.0) in log


def test_cross_domain_sends_interleave_with_rearm():
    """Timers from a second process landing between the poll timer's
    re-arms leave every poll firing on time."""
    def program(env):
        log = []
        poll = PollTimer(env)

        def poller():
            for i in range(6):
                timer = poll.arm(700.0)
                timer.callbacks.append(
                    lambda ev, i=i: log.append(("poll", i, env.now)))
                yield timer

        def sender():
            for i in range(6):
                t = env.timeout(500.0 + 137.0 * i, i)
                t.callbacks.append(
                    lambda ev, i=i: log.append(("x", i, env.now)))
                yield env.timeout(400.0)

        env.process(poller())
        env.process(sender())
        env.run(until=10_000.0)
        return log

    log = _both_engines(program)
    assert [e for e in log if e[0] == "poll"] == [
        ("poll", i, 700.0 * (i + 1)) for i in range(6)]

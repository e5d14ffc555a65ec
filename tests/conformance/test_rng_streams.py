"""RNG draw-order conformance for named streams.

Model components draw from **named streams** (:mod:`repro.sim.rngs`),
so each component's draw sequence is a pure function of its own event
order. These tests pin that contract with generated programs whose
every event records ``(tag, time, stream, draw)``: every kernel
configuration (heap, wheel, escape hatches) must reproduce the
reference log, the per-stream draw sequences and the dispatch count
byte for byte.

A failure here means some configuration changed which events consult
which stream, or the order a stream's events run in.
"""

from hypothesis import given, settings, strategies as st

from repro.sim.rngs import RngStreams

from tests.conformance.engines import ENGINE_CONFIGS, REFERENCE

#: Root seed for every program's stream family. Any value works; it is
#: fixed so failures replay.
ROOT_SEED = 0xC0FFEE

#: Stream names the generated programs draw from.
STREAMS = ("host", "ic", "nic")

#: Timer delays spanning inline, wheel, and coarse-wheel routing.
_DELAYS = [1.0, 200.0, 4096.0, 30_000.0, 400_000.0]

_op = st.one_of(
    # One event that draws once from one of the streams.
    st.tuples(st.just("draw"), st.integers(min_value=0, max_value=2),
              st.sampled_from(_DELAYS)),
    # An event whose callback draws a *delay* from its stream and
    # schedules a follow-up on the same stream: timing itself becomes a
    # function of the stream, so a draw-order slip shifts timestamps
    # and fails loudly rather than only flipping logged values.
    st.tuples(st.just("chain"), st.integers(min_value=0, max_value=2),
              st.sampled_from(_DELAYS), st.integers(min_value=1, max_value=3)),
    # Let simulated time pass in the driver.
    st.tuples(st.just("run"), st.integers(min_value=1, max_value=20)),
)

_programs = st.lists(_op, min_size=1, max_size=40)


def run_program(config, ops):
    """Replay one generated program on ``config``'s kernel.

    Returns ``(log, per_stream_draws, events_dispatched)``; the log is
    in dispatch order, entries ``(tag, time, stream, draw)``.
    """
    env = config.build()
    streams = RngStreams(ROOT_SEED)
    log = []
    drawn = {name: [] for name in STREAMS}

    def draw(name):
        value = streams.stream(name).random()
        drawn[name].append(value)
        return value

    def logger(tag, name):
        def callback(event):
            log.append((tag, env.now, name, draw(name)))
        return callback

    def chainer(tag, name, count):
        def callback(event):
            log.append((tag, env.now, name, draw(name)))
            if count > 0:
                # The follow-up's delay comes off the same stream: the
                # event *timeline* now depends on draw order.
                nxt = env.timeout(1.0 + draw(name) * 5000.0)
                nxt.callbacks.append(chainer(f"{tag}+", name, count - 1))
        return callback

    def driver():
        for n, op in enumerate(ops):
            kind = op[0]
            if kind == "draw":
                _, idx, delay = op
                timer = env.timeout(delay)
                timer.callbacks.append(logger(f"d{n}", STREAMS[idx]))
            elif kind == "chain":
                _, idx, delay, count = op
                timer = env.timeout(delay)
                timer.callbacks.append(chainer(f"c{n}", STREAMS[idx], count))
            else:  # "run"
                yield env.timeout(float(op[1]) * 977.0)
        yield env.timeout(2_000_000.0)  # drain wheels and chains

    env.process(driver())
    env.run(until=4_000_000.0)
    return log, drawn, env.events_dispatched


@settings(deadline=None, max_examples=25)
@given(_programs)
def test_stream_draws_identical_across_engines(ops):
    reference = run_program(REFERENCE, ops)
    for config in ENGINE_CONFIGS[1:]:
        assert run_program(config, ops) == reference, (
            f"config {config.name!r} diverged on {ops!r}")


#: A fixed program exercising every op kind and all three streams -- the
#: full-matrix smoke bar.
_SMOKE = [("draw", 0, 200.0), ("chain", 1, 1.0, 3), ("draw", 2, 1_512.0),
          ("run", 5), ("draw", 2, 30_000.0), ("chain", 0, 4096.0, 2),
          ("draw", 0, 31_000.0), ("run", 12), ("chain", 2, 400_000.0, 3),
          ("draw", 1, 1.0), ("draw", 0, 1_000.0), ("run", 3)]


def test_smoke_program_full_matrix():
    """Every shipped config agrees with the reference on the smoke
    program, and the program consults every stream."""
    reference = run_program(REFERENCE, _SMOKE)
    log, drawn, dispatched = reference
    assert len(log) > 10  # the program actually drew
    assert all(drawn[name] for name in STREAMS)  # every stream consulted
    for config in ENGINE_CONFIGS[1:]:
        assert run_program(config, _SMOKE) == reference, config.name

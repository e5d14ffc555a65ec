"""Kernel conformance suite.

The simulation kernel has one dispatch loop with interchangeable
queueing: plain heap, or heap + timer wheel, plus the escape-hatch
env-var variants. Every configuration must produce *identical
observable behaviour*: the same ``(time, priority, seq)`` dispatch
order, the same timestamps and values, the same ``_seq`` stream and
``events_dispatched`` count. (Admission counters -- ``events_scheduled``,
``timers_coalesced``, wheel diagnostics -- are queue-mechanism-dependent
and excluded.)

``engines.py`` enumerates the configurations;
``test_kernel_conformance.py`` drives a hypothesis-generated program
(schedule / cancel / poll re-arm / same-turn cascades / interrupts)
through every configuration and asserts the logs are equal;
``test_cross_domain_rearm.py`` pins the staged-dispatch + re-arm
interleavings between processes (the stale-seq bug class);
``test_rng_streams.py`` pins per-stream RNG draw order.
"""

"""The benchmark's four workloads: real experiment points, and their checks.

Each workload is a list of points. A point calls one of the repo's point
functions directly (serially, in this process) and returns the result;
``check`` turns that result into a digest of the simulated outputs plus
the invariant violations an outside observer can see. Simulated
statistics are correctness outputs here, never metrics.

Every point's simulated traffic is open-loop Poisson at a fixed rate,
generated inside the simulation from the point's seed. The benchmark
itself is a closed loop: one client runs one point after another.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Any, Callable, Dict, List, Optional

from repro.bench.faults import ChaosTiming, run_chaos
from repro.core import Placement, WaveOpts
from repro.ghost.failover import DEFAULT_FAILOVER_DELAY_NS
from repro.mem.agent import MemAgentPlacement
from repro.mem.experiment import run_footprint, run_sol_agent
from repro.obs import Telemetry, metrics_digest
from repro.rpc.experiment import RpcScenario, run_rpc_point
from repro.sched import FifoPolicy
from repro.sched.experiment import run_sched_point
from repro.workloads import RocksDbModel

#: The modules a workload run imports; the set-up metric times
#: importing exactly these in a fresh interpreter.
REPRO_MODULES = ("repro.bench.faults", "repro.core", "repro.mem.agent",
                 "repro.mem.experiment", "repro.obs", "repro.rpc.experiment",
                 "repro.sched", "repro.sched.experiment", "repro.workloads")


@dataclasses.dataclass
class Point:
    """One experiment point of a workload."""

    label: str
    #: ``run(seed)`` -> result; everything it does before the first
    #: ``Environment.run`` call counts as set-up.
    run: Callable[[int], Any]
    #: ``check(result, arrivals)`` -> (digest text, problems). ``arrivals``
    #: is the request count of the point's load generators (None when
    #: the point has none).
    check: Callable[[Any, Optional[int]], tuple]


def _fields(result) -> str:
    """Exact text of a result dataclass (floats by repr: every digit)."""
    return repr(sorted((k, repr(v)) for k, v in
                       dataclasses.asdict(result).items()))


def _check_latency(result, arrivals, problems: List[str]) -> None:
    if arrivals is None:
        problems.append("no load generator was started")
    elif result.completed > arrivals:
        problems.append(f"completed {result.completed} > arrivals "
                        f"{arrivals}")
    if not result.get_p50_ns <= result.get_p99_ns:
        problems.append(f"p50 {result.get_p50_ns} > p99 {result.get_p99_ns}")
    if result.completed <= 0:
        problems.append("no request completed")


# -- sched_fifo --------------------------------------------------------------

#: Fig 4a FIFO (10 us GETs, 15 workers): below the knee and at it.
SCHED_RATES = (700_000.0, 870_000.0)
SCHED_PLACEMENTS = (("wave15", Placement.NIC), ("onhost", Placement.HOST))


def _sched_point(placement: Placement, rate: float, duration_ns: float):
    def run(seed: int):
        return run_sched_point(placement, WaveOpts.full(), 15, FifoPolicy,
                               RocksDbModel.fifo_mix, rate,
                               duration_ns=duration_ns,
                               warmup_ns=duration_ns / 5, seed=seed)

    def check(result, arrivals):
        problems: List[str] = []
        _check_latency(result, arrivals, problems)
        return _fields(result), problems
    return run, check


def sched_fifo(tiny: bool) -> List[Point]:
    duration = 500_000.0 if tiny else 5_000_000.0
    return [Point(f"{name}@{rate / 1e3:.0f}k",
                  *_sched_point(placement, rate, duration))
            for name, placement in SCHED_PLACEMENTS
            for rate in SCHED_RATES]


# -- rpc_report --------------------------------------------------------------

#: Fig 6 near 230k req/s: Offload-All with the multi-queue SLO policy,
#: OnHost-All with single-queue Shinjuku.
RPC_RATE = 230_000.0
RPC_SCENARIOS = (("offload-all-mq", RpcScenario.OFFLOAD_ALL, True),
                 ("onhost-all-sq", RpcScenario.ONHOST_ALL, False))


def _rpc_point(scenario: RpcScenario, multiqueue: bool,
               duration_ns: float):
    def run(seed: int):
        # A full hub, as ``python -m repro report fig6`` installs.
        telemetry = Telemetry()
        with telemetry:
            result = run_rpc_point(scenario, multiqueue, RPC_RATE,
                                   duration_ns=duration_ns,
                                   warmup_ns=duration_ns / 4, seed=seed)
        return result, telemetry

    def check(outcome, arrivals):
        result, telemetry = outcome
        problems: List[str] = []
        _check_latency(result, arrivals, problems)
        if not telemetry.runs:
            problems.append("telemetry hub recorded no run")
        return _fields(result) + metrics_digest(telemetry), problems
    return run, check


def rpc_report(tiny: bool) -> List[Point]:
    duration = 1_000_000.0 if tiny else 12_000_000.0
    return [Point(name, *_rpc_point(scenario, mq, duration))
            for name, scenario, mq in RPC_SCENARIOS]


# -- mem_sol -----------------------------------------------------------------

#: Address space of the tiny smoke run (full runs use the model's 100 GiB).
TINY_MEM_BYTES = 2 * 1024 ** 3


def _sol_point(placement: MemAgentPlacement, n_cores: int,
               total_bytes: Optional[int], epochs: float):
    def run(seed: int):
        return run_sol_agent(placement, n_cores, total_bytes=total_bytes,
                             epochs=epochs, seed=seed)

    def check(agent, arrivals):
        problems: List[str] = []
        duration_ms = agent.steady_state_duration_ms()
        if not duration_ms > 0:
            problems.append(f"steady-state iteration {duration_ms} ms")
        total_gib = agent.space.total_bytes / 1024 ** 3
        if not agent.tiers.fast_gib < total_gib:
            problems.append(f"footprint {agent.tiers.fast_gib} GiB did not "
                            f"shrink below {total_gib} GiB")
        text = repr((duration_ms, agent.tiers.fast_gib,
                     [(r.when_ns, r.duration_ns, r.batches_scanned, r.epoch)
                      for r in agent.records]))
        return text, problems
    return run, check


def _footprint_point(total_bytes: Optional[int], epochs: int):
    def run(seed: int):
        return run_footprint(epochs=epochs, total_bytes=total_bytes,
                             seed=seed)

    def check(result, arrivals):
        problems: List[str] = []
        if not result.end_gib < result.start_gib:
            problems.append(f"footprint {result.start_gib} -> "
                            f"{result.end_gib} GiB did not shrink")
        if not result.get_p50_us <= result.get_p99_us:
            problems.append(f"p50 {result.get_p50_us} > p99 "
                            f"{result.get_p99_us}")
        return _fields(result), problems
    return run, check


def mem_sol(tiny: bool) -> List[Point]:
    # None: the model's full 100 GiB / 409,600-batch address space.
    total = TINY_MEM_BYTES if tiny else None
    points = [Point(f"sol-{placement.value}-{cores}c",
                    *_sol_point(placement, cores, total, 1.1))
              for placement in (MemAgentPlacement.NIC,
                                MemAgentPlacement.HOST)
              for cores in (1, 16)]
    points.append(Point("footprint", *_footprint_point(total, 2)))
    return points


# -- chaos_faults ------------------------------------------------------------

CHAOS_PLANS = ("none", "agent-crash", "msg-delay")


#: Watchdog timeout of the shortened chaos runs.
CHAOS_WATCHDOG_NS = 1_000_000.0
#: Simulated load time of the chaos runs; ``run_chaos`` drains for half
#: as long again after it (see ``chaos_timing``).
CHAOS_DURATION_NS = 8_000_000.0


def chaos_timing(tiny: bool) -> ChaosTiming:
    """``ChaosTiming.fast`` shortened to 8 ms; ``tiny`` lowers the rate.

    The crash at 1.2 ms is detected within the 1 ms watchdog timeout.
    A request that arrives within a microsecond of the horizon is
    counted as submitted, but ``loadgen.stop()`` cuts its TASK_NEW send
    short (about 5% of seeds at 80k req/s). Only pull-based recovery
    finds such a task: the watchdog recycles the idle agent after its
    timeout plus one check period, and the replacement pulls the
    kernel's runnable snapshot after the failover delay. So the drain
    window must cover all three, as it does at the repo's own timings.
    A 2 ms drain (4 ms runs) was too short for that.
    """
    drain_ns = CHAOS_DURATION_NS / 2
    needed_ns = (CHAOS_WATCHDOG_NS * 1.25 + DEFAULT_FAILOVER_DELAY_NS)
    assert drain_ns >= needed_ns + 500_000.0, (drain_ns, needed_ns)
    return ChaosTiming(duration_ns=CHAOS_DURATION_NS, warmup_ns=300_000.0,
                       fault_at_ns=1_200_000.0,
                       rate_per_sec=20_000.0 if tiny else 80_000.0,
                       watchdog_timeout_ns=CHAOS_WATCHDOG_NS)


def _chaos_point(plan: str, timing: ChaosTiming):
    def run(seed: int):
        return run_chaos(plan, seed=seed, timing=timing)

    def check(result, arrivals):
        problems: List[str] = []
        if result.completed != result.submitted:
            problems.append(f"did not drain: {result.completed}/"
                            f"{result.submitted} completed")
        if plan != "none" and result.fault_fires <= 0:
            problems.append("fault plan never fired")
        return result.digest(), problems
    return run, check


def chaos_faults(tiny: bool) -> List[Point]:
    timing = chaos_timing(tiny)
    return [Point(plan, *_chaos_point(plan, timing)) for plan in CHAOS_PLANS]


WORKLOADS: Dict[str, Callable[[bool], List[Point]]] = {
    "sched_fifo": sched_fifo,
    "rpc_report": rpc_report,
    "mem_sol": mem_sol,
    "chaos_faults": chaos_faults,
}


def digest(texts: List[str]) -> str:
    """Short digest of a sequence of point digest texts."""
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]

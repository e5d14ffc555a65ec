"""End-to-end scheduling experiment harness (paper section 7.2).

Builds one complete simulated deployment -- machine, Wave channel, ghOSt
kernel on N worker cores, scheduling agent (on host or SmartNIC), and an
open-loop RocksDB load generator -- runs it, and reports the
latency/throughput observations behind Fig 4 and the section 7.2.2
optimization table.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Callable, List, Optional

from repro.core import Placement, WaveChannel, WaveOpts
from repro.ghost import GhostAgent, GhostKernel, GhostTask, SchedCosts
from repro.hw import HwParams, Machine
from repro.obs.timeline import SloSpec
from repro.sched.policy import SchedPolicy
from repro.sim import Environment, LatencyStats
from repro.workloads import PoissonLoadGen, Request, RequestKind, RocksDbModel

#: Default measurement window (simulated).
DEFAULT_DURATION_NS = 40_000_000.0
#: Arrivals in the first part of the run are excluded from statistics.
DEFAULT_WARMUP_NS = 8_000_000.0

#: Streaming SLO specs for ``python -m repro timeline``: the windowed
#: GET p99 against the 300 us saturation limit the Fig 4 sweeps use to
#: call a load point saturated (``repro.bench.fig4_fifo.P99_LIMIT_NS``).
SLO_SPECS = (
    SloSpec(name="sched-get-p99", metric="sched_task_latency_ns",
            threshold_ns=300_000.0),
)


@dataclasses.dataclass
class SchedPointResult:
    """Observations from one (scenario, offered-load) run."""

    offered_rate: float            #: requests/sec offered
    achieved_rate: float           #: requests/sec completed in window
    get_p50_ns: float
    get_p99_ns: float
    get_mean_ns: float
    completed: int
    preemptions: int
    prestages: int
    dispatches: int
    failed_txns: int
    #: Runnable tasks left queued at the end of the run -- a growing
    #: backlog marks over-saturation even while short requests still
    #: complete (the dispersive Shinjuku mix).
    end_backlog: int = 0
    #: The same backlog measured in queued work (ms), which weighs a
    #: queued RANGE 1000x a queued GET.
    end_backlog_work_ms: float = 0.0

    @property
    def get_p99_us(self) -> float:
        return self.get_p99_ns / 1_000.0


def run_sched_point(placement: Placement,
                    opts: WaveOpts,
                    n_worker_cores: int,
                    policy_factory: Callable[[], SchedPolicy],
                    model_factory: Callable[[random.Random], RocksDbModel],
                    rate_per_sec: float,
                    duration_ns: float = DEFAULT_DURATION_NS,
                    warmup_ns: float = DEFAULT_WARMUP_NS,
                    seed: int = 1,
                    params: Optional[HwParams] = None,
                    costs: Optional[SchedCosts] = None,
                    completion_cost_ns: float = 0.0,
                    request_sink: Optional[List[Request]] = None,
                    counters: Optional[dict] = None
                    ) -> SchedPointResult:
    """Run one load point and return its observations.

    ``request_sink``, when given, receives every generated
    :class:`Request` (in arrival order) after the run -- the raw event
    sequence behind the aggregates, used by the golden-trace
    determinism tests. ``counters``, when given, is filled with the
    kernel's event counters after the run (the perf bench's
    per-benchmark ``events_scheduled`` accounting).
    """
    env = Environment()
    machine = Machine(env, params or HwParams.pcie())
    channel = WaveChannel(machine, placement, opts, name="sched")
    rng = random.Random(seed)
    kernel = GhostKernel(channel, core_ids=list(range(n_worker_cores)),
                         costs=costs, rng=rng)
    kernel.completion_cost_ns = completion_cost_ns
    policy = policy_factory()
    agent = GhostAgent(channel, policy, kernel.core_ids)
    agent.start()
    kernel.start()
    model = model_factory(random.Random(seed + 1))

    def submit(request: Request):
        task = GhostTask(service_ns=model.task_service_ns(request),
                         payload=request)
        yield from kernel.submit(task)

    loadgen = PoissonLoadGen(env, model, rate_per_sec, submit,
                             seed=seed + 2, warmup_ns=warmup_ns)
    loadgen.start()
    env.run(until=duration_ns)
    if request_sink is not None:
        request_sink.extend(loadgen.requests)
    if counters is not None:
        counters.update(events_scheduled=env.events_scheduled,
                        events_dispatched=env.events_dispatched,
                        events_logical=env._seq,
                        timers_coalesced=env.timers_coalesced)

    window_s = (duration_ns - warmup_ns) / 1e9
    gets = LatencyStats("get")
    completed = 0
    for request in loadgen.requests:
        if request.completed_ns is None:
            continue
        if request.completed_ns < warmup_ns:
            continue
        completed += 1
        if request.kind is RequestKind.GET:
            gets.record(request.latency_ns)
    return SchedPointResult(
        offered_rate=rate_per_sec,
        achieved_rate=completed / window_s,
        get_p50_ns=gets.p50,
        get_p99_ns=gets.p99,
        get_mean_ns=gets.mean,
        completed=completed,
        preemptions=kernel.preempted,
        prestages=agent.prestages,
        dispatches=agent.dispatches,
        failed_txns=kernel.failed_txns,
        end_backlog=policy.runnable_count(),
        end_backlog_work_ms=policy.queued_work_ns() / 1e6,
    )


def sweep_load(placement: Placement,
               opts: WaveOpts,
               n_worker_cores: int,
               policy_factory: Callable[[], SchedPolicy],
               model_factory: Callable[[random.Random], RocksDbModel],
               rates: List[float],
               jobs: Optional[int] = None,
               **kwargs) -> List[SchedPointResult]:
    """One latency-vs-throughput curve (one line of Fig 4).

    Each (scenario, rate) point is an independent simulation, so with
    ``jobs > 1`` the points fan out across a process pool; results come
    back in rate order and are byte-identical to a serial sweep (the
    factories must then be picklable -- module-level callables, not
    closures, or the sweep silently degrades to serial).
    """
    from repro.bench.parallel import PointSpec, run_points
    return run_points(
        [PointSpec(run_sched_point,
                   (placement, opts, n_worker_cores, policy_factory,
                    model_factory, rate),
                   dict(kwargs),
                   label=f"rate={rate:g}")
         for rate in rates],
        jobs=jobs)


def saturation_throughput(results: List[SchedPointResult],
                          p99_limit_ns: float) -> float:
    """The curve's knee: highest achieved throughput whose GET p99 is
    still under ``p99_limit_ns`` (how "saturates at X" is read off the
    paper's figures)."""
    eligible = [r.achieved_rate for r in results
                if r.get_p99_ns <= p99_limit_ns]
    return max(eligible) if eligible else 0.0


def saturation_by_backlog(results: List[SchedPointResult],
                          backlog_limit: int) -> float:
    """Saturation for dispersive mixes (Fig 4b / Fig 6): the highest
    achieved throughput at which the run ends without an accumulating
    run-queue backlog. Past this point long requests pile up unboundedly
    even though short requests still complete."""
    eligible = [r.achieved_rate for r in results
                if r.end_backlog <= backlog_limit]
    return max(eligible) if eligible else 0.0

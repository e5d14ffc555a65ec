"""Outside-in layer tracer for the end-to-end benchmark.

The tracer edits nothing in ``repro``. For the length of a traced pass
it replaces class attributes -- the public entry points of each model
layer, ``Environment.run`` and ``Process._resume_inner`` -- with timing
wrappers, and puts the originals back afterwards.

Self time: a wrapped call's host time minus the time covered by the
wrapped calls nested inside it. Each process-generator resumption is a
wrapped call charged to the layer that owns the code the generator
resumes in (the innermost generator of its ``yield from`` chain), so the
model code run by ``Process`` is attributed to its package, not to the
kernel. ``Environment.run`` charges what remains -- the dispatch loop
itself and plain (non-process) callbacks -- to ``sim``. Host time
outside every wrapped call, and wrapped time in code that belongs to no
layer (such as closures defined in ``repro.bench``), is the
``unattributed_s`` remainder.
"""

from __future__ import annotations

import collections
import os
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.channel import WaveChannel
from repro.core.txn import TxnSlot
from repro.ghost.agent import GhostAgent
from repro.ghost.kernel import GhostKernel
from repro.hw.dma import DmaEngine
from repro.hw.paths import HostMmioPath
from repro.hw.pcie import Interconnect
from repro.mem.scanner import AccessBitScanner
from repro.mem.sol import SolPolicy
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import RunTelemetry
from repro.queues.ring import FloemRing
from repro.rpc.stack import RpcStack
from repro.sched.policy import SchedPolicy
from repro.sim.core import Environment
from repro.sim.faults import FaultInjector
from repro.sim.process import Process
from repro.workloads.loadgen import PoissonLoadGen
from repro.workloads.rocksdb import RocksDbModel

#: The model layers: the packages under ``src/repro`` (``sim.faults`` is
#: split out of the kernel because only the chaos workload runs it).
LAYERS = ("sim", "sim.faults", "hw", "queues", "core", "ghost", "sched",
          "rpc", "mem", "workloads", "obs")

#: Raw spans kept per traced point; the per-layer totals cover every
#: call, the span list only the first ones (memory stays bounded).
SPANS_PER_POINT = 2_000

_TXN_METHODS = ("stash", "clear_agent", "peek_staged", "park", "prefetch",
                "take")
_FAULT_HOOKS = ("on_agent_checkpoint", "on_ring_produce", "on_msix_send",
                "on_dma_attempt")
#: Model code charges MMIO through ``HostMmioPath``, not through the
#: ``Interconnect.mmio_*`` cost getters; both are counted.
_MMIO_PATH = ("read_words", "write_words", "prefetch", "invalidate",
              "flush_writes")
_OBS_SPAN = ("span", "begin")
_OBS_COUNT = ("count", "observe")


def layer_of_file(filename: str) -> Optional[str]:
    """The layer owning a source file, or None outside every layer."""
    parts = os.path.normpath(filename).split(os.sep)
    if "repro" not in parts:
        return None
    idx = len(parts) - 1 - parts[::-1].index("repro")
    rest = parts[idx + 1:]
    if len(rest) < 2:
        return None
    if rest[0] == "sim" and rest[1] == "faults.py":
        return "sim.faults"
    return rest[0] if rest[0] in LAYERS else None


class Patches:
    """Class-attribute replacements, undone in reverse order."""

    def __init__(self):
        self._saved: List[Tuple[type, str, bool, Any]] = []

    def replace(self, cls: type, name: str,
                make: Callable[[Callable], Callable]) -> None:
        own = name in cls.__dict__
        self._saved.append((cls, name, own, cls.__dict__.get(name)))
        setattr(cls, name, make(getattr(cls, name)))

    def restore(self) -> None:
        while self._saved:
            cls, name, own, original = self._saved.pop()
            if own:
                setattr(cls, name, original)
            else:
                delattr(cls, name)


class RunProbe:
    """The two hooks every pass needs, traced or not.

    Both sit on calls made once per point, never in the event loop: the
    first ``Environment.run`` call marks where set-up ends, and
    ``PoissonLoadGen.start`` hands over the load generator so arrivals
    can be counted for the correctness invariants.
    """

    def __init__(self):
        self._patches = Patches()
        self.reset()

    def reset(self) -> None:
        self.first_run_at: Optional[float] = None
        self.envs: List[Environment] = []
        self.loadgens: List[PoissonLoadGen] = []

    def install(self) -> None:
        probe = self

        def wrap_run(run):
            def probed_run(env, until=None):
                if probe.first_run_at is None:
                    probe.first_run_at = time.perf_counter()
                if not any(env is seen for seen in probe.envs):
                    probe.envs.append(env)
                return run(env, until)
            return probed_run

        def wrap_start(start):
            def probed_start(loadgen):
                probe.loadgens.append(loadgen)
                return start(loadgen)
            return probed_start

        self._patches.replace(Environment, "run", wrap_run)
        self._patches.replace(PoissonLoadGen, "start", wrap_start)

    def uninstall(self) -> None:
        self._patches.restore()

    def __enter__(self) -> "RunProbe":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def _sched_policy_classes() -> List[type]:
    out, todo = [], [SchedPolicy]
    while todo:
        cls = todo.pop()
        out.append(cls)
        todo.extend(cls.__subclasses__())
    return out


class LayerTracer:
    """Per-layer self time, counts and spans for one traced pass."""

    def __init__(self):
        self.self_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.counts: collections.Counter = collections.Counter()
        self.iterate_s = 0.0
        #: (span id, name, start s, end s, parent id, point) tuples.
        self.spans: List[tuple] = []
        self.point = ""
        self._point_spans = 0
        self._next_id = 0
        self._stack: List[list] = []
        self._patches = Patches()
        self._layer_cache: Dict[str, Optional[str]] = {}
        self.agents: List[GhostAgent] = []
        self.kernels: List[GhostKernel] = []
        self.injectors: List[FaultInjector] = []

    # -- accounting ------------------------------------------------------

    def begin_point(self, label: str) -> None:
        self.point = label
        self._point_spans = 0
        self.agents, self.kernels, self.injectors = [], [], []

    def end_point(self, envs: List[Environment]) -> None:
        """Fold the point's kernel and ghost counters into the totals;
        ``envs`` are the environments the point ran (see
        :class:`RunProbe`)."""
        counts = self.counts
        for env in envs:
            counts["events_dispatched"] += env.events_dispatched
            counts["events_scheduled"] += env.events_scheduled
            part = env.partition
            if part is not None:
                counts["partition_switches"] += part.domain_switches
                counts["cross_sends"] += part.cross_sends
        counts["dispatches"] += sum(a.dispatches for a in self.agents)
        counts["failed_txns"] += sum(k.failed_txns for k in self.kernels)
        counts["fires"] += sum(i.total_fires() for i in self.injectors)

    def _timed(self, fn: Callable, layer: Optional[str], name: str,
               after: Optional[Callable] = None) -> Callable:
        """Wrap ``fn`` so its self time is charged to ``layer``."""
        stack = self._stack
        self_s = self.self_s
        counts = self.counts
        clock = time.perf_counter
        tracer = self

        def timed(*args, **kwargs):
            sid = tracer._next_id = tracer._next_id + 1
            frame = [0.0, sid]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if layer is not None:
                    self_s[layer] += dur - frame[0]
                parent = None
                if stack:
                    stack[-1][0] += dur
                    parent = stack[-1][1]
                counts[name] += 1
                if tracer._point_spans < SPANS_PER_POINT:
                    tracer._point_spans += 1
                    tracer.spans.append(
                        (sid, name, start, end, parent, tracer.point))
            if after is not None:
                after(args, result, dur)
            return result
        return timed

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        p = self._patches
        t = self._timed
        counts = self.counts
        tracer = self

        def wrap(cls, names, layer, after=None):
            for name in names:
                p.replace(cls, name, lambda fn, n=name: t(
                    fn, layer, f"{cls.__name__}.{n}", after))

        def on_consume(args, result, dur):
            if result[0]:
                counts["items_moved"] += len(result[0])
            else:
                counts["empty_consumes"] += 1

        def on_dequeue(args, result, dur):
            if result is None:
                counts["empty_dequeues"] += 1

        def on_iterate(args, result, dur):
            tracer.iterate_s += dur
            if result is not None:
                counts["sol_iterations"] += 1

        def on_scan(args, result, dur):
            counts["batches_scanned"] += len(args[1])

        wrap(Environment, ("run",), "sim")
        wrap(FloemRing, ("produce",), "queues")
        wrap(FloemRing, ("consume",), "queues", on_consume)
        wrap(FloemRing, ("wait_nonempty", "poll_cost"), "queues")
        wrap(Interconnect, ("mmio_read", "mmio_write", "msix_send",
                            "msix_receive", "msix_e2e",
                            "msix_propagation"), "hw")
        wrap(HostMmioPath, _MMIO_PATH, "hw")
        wrap(DmaEngine, ("launch",), "hw")
        wrap(TxnSlot, _TXN_METHODS, "core")
        wrap(WaveChannel, ("notify_host",), "core")
        for cls in _sched_policy_classes():
            if "enqueue" in cls.__dict__:
                wrap(cls, ("enqueue",), "sched")
            if "dequeue" in cls.__dict__:
                wrap(cls, ("dequeue",), "sched", on_dequeue)
        wrap(RpcStack, ("deliver", "respond"), "rpc")
        wrap(SolPolicy, ("iterate",), "mem", on_iterate)
        wrap(AccessBitScanner, ("scan",), "mem", on_scan)
        wrap(RocksDbModel, ("next_request",), "workloads")
        wrap(RunTelemetry, _OBS_SPAN + _OBS_COUNT + ("end",), "obs")
        wrap(MetricsRegistry, ("counter", "gauge", "timeweighted",
                               "histogram"), "obs")
        wrap(FaultInjector, _FAULT_HOOKS, "sim.faults")
        # Instance capture only: these run once per agent/kernel/plan.
        self._capture(GhostAgent, "start", "agents")
        self._capture(GhostKernel, "start", "kernels")
        self._capture(FaultInjector, "arm", "injectors")
        p.replace(Process, "_resume_inner", self._wrap_resume)

    def _capture(self, cls: type, name: str, attr: str) -> None:
        """Append each instance calling ``cls.name`` to ``self.<attr>``."""
        tracer = self

        def make(fn):
            def captured(obj, *args, **kwargs):
                getattr(tracer, attr).append(obj)
                return fn(obj, *args, **kwargs)
            return captured
        self._patches.replace(cls, name, make)

    def _owner(self, filename: str) -> Optional[str]:
        try:
            return self._layer_cache[filename]
        except KeyError:
            layer = self._layer_cache[filename] = layer_of_file(filename)
            return layer

    def _wrap_resume(self, resume_inner: Callable) -> Callable:
        """Time each resumption; charge it to the resumed code's layer."""
        timed_by_layer = {
            layer: self._timed(resume_inner, layer, f"resume:{layer}")
            for layer in LAYERS + (None,)}
        owner = self._owner
        counts = self.counts
        agent_file = os.path.join("ghost", "agent.py")

        def resume(proc, env, event):
            gen = proc._generator
            if gen.gi_code.co_filename.endswith(agent_file):
                counts["agent_resumes"] += 1
            inner = gen
            sub = gen.gi_yieldfrom
            while sub is not None and hasattr(sub, "gi_code"):
                inner = sub
                sub = getattr(sub, "gi_yieldfrom", None)
            return timed_by_layer[owner(inner.gi_code.co_filename)](
                proc, env, event)
        return resume

    def uninstall(self) -> None:
        self._patches.restore()

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- report ----------------------------------------------------------

    def metrics(self, wall_s: float, passes: int) -> Dict[str, float]:
        """Per-layer metrics, per pass, for ``passes`` traced passes that
        took ``wall_s`` host seconds in all. Times and counts are means
        per pass; ratios are over all passes."""
        c = self.counts
        s = self.self_s

        def calls(cls_names: str, methods) -> int:
            return sum(c[f"{cls_names}.{m}"] for m in methods)

        consumes = c["FloemRing.consume"]
        enqueues = dequeues = 0
        for cls in _sched_policy_classes():
            enqueues += c[f"{cls.__name__}.enqueue"]
            dequeues += c[f"{cls.__name__}.dequeue"]
        dispatched = c["events_dispatched"]
        iterations = c["sol_iterations"]
        out = {
            "sim.self_s": s["sim"],
            "sim.events_dispatched": dispatched,
            "sim.events_scheduled": c["events_scheduled"],
            "sim.ns_per_event": (s["sim"] * 1e9 / dispatched
                                 if dispatched else 0.0),
            "sim.process_resumes": sum(c[f"resume:{layer}"]
                                       for layer in LAYERS + (None,)),
            "sim.partition_switches": c["partition_switches"],
            "sim.cross_sends": c["cross_sends"],
            "queues.self_s": s["queues"],
            "queues.consume_calls": consumes,
            "queues.empty_consumes": c["empty_consumes"],
            "queues.useful_poll_ratio": ((consumes - c["empty_consumes"])
                                         / consumes if consumes else 0.0),
            "queues.wait_nonempty_calls": c["FloemRing.wait_nonempty"],
            "queues.items_moved": c["items_moved"],
            "ghost.self_s": s["ghost"],
            "ghost.agent_resumes": c["agent_resumes"],
            "ghost.dispatches": c["dispatches"],
            "ghost.failed_txns": c["failed_txns"],
            "core.self_s": s["core"],
            "core.txn_ops": calls("TxnSlot", _TXN_METHODS),
            "core.notify_host_calls": c["WaveChannel.notify_host"],
            "hw.self_s": s["hw"],
            "hw.mmio_reads": (c["Interconnect.mmio_read"]
                              + c["HostMmioPath.read_words"]),
            "hw.mmio_writes": (c["Interconnect.mmio_write"]
                               + c["HostMmioPath.write_words"]),
            "hw.msix_sends": c["Interconnect.msix_send"],
            "hw.dma_launches": c["DmaEngine.launch"],
            "sched.self_s": s["sched"],
            "sched.enqueues": enqueues,
            "sched.dequeues": dequeues,
            "sched.empty_dequeues": c["empty_dequeues"],
            "rpc.self_s": s["rpc"],
            "rpc.delivers": c["RpcStack.deliver"],
            "rpc.responds": c["RpcStack.respond"],
            "mem.self_s": s["mem"],
            "mem.sol_iterations": iterations,
            "mem.batches_scanned": c["batches_scanned"],
            "mem.s_per_iteration": (self.iterate_s / iterations
                                    if iterations else 0.0),
            "workloads.self_s": s["workloads"],
            "workloads.requests_generated": c["RocksDbModel.next_request"],
            "obs.self_s": s["obs"],
            "obs.span_calls": calls("RunTelemetry", _OBS_SPAN),
            "obs.count_calls": calls("RunTelemetry", _OBS_COUNT),
            "sim.faults.self_s": s["sim.faults"],
            "sim.faults.hook_calls": calls("FaultInjector", _FAULT_HOOKS),
            "sim.faults.fires": c["fires"],
            "traced_wall_s": wall_s,
            "unattributed_s": wall_s - sum(s.values()),
        }
        ratios = ("sim.ns_per_event", "queues.useful_poll_ratio",
                  "mem.s_per_iteration")
        return {name: value if name in ratios else value / passes
                for name, value in out.items()}

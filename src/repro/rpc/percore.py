"""Per-core RPC queues: the section 4.3 data path.

"The Wave agent steers RPCs to specific host cores by stashing them in
per-core SmartNIC-to-host queues. There are also per-core
host-to-SmartNIC queues for host cores to transfer RPC responses to
the agent." TXNS_COMMIT is used with *skip msi-x*: the host polls the
queue to sustain high RPC throughput.

This module is the raw data plane -- an RPC-enabled application links a
stub library (here: :class:`RpcWorker`'s polling loop) and offload is
transparent to its request handler.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional

from repro.core.queues_api import QueueManager
from repro.hw.platform import Machine
from repro.queues.config import QueueType
from repro.sim import Environment, Interrupt, LatencyStats
from repro.workloads.rocksdb import Request

#: How long a worker sleeps after an empty poll before re-polling; a
#: busy-ish wait that bounds idle PCIe traffic.
WORKER_POLL_GAP_NS = 1_000.0


class PerCoreRpcChannel:
    """One host core's request/response queue pair."""

    def __init__(self, manager: QueueManager, core_id: int,
                 agent_name: str = "rpc-agent"):
        self.core_id = core_id
        self.request_q = manager.create_queue(
            f"rpc-req-c{core_id}", QueueType.MMIO, host_produces=False)
        self.response_q = manager.create_queue(
            f"rpc-resp-c{core_id}", QueueType.MMIO, host_produces=True)
        manager.assoc_queue_with(self.request_q, agent_name, core_id)
        manager.assoc_queue_with(self.response_q, agent_name, core_id)


class RpcSteeringAgent:
    """NIC-side steering: distributes RPCs over per-core queues and
    collects responses (section 4.3's packet-to-host-core policy)."""

    def __init__(self, env: Environment, machine: Machine,
                 channels: List[PerCoreRpcChannel],
                 on_response: Optional[Callable[[Request], None]] = None,
                 steer_ns: float = 300.0):
        if not channels:
            raise ValueError("need at least one per-core channel")
        self.env = env
        self.machine = machine
        self.channels = channels
        self.on_response = on_response
        #: NIC-side steering compute per RPC (policy + queue pick).
        self.steer_ns = machine.nic.compute_time(steer_ns)
        self.steered = 0
        self.responses = 0
        self._rr = itertools.cycle(channels)
        self._proc = None

    def pick_core(self, request: Request) -> PerCoreRpcChannel:
        """Steering policy: join-shortest-queue with round-robin ties."""
        best = min(self.channels, key=lambda ch: len(ch.request_q.ring))
        if len(best.request_q.ring) == 0:
            return next(self._rr)
        return best

    def deliver(self, request: Request):
        """Steer one processed RPC into a host core's queue.

        TXNS_COMMIT(skip msi-x): the producer cost is the local write;
        the host discovers it by polling.
        """
        yield self.env.timeout(self.steer_ns)
        channel = self.pick_core(request)
        cost = channel.request_q.ring.produce([request])
        yield self.env.timeout(cost)
        self.steered += 1

    def start_response_collector(self) -> None:
        self._proc = self.env.process(self._collect(), name="rpc-collect")

    def _collect(self):
        """POLL_TXNS_OUTCOMES(): sweep the per-core response queues."""
        env = self.env
        try:
            while True:
                progressed = False
                for channel in self.channels:
                    items, cost = channel.response_q.ring.consume()
                    if cost:
                        yield env.timeout(cost)
                    for request in items:
                        request.completed_ns = env.now
                        self.responses += 1
                        if self.on_response is not None:
                            self.on_response(request)
                        progressed = True
                if not progressed:
                    # Block until any queue has something (poll model).
                    yield env.any_of([ch.response_q.ring.wait_nonempty()
                                      for ch in self.channels])
        except Interrupt:
            return

    def stop(self) -> None:
        if self._proc is not None and self._proc.is_alive:
            self._proc.interrupt("stopped")


class RpcWorker:
    """Host-side stub library: poll the core's request queue, run the
    application callback, post the response (section 4.3)."""

    def __init__(self, env: Environment, channel: PerCoreRpcChannel,
                 handler_ns: Callable[[Request], float]):
        self.env = env
        self.channel = channel
        self.handler_ns = handler_ns
        self.handled = 0
        self.busy_ns = 0.0
        self.empty_polls = 0
        self._proc = None

    def start(self) -> None:
        self._proc = self.env.process(
            self._run(), name=f"rpc-worker-c{self.channel.core_id}")

    def _run(self):
        env = self.env
        request_ring = self.channel.request_q.ring
        response_ring = self.channel.response_q.ring
        try:
            while True:
                # POLL_TXNS(): fetch the next steered request.
                items, cost = request_ring.consume(max_batch=1)
                yield env.timeout(cost if items else request_ring.poll_cost())
                if not items:
                    self.empty_polls += 1
                    yield env.timeout(WORKER_POLL_GAP_NS)
                    continue
                request = items[0]
                service = self.handler_ns(request)
                yield env.timeout(service)
                self.busy_ns += service
                # SET_TXNS_OUTCOMES(): post the response.
                yield env.timeout(response_ring.produce([request]))
                self.handled += 1
        except Interrupt:
            return

    def stop(self) -> None:
        if self._proc is not None and self._proc.is_alive:
            self._proc.interrupt("stopped")

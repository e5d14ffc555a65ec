"""The RocksDB service-time model (paper section 7.2).

The paper drives RocksDB with 10 us GET requests, optionally mixed with
0.5% 10 ms RANGE queries. Request *handling* additionally involves
dispatch work on the worker core (request parsing, queue operations,
syscalls) beyond the pure key-value operation; ``DISPATCH_NS`` is fitted
so absolute saturation throughput lands near the paper's figures.
"""

from __future__ import annotations

import dataclasses
import enum
import itertools
import random
from typing import Any, Optional

#: GET service time (paper: "10us GET requests").
GET_SERVICE_NS = 10_000.0
#: RANGE service time (paper: "10ms RANGE queries").
RANGE_SERVICE_NS = 10_000_000.0
#: Per-request dispatch overhead on the worker core. [fit: On-Host FIFO
#: saturation ~855k req/s on 15 worker cores in Fig 4a]
DISPATCH_NS = 4_100.0

_req_ids = itertools.count(1)


def _reset_req_ids():
    global _req_ids
    _req_ids = itertools.count(1)


# Per-run request ids (see repro.sim.core.register_run_id_reset):
# labelling only, reset at every Environment construction.
from repro.sim.core import register_run_id_reset  # noqa: E402

register_run_id_reset(_reset_req_ids)


class RequestKind(enum.Enum):
    GET = "get"
    RANGE = "range"


@dataclasses.dataclass
class Request:
    """One client request."""

    kind: RequestKind
    service_ns: float
    arrival_ns: float = 0.0
    #: SLO class carried in the RPC payload (section 7.3.2); ns.
    slo_ns: Optional[float] = None
    completed_ns: Optional[float] = None
    req_id: int = dataclasses.field(default_factory=lambda: next(_req_ids))
    #: Causal request context (:class:`repro.obs.spans.SpanCtx`),
    #: minted at RPC arrival; None whenever tracing is off.
    ctx: Any = dataclasses.field(default=None, repr=False, compare=False)

    @property
    def latency_ns(self) -> Optional[float]:
        if self.completed_ns is None:
            return None
        return self.completed_ns - self.arrival_ns


class RocksDbModel:
    """Generates requests with the paper's GET/RANGE mix.

    ``rng`` may be any ``random.Random`` -- including a named stream
    from :class:`repro.sim.rngs.RngStreams`, which keeps this model's
    draw sequence independent of every other component's, however
    their events interleave.
    """

    def __init__(self, range_fraction: float = 0.0,
                 get_service_ns: float = GET_SERVICE_NS,
                 range_service_ns: float = RANGE_SERVICE_NS,
                 dispatch_ns: float = DISPATCH_NS,
                 rng: Optional[random.Random] = None):
        if not 0.0 <= range_fraction <= 1.0:
            raise ValueError("range_fraction must be in [0, 1]")
        self.range_fraction = range_fraction
        self.get_service_ns = get_service_ns
        self.range_service_ns = range_service_ns
        self.dispatch_ns = dispatch_ns
        self.rng = rng or random.Random(0)

    @classmethod
    def fifo_mix(cls, rng=None) -> "RocksDbModel":
        """Section 7.2.2: 100% 10us GETs."""
        return cls(range_fraction=0.0, rng=rng)

    @classmethod
    def shinjuku_mix(cls, rng=None) -> "RocksDbModel":
        """Sections 7.2.3 / 7.3: 99.5% GET + 0.5% RANGE."""
        return cls(range_fraction=0.005, rng=rng)

    def mean_service_ns(self) -> float:
        """Expected pure service time of one request."""
        return (self.range_fraction * self.range_service_ns
                + (1 - self.range_fraction) * self.get_service_ns)

    def next_request(self, now: float) -> Request:
        """Draw one request according to the mix."""
        if self.rng.random() < self.range_fraction:
            kind, service = RequestKind.RANGE, self.range_service_ns
        else:
            kind, service = RequestKind.GET, self.get_service_ns
        return Request(kind=kind, service_ns=service, arrival_ns=now)

    def task_service_ns(self, request: Request) -> float:
        """Worker-core busy time for ``request`` (service + dispatch)."""
        return request.service_ns + self.dispatch_ns

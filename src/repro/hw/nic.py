"""The SmartNIC SoC: ARM cores, local DRAM, DMA engine, MSI-X function.

Models the Intel Mount Evans IPU of section 7: 16 Neoverse N1 cores at
3 GHz with fast coherent access to SoC DRAM; the host reaches that DRAM
only through the MMIO aperture, and the SoC reaches host DRAM only
through DMA.
"""

from __future__ import annotations

from typing import Tuple

from repro.hw.dma import DmaEngine
from repro.hw.params import HwParams
from repro.hw.pcie import Interconnect, LookaheadViolation
from repro.sim import Environment, Event


class SmartNic:
    """One SmartNIC with its interconnect-facing functions."""

    def __init__(self, env: Environment, params: HwParams,
                 interconnect: Interconnect):
        self.env = env
        self.params = params
        self.interconnect = interconnect
        self.dma = DmaEngine(env, params)
        self.cores = params.nic_cores
        self.ghz = params.nic_ghz
        self.msix_sent = 0
        #: Deliveries swallowed by fault injection (the sender still
        #: pays its send cost; only the handler-side event never fires).
        self.msix_lost = 0
        #: Table 2's NIC -> host minimum: no MSI-X can reach a host
        #: handler sooner (see :meth:`HwParams.domain_lookahead`).
        self.min_msix_wire = params.domain_lookahead()[("nic", "host")]
        if self.min_msix_wire <= 0:
            # A non-positive minimum would let an interrupt land at or
            # before the instant it was sent, and the check below
            # would assert nothing.
            raise ValueError(
                f"Table 2 parameters give a nic -> host minimum of "
                f"{self.min_msix_wire} ns; it must be positive")

    def compute_time(self, host_equivalent_ns: float) -> float:
        """Time for NIC ARM cores to do work that takes
        ``host_equivalent_ns`` on a host x86 core.

        Combines the frequency gap and the per-cycle throughput handicap
        (section 7.4.2: offloaded SOL is slower "because it uses weaker
        ARM cores rather than x86 host cores").
        """
        if self.ghz <= 0:
            raise ValueError("NIC frequency must be positive")
        freq_ratio = self.params.nic_reference_ghz / self.ghz
        return host_equivalent_ns * self.params.nic_compute_handicap * freq_ratio

    def raise_msix(self, via_ioctl: bool = True, ctx=None,
                   carrier=None) -> Tuple[float, Event]:
        """Send an MSI-X to a host core.

        Returns ``(sender_cost, delivery)``: the agent burns
        ``sender_cost`` ns of CPU; ``delivery`` fires when the host
        core's handler can start (the host then pays ``msix_receive``).

        Under fault injection a delivery may be lost: the sender still
        pays its cost, but ``delivery`` never fires -- the parked core's
        periodic idle re-check is then the only wakeup path, exactly the
        backstop section 5.4 prescribes.
        """
        self.msix_sent += 1
        send = self.interconnect.msix_send(via_ioctl)
        tel = getattr(self.env, "telemetry", None)
        faults = getattr(self.env, "faults", None)
        if faults is not None and faults.on_msix_send():
            self.msix_lost += 1
            if tel is not None:
                span = tel.span("msix.deliver", "pcie", dur_ns=send,
                                ctx=ctx, lost=True)
                if carrier is not None:
                    carrier.ctx = tel.ctx_after(span)
                tel.count("msix_delivered", outcome="lost")
            return send, Event(self.env)  # pending forever: lost on the wire
        wire = send + self.interconnect.msix_propagation()
        if tel is not None:
            span = tel.span("msix.deliver", "pcie", dur_ns=wire, ctx=ctx)
            if carrier is not None:
                carrier.ctx = tel.ctx_after(span)
            tel.count("msix_delivered", outcome="ok")
        # Causality check on the one NIC -> host send: the delivery must
        # respect the Table 2 minimum (wire >= send + e2e wire
        # propagation >= the nic->host minimum, even stalled -- stalls
        # only inflate the propagation term).
        if wire < self.min_msix_wire:
            raise LookaheadViolation(
                f"MSI-X delivery of {wire} ns beats the nic -> host "
                f"minimum of {self.min_msix_wire} ns")
        return send, self.env.timeout(wire)

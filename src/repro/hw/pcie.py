"""The host<->SmartNIC interconnect: MMIO, MSI-X, and path factories."""

from __future__ import annotations

from repro.hw.params import HwParams
from repro.hw.paths import (
    HostMmioPath,
    HostSharedMemPath,
    LocalUcPath,
    LocalWbPath,
    MemPath,
)
from repro.hw.pte import PteType


class LookaheadViolation(RuntimeError):
    """A NIC -> host delivery faster than the Table 2 minimum.

    Raised by :meth:`repro.hw.nic.SmartNic.raise_msix`: the model
    claimed an interrupt reached the host sooner than the hardware
    minimum of :meth:`HwParams.domain_lookahead` allows -- a send
    backwards in time relative to the PCIe timing model.
    """


class Interconnect:
    """Timing model for one PCIe (or UPI, section 7.3.3) link.

    Exposes the primitive costs of Table 2 plus factories for the
    :class:`~repro.hw.paths.MemPath` objects each endpoint uses.

    When an ``env`` is attached (as :class:`~repro.hw.platform.Machine`
    does) and a fault injector is active, a transient ``pcie-stall``
    inflates everything that traverses the link -- the MMIO primitives
    and the wire portion of MSI-X delivery -- by the stall factor.
    """

    def __init__(self, params: HwParams, env=None):
        self.params = params
        self.env = env

    def _stall_factor(self) -> float:
        """Current congestion inflation (1.0 outside stall windows)."""
        faults = getattr(self.env, "faults", None) if self.env else None
        return faults.interconnect_factor() if faults is not None else 1.0

    def _telemetry(self):
        return getattr(self.env, "telemetry", None) if self.env else None

    # -- Table 2 primitives ---------------------------------------------

    def mmio_read(self) -> float:
        """Host 64-bit uncacheable MMIO read (row 1)."""
        tel = self._telemetry()
        if tel is not None:
            tel.count("mmio_ops", op="read")
        return self.params.mmio_read_uc * self._stall_factor()

    def mmio_write(self) -> float:
        """Host 64-bit uncacheable MMIO write (row 2)."""
        tel = self._telemetry()
        if tel is not None:
            tel.count("mmio_ops", op="write")
        return self.params.mmio_write_uc * self._stall_factor()

    def msix_send(self, via_ioctl: bool = True) -> float:
        """Device-side cost of raising an MSI-X (rows 3-4)."""
        tel = self._telemetry()
        if tel is not None:
            tel.count("msix_sends", via="ioctl" if via_ioctl else "reg")
        return (self.params.msix_send_ioctl if via_ioctl
                else self.params.msix_send_reg)

    def msix_receive(self) -> float:
        """Host-side cost of taking the interrupt (row 5)."""
        return self.params.msix_receive

    def msix_e2e(self) -> float:
        """Send-to-handler latency including the PCIe trip (row 6)."""
        return (self.params.msix_send_ioctl + self.params.msix_receive
                + self.msix_propagation())

    def msix_propagation(self) -> float:
        """The wire/bridge portion of MSI-X delivery: the time between
        the sender finishing its send overhead and the host core starting
        its receive overhead."""
        return (self.params.msix_e2e - self.params.msix_send_ioctl
                - self.params.msix_receive) * self._stall_factor()

    # -- path factories ---------------------------------------------------

    def host_path(self, pte: PteType) -> MemPath:
        """How the host reaches SmartNIC DRAM with PTE type ``pte``."""
        return HostMmioPath(self.params, pte)

    def nic_path(self, pte: PteType) -> MemPath:
        """How a SmartNIC agent reaches its own (SoC-local) DRAM."""
        if pte is PteType.WB:
            return LocalWbPath(self.params, self.params.nic_access_wb)
        return LocalUcPath(self.params)

    def host_local_path(self) -> MemPath:
        """Host coherent shared memory (on-host deployments)."""
        return HostSharedMemPath(self.params)

"""Host endpoints: send traffic, receive traffic, run app callbacks.

Hosts are the Relying Parties and end principals of the paper's use
cases (the bank's client, the sensor, the peer behind a NAT). They are
deliberately simple: one port, a MAC/IP identity, received-packet log,
and an optional application callback.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

from repro.net.headers import RaShimHeader
from repro.net.packet import Packet
from repro.net.simulator import Node
from repro.telemetry.audit import AuditKind
from repro.util.errors import NetworkError


class Host(Node):
    """A single-homed host."""

    def __init__(self, name: str, mac: int, ip: int, port: int = 1) -> None:
        super().__init__(name)
        self.mac = mac
        self.ip = ip
        self.port = port
        self.received: List[Tuple[float, Packet]] = []
        self.control_received: List[Tuple[float, str, Any]] = []
        self.on_packet: Optional[Callable[[Packet], None]] = None
        self.on_control: Optional[Callable[[str, Any], None]] = None
        # Local resend budget for lossy first hops (see Simulator.transmit).
        self.resend_budget = 0

    # --- sending ------------------------------------------------------------

    def send(self, packet: Packet, traced: bool = True) -> Packet:
        """Transmit ``packet`` out of the host's single port.

        When telemetry is active the host is a trace origin: packets
        leaving without a :class:`TraceContext` get a fresh one stamped
        here, so every downstream span/audit event joins back to this
        send. Returns the packet as transmitted (trace attached).
        Pass ``traced=False`` to skip the origin stamp — bulk workload
        traffic at fabric scale would otherwise mint millions of
        traces and overflow the audit ring, drowning the attested
        flows the journal exists to explain.
        """
        if self.sim is None:
            raise NetworkError(f"host {self.name!r} is not bound to a simulator")
        if not self.sim.owns(self.name):
            # A foreign-shard replica of this host: the owning shard
            # performs the send (and stamps the trace) — bailing before
            # the trace stamp keeps per-origin id serials identical in
            # every shard.
            return packet
        tel = self.sim.telemetry
        if tel.active and traced and packet.trace is None:
            packet = packet.with_trace(self.sim.trace_ids.start(self.name))
            tel.audit_event(
                AuditKind.TRACE_STARTED,
                self.name,
                trace=packet.trace,
                five_tuple=repr(packet.five_tuple),
            )
        self.sim.transmit(
            self.name, self.port, packet, resend_budget=self.resend_budget
        )
        return packet

    def send_udp(
        self,
        dst_mac: int,
        dst_ip: int,
        src_port: int,
        dst_port: int,
        payload: bytes = b"",
        ra_shim: Optional[RaShimHeader] = None,
        traced: bool = True,
    ) -> Packet:
        """Build and send a UDP packet from this host; returns it."""
        packet = Packet.udp_packet(
            src_mac=self.mac,
            dst_mac=dst_mac,
            src_ip=self.ip,
            dst_ip=dst_ip,
            src_port=src_port,
            dst_port=dst_port,
            payload=payload,
            ra_shim=ra_shim,
        )
        return self.send(packet, traced=traced)

    # --- receiving ------------------------------------------------------------

    def handle_packet(self, packet: Packet, in_port: int) -> None:
        self.received.append((self.sim.clock.now, packet))
        if packet.trace is not None and self.sim.telemetry.active:
            self.sim.telemetry.audit_event(
                AuditKind.PACKET_DELIVERED, self.name, trace=packet.trace
            )
        if self.on_packet is not None:
            self.on_packet(packet)

    def handle_control(self, sender: str, message: Any) -> None:
        self.control_received.append((self.sim.clock.now, sender, message))
        if self.on_control is not None:
            self.on_control(sender, message)

    # --- convenience ------------------------------------------------------------

    @property
    def received_packets(self) -> List[Packet]:
        return [packet for _, packet in self.received]

    def clear(self) -> None:
        self.received.clear()
        self.control_received.clear()

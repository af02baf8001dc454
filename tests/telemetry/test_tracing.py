"""Tests for causal trace contexts and their end-to-end propagation."""

import dataclasses

import pytest

from repro.net.headers import ip_to_int
from repro.net.host import Host
from repro.net.packet import Packet
from repro.net.simulator import Simulator
from repro.net.topology import Topology
from repro.telemetry import AuditKind, Telemetry, TraceContext, TraceIds
from repro.telemetry.tracing import TRACE_ID_LEN


class TestTraceContext:
    def test_hopped_advances_hop_and_lineage(self):
        ctx = TraceIds().start("h1")
        assert ctx.hop == 0
        assert ctx.origin == "h1"
        assert ctx.lineage == ()
        later = ctx.hopped("s1").hopped("s2")
        assert later.trace_id == ctx.trace_id
        assert later.hop == 2
        assert later.lineage == ("s1", "s2")

    def test_span_args(self):
        ctx = TraceContext(trace_id="abcdef012345", hop=3)
        assert ctx.span_args() == {"trace": "abcdef012345", "hop": 3}

    def test_frozen(self):
        ctx = TraceIds().start("h1")
        with pytest.raises(dataclasses.FrozenInstanceError):
            ctx.hop = 9


class TestTraceIds:
    def test_shape(self):
        tid = TraceIds().new_id("h1")
        assert len(tid) == TRACE_ID_LEN
        assert all(c in "0123456789abcdef" for c in tid)

    def test_deterministic_across_reset(self):
        # A fresh sequence replays the same ids; nothing to reset.
        first_ids, second_ids = TraceIds(), TraceIds()
        first = [first_ids.new_id("h1") for _ in range(3)]
        second = [second_ids.new_id("h1") for _ in range(3)]
        assert first == second
        assert len(set(first)) == 3  # consecutive ids differ

    def test_serials_are_per_origin(self):
        ids = TraceIds()
        alone = TraceIds().new_id("h2")
        ids.new_id("h1")
        assert ids.new_id("h2") == alone

    def test_back_to_back_simulators_stamp_the_same_id(self):
        """Each simulator owns its sequence: a second run in the same
        process replays the first one's trace ids without any reset."""
        stamped = []
        for _ in range(2):
            sim, h1, _h2 = _host_pair(Telemetry())
            sent = h1.send_udp(
                dst_mac=2, dst_ip=ip_to_int("10.0.0.2"),
                src_port=1000, dst_port=2000, payload=b"x",
            )
            sim.run()
            stamped.append(sent.trace.trace_id)
        assert stamped[0] == stamped[1]


class TestPacketCarriage:
    def _packet(self):
        return Packet.udp_packet(
            src_mac=1, dst_mac=2,
            src_ip=ip_to_int("10.0.0.1"), dst_ip=ip_to_int("10.0.0.2"),
            src_port=1000, dst_port=2000, payload=b"hi",
        )

    def test_trace_is_not_on_the_wire(self):
        plain = self._packet()
        traced = plain.with_trace(TraceIds().start("h1"))
        assert traced == plain  # excluded from equality
        assert traced.encode() == plain.encode()
        assert Packet.decode(traced.encode()).trace is None
        assert "TraceContext" not in repr(traced)

    def test_with_trace_carries_cached_wire(self):
        plain = self._packet()
        wire = plain.encode()  # populate the cache first
        traced = plain.with_trace(TraceIds().start("h1"))
        assert traced.encode() == wire


def _host_pair(telemetry):
    topo = Topology()
    topo.add_node("h1", kind="host")
    topo.add_node("h2", kind="host")
    topo.add_link("h1", 1, "h2", 1)
    sim = Simulator(topo, telemetry=telemetry)
    h1 = Host("h1", mac=1, ip=ip_to_int("10.0.0.1"))
    h2 = Host("h2", mac=2, ip=ip_to_int("10.0.0.2"))
    sim.bind(h1)
    sim.bind(h2)
    return sim, h1, h2


class TestPropagation:
    def test_host_stamps_and_simulator_hops(self):
        tel = Telemetry()
        sim, h1, h2 = _host_pair(tel)
        sent = h1.send_udp(
            dst_mac=2, dst_ip=ip_to_int("10.0.0.2"),
            src_port=1000, dst_port=2000, payload=b"x",
        )
        sim.run()
        assert sent.trace is not None and sent.trace.hop == 0
        delivered = h2.received_packets[0].trace
        assert delivered.trace_id == sent.trace.trace_id
        assert delivered.hop == 1
        assert delivered.lineage == ("h1",)
        kinds = [e.kind for e in tel.audit.for_trace(sent.trace.trace_id)]
        assert kinds == [
            AuditKind.TRACE_STARTED,
            AuditKind.PACKET_FORWARDED,
            AuditKind.PACKET_DELIVERED,
        ]

    def test_disabled_telemetry_stamps_nothing(self):
        sim, h1, h2 = _host_pair(None)
        h1.send_udp(
            dst_mac=2, dst_ip=ip_to_int("10.0.0.2"),
            src_port=1000, dst_port=2000, payload=b"x",
        )
        sim.run()
        assert h2.received_packets[0].trace is None

    def test_caller_supplied_context_is_kept(self):
        tel = Telemetry()
        sim, h1, h2 = _host_pair(tel)
        mine = TraceContext(trace_id="abcdef012345", origin="app")
        packet = Packet.udp_packet(
            src_mac=1, dst_mac=2,
            src_ip=ip_to_int("10.0.0.1"), dst_ip=ip_to_int("10.0.0.2"),
            src_port=1, dst_port=2,
        ).with_trace(mine)
        h1.send(packet)
        sim.run()
        assert h2.received_packets[0].trace.trace_id == "abcdef012345"
        # The host must not have restamped an already-traced packet.
        started = [
            e for e in tel.audit.events
            if e.kind == AuditKind.TRACE_STARTED
        ]
        assert started == []

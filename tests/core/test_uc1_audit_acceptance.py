"""UC1 acceptance: the Athens rejection is fully explainable post-hoc.

Running the attack with tracing enabled must leave, for the first
rejected packet, ONE trace id whose audit events span every switch on
the 3-hop path, evidence digests that match the very records the
packet delivered, and an ``explain()`` narrative naming the failing
hop and check.
"""

import pytest

from repro.core.compiler import compile_policy_for_path
from repro.core.policies import ap1_bank_path_attestation
from repro.core.usecases import _appraiser_for, _pera_chain, run_config_assurance
from repro.core.wire import encode_compiled_policy
from repro.net.headers import RaShimHeader
from repro.pera.config import CompositionMode, EvidenceConfig
from repro.pera.records import decode_record_stack
from repro.pisa.programs import firewall_program
from repro.telemetry import AuditKind, Telemetry, use_default


@pytest.fixture
def telemetry():
    tel = Telemetry()
    previous = use_default(tel)
    try:
        yield tel
    finally:
        use_default(previous)


class TestAthensAcceptance:
    def test_rejection_is_traced_across_all_three_switches(self):
        result = run_config_assurance(packets=4, swap_at=1, switch_count=3)
        assert result.first_rejection == 1
        telemetry = result.sharded.telemetry

        verdict = result.verdicts[result.first_rejection]
        assert not verdict.accepted
        assert verdict.trace_id is not None and len(verdict.trace_id) == 12

        events = telemetry.audit.for_trace(verdict.trace_id)
        assert events, "the rejected packet must have audit events"
        # One trace id spans the packet's whole life: origin, every
        # switch on the path, delivery, and the appraiser's verdict.
        actors = {event.actor for event in events}
        assert {"s1", "s2", "s3"} <= actors
        kinds = {event.kind for event in events}
        assert AuditKind.TRACE_STARTED in kinds
        assert AuditKind.MEASUREMENT_TAKEN in kinds
        assert AuditKind.EVIDENCE_CREATED in kinds
        assert AuditKind.VERDICT_ISSUED in kinds

        # The appraiser verified exactly the evidence nodes the
        # switches created — content digests join the two sides.
        created = {
            e.digest for e in events if e.kind == AuditKind.EVIDENCE_CREATED
        }
        verified = {
            e.digest for e in events
            if e.kind == AuditKind.SIGNATURE_VERIFIED
        }
        assert len(verified) == 3
        assert verified <= created

        # The narrative names the failing hop (s1 ran the rogue
        # program) and the failing check.
        text = verdict.explain(telemetry)
        assert f"trace {verdict.trace_id}:" in text
        assert "conclusion: REJECTED" in text
        assert "'measurement' failed" in text
        assert "s1" in text

    def test_audit_digests_match_the_delivered_records(self, telemetry):
        """Digest linkage, checked against the packet's own bytes."""
        config = EvidenceConfig(composition=CompositionMode.CHAINED)
        program = firewall_program()
        sim, src, dst, switches = _pera_chain(3, config, programs=[program] * 3)
        policy = compile_policy_for_path(
            ap1_bank_path_attestation(),
            path=["h-src", "s1", "s2", "s3", "h-dst"],
            bindings={"client": "h-dst"},
            composition=CompositionMode.CHAINED,
        )
        sent = src.send_udp(
            dst_mac=dst.mac, dst_ip=dst.ip, src_port=1000, dst_port=2000,
            payload=b"probe",
            ra_shim=RaShimHeader(
                flags=RaShimHeader.FLAG_POLICY,
                body=encode_compiled_policy(policy),
            ),
        )
        sim.run()

        packet = dst.received_packets[0]
        records = decode_record_stack(packet.ra_shim.body)
        assert len(records) == 3
        events = telemetry.audit.for_trace(sent.trace.trace_id)
        created = {
            e.digest for e in events if e.kind == AuditKind.EVIDENCE_CREATED
        }
        assert created == {r.content_digest.hex() for r in records}

        appraiser = _appraiser_for(switches, [program] * 3)
        verdict = appraiser.appraise_packet(packet, compiled=policy)
        assert verdict.accepted
        assert verdict.trace_id == sent.trace.trace_id
        assert "conclusion: ACCEPTED" in verdict.explain(telemetry)

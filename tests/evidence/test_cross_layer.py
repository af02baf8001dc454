"""Cross-layer byte-identity over the shared evidence substrate.

The whole point of ``repro.evidence`` is that a Copland VM, a PERA
switch and an RA appraiser describing the *same logical evidence*
produce the *same bytes* — one wire form, one content digest, however
the evidence travelled (in-band stack, out-of-band objects, VM result).
"""

from dataclasses import replace as dc_replace

import repro.copland as copland
import repro.evidence.nodes as nodes
from repro.copland.parser import parse_phrase
from repro.copland.vm import CoplandVM, Place
from repro.crypto.hashing import HashChain, digest
from repro.crypto.keys import KeyPair, KeyRegistry
from repro.evidence import (
    HopEvidence,
    MeasurementEvidence,
    SignedEvidence,
    decode_node,
    hops_to_evidence,
    registry_verify,
)
from repro.pera.inertia import InertiaClass
from repro.pera.records import (
    RECORD_TLV_TYPE,
    HopRecord,
    decode_record_stack,
    encode_record_stack,
)
from repro.ra.appraiser import AppraisalPolicy, Appraiser


def signed_records(count=3):
    """Chained, signed hop records the way an attesting path builds them."""
    head = HashChain.GENESIS
    records = []
    for index in range(count):
        place = f"s{index}"
        unsigned = HopRecord(
            place=place,
            measurements=(
                (
                    InertiaClass.PROGRAM,
                    digest(f"prog-{index}".encode(), domain="pera-program"),
                ),
            ),
            sequence=index,
        )
        head = HashChain(head=head).extend(unsigned.link_digest())
        records.append(
            dc_replace(unsigned, chain_head=head).sign_with(
                KeyPair.generate(place)
            )
        )
    return records


class TestCoplandLayer:
    def test_vm_output_is_canonical_and_rebuildable(self):
        """The VM's signed measurement equals the hand-built node —
        same wire bytes, same digest, verifiable with the shared
        memoized verifier."""
        vm = CoplandVM()
        vm.register(Place("bank"))
        ks = vm.register(Place("ks"))
        us = vm.register(Place("us"))
        us.install_component("bmon", b"browser-monitor-v1")

        result = vm.execute(parse_phrase("@ks [av us bmon -> !]"), "bank")

        inner = MeasurementEvidence(
            asp="av",
            place="ks",
            target="bmon",
            target_place="us",
            value=digest(b"browser-monitor-v1", domain="component-measurement"),
        )
        expected = SignedEvidence(
            evidence=inner, place="ks", signature=ks.keypair.sign(inner.wire)
        )
        assert result.wire == expected.wire
        assert result.content_digest == expected.content_digest
        assert decode_node(result.wire) == expected

        anchors = KeyRegistry()
        anchors.register_pair(ks.keypair)
        assert registry_verify(
            anchors,
            result.place,
            result.signed_payload(),
            result.signature,
            message_digest=result.payload_digest(),
        )


class TestPeraLayer:
    def test_hop_record_is_its_canonical_node(self):
        """A PERA record and the plain substrate node with the same
        fields share one wire form and one content digest."""
        record = signed_records(1)[0]
        node = HopEvidence(
            place=record.place,
            measurements=tuple(
                (int(code), value) for code, value in record.measurements
            ),
            sequence=record.sequence,
            ingress_port=record.ingress_port,
            chain_head=record.chain_head,
            packet_digest=record.packet_digest,
            signature=record.signature,
        )
        assert record.wire == node.wire
        assert record.content_digest == node.content_digest
        assert record.payload_digest() == node.payload_digest()

    def test_stack_framing_is_concatenated_node_wires(self):
        records = signed_records(3)
        stack = encode_record_stack(records)
        assert stack == b"".join(r.wire for r in records)
        assert decode_record_stack(stack) == records

    def test_generic_decoder_and_pera_decoder_agree(self):
        record = signed_records(1)[0]
        generic = decode_node(record.wire)
        assert isinstance(generic, HopEvidence)
        assert HopRecord.from_node(generic) == record


class TestInBandVsOutOfBand:
    def test_same_hops_same_tree_same_bytes(self):
        """Records received in-band (decoded from a shim-body stack)
        and out-of-band (the original objects) compose to one evidence
        tree with identical serialization and digest."""
        out_of_band = signed_records(4)
        in_band = decode_record_stack(encode_record_stack(out_of_band))
        assert hops_to_evidence(in_band).wire == hops_to_evidence(out_of_band).wire
        assert (
            hops_to_evidence(in_band).content_digest
            == hops_to_evidence(out_of_band).content_digest
        )


class TestRaLayer:
    def test_verdict_pins_the_canonical_digest(self):
        """An RA appraisal names exactly the evidence it judged — by
        the same content digest every other layer computes."""
        keys = KeyPair.generate("Switch")
        anchors = KeyRegistry()
        anchors.register_pair(keys)
        inner = MeasurementEvidence(
            asp="attest",
            place="Switch",
            target="Program",
            target_place="Switch",
            value=b"good",
        )
        evidence = SignedEvidence(
            evidence=inner, place="Switch", signature=keys.sign(inner.wire)
        )
        appraiser = Appraiser(
            name="A",
            anchors=anchors,
            policy=AppraisalPolicy(required_signers=("Switch",)),
        )
        verdict = appraiser.appraise(evidence)
        assert verdict.accepted
        assert verdict.evidence_digest == evidence.content_digest
        assert verdict.evidence_digest == decode_node(evidence.wire).content_digest


class TestLegacyPaths:
    def test_old_import_paths_are_views_over_the_substrate(self):
        """repro.copland and repro.pera.records re-export the
        substrate's types — not parallel copies."""
        for name in (
            "Evidence",
            "EmptyEvidence",
            "NonceEvidence",
            "MeasurementEvidence",
            "SignedEvidence",
            "HashEvidence",
            "SequenceEvidence",
            "ParallelEvidence",
        ):
            assert getattr(copland, name) is getattr(nodes, name)
        assert issubclass(HopRecord, HopEvidence)
        assert RECORD_TLV_TYPE == nodes.KIND_HOP

"""Tests for evidence terms and the Copland VM."""

import pytest

from repro.evidence import (
    EmptyEvidence,
    HashEvidence,
    MeasurementEvidence,
    NonceEvidence,
    ParallelEvidence,
    SequenceEvidence,
    SignedEvidence,
)
from repro.copland.manifest import Manifest, PlaceSpec
from repro.copland.parser import parse_phrase, parse_request
from repro.copland.vm import CLEAN_REPORT, CoplandVM, Place
from repro.crypto.hashing import digest
from repro.util.errors import PolicyError


def banking_vm():
    """The §4.2 scenario: kernel space (av) and userspace (bmon, exts)."""
    vm = CoplandVM()
    bank = vm.register(Place("bank"))
    ks = vm.register(Place("ks"))
    us = vm.register(Place("us"))
    ks.install_component("av", b"antivirus-v3-binary")
    us.install_component("bmon", b"browser-monitor-v1")
    us.install_component("exts", b"adblock,passwordmgr")
    return vm, bank, ks, us


class TestEvidenceEncoding:
    def test_distinct_shapes_distinct_encodings(self):
        mt = EmptyEvidence()
        nonce = NonceEvidence("n", b"\x01" * 8)
        meas = MeasurementEvidence("av", "ks", "bmon", "us", b"v")
        encodings = {mt.encode(), nonce.encode(), meas.encode()}
        assert len(encodings) == 3

    def test_sequence_vs_parallel_distinct(self):
        left, right = EmptyEvidence(), NonceEvidence("n", b"x")
        assert SequenceEvidence(left, right).encode() != ParallelEvidence(
            left, right
        ).encode()

    def test_pair_encoding_unambiguous(self):
        # (A,B) must not collide with a differently-split (A', B').
        a = MeasurementEvidence("m", "p", "t", "q", b"xy")
        b = EmptyEvidence()
        ab = SequenceEvidence(a, b).encode()
        ba = SequenceEvidence(b, a).encode()
        assert ab != ba

    def test_walk_and_find(self):
        meas = MeasurementEvidence("av", "ks", "bmon", "us", b"v")
        signed = SignedEvidence(meas, "ks", b"\x00" * 64)
        tree = SequenceEvidence(signed, EmptyEvidence())
        # seq, signed, measurement, its mt prior, and the right mt.
        assert len(list(tree.walk())) == 5
        assert tree.find_measurements() == (meas,)
        assert tree.find_signatures() == (signed,)

    def test_hash_evidence_matches(self):
        inner = MeasurementEvidence("av", "ks", "bmon", "us", b"v")
        hashed = HashEvidence.of(inner, "switch")
        assert HashEvidence.matches(inner, hashed.digest_value)
        assert not HashEvidence.matches(EmptyEvidence(), hashed.digest_value)

    def test_summaries_readable(self):
        meas = MeasurementEvidence("av", "ks", "bmon", "us", b"v")
        assert "av" in meas.summary()
        assert "sig_ks" in SignedEvidence(meas, "ks", b"\x00" * 64).summary()


class TestVmExecution:
    def test_measurement_produces_component_digest(self):
        vm, _, _, us = banking_vm()
        evidence = vm.execute(parse_phrase("bmon us exts"), at_place="us")
        assert isinstance(evidence, MeasurementEvidence)
        assert evidence.value == digest(
            b"adblock,passwordmgr", domain="component-measurement"
        )

    def test_at_changes_place(self):
        vm, _, _, _ = banking_vm()
        evidence = vm.execute(parse_phrase("@ks [av us bmon]"), at_place="bank")
        assert evidence.place == "ks"

    def test_sign_verifies_against_place_key(self):
        vm, _, ks, _ = banking_vm()
        evidence = vm.execute(parse_phrase("@ks [av us bmon -> !]"), at_place="bank")
        assert isinstance(evidence, SignedEvidence)
        assert ks.keypair.verify_key.verify(
            evidence.signed_payload(), evidence.signature
        )

    def test_hash_shrinks_evidence(self):
        vm, _, _, _ = banking_vm()
        full = vm.execute(parse_phrase("@ks [av us bmon]"), at_place="bank")
        hashed = vm.execute(parse_phrase("@ks [av us bmon -> #]"), at_place="bank")
        assert isinstance(hashed, HashEvidence)
        assert HashEvidence.matches(full, hashed.digest_value)

    def test_branch_evidence_shapes(self):
        vm, _, _, _ = banking_vm()
        par = vm.execute(
            parse_phrase("@ks [av us bmon] -~- @us [bmon us exts]"), "bank"
        )
        assert isinstance(par, ParallelEvidence)
        seq_ev = vm.execute(
            parse_phrase("@ks [av us bmon] -<- @us [bmon us exts]"), "bank"
        )
        assert isinstance(seq_ev, SequenceEvidence)

    def test_branch_split_semantics(self):
        vm, _, _, _ = banking_vm()
        request = parse_request("*bank <n> : (_ +~- _)")
        evidence = vm.execute_request(request, {"n": b"\x42" * 8})
        # Left arm got the nonce; right arm got mt.
        assert isinstance(evidence, ParallelEvidence)
        assert isinstance(evidence.left, NonceEvidence)
        assert isinstance(evidence.right, EmptyEvidence)

    def test_nonce_bound_into_evidence(self):
        vm, _, _, _ = banking_vm()
        request = parse_request("*bank <n> : @ks [av us bmon -> !]")
        evidence = vm.execute_request(request, {"n": b"\x42" * 8})
        nonces = [e for e in evidence.walk() if isinstance(e, NonceEvidence)]
        assert len(nonces) == 1
        assert nonces[0].value == b"\x42" * 8

    def test_missing_nonce_rejected(self):
        vm, _, _, _ = banking_vm()
        request = parse_request("*bank <n> : @ks [av us bmon]")
        with pytest.raises(PolicyError, match="missing"):
            vm.execute_request(request)

    def test_corrupt_target_changes_measurement(self):
        vm, _, _, us = banking_vm()
        clean = vm.execute(parse_phrase("bmon us exts"), "us")
        us.corrupt_component("exts", b"keylogger")
        corrupt = vm.execute(parse_phrase("bmon us exts"), "us")
        assert clean.value != corrupt.value

    def test_corrupt_measurer_lies(self):
        vm, _, _, us = banking_vm()
        honest = vm.execute(parse_phrase("bmon us exts"), "us")
        us.corrupt_component("exts", b"keylogger")
        us.corrupt_component("bmon", b"evil-bmon")
        lying = vm.execute(parse_phrase("bmon us exts"), "us")
        # The corrupt bmon reports the golden digest — identical to the
        # honest measurement of the clean component.
        assert lying.value == honest.value

    def test_repair_restores(self):
        vm, _, _, us = banking_vm()
        us.corrupt_component("bmon")
        assert us.is_corrupt("bmon")
        us.repair_component("bmon")
        assert not us.is_corrupt("bmon")

    def test_unknown_place_rejected(self):
        vm, _, _, _ = banking_vm()
        with pytest.raises(PolicyError, match="no place"):
            vm.execute(parse_phrase("@mars [av us bmon]"), "bank")

    def test_unknown_component_rejected(self):
        vm, _, _, _ = banking_vm()
        with pytest.raises(PolicyError, match="component"):
            vm.execute(parse_phrase("av us ghost"), "ks")

    def test_unknown_service_asp_rejected(self):
        vm, _, _, _ = banking_vm()
        with pytest.raises(PolicyError, match="no ASP"):
            vm.execute(parse_phrase("appraise"), "bank")

    def test_custom_asp_invoked(self):
        vm, bank, _, _ = banking_vm()
        bank.asps["appraise"] = lambda place, t, tp, args, prior: CLEAN_REPORT
        evidence = vm.execute(parse_phrase("appraise"), "bank")
        assert evidence.value == CLEAN_REPORT

    def test_events_recorded_in_order(self):
        vm, _, _, _ = banking_vm()
        vm.execute(parse_phrase("@ks [av us bmon -> !]"), "bank")
        kinds = [e.kind for e in vm.events]
        assert kinds == ["req", "measure", "sign", "rpy"]

    def test_duplicate_place_rejected(self):
        vm, _, _, _ = banking_vm()
        with pytest.raises(PolicyError):
            vm.register(Place("bank"))


class TestManifest:
    def make_manifest(self):
        manifest = Manifest()
        manifest.add(PlaceSpec("bank", peers=frozenset({"ks", "us"})))
        manifest.add(PlaceSpec("ks", asps=frozenset({"av"})))
        manifest.add(PlaceSpec("us", asps=frozenset({"bmon"}), can_sign=False))
        return manifest

    def test_executable_phrase_passes(self):
        manifest = self.make_manifest()
        phrase = parse_phrase("@ks [av us bmon -> !]")
        assert manifest.check_executable(phrase, "bank") == []

    def test_missing_asp_reported(self):
        manifest = self.make_manifest()
        phrase = parse_phrase("@ks [bmon us exts]")
        violations = manifest.check_executable(phrase, "bank")
        assert any("bmon" in v for v in violations)

    def test_cannot_sign_reported(self):
        manifest = self.make_manifest()
        phrase = parse_phrase("@us [bmon us exts -> !]")
        violations = manifest.check_executable(phrase, "bank")
        assert any("cannot sign" in v for v in violations)

    def test_unknown_dispatch_target(self):
        manifest = self.make_manifest()
        phrase = parse_phrase("@us [@ks [av us bmon]]")
        violations = manifest.check_executable(phrase, "bank")
        assert any("dispatch" in v for v in violations)

    def test_unknown_place(self):
        manifest = self.make_manifest()
        violations = manifest.check_executable(parse_phrase("av us bmon"), "mars")
        assert violations == ["unknown place 'mars'"]

    def test_duplicate_place_rejected(self):
        manifest = self.make_manifest()
        with pytest.raises(PolicyError):
            manifest.add(PlaceSpec("bank"))

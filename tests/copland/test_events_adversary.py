"""Tests for event semantics and the corrupt/repair adversary analysis.

The headline results (the paper's §4.2, after Ramsdell/Rowe et al.):

- Expression (1) — parallel composition — falls to a DELAYED adversary
  (one who acts during the run but never inside a protocol-ordered
  window).
- Expression (2) — sequenced — requires a RECENT adversary (corruption
  squeezed between two ordered measurements).
"""

import pytest

from repro.copland.adversary import (
    AdversaryTier,
    ProtocolModel,
    analyze_measurement_protocol,
)
from repro.copland.events import EventKind, linear_extensions, phrase_events
from repro.copland.parser import parse_phrase
from repro.util.errors import PolicyError

EXPR1 = "@ks [av us bmon] -~- @us [bmon us exts]"
EXPR2 = "@ks [av us bmon -> !] -<- @us [bmon us exts -> !]"

BANKING_MODEL = ProtocolModel(
    residence={"av": "ks", "bmon": "us", "exts": "us"},
    adversary_places=frozenset({"us"}),
    malicious=frozenset({"exts"}),
)


class TestPhraseEvents:
    def test_linear_orders_events(self):
        events, order = phrase_events(parse_phrase("av us bmon -> !"), "ks")
        assert [e.kind for e in events] == [EventKind.MEASURE, EventKind.SIGN]
        assert (events[0].event_id, events[1].event_id) in order

    def test_parallel_leaves_unordered(self):
        events, order = phrase_events(parse_phrase(EXPR1), "bank")
        measures = [e for e in events if e.kind is EventKind.MEASURE]
        assert len(measures) == 2
        ids = {e.event_id for e in measures}
        assert not any((a, b) in order for a in ids for b in ids if a != b)

    def test_branch_seq_orders_arms(self):
        events, order = phrase_events(parse_phrase(EXPR2), "bank")
        measures = [e for e in events if e.kind is EventKind.MEASURE]
        av, bmon = measures
        assert av.asp == "av" and bmon.asp == "bmon"
        assert (av.event_id, bmon.event_id) in order

    def test_order_transitively_closed(self):
        events, order = phrase_events(
            parse_phrase("a p x -> b p y -> c p z"), "p"
        )
        first, _, last = events
        assert (first.event_id, last.event_id) in order

    def test_comm_events_bracket_body(self):
        events, order = phrase_events(
            parse_phrase("@ks [av us bmon]"), "bank", include_comms=True
        )
        kinds = [e.kind for e in events]
        assert EventKind.REQUEST in kinds and EventKind.REPLY in kinds
        req = next(e for e in events if e.kind is EventKind.REQUEST)
        rpy = next(e for e in events if e.kind is EventKind.REPLY)
        meas = next(e for e in events if e.kind is EventKind.MEASURE)
        assert (req.event_id, meas.event_id) in order
        assert (meas.event_id, rpy.event_id) in order

    def test_event_places(self):
        events, _ = phrase_events(parse_phrase(EXPR1), "bank")
        places = {e.asp: e.place for e in events if e.kind is EventKind.MEASURE}
        assert places == {"av": "ks", "bmon": "us"}


class TestLinearExtensions:
    def test_total_order_single_extension(self):
        events, order = phrase_events(parse_phrase("a p x -> b p y"), "p")
        assert len(list(linear_extensions(events, order))) == 1

    def test_parallel_pair_two_extensions(self):
        events, order = phrase_events(parse_phrase("a p x -~- b p y"), "p")
        assert len(list(linear_extensions(events, order))) == 2

    def test_extensions_respect_order(self):
        events, order = phrase_events(parse_phrase(EXPR2), "bank")
        for extension in linear_extensions(events, order):
            positions = {e.event_id: i for i, e in enumerate(extension)}
            for a, b in order:
                assert positions[a] < positions[b]

    def test_limit_enforced(self):
        # 6 unordered events -> 720 extensions > limit of 10.
        phrase = parse_phrase(
            "a p x -~- b p y -~- c p z -~- d p w -~- e p v -~- f p u"
        )
        events, order = phrase_events(phrase, "p")
        with pytest.raises(PolicyError, match="extensions"):
            list(linear_extensions(events, order, limit=10))


class TestAdversaryAnalysis:
    def test_expression_1_falls_to_delayed_adversary(self):
        tier, strategy = analyze_measurement_protocol(
            parse_phrase(EXPR1), BANKING_MODEL, at_place="bank"
        )
        assert tier == AdversaryTier.DELAYED
        assert strategy is not None
        # The witness corrupts bmon during the run (either before the
        # exts scan with a later repair, or after av's look — both are
        # delayed attacks); crucially, no action is time-constrained.
        kinds = {(a.kind, a.component) for a in strategy.actions}
        assert ("corrupt", "bmon") in kinds
        assert any(a.after > 0 for a in strategy.actions)
        assert not any(a.constrained for a in strategy.actions)

    def test_expression_2_requires_recent_adversary(self):
        tier, strategy = analyze_measurement_protocol(
            parse_phrase(EXPR2), BANKING_MODEL, at_place="bank"
        )
        assert tier == AdversaryTier.RECENT
        assert any(a.constrained for a in strategy.actions)

    def test_sequencing_strictly_improves(self):
        tier1, _ = analyze_measurement_protocol(
            parse_phrase(EXPR1), BANKING_MODEL, at_place="bank"
        )
        tier2, _ = analyze_measurement_protocol(
            parse_phrase(EXPR2), BANKING_MODEL, at_place="bank"
        )
        assert tier2 > tier1

    def test_kernel_measurer_makes_attack_impossible(self):
        # If the malware were measured directly by kernel-space av,
        # no userspace adversary strategy exists.
        phrase = parse_phrase("@ks [av us exts]")
        tier, strategy = analyze_measurement_protocol(
            phrase, BANKING_MODEL, at_place="bank"
        )
        assert tier == AdversaryTier.IMPOSSIBLE
        assert strategy is None

    def test_remeasurement_after_still_recent(self):
        # Measuring bmon again after C2 doesn't stop a fast adversary
        # that can also repair quickly: still RECENT, not IMPOSSIBLE.
        phrase = parse_phrase(
            "@ks [av us bmon] -<- (@us [bmon us exts] -<- @ks [av us bmon])"
        )
        tier, _ = analyze_measurement_protocol(
            phrase, BANKING_MODEL, at_place="bank"
        )
        assert tier == AdversaryTier.RECENT

    def test_prepositioned_when_single_lying_measurement(self):
        # Only the exts measurement, nothing checks bmon: corrupt bmon
        # before the run and never touch it again.
        phrase = parse_phrase("@us [bmon us exts]")
        tier, strategy = analyze_measurement_protocol(
            phrase, BANKING_MODEL, at_place="bank"
        )
        assert tier == AdversaryTier.PREPOSITIONED
        assert all(a.after == 0 for a in strategy.actions)

    def test_phrase_without_measurements_rejected(self):
        with pytest.raises(PolicyError):
            analyze_measurement_protocol(parse_phrase("!"), BANKING_MODEL)

    def test_strategy_describe_renders_timeline(self):
        _, strategy = analyze_measurement_protocol(
            parse_phrase(EXPR1), BANKING_MODEL, at_place="bank"
        )
        text = strategy.describe()
        assert "tier:" in text
        assert "corrupt" in text
        # Every scheduled event appears in the rendered timeline.
        for entry in strategy.schedule:
            assert entry in text


class TestVmAttackSimulation:
    """Execute the §4.2 attack concretely on the VM: the adversary's
    schedule defeats (1); against (2) the same slow adversary fails."""

    def setup_vm(self):
        from repro.copland.vm import CoplandVM, Place

        vm = CoplandVM()
        vm.register(Place("bank"))
        ks = vm.register(Place("ks"))
        us = vm.register(Place("us"))
        ks.install_component("av", b"antivirus")
        us.install_component("bmon", b"bmon-good")
        us.install_component("exts", b"extensions-good")
        return vm, us

    def appraise(self, vm, evidence, us_golden=b"extensions-good"):
        """Does the evidence claim both bmon and exts are good?"""
        from repro.crypto.hashing import digest as d

        expected = {
            ("av", "bmon"): d(b"bmon-good", domain="component-measurement"),
            ("bmon", "exts"): d(us_golden, domain="component-measurement"),
        }
        for meas in evidence.find_measurements():
            want = expected.get((meas.asp, meas.target))
            if want is not None and meas.value != want:
                return False
        return True

    def test_attack_on_parallel_succeeds(self):
        vm, us = self.setup_vm()
        # Malware installed; bmon corrupted to lie about it.
        us.corrupt_component("exts", b"MALWARE")
        us.corrupt_component("bmon", b"bmon-evil")
        # Adversary schedule: C2 first (lying bmon scans exts), then
        # repair bmon, then C1 (av measures now-clean bmon). The VM's
        # parallel order is right-arm-first, matching this schedule —
        # the adversary repairs bmon via a hook between the arms.
        from repro.copland.parser import parse_phrase as pp
        from repro.evidence import ParallelEvidence

        c2 = vm.execute(pp("@us [bmon us exts]"), "bank")
        us.repair_component("bmon")  # hide the tracks
        c1 = vm.execute(pp("@ks [av us bmon]"), "bank")
        evidence = ParallelEvidence(left=c1, right=c2)
        # The appraisal accepts even though exts is malware.
        assert self.appraise(vm, evidence)
        assert us.components["exts"] == b"MALWARE"

    def test_attack_through_real_parallel_phrase(self):
        """The same attack, run through the actual BranchPar phrase
        using the VM's adversary scheduling hook."""
        vm, us = self.setup_vm()
        us.corrupt_component("exts", b"MALWARE")
        us.corrupt_component("bmon", b"bmon-evil")
        vm.between_par_arms = lambda: us.repair_component("bmon")
        from repro.copland.parser import parse_phrase as pp

        evidence = vm.execute(
            pp("@ks [av us bmon] -~- @us [bmon us exts]"), "bank"
        )
        assert self.appraise(vm, evidence)
        assert us.components["exts"] == b"MALWARE"

    def test_attack_on_sequenced_fails_for_slow_adversary(self):
        vm, us = self.setup_vm()
        us.corrupt_component("exts", b"MALWARE")
        us.corrupt_component("bmon", b"bmon-evil")
        from repro.copland.parser import parse_phrase as pp

        # Sequenced protocol runs C1 first. The slow adversary cannot
        # act mid-protocol: bmon is still corrupt when av measures it.
        evidence = vm.execute(pp(
            "@ks [av us bmon -> !] -<- @us [bmon us exts -> !]"
        ), "bank")
        assert not self.appraise(vm, evidence)

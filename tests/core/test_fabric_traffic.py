"""The fat-tree attested-traffic campaign: parity, determinism, faults.

One small campaign (k=4, mixed bulk/web/attested load) is run on the
monolith backend and on the sharded core at 1, 2, and 4 shards;
every view of the result — merged stats, audit ordering, per-flow
completion times, appraisal verdicts, per-port spread — must agree.
"""

import json

import pytest

from repro.core.fabric import (
    FatTreeShape,
    run_fabric_traffic,
)
from repro.net.qdisc import QueueConfig, RecoveryConfig
from repro.net.routing import RoutingMode
from repro.pera.config import BatchingSpec

SEED = 7

SHAPE = FatTreeShape(
    k=4,
    bulk_flows=40,
    web_sessions=6,
    attested_flows=4,
    attested_packets=6,
)


@pytest.fixture(scope="module")
def sharded_runs():
    return {
        shards: run_fabric_traffic(
            SHAPE, shards=shards, seed=SEED, telemetry_active=True
        )
        for shards in (1, 2, 4)
    }


@pytest.fixture(scope="module")
def monolith_run():
    return run_fabric_traffic(SHAPE, seed=SEED, backend="monolith")


class TestCampaignOutcome:
    def test_traffic_flows_and_attestation_succeeds(self, monolith_run):
        result = monolith_run
        assert result.forwarded > 0
        assert result.unroutable == 0
        assert result.attested_hops > 0
        accepted, rejected = result.verdict_counts
        assert accepted > 0 and rejected == 0
        # Half the attested flows divert evidence out-of-band; the
        # collector verifies every record against the anchors.
        assert result.oob_records > 0
        assert result.oob_verified == result.oob_records

    def test_flows_complete_with_sane_fct(self, monolith_run):
        fct = monolith_run.fct_s
        assert len(fct) > 30
        assert all(v > 0 for v in fct.values())
        pct = monolith_run.fct_percentiles()
        assert pct["p50"] <= pct["p95"] <= pct["p99"]


class TestShardedDeterminism:
    def test_byte_identical_journals_across_shard_counts(self, sharded_runs):
        base = sharded_runs[1].result
        for shards in (2, 4):
            other = sharded_runs[shards].result
            assert other.stats_export() == base.stats_export(), shards
            assert other.audit_export() == base.audit_export(), shards

    def test_merged_views_identical(self, sharded_runs):
        base = sharded_runs[1]
        for shards in (2, 4):
            other = sharded_runs[shards]
            assert other.fct_s == base.fct_s
            assert other.verdicts == base.verdicts
            assert other.tx_by_port == base.tx_by_port
            assert other.forwarded == base.forwarded

    def test_monolith_parity(self, sharded_runs, monolith_run):
        sharded = sharded_runs[1]
        assert monolith_run.forwarded == sharded.forwarded
        assert monolith_run.fct_s == sharded.fct_s
        assert monolith_run.verdicts == sharded.verdicts
        assert monolith_run.tx_by_port == sharded.tx_by_port


class TestCompromise:
    def test_rogue_swap_rejected_identically_at_any_shard_count(self):
        shape = FatTreeShape(
            k=4,
            bulk_flows=10,
            web_sessions=2,
            attested_flows=4,
            attested_packets=8,
            compromise_at_s=15e-6,
        )
        results = {
            shards: run_fabric_traffic(shape, shards=shards, seed=3)
            for shards in (1, 4)
        }
        for result in results.values():
            assert result.victim is not None
            accepted, rejected = result.verdict_counts
            # Evidence keeps verifying (the rogue signs honestly) but
            # the program measurement no longer matches the reference.
            assert rejected > 0
        a, b = results[1].result, results[4].result
        assert a.stats_export() == b.stats_export()
        assert a.audit_export() == b.audit_export()
        assert results[1].verdicts == results[4].verdicts


class TestEpochBatching:
    def test_batched_out_of_band_evidence_seals_and_verifies(self):
        shape = FatTreeShape(
            k=4,
            bulk_flows=10,
            web_sessions=0,
            attested_flows=4,
            attested_packets=6,
            batching=BatchingSpec(max_records=4, max_delay_s=50e-6),
        )
        results = {
            shards: run_fabric_traffic(shape, shards=shards, seed=5)
            for shards in (1, 4)
        }
        for result in results.values():
            assert result.epochs_sealed > 0
            assert result.oob_records > 0
            assert result.oob_verified == result.oob_records
        a, b = results[1].result, results[4].result
        assert a.stats_export() == b.stats_export()
        assert a.audit_export() == b.audit_export()


class TestLoadBalance:
    def test_ecmp_spread_within_tolerance(self):
        # Mice-only ECMP load: many independent flow hashes per switch,
        # so the per-port spread should sit close to even.
        shape = FatTreeShape(
            k=4,
            bulk_flows=600,
            web_sessions=0,
            attested_flows=2,
            attested_packets=4,
            mice_fraction=1.0,
            mice_packets=(1, 4),
            routing=RoutingMode.ECMP,
        )
        result = run_fabric_traffic(shape, shards=2, seed=11)
        assert result.forwarded > 1000
        assert result.ecmp_imbalance(min_samples=100) <= 1.8

    def test_flowlet_mode_is_deterministic(self):
        shape = FatTreeShape(
            k=4,
            bulk_flows=30,
            web_sessions=2,
            attested_flows=2,
            attested_packets=4,
            routing=RoutingMode.FLOWLET,
            flowlet_n_packets=8,
        )
        a = run_fabric_traffic(shape, shards=1, seed=11)
        b = run_fabric_traffic(shape, shards=2, seed=11)
        assert a.result.stats_export() == b.result.stats_export()
        assert a.result.audit_export() == b.result.audit_export()
        assert a.tx_by_port == b.tx_by_port


class TestCongestionCampaign:
    """The congestion & recovery acceptance story (ISSUE 9):
    queue-enabled campaigns stay deterministic, incast produces
    congestion evidence, and a corrupting link with link-local
    recovery causes zero verdict churn."""

    QUEUE = QueueConfig(
        capacity_bytes=8192,
        capacity_packets=32,
        ecn_threshold_bytes=2048,
        pause_threshold_bytes=4096,
        recovery=RecoveryConfig(),
    )

    def test_incast_produces_congestion_evidence(self):
        shape = FatTreeShape(queue=self.QUEUE, incast_fan_in=8)
        result = run_fabric_traffic(shape, shards=2, seed=3)
        stats = json.loads(result.result.stats_export())
        assert stats["queue_drops"] > 0
        assert stats["ecn_marked"] > 0
        assert stats["pause_frames"] > 0
        assert result.ecn_delivered > 0

    def test_ecn_signal_drives_flowlet_repicks(self):
        shape = FatTreeShape(
            queue=self.QUEUE,
            incast_fan_in=8,
            routing=RoutingMode.FLOWLET,
        )
        # Congestion re-picks need a marked packet to land on a
        # multi-member pick; seed 7 is pinned as one that does.
        result = run_fabric_traffic(shape, shards=2, seed=7)
        assert result.congestion_repicks > 0
        assert result.congestion_repicks == run_fabric_traffic(
            shape, shards=4, seed=7
        ).congestion_repicks

    def test_corrupting_link_with_recovery_zero_verdict_churn(self):
        """An attested flow crossing a corrupting link is locally
        recovered: the appraiser's verdict counts match the clean run
        exactly — zero churn."""
        queue = QueueConfig(
            recovery=RecoveryConfig(retransmit_limit=8)
        )
        clean = run_fabric_traffic(
            FatTreeShape(queue=queue), seed=SEED, backend="monolith"
        )
        dirty = run_fabric_traffic(
            FatTreeShape(queue=queue, corrupt_link_rate=0.3),
            seed=SEED,
            backend="monolith",
        )
        assert dirty.verdicts == clean.verdicts
        accepted, rejected = dirty.verdict_counts
        assert accepted > 0 and rejected == 0
        # The recovery actually did work: the corruption was real.
        assert set(dirty.fct_s) == set(clean.fct_s)

    def test_corrupted_campaign_recovery_stats(self):
        queue = QueueConfig(recovery=RecoveryConfig(retransmit_limit=8))
        shape = FatTreeShape(queue=queue, corrupt_link_rate=0.3)
        result = run_fabric_traffic(shape, shards=2, seed=SEED)
        stats = json.loads(result.result.stats_export())
        assert stats["recovery_retransmits"] > 0
        assert stats["queue_drops"] == 0

    def test_incast_fan_in_bounded_by_remote_hosts(self):
        with pytest.raises(ValueError):
            run_fabric_traffic(
                FatTreeShape(queue=self.QUEUE, incast_fan_in=99),
                seed=SEED,
                backend="monolith",
            )

    def test_queueless_shapes_unchanged(self):
        """Attaching no QueueConfig keeps the campaign byte-identical
        with the historical transmit-immediately path (no qdisc stats,
        no queue frames)."""
        result = run_fabric_traffic(FatTreeShape(), shards=2, seed=SEED)
        stats = json.loads(result.result.stats_export())
        assert stats["queue_drops"] == 0
        assert stats["ecn_marked"] == 0
        assert stats["pause_frames"] == 0

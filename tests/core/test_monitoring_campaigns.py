"""The monitoring acceptance story: campaigns under the flight recorder.

Three contracts from docs/MONITORING.md, pinned end to end:

- **Coverage**: under the standard chaos plan, every fault family
  raises its mapped alert within two sample windows of activation and
  the alert clears after recovery; a fault-free baseline raises zero
  alerts (no false positives).
- **Determinism**: frame streams and the full timeseries export are
  byte-identical across the monolith and shard counts {1, 2, 4} on
  the inline backend, plus one multiprocessing case per campaign.
- **Integration**: alerts fold into the audit journal canonically and
  the TIMESERIES.json artifact feeds the report CLI's ``timeline`` /
  ``health`` subcommands.
"""

import json

import pytest

from repro.core.chaos import (
    CHAOS_ALERT_FAMILIES,
    assert_chaos_alert_coverage,
    chaos_alert_coverage,
    run_chaos_athens,
    standard_chaos_rules,
)
from repro.core.fabric import (
    FatTreeShape,
    run_fabric_traffic,
    standard_fabric_rules,
)
from repro.faults.plan import FaultPlan
from repro.net.qdisc import QueueConfig
from repro.telemetry.report import main as report_main
from repro.telemetry.timeseries import TIMESERIES_SCHEMA, dump_timeseries

SHARD_COUNTS = (1, 2, 4)

FABRIC_SHAPE = FatTreeShape()


@pytest.fixture(scope="module")
def chaos_monolith():
    return run_chaos_athens(health=standard_chaos_rules())


@pytest.fixture(scope="module")
def fabric_monolith():
    return run_fabric_traffic(
        shape=FABRIC_SHAPE, health=standard_fabric_rules(), backend="monolith"
    )


class TestChaosAlertCoverage:
    def test_every_fault_family_is_detected_and_clears(self, chaos_monolith):
        coverage = assert_chaos_alert_coverage(chaos_monolith)
        detected = {kind for kind in coverage}
        planned = {
            e.kind
            for e in chaos_monolith.plan.events
            if e.kind in CHAOS_ALERT_FAMILIES
            and not (
                e.kind in ("link_loss", "packet_corrupt")
                and float(e.params.get("rate", 0.0)) == 0.0
            )
        }
        assert detected == planned
        assert all(entry["cleared"] for entry in coverage.values())

    def test_detection_lands_within_two_windows(self, chaos_monolith):
        coverage = chaos_alert_coverage(chaos_monolith, within_windows=2)
        for kind, entry in coverage.items():
            hits = [
                a["raised_window"]
                for a in entry["activations"]
                if a["raised_window"] is not None
            ]
            assert hits, f"{kind} never detected"
            for activation in entry["activations"]:
                if activation["raised_window"] is not None:
                    assert (
                        activation["raised_window"]
                        <= activation["window"] + 2
                    )

    def test_fault_free_baseline_raises_nothing(self):
        result = run_chaos_athens(
            plan_factory=lambda seed: FaultPlan(seed=seed),
            reprovision_at=None,
            health=standard_chaos_rules(),
        )
        assert result.health.alerts == []
        assert result.health.active == {}
        # The journal gains no alert events either.
        kinds = {e.kind for e in result.telemetry.audit.events}
        assert "alert.raised" not in kinds

    def test_alerts_fold_into_audit_journal(self, chaos_monolith):
        events = chaos_monolith.telemetry.audit.events
        kinds = [e.kind for e in events]
        assert "alert.raised" in kinds and "alert.cleared" in kinds
        assert [e.seq for e in events] == list(range(1, len(events) + 1))
        alert_times = [
            e.time_s for e in events if e.kind.startswith("alert.")
        ]
        assert alert_times == sorted(alert_times)


class TestChaosFrameDeterminism:
    def test_inline_shards_match_monolith(self, chaos_monolith):
        frames = chaos_monolith.frames_export()
        doc = chaos_monolith.timeseries_export()
        for shards in SHARD_COUNTS:
            sharded = run_chaos_athens(
                shards=shards, health=standard_chaos_rules()
            )
            assert sharded.frames_export() == frames, f"shards={shards}"
            assert sharded.timeseries_export() == doc, f"shards={shards}"
            assert sharded.audit_export() == chaos_monolith.audit_export()

    def test_mp_backend_matches_monolith(self, chaos_monolith):
        sharded = run_chaos_athens(
            shards=2, backend="mp", health=standard_chaos_rules()
        )
        assert sharded.frames_export() == chaos_monolith.frames_export()
        assert (
            sharded.timeseries_export() == chaos_monolith.timeseries_export()
        )

    def test_sampling_without_health_records_frames_only(self):
        from repro.core.chaos import chaos_sampling_spec

        result = run_chaos_athens(sampling=chaos_sampling_spec())
        assert result.frames
        assert result.health is None
        assert result.timeseries()["alerts"] == []


class TestFabricFrameDeterminism:
    def test_inline_shards_match_monolith(self, fabric_monolith):
        frames = fabric_monolith.frames_export()
        doc = fabric_monolith.timeseries_export()
        assert fabric_monolith.frames, "campaign should have recorded frames"
        for shards in SHARD_COUNTS:
            sharded = run_fabric_traffic(
                shape=FABRIC_SHAPE,
                shards=shards,
                health=standard_fabric_rules(),
            )
            assert sharded.frames_export() == frames, f"shards={shards}"
            assert sharded.timeseries_export() == doc, f"shards={shards}"

    def test_mp_backend_matches_monolith(self, fabric_monolith):
        sharded = run_fabric_traffic(
            shape=FABRIC_SHAPE,
            shards=2,
            backend="mp",
            health=standard_fabric_rules(),
        )
        assert sharded.frames_export() == fabric_monolith.frames_export()

    def test_default_shape_raises_no_alerts(self, fabric_monolith):
        assert fabric_monolith.health.alerts == []


#: Tight buffers + an 8-way incast: queues overflow, ECN marks, PFC
#: pauses storm — the congestion rules must see all of it.
CONGESTED_SHAPE = FatTreeShape(
    queue=QueueConfig(
        capacity_bytes=8192,
        capacity_packets=32,
        ecn_threshold_bytes=2048,
        pause_threshold_bytes=4096,
    ),
    incast_fan_in=8,
)

#: Same fabric with queues so roomy the campaign never fills them —
#: the congestion rules must stay silent on it.
CALM_QUEUED_SHAPE = FatTreeShape(
    queue=QueueConfig(
        capacity_bytes=1 << 20,
        capacity_packets=4096,
        ecn_threshold_bytes=1 << 19,
        pause_threshold_bytes=1 << 19,
    ),
)

_CONGESTION_RULES = dict(queue_depth_bytes=4096.0)


class TestCongestionAlerts:
    def test_congested_incast_raises_queue_and_pause_rules(self):
        result = run_fabric_traffic(
            shape=CONGESTED_SHAPE,
            health=standard_fabric_rules(**_CONGESTION_RULES),
            backend="monolith",
        )
        raised = {
            a["detail"]["rule"]
            for a in result.health.alerts
            if a["kind"] == "alert.raised"
        }
        assert "queue-depth" in raised
        assert "pause-storm" in raised
        # Tail-drops under incast also trip the loss rule.
        assert "fabric-drops" in raised

    def test_calm_queued_baseline_is_silent(self):
        result = run_fabric_traffic(
            shape=CALM_QUEUED_SHAPE,
            health=standard_fabric_rules(**_CONGESTION_RULES),
            backend="monolith",
        )
        assert result.health.alerts == []

    def test_congested_alerts_identical_across_shards(self):
        def timeline(shards):
            result = run_fabric_traffic(
                CONGESTED_SHAPE,
                shards=shards,
                health=standard_fabric_rules(**_CONGESTION_RULES),
            )
            return json.dumps(result.health.alerts, sort_keys=True)

        base = timeline(1)
        assert timeline(2) == base
        assert timeline(4) == base


class TestTimeseriesArtifact:
    def test_dump_feeds_report_subcommands(
        self, chaos_monolith, tmp_path, capsys
    ):
        path = tmp_path / "TIMESERIES.json"
        dump_timeseries(chaos_monolith.timeseries(), path)
        doc = json.loads(path.read_text())
        assert doc["schema"] == TIMESERIES_SCHEMA

        assert report_main(["timeline", str(path)]) == 0
        out = capsys.readouterr().out
        assert "net.link.tx_packets" in out

        assert report_main(["health", str(path)]) == 0
        out = capsys.readouterr().out
        assert "dataplane-drops" in out
        assert "alert.raised" in out

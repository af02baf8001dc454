"""The campaign runner's determinism contract, pinned end to end.

Same seed => byte-identical merged outputs for 1, 2 and 4 shards, on
both sharded backends, for three scenarios of increasing hostility:

- a small fat-tree fabric workload (bulk dataplane load, plain and
  with a corrupting link),
- UC1 config assurance (attestation verdicts + epoch batching),
- the chaos campaign (an installed :class:`~repro.faults.FaultPlan`
  with losses, a compromise, crash/restart and clock skew).

The ``monolith`` backend — one plain event loop, no windows — is the
parity oracle: :class:`TestMonolithBackendParity` pins its exports and
scenario outputs byte-identical to inline 1/2/4 shards and mp 2 shards.

"Byte-identical" is taken literally: the comparisons below are over
JSON strings of the merged :class:`~repro.net.simulator.SimStats`,
the merged audit journal, metric counters and gauges, the scenario's
own verdict/exfiltration outputs, and every histogram whose base name
ends in ``_sim_seconds`` (sim-clock latencies are deterministic, so
they are *inside* the contract). Wall-clock histograms (e.g.
``core.path_appraise_seconds``) measure real elapsed time and are the
one deliberate exclusion — see docs/SHARDING.md.

The multiprocessing backend is exercised sparingly (one case per
scenario): it must agree with inline, but each mp case forks workers
and costs real wall time.
"""

import dataclasses
import json

import pytest

from repro.core.chaos import run_chaos_athens, standard_chaos_rules
from repro.core.fabric import (
    FatTreeShape,
    fabric_sampling_spec,
    fabric_traffic_spec,
    run_fabric_traffic,
    standard_fabric_rules,
)
from repro.core.usecases import run_config_assurance
from repro.net.qdisc import QueueConfig, RecoveryConfig
from repro.net.routing import RoutingMode
from repro.net.shardrun import ShardedRunner
from repro.pera.config import BatchingSpec
from repro.telemetry.metrics import parse_name
from repro.util.errors import NetworkError

SHARD_COUNTS = (1, 2, 4)

#: Bulk ECMP load plus two attested flows; the ``chaos`` variant arms a
#: corrupting edge-agg hop on the first attested path (no recovery, so
#: corrupted evidence reaches the appraiser).
FABRIC_SHAPE = FatTreeShape(
    k=4, bulk_flows=40, web_sessions=0, attested_flows=2, attested_packets=4
)

#: The congested campaign: tight buffers so tail-drops, ECN marks and
#: PFC pause frames all fire, an incast converging from other pods
#: onto pod 0 (so backpressure crosses the pod-core shard cut), and a
#: corrupting edge-agg hop that link-local recovery must mask.
CONGESTED_SHAPE = FatTreeShape(
    queue=QueueConfig(
        capacity_bytes=8192,
        capacity_packets=32,
        ecn_threshold_bytes=2048,
        pause_threshold_bytes=4096,
        recovery=RecoveryConfig(),
    ),
    incast_fan_in=8,
    corrupt_link_rate=0.3,
    routing=RoutingMode.FLOWLET,
)


def metric_signature(result):
    """Counters, gauges and sim-clock histograms as deterministic
    JSON; wall-clock histograms excluded (the only section allowed to
    carry nondeterministic measurements)."""
    sim_histograms = {
        key: value
        for key, value in result.metrics.get("histograms", {}).items()
        if parse_name(key)[0].endswith("_sim_seconds")
    }
    return json.dumps(
        {
            "counters": result.metrics.get("counters", {}),
            "gauges": result.metrics.get("gauges", {}),
            "sim_histograms": sim_histograms,
        },
        sort_keys=True,
        default=str,
    )


def fabric_signature(shards, backend, chaos, seed=0):
    shape = FABRIC_SHAPE
    if chaos:
        shape = dataclasses.replace(shape, corrupt_link_rate=0.3)
    run = run_fabric_traffic(shape, shards=shards, backend=backend, seed=seed)
    return json.dumps({
        "forwarded": run.forwarded,
        "verdicts": {str(k): v for k, v in sorted(run.verdicts.items())},
        "stats": run.result.stats_export(),
        "audit": run.result.audit_export(),
        "metrics": metric_signature(run.result),
    }, sort_keys=True)


def uc1_signature(shards, backend, batching=None):
    result = run_config_assurance(shards=shards, backend=backend,
                                  batching=batching)
    return json.dumps({
        "verdicts": [repr(v) for v in result.verdicts],
        "exfiltrated": result.exfiltrated,
        "stats": result.sharded.stats_export(),
        "audit": result.sharded.audit_export(),
        "metrics": metric_signature(result.sharded),
    }, sort_keys=True)


def chaos_signature(shards, backend, seed):
    result = run_chaos_athens(seed=seed, shards=shards, backend=backend)
    return json.dumps({
        "verdicts": [repr(v) for v in result.verdicts],
        "exfiltrated": result.exfiltrated,
        "collector_records": result.collector_records,
        "fault_stats": result.fault_stats,
        "ra_counters": result.ra_counters,
        "stats": result.sharded.stats_export(),
        "audit": result.sharded.audit_export(),
        "metrics": metric_signature(result.sharded),
    }, sort_keys=True, default=str)


class TestFabricDeterminism:
    @pytest.mark.parametrize("chaos", [False, True], ids=["plain", "chaos"])
    def test_shard_sweep(self, chaos):
        sigs = {s: fabric_signature(s, "inline", chaos) for s in SHARD_COUNTS}
        assert sigs[2] == sigs[1]
        assert sigs[4] == sigs[1]

    def test_mp_backend_agrees(self):
        assert fabric_signature(2, "mp", chaos=True) == fabric_signature(
            2, "inline", chaos=True
        )

    def test_seeds_differ(self):
        # The sweep would be vacuous if the signature ignored the run.
        assert fabric_signature(2, "inline", chaos=True, seed=0) != \
            fabric_signature(2, "inline", chaos=True, seed=3)


def congested_signature(shards, backend, seed=3):
    run = run_fabric_traffic(
        CONGESTED_SHAPE,
        shards=shards,
        backend=backend,
        seed=seed,
        sampling=fabric_sampling_spec(),
    )
    return json.dumps({
        "forwarded": run.forwarded,
        "ecn_delivered": run.ecn_delivered,
        "congestion_repicks": run.congestion_repicks,
        "fct": run.fct_percentiles((0.5, 0.95, 0.99, 0.999)),
        "verdicts": {str(k): v for k, v in sorted(run.verdicts.items())},
        "stats": run.result.stats_export(),
        "audit": run.result.audit_export(),
        "frames": run.result.frames_export(),
        "metrics": metric_signature(run.result),
    }, sort_keys=True)


class TestCongestedDeterminism:
    """Queues, ECN, PFC pauses and recovery inside the byte-identity
    contract: the congestion subsystem introduces no new randomness
    and pause frames cross shard cuts through the typed outboxes."""

    def test_shard_sweep(self):
        sigs = {s: congested_signature(s, "inline") for s in SHARD_COUNTS}
        assert sigs[2] == sigs[1]
        assert sigs[4] == sigs[1]

    def test_mp_backend_agrees(self):
        assert congested_signature(2, "mp") == congested_signature(
            2, "inline"
        )

    def test_congestion_signals_actually_fired(self):
        # The sweep is vacuous unless the run really queued, marked,
        # paused and recovered.
        run = run_fabric_traffic(CONGESTED_SHAPE, shards=2, seed=3)
        stats = json.loads(run.result.stats_export())
        assert stats["queue_drops"] > 0
        assert stats["ecn_marked"] > 0
        assert stats["pause_frames"] > 0
        assert stats["recovery_retransmits"] > 0

    @pytest.mark.xfail(
        strict=True,
        reason="known defect: two packets reach one core switch at the "
        "same instant from pods in different shards, and the tie breaks "
        "by local scheduling order, so one flow's last arrival moves by a "
        "serialization delay at 2 and 4 shards",
    )
    def test_per_flow_fct_is_shard_invariant(self):
        fct = {
            shards: run_fabric_traffic(
                CONGESTED_SHAPE, shards=shards, seed=3
            ).fct_s
            for shards in (1, 2)
        }
        assert fct[2] == fct[1]

    def test_matches_monolith(self):
        mono = run_fabric_traffic(
            CONGESTED_SHAPE, seed=3, sampling=fabric_sampling_spec(), backend="monolith"
        )
        sharded = run_fabric_traffic(
            CONGESTED_SHAPE, shards=4, seed=3,
            sampling=fabric_sampling_spec(),
        )
        assert sharded.frames_export() == mono.frames_export()
        assert sharded.fct_percentiles() == mono.fct_percentiles()
        assert sharded.verdicts == mono.verdicts
        assert sharded.ecn_delivered == mono.ecn_delivered


class TestUC1Determinism:
    def test_shard_sweep(self):
        sigs = {s: uc1_signature(s, "inline") for s in SHARD_COUNTS}
        assert sigs[2] == sigs[1]
        assert sigs[4] == sigs[1]

    def test_shard_sweep_with_batching(self):
        # Epoch sealing rides the barrier drain hook; exercise both a
        # count-triggered and a timer-triggered batching config.
        for batching in (
            BatchingSpec(max_records=4, max_delay_s=0.0),
            BatchingSpec(max_records=6, max_delay_s=2e-3),
        ):
            sigs = {
                s: uc1_signature(s, "inline", batching=batching)
                for s in SHARD_COUNTS
            }
            assert sigs[2] == sigs[1]
            assert sigs[4] == sigs[1]

    def test_mp_backend_agrees(self):
        assert uc1_signature(2, "mp") == uc1_signature(2, "inline")

    def test_verdicts_match_monolith(self):
        # Every semantic field must agree (TestMonolithBackendParity
        # pins the full verdicts, trace ids included).
        def semantic(v):
            return (v.accepted, v.failures, v.records_checked,
                    v.hop_count, v.functions_seen, v.degraded)

        mono = run_config_assurance()
        sharded = run_config_assurance(shards=4)
        assert [semantic(v) for v in sharded.verdicts] == [
            semantic(v) for v in mono.verdicts
        ]
        assert sharded.exfiltrated == mono.exfiltrated
        assert sharded.first_rejection == mono.first_rejection


class TestChaosDeterminism:
    @pytest.mark.parametrize("seed", [0, 7])
    def test_shard_sweep_under_fault_plan(self, seed):
        sigs = {s: chaos_signature(s, "inline", seed) for s in SHARD_COUNTS}
        assert sigs[2] == sigs[1]
        assert sigs[4] == sigs[1]

    def test_mp_backend_agrees(self):
        assert chaos_signature(4, "mp", seed=0) == chaos_signature(
            4, "inline", seed=0
        )

    def test_markers_match_monolith(self):
        mono = run_chaos_athens(seed=0)
        sharded = run_chaos_athens(seed=0, shards=2)
        assert sharded.first_rejection == mono.first_rejection
        assert sharded.recovered_at == mono.recovered_at
        assert sharded.exfiltrated == mono.exfiltrated
        assert sharded.collector_records == mono.collector_records


def _parity_exports(result, outputs):
    return json.dumps({
        "stats": result.stats_export(),
        "audit": result.audit_export(),
        "frames": result.frames_export(),
        "outputs": outputs,
    }, sort_keys=True, default=str)


def _congested_parity(backend, shards):
    run = run_fabric_traffic(
        CONGESTED_SHAPE,
        shards=shards,
        backend=backend,
        seed=3,
        sampling=fabric_sampling_spec(),
        health=standard_fabric_rules(queue_depth_bytes=4096.0),
    )
    return _parity_exports(run.result, {
        "forwarded": run.forwarded,
        "attested_hops": run.attested_hops,
        "ecn_delivered": run.ecn_delivered,
        "congestion_repicks": run.congestion_repicks,
        # Percentiles, as in congested_signature: per-flow completion
        # times are not yet shard-invariant (see the xfail below).
        "fct": run.fct_percentiles((0.5, 0.95, 0.99, 0.999)),
        "completed": sorted(run.fct_s),
        "verdicts": sorted(run.verdicts.items()),
        "tx_by_port": run.tx_by_port,
        "timeseries": run.timeseries_export(),
    })


def _chaos_parity(seed):
    def run(backend, shards):
        result = run_chaos_athens(
            seed=seed,
            shards=None if backend == "monolith" else shards,
            backend=backend,
            health=standard_chaos_rules(),
        )
        return _parity_exports(result.sharded, {
            "verdicts": [repr(v) for v in result.verdicts],
            "exfiltrated": result.exfiltrated,
            "collector_records": result.collector_records,
            "fault_stats": result.fault_stats,
            "ra_counters": result.ra_counters,
            "timeseries": result.timeseries_export(),
        })
    return run


def _uc1_parity(batching):
    def run(backend, shards):
        result = run_config_assurance(
            shards=None if backend == "monolith" else shards,
            backend=backend,
            batching=batching,
        )
        return _parity_exports(result.sharded, {
            "verdicts": [repr(v) for v in result.verdicts],
            "exfiltrated": result.exfiltrated,
            "first_rejection": result.first_rejection,
        })
    return run


PARITY_SCENARIOS = {
    "congested": _congested_parity,
    "chaos-seed0": _chaos_parity(0),
    "chaos-seed7": _chaos_parity(7),
    "uc1": _uc1_parity(None),
    "uc1-batched": _uc1_parity(BatchingSpec(max_records=4, max_delay_s=0.0)),
}


@pytest.fixture(scope="module")
def monolith_exports():
    """Each scenario's monolith exports, computed once per module."""
    cache = {}

    def get(scenario):
        if scenario not in cache:
            cache[scenario] = PARITY_SCENARIOS[scenario]("monolith", 1)
        return cache[scenario]

    return get


class TestMonolithBackendParity:
    """The plain event loop is the oracle every partitioning matches,
    byte for byte: merged stats, audit journal, frames and the
    scenario's own outputs (verdicts with their trace ids, FCTs,
    alert timelines)."""

    @pytest.mark.parametrize(
        "backend,shards",
        [("inline", 1), ("inline", 2), ("inline", 4), ("mp", 2)],
        ids=["inline1", "inline2", "inline4", "mp2"],
    )
    @pytest.mark.parametrize("scenario", list(PARITY_SCENARIOS))
    def test_byte_identical_to_shards(
        self, monolith_exports, scenario, backend, shards
    ):
        expected = monolith_exports(scenario)
        assert PARITY_SCENARIOS[scenario](backend, shards) == expected

    def test_runs_one_loop_without_windows(self):
        run = run_fabric_traffic(FABRIC_SHAPE, backend="monolith")
        assert run.result.backend == "monolith"
        assert run.result.shards == 1
        assert run.result.windows == 0

    def test_rejects_more_than_one_shard(self):
        with pytest.raises(NetworkError, match="monolith"):
            ShardedRunner(
                fabric_traffic_spec(FABRIC_SHAPE), shards=2,
                backend="monolith",
            )

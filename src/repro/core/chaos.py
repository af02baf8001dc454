"""Chaos harness: the Athens scenario under injected faults.

This is the integration point of :mod:`repro.faults` — one runnable
story combining every resilience mechanism:

- lossy and flapping links exercise the dataplane resend budget,
- a switch compromise (the UC1 program swap, performed *by the fault
  injector* through the switch's own P4Runtime endpoint) is detected
  by path appraisal and repaired by the controller's
  :meth:`~repro.net.controller.RoutingController.reprovision`,
- an appraiser crash/restart exercises the out-of-band retry/backoff
  path on the evidence mirror,
- a late packet-corruption window shows corrupted evidence rejecting
  (never crashing) the relying party,
- a clock-skew fault churns the evidence cache.

Determinism: :func:`run_chaos_athens` seeds every RNG from its
``seed`` argument and every run's simulators own fresh trace-id
sequences, so two runs with the same seed produce identical
:class:`~repro.net.simulator.SimStats` and byte-identical audit-journal
exports (pinned by ``tests/faults/test_determinism.py``).

:func:`run_degraded_oob` is the minimal degraded-mode scenario: an
out-of-band switch whose appraiser is down for the whole run. The
relying party's fail mode decides the outcome — rejecting under the
default fail-closed policy — which the acceptance tests pin.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields as dataclass_fields
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.appraisal import (
    PathAppraisalPolicy,
    PathAppraiser,
    PathVerdict,
    hardware_reference,
    program_reference,
)
from repro.core.policies import ap1_bank_path_attestation
from repro.core.raswitch import NetworkAwarePeraSwitch
from repro.core.relying_party import RelyingParty
from repro.crypto.keys import KeyRegistry
from repro.faults import FailMode, FaultInjector, FaultPlan, FaultStats, RetryPolicy
from repro.net.controller import RoutingController
from repro.net.headers import ip_to_int
from repro.net.host import Host
from repro.net.shardrun import ScenarioSpec, ShardedResult, run_sharded
from repro.net.simulator import SimStats, Simulator
from repro.net.topology import Topology, linear_topology
from repro.pera.config import CompositionMode, DetailLevel, EvidenceConfig
from repro.pera.inertia import InertiaClass
from repro.pisa.programs import athens_rogue_program, firewall_program
from repro.pisa.runtime import TableEntry
from repro.pisa.tables import MatchKey, MatchKind
from repro.telemetry.health import (
    HealthReport,
    RatioRule,
    ThresholdRule,
    evaluate_health,
    fold_alerts,
    label_filter,
)
from repro.telemetry.instrument import Telemetry
from repro.telemetry.timeseries import (
    SamplingSpec,
    timeseries_export,
    timeseries_snapshot,
)
from repro.util.ids import spawn_seed

_PACKET_GAP_S = 1e-3

#: The standard chaos sampling cadence: two packet slots per window, so
#: the 30-packet campaign produces ~15 windows and every fault window
#: in the standard plan spans at least one full sample window.
CHAOS_SAMPLE_INTERVAL_S = 2 * _PACKET_GAP_S


def chaos_sampling_spec() -> SamplingSpec:
    """The default flight-recorder spec for chaos campaigns."""
    return SamplingSpec(interval_s=CHAOS_SAMPLE_INTERVAL_S)


def standard_chaos_rules() -> List[object]:
    """The chaos campaign's health rules, one symptom family each.

    Every fault family in the standard plan has a rule that sees it
    *live* (within the frames the flight recorder samples during the
    run): dataplane drops for loss/flap, control-channel drops for the
    appraiser outage, rejected path verdicts for compromise/tamper,
    and the injector's own change-event counter for clock skew and
    packet corruption — two faults whose dataplane symptom is
    invisible in the Athens composition (``TRAFFIC_PATH`` never
    consults the time cache, and appraisal runs off the uncorrupted
    control-plane reports, so a payload bit flip on the egress edge
    changes no verdict). The fail-rate ratio is the SLO-style smoothed
    view over a trailing three windows.
    """
    return [
        ThresholdRule(name="dataplane-drops", metric="net.link.dropped"),
        ThresholdRule(name="control-drops", metric="net.control.dropped"),
        ThresholdRule(
            name="verdict-failures",
            metric="core.path_verdicts",
            labels=label_filter(accepted=False),
        ),
        RatioRule(
            name="verdict-fail-rate",
            numerator="core.path_verdicts",
            numerator_labels=label_filter(accepted=False),
            denominator="core.path_verdicts",
            threshold=0.01,
            over_windows=3,
        ),
        ThresholdRule(
            name="clock-skew-events",
            metric="faults.events",
            labels=label_filter(fault="clock_skew", status="injected"),
        ),
        ThresholdRule(
            name="corruption-events",
            metric="faults.events",
            labels=label_filter(fault="packet_corrupt", status="injected"),
        ),
    ]


#: Which health rule detects each fault family's activation. Clearing
#: kinds (``link_up``, ``node_restart``, zero-rate re-arms) are the
#: recovery markers, not covered families.
CHAOS_ALERT_FAMILIES: Dict[str, str] = {
    "link_loss": "dataplane-drops",
    "link_down": "dataplane-drops",
    "switch_compromise": "verdict-failures",
    "packet_corrupt": "corruption-events",
    "evidence_tamper": "verdict-failures",
    "evidence_strip_inband": "verdict-failures",
    "node_crash": "control-drops",
    "clock_skew": "clock-skew-events",
}


def _rogue_configure(node, actor: str) -> None:
    """What the Athens attacker does after its program swap: restore
    forwarding (so the tap stays invisible) and clone the victim's
    traffic to the spy port."""
    node.runtime.write(actor, TableEntry(
        table="ipv4_lpm",
        keys=(MatchKey(MatchKind.LPM, ip_to_int("10.0.1.0"), prefix_len=24),),
        action="forward", params=(2,),
    ))
    node.runtime.write(actor, TableEntry(
        table="intercept",
        keys=(MatchKey(
            MatchKind.TERNARY, ip_to_int("10.0.0.1"), mask=0xFFFFFFFF,
        ),),
        action="clone_to", params=(3,), priority=1,
    ))


@dataclass
class ChaosResult:
    """Everything a chaos run observed, structured for assertions."""

    packets_sent: int
    verdicts: List[PathVerdict]
    first_rejection: Optional[int]
    recovered_at: Optional[int]
    exfiltrated: int
    collector_records: int
    stats: SimStats
    fault_stats: FaultStats
    plan: FaultPlan
    telemetry: Telemetry
    ra_counters: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: The merged runner output (windows, lookahead, canonical metric
    #: snapshot, ...).
    sharded: Optional[ShardedResult] = field(default=None, repr=False)
    #: Flight-recorder output (``sampling=`` runs only): canonical
    #: merged frames, byte-identical across shard counts.
    frames: List[Dict[str, object]] = field(default_factory=list)
    frames_dropped: int = 0
    sampling: Optional[SamplingSpec] = None
    #: Health evaluation over the frames (``health=`` runs only).
    health: Optional[HealthReport] = None

    def audit_export(self) -> str:
        """Canonical JSON of the audit journal (replay comparisons)."""
        return json.dumps(
            [event.as_dict() for event in self.telemetry.audit.events],
            sort_keys=True,
            default=repr,
        )

    def frames_export(self) -> str:
        """Canonical JSON of the frame stream (byte-identity checks)."""
        return json.dumps(self.frames, sort_keys=True)

    def timeseries(self) -> Dict[str, object]:
        """The ``repro.timeseries/v1`` document for this run."""
        if self.sampling is None:
            raise ValueError("run had no sampling= spec; no frames recorded")
        return timeseries_snapshot(
            self.frames,
            self.sampling.interval_s,
            frames_dropped=self.frames_dropped,
            alerts=self.health.alerts if self.health is not None else (),
            rules=self.health.rules if self.health is not None else (),
        )

    def timeseries_export(self) -> str:
        """Canonical JSON of frames + alert timeline (byte-pinned)."""
        return timeseries_export(self.timeseries())

    def narrative(self) -> str:
        """The recovery story, line by line."""
        lines = [
            f"sent {self.packets_sent} packets; "
            f"{len(self.verdicts)} appraised, "
            f"{sum(1 for v in self.verdicts if v.accepted)} accepted",
        ]
        if self.first_rejection is not None:
            lines.append(
                f"compromise detected at appraised packet "
                f"#{self.first_rejection} (evidence rejected)"
            )
        if self.recovered_at is not None:
            lines.append(
                f"recovered at appraised packet #{self.recovered_at} "
                "(vetted program reprovisioned, evidence accepted again)"
            )
        lines.append(
            f"exfiltrated to spy: {self.exfiltrated} packet(s); "
            f"collector holds {self.collector_records} mirrored record(s)"
        )
        lines.append(
            f"dataplane: {self.stats.packets_dropped} dropped, "
            f"{self.stats.local_resends} local resend(s)"
        )
        retries = sum(c.get("oob_retries", 0) for c in self.ra_counters.values())
        recovered = sum(
            c.get("oob_recovered", 0) for c in self.ra_counters.values()
        )
        gave_up = sum(c.get("oob_gave_up", 0) for c in self.ra_counters.values())
        lines.append(
            f"out-of-band mirror: {retries} retr{'y' if retries == 1 else 'ies'}, "
            f"{recovered} recovered, {gave_up} gave up"
        )
        lines.append(
            f"faults: {self.fault_stats.injected} injected, "
            f"{self.fault_stats.cleared} cleared"
        )
        return "\n".join(lines)


def _chaos_topology() -> Topology:
    topo = linear_topology(2)
    topo.add_node("collector", kind="host")
    topo.add_link("s2", 3, "collector", 1)
    topo.add_node("h-spy", kind="host")
    topo.add_link("s1", 3, "h-spy", 1)
    return topo


def _chaos_plan(
    seed: int, packets: int, swap_at: int, reprovision_at: int
) -> FaultPlan:
    """The chaos fault plan, all times anchored to the packet schedule."""
    t = lambda index: index * _PACKET_GAP_S  # noqa: E731
    plan = FaultPlan(seed=seed)
    # Early turbulence: extra loss, then a flap, on the middle link.
    plan.link_loss(t(2), "s1", "s2", rate=0.3)
    plan.link_loss(t(6), "s1", "s2", rate=0.0)
    plan.link_flap(t(7), "s1", "s2", down_s=0.4e-3, up_s=1.1e-3, cycles=2)
    # The Athens swap: the injector *is* the attacker here.
    plan.compromise_switch(
        t(swap_at), "s1", athens_rogue_program, configure=_rogue_configure
    )
    # The appraiser mirror target dies and comes back.
    plan.crash_node(t(swap_at) + 0.5e-3, "collector")
    plan.restart_node(t(reprovision_at), "collector")
    # Late corruption window on the last hop: evidence must reject,
    # never crash.
    plan.corrupt_packets(
        t(packets - 5), "s2", "h-dst", rate=1.0, duration_s=2 * _PACKET_GAP_S
    )
    # And a skewed cache clock on s2 for the remainder.
    plan.clock_skew(t(packets - 3), "s2", skew_s=120.0)
    return plan


def _chaos_build(
    sim,
    packets: int,
    swap_at: int,
    reprovision_at: Optional[int],
    plan_factory: Optional[Callable[[int], FaultPlan]] = None,
):
    """Bind the full chaos deployment into ``sim`` and schedule its
    driving events.

    ``plan_factory`` (called with ``sim.seed``) swaps the default
    Athens plan for any other :class:`FaultPlan` over the same
    deployment — the fault-matrix campaigns replay one fault family at
    a time this way. ``reprovision_at=None`` skips the operator's
    scripted recovery.

    Works on the monolithic :class:`Simulator` (where ``schedule_on`` /
    ``schedule_replicated`` are plain ``schedule``) and on a
    :class:`~repro.net.sharding.ShardSimulator`, where each shard
    builds this complete world and the ownership gates arrange
    single-writer execution. Notably ``rp.send`` is *replicated*: nonce
    issuance and the policy-by-nonce table must exist in the
    destination's shard for appraisal, while the actual transmit is
    gated to h-src's owner.
    """
    telemetry = sim.telemetry
    src = Host("h-src", mac=0x1, ip=ip_to_int("10.0.0.1"))
    dst = Host("h-dst", mac=0x2, ip=ip_to_int("10.0.1.1"))
    spy = Host("h-spy", mac=0x3, ip=ip_to_int("10.9.9.9"))
    collector = Host("collector", mac=0x4, ip=ip_to_int("10.0.2.1"))
    for node in (src, dst, spy, collector):
        sim.bind(node)
    src.resend_budget = 2  # LinkGuardian-style local first-hop recovery

    retry = RetryPolicy(max_attempts=4, base_delay_s=200e-6, max_delay_s=5e-3)
    genuine = firewall_program()
    # TRAFFIC_PATH binds each record to the packet the hop actually
    # saw, so the late corruption window is *detected* (binding check),
    # not merely survived.
    config = EvidenceConfig(
        detail=DetailLevel.MINIMAL, composition=CompositionMode.TRAFFIC_PATH
    )
    switches = []
    for name in ("s1", "s2"):
        switch = NetworkAwarePeraSwitch(
            name,
            config=config,
            appraiser_node="collector",
            mirror_out_of_band=True,
            retry_policy=retry,
        )
        sim.bind(switch)
        switch.resend_budget = 2
        switch.runtime.arbitrate("ctl", 1)
        switch.runtime.set_forwarding_pipeline_config("ctl", firewall_program())
        switch.runtime.write("ctl", TableEntry(
            table="ipv4_lpm",
            keys=(MatchKey(
                MatchKind.LPM, ip_to_int("10.0.1.0"), prefix_len=24,
            ),),
            action="forward", params=(2,),
        ))
        switches.append(switch)

    anchors = KeyRegistry()
    references: Dict[str, Dict[InertiaClass, bytes]] = {}
    for switch in switches:
        anchors.register_pair(switch.keys)
        references[switch.name] = {
            InertiaClass.HARDWARE: hardware_reference(
                switch.engine.hardware_identity
            ),
            InertiaClass.PROGRAM: program_reference(genuine),
        }
    rp = RelyingParty(
        policy=ap1_bank_path_attestation(),
        appraisal=PathAppraisalPolicy(
            anchors=anchors,
            reference_measurements=references,
            program_names={program_reference(genuine): genuine.full_name},
        ),
        composition=CompositionMode.TRAFFIC_PATH,
        telemetry=telemetry,
    )
    rp.attach(sim, src, dst)

    controller = RoutingController(sim, name="ctl", election_id=1)

    t = lambda index: index * _PACKET_GAP_S  # noqa: E731
    if plan_factory is None:
        plan = _chaos_plan(sim.seed, packets, swap_at, reprovision_at)
    else:
        plan = plan_factory(sim.seed)
    injector = FaultInjector(plan)
    injector.attach(sim)

    if reprovision_at is not None:
        # The operator notices the rejections and reprovisions.
        sim.schedule_on(
            "s1",
            t(reprovision_at),
            lambda: controller.reprovision(
                "s1", program_factory=firewall_program
            ),
        )

    for index in range(packets):
        sim.schedule_replicated(
            "h-src",
            t(index),
            lambda seq=index: rp.send(payload=seq.to_bytes(4, "big")),
        )
    return {
        "src": src,
        "dst": dst,
        "spy": spy,
        "collector": collector,
        "switches": switches,
        "rp": rp,
        "controller": controller,
        "injector": injector,
        "plan": plan,
    }


def _ra_counters_of(switch) -> Dict[str, int]:
    return {
        "oob_send_failures": switch.ra_stats.oob_send_failures,
        "oob_retries": switch.ra_stats.oob_retries,
        "oob_recovered": switch.ra_stats.oob_recovered,
        "oob_gave_up": switch.ra_stats.oob_gave_up,
        "undecodable_evidence": switch.ra_stats.undecodable_evidence,
    }


def _verdict_markers(verdicts):
    first_rejection = next(
        (i for i, v in enumerate(verdicts) if not v.accepted), None
    )
    recovered_at = None
    if first_rejection is not None:
        recovered_at = next(
            (
                i
                for i, v in enumerate(verdicts)
                if i > first_rejection and v.accepted
            ),
            None,
        )
    return first_rejection, recovered_at


def chaos_alert_coverage(
    result: ChaosResult, within_windows: int = 2
) -> Dict[str, Dict[str, object]]:
    """Did the monitoring layer *detect* every injected fault family?

    For each activation event in the plan (clearing kinds skipped),
    checks that the family's mapped rule (:data:`CHAOS_ALERT_FAMILIES`)
    was *raised* during the ``within_windows`` sample windows after the
    activation window — either a fresh ``alert.raised`` lands there, or
    the rule was already raised and has not yet cleared (a flap's
    second ``link_down`` while drops are still alerting counts as
    seen). Also checks the rule is not still raised when the run ends
    (recovery cleared it). Returns per-family verdicts keyed by kind.
    """
    if result.health is None or result.sampling is None:
        raise ValueError("run had no health= rules; nothing to check")
    interval = result.sampling.interval_s
    coverage: Dict[str, Dict[str, object]] = {}
    for event in result.plan.events:
        kind = event.kind
        rule = CHAOS_ALERT_FAMILIES.get(kind)
        if rule is None:
            continue  # a clearing/recovery kind, not a covered family
        if kind in ("link_loss", "packet_corrupt") and (
            float(event.params.get("rate", 0.0)) == 0.0
        ):
            continue  # zero-rate re-arm: this is the recovery marker
        activation_window = int(event.time_s // interval)
        deadline = activation_window + within_windows
        hit: Optional[int] = None
        open_at: Optional[int] = None
        for alert in result.health.alerts_for(rule):
            window = int(alert["detail"]["window"])  # type: ignore[index]
            if alert["kind"] == "alert.raised":
                open_at = window
                continue
            # alert.cleared closes the interval [open_at, window)
            if (
                open_at is not None
                and open_at <= deadline
                and window > activation_window
            ):
                hit = max(open_at, activation_window)
                break
            open_at = None
        if hit is None and open_at is not None and open_at <= deadline:
            hit = max(open_at, activation_window)  # still raised at end
        entry = coverage.setdefault(
            kind,
            {
                "rule": rule,
                "activations": [],
                "detected": False,
                "cleared": rule not in result.health.active,
            },
        )
        entry["activations"].append(  # type: ignore[union-attr]
            {
                "time_s": event.time_s,
                "window": activation_window,
                "raised_window": hit,
            }
        )
        if hit is not None:
            # Coverage is per *family*: one detected activation is
            # enough (a flap's second 0.4ms dip may drop nothing at
            # all — there is no symptom to alert on).
            entry["detected"] = True
    return coverage


def assert_chaos_alert_coverage(
    result: ChaosResult, within_windows: int = 2
) -> Dict[str, Dict[str, object]]:
    """The acceptance form of :func:`chaos_alert_coverage`: raise if
    any fault family went undetected or stayed raised past recovery."""
    coverage = chaos_alert_coverage(result, within_windows=within_windows)
    problems = []
    for kind, entry in coverage.items():
        if not entry["detected"]:
            problems.append(
                f"{kind}: rule {entry['rule']!r} raised no alert within "
                f"{within_windows} windows of any activation "
                f"({entry['activations']})"
            )
        if not entry["cleared"]:
            problems.append(
                f"{kind}: rule {entry['rule']!r} still raised at end of run"
            )
    if problems:
        raise AssertionError(
            "health alerts did not cover the fault plan:\n  "
            + "\n  ".join(problems)
        )
    return coverage


def run_chaos_athens(
    seed: int = 0,
    packets: int = 30,
    swap_at: int = 10,
    reprovision_at: Optional[int] = 16,
    shards: Optional[int] = None,
    backend: str = "inline",
    plan_factory: Optional[Callable[[int], FaultPlan]] = None,
    sampling: Optional[SamplingSpec] = None,
    health: Optional[Sequence[object]] = None,
) -> ChaosResult:
    """UC1 under chaos: flapping links, a compromise, a crashed
    appraiser, corruption — and recovery from all of them.

    ``swap_at``/``reprovision_at`` are packet indices (packets go out
    every millisecond); everything else in the fault plan is anchored
    to them.

    The deployment runs under :mod:`repro.net.shardrun`:
    ``shards=None`` on the ``monolith`` backend, otherwise partitioned
    into ``shards`` event loops on the chosen ``backend``; the merged
    result is byte-for-byte the same story either way.

    ``sampling`` installs a flight recorder
    (:class:`~repro.telemetry.timeseries.SamplingSpec`); ``health``
    runs the given rules (default vocabulary:
    :func:`standard_chaos_rules`) over the recorded frames at window
    close, with alert events folded into the audit journal. Passing
    ``health`` without ``sampling`` uses :func:`chaos_sampling_spec`.
    Both the frame stream and the alert timeline are byte-identical
    across shard counts and backends.
    """
    if health is not None and sampling is None:
        sampling = chaos_sampling_spec()
    spec = ScenarioSpec(
        topology=_chaos_topology,
        build=partial(
            _chaos_build,
            packets=packets,
            swap_at=swap_at,
            reprovision_at=reprovision_at,
            plan_factory=plan_factory,
        ),
        harvest=_chaos_harvest,
        sampling=sampling,
    )
    result = run_sharded(
        spec,
        shards=1 if shards is None else shards,
        backend="monolith" if shards is None else backend,
        seed=seed,
    )
    health_report: Optional[HealthReport] = None
    if health is not None:
        # Post-merge evaluation: a pure function of the canonical frame
        # stream, so the alert timeline cannot depend on the
        # partitioning.
        health_report = evaluate_health(
            result.frames, list(health), sampling.interval_s
        )
        fold_alerts(result.telemetry.audit, health_report.alerts)
    verdicts = next(
        (out["verdicts"] for out in result.outputs
         if out["verdicts"] is not None),
        [],
    )
    first_rejection, recovered_at = _verdict_markers(verdicts)
    fault_stats = FaultStats()
    for out in result.outputs:
        for name, value in out["fault_stats"].items():
            setattr(fault_stats, name, getattr(fault_stats, name) + value)
    ra_counters: Dict[str, Dict[str, int]] = {}
    for out in result.outputs:
        ra_counters.update(out["ra_counters"])
    return ChaosResult(
        packets_sent=packets,
        verdicts=verdicts,
        first_rejection=first_rejection,
        recovered_at=recovered_at,
        exfiltrated=sum(out["exfiltrated"] for out in result.outputs),
        collector_records=sum(
            out["collector_records"] for out in result.outputs
        ),
        stats=result.stats,
        fault_stats=fault_stats,
        plan=(
            _chaos_plan(seed, packets, swap_at, reprovision_at)
            if plan_factory is None else plan_factory(seed)
        ),
        telemetry=result.telemetry,
        ra_counters={
            name: ra_counters[name] for name in sorted(ra_counters)
        },
        sharded=result,
        frames=result.frames,
        frames_dropped=result.frames_dropped,
        sampling=sampling,
        health=health_report,
    )


def _chaos_harvest(sim, ctx):
    """Per-shard picklable output: each observation is reported by the
    shard owning its vantage point, and the parent reassembles."""
    return {
        "verdicts": (
            list(ctx["rp"].verdicts) if sim.owns("h-dst") else None
        ),
        "exfiltrated": (
            len(ctx["spy"].received_packets) if sim.owns("h-spy") else 0
        ),
        "collector_records": (
            len(ctx["collector"].control_received)
            if sim.owns("collector") else 0
        ),
        "fault_stats": {
            spec.name: getattr(ctx["injector"].stats, spec.name)
            for spec in dataclass_fields(ctx["injector"].stats)
        },
        "ra_counters": {
            switch.name: _ra_counters_of(switch)
            for switch in ctx["switches"]
            if sim.owns(switch.name)
        },
    }


# --- fault matrix -----------------------------------------------------------
#
# One fault family at a time over the same chaos deployment: each kind
# gets a minimal single-fault plan and an expected protocol signal, so
# a sweep both exercises every resilience mechanism in isolation and
# *proves* each one actually fired — a campaign that quietly injects
# nothing would fail its own predicate, not pass vacuously.

_MATRIX_KINDS: Tuple[str, ...] = (
    "link_loss",
    "link_flap",
    "compromise",
    "appraiser_outage",
    "corruption",
    "clock_skew",
    "evidence_strip",
)

_MATRIX_SIGNALS: Dict[str, str] = {
    "link_loss": "dataplane drops or local resends observed",
    "link_flap": "dataplane drops or local resends observed",
    "compromise": "appraisal rejects evidence after the swap",
    "appraiser_outage": "out-of-band mirror retry/backoff engaged",
    "corruption": "corrupted evidence rejected (never crashed)",
    "clock_skew": "fault injected; appraisals keep concluding",
    "evidence_strip": "stripped evidence detected at appraisal",
}


def fault_matrix_kinds() -> Tuple[str, ...]:
    """The fault families :func:`run_fault_matrix` sweeps by default."""
    return _MATRIX_KINDS


def _matrix_plan(seed: int, packets: int, kind: str) -> FaultPlan:
    """A single-fault plan of family ``kind`` over the chaos topology."""
    t = lambda index: index * _PACKET_GAP_S  # noqa: E731
    mid = packets // 2
    plan = FaultPlan(seed=seed)
    if kind == "link_loss":
        plan.link_loss(t(2), "s1", "s2", rate=0.45)
        plan.link_loss(t(max(3, packets - 4)), "s1", "s2", rate=0.0)
    elif kind == "link_flap":
        plan.link_flap(
            t(3), "s1", "s2", down_s=0.4e-3, up_s=1.1e-3, cycles=3
        )
    elif kind == "compromise":
        plan.compromise_switch(
            t(mid), "s1", athens_rogue_program, configure=_rogue_configure
        )
    elif kind == "appraiser_outage":
        plan.crash_node(t(2), "collector")
        plan.restart_node(t(max(3, packets - 6)), "collector")
    elif kind == "corruption":
        plan.corrupt_packets(
            t(mid), "s2", "h-dst", rate=1.0, duration_s=3 * _PACKET_GAP_S
        )
    elif kind == "clock_skew":
        plan.clock_skew(t(mid), "s2", skew_s=120.0)
    elif kind == "evidence_strip":
        plan.strip_inband(t(mid), "s2", "h-dst")
    else:
        raise ValueError(f"unknown fault-matrix kind {kind!r}")
    return plan


def _matrix_signal_seen(kind: str, result: ChaosResult) -> bool:
    if kind in ("link_loss", "link_flap"):
        return (
            result.stats.packets_dropped + result.stats.local_resends
        ) > 0
    if kind == "compromise":
        return result.first_rejection is not None
    if kind == "appraiser_outage":
        return any(
            counters.get("oob_send_failures", 0)
            + counters.get("oob_retries", 0)
            + counters.get("oob_gave_up", 0) > 0
            for counters in result.ra_counters.values()
        )
    if kind in ("corruption", "evidence_strip"):
        return any(not verdict.accepted for verdict in result.verdicts)
    if kind == "clock_skew":
        return result.fault_stats.injected > 0 and bool(result.verdicts)
    return False


@dataclass
class FaultMatrixEntry:
    """One fault family's run plus its expected-signal check."""

    kind: str
    signal: str
    signal_seen: bool
    result: ChaosResult


def run_fault_matrix(
    seed: int = 0,
    packets: int = 18,
    shards: Optional[int] = None,
    backend: str = "inline",
    kinds: Optional[Sequence[str]] = None,
) -> Dict[str, FaultMatrixEntry]:
    """Sweep the fault matrix: one single-fault campaign per family.

    Each campaign replays the chaos deployment under exactly one
    injected fault family (its RNG stream keyed off ``seed`` and the
    kind, so families are independent and shard-count-invariant) and
    records whether the family's expected protocol signal actually
    appeared. ``shards``/``backend`` run every campaign under the
    sharded runner, which is how CI's chaos-smoke job replays the
    matrix on the multiprocessing backend.
    """
    entries: Dict[str, FaultMatrixEntry] = {}
    for kind in (kinds if kinds is not None else _MATRIX_KINDS):
        result = run_chaos_athens(
            seed=spawn_seed(seed, "fault-matrix", kind),
            packets=packets,
            swap_at=packets // 2,
            reprovision_at=(
                max(packets - 4, packets // 2 + 1)
                if kind == "compromise" else None
            ),
            shards=shards,
            backend=backend,
            plan_factory=partial(_matrix_plan, packets=packets, kind=kind),
        )
        entries[kind] = FaultMatrixEntry(
            kind=kind,
            signal=_MATRIX_SIGNALS[kind],
            signal_seen=_matrix_signal_seen(kind, result),
            result=result,
        )
    return entries


@dataclass
class DegradedResult:
    """Outcome of the minimal appraiser-down scenario."""

    verdict: PathVerdict
    oob_gave_up: int
    oob_recovered: int
    telemetry: Telemetry


def run_degraded_oob(
    seed: int = 0,
    fail_mode: str = FailMode.CLOSED,
    restart_at: Optional[float] = None,
) -> DegradedResult:
    """Out-of-band attestation with the appraiser down from t=0.

    The switch's evidence never arrives (each send fails, retries back
    off, and — unless ``restart_at`` brings the appraiser back in time
    — the switch gives up). The appraiser-side policy then concludes
    via :meth:`PathAppraiser.appraise_unavailable`: rejecting under
    the default fail-closed mode, accepting (flagged degraded) only
    under an explicit fail-open opt-in.
    """
    telemetry = Telemetry(active=True)
    topo = linear_topology(1)
    topo.add_node("collector", kind="host")
    topo.add_link("s1", 3, "collector", 1)
    sim = Simulator(topo, seed=seed, telemetry=telemetry)
    src = Host("h-src", mac=0x1, ip=ip_to_int("10.0.0.1"))
    dst = Host("h-dst", mac=0x2, ip=ip_to_int("10.0.1.1"))
    collector = Host("collector", mac=0x3, ip=ip_to_int("10.0.2.1"))
    for node in (src, dst, collector):
        sim.bind(node)
    switch = NetworkAwarePeraSwitch(
        "s1",
        config=EvidenceConfig(detail=DetailLevel.MINIMAL),
        appraiser_node="collector",
        out_of_band=True,
        retry_policy=RetryPolicy(max_attempts=3, base_delay_s=100e-6),
    )
    sim.bind(switch)
    genuine = firewall_program()
    switch.runtime.arbitrate("ctl", 1)
    switch.runtime.set_forwarding_pipeline_config("ctl", genuine)
    switch.runtime.write("ctl", TableEntry(
        table="ipv4_lpm",
        keys=(MatchKey(MatchKind.LPM, ip_to_int("10.0.1.0"), prefix_len=24),),
        action="forward", params=(2,),
    ))

    plan = FaultPlan(seed=seed)
    plan.crash_node(0.0, "collector")
    if restart_at is not None:
        plan.restart_node(restart_at, "collector")
    injector = FaultInjector(plan)
    injector.attach(sim)

    from repro.net.headers import RaShimHeader

    sim.schedule(0.5e-3, lambda: src.send_udp(
        dst_mac=dst.mac, dst_ip=dst.ip, src_port=1000, dst_port=2000,
        payload=b"degraded",
        ra_shim=RaShimHeader(flags=RaShimHeader.FLAG_POLICY, body=b""),
    ))
    sim.run()

    anchors = KeyRegistry()
    anchors.register_pair(switch.keys)
    appraiser = PathAppraiser(
        "Appraiser",
        PathAppraisalPolicy(
            anchors=anchors,
            reference_measurements={"s1": {
                InertiaClass.HARDWARE: hardware_reference(
                    switch.engine.hardware_identity
                ),
                InertiaClass.PROGRAM: program_reference(genuine),
            }},
            fail_mode=fail_mode,
        ),
        telemetry=telemetry,
    )
    evidence_arrived = bool(collector.control_received)
    if evidence_arrived:
        records = [m for _, _, m in collector.control_received]
        verdict = appraiser.appraise_records(
            records, hop_count=len(records), compiled=None
        )
    else:
        verdict = appraiser.appraise_unavailable(
            "appraiser collector received no evidence "
            f"(switch gave up after {switch.ra_stats.oob_gave_up} "
            "exhausted delivery attempt(s))"
        )
    return DegradedResult(
        verdict=verdict,
        oob_gave_up=switch.ra_stats.oob_gave_up,
        oob_recovered=switch.ra_stats.oob_recovered,
        telemetry=telemetry,
    )

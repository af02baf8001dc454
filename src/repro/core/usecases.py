"""Executable builds of the paper's motivating use cases (§2).

Each function constructs a full simulated deployment, drives it, and
returns a structured result. Examples print these; benchmarks sweep
their parameters.

- UC1 :func:`run_config_assurance` — the Athens affair: a rogue
  program swap is detected through program attestation.
- UC2 :func:`run_path_authentication` — path evidence as an
  authentication factor (AP1).
- UC3 :func:`run_ddos_mitigation` — path evidence as an authorization
  tag: under attack, traffic without evidence is dropped.
- UC4 :func:`run_audit_trail` — evidence as documentation: a scanner's
  findings become a Merkle-committed audit log.
- UC5 :func:`run_cross_referenced` — host-based and network-based
  evidence composed: only traffic from an attested TLS stack leaves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Tuple

from repro.copland.parser import parse_phrase
from repro.copland.vm import CoplandVM, Place
from repro.core.appraisal import (
    PathAppraisalPolicy,
    PathAppraiser,
    PathVerdict,
    hardware_reference,
    program_reference,
)
from repro.core.compiler import compile_policy_for_path
from repro.core.policies import ap1_bank_path_attestation
from repro.core.raswitch import NetworkAwarePeraSwitch
from repro.core.wire import encode_compiled_policy
from repro.crypto.hashing import digest
from repro.crypto.keys import KeyRegistry
from repro.crypto.merkle import MerkleTree
from repro.net.headers import RaShimHeader, ip_to_int
from repro.net.host import Host
from repro.net.shardrun import ScenarioSpec, ShardedResult, run_sharded
from repro.net.simulator import Simulator
from repro.net.topology import Topology, linear_topology
from repro.pera.config import (
    BatchingSpec,
    CompositionMode,
    DetailLevel,
    EvidenceConfig,
)
from repro.pera.inertia import InertiaClass
from repro.pera.records import decode_record_stack, verify_record_batch
from repro.pera.sampling import SamplingMode, SamplingSpec
from repro.pisa.programs import (
    athens_rogue_program,
    firewall_program,
    ipv4_forwarding_program,
    scanner_program,
)
from repro.pisa.runtime import TableEntry
from repro.pisa.tables import MatchKey, MatchKind


def _install_routing(switch, dst_net: str, port: int) -> None:
    switch.runtime.write("ctl", TableEntry(
        table="ipv4_lpm",
        keys=(MatchKey(MatchKind.LPM, ip_to_int(dst_net), prefix_len=24),),
        action="forward", params=(port,),
    ))


def _bind_chain(sim, config: EvidenceConfig, programs):
    """Bind h-src — s1..sN — h-dst (one network-aware switch per
    program) into ``sim``."""
    src = Host("h-src", mac=0x1, ip=ip_to_int("10.0.0.1"))
    dst = Host("h-dst", mac=0x2, ip=ip_to_int("10.0.1.1"))
    sim.bind(src)
    sim.bind(dst)
    switches = []
    for i, program in enumerate(programs, start=1):
        switch = NetworkAwarePeraSwitch(f"s{i}", config=config)
        sim.bind(switch)
        switch.runtime.arbitrate("ctl", 1)
        switch.runtime.set_forwarding_pipeline_config("ctl", program)
        _install_routing(switch, "10.0.1.0", 2)
        switches.append(switch)
    return src, dst, switches


def _pera_chain(switch_count: int, config: EvidenceConfig, programs=None):
    """Standard h-src — s1..sN — h-dst chain of network-aware switches."""
    sim = Simulator(linear_topology(switch_count))
    if programs is None:
        programs = [ipv4_forwarding_program() for _ in range(switch_count)]
    src, dst, switches = _bind_chain(sim, config, programs)
    return sim, src, dst, switches


def _appraiser_for(switches, programs, allow_sampling=False) -> PathAppraiser:
    anchors = KeyRegistry()
    references: Dict[str, Dict[InertiaClass, bytes]] = {}
    program_names: Dict[bytes, str] = {}
    for switch, program in zip(switches, programs):
        anchors.register_pair(switch.keys)
        references[switch.name] = {
            InertiaClass.HARDWARE: hardware_reference(
                switch.engine.hardware_identity
            ),
            InertiaClass.PROGRAM: program_reference(program),
        }
        program_names[program_reference(program)] = program.full_name
    return PathAppraiser(
        "Appraiser",
        PathAppraisalPolicy(
            anchors=anchors,
            reference_measurements=references,
            program_names=program_names,
            allow_sampling=allow_sampling,
        ),
        # Verdicts join the deployment's own journal, next to the
        # evidence they judge.
        telemetry=switches[0].sim.telemetry if switches else None,
    )


# --- UC1: configuration assurance / Athens affair ---------------------------------


@dataclass
class ConfigAssuranceResult:
    packets_sent: int
    verdicts: List[PathVerdict]
    first_rejection: Optional[int]
    swap_at: Optional[int]
    exfiltrated: int
    #: The merged runner output, carrying the canonical
    #: audit/metrics/stats (and the run's telemetry) the determinism
    #: tests compare across backends and shard counts.
    sharded: Optional[ShardedResult] = field(default=None, repr=False)

    @property
    def detection_delay(self) -> Optional[int]:
        """Packets between the swap and its detection."""
        if self.swap_at is None or self.first_rejection is None:
            return None
        return max(0, self.first_rejection - self.swap_at)


def run_config_assurance(
    packets: int = 20,
    swap_at: Optional[int] = 10,
    sampling: Optional[SamplingSpec] = None,
    switch_count: int = 2,
    batching: Optional[BatchingSpec] = None,
    shards: Optional[int] = None,
    backend: str = "inline",
    seed: int = 0,
) -> ConfigAssuranceResult:
    """UC1 / the Athens affair, end to end.

    A chain of ``switch_count`` attesting switches runs vetted
    ``firewall_v5``; at packet ``swap_at`` an attacker (who *is* the
    P4Runtime master) installs the rogue variant that clones traffic to
    a spy port. The relying party appraises each delivered packet's
    path evidence: the program measurement changes, so appraisal
    rejects from the swap on — with per-packet attestation, at the very
    first rogue packet.

    The deployment runs under :mod:`repro.net.shardrun`:
    ``shards=None`` on the ``monolith`` backend, otherwise partitioned
    into ``shards`` event loops on the chosen ``backend``. The merged
    :class:`~repro.net.shardrun.ShardedResult` (canonical journal,
    metrics and telemetry) is in ``.sharded``.
    """
    spec = ScenarioSpec(
        topology=partial(_uc1_topology, switch_count),
        build=partial(
            _uc1_build,
            packets=packets,
            swap_at=swap_at,
            sampling=sampling,
            batching=batching,
            switch_count=switch_count,
        ),
        harvest=_uc1_harvest,
        drain=_uc1_drain if batching is not None else None,
    )
    result = run_sharded(
        spec,
        shards=1 if shards is None else shards,
        backend="monolith" if shards is None else backend,
        seed=seed,
    )
    verdicts = next(
        (out["verdicts"] for out in result.outputs
         if out["verdicts"] is not None),
        [],
    )
    first_rejection = next(
        (i for i, verdict in enumerate(verdicts) if not verdict.accepted),
        None,
    )
    return ConfigAssuranceResult(
        packets_sent=packets,
        verdicts=verdicts,
        first_rejection=first_rejection,
        swap_at=swap_at,
        exfiltrated=sum(out["exfiltrated"] for out in result.outputs),
        sharded=result,
    )


def _install_routing_as(switch, controller: str) -> None:
    switch.runtime.write(controller, TableEntry(
        table="ipv4_lpm",
        keys=(MatchKey(MatchKind.LPM, ip_to_int("10.0.1.0"), prefix_len=24),),
        action="forward", params=(2,),
    ))


def _uc1_athens_swap(switch) -> None:
    """The Athens-affair compromise: an attacker with master arbitration
    installs the rogue firewall variant and an intercept rule cloning
    h-src's traffic to the spy port."""
    switch.runtime.arbitrate("attacker", 99)
    switch.runtime.set_forwarding_pipeline_config(
        "attacker", athens_rogue_program()
    )
    _install_routing_as(switch, "attacker")
    switch.runtime.write("attacker", TableEntry(
        table="intercept",
        keys=(MatchKey(
            MatchKind.TERNARY, ip_to_int("10.0.0.1"),
            mask=0xFFFFFFFF,
        ),),
        action="clone_to", params=(3,), priority=1,
    ))
    switch.notify_state_change(InertiaClass.PROGRAM)


# --- UC1 as a runner scenario -------------------------------------------------
#
# Every shard builds the complete world — hosts, switches, programs,
# routing — so control-plane state and appraisal anchors are replicated
# deterministically; the simulator's ownership gates make each
# scheduled action (the swap on s1's shard, each send on h-src's) fire
# exactly once across the fleet. On the monolith every gate is open.


def _uc1_topology(switch_count: int) -> Topology:
    topo = linear_topology(switch_count)
    topo.add_node("h-spy", kind="host")
    topo.add_link("s1", 3, "h-spy", 1)
    return topo


def _uc1_build(
    sim,
    packets: int,
    swap_at: Optional[int],
    sampling: Optional[SamplingSpec],
    batching: Optional[BatchingSpec],
    switch_count: int,
):
    config = EvidenceConfig(
        detail=DetailLevel.MINIMAL,
        composition=CompositionMode.CHAINED,
        sampling=sampling or SamplingSpec(),
        batching=batching,
    )
    genuine = firewall_program()
    src, dst, switches = _bind_chain(sim, config, [genuine] * switch_count)
    spy = Host("h-spy", mac=0x3, ip=ip_to_int("10.9.9.9"))
    sim.bind(spy)

    appraiser = _appraiser_for(
        switches, [genuine] * switch_count,
        allow_sampling=sampling is not None
        and sampling.mode is not SamplingMode.EVERY_PACKET,
    )
    policy = compile_policy_for_path(
        ap1_bank_path_attestation(),
        path=["h-src"] + [s.name for s in switches] + ["h-dst"],
        bindings={"client": "h-dst"},
        composition=CompositionMode.CHAINED,
    )
    shim_body = encode_compiled_policy(policy)

    for index in range(packets):
        # The swap is its own event on s1's shard, scheduled ahead of
        # the same-time send so it lands first everywhere.
        if swap_at is not None and index == swap_at:
            sim.schedule_on(
                "s1", index * 1e-3,
                lambda: _uc1_athens_swap(switches[0]),
            )
        sim.schedule_on(
            "h-src", index * 1e-3,
            lambda seq=index: src.send_udp(
                dst_mac=dst.mac, dst_ip=dst.ip,
                src_port=1000, dst_port=2000,
                payload=seq.to_bytes(4, "big"),
                ra_shim=RaShimHeader(
                    flags=RaShimHeader.FLAG_POLICY, body=shim_body
                ),
            ),
        )
    return {
        "dst": dst,
        "spy": spy,
        "switches": switches,
        "appraiser": appraiser,
        "policy": policy,
    }


def _uc1_harvest(sim, ctx):
    """Per-shard output: the dst-owning shard appraises delivered
    packets locally (its appraisal anchors are replicas of the same
    deterministic keys), the spy-owning shard counts exfiltration."""
    verdicts = None
    if sim.owns("h-dst"):
        verdicts = [
            ctx["appraiser"].appraise_packet(packet, compiled=ctx["policy"])
            for packet in ctx["dst"].received_packets
        ]
    return {
        "verdicts": verdicts,
        "exfiltrated": (
            len(ctx["spy"].received_packets) if sim.owns("h-spy") else 0
        ),
    }


def _uc1_drain(sim, ctx) -> None:
    """Seal epochs still open (``max_delay_s=0`` configs) on this
    shard's switches so their releases — and the packets they parked —
    enter the next run cycle."""
    for switch in ctx["switches"]:
        if sim.owns(switch.name):
            switch.flush_epochs()


# --- UC2: path evidence as an authentication factor ------------------------------


@dataclass
class PathAuthResult:
    verdict: PathVerdict
    access_granted: bool
    hops_attested: int


def run_path_authentication(
    switch_count: int = 3, from_home_path: bool = True
) -> PathAuthResult:
    """UC2 / AP1: grant limited access if the client connects over an
    acceptable, fully-attested path.

    ``from_home_path=False`` models the user connecting through an
    unknown network: the path's switches are not in the bank's
    reference set, so appraisal fails and access is denied.
    """
    config = EvidenceConfig(composition=CompositionMode.CHAINED)
    programs = [ipv4_forwarding_program() for _ in range(switch_count)]
    sim, src, dst, switches = _pera_chain(switch_count, config, programs)
    known = switches if from_home_path else switches[:-1]
    appraiser = _appraiser_for(known, programs[: len(known)])
    path = ["h-src"] + [s.name for s in switches] + ["h-dst"]
    policy = compile_policy_for_path(
        ap1_bank_path_attestation(),
        path=path,
        bindings={"client": "h-dst"},
        composition=CompositionMode.CHAINED,
    )
    src.send_udp(
        dst_mac=dst.mac, dst_ip=dst.ip, src_port=4000, dst_port=443,
        payload=b"login-attempt",
        ra_shim=RaShimHeader(
            flags=RaShimHeader.FLAG_POLICY, body=encode_compiled_policy(policy)
        ),
    )
    sim.run()
    verdict = appraiser.appraise_packet(dst.received_packets[0], compiled=policy)
    return PathAuthResult(
        verdict=verdict,
        access_granted=verdict.accepted,
        hops_attested=verdict.records_checked,
    )


# --- AP1, complete: path attestation AND the client's host protocol --------------


@dataclass
class Ap1CompleteResult:
    """Both halves of AP1: the *⇒ path side and the @client side."""

    path_verdict: PathVerdict
    client_bmon_clean: bool
    client_exts_clean: bool
    accepted: bool


def run_ap1_complete(
    switch_count: int = 2,
    client_compromised: bool = False,
) -> Ap1CompleteResult:
    """Execute ALL of AP1 (Table 1): per-hop network attestation up to
    the client, then the client's §4.2 host-measurement protocol
    (the blue original in the paper), with the bank accepting only if
    both halves hold.

    ``client_compromised`` installs malware in the client's browser
    extensions AND corrupts the monitor — the sequenced protocol (the
    ``-<-`` in AP1's terminal clause) catches it because the slow
    adversary cannot repair ``bmon`` between the ordered measurements.
    """
    # Network half.
    config = EvidenceConfig(composition=CompositionMode.CHAINED)
    programs = [ipv4_forwarding_program() for _ in range(switch_count)]
    sim, src, dst, switches = _pera_chain(switch_count, config, programs)
    appraiser = _appraiser_for(switches, programs)
    path = ["h-src"] + [s.name for s in switches] + ["h-dst"]
    policy = compile_policy_for_path(
        ap1_bank_path_attestation(), path=path,
        bindings={"client": "h-dst"},
        composition=CompositionMode.CHAINED,
    )
    src.send_udp(
        dst_mac=dst.mac, dst_ip=dst.ip, src_port=4000, dst_port=443,
        payload=b"banking-session",
        ra_shim=RaShimHeader(
            flags=RaShimHeader.FLAG_POLICY, body=encode_compiled_policy(policy)
        ),
    )
    sim.run()
    path_verdict = appraiser.appraise_packet(dst.received_packets[0], policy)

    # Host half: AP1's terminal clause, executed on the Copland VM at
    # the client: @ks [av us bmon -> !] -<- @us [bmon us exts -> !].
    vm = CoplandVM()
    vm.register(Place("bank"))
    ks = vm.register(Place("ks"))
    us = vm.register(Place("us"))
    ks.install_component("av", b"antivirus")
    us.install_component("bmon", b"bmon-good")
    us.install_component("exts", b"extensions-good")
    if client_compromised:
        us.corrupt_component("exts", b"MALWARE")
        us.corrupt_component("bmon", b"bmon-evil")
    evidence = vm.execute(parse_phrase(
        "@ks [av us bmon -> !] -<- @us [bmon us exts -> !]"
    ), "bank")
    golden_bmon = digest(b"bmon-good", domain="component-measurement")
    golden_exts = digest(b"extensions-good", domain="component-measurement")
    measurements = {
        (m.asp, m.target): m.value for m in evidence.find_measurements()
    }
    bmon_clean = measurements[("av", "bmon")] == golden_bmon
    exts_clean = measurements[("bmon", "exts")] == golden_exts
    return Ap1CompleteResult(
        path_verdict=path_verdict,
        client_bmon_clean=bmon_clean,
        client_exts_clean=exts_clean,
        accepted=path_verdict.accepted and bmon_clean and exts_clean,
    )


# --- UC3: path evidence as an authorization tag (DDoS) ----------------------------


@dataclass
class DdosResult:
    legit_sent: int
    legit_delivered: int
    attack_sent: int
    attack_delivered: int
    gated_drops: int

    @property
    def goodput_kept(self) -> float:
        return self.legit_delivered / max(1, self.legit_sent)

    @property
    def attack_passed(self) -> float:
        return self.attack_delivered / max(1, self.attack_sent)


def run_ddos_mitigation(
    legit_packets: int = 20,
    attack_packets: int = 60,
    under_attack: bool = True,
) -> DdosResult:
    """UC3: "while under attack, a network could drop traffic for which
    it lacks path-based evidence."

    Legitimate traffic carries a compiled policy and accumulates hop
    records; attack traffic (spoofed, from an off-path bot) carries
    none. The egress switch gates on evidence exactly when
    ``under_attack`` is set.
    """
    config = EvidenceConfig(composition=CompositionMode.CHAINED)
    programs = [ipv4_forwarding_program(), ipv4_forwarding_program()]
    sim, src, dst, switches = _pera_chain(2, config, programs)
    # The attacker injects directly into s2 through an extra port.
    sim.topology.add_node("h-bot", kind="host")
    sim.topology.add_link("s2", 4, "h-bot", 1)
    bot = Host("h-bot", mac=0x66, ip=ip_to_int("10.6.6.6"))
    sim.bind(bot)

    anchors = KeyRegistry()
    for switch in switches:
        anchors.register_pair(switch.keys)

    if under_attack:
        egress = switches[-1]

        def gate(ctx, records) -> bool:
            # Authorization tag: at least one verifiable upstream record.
            return any(record.verify(anchors) for record in records)

        egress.evidence_gate = gate

    policy = compile_policy_for_path(
        ap1_bank_path_attestation(),
        path=["h-src", "s1", "s2", "h-dst"],
        bindings={"client": "h-dst"},
        composition=CompositionMode.CHAINED,
    )
    shim_body = encode_compiled_policy(policy)
    for index in range(legit_packets):
        sim.schedule(index * 1e-3, lambda seq=index: src.send_udp(
            dst_mac=dst.mac, dst_ip=dst.ip, src_port=2000, dst_port=80,
            payload=b"L" + seq.to_bytes(4, "big"),
            ra_shim=RaShimHeader(
                flags=RaShimHeader.FLAG_POLICY, body=shim_body
            ),
        ))
    for index in range(attack_packets):
        # Attack traffic spoofs the shim (stolen policy bytes) but has
        # no attesting upstream hops, so it carries no valid records.
        sim.schedule(index * 0.3e-3, lambda seq=index: bot.send_udp(
            dst_mac=dst.mac, dst_ip=dst.ip, src_port=6666, dst_port=80,
            payload=b"A" + seq.to_bytes(4, "big"),
            ra_shim=RaShimHeader(
                flags=RaShimHeader.FLAG_POLICY, body=shim_body
            ),
        ))
    sim.run()
    legit = [p for p in dst.received_packets if p.payload.startswith(b"L")]
    attack = [p for p in dst.received_packets if p.payload.startswith(b"A")]
    return DdosResult(
        legit_sent=legit_packets,
        legit_delivered=len(legit),
        attack_sent=attack_packets,
        attack_delivered=len(attack),
        gated_drops=sum(s.ra_stats.gated_drops for s in switches),
    )


# --- UC4: evidence as documentation (audit trail) --------------------------------


@dataclass
class AuditTrailResult:
    matches: int
    log_root: bytes
    proofs_verify: bool
    verdict_accepted: bool
    #: Attested findings that never reached the collector (lost control
    #: messages) — a court-order log must know its own gaps.
    findings_lost: int = 0


def run_audit_trail(c2_flows: int = 3, benign_flows: int = 5) -> AuditTrailResult:
    """UC4: a scanner switch fingerprints C2 traffic; each finding is
    attested out-of-band and committed into a Merkle audit log whose
    inclusion proofs can later back a court-order application.
    """
    topo = Topology()
    topo.add_node("h-in", kind="host")
    topo.add_node("h-out", kind="host")
    topo.add_node("scanner")
    topo.add_node("collector", kind="host")
    topo.add_link("h-in", 1, "scanner", 1)
    topo.add_link("scanner", 2, "h-out", 1)
    topo.add_link("scanner", 3, "collector", 1)
    sim = Simulator(topo)
    h_in = Host("h-in", mac=1, ip=ip_to_int("10.0.0.1"))
    h_out = Host("h-out", mac=2, ip=ip_to_int("10.0.1.1"))
    collector = Host("collector", mac=3, ip=ip_to_int("10.0.2.1"))
    switch = NetworkAwarePeraSwitch(
        "scanner",
        config=EvidenceConfig(detail=DetailLevel.MINIMAL),
        appraiser_node="collector",
        out_of_band=True,
    )
    for node in (h_in, h_out, collector):
        sim.bind(node)
    sim.bind(switch)
    program = scanner_program()
    switch.runtime.arbitrate("ctl", 1)
    switch.runtime.set_forwarding_pipeline_config("ctl", program)
    from repro.pisa.registers import Counter

    switch.pipeline.add_counter(Counter("c2_hits", size=16))
    _install_routing(switch, "10.0.1.0", 2)
    # C2 fingerprint: destination 10.66.0.0/16, UDP port 4444.
    switch.runtime.write("ctl", TableEntry(
        table="c2_patterns",
        keys=(
            MatchKey(MatchKind.TERNARY, ip_to_int("10.66.0.0"), mask=0xFFFF0000),
            MatchKey(MatchKind.TERNARY, 4444, mask=0xFFFF),
        ),
        action="count_and_punt", params=(0,), priority=5,
    ))
    _install_routing(switch, "10.66.0.0", 2)

    # The scanner attests each punted match out of band (UC4-A).
    matches: List[bytes] = []
    findings_lost = 0

    def on_cpu(ctx):
        nonlocal findings_lost
        matches.append(bytes(ctx.payload))
        switch.ra_stats.packets_attested += 1
        record = switch._produce_record(ctx, [])
        delivered = sim.send_control("scanner", "collector", record,
                                     size_hint=len(record.encode()))
        if not delivered:
            findings_lost += 1

    switch.handle_cpu_packet = on_cpu

    for index in range(c2_flows):
        sim.schedule(index * 1e-3, lambda seq=index: h_in.send_udp(
            dst_mac=9, dst_ip=ip_to_int("10.66.0.5"), src_port=3000,
            dst_port=4444, payload=b"beacon" + bytes([seq]),
        ))
    for index in range(benign_flows):
        sim.schedule(index * 1e-3, lambda seq=index: h_in.send_udp(
            dst_mac=h_out.mac, dst_ip=h_out.ip, src_port=3000,
            dst_port=80, payload=b"web" + bytes([seq]),
        ))
    sim.run()

    # The collector commits the attested findings into a Merkle log.
    records = [message for _, _, message in collector.control_received]
    leaves = [record.encode() for record in records] or [b"empty"]
    tree = MerkleTree(leaves)
    proofs_verify = all(
        tree.prove(i).verify(leaf, tree.root) for i, leaf in enumerate(leaves)
    )
    anchors = KeyRegistry()
    anchors.register_pair(switch.keys)
    verdicts = verify_record_batch(anchors, records)
    return AuditTrailResult(
        matches=len(matches),
        log_root=tree.root,
        proofs_verify=proofs_verify,
        verdict_accepted=bool(verdicts) and all(verdicts),
        findings_lost=findings_lost,
    )


# --- UC5 (continued): compliance via trusted redaction ----------------------------


@dataclass
class ComplianceResult:
    total_hops: int
    disclosed_hops: int
    officer_failures: List[str]
    hidden_places_leaked: bool

    @property
    def compliant(self) -> bool:
        return not self.officer_failures


def run_compliance_redaction(
    switch_count: int = 5, disclose: Tuple[int, ...] = (0, 4)
) -> ComplianceResult:
    """UC5's redaction story: "path evidence could be processed to
    redact details sensitive to the enterprise customer before giving
    the redacted evidence to a compliance officer."

    Traffic crosses ``switch_count`` attesting hops inside the cloud;
    the enterprise discloses only the ingress and egress hops to the
    officer, with a signed Merkle commitment to the full set. The
    officer verifies everything disclosed — and learns nothing about
    the hidden hops beyond their count.
    """
    from repro.core.redaction import redact

    config = EvidenceConfig(composition=CompositionMode.POINTWISE)
    programs = [ipv4_forwarding_program() for _ in range(switch_count)]
    sim, src, dst, switches = _pera_chain(switch_count, config, programs)
    policy = compile_policy_for_path(
        ap1_bank_path_attestation(),
        path=["h-src"] + [s.name for s in switches] + ["h-dst"],
        bindings={"client": "h-dst"},
        composition=CompositionMode.POINTWISE,
    )
    src.send_udp(
        dst_mac=dst.mac, dst_ip=dst.ip, src_port=9000, dst_port=443,
        payload=b"regulated-workload",
        ra_shim=RaShimHeader(
            flags=RaShimHeader.FLAG_POLICY,
            body=encode_compiled_policy(policy),
        ),
    )
    sim.run()
    records = decode_record_stack(dst.received_packets[0].ra_shim.body)

    enterprise = KeyRegistry()
    from repro.crypto.keys import KeyPair

    holder = KeyPair.generate("enterprise")
    enterprise.register_pair(holder)
    switch_anchors = KeyRegistry()
    for switch in switches:
        switch_anchors.register_pair(switch.keys)

    bundle = redact(records, list(disclose), holder)
    failures = bundle.verify(enterprise, switch_anchors)
    disclosed_places = {d.record.place for d in bundle.disclosed}
    hidden = {s.name for s in switches} - {
        records[i].place for i in disclose
    }
    leaked = bool(disclosed_places & hidden)
    return ComplianceResult(
        total_hops=bundle.total_records,
        disclosed_hops=len(bundle.disclosed),
        officer_failures=failures,
        hidden_places_leaked=leaked,
    )


# --- UC5: cross-referenced host + network attestation -----------------------------


@dataclass
class CrossReferencedResult:
    host_evidence_ok: bool
    path_verdict: PathVerdict
    flow_allowed: bool


def run_cross_referenced(
    verified_tls: bool = True, switch_count: int = 2
) -> CrossReferencedResult:
    """UC5: "TLS packets that were produced by a verified implementation
    could be allowed to leave the network, while packets produced by
    un-verified implementations are blocked."

    Host-based Copland evidence attests the sender's TLS stack; the
    network's path evidence attests the forwarding path. The egress
    decision requires both.
    """
    # Host side: a Copland VM measuring the TLS stack component.
    vm = CoplandVM()
    vm.register(Place("gateway"))
    host_place = vm.register(Place("sender"))
    host_place.install_component("tls", b"verified-tls-1.3-build")
    if not verified_tls:
        host_place.corrupt_component("tls", b"openssl-custom-fork")
    evidence = vm.execute(parse_phrase("@sender [rot sender tls -> !]"),
                          at_place="gateway")
    golden = digest(b"verified-tls-1.3-build", domain="component-measurement")
    host_anchors = KeyRegistry()
    host_anchors.register_pair(host_place.keypair)
    measurement = evidence.find_measurements()[0]
    signature_ok = host_anchors.verify(
        "sender", evidence.signed_payload(), evidence.signature
    )
    host_ok = signature_ok and measurement.value == golden

    # Network side: AP1-style path attestation.
    config = EvidenceConfig(composition=CompositionMode.CHAINED)
    programs = [ipv4_forwarding_program() for _ in range(switch_count)]
    sim, src, dst, switches = _pera_chain(switch_count, config, programs)
    appraiser = _appraiser_for(switches, programs)
    path = ["h-src"] + [s.name for s in switches] + ["h-dst"]
    policy = compile_policy_for_path(
        ap1_bank_path_attestation(), path=path,
        bindings={"client": "h-dst"}, composition=CompositionMode.CHAINED,
    )
    src.send_udp(
        dst_mac=dst.mac, dst_ip=dst.ip, src_port=5000, dst_port=443,
        payload=b"tls-client-hello",
        ra_shim=RaShimHeader(
            flags=RaShimHeader.FLAG_POLICY, body=encode_compiled_policy(policy)
        ),
    )
    sim.run()
    path_verdict = appraiser.appraise_packet(
        dst.received_packets[0], compiled=policy
    )
    return CrossReferencedResult(
        host_evidence_ok=host_ok,
        path_verdict=path_verdict,
        flow_allowed=host_ok and path_verdict.accepted,
    )

"""A deterministic discrete-event network simulator.

Nodes implement :class:`Node`; the simulator owns the clock and the
event queue. Packet hand-off between nodes goes through
:meth:`Simulator.transmit`, which applies link latency and
serialization delay. Determinism: ties in the event queue break on a
monotonically increasing sequence number, never on object identity.

The simulator also offers an out-of-band *control channel*
(:meth:`send_control`) used for evidence sent "directly to the
appraiser" (paper Fig. 2, out-of-band variant) — modelled as a
message with its own latency, not as dataplane packets, matching the
common deployment where the control network is separate. Control
deliveries to absent nodes are *counted* (``SimStats.control_dropped``)
symmetrically with dataplane drops, never silently lost and never a
crash — an unobservable control plane is exactly what the paper
argues against.

Observability: the simulator owns a
:class:`~repro.telemetry.instrument.Telemetry` domain (inert unless
enabled) and feeds it per-link transmit/drop/control counters as they
happen plus a full stats snapshot at the end of every :meth:`run`.
The event trace and packet log are bounded ring buffers
(``trace_limit`` entries each); evictions under heavy traffic are
counted in ``SimStats.dropped_trace_entries`` instead of growing the
heap without bound.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, fields
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.net.packet import Packet
from repro.net.qdisc import QdiscEngine
from repro.net.topology import Topology
from repro.telemetry.audit import AuditKind
from repro.telemetry.instrument import (
    Telemetry,
    collect_simulator,
    default_telemetry,
)
from repro.telemetry.tracing import TraceContext, TraceIds
from repro.util.clock import SimClock
from repro.util.errors import NetworkError
from repro.util.ids import spawn_seed
from repro.util.ring import RingBuffer

#: Default bound on the event trace and the packet log, each.
DEFAULT_TRACE_LIMIT = 65536


class Node:
    """Behaviour attached to a topology node.

    Subclasses override :meth:`handle_packet` (dataplane) and
    :meth:`handle_control` (out-of-band channel).
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.sim: Optional["Simulator"] = None  # bound by Simulator.bind

    def on_bind(self, sim: "Simulator") -> None:
        """Hook called when the node is attached to a simulator."""

    def handle_packet(self, packet: Packet, in_port: int) -> None:
        """Receive a dataplane packet on ``in_port``. Default: drop."""

    def handle_control(self, sender: str, message: Any) -> None:
        """Receive an out-of-band control message. Default: drop."""


# Events live on the heap as bare (time, seq, action) tuples: seq is
# unique, so comparisons resolve before reaching the (incomparable)
# action, and tuple ordering is several times cheaper than a dataclass
# __lt__ on the ~1 heap op per simulated event the run loop performs.


@dataclass(frozen=True)
class PacketLogEntry:
    """One transmission, recorded when tracing is enabled."""

    time: float
    from_node: str
    out_port: int
    to_node: str
    in_port: int
    wire_length: int
    five_tuple: tuple
    summary: str


@dataclass
class SimStats:
    """Aggregate counters the benchmarks read off after a run."""

    packets_transmitted: int = 0
    bytes_transmitted: int = 0
    packets_dropped: int = 0
    control_messages: int = 0
    control_bytes: int = 0
    control_dropped: int = 0
    events_processed: int = 0
    dropped_trace_entries: int = 0
    #: Lost transmit attempts recovered by a sender's local resend
    #: budget (LinkGuardian-style); not counted in packets_dropped.
    local_resends: int = 0
    #: Tail drops at a full egress queue (repro.net.qdisc); also
    #: counted in packets_dropped (reason ``queue_full``).
    queue_drops: int = 0
    #: Packets ECN-marked above an egress queue's marking threshold.
    ecn_marked: int = 0
    #: PFC-style pause frames sent upstream (resumes not counted).
    pause_frames: int = 0
    #: Link-local recovery retransmissions (a subset of
    #: local_resends: the attempts driven by a RecoveryConfig).
    recovery_retransmits: int = 0
    #: Packets delayed by in-order release behind a recovered packet.
    recovery_held: int = 0

    def merge(self, other: "SimStats") -> "SimStats":
        """Combine two shards' stats. Every field is a pure per-shard
        count (no averages, no shared globals), so merge is field-wise
        addition — commutative and associative, which is what lets the
        sharded runner fold any number of shards in any grouping and
        get the same totals."""
        return SimStats(**{
            f.name: getattr(self, f.name) + getattr(other, f.name)
            for f in fields(self)
        })

    def as_dict(self) -> Dict[str, int]:
        """Picklable/JSON export form (field order is declaration order)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


class Simulator:
    """Event loop binding node behaviours onto a :class:`Topology`."""

    def __init__(
        self,
        topology: Topology,
        control_latency_s: float = 50e-6,
        seed: int = 0,
        trace_limit: int = DEFAULT_TRACE_LIMIT,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.topology = topology
        self.clock = SimClock()
        self.stats = SimStats()
        self.control_latency_s = control_latency_s
        self.telemetry = telemetry if telemetry is not None else default_telemetry()
        self.telemetry.bind_clock(self.clock)
        # Loss draws come from one independent stream per *directed*
        # link, derived by hashing (seed, "loss", "node:port"). A
        # directed link's transmissions happen in its sender's causal
        # order no matter how the fabric is partitioned, so the draw
        # sequence — hence every drop decision — is invariant under
        # sharding (a single shared sequential RNG would entangle
        # unrelated links through global event interleaving).
        self.seed = seed
        self._loss_streams: Dict[str, random.Random] = {}
        self._nodes: Dict[str, Node] = {}
        self._queue: List[Tuple[float, int, Callable[[], None]]] = []
        self._seq = 0
        self._barrier_hooks: List[Callable[[], None]] = []
        self._trace: RingBuffer[Tuple[float, str, str]] = RingBuffer(trace_limit)
        self.trace_enabled = False
        self.packet_log: RingBuffer[PacketLogEntry] = RingBuffer(trace_limit)
        # Fault-injection hook (see repro.faults); None = no faults, and
        # the dataplane fast path costs exactly one is-None branch.
        self.faults = None
        # Egress-queue engine (see repro.net.qdisc); created lazily on
        # the first transmit over a link carrying a QueueConfig, so
        # queue-less worlds pay one is-None branch and nothing else.
        self._qdisc_engine: Optional[QdiscEngine] = None
        # Flight recorder (see repro.telemetry.timeseries); None = no
        # sampling. Ticks are virtual — fired by the run loop before
        # the first event at or past each tick time — so the recorder
        # never perturbs the event queue or the processed count.
        self._recorder = None
        # Trace ids stamped by hosts this simulator runs: per-origin
        # serials, owned here so two runs in one process never share
        # (or have to reset) a sequence.
        self.trace_ids = TraceIds()
        #: Wall-clock seconds spent processing events (outside SimStats:
        #: wall time is not deterministic).
        self.busy_seconds = 0.0

    def install_faults(self, hook) -> None:
        """Install a fault-injection hook (duck-typed; see
        :class:`~repro.faults.injector.FaultInjector`). The hook is
        consulted on every transmission, delivery and control send."""
        if self.faults is not None:
            raise NetworkError("a fault hook is already installed")
        self.faults = hook

    def install_recorder(self, recorder) -> None:
        """Install a flight recorder (see
        :func:`repro.telemetry.timeseries.install_recorder`)."""
        if self._recorder is not None:
            raise NetworkError("a flight recorder is already installed")
        self._recorder = recorder

    @property
    def recorder(self):
        return self._recorder

    def pump_recorder(self) -> None:
        """Fire every recorder tick due at or before the current clock.

        The run loop pumps automatically; campaign code calls this
        around out-of-loop mutations (drain flushes, barrier sweeps) so
        their deltas land in the window the monolith would put them in.
        """
        if self._recorder is not None:
            self._recorder.advance_to(self.clock.now)

    def recorder_runtime(self) -> Tuple[float, float]:
        """``(backlog, busy_seconds)`` for the runtime export section."""
        return (float(len(self._queue)), self.busy_seconds)

    def finalize(self) -> None:
        """End-of-run close-out: finish the flight recorder's residual
        window and export the final stats (each :meth:`run` already
        folded its events into them)."""
        if self._recorder is not None:
            self._recorder.finish(self.clock.now)
        if self.telemetry.active:
            collect_simulator(self.telemetry, self)

    # --- setup ------------------------------------------------------------

    def bind(self, node: Node) -> None:
        """Attach a behaviour object to its topology node."""
        if not self.topology.has_node(node.name):
            raise NetworkError(f"topology has no node named {node.name!r}")
        if node.name in self._nodes:
            raise NetworkError(f"node {node.name!r} already bound")
        node.sim = self
        self._nodes[node.name] = node
        node.on_bind(self)

    def node(self, name: str) -> Node:
        behaviour = self._nodes.get(name)
        if behaviour is None:
            raise NetworkError(f"no behaviour bound for node {name!r}")
        return behaviour

    @property
    def bound_nodes(self) -> List[str]:
        return sorted(self._nodes)

    # --- event queue --------------------------------------------------------

    def schedule(self, delay: float, action: Callable[[], None]) -> None:
        """Run ``action`` ``delay`` seconds from now."""
        if delay < 0:
            raise NetworkError(f"cannot schedule in the past (delay {delay})")
        self._seq += 1
        heapq.heappush(
            self._queue, (self.clock.now + delay, self._seq, action)
        )

    def schedule_at(self, time: float, action: Callable[[], None]) -> None:
        """Run ``action`` at absolute sim time ``time`` (≥ now)."""
        self.schedule(time - self.clock.now, action)

    def owns(self, name: str) -> bool:
        """Whether this simulator is responsible for node ``name``.

        The monolithic simulator owns everything; a
        :class:`~repro.net.sharding.ShardSimulator` owns only its
        partition's nodes. Scenario code and node behaviours consult
        this to stay single-writer under sharding (a foreign replica
        of a host must not originate the traffic its owner sends).
        """
        return True

    def schedule_on(
        self, node_name: str, delay: float, action: Callable[[], None]
    ) -> None:
        """Schedule scenario-driving work attributed to ``node_name``.

        Same as :meth:`schedule` on the monolith; under sharding the
        action runs only in the shard that owns ``node_name``, so a
        scripted send fires exactly once no matter how many shards
        replay the scenario build.
        """
        self.schedule(delay, action)

    def schedule_replicated(
        self, owner_hint: str, delay: float, action: Callable[[], None]
    ) -> None:
        """Schedule state-sync work that must run in *every* shard.

        ``owner_hint`` names the node whose shard counts the event in
        ``SimStats.events_processed`` (all other shards process it
        uncounted), keeping the merged count invariant under
        re-partitioning. The fault injector uses this for activations:
        a link-down toggle must flip state wherever either endpoint
        lives, but is one logical event.
        """
        self.schedule(delay, action)

    def run_barrier_hooks(self) -> None:
        """Fire every registered barrier hook (window boundaries)."""
        for hook in self._barrier_hooks:
            hook()

    def add_barrier_hook(self, hook: Callable[[], None]) -> None:
        """Register a hook run at every window barrier.

        The monolithic engine has no windows, so hooks registered here
        never fire in a plain :meth:`run` — but node behaviours (epoch
        batchers, telemetry flushers) register unconditionally and get
        barrier-synced sealing for free when the same scenario runs
        under :class:`~repro.net.sharding.ShardSimulator`.
        """
        self._barrier_hooks.append(hook)

    def next_event_time(self) -> Optional[float]:
        """Earliest pending event time, or None when the queue is empty."""
        return self._queue[0][0] if self._queue else None

    def run(self, until: Optional[float] = None, max_events: int = 1_000_000) -> int:
        """Drain the event queue; returns the number of events processed.

        ``until`` bounds simulated time; ``max_events`` guards against
        runaway loops in buggy node behaviours.
        """
        processed = 0
        busy_from = perf_counter()
        recorder = self._recorder
        due = recorder.next_tick_s if recorder is not None else float("inf")
        try:
            while self._queue and processed < max_events:
                if until is not None and self._queue[0][0] > until:
                    break
                time, _seq, action = heapq.heappop(self._queue)
                if time >= due:
                    # A tick at exactly `time` fires first: frame w
                    # covers [w·Δ, (w+1)·Δ), so this event's effects
                    # belong to the next window.
                    recorder.advance_to(time)
                    due = recorder.next_tick_s
                self.clock.advance_to(time)
                action()
                processed += 1
            if until is not None:
                self.clock.advance_to(until)
                if recorder is not None:
                    recorder.advance_to(until)
        finally:
            # Account for and export what DID happen even when a node
            # behaviour raised mid-event: a crashed run must still
            # leave a usable trace on disk. Flush errors are swallowed
            # so they can never mask the original exception.
            self.stats.events_processed += processed
            self.busy_seconds += perf_counter() - busy_from
            if self.telemetry.active:
                collect_simulator(self.telemetry, self)
            try:
                self.telemetry.flush()
            except Exception:
                pass
        return processed

    # --- dataplane ----------------------------------------------------------

    def transmit(
        self,
        from_node: str,
        out_port: int,
        packet: Packet,
        resend_budget: int = 0,
    ) -> bool:
        """Send ``packet`` out of ``from_node``'s ``out_port``.

        Returns ``False`` (and counts a drop) when the port is unwired,
        mirroring a real switch forwarding to a dark port.

        ``resend_budget`` is a LinkGuardian-style local recovery knob:
        a sender that can see the loss (link-level ack/corruption
        detection) immediately re-offers the packet up to that many
        times. Resent losses count in ``SimStats.local_resends``, not
        ``packets_dropped``; a down link is never retryable.
        """
        link = self.topology.link_at(from_node, out_port)
        if link is None:
            self._count_drop(from_node, "dark_port", packet)
            self._note(f"{from_node} dropped {packet!r}: port {out_port} unwired")
            return False
        if link.queue is not None:
            # Queued link: contention, congestion signals and recovery
            # live in the qdisc engine (repro.net.qdisc).
            return self._qdisc().offer(
                from_node, out_port, link, packet, resend_budget
            )
        peer, peer_port = link.other_end(from_node)
        faults = self.faults
        attempts = 0
        while True:
            reason: Optional[str] = None
            outgoing = packet
            if faults is not None:
                reason, outgoing = faults.filter_transmit(
                    from_node, peer, packet
                )
            if (
                reason is None
                and link.drop_rate > 0
                and self._loss_stream(from_node, out_port).random()
                < link.drop_rate
            ):
                reason = "link_loss"
            if reason is None:
                packet = outgoing
                break
            if reason == "fault_link_down" or attempts >= resend_budget:
                self._count_drop(from_node, reason, packet)
                self._note(
                    f"{from_node}:{out_port} lost {packet!r} ({reason})"
                )
                return False
            attempts += 1
            self.stats.local_resends += 1
            self._note(
                f"{from_node}:{out_port} resending {packet!r} after {reason}"
            )
        delay = link.transit_delay(packet.wire_length)
        self.stats.packets_transmitted += 1
        self.stats.bytes_transmitted += packet.wire_length
        tel = self.telemetry
        if packet.trace is not None:
            # Each link crossing advances the causal context: hop+1,
            # the forwarding node appended to the lineage.
            packet = packet.with_trace(packet.trace.hopped(from_node))
        if tel.active:
            link_label = f"{from_node}:{out_port}->{peer}:{peer_port}"
            tel.counter("net.link.tx_packets", link=link_label).inc()
            tel.counter("net.link.tx_bytes", link=link_label).inc(
                packet.wire_length
            )
            if packet.trace is not None:
                tel.audit_event(
                    AuditKind.PACKET_FORWARDED,
                    from_node,
                    trace=packet.trace,
                    link=link_label,
                )
            if attempts:
                tel.audit_event(
                    AuditKind.RECOVERY_RESENT,
                    from_node,
                    trace=packet.trace,
                    attempts=attempts,
                    link=link_label,
                )
        if self.trace_enabled:
            # Building the note (a Packet repr) is the expensive part;
            # gate it here rather than inside _note.
            self._note(
                f"{from_node}:{out_port} -> {peer}:{peer_port} {packet!r}"
            )
            self._log_transmission(
                from_node, out_port, peer, peer_port, packet
            )

        self._schedule_packet_delivery(peer, peer_port, packet, delay)
        return True

    def _log_transmission(
        self,
        from_node: str,
        out_port: int,
        peer: str,
        peer_port: int,
        packet: Packet,
    ) -> None:
        """Append one packet-log entry (caller gates on trace_enabled)."""
        if self.packet_log.append(PacketLogEntry(
            time=self.clock.now,
            from_node=from_node,
            out_port=out_port,
            to_node=peer,
            in_port=peer_port,
            wire_length=packet.wire_length,
            five_tuple=packet.five_tuple,
            summary=repr(packet),
        )):
            self.stats.dropped_trace_entries += 1

    # --- egress queues (repro.net.qdisc) ------------------------------------

    def _qdisc(self) -> QdiscEngine:
        engine = self._qdisc_engine
        if engine is None:
            engine = QdiscEngine(self)
            self._qdisc_engine = engine
        return engine

    def qdisc_queue_depths(self) -> List[Tuple[str, int, int]]:
        """Sorted ``(node, port, depth_bytes)`` for every egress queue
        this simulator owns — the flight-recorder probe input."""
        if self._qdisc_engine is None:
            return []
        return self._qdisc_engine.owned_depths()

    def queue_depth_bytes(self, node: str, port: int) -> int:
        """Current buffered bytes on one egress queue (0 if none)."""
        if self._qdisc_engine is None:
            return 0
        queue = self._qdisc_engine.queues.get((node, port))
        return queue.depth_bytes if queue is not None else 0

    def _schedule_pause_delivery(
        self,
        to_node: str,
        to_port: int,
        paused: bool,
        from_node: str,
        delay: float,
    ) -> None:
        """Arrange for a PFC pause/resume frame to reach ``to_node``.

        Split out like :meth:`_schedule_packet_delivery` so the
        sharded engine can route frames aimed at foreign-owned
        upstream nodes through the barrier outboxes.
        """
        self.schedule(
            delay,
            lambda: self._deliver_pause(to_node, to_port, paused, from_node),
        )

    def _deliver_pause(
        self, to_node: str, to_port: int, paused: bool, from_node: str
    ) -> None:
        self._qdisc().on_pause(to_node, to_port, paused, from_node)

    def _loss_stream(self, from_node: str, out_port: int) -> random.Random:
        """The loss RNG for one directed link (lazily spawned)."""
        key = f"{from_node}:{out_port}"
        stream = self._loss_streams.get(key)
        if stream is None:
            stream = random.Random(spawn_seed(self.seed, "loss", key))
            self._loss_streams[key] = stream
        return stream

    def _schedule_packet_delivery(
        self, peer: str, peer_port: int, packet: Packet, delay: float
    ) -> None:
        """Arrange for ``packet`` to hit ``peer`` after ``delay``.

        Split out of :meth:`transmit` so the sharded engine can route
        deliveries whose target lives in another shard through the
        barrier outboxes instead of the local queue.
        """
        self.schedule(delay, lambda: self._deliver_packet(peer, peer_port, packet))

    def _deliver_packet(self, peer: str, peer_port: int, packet: Packet) -> None:
        behaviour = self._nodes.get(peer)
        if behaviour is None:
            self._count_drop(peer, "unbound_node", packet)
            self._note(f"{peer} has no behaviour; dropped {packet!r}")
            return
        if self.faults is not None and self.faults.node_is_down(peer):
            self._count_drop(peer, "node_down", packet)
            self._note(f"{peer} is down; dropped {packet!r}")
            return
        behaviour.handle_packet(packet, peer_port)

    def drop(self, at_node: str, packet: Packet, reason: str) -> None:
        """Record an intentional drop (policy decision, TTL expiry...)."""
        self._count_drop(at_node, "policy", packet)
        self._note(f"{at_node} dropped {packet!r}: {reason}")

    def _count_drop(
        self, at_node: str, reason: str, packet: Optional[Packet] = None
    ) -> None:
        self.stats.packets_dropped += 1
        tel = self.telemetry
        if tel.active:
            tel.counter("net.link.dropped", node=at_node, reason=reason).inc()
            if packet is not None and packet.trace is not None:
                tel.audit_event(
                    AuditKind.PACKET_DROPPED,
                    at_node,
                    trace=packet.trace,
                    reason=reason,
                )

    # --- control channel ------------------------------------------------------

    def send_control(
        self,
        sender: str,
        recipient: str,
        message: Any,
        size_hint: int = 0,
        trace: Optional[TraceContext] = None,
    ) -> bool:
        """Deliver an out-of-band message after the control-plane latency.

        Returns ``False`` (and counts a control drop, symmetrically
        with dataplane drops) when the recipient has no behaviour bound
        at send *or* at delivery time — an evidence stream aimed at an
        absent appraiser must be observable as loss, not an exception
        and not silence.
        """
        faults = self.faults
        if faults is not None:
            if faults.node_is_down(recipient):
                self._count_control_drop(recipient, "node_down", trace=trace)
                self._note(
                    f"control {sender} -> {recipient}: dropped (node down)"
                )
                return False
            reason, message = faults.filter_control(
                sender, recipient, message, trace
            )
            if reason is not None:
                self._count_control_drop(recipient, reason, trace=trace)
                self._note(
                    f"control {sender} -> {recipient}: dropped ({reason})"
                )
                return False
        if not self._is_bound_anywhere(recipient):
            self._count_control_drop(recipient, "unbound_at_send", trace=trace)
            self._note(
                f"control {sender} -> {recipient}: dropped (no behaviour bound)"
            )
            return False
        self.stats.control_messages += 1
        self.stats.control_bytes += size_hint
        tel = self.telemetry
        if tel.active:
            tel.counter(
                "net.control.messages", sender=sender, recipient=recipient
            ).inc()
            tel.counter(
                "net.control.bytes", sender=sender, recipient=recipient
            ).inc(size_hint)
            if trace is not None:
                tel.audit_event(
                    AuditKind.CONTROL_SENT,
                    sender,
                    trace=trace,
                    recipient=recipient,
                    message=type(message).__name__,
                )
        self._note(f"control {sender} -> {recipient}: {type(message).__name__}")
        self._schedule_control_delivery(sender, recipient, message, trace)
        return True

    def _is_bound_anywhere(self, name: str) -> bool:
        """Whether ``name`` has a behaviour in this world (any shard)."""
        return name in self._nodes

    def _schedule_control_delivery(
        self,
        sender: str,
        recipient: str,
        message: Any,
        trace: Optional[TraceContext],
    ) -> None:
        """Arrange control delivery after the control-plane latency.

        Split out of :meth:`send_control` for the same reason as
        :meth:`_schedule_packet_delivery`: a sharded engine overrides
        this to route cross-shard messages through barrier outboxes.
        """
        self.schedule(
            self.control_latency_s,
            lambda: self._deliver_control(sender, recipient, message, trace),
        )

    def _deliver_control(
        self,
        sender: str,
        recipient: str,
        message: Any,
        trace: Optional[TraceContext],
    ) -> None:
        behaviour = self._nodes.get(recipient)
        if behaviour is None:
            self._count_control_drop(
                recipient, "unbound_at_delivery", trace=trace
            )
            self._note(
                f"control {sender} -> {recipient}: dropped at delivery"
            )
            return
        if self.faults is not None and self.faults.node_is_down(recipient):
            self._count_control_drop(
                recipient, "node_down_at_delivery", trace=trace
            )
            self._note(
                f"control {sender} -> {recipient}: dropped (node down)"
            )
            return
        behaviour.handle_control(sender, message)

    def _count_control_drop(
        self,
        recipient: str,
        reason: str,
        trace: Optional[TraceContext] = None,
    ) -> None:
        self.stats.control_dropped += 1
        tel = self.telemetry
        if tel.active:
            tel.counter(
                "net.control.dropped", recipient=recipient, reason=reason
            ).inc()
            tel.audit_event(
                AuditKind.CONTROL_DROPPED,
                recipient,
                trace=trace,
                reason=reason,
            )

    # --- tracing ------------------------------------------------------------

    def _note(self, text: str) -> None:
        if self.trace_enabled:
            if self._trace.append((self.clock.now, "event", text)):
                self.stats.dropped_trace_entries += 1

    @property
    def trace(self) -> List[Tuple[float, str, str]]:
        return self._trace.to_list()

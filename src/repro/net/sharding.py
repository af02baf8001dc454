"""Partitioned event loops: the sharded simulation core.

A :class:`~repro.net.topology.Topology` is split into per-switch-group
shards by :func:`partition_topology`; each shard runs its own
:class:`ShardSimulator` event loop inside a bounded *lookahead window*
and exchanges cross-boundary packets and control messages through
typed outbox entries at window barriers (the classic conservative /
YAWNS synchronisation scheme).

Why this is safe — the lookahead theorem this module relies on: let
``L`` be the minimum latency over all *cut* links (links whose
endpoints live in different shards) and the control-plane latency,
whichever is smaller. Every cross-shard effect generated at local time
``t`` arrives no earlier than ``t + L`` (serialization delay only adds
to that). So while a shard processes events in the window
``[t0, t0 + L)``, nothing another shard does *in the same window* can
influence it: any message born in the window lands at or after
``t0 + L``, i.e. in a later window. Shards therefore run the window
independently, swap outboxes at the barrier, and repeat.

Determinism is the hard requirement, not a nice-to-have: the same seed
must produce byte-identical merged stats, verdicts and audit journals
for 1, 2 or 4 shards. Three design rules make that hold:

* **Full-world build, single-writer execution.** Every shard builds
  the complete scenario (same nodes, same keys, same RNG streams), but
  ownership gates — :meth:`Simulator.owns` consulted by ``bind``,
  ``transmit``, ``send_control``, ``Host.send`` and ``schedule_on`` —
  ensure each logical action executes in exactly one shard.
* **Keyed randomness.** Loss and fault draws come from per-directed-
  link streams (:func:`repro.util.ids.spawn_seed`), and trace ids from
  per-origin serials, so no draw sequence depends on the global event
  interleaving that sharding changes.
* **Canonical exchange order.** Outbox entries carry a deterministic
  ``(arrival_time, kind, endpoint..., per-endpoint index)`` prefix;
  the runner sorts the merged entries on it before injecting, so the
  receiving shard's tie-breaking sequence numbers are assigned in an
  order independent of how many shards produced the entries.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.net.packet import Packet
from repro.net.simulator import Node, Simulator
from repro.net.topology import Link, Topology, fabric_pod_map
from repro.telemetry.tracing import TraceContext
from repro.util.errors import NetworkError

#: Outbox entry kinds (sort lexicographically: control before packets
#: before pause frames on arrival-time ties, which is part of the
#: canonical order).
KIND_CONTROL = "ctl"
KIND_PACKET = "pkt"
KIND_PAUSE = "pse"


@dataclass(frozen=True)
class Partition:
    """An assignment of topology nodes to shards, plus the window size.

    ``shard_count`` is the *effective* count (never more than the
    number of anchor nodes); ``owner`` maps every node name to its
    shard; ``lookahead_s`` is the conservative window width derived
    from the minimum cut-link latency and the control-plane latency;
    ``cut_links`` are the links crossing shard boundaries.
    """

    shard_count: int
    owner: Mapping[str, int]
    lookahead_s: float
    cut_links: Tuple[Link, ...] = field(default_factory=tuple)

    def nodes_of(self, shard_id: int) -> List[str]:
        """Sorted node names owned by ``shard_id``."""
        return sorted(n for n, s in self.owner.items() if s == shard_id)


def _assign_pod_groups(
    anchors: List[str],
    pods: Mapping[str, str],
    shards: int,
    owner: Dict[str, int],
) -> int:
    """Chunk pod groups onto shards, balancing anchor counts.

    Groups (pods, plus singletons for unmapped anchors) are ordered by
    their smallest member name and assigned contiguously: a shard
    keeps taking whole groups while that moves its size strictly
    closer to the running balance target, always leaving at least one
    group per remaining shard. Returns the effective shard count.
    """
    by_tag: Dict[str, List[str]] = {}
    for name in anchors:
        by_tag.setdefault(pods.get(name, name), []).append(name)
    groups = [
        by_tag[tag] for tag in sorted(by_tag, key=lambda t: min(by_tag[t]))
    ]
    effective = min(shards, len(groups))
    remaining = len(anchors)
    gi = 0
    for shard in range(effective):
        remaining_shards = effective - shard
        target = remaining / remaining_shards
        took = 0
        while gi < len(groups):
            size = len(groups[gi])
            if took > 0 and shard < effective - 1:
                groups_left_if_skipped = len(groups) - gi
                if groups_left_if_skipped <= remaining_shards - 1:
                    break
                if abs(took + size - target) >= abs(took - target):
                    break
            for name in groups[gi]:
                owner[name] = shard
            took += size
            gi += 1
            if (
                shard < effective - 1
                and len(groups) - gi == remaining_shards - 1
            ):
                break
        remaining -= took
    return effective


def partition_topology(
    topology: Topology,
    shards: int,
    control_latency_s: float = 50e-6,
    pods: Optional[Mapping[str, str]] = None,
) -> Partition:
    """Split ``topology`` into ``shards`` balanced switch groups.

    Anchors (non-host nodes) are sorted by name and cut into
    contiguous, balanced chunks — deterministic, and for the canned
    topologies (chains, leaf–spine with zero-padded names) contiguity
    follows the physical layout, keeping the cut small. Hosts join the
    shard of their lowest-named assigned neighbor, so an edge host
    never sits across a one-hop boundary from its switch.

    ``pods`` optionally groups anchors into atomic units a shard
    boundary never splits: a fat-tree pod's edge and aggregation
    switches stay together, so the only cut links are pod–core
    uplinks (whose latency then sets the lookahead window). When
    ``pods`` is ``None`` the grouping is inferred from
    :func:`repro.net.topology.fabric_pod_map`, which returns an empty
    map for anything but :func:`~repro.net.topology.fat_tree`-style
    names — legacy topologies keep the exact per-anchor chunking.
    Unmapped anchors form singleton groups.

    The effective shard count is capped at the anchor count (group
    count when pods apply); asking for 4 shards of a 2-switch chain
    yields 2. A cut link with zero latency (or a non-positive control
    latency) would make the lookahead window empty — that is a
    configuration error, reported as :class:`NetworkError` rather
    than a silent livelock.
    """
    if shards < 1:
        raise NetworkError(f"shard count must be >= 1, got {shards}")
    names = topology.node_names
    anchors = [n for n in names if topology.kind_of(n) != "host"]
    if not anchors:
        anchors = list(names)
    if pods is None:
        pods = fabric_pod_map(topology)
    owner: Dict[str, int] = {}
    if pods:
        effective = _assign_pod_groups(anchors, pods, shards, owner)
    else:
        effective = min(shards, len(anchors))
        base, extra = divmod(len(anchors), effective)
        start = 0
        for shard in range(effective):
            size = base + (1 if shard < extra else 0)
            for name in anchors[start : start + size]:
                owner[name] = shard
            start += size
    for name in names:
        if name in owner:
            continue
        assigned = [p for p in topology.neighbors_of(name) if p in owner]
        owner[name] = owner[min(assigned)] if assigned else 0
    cut = tuple(
        link
        for link in topology.links
        if owner[link.node_a] != owner[link.node_b]
    )
    if effective == 1:
        lookahead = float("inf")
    else:
        lookahead = min(
            [link.latency_s for link in cut] + [control_latency_s]
        )
        if lookahead <= 0:
            raise NetworkError(
                "cannot shard: a zero-latency cross-shard path leaves no "
                "lookahead window (cut links and the control latency must "
                "all be > 0)"
            )
    return Partition(
        shard_count=effective,
        owner=dict(owner),
        lookahead_s=lookahead,
        cut_links=cut,
    )


class ShardSimulator(Simulator):
    """One shard's event loop: a :class:`Simulator` with ownership
    gates and a windowed engine.

    The scenario build binds the *full* node set; foreign nodes are
    accepted (so their names resolve and their behaviours can be
    driven by the owner shard's messages via injection) but get no
    ``on_bind``, no registration, and every output path they could
    take — transmit, control send, host send, scheduled driving — is
    gated on :meth:`owns`.

    The engine replaces the monolith's single heap with a *backlog*
    (events at or beyond the current window) plus an *overlay* heap
    (events landing inside the open window). ``run_window`` drains the
    merged stream in ``(time, seq)`` order; deliveries aimed at
    foreign-owned nodes leave through :meth:`take_outbox` instead of
    the local queue.
    """

    def __init__(
        self,
        topology: Topology,
        partition: Partition,
        shard_id: int,
        **kwargs: Any,
    ) -> None:
        if not 0 <= shard_id < partition.shard_count:
            raise NetworkError(
                f"shard id {shard_id} out of range for "
                f"{partition.shard_count} shards"
            )
        super().__init__(topology, **kwargs)
        self.partition = partition
        self.shard_id = shard_id
        self._foreign_nodes: Dict[str, Node] = {}
        # (time, seq, counted, action) tuples; seq is unique so tuple
        # comparison never reaches the (incomparable) action.
        self._backlog: List[Tuple[float, int, bool, Callable[[], None]]] = []
        self._overlay: List[Tuple[float, int, bool, Callable[[], None]]] = []
        self._window_end: Optional[float] = None
        self._window_hard: Optional[float] = None
        self._outbox: List[tuple] = []
        self._pkt_counters: Dict[Tuple[str, int], int] = {}
        self._ctl_counters: Dict[Tuple[str, str], int] = {}
        self._pause_counters: Dict[Tuple[str, int], int] = {}
        self._processed_accum = 0
        self._uncounted_accum = 0
        self._finalized = False

    # --- ownership ----------------------------------------------------------

    def owns(self, name: str) -> bool:
        return self.partition.owner.get(name, 0) == self.shard_id

    def bind(self, node: Node) -> None:
        if self.owns(node.name):
            super().bind(node)
            return
        # Foreign replica: keep the behaviour resolvable (controllers
        # and appraisers consult the full world), give the node a
        # back-reference so its own ownership gates work, but skip
        # on_bind (no caches, no barrier hooks, no timers) — the owner
        # shard runs the real instance, and telemetry collection skips
        # replicas so per-node gauges merge exactly once.
        if not self.topology.has_node(node.name):
            raise NetworkError(f"topology has no node named {node.name!r}")
        if node.name in self._foreign_nodes or node.name in self._nodes:
            raise NetworkError(f"node {node.name!r} already bound")
        node.sim = self
        self._foreign_nodes[node.name] = node

    def node(self, name: str) -> Node:
        behaviour = self._foreign_nodes.get(name)
        if behaviour is not None:
            return behaviour
        return super().node(name)

    @property
    def bound_nodes(self) -> List[str]:
        return sorted(set(self._nodes) | set(self._foreign_nodes))

    def _is_bound_anywhere(self, name: str) -> bool:
        return name in self._nodes or name in self._foreign_nodes

    def transmit(
        self,
        from_node: str,
        out_port: int,
        packet: Packet,
        resend_budget: int = 0,
    ) -> bool:
        if not self.owns(from_node):
            # The owner shard performs (and accounts) this send.
            return True
        return super().transmit(from_node, out_port, packet, resend_budget)

    def send_control(
        self,
        sender: str,
        recipient: str,
        message: Any,
        size_hint: int = 0,
        trace: Optional[TraceContext] = None,
    ) -> bool:
        if not self.owns(sender):
            return True
        return super().send_control(sender, recipient, message, size_hint, trace)

    # --- scheduling ----------------------------------------------------------

    def schedule(self, delay: float, action: Callable[[], None]) -> None:
        if delay < 0:
            raise NetworkError(f"cannot schedule in the past (delay {delay})")
        self._schedule_event(delay, action, counted=True)

    def schedule_on(
        self, node_name: str, delay: float, action: Callable[[], None]
    ) -> None:
        if self.owns(node_name):
            self.schedule(delay, action)

    def schedule_replicated(
        self, owner_hint: str, delay: float, action: Callable[[], None]
    ) -> None:
        self._schedule_event(delay, action, counted=self.owns(owner_hint))

    def _schedule_event(
        self, delay: float, action: Callable[[], None], counted: bool
    ) -> None:
        self._seq += 1
        time = self.clock.now + delay
        entry = (time, self._seq, counted, action)
        if (
            self._window_end is not None
            and time < self._window_end
            and (self._window_hard is None or time <= self._window_hard)
        ):
            heapq.heappush(self._overlay, entry)
        else:
            self._backlog.append(entry)

    # --- cross-shard routing --------------------------------------------------

    def _schedule_packet_delivery(
        self, peer: str, peer_port: int, packet: Packet, delay: float
    ) -> None:
        if self.owns(peer):
            super()._schedule_packet_delivery(peer, peer_port, packet, delay)
            return
        arrival = self.clock.now + delay
        if self._window_end is not None and arrival < self._window_end:
            raise NetworkError(
                f"lookahead violation: packet for {peer!r} arrives at "
                f"{arrival} inside the open window ending {self._window_end}"
            )
        key = (peer, peer_port)
        index = self._pkt_counters.get(key, 0)
        self._pkt_counters[key] = index + 1
        self._outbox.append(
            (arrival, KIND_PACKET, peer, peer_port, index, packet)
        )

    def _schedule_control_delivery(
        self,
        sender: str,
        recipient: str,
        message: Any,
        trace: Optional[TraceContext],
    ) -> None:
        if self.owns(recipient):
            super()._schedule_control_delivery(sender, recipient, message, trace)
            return
        arrival = self.clock.now + self.control_latency_s
        if self._window_end is not None and arrival < self._window_end:
            raise NetworkError(
                f"lookahead violation: control for {recipient!r} arrives at "
                f"{arrival} inside the open window ending {self._window_end}"
            )
        key = (sender, recipient)
        index = self._ctl_counters.get(key, 0)
        self._ctl_counters[key] = index + 1
        self._outbox.append(
            (arrival, KIND_CONTROL, sender, recipient, index, message, trace)
        )

    def _schedule_pause_delivery(
        self,
        to_node: str,
        to_port: int,
        paused: bool,
        from_node: str,
        delay: float,
    ) -> None:
        if self.owns(to_node):
            super()._schedule_pause_delivery(
                to_node, to_port, paused, from_node, delay
            )
            return
        # A pause frame travels its link's propagation latency; on a
        # cut link that is at least the lookahead window, so the same
        # conservative argument as packets applies.
        arrival = self.clock.now + delay
        if self._window_end is not None and arrival < self._window_end:
            raise NetworkError(
                f"lookahead violation: pause frame for {to_node!r} arrives "
                f"at {arrival} inside the open window ending "
                f"{self._window_end}"
            )
        key = (to_node, to_port)
        index = self._pause_counters.get(key, 0)
        self._pause_counters[key] = index + 1
        self._outbox.append(
            (arrival, KIND_PAUSE, to_node, to_port, index, paused, from_node)
        )

    def take_outbox(self) -> List[tuple]:
        """Drain and return this window's cross-shard entries."""
        entries, self._outbox = self._outbox, []
        return entries

    def inject(self, entries: List[tuple]) -> None:
        """Accept cross-shard entries routed here by the runner.

        Entries must already be in canonical order (the runner sorts
        the merged outboxes); injection assigns local tie-breaking
        sequence numbers in that order, which is what makes same-time
        delivery interleaving independent of the shard count. The
        delivery event is scheduled (counted) here and nowhere else,
        so ``events_processed`` still sums to the monolith's count.
        """
        for entry in entries:
            if entry[1] == KIND_PACKET:
                time, _, peer, peer_port, _index, packet = entry
                self.schedule_at(
                    time,
                    lambda p=peer, pp=peer_port, pk=packet: (
                        self._deliver_packet(p, pp, pk)
                    ),
                )
            elif entry[1] == KIND_CONTROL:
                time, _, sender, recipient, _index, message, trace = entry
                self.schedule_at(
                    time,
                    lambda s=sender, r=recipient, m=message, tr=trace: (
                        self._deliver_control(s, r, m, tr)
                    ),
                )
            elif entry[1] == KIND_PAUSE:
                time, _, to_node, to_port, _index, paused, from_node = entry
                self.schedule_at(
                    time,
                    lambda n=to_node, p=to_port, f=paused, s=from_node: (
                        self._deliver_pause(n, p, f, s)
                    ),
                )
            else:
                raise NetworkError(f"unknown outbox entry kind {entry[1]!r}")

    # --- the windowed engine ---------------------------------------------------

    def next_event_time(self) -> Optional[float]:
        """Earliest pending event time, or None when the shard is idle."""
        if not self._backlog:
            return None
        return min(entry[0] for entry in self._backlog)

    def run_window(
        self,
        t_end: float,
        hard_limit: Optional[float] = None,
        max_events: int = 1_000_000,
    ) -> int:
        """Process every event with ``time < t_end`` (and ``time <=
        hard_limit`` when given); returns the number of *counted*
        events.

        Events scheduled mid-window that land inside the window run in
        the same pass (overlay heap); everything else accumulates in
        the backlog for later windows. The window bound is exclusive
        while the hard limit (the run's ``until``) is inclusive —
        matching the monolith, which processes events at exactly
        ``until``.
        """
        due: List[Tuple[float, int, bool, Callable[[], None]]] = []
        rest: List[Tuple[float, int, bool, Callable[[], None]]] = []
        for entry in self._backlog:
            if entry[0] < t_end and (
                hard_limit is None or entry[0] <= hard_limit
            ):
                due.append(entry)
            else:
                rest.append(entry)
        due.sort()
        self._backlog = rest
        self._window_end = t_end
        self._window_hard = hard_limit
        overlay = self._overlay
        processed = 0
        uncounted = 0
        index = 0
        recorder = self._recorder
        tick_due = (
            recorder.next_tick_s if recorder is not None else float("inf")
        )
        busy_from = perf_counter()
        try:
            while processed + uncounted < max_events:
                head = due[index] if index < len(due) else None
                if overlay and (head is None or overlay[0] < head):
                    entry = heapq.heappop(overlay)
                elif head is not None:
                    entry = head
                    index += 1
                else:
                    break
                time, _seq, counted, action = entry
                if time >= tick_due:
                    # Same virtual-tick rule as the monolith loop: the
                    # tick at `time` closes its window before the event
                    # at `time` executes.
                    recorder.advance_to(time)
                    tick_due = recorder.next_tick_s
                self.clock.advance_to(time)
                action()
                if counted:
                    processed += 1
                else:
                    uncounted += 1
        finally:
            # On a max_events abort (or a node behaviour raising),
            # park the unprocessed remainder back in the backlog so
            # state stays consistent for finalization.
            self._backlog.extend(due[index:])
            while overlay:
                self._backlog.append(heapq.heappop(overlay))
            self._window_end = None
            self._window_hard = None
            self._processed_accum += processed
            self._uncounted_accum += uncounted
            # Wall-clock this shard actually computed, summed across
            # windows: on k-core hardware the run's critical path is
            # max over shards of this, the capacity number the scaling
            # benchmark reports next to raw wall time. Never part of
            # SimStats — wall time is not deterministic.
            self.busy_seconds += perf_counter() - busy_from
        return processed

    def finalize(self) -> None:
        """End-of-run accounting and telemetry export (idempotent).

        Mirrors the monolith ``run``'s ``finally`` block: fold the
        processed-event count into stats, snapshot simulator gauges,
        and flush sinks — swallowing flush errors so they never mask a
        scenario exception.
        """
        if self._finalized:
            return
        self._finalized = True
        if self._recorder is not None:
            # Close the residual window before gauges are collected so
            # the frame stream reflects exactly the simulated activity
            # (collector gauges never enter frames anyway, but the
            # ordering keeps finalize single-pass).
            self._recorder.finish(self.clock.now)
        self.stats.events_processed += self._processed_accum
        if self.telemetry.active:
            from repro.telemetry.instrument import collect_simulator

            collect_simulator(self.telemetry, self)
        try:
            self.telemetry.flush()
        except Exception:
            pass

    def recorder_runtime(self) -> Tuple[float, float]:
        """``(backlog, busy_seconds)`` — this shard's runtime view."""
        return (
            float(len(self._backlog) + len(self._overlay)),
            self.busy_seconds,
        )

    def run(
        self, until: Optional[float] = None, max_events: int = 1_000_000
    ) -> int:
        """Standalone drain — only meaningful for a 1-shard partition.

        Multi-shard simulators must run under a
        :class:`~repro.net.shardrun.ShardedRunner`, which owns the
        barrier protocol; calling ``run`` directly on one shard of
        many would silently drop cross-shard traffic.
        """
        if self.partition.shard_count != 1:
            raise NetworkError(
                "a multi-shard ShardSimulator runs under a ShardedRunner; "
                "direct run() is only valid for shard_count == 1"
            )
        total = 0
        while total < max_events:
            start = self.next_event_time()
            if start is None:
                break
            if until is not None and start > until:
                break
            total += self.run_window(
                float("inf"), hard_limit=until, max_events=max_events - total
            )
            self.run_barrier_hooks()
        if until is not None:
            self.clock.advance_to(until)
        self.finalize()
        return total


__all__ = [
    "KIND_CONTROL",
    "KIND_PACKET",
    "KIND_PAUSE",
    "Partition",
    "ShardSimulator",
    "partition_topology",
]

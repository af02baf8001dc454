"""Causal trace contexts: one id per packet, hop-incremented lineage.

PR 2's telemetry answers *how much* (counters) and *how long* (spans),
but not *why did request X fail*: a span at switch s3 and a verdict at
the appraiser had no causal link back to the packet that crossed hop 1.
A :class:`TraceContext` is that link — a small frozen token carried in
:class:`~repro.net.packet.Packet` metadata (outside the wire form, like
the ancillary data a real NIC driver attaches to an skb):

- ``trace_id`` — a stable short token naming the causal chain,
- ``hop`` — incremented by the simulator on every transmission,
- ``lineage`` — the nodes that forwarded the packet, in order.

Hosts stamp a fresh context onto packets they originate (only when
telemetry is active — disabled tracing costs one branch per send), the
simulator advances it across links, and ``dataclasses.replace``-style
packet mutation preserves it for free. Every layer that already opens
spans or records audit events tags them with the owning trace, so
exports can join a packet's whole life back together by id.

Trace ids are deterministic (:class:`TraceIds`: per-origin serials
plus a content hash), never ``uuid4``: the same scripted run yields the
same ids, which keeps traces diffable across runs. Every simulator owns
its own :class:`TraceIds`, so there is no process-wide sequence for a
caller to reset between runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.util.ids import IdAllocator, short_id

#: Length of the hex trace-id token.
TRACE_ID_LEN = 12


@dataclass(frozen=True)
class TraceContext:
    """The causal identity a packet carries from origin to verdict."""

    trace_id: str
    hop: int = 0
    origin: str = ""
    lineage: Tuple[str, ...] = ()

    def hopped(self, via: str) -> "TraceContext":
        """The context one transmission later: hop+1, ``via`` appended."""
        return TraceContext(
            trace_id=self.trace_id,
            hop=self.hop + 1,
            origin=self.origin,
            lineage=self.lineage + (via,),
        )

    def span_args(self) -> Dict[str, object]:
        """The span/audit tags identifying this trace (``trace``, ``hop``)."""
        return {"trace": self.trace_id, "hop": self.hop}

    def __repr__(self) -> str:
        return f"TraceContext({self.trace_id}, hop={self.hop})"


class TraceIds:
    """One simulation's deterministic trace-id sequences.

    Serials are per-origin, so a host's Nth trace id depends only on
    ``(origin, N)`` — not on how sends from *other* hosts interleave
    with its own. That makes trace ids invariant under sharding: each
    shard's simulator owns a :class:`TraceIds`, a host's sends all run
    in its owner shard, and any partitioning yields byte-identical ids.
    """

    def __init__(self) -> None:
        self._serials = IdAllocator()

    def new_id(self, origin: str = "") -> str:
        """Allocate ``origin``'s next trace id."""
        serial = self._serials.next(f"trace:{origin}")
        return short_id(f"trace|{origin}|{serial}".encode(), length=TRACE_ID_LEN)

    def start(self, origin: str) -> TraceContext:
        """A fresh hop-0 context originating at ``origin``."""
        return TraceContext(trace_id=self.new_id(origin), origin=origin)


__all__ = [
    "TraceContext",
    "TraceIds",
    "TRACE_ID_LEN",
]

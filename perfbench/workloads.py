"""The benchmark's three fat-tree campaign workloads and their expected counts.

Every workload is a batch run of ``repro.core.fabric.run_fabric_traffic``
on the ``inline`` backend: the whole campaign is generated from the
seed up front, simulated to completion, then appraised. Sizes are
chosen so one repetition takes one to two seconds on one core: a run
then holds 10-30 repetitions, and each stretch of the run phase is
likely to have met a quiet moment of a shared machine in one of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.core.fabric import FatTreeShape, standard_fabric_rules
from repro.net.qdisc import QueueConfig, RecoveryConfig
from repro.net.routing import RoutingMode
from repro.pera.config import BatchingSpec

#: Every workload runs in one process: on a 2-core machine the ``mp``
#: backend's workers mostly measure the scheduler.
BACKEND = "inline"


@dataclass(frozen=True)
class Workload:
    """A campaign shape (full or ``smoke`` size) and how it is run.

    ``telemetry`` turns on live metrics, the audit journal, the flight
    recorder and the standard fabric health rules.
    """

    shape: Callable[[bool], FatTreeShape]
    shards: int
    telemetry: bool

    def health_rules(self) -> Optional[List[object]]:
        return standard_fabric_rules() if self.telemetry else None


def _fastpath(smoke: bool) -> FatTreeShape:
    return FatTreeShape(
        k=4 if smoke else 8,
        # Mice only (1-8 packets): with 10% elephants of 32-128 packets
        # the seed moved the number of packet-hops by +-9%, and the
        # per-flow and attestation costs with it. About 40k hops, so a
        # run holds ~30 repetitions for hop_us to take pieces from.
        bulk_flows=60 if smoke else 1750,
        web_sessions=4 if smoke else 50,
        mice_fraction=1.0,
        attested_flows=8,
        attested_packets=2 if smoke else 4,
        payload_bytes=64,
        routing=RoutingMode.FLOWLET,
        flowlet_n_packets=32,
    )


def _attested(smoke: bool) -> FatTreeShape:
    return FatTreeShape(
        k=4,
        # A light background of four 2-packet flows: about 30 cheap
        # fast-path hops, so the seed barely moves the per-hop figure.
        bulk_flows=4,
        web_sessions=0,
        mice_fraction=1.0,
        mice_packets=(2, 2),
        attested_flows=8 if smoke else 32,
        attested_packets=2 if smoke else 4,
        oob_fraction=0.5,
        routing=RoutingMode.ECMP,
    )


def _congested(smoke: bool) -> FatTreeShape:
    return FatTreeShape(
        k=6,
        # Mice only: the incast and the corrupt link make the congestion,
        # and the seed then barely moves the number of packet-hops.
        bulk_flows=60 if smoke else 800,
        web_sessions=4 if smoke else 20,
        mice_fraction=1.0,
        attested_flows=4 if smoke else 16,
        attested_packets=4 if smoke else 8,
        routing=RoutingMode.FLOWLET,
        queue=QueueConfig(
            capacity_bytes=64 * 1024,
            ecn_threshold_bytes=16 * 1024,
            pause_threshold_bytes=32 * 1024,
            # A generous retry budget: at 30% corruption, 16 retries
            # lose a packet with odds 0.3**17, so no flow fails.
            recovery=RecoveryConfig(retransmit_limit=16),
        ),
        incast_fan_in=8,
        corrupt_link_rate=0.3,
        batching=BatchingSpec(max_records=16),
    )


#: Why each workload exists is in README.md and BENCHMARK.json.
WORKLOADS: Dict[str, Workload] = {
    "fastpath": Workload(_fastpath, shards=1, telemetry=False),
    "attested": Workload(_attested, shards=1, telemetry=False),
    "congested": Workload(_congested, shards=2, telemetry=True),
}


def switch_hops(src: str, dst: str) -> int:
    """Switches a packet crosses between two fat-tree hosts.

    Hosts are named ``h-p<pod>e<edge>-<i>``; every fat-tree path the
    fabric picks is a shortest one: 1 switch under one edge, 3 inside
    a pod, 5 across the core.
    """
    src_edge, dst_edge = src.split("-")[1], dst.split("-")[1]
    if src_edge == dst_edge:
        return 1
    if src_edge.split("e")[0] == dst_edge.split("e")[0]:
        return 3
    return 5


def oob_flow_count(shape: FatTreeShape) -> int:
    """Attested flows that send evidence out-of-band (see FatTreeShape)."""
    if shape.batching is not None:
        return shape.attested_flows
    return int(round(shape.attested_flows * shape.oob_fraction))

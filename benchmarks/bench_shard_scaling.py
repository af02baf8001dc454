"""Packet-hops/sec vs shard count on an 80-switch k=8 fat-tree.

The sharded-core acceptance benchmark: a bulk-only ECMP campaign
(:func:`~repro.core.fabric.run_fabric_traffic` — 128 hosts, 800 mice
flows, no attested traffic) runs on the ``monolith`` backend and on
the sharded core at 1/2/4 shards, and the table records per row:

- **wall hops/s** — forwarded packet-hops over real elapsed time on
  *this* box (build included). With fewer cores than shards every
  shard time-slices the same CPUs, so this column shows the
  coordination overhead; ``wall speedup`` is the measured 1-shard /
  N-shard wall ratio, printed beside ``cpu_count``.
- **projected hops/s** — packet-hops over ``max`` per-shard busy time
  (:attr:`~repro.net.shardrun.ShardedResult.critical_path_s`), the
  standard conservative-PDES capacity metric: what the wall clock
  converges to once each shard has its own core. It is a projection,
  not a measurement, and is labelled so. The >=2x scaling gate
  asserts on this column.

Busy time is measured inside each shard's window loop (barrier and
transport costs excluded), so the critical path is the residual serial
fraction of the *simulation* work — the quantity sharding exists to
shrink.
"""

import gc
import os
import time

import pytest

from repro.core.fabric import FatTreeShape, run_fabric_traffic
from repro.net.routing import RoutingMode

from conftest import report, table

# 80 switches, 128 hosts, 800 bulk mice flows (~17k packet-hops).
SHAPE = FatTreeShape(
    k=8,
    bulk_flows=800,
    web_sessions=0,
    attested_flows=0,
    mice_fraction=1.0,
    routing=RoutingMode.ECMP,
)
SHARD_COUNTS = (1, 2, 4)

#: Acceptance floor: projected (critical-path) throughput at 4 shards
#: over 1 shard.
MIN_SCALING_X4 = 2.0

#: Repeats per config in the report table; best run wins. A single
#: shot is fragile on a shared runner (one GC pause or scheduler
#: preemption lands entirely inside one config's measurement).
ROUNDS = 3


def _run(shards=1, backend="inline", shape=SHAPE):
    return run_fabric_traffic(
        shape, shards=shards, backend=backend, telemetry_active=False
    )


def _timed(fn):
    """Run ``fn`` :data:`ROUNDS` times; returns the list of
    ``(result, wall_s)`` samples for the caller to reduce (min wall,
    min critical path — each taken independently, as is standard for
    noise-floor timing)."""
    samples = []
    for _ in range(ROUNDS):
        gc.collect()
        start = time.perf_counter()
        out = fn()
        samples.append((out, time.perf_counter() - start))
    return samples


def _warmup():
    """Pay first-call costs (imports, table builds) off the clock so
    they don't land on whichever measured row runs first."""
    _run(shards=2, shape=FatTreeShape(
        k=4, bulk_flows=8, web_sessions=0, attested_flows=0
    ))


def _complete(run) -> bool:
    return run.unroutable == 0 and len(run.fct_s) == SHAPE.bulk_flows


def test_shard_scaling_monolith(benchmark):
    run = benchmark(lambda: _run(backend="monolith"))
    benchmark.extra_info["cpu_count"] = os.cpu_count()
    benchmark.extra_info["hops"] = run.forwarded
    assert _complete(run)


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_shard_scaling_sharded(benchmark, shards):
    run = benchmark(lambda: _run(shards=shards))
    critical = run.result.critical_path_s
    benchmark.extra_info["cpu_count"] = os.cpu_count()
    benchmark.extra_info["shards"] = shards
    benchmark.extra_info["hops"] = run.forwarded
    benchmark.extra_info["windows"] = run.result.windows
    benchmark.extra_info["projected_critical_path_s"] = round(critical, 6)
    benchmark.extra_info["projected_hops_per_s"] = round(
        run.forwarded / critical
    )
    assert _complete(run)


def test_shard_scaling_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    _warmup()

    rows = []
    walls = {}

    def row(config, shards, backend):
        samples = _timed(lambda: _run(shards=shards, backend=backend))
        run = samples[0][0]
        wall = min(w for _, w in samples)
        critical = min(r.result.critical_path_s for r, _ in samples)
        hops = run.forwarded
        walls[config] = wall
        rows.append({
            "config": config,
            "windows": run.result.windows,
            "complete": _complete(run),
            "wall s": round(wall, 3),
            "wall hops/s": round(hops / wall),
            "projected s": round(critical, 3),
            "projected hops/s": round(hops / critical),
        })
        return hops / critical

    row("monolith", 1, "monolith")
    projected_rate = {
        shards: row(f"sharded x{shards} (inline)", shards, "inline")
        for shards in SHARD_COUNTS
    }
    row("sharded x2 (mp)", 2, "mp")

    scaling = projected_rate[4] / projected_rate[1]
    wall_speedup = (
        walls["sharded x1 (inline)"] / walls["sharded x4 (inline)"]
    )
    cpu_count = os.cpu_count()
    benchmark.extra_info["cpu_count"] = cpu_count
    benchmark.extra_info["wall_speedup_x4"] = round(wall_speedup, 3)
    benchmark.extra_info["projected_scaling_x4"] = round(scaling, 3)
    report(
        f"Shard scaling, {SHAPE.switch_count}-switch k={SHAPE.k} fat-tree "
        f"({SHAPE.host_count} hosts, {SHAPE.bulk_flows} bulk flows)",
        [
            *table(rows),
            "",
            f"projected (critical-path) scaling at 4 shards: {scaling:.2f}x "
            f"(gate: >={MIN_SCALING_X4}x)",
            f"measured wall speedup at 4 shards: {wall_speedup:.2f}x "
            f"(cpu_count={cpu_count})",
        ],
    )

    # Every config completes every flow.
    assert all(r["complete"] for r in rows)
    # The acceptance gate: the slowest shard at x4 carries less than
    # half the work a single shard carries.
    assert scaling >= MIN_SCALING_X4

"""One repetition of one workload, in a fresh interpreter.

``run.py`` starts this script once per repetition, so the process-wide
signature-verification memo and the lazily built curve tables start
cold, as they do for a user's campaign. It prints one JSON line:
timings, the run's output counts, the expected counts, a digest of the
deterministic outputs and, with ``--trace 1``, per-layer call counts
and self times.

    python3 perfbench/campaign.py --workload fastpath --seed 1 \
        --trace 0 --t0 <time.monotonic() at spawn>
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import importlib
import json
import pathlib
import resource
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_repro() -> None:
    sys.path.insert(0, str(SRC))
    import repro

    if pathlib.Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"repro imported from {repro.__file__}, not {SRC}")


def _digest(result) -> str:
    """One hash over every deterministic output of the campaign."""
    sharded = result.result
    parts = [
        sharded.stats_export(),
        sharded.audit_export(),
        json.dumps(sorted((fid, repr(t)) for fid, t in result.fct_s.items())),
        json.dumps(sorted((fid, list(v)) for fid, v in result.verdicts.items())),
        json.dumps([
            result.forwarded, result.attested_hops, result.oob_records,
            result.oob_verified, result.epochs_sealed,
        ]),
        result.frames_export(),
    ]
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()


def _expected(shape, seed: int) -> dict:
    """Counts an honest, lossless run must produce, from the flows the
    campaign generates and the fat-tree's shortest-path lengths."""
    from repro.core.fabric import _campaign_flows
    from workloads import oob_flow_count, switch_hops

    flows = _campaign_flows(shape, seed)
    attested = [f for f in flows if f.attested]
    oob_ids = {f.flow_id for f in attested[len(attested) - oob_flow_count(shape):]}
    return {
        "flows": len(flows),
        "forwarded": sum(
            f.packets * switch_hops(f.src, f.dst) for f in flows if not f.attested
        ),
        "attested_hops": sum(f.packets * switch_hops(f.src, f.dst) for f in attested),
        "inband_packets": sum(f.packets for f in attested if f.flow_id not in oob_ids),
        "oob_records": sum(
            f.packets * switch_hops(f.src, f.dst) for f in attested if f.flow_id in oob_ids
        ),
    }


#: Calls that mark progress through the run phase, at the attribute
#: their caller resolves: packet deliveries and PERA signatures while
#: the network runs, then in-band appraisals, out-of-band batch checks
#: and health-rule windows in the harvest.
CHECKPOINTS = [
    ("repro.workload.flows", "FlowSink.handle_packet"),
    ("repro.crypto.ed25519", "SigningKey.sign"),
    ("repro.core.appraisal", "PathAppraiser.appraise_packet"),
    ("repro.core.fabric", "verify_record_batch"),
    ("repro.telemetry.health", "apply_delta"),
]


def _install_checkpoints(marks: dict) -> list:
    """Record when each call in :data:`CHECKPOINTS` returns in the run phase.

    The simulation is deterministic, so the n-th mark ends the same
    work in every repetition of a seed; ``run.py`` cuts the run phase
    at these marks. One list append per call, in untraced runs only.
    """
    times: list = []
    stamp = times.append
    for module_name, path in CHECKPOINTS:
        owner = importlib.import_module(module_name)
        *outer, name = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = owner.__dict__[name]

        def marked(*args, _fn=original, **kwargs):
            result = _fn(*args, **kwargs)
            if "run_start" in marks:
                stamp(time.perf_counter())
            return result

        setattr(owner, name, functools.wraps(original)(marked))
    return times


def run_once(workload_name: str, seed: int, trace: bool, t0: float, smoke: bool) -> dict:
    _import_repro()
    import repro.core.fabric as fabric
    from repro.evidence.verify import shared_cache
    from tracer import SPEC_LAYERS, LayerTracer
    from workloads import BACKEND, WORKLOADS

    workload = WORKLOADS[workload_name]
    shape = workload.shape(smoke)
    tracer = LayerTracer() if trace else None
    batch_items = [0, 0]
    if tracer is not None:
        tracer.install()
        import repro.crypto.ed25519 as ed25519

        traced_batch = ed25519.verify_batch

        def counted_batch(items, *args, **kwargs):
            batch_items[0] += 1
            batch_items[1] += len(items)
            return traced_batch(items, *args, **kwargs)

        ed25519.verify_batch = counted_batch

    # Set-up ends when the last shard's build returns: the next thing
    # the runner does is simulate.
    marks = {"builds": 0}
    make_spec = fabric.fabric_traffic_spec

    def timed_spec(*args, **kwargs):
        spec = make_spec(*args, **kwargs)
        build = spec.build

        def timed_build(sim):
            ctx = build(sim)
            marks["builds"] += 1
            if marks["builds"] == workload.shards:
                marks["setup_end"] = time.monotonic()
                marks["run_start"] = time.perf_counter()
                if tracer is not None:
                    marks["setup_phase"] = tracer.restart()
            return ctx

        changes = {"build": timed_build}
        if tracer is not None:
            for field, layer in SPEC_LAYERS.items():
                fn = getattr(spec, field)
                if fn is not None:
                    changes[field] = tracer.wrap(fn, layer, f"spec:{field}")
        return dataclasses.replace(spec, **changes)

    fabric.fabric_traffic_spec = timed_spec
    checkpoints = _install_checkpoints(marks) if tracer is None else []
    result = fabric.run_fabric_traffic(
        shape,
        shards=workload.shards,
        backend=BACKEND,
        seed=seed,
        telemetry_active=workload.telemetry,
        health=workload.health_rules(),
    )
    run_end = time.perf_counter()
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    run_s = run_end - marks["run_start"]
    accepted, rejected = result.verdict_counts
    stats = result.result.stats
    cache = shared_cache.stats
    record = {
        "setup_s": marks["setup_end"] - t0,
        "run_s": run_s,
        "hops": result.forwarded + result.attested_hops,
        "peak_rss_mb": peak_rss_kib / 1024.0,
        "digest": _digest(result),
        "expected": _expected(shape, seed),
        "counts": {
            "forwarded": result.forwarded,
            "unroutable": result.unroutable,
            "attested_hops": result.attested_hops,
            "epochs_sealed": result.epochs_sealed,
            "oob_records": result.oob_records,
            "oob_verified": result.oob_verified,
            "accepted": accepted,
            "rejected": rejected,
            "flows_completed": len(result.fct_s),
            "congestion_repicks": result.congestion_repicks,
            "events": stats.events_processed,
            "windows": result.result.windows,
            "queue_drops": stats.queue_drops,
            "ecn_marked": stats.ecn_marked,
            "pause_frames": stats.pause_frames,
            "recovery_retransmits": stats.recovery_retransmits,
            "frames": len(result.frames),
            "alerts": len(result.health.alerts) if result.health else 0,
            "verify_hits": cache.hits,
            "verify_misses": cache.misses,
        },
    }
    if tracer is None:
        record["checkpoints"] = [t - marks["run_start"] for t in checkpoints]
    if tracer is not None:
        record["layers"] = {
            layer: {"calls": int(acc[0]), "self_s": acc[1]}
            for layer, acc in tracer.totals.items()
        }
        record["target_calls"] = {
            target: calls[0] for target, calls in sorted(tracer.target_calls.items())
        }
        record["crypto_setup_self_s"] = marks["setup_phase"]["crypto"][1]
        record["batch_items"] = batch_items
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    record = run_once(args.workload, args.seed, bool(args.trace), args.t0, args.smoke)
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

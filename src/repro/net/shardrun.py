"""The campaign runner: drive a scenario to one merged, canonical
result — on one plain event loop or on N :class:`ShardSimulator` loops.

Three backends run the same scenario through the same steps (build,
install the recorder, run to idle, drain, finish, harvest, merge):

* ``monolith`` — one plain :class:`~repro.net.simulator.Simulator`,
  no windows: ``run()``, drain, ``run()`` until idle. The parity
  oracle: every partitioned run must merge to its exact bytes.
* ``inline`` — every shard in this process, stepped round-robin
  through the window barrier. The reference sharded engine and the
  fast path on small machines (the window engine batches heap work,
  so even 1 "shard" outruns the plain event loop on fabric runs).
* ``mp`` — one ``multiprocessing`` worker per shard (fork start
  method), a pipe per worker, one message round-trip per window.

``inline`` and ``mp`` share one barrier loop over shard handles that
answer ``step``/``drain``/``finish``; the ``mp`` handle polls its pipe
against :data:`WORKER_REPLY_DEADLINE_S`, so a dead, failing or wedged
worker raises a :class:`~repro.util.errors.NetworkError` naming the
shard and window instead of hanging the parent.

Whatever the backend or shard count, the *merge* is canonical:
:meth:`~repro.net.simulator.SimStats.merge` folds stats field-wise,
metric snapshots merge by label
(:func:`repro.telemetry.metrics.merge_snapshots`), and audit streams
merge into one journal ordered by ``(sim_time, trace_id, seq)``
(:func:`repro.telemetry.audit.merge_audit_events`). The runner
canonicalizes even at one shard, so ``monolith`` and ``shards=1``
output is the byte-identical baseline the determinism tests pin 2- and
4-shard runs against.

The scenario contract is a :class:`ScenarioSpec`: a topology (or
factory), a ``build(sim)`` callable that constructs the *full* world
on every shard (ownership gates make execution single-writer — see
:mod:`repro.net.sharding`), and an optional ``harvest(sim, ctx)``
returning a picklable per-shard output. Builds must be deterministic
and, for the ``mp`` backend, module-level callables (or
``functools.partial`` of one) so results can cross the pipe.
"""

from __future__ import annotations

import json
import multiprocessing
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Union

from repro.net.sharding import (
    KIND_CONTROL,
    Partition,
    ShardSimulator,
    partition_topology,
)
from repro.net.simulator import SimStats, Simulator
from repro.net.topology import Topology
from repro.telemetry.audit import merge_audit_events
from repro.telemetry.instrument import Telemetry
from repro.telemetry.metrics import merge_snapshots
from repro.telemetry.timeseries import (
    SamplingSpec,
    install_recorder,
    merge_frame_streams,
    renumber_frame_times,
)
from repro.util.errors import NetworkError

BACKENDS = ("monolith", "inline", "mp")

#: Runaway guard on the drain/resume cycle (a drain hook that keeps
#: scheduling fresh work forever is a scenario bug, not a slow run).
MAX_DRAIN_ROUNDS = 64

#: How long the parent waits for any one reply from an ``mp`` worker
#: before declaring it hung. A reply covers one build, window, drain or
#: harvest — seconds even for large campaigns; this is the backstop
#: that turns a wedged worker into an error instead of a hang.
WORKER_REPLY_DEADLINE_S = 300.0

#: The poll slice between liveness checks while awaiting a reply.
_POLL_SLICE_S = 0.05


@dataclass(frozen=True)
class ScenarioSpec:
    """A sharding-ready scenario: topology + full-world build + harvest.

    ``topology`` may be a :class:`Topology` instance or a zero-argument
    factory (factories rebuild per worker under ``mp``, instances are
    shared read-only). ``build(sim)`` binds every node and schedules
    all driving events; it runs once per shard and must be
    deterministic. ``harvest(sim, ctx)`` extracts the per-shard output
    (verdicts, received packets, fault stats) after finalization.

    ``drain(sim, ctx)``, when given, runs after the event queues go
    dry, with every shard's clock advanced to the same global time; it
    may schedule fresh events (the canonical use: sealing still-open
    evidence epochs, whose releases forward parked packets). The
    runner then resumes the window loop, repeating until a drain round
    leaves all shards idle — the ``monolith`` backend does the same
    between plain ``run()`` calls.

    ``sampling``, when given, installs a
    :class:`~repro.telemetry.timeseries.FlightRecorder` on every shard;
    the runner merges the per-shard frame streams canonically at the
    end (see :func:`~repro.telemetry.timeseries.merge_frame_streams`),
    so ``ShardedResult.frames`` is byte-identical across shard counts
    like stats and the audit journal.
    """

    topology: Union[Topology, Callable[[], Topology]]
    build: Callable[[Any], Any]
    harvest: Optional[Callable[[Any, Any], Any]] = None
    drain: Optional[Callable[[Any, Any], None]] = None
    sampling: Optional[SamplingSpec] = None

    def make_topology(self) -> Topology:
        topo = self.topology() if callable(self.topology) else self.topology
        if not isinstance(topo, Topology):
            raise NetworkError(
                f"scenario topology resolved to {type(topo).__name__}, "
                "expected Topology"
            )
        return topo


@dataclass
class ShardedResult:
    """The canonical merged output of one sharded run."""

    shards: int
    backend: str
    stats: SimStats
    audit_events: List[Dict[str, object]]
    metrics: Dict[str, Dict[str, object]]
    outputs: List[Any]
    lookahead_s: float
    windows: int
    partition: Partition
    telemetry: Optional[Telemetry] = field(default=None, repr=False)
    #: Per-shard compute time (seconds of event processing, summed over
    #: windows). Wall-clock measurements — deliberately *outside* the
    #: deterministic exports.
    shard_busy_s: List[float] = field(default_factory=list)
    #: Merged flight-recorder frames (empty when the spec sampled
    #: nothing). Deterministic: part of the byte-identity contract.
    frames: List[Dict[str, object]] = field(default_factory=list)
    frames_dropped: int = 0
    #: The sampling window width the frames were recorded at.
    sample_interval_s: Optional[float] = None
    #: Per-shard recorder runtime (backlog/busy) — wall-clock flavored,
    #: outside the deterministic exports like ``shard_busy_s``.
    frames_runtime: List[Dict[str, float]] = field(default_factory=list)

    @property
    def events_processed(self) -> int:
        return self.stats.events_processed

    @property
    def critical_path_s(self) -> float:
        """The slowest shard's compute time: what the run's wall clock
        converges to when every shard has its own core (the standard
        conservative-PDES capacity metric)."""
        return max(self.shard_busy_s, default=0.0)

    def audit_export(self) -> str:
        """The merged audit journal as deterministic JSON — the byte
        string the determinism tests compare across shard counts."""
        return json.dumps(self.audit_events, sort_keys=True)

    def stats_export(self) -> str:
        return json.dumps(self.stats.as_dict(), sort_keys=True)

    def frames_export(self) -> str:
        """The merged frame stream as deterministic JSON — compared
        across shard counts exactly like :meth:`audit_export`."""
        return json.dumps(self.frames, sort_keys=True)


def _worker_opts(runner: "ShardedRunner", max_events: int) -> Dict[str, Any]:
    return {
        "seed": runner.seed,
        "control_latency_s": runner.control_latency_s,
        "telemetry_active": runner.telemetry_active,
        "max_events": max_events,
    }


def _next_start(
    next_times: List[Optional[float]],
    pending: List[List[tuple]],
    until: Optional[float],
) -> Optional[float]:
    """The next window's start time, or None when the run is over
    (no pending work, or all of it beyond ``until``)."""
    times = [t for t in next_times if t is not None]
    times.extend(entry[0] for queue in pending for entry in queue)
    if not times:
        return None
    start = min(times)
    if until is not None and start > until:
        return None
    return start


def _check_drain_rounds(rounds: int) -> None:
    if rounds > MAX_DRAIN_ROUNDS:
        raise NetworkError(
            "scenario drain hook kept scheduling work after "
            f"{MAX_DRAIN_ROUNDS} rounds"
        )


def _build(spec: ScenarioSpec, opts: Dict[str, Any], simulator, *where):
    """Construct one event loop — a :class:`Simulator` or a
    :class:`ShardSimulator` — and run the scenario build on it."""
    sim = simulator(
        *where,
        seed=opts["seed"],
        control_latency_s=opts["control_latency_s"],
        telemetry=Telemetry(active=opts["telemetry_active"]),
    )
    ctx = spec.build(sim)
    if spec.sampling is not None:
        install_recorder(sim, spec.sampling)
    return sim, ctx


def _finish_shard(
    spec: ScenarioSpec, sim: Simulator, ctx: Any, until: Optional[float]
) -> Dict[str, Any]:
    """Advance to the run's end time (``until``, or the latest shard
    clock), run the final barrier, and bundle the shard's picklable
    contribution to the merge."""
    if until is not None:
        sim.clock.advance_to(until)
    # Ticks due at the final clock fire *before* the barrier sweep, so
    # deltas from barrier-sealed epochs land in the residual window —
    # exactly where the monolith's end-of-run flush puts them.
    sim.pump_recorder()
    sim.run_barrier_hooks()
    sim.finalize()
    output = spec.harvest(sim, ctx) if spec.harvest is not None else None
    recorder = sim.recorder
    return {
        "stats": sim.stats.as_dict(),
        "audit": [event.as_dict() for event in sim.telemetry.audit.events],
        "metrics": sim.telemetry.metrics.snapshot(),
        "output": output,
        "busy_s": sim.busy_seconds,
        "frames": recorder.frames if recorder is not None else [],
        "frames_dropped": (
            recorder.frames_dropped if recorder is not None else 0
        ),
        "frames_runtime": recorder.runtime() if recorder is not None else {},
    }


def _run_monolith(
    spec: ScenarioSpec,
    topology: Topology,
    opts: Dict[str, Any],
    until: Optional[float],
) -> Dict[str, Any]:
    """The ``monolith`` backend: one plain :class:`Simulator`, no
    windows — ``run()``, then drain and ``run()`` again until idle.

    The parity oracle: it shares build, drain, harvest and the finish
    steps with the shards, so its bundle must merge to the same bytes
    as any partitioning of the same scenario."""
    sim, ctx = _build(spec, opts, Simulator, topology)
    sim.run(until=until, max_events=opts["max_events"])
    rounds = 0
    while spec.drain is not None:
        rounds += 1
        _check_drain_rounds(rounds)
        sim.pump_recorder()
        spec.drain(sim, ctx)
        if _next_start([sim.next_event_time()], [], until) is None:
            break
        sim.run(until=until, max_events=opts["max_events"])
    return _finish_shard(spec, sim, ctx, until)


class _LocalShard:
    """A shard stepped in this process: the ``inline`` backend's handle
    and, inside each worker, the ``mp`` backend's engine.

    Every command (``step``/``drain``/``finish``) runs at once and
    leaves its result for :meth:`reply`.
    """

    def __init__(
        self,
        spec: ScenarioSpec,
        topology: Topology,
        partition: Partition,
        shard_id: int,
        opts: Dict[str, Any],
    ) -> None:
        self.spec = spec
        self.max_events = opts["max_events"]
        self.sim, self.ctx = _build(
            spec, opts, ShardSimulator, topology, partition, shard_id
        )
        self._reply: Any = None

    @property
    def next_time(self) -> Optional[float]:
        return self.sim.next_event_time()

    @property
    def now(self) -> float:
        return self.sim.clock.now

    def step(
        self, t_end: float, until: Optional[float], entries: List[tuple]
    ) -> None:
        sim = self.sim
        if entries:
            sim.inject(entries)
        sim.run_window(t_end, hard_limit=until, max_events=self.max_events)
        sim.run_barrier_hooks()
        self._reply = sim.take_outbox()

    def drain(self, t_sync: float) -> None:
        sim = self.sim
        sim.clock.advance_to(t_sync)
        # Ticks due at the sync time close before drain work (epoch
        # flushes) mutates counters, keeping the flush deltas in the
        # same window the monolith assigns them.
        sim.pump_recorder()
        self.spec.drain(sim, self.ctx)
        self._reply = sim.take_outbox()

    def finish(self, until: Optional[float]) -> None:
        self._reply = _finish_shard(self.spec, self.sim, self.ctx, until)

    def reply(self) -> Any:
        return self._reply

    def close(self) -> None:
        pass


def _shard_worker(conn, spec, partition, shard_id, opts) -> None:
    """The ``mp`` backend's per-shard process body: a :class:`_LocalShard`
    driven over a pipe.

    Protocol (one round-trip per command):

    * worker → parent: ``("ready", None, next_event_time, clock_now)``
    * parent → worker: ``("step", t_end, hard_limit, inject_entries)``
      or ``("drain", t_sync)``
    * worker → parent: ``("step"|"drain", outbox, next_time, clock_now)``
    * parent → worker: ``("finish", until)``
    * worker → parent: ``("finish", bundle, next_time, clock_now)``,
      then exit.

    Any exception is shipped back as ``("error", traceback)`` so the
    parent can fail loudly instead of waiting on a dead pipe.
    """
    try:
        shard = _LocalShard(
            spec, spec.make_topology(), partition, shard_id, opts
        )
        conn.send(("ready", None, shard.next_time, shard.now))
        while True:
            command, *args = conn.recv()
            if command not in ("step", "drain", "finish"):
                raise NetworkError(f"unknown runner command {command!r}")
            getattr(shard, command)(*args)
            conn.send((command, shard.reply(), shard.next_time, shard.now))
            if command == "finish":
                return
    except Exception:
        import traceback

        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:
            pass
    finally:
        conn.close()


class _PipeShard:
    """A shard in a forked worker process, behind its pipe.

    Commands are sent at once and answered by :meth:`reply`, so every
    worker computes its window while the parent posts to the others.
    :meth:`reply` polls in slices: a worker that exited, answered with
    an error or garbage, or stayed silent past
    :data:`WORKER_REPLY_DEADLINE_S` raises a :class:`NetworkError`
    naming the shard and the window — the parent never hangs.
    """

    def __init__(self, mp, spec, partition, shard_id, opts) -> None:
        self.shard_id = shard_id
        self.windows = 0
        self.next_time: Optional[float] = None
        self.now = 0.0
        self._expected = "ready"
        parent_conn, child_conn = mp.Pipe()
        self.proc = mp.Process(
            target=_shard_worker,
            args=(child_conn, spec, partition, shard_id, opts),
            daemon=True,
        )
        self.proc.start()
        child_conn.close()
        self.conn = parent_conn

    def _post(self, *message) -> None:
        self._expected = message[0]
        self.conn.send(message)

    def step(
        self, t_end: float, until: Optional[float], entries: List[tuple]
    ) -> None:
        self.windows += 1
        self._post("step", t_end, until, entries)

    def drain(self, t_sync: float) -> None:
        self._post("drain", t_sync)

    def finish(self, until: Optional[float]) -> None:
        self._post("finish", until)

    def _fail(self, problem: str) -> NetworkError:
        return NetworkError(
            f"shard {self.shard_id} worker {problem} (awaiting "
            f"{self._expected!r} reply, window {self.windows})"
        )

    def _died(self) -> NetworkError:
        self.proc.join(timeout=1.0)
        return self._fail(
            f"exited with code {self.proc.exitcode} before replying"
        )

    def reply(self) -> Any:
        deadline = time.monotonic() + WORKER_REPLY_DEADLINE_S
        while not self.conn.poll(_POLL_SLICE_S):
            if not self.proc.is_alive():
                raise self._died()
            if time.monotonic() >= deadline:
                raise self._fail(
                    f"sent nothing for {WORKER_REPLY_DEADLINE_S}s"
                )
        try:
            message = self.conn.recv()
        except EOFError:
            raise self._died() from None
        except Exception as error:
            raise self._fail(f"sent an undecodable message ({error!r})") from None
        if isinstance(message, tuple) and message[:1] == ("error",):
            raise self._fail(f"failed:\n{message[-1]}")
        if (
            not isinstance(message, tuple)
            or len(message) != 4
            or message[0] != self._expected
        ):
            raise self._fail(f"sent a malformed message {message!r:.200}")
        _, payload, self.next_time, self.now = message
        return payload

    def close(self) -> None:
        self.conn.close()
        self.proc.join(timeout=_POLL_SLICE_S * 10)
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join()


class ShardedRunner:
    """Partition a scenario, run its shards to completion, merge."""

    def __init__(
        self,
        spec: ScenarioSpec,
        shards: int = 1,
        backend: str = "inline",
        seed: int = 0,
        control_latency_s: float = 50e-6,
        telemetry_active: bool = True,
    ) -> None:
        if backend not in BACKENDS:
            raise NetworkError(
                f"unknown backend {backend!r} (choose from {BACKENDS})"
            )
        if backend == "monolith" and shards != 1:
            raise NetworkError(
                f"the monolith backend runs one event loop, not {shards}"
            )
        self.spec = spec
        self.shards = shards
        self.backend = backend
        self.seed = seed
        self.control_latency_s = control_latency_s
        self.telemetry_active = telemetry_active

    # --- public entry ---------------------------------------------------------

    def run(
        self, until: Optional[float] = None, max_events: int = 1_000_000
    ) -> ShardedResult:
        topology = self.spec.make_topology()
        partition = partition_topology(
            topology, self.shards, self.control_latency_s
        )
        opts = _worker_opts(self, max_events)
        if self.backend == "monolith":
            bundle = _run_monolith(self.spec, topology, opts, until)
            return self._merge(partition, [bundle], 0)
        if self.backend == "mp":
            mp = multiprocessing.get_context("fork")
            handle = partial(_PipeShard, mp, self.spec, partition)
        else:
            handle = partial(_LocalShard, self.spec, topology, partition)
        shards: List[Any] = []
        try:
            for shard_id in range(partition.shard_count):
                shards.append(handle(shard_id, opts))
            bundles, windows = self._barrier_loop(shards, partition, until)
        finally:
            for shard in shards:
                shard.close()
        return self._merge(partition, bundles, windows)

    # --- the barrier protocol -------------------------------------------------

    @staticmethod
    def _route(partition: Partition, shards, pending) -> None:
        """Collect every shard's reply outbox, order the merged entries
        canonically and route each to its destination shard's pending
        queue. The sort key is the entry's data prefix ``(time, kind,
        endpoint..., index)`` — stable, total for entries from distinct
        endpoints, and independent of which shard produced what."""
        merged: List[tuple] = []
        for shard in shards:
            merged.extend(shard.reply())
        merged.sort(key=lambda entry: entry[:5])
        for entry in merged:
            # Control entries carry (sender, recipient); packet and
            # pause entries lead with the destination endpoint.
            target = entry[3] if entry[1] == KIND_CONTROL else entry[2]
            pending[partition.owner[target]].append(entry)

    def _barrier_loop(self, shards, partition: Partition, until):
        """Window, exchange, repeat; drain when idle; finish. One loop
        for every shard handle — in-process or behind a pipe."""
        for shard in shards:
            shard.reply()  # every build done (workers build in parallel)
        pending: List[List[tuple]] = [[] for _ in shards]
        windows = 0
        drain_rounds = 0
        while True:
            while True:
                start = _next_start(
                    [shard.next_time for shard in shards], pending, until
                )
                if start is None:
                    break
                t_end = start + partition.lookahead_s
                for shard, entries in zip(shards, pending):
                    shard.step(t_end, until, entries)
                pending = [[] for _ in shards]
                windows += 1
                self._route(partition, shards, pending)
            if self.spec.drain is None:
                break
            drain_rounds += 1
            _check_drain_rounds(drain_rounds)
            t_sync = max(shard.now for shard in shards)
            for shard in shards:
                shard.drain(t_sync)
            self._route(partition, shards, pending)
            if _next_start(
                [shard.next_time for shard in shards], pending, until
            ) is None:
                break
        # Every shard finishes at the run's end time, so harvest-time
        # events carry the same timestamps under any partitioning.
        end = until if until is not None else max(s.now for s in shards)
        for shard in shards:
            shard.finish(end)
        return [shard.reply() for shard in shards], windows

    # --- merge ----------------------------------------------------------------

    def _merge(
        self,
        partition: Partition,
        bundles: List[Dict[str, Any]],
        windows: int,
    ) -> ShardedResult:
        stats = SimStats()
        for bundle in bundles:
            stats = stats.merge(SimStats(**bundle["stats"]))
        audit = merge_audit_events(
            [bundle["audit"] for bundle in bundles]
        )
        metrics = merge_snapshots(
            [bundle["metrics"] for bundle in bundles]
        )
        telemetry: Optional[Telemetry] = None
        if self.telemetry_active:
            telemetry = Telemetry(active=True)
            telemetry.audit.load(audit)
            telemetry.metrics.absorb_snapshot(metrics)
        frames: List[Dict[str, object]] = []
        frames_dropped = 0
        frames_runtime: List[Dict[str, float]] = []
        interval_s: Optional[float] = None
        if self.spec.sampling is not None:
            interval_s = self.spec.sampling.interval_s
            frames = merge_frame_streams(
                [bundle.get("frames", []) for bundle in bundles]
            )
            renumber_frame_times(frames, interval_s)
            frames_dropped = sum(
                int(bundle.get("frames_dropped", 0)) for bundle in bundles
            )
            frames_runtime = [
                dict(bundle.get("frames_runtime", {})) for bundle in bundles
            ]
        return ShardedResult(
            shards=partition.shard_count,
            backend=self.backend,
            stats=stats,
            audit_events=audit,
            metrics=metrics,
            outputs=[bundle["output"] for bundle in bundles],
            lookahead_s=partition.lookahead_s,
            windows=windows,
            partition=partition,
            telemetry=telemetry,
            shard_busy_s=[
                float(bundle.get("busy_s", 0.0)) for bundle in bundles
            ],
            frames=frames,
            frames_dropped=frames_dropped,
            sample_interval_s=interval_s,
            frames_runtime=frames_runtime,
        )


def run_sharded(
    spec: ScenarioSpec,
    shards: int = 1,
    backend: str = "inline",
    seed: int = 0,
    until: Optional[float] = None,
    max_events: int = 1_000_000,
    control_latency_s: float = 50e-6,
    telemetry_active: bool = True,
) -> ShardedResult:
    """One-call convenience wrapper around :class:`ShardedRunner`."""
    return ShardedRunner(
        spec,
        shards=shards,
        backend=backend,
        seed=seed,
        control_latency_s=control_latency_s,
        telemetry_active=telemetry_active,
    ).run(until=until, max_events=max_events)


__all__ = [
    "BACKENDS",
    "ScenarioSpec",
    "ShardedResult",
    "ShardedRunner",
    "run_sharded",
]
